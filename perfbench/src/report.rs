//! The result record of one benchmark run and its two printed forms:
//! a human-readable report (context, checks, every metric with its
//! unit) followed by the one-line JSON object that ends stdout.

use std::collections::BTreeMap;

use serde::Value;

/// End-to-end metrics every workload reports, with their units. Kept
/// in step with `end_to_end` in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, with their units. Kept in
/// step with `per_layer` in `BENCHMARK.json`. A workload that does
/// not exercise a layer reports 0 for it and `n/a` in the text report.
///
/// The `row.*` metrics split the traced phase's wall time
/// (`row.wall_s`) into self times: they plus `unattributed` add up to
/// `row.wall_s` exactly.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("solver.newton_solves", "count"),
    ("solver.newton_iters_per_solve", "ratio"),
    ("solver.newton_failures", "count"),
    ("cells.characterize_s", "s"),
    ("cells.characterized", "count"),
    ("cells.delta_library_s", "s"),
    ("cells.entry_fallbacks", "count"),
    ("cells.entry_fallback_ratio", "ratio"),
    ("netlist.build_ms", "ms"),
    ("core.compile_ms", "ms"),
    ("core.prepare_block_ms", "ms"),
    ("core.block_kernel_s", "s"),
    ("core.blocks", "count"),
    ("core.blocks_reconstructed", "count"),
    ("core.tail_lane_waste", "count"),
    ("core.single_thread_patterns_per_s", "1/s"),
    ("core.est_err_max_pct", "%"),
    ("engine.sweep_shard_s", "s"),
    ("engine.thread_scaling", "ratio"),
    ("engine.plan_cache_hit_ratio", "ratio"),
    ("engine.memo_hit_ratio", "ratio"),
    ("engine.mc_shard_s", "s"),
    ("variation.dies_derived", "count"),
    ("variation.dies_full", "count"),
    ("variation.fallback_total.tolerance", "count"),
    ("variation.fallback_total.unrecognized", "count"),
    ("variation.fallback_total.sens-build", "count"),
    ("variation.max_deviation_pct", "%"),
    ("opt.run_s", "s"),
    ("opt.candidates", "count"),
    ("server.handle_ms", "ms"),
    ("server.transport_ms", "ms"),
    ("server.queue_wait_s", "s"),
    ("server.job_s", "s"),
    ("server.shed", "count"),
    ("server.protocol_errors", "count"),
    ("client.reconnects", "count"),
    ("row.wall_s", "s"),
    ("row.cells_s", "s"),
    ("row.netlist_s", "s"),
    ("row.core_s", "s"),
    ("row.engine_s", "s"),
    ("row.variation_s", "s"),
    ("row.server_s", "s"),
    ("row.transport_s", "s"),
    ("row.client_s", "s"),
    ("unattributed", "s"),
    ("trace_overhead_pct", "%"),
];

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    /// `(key, value)` lines describing the run's conditions.
    pub context: Vec<(String, String)>,
    /// `(check, passed, detail)` for every output check.
    pub checks: Vec<(String, bool, String)>,
    /// Operations attempted in the measured phase.
    pub attempted: u64,
    /// Operations that failed (errors, non-2xx, sheds, transport).
    pub failed: u64,
    /// End-to-end values by [`END_TO_END`] name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// The workload's own names for its end-to-end figures, printed
    /// for readers: `(name, value, unit)`.
    pub named: Vec<(String, f64, String)>,
    /// Per-layer values by [`PER_LAYER`] name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Notes printed under the per-layer table.
    pub notes: Vec<String>,
}

impl Report {
    /// Records one context line.
    pub fn context(&mut self, key: &str, value: impl ToString) {
        self.context.push((key.to_string(), value.to_string()));
    }

    /// Records one output check.
    pub fn check(&mut self, name: &str, passed: bool, detail: impl ToString) {
        self.checks.push((name.to_string(), passed, detail.to_string()));
    }

    /// Records one workload-named figure.
    pub fn named(&mut self, name: &str, value: f64, unit: &str) {
        self.named.push((name.to_string(), value, unit.to_string()));
    }

    /// Sets one per-layer value.
    ///
    /// # Panics
    /// On a name missing from [`PER_LAYER`] (a benchmark bug).
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.layers.insert(name, value);
    }

    /// Every check passed (and at least one ran).
    pub fn correct(&self) -> bool {
        !self.checks.is_empty() && self.checks.iter().all(|(_, ok, _)| *ok)
    }

    /// Prints the text report, then the JSON result as the last line.
    pub fn print(&self, traced: bool) {
        for (k, v) in &self.context {
            println!("context  {k}: {v}");
        }
        for (name, ok, detail) in &self.checks {
            println!("check    {name}: {} ({detail})", if *ok { "pass" } else { "FAIL" });
        }
        println!(
            "ops      attempted {} failed {} failed_frac {}",
            self.attempted,
            self.failed,
            self.failed as f64 / self.attempted.max(1) as f64
        );
        for (name, value, unit) in &self.named {
            println!("figure   {name}: {value} {unit}");
        }
        let mut metrics = Vec::new();
        if traced {
            for &(name, unit) in PER_LAYER {
                match self.layers.get(name) {
                    Some(v) => println!("layer    {name}: {v} {unit}"),
                    None => println!("layer    {name}: n/a"),
                }
                metrics.push((name, self.layers.get(name).copied().unwrap_or(0.0), unit));
            }
            for note in &self.notes {
                println!("note     {note}");
            }
        } else {
            for &(name, unit) in END_TO_END {
                let v = self.e2e.get(name).copied().unwrap_or(0.0);
                println!("metric   {name}: {v} {unit}");
                metrics.push((name, v, unit));
            }
        }
        let metric_values = metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Value::Record(vec![
                    ("value".into(), Value::F64(if value.is_finite() { value } else { 0.0 })),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let result = Value::Record(vec![
            ("correct".into(), Value::Bool(self.correct())),
            ("attempted".into(), Value::Int(i128::from(self.attempted.max(1)))),
            ("failed".into(), Value::Int(i128::from(self.failed))),
            ("metrics".into(), Value::Record(metric_values)),
        ]);
        println!("{}", serde::json::value_to_string(&result));
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The host's CPU model name (first `model name` of `/proc/cpuinfo`).
pub fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .unwrap_or_default()
        .lines()
        .find_map(|l| l.strip_prefix("model name").and_then(|r| r.split_once(':')))
        .map_or_else(|| "unknown".to_string(), |(_, m)| m.trim().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` lists exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_metric_lists() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde::json::value_from_str(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            let Value::Record(fields) = &doc else { panic!("object expected") };
            let Some((_, Value::Seq(items))) = fields.iter().find(|(k, _)| k == key) else {
                panic!("{key} missing")
            };
            items
                .iter()
                .map(|item| {
                    let Value::Record(f) = item else { panic!("metric object expected") };
                    let get = |k: &str| match f.iter().find(|(n, _)| n == k) {
                        Some((_, Value::Str(s))) => s.clone(),
                        _ => panic!("{k} missing"),
                    };
                    (get("name"), get("unit"))
                })
                .collect()
        };
        let ours = |list: &[(&str, &str)]| -> Vec<(String, String)> {
            list.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(listed("end_to_end"), ours(END_TO_END));
        assert_eq!(listed("per_layer"), ours(PER_LAYER));
    }
}
