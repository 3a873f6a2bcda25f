//! Per-layer readings shared by the workloads: the instrument counters
//! every traced phase reports the same way, the self-time rows, and
//! benchmark-timed calls into the netlist and core layers.

use std::time::Instant;

use nanoleak_cells::CellLibrary;
use nanoleak_core::{CompiledEstimator, EstimatorMode, LANES};
use nanoleak_netlist::generate::iscas_like;
use nanoleak_netlist::normalize::normalize;
use nanoleak_netlist::Circuit;

use crate::metrics::{ratio, Delta, Snapshot};
use crate::report::Report;
use crate::stats::median;

/// One measured phase of repeated calls.
pub struct Phase<T> {
    /// Each call's result, in call order.
    pub calls: Vec<T>,
    /// Each call's wall time in seconds.
    pub secs: Vec<f64>,
    /// Wall time of the whole phase.
    pub wall: f64,
    /// The change of every global instrument over the phase.
    pub delta: Delta,
    /// Traced phases: the calling thread's totals of the requested
    /// spans, in seconds.
    pub span_s: [f64; 2],
}

impl<T> Phase<T> {
    /// Units of work per second of call time.
    pub fn throughput(&self, units_per_call: usize) -> f64 {
        ratio((self.calls.len() * units_per_call) as f64, self.secs.iter().sum())
    }

    /// Call latencies in ms.
    pub fn latencies_ms(&self) -> Vec<f64> {
        self.secs.iter().map(|s| s * 1e3).collect()
    }
}

/// Calls `op(first)`, `op(first + 1)`, ... until `secs` have passed (at
/// least once), timing each call. With `spans`, the phase runs under a
/// span capture and reports those spans' totals.
pub fn timed_calls<T>(
    secs: f64,
    first: u64,
    spans: Option<[&str; 2]>,
    mut op: impl FnMut(u64) -> T,
) -> Phase<T> {
    let before = Snapshot::global();
    if spans.is_some() {
        nanoleak_obs::begin_capture();
    }
    let start = Instant::now();
    let (mut calls, mut times) = (Vec::new(), Vec::new());
    while calls.is_empty() || start.elapsed().as_secs_f64() < secs {
        let t = Instant::now();
        calls.push(op(first + calls.len() as u64));
        times.push(t.elapsed().as_secs_f64());
    }
    let wall = start.elapsed().as_secs_f64();
    let span_s = spans.map_or([0.0; 2], |names| {
        let trace = nanoleak_obs::end_capture();
        names.map(|n| trace.total_us(n) as f64 / 1e6)
    });
    Phase { calls, secs: times, wall, delta: Snapshot::global().since(&before), span_s }
}

/// A builtin netlist as every request builds it (generate + normalize).
pub fn build_circuit(name: &str) -> Circuit {
    normalize(&iscas_like(name).expect("builtin circuit")).expect("builtin circuit normalizes")
}

/// Median wall time of `reps` runs of `f`, in ms.
fn timed_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let xs: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&xs)
}

/// Single-thread block-kernel rate: a direct `estimate_index_block_into`
/// loop over `patterns` patterns of a prepared plan.
fn single_thread_rate(circuit: &Circuit, lib: &CellLibrary, seed: u64, patterns: usize) -> f64 {
    let plan = CompiledEstimator::compile(circuit, lib).expect("compile");
    plan.prepare_block();
    let mut scratch = plan.block_scratch();
    let t = Instant::now();
    let mut start = 0;
    while start < patterns {
        let n = LANES.min(patterns - start);
        plan.estimate_index_block_into(&mut scratch, seed, start, n, EstimatorMode::Lut)
            .expect("block estimate");
        std::hint::black_box(scratch.totals());
        start += n;
    }
    patterns as f64 / t.elapsed().as_secs_f64()
}

/// Median ms of building one target's netlist.
pub fn build_ms(target: &str) -> f64 {
    timed_ms(5, || drop(std::hint::black_box(build_circuit(target))))
}

/// Benchmark-timed calls into the netlist layer (the median over
/// `targets`) and the core layer on one circuit/library pair, made
/// outside any measured phase.
pub fn layer_probes(
    r: &mut Report,
    targets: &[&str],
    circuit: &Circuit,
    lib: &CellLibrary,
    seed: u64,
) {
    r.layer("netlist.build_ms", median(&targets.iter().map(|t| build_ms(t)).collect::<Vec<_>>()));
    r.layer(
        "core.compile_ms",
        timed_ms(5, || drop(std::hint::black_box(CompiledEstimator::compile(circuit, lib)))),
    );
    let plans: Vec<_> =
        (0..3).map(|_| CompiledEstimator::compile(circuit, lib).expect("compile")).collect();
    let mut plans = plans.into_iter();
    r.layer(
        "core.prepare_block_ms",
        timed_ms(3, || plans.next().expect("one plan per rep").prepare_block()),
    );
    r.layer("core.single_thread_patterns_per_s", single_thread_rate(circuit, lib, seed, 16_384));
}

/// Counters every workload reads the same way from one phase's delta.
pub fn common_layers(r: &mut Report, d: &Delta) {
    let solves = d.get("nanoleak_solver_newton_solves_total");
    r.layer("solver.newton_solves", solves);
    r.layer(
        "solver.newton_iters_per_solve",
        ratio(d.get("nanoleak_solver_newton_iterations_total"), solves),
    );
    r.layer("solver.newton_failures", d.get("nanoleak_solver_newton_failures_total"));
    r.layer("cells.characterize_s", d.sum("nanoleak_cells_characterize_seconds"));
    r.layer("cells.characterized", d.get("nanoleak_cells_characterized_total"));
    let hits = d.get("nanoleak_plan_cache_hits_total");
    let lookups = hits + d.get("nanoleak_plan_cache_misses_total");
    if lookups > 0.0 {
        r.layer("engine.plan_cache_hit_ratio", hits / lookups);
    }
    let memo_hits = d.get("nanoleak_cache_memory_hits_total");
    let memo_lookups = memo_hits
        + d.get("nanoleak_cache_disk_hits_total")
        + d.get("nanoleak_cache_characterizations_total");
    if memo_lookups > 0.0 {
        r.layer("engine.memo_hit_ratio", memo_hits / memo_lookups);
    }
}

/// The fast-MC instruments: per-die derivation time, MC shard time and
/// fallbacks by reason.
pub fn mc_layers(r: &mut Report, d: &Delta) {
    r.layer("cells.delta_library_s", d.sum("nanoleak_delta_library_seconds"));
    r.layer("engine.mc_shard_s", d.sum("nanoleak_mc_shard_seconds"));
    for (reason, name) in [
        ("tolerance", "variation.fallback_total.tolerance"),
        ("unrecognized", "variation.fallback_total.unrecognized"),
        ("sens-build", "variation.fallback_total.sens-build"),
    ] {
        r.layer(name, d.get(&format!("nanoleak_mc_fallback_total{{reason=\"{reason}\"}}")));
    }
}

/// Records the self-time rows of one traced phase and the
/// `unattributed` remainder, so the rows add up to `wall`.
pub fn rows(r: &mut Report, wall: f64, rows: &[(&'static str, f64)]) {
    r.layer("row.wall_s", wall);
    for &(name, secs) in rows {
        r.layer(name, secs);
    }
    r.layer("unattributed", wall - rows.iter().map(|(_, s)| s).sum::<f64>());
}
