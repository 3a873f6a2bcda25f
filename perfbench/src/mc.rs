//! `mc_s838`: fast circuit Monte-Carlo (`McMode::fast()`) on s838 at
//! the coarse grid, 64 vectors per die, timed around each whole
//! `mc_streaming_mode` call including the engine's exact deviation
//! probe. The traced nominal characterization (the sensitivity build)
//! runs during set-up, so each call pays per-die library derivation,
//! its entry fallbacks, per-die compile and evaluation, and the probe.

use std::time::Instant;

use nanoleak_cells::CellLibrary;
use nanoleak_device::Technology;
use nanoleak_engine::{mc_streaming_mode, McMode, MemoLibraryCache};
use nanoleak_netlist::Circuit;
use nanoleak_variation::{char_opts_for, CircuitMcConfig, FastMcReport, McSummary};

use crate::layers::{
    build_circuit, common_layers, layer_probes, mc_layers, rows, timed_calls, Phase,
};
use crate::metrics::ratio;
use crate::report::Report;
use crate::stats::{median, tail};
use crate::{Ctx, SETUP_REPS};

const CIRCUIT: &str = "s838";
/// Input patterns averaged per die.
const VECTORS: usize = 64;
/// Dies per `mc_streaming_mode` call.
const DIES_PER_CALL: usize = 64;
/// Tail percentile of the call latencies (about 15 calls beyond it in a
/// 40 s run).
const TAIL_Q: f64 = 0.75;

/// The outcome of one timed `mc_streaming_mode` call.
struct Call {
    config: CircuitMcConfig,
    summary: McSummary,
}

impl Call {
    fn fast(&self) -> &FastMcReport {
        self.summary.fast.as_ref().expect("fast runs self-report")
    }
}

fn config(ctx: &Ctx, circuit: &Circuit, call: u64) -> CircuitMcConfig {
    CircuitMcConfig {
        samples: DIES_PER_CALL,
        seed: ctx.stream(2000 + call),
        vectors: VECTORS,
        pattern_seed: ctx.stream(3),
        threads: ctx.threads,
        char_opts: char_opts_for(circuit, true),
        lanes: 0,
        ..Default::default()
    }
}

fn run_call(circuit: &Circuit, cache: &MemoLibraryCache, config: &CircuitMcConfig) -> McSummary {
    mc_streaming_mode(circuit, &Technology::d25(), cache, config, McMode::fast(), 0, |_| true)
        .expect("fast circuit mc")
        .expect("not cancelled")
        .summary
}

fn measure(
    ctx: &Ctx,
    circuit: &Circuit,
    cache: &MemoLibraryCache,
    secs: f64,
    first_call: u64,
    traced: bool,
) -> Phase<Call> {
    timed_calls(secs, first_call, traced.then_some(["deviation-probe", "merge"]), |k| {
        let config = config(ctx, circuit, k);
        let summary = run_call(circuit, cache, &config);
        Call { config, summary }
    })
}

/// Output checks: every die accounted for and every probe within the
/// run's tolerance; one seeded call reproduced bit-for-bit on one
/// thread. Returns the largest realized deviation.
fn check(
    ctx: &Ctx,
    r: &mut Report,
    circuit: &Circuit,
    cache: &MemoLibraryCache,
    calls: &[&Call],
) -> f64 {
    let dies_ok = calls.iter().all(|c| {
        let d = c.fast().diag;
        d.dies_derived + d.dies_full == c.config.samples as u64
            && c.summary.samples == c.config.samples
    });
    r.check("mc_dies_accounted", dies_ok, "dies_derived + dies_full == samples on every call");
    let worst = calls.iter().map(|c| c.fast().max_deviation).fold(0.0f64, f64::max);
    let tol_ok = calls.iter().all(|c| {
        let f = c.fast();
        f.probed > 0 && f.max_deviation.is_finite() && f.max_deviation < f.tol
    });
    r.check(
        "mc_deviation_within_tol",
        tol_ok,
        format!("worst realized deviation {:.4}% over {} calls", worst * 100.0, calls.len()),
    );
    let chosen = calls[(ctx.stream(7) % calls.len() as u64) as usize];
    let single = CircuitMcConfig { threads: 1, ..chosen.config.clone() };
    r.check(
        "mc_thread_invariant",
        run_call(circuit, cache, &single) == chosen.summary,
        format!("seeded call (seed {}) re-run on 1 thread is bit-identical", chosen.config.seed),
    );
    worst
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let tech = Technology::d25();
    let probe = match McMode::fast() {
        McMode::Fast { deviation_probe, .. } => deviation_probe,
        McMode::Exact => 0,
    };
    r.context("circuit", CIRCUIT);
    r.context("vectors_per_die", VECTORS);
    r.context("dies_per_call", DIES_PER_CALL);
    r.context("deviation_probe_dies", probe);

    let mut setups = Vec::new();
    let mut sens_builds = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let circuit = build_circuit(CIRCUIT);
        // The server's configuration: a RAM-only memo with the default
        // residency bound. Each call adds its probe dies; once the memo
        // is full it evicts an arbitrary entry, which can be the traced
        // nominal, and the next call re-traces it in its timed region.
        let cache = MemoLibraryCache::memory_only();
        let cfg = config(ctx, &circuit, 0);
        let s = Instant::now();
        cache
            .get_or_characterize_with_sens(&cfg.op.tech(&tech), cfg.op.temp, &cfg.char_opts)
            .expect("traced nominal characterization");
        sens_builds.push(s.elapsed().as_secs_f64());
        setups.push(t.elapsed().as_secs_f64());
        built = Some((circuit, cache));
    }
    let (circuit, cache) = built.expect("at least one set-up");
    r.context("grid_points", config(ctx, &circuit, 0).char_opts.points);
    r.e2e.insert("setup_s", median(&setups));

    let phases = if ctx.trace {
        let plain = measure(ctx, &circuit, &cache, ctx.seconds / 2.0, 0, false);
        let traced =
            measure(ctx, &circuit, &cache, ctx.seconds / 2.0, plain.calls.len() as u64, true);
        vec![plain, traced]
    } else {
        vec![measure(ctx, &circuit, &cache, ctx.seconds, 0, false)]
    };
    // The program's footprint: read before the output checks, whose
    // in-process re-runs and fresh caches are the benchmark's own work.
    r.e2e.insert("peak_rss_mb", crate::report::peak_rss_mb());
    let calls: Vec<&Call> = phases.iter().flat_map(|p| &p.calls).collect();
    r.attempted = calls.len() as u64;
    let worst = check(ctx, r, &circuit, &cache, &calls);

    let main = &phases[0];
    let lat_ms = main.latencies_ms();
    let (tail_ms, beyond) = tail(&lat_ms, TAIL_Q);
    r.context(
        "latency_samples",
        format!("{} mc calls; tail = p{} with {beyond} beyond", lat_ms.len(), TAIL_Q * 100.0),
    );
    r.e2e.insert("throughput_per_s", main.throughput(DIES_PER_CALL));
    r.e2e.insert("latency_p50_ms", median(&lat_ms));
    r.e2e.insert("latency_tail_ms", tail_ms);
    r.named("mc_samples_per_s", main.throughput(DIES_PER_CALL), "dies/s");
    r.named("mc_max_deviation_pct", worst * 100.0, "%");
    r.named("setup_s", median(&setups), "s");

    if let [plain, traced] = phases.as_slice() {
        traced_layers(ctx, r, plain, traced, probe);
        r.named("cells.sens_build_s", median(&sens_builds), "s");
        r.layer(
            "variation.max_deviation_pct",
            traced.calls.iter().map(|c| c.fast().max_deviation).fold(0.0, f64::max) * 100.0,
        );
        let cfg = config(ctx, &circuit, 0);
        let (nominal, _) = cache
            .get_or_characterize(&cfg.op.tech(&tech), cfg.op.temp, &cfg.char_opts)
            .expect("nominal library");
        let nominal: &CellLibrary = &nominal;
        layer_probes(r, &[CIRCUIT], &circuit, nominal, ctx.stream(9));
    }
}

fn traced_layers(
    ctx: &Ctx,
    r: &mut Report,
    plain: &Phase<Call>,
    traced: &Phase<Call>,
    probe: usize,
) {
    let d = &traced.delta;
    common_layers(r, d);
    let (mut derived, mut full, mut entries, mut fallbacks) = (0, 0, 0, 0);
    for c in &traced.calls {
        let diag = c.fast().diag;
        derived += diag.dies_derived;
        full += diag.dies_full;
        entries += diag.entries_derived + diag.entries_fallback;
        fallbacks += diag.entries_fallback;
    }
    mc_layers(r, d);
    r.layer("cells.entry_fallbacks", fallbacks as f64);
    r.layer("cells.entry_fallback_ratio", ratio(fallbacks as f64, entries as f64));
    r.layer("variation.dies_derived", derived as f64);
    r.layer("variation.dies_full", full as f64);
    // The engine rebuilds the MC block count arithmetically (and counts
    // the fast loaded arm as packed blocks); it is reported apart from
    // `core.blocks`, which only carries counts made at the call.
    r.layer("core.blocks_reconstructed", d.get("nanoleak_block_blocks_total"));
    r.layer(
        "trace_overhead_pct",
        (plain.throughput(DIES_PER_CALL) / traced.throughput(DIES_PER_CALL) - 1.0) * 100.0,
    );

    // Self times on the calling thread. Histogram sums add up the
    // per-die work of concurrent workers; their wall share divides by
    // the workers a call keeps busy. Full characterizations happen in
    // the probe and for dies the deriver does not recognize (inside
    // the shards); their time is split by those die counts.
    let calls = traced.calls.len() as f64;
    let workers = ctx.threads.min(DIES_PER_CALL) as f64;
    let probe_workers = ctx.threads.min(probe).max(1) as f64;
    let derive = d.sum("nanoleak_delta_library_seconds");
    let shard = d.sum("nanoleak_mc_shard_seconds");
    let characterize = d.sum("nanoleak_cache_characterize_seconds");
    let probed = probe as f64 * calls;
    let per_die = ratio(characterize, probed + full as f64);
    let [probe_span, merge] = traced.span_s;
    let probe_self = probe_span - per_die * probed / probe_workers;
    let shard_cells = (derive + per_die * full as f64) / workers;
    r.named("engine.mc_probe_s", probe_self, "s");
    rows(
        r,
        traced.wall,
        &[
            ("row.cells_s", shard_cells + per_die * probed / probe_workers),
            ("row.variation_s", shard - shard_cells),
            ("row.engine_s", probe_self + merge),
        ],
    );
    r.notes.push(format!(
        "row.cells_s = (derivation + full characterization thread-seconds) / workers \
         ({workers} per shard, {probe_workers} in the probe); row.variation_s = shard wall minus \
         its cells share (sampling, per-die compile and evaluation); row.engine_s = probe self \
         time (engine.mc_probe_s) + merge spans"
    ));
    r.notes.push(
        "core.blocks and core.tail_lane_waste are n/a here: the engine reconstructs MC block \
         counts arithmetically (core.blocks_reconstructed), over-counting the fast loaded arm"
            .into(),
    );
}
