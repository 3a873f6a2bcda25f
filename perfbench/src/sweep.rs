//! `sweep_s1196`: repeated large random-pattern sweeps of s1196 on the
//! production 11-point grid through `engine::sweep` (Lut mode, 64
//! lanes). The library is characterized and the plan compiled during
//! set-up, so the measured phase is the block kernel (simulate +
//! resolve) plus the engine's sharding and reduction.

use std::time::Instant;

use nanoleak_cells::{CellLibrary, CharacterizeOptions};
use nanoleak_core::{reference_batch, CompiledEstimator, EstimatorMode, LANES};
use nanoleak_device::{LeakageBreakdown, Technology};
use nanoleak_engine::{
    pattern_for_index, plan_cache, shared_plan, sweep, ExtremeVector, ScalarStats, SweepConfig,
    SweepStats,
};
use nanoleak_netlist::Circuit;

use crate::layers::{build_circuit, common_layers, layer_probes, rows, timed_calls, Phase};
use crate::report::Report;
use crate::stats::{median, tail};
use crate::{Ctx, SETUP_REPS};

const CIRCUIT: &str = "s1196";
/// Patterns per `sweep` call.
const VECTORS_PER_CALL: usize = 32_768;
/// Patterns of the checked call compared against the transistor-level
/// reference solver.
const ERR_PATTERNS: usize = 8;
/// Tail percentile of the call latencies (about 40 calls beyond it in a
/// 40 s run).
const TAIL_Q: f64 = 0.90;
/// Largest estimator error against the reference the check accepts.
const EST_ERR_BOUND: f64 = 0.10;

/// The outcome of one timed `sweep` call.
struct Call {
    seed: u64,
    stats: SweepStats,
}

fn config(ctx: &Ctx, call: u64) -> SweepConfig {
    SweepConfig {
        vectors: VECTORS_PER_CALL,
        seed: ctx.stream(1000 + call),
        threads: ctx.threads,
        mode: EstimatorMode::Lut,
        lanes: LANES,
    }
}

fn measure(
    ctx: &Ctx,
    circuit: &Circuit,
    lib: &CellLibrary,
    secs: f64,
    first_call: u64,
    traced: bool,
) -> Phase<Call> {
    timed_calls(secs, first_call, traced.then_some(["compile", "merge"]), |k| {
        let cfg = config(ctx, k);
        Call { seed: cfg.seed, stats: sweep(circuit, lib, &cfg).expect("sweep").stats }
    })
}

fn same_bits(a: &LeakageBreakdown, b: &LeakageBreakdown) -> bool {
    [a.sub, a.gate, a.btbt].map(f64::to_bits) == [b.sub, b.gate, b.btbt].map(f64::to_bits)
}

/// The sweep statistics of `totals` (pattern `i` of stream `seed`),
/// reduced the way the engine documents: index-order statistics per
/// component, first index on ties for the extremes.
fn expected_stats(circuit: &Circuit, seed: u64, totals: &[LeakageBreakdown]) -> SweepStats {
    let series = |f: fn(&LeakageBreakdown) -> f64| totals.iter().map(f).collect::<Vec<_>>();
    let total = series(LeakageBreakdown::total);
    let pick = |better: fn(f64, f64) -> bool| {
        let mut best = 0;
        for (i, &t) in total.iter().enumerate().skip(1) {
            if better(t, total[best]) {
                best = i;
            }
        }
        ExtremeVector {
            index: best,
            pattern: pattern_for_index(circuit, seed, best),
            leakage: totals[best],
        }
    };
    SweepStats {
        vectors: totals.len(),
        total: ScalarStats::of(&total),
        sub: ScalarStats::of(&series(|b| b.sub)),
        gate: ScalarStats::of(&series(|b| b.gate)),
        btbt: ScalarStats::of(&series(|b| b.btbt)),
        min: pick(|a, b| a < b),
        max: pick(|a, b| a > b),
    }
}

/// Output checks: every call's extreme vectors against the scalar
/// compiled path, one seeded call in full, and the estimator against
/// the reference solver on a seeded subset of that call's patterns.
/// Returns the worst relative estimator error.
fn check(ctx: &Ctx, r: &mut Report, circuit: &Circuit, lib: &CellLibrary, calls: &[&Call]) -> f64 {
    let plan = CompiledEstimator::compile(circuit, lib).expect("compile");
    let mut scratch = plan.scratch();
    let mut scalar = |seed: u64, i: usize| {
        plan.estimate_index_into(&mut scratch, seed, i, EstimatorMode::Lut).expect("estimate")
    };
    let extremes_ok = calls.iter().all(|c| {
        [&c.stats.min, &c.stats.max].iter().all(|x| {
            x.pattern == pattern_for_index(circuit, c.seed, x.index)
                && same_bits(&x.leakage, &scalar(c.seed, x.index))
        })
    });
    r.check(
        "sweep_extremes_bit_identical",
        extremes_ok,
        format!("min/max vectors of {} calls vs scalar estimate_index_into", calls.len()),
    );

    let chosen = calls[(ctx.stream(7) % calls.len() as u64) as usize];
    let totals: Vec<LeakageBreakdown> = nanoleak_core::exec::par_map_with(
        VECTORS_PER_CALL,
        ctx.threads,
        || plan.scratch(),
        |s, i| plan.estimate_index_into(s, chosen.seed, i, EstimatorMode::Lut).expect("estimate"),
    );
    let full_ok = expected_stats(circuit, chosen.seed, &totals) == chosen.stats;
    r.check(
        "sweep_stats_bit_identical",
        full_ok,
        format!(
            "all {VECTORS_PER_CALL} patterns of seeded call (seed {}) re-run scalar and reduced",
            chosen.seed
        ),
    );

    let indices: Vec<usize> = (0..ERR_PATTERNS as u64)
        .map(|k| (ctx.stream(8 + k) % VECTORS_PER_CALL as u64) as usize)
        .collect();
    let patterns: Vec<_> =
        indices.iter().map(|&i| pattern_for_index(circuit, chosen.seed, i)).collect();
    let reference = reference_batch(circuit, &lib.tech, lib.temp, &patterns, &Default::default())
        .expect("reference solve");
    let err = indices
        .iter()
        .zip(&reference)
        .map(|(&i, rf)| {
            let est = totals[i].total();
            let exact = rf.leakage.total.total();
            ((est - exact) / exact).abs()
        })
        .fold(0.0f64, f64::max);
    r.check(
        "estimator_vs_reference",
        err.is_finite() && err < EST_ERR_BOUND,
        format!(
            "worst error {:.4}% on {ERR_PATTERNS} seeded patterns (bound {}%)",
            err * 100.0,
            EST_ERR_BOUND * 100.0
        ),
    );
    err
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    let tech = Technology::d25();
    let opts = CharacterizeOptions::default();
    r.context("circuit", CIRCUIT);
    r.context("grid_points", opts.points);
    r.context("mode", "lut, lanes 64");
    r.context("vectors_per_call", VECTORS_PER_CALL);

    let mut setups = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPS {
        plan_cache::clear();
        let t = Instant::now();
        let circuit = build_circuit(CIRCUIT);
        let lib = CellLibrary::characterize(&tech, 300.0, &opts).expect("characterize");
        shared_plan(&circuit, &lib).expect("compile").plan().prepare_block();
        setups.push(t.elapsed().as_secs_f64());
        built = Some((circuit, lib));
    }
    let (circuit, lib) = built.expect("at least one set-up");
    r.context("gates", circuit.gate_count());
    r.e2e.insert("setup_s", median(&setups));

    let phases = if ctx.trace {
        let plain = measure(ctx, &circuit, &lib, ctx.seconds / 2.0, 0, false);
        let traced =
            measure(ctx, &circuit, &lib, ctx.seconds / 2.0, plain.calls.len() as u64, true);
        vec![plain, traced]
    } else {
        vec![measure(ctx, &circuit, &lib, ctx.seconds, 0, false)]
    };
    // The program's footprint: read before the output checks, whose
    // in-process re-runs and fresh caches are the benchmark's own work.
    r.e2e.insert("peak_rss_mb", crate::report::peak_rss_mb());
    let calls: Vec<&Call> = phases.iter().flat_map(|p| &p.calls).collect();
    r.attempted = calls.len() as u64;
    let err = check(ctx, r, &circuit, &lib, &calls);

    let main = &phases[0];
    let lat_ms = main.latencies_ms();
    let (tail_ms, beyond) = tail(&lat_ms, TAIL_Q);
    r.context(
        "latency_samples",
        format!("{} sweep calls; tail = p{} with {beyond} beyond", lat_ms.len(), TAIL_Q * 100.0),
    );
    r.e2e.insert("throughput_per_s", main.throughput(VECTORS_PER_CALL));
    r.e2e.insert("latency_p50_ms", median(&lat_ms));
    r.e2e.insert("latency_tail_ms", tail_ms);
    r.named("sweep_patterns_per_s", main.throughput(VECTORS_PER_CALL), "patterns/s");
    r.named("est_err_max_pct", err * 100.0, "%");
    r.named("setup_s", median(&setups), "s");

    if let [plain, traced] = phases.as_slice() {
        traced_layers(ctx, r, plain, traced);
        r.layer("core.est_err_max_pct", err * 100.0);
        layer_probes(r, &[CIRCUIT], &circuit, &lib, ctx.stream(9));
        let rate = |threads| {
            let cfg = SweepConfig { threads, ..config(ctx, 1 << 20) };
            let t = Instant::now();
            sweep(&circuit, &lib, &cfg).expect("sweep");
            VECTORS_PER_CALL as f64 / t.elapsed().as_secs_f64()
        };
        let one = rate(1);
        r.layer("engine.thread_scaling", rate(ctx.threads) / one);
        r.context("thread_scaling_base", format!("1 thread: {one:.0} patterns/s"));
    }
}

fn traced_layers(ctx: &Ctx, r: &mut Report, plain: &Phase<Call>, traced: &Phase<Call>) {
    let d = &traced.delta;
    common_layers(r, d);
    r.layer("core.blocks", d.get("nanoleak_block_blocks_total"));
    r.layer("core.tail_lane_waste", d.get("nanoleak_block_tail_lane_waste_total"));
    let kernel = d.sum("nanoleak_block_kernel_seconds");
    let shard = d.sum("nanoleak_sweep_shard_seconds");
    r.layer("core.block_kernel_s", kernel);
    r.layer("engine.sweep_shard_s", shard);
    r.layer(
        "trace_overhead_pct",
        (plain.throughput(VECTORS_PER_CALL) / traced.throughput(VECTORS_PER_CALL) - 1.0) * 100.0,
    );

    // Self times on the calling thread. Kernel time is summed over
    // the workers, which run concurrently, so its wall share is the
    // sum divided by the workers per call.
    let workers = ctx.threads.min(VECTORS_PER_CALL.div_ceil(LANES)) as f64;
    let core = kernel / workers;
    let [compile, merge] = traced.span_s;
    rows(r, traced.wall, &[("row.core_s", core), ("row.engine_s", shard - core + compile + merge)]);
    r.notes.push(format!(
        "row.core_s = block-kernel thread-seconds / {workers} workers; row.engine_s = shard wall \
         minus that + compile and merge spans; unattributed = sweep() outside its spans + loop"
    ));
}
