//! `nanoleak-cli` — leakage analysis of ISCAS89 `.bench` files (or
//! built-in benchmarks) with the loading-aware estimator.
//!
//! ```text
//! nanoleak-cli estimate <target> [--vectors N] [--seed S] [--temp K] [--vdd-scale X]
//!                                [--reference] [--format text|json] [--coarse]
//!                                [--no-cache] [--cache-dir DIR]
//! nanoleak-cli sweep    <target> [--vectors N] [--seed S] [--temp K] [--vdd-scale X]
//!                                [--threads N] [--lanes 1|64] [--mode lut|noloading|direct]
//!                                [--shard-vectors N] [--format text|json] [--coarse]
//!                                [--no-cache] [--cache-dir DIR]
//! nanoleak-cli mlv      <target> [--goal min|max] [--strategy exhaustive|random|hillclimb]
//!                                [--samples N] [--restarts N] [--max-steps N]
//!                                [--seed S] [--temp K] [--vdd-scale X] [--threads N]
//!                                [--lanes 1|64] [--format text|json] [--coarse]
//!                                [--no-cache] [--cache-dir DIR]
//! nanoleak-cli optimize <target> [--rounds N] [--goal min|max]
//!                                [--strategy exhaustive|random|hillclimb]
//!                                [--samples N] [--restarts N] [--max-steps N]
//!                                [--no-canonicalize] [--no-permute] [--no-remap]
//!                                [--out FILE] [--seed S] [--temp K] [--vdd-scale X]
//!                                [--threads N] [--format text|json] [--coarse]
//!                                [--no-cache] [--cache-dir DIR]
//! nanoleak-cli mc       <target> [--samples N] [--sigma-vt V] [--sigma-vt-intra V]
//!                                [--vectors N] [--seed S] [--temp K] [--vdd-scale X]
//!                                [--threads N] [--lanes 1|64] [--shard-samples N]
//!                                [--format text|json] [--coarse]
//! nanoleak-cli serve    [--addr HOST:PORT] [--threads N] [--queue N]
//!                       [--keep-alive N] [--job-cap N]
//!                       [--no-cache] [--cache-dir DIR]
//! ```
//!
//! `<target>` is a `.bench` path, a Yosys gate-level JSON dump
//! (`.json`, see [`nanoleak_netlist::yosys`]), or a built-in name
//! (`s838`, `s1196`, ..., `alu88`, `mult88`); `--circuit-format
//! auto|bench|yosys` overrides the extension-based detection.
//! Invoking with a target as the first argument (no subcommand)
//! behaves like `estimate`, preserving the original CLI. Every
//! analysis subcommand also takes `--tech d25|d50`, and `mc` takes
//! `--pattern-seed S` and `--exact`.
//!
//! The analysis subcommands are a flag decoder and a text renderer
//! over the HTTP API's runners ([`nanoleak_serve::api`]): every
//! option `--kebab-name V` becomes the request field
//! `"kebab_name": V`, so defaults, limits and validation are the
//! API's, an unknown flag is the API's unknown-field error, and
//! `--format json` prints the API response itself.
//!
//! The characterized cell library is cached on disk between runs
//! (`.nanoleak-cache/` or `$NANOLEAK_CACHE_DIR`); pass `--no-cache`
//! to force re-characterization. `mc` is the exception: its per-sample
//! libraries belong to unique perturbed dies, so they are memoized in
//! RAM only — a disk cache would fill with one-shot entries.

use std::process::ExitCode;
use std::sync::atomic::{AtomicUsize, Ordering};

use nanoleak::prelude::*;
use nanoleak_core::reference_batch;
use nanoleak_netlist::generate::builtin;
use nanoleak_obs::Level;
use nanoleak_serve::api::{
    self, fmt_pattern, ApiError, Body, EstimateResponse, JobObserver, McResponse, MlvResponse,
    OptimizeResponse, SweepResponse,
};
use nanoleak_serve::router::check_job_timeout;
use nanoleak_serve::{ServeConfig, Server};
use rand::SeedableRng;
use serde::{json, Serialize, Value};

const USAGE: &str = "\
usage: nanoleak-cli <command> <circuit.bench | design.json | s838 | s1196 | s1423 | s5378 | s9234 | s13207 | alu88 | mult88> [options]

commands:
  estimate   mean leakage and loading impact over random vectors (default)
  sweep      parallel per-vector statistics over the input space
  mlv        minimum/maximum-leakage input-vector search
  optimize   leakage-aware netlist rewriting (pin permutations and NAND/NOR
             remapping, scored at the extreme vector)
  mc         circuit-level Monte-Carlo leakage distribution under process
             variation (loaded vs unloaded)
  serve      long-lived HTTP/JSON analysis service (no circuit argument)

Analysis options are the HTTP API's request fields: --kebab-name V sends
\"kebab_name\": V (V as a JSON number/bool if it parses as one, else a
string), a bare --name sends true and --no-name false. Defaults, work
limits (e.g. at most 100000 vectors, 16 threads, 2048 MC samples) and
errors are the API's.

common options:
  --vectors N     random vectors (estimate/sweep; patterns per MC sample for
                  mc; default 100, mc default 1)
  --seed S        RNG seed (default 2005)
  --temp K        temperature in kelvin (default 300)
  --vdd-scale X   supply-scale factor on the nominal Vdd (default 1.0)
  --tech T        technology: d25 (default) or d50
  --threads N     worker threads for sweep/mlv/mc/serve (default: all cores)
  --lanes N       patterns per evaluation word for sweep/mlv/mc: 64 packs
                  patterns 64-wide through the block kernel, 1 forces the
                  scalar reference path, 0 picks automatically (default 0;
                  results are bit-identical either way)
  --format F      output format: text (default) or json (the API response)
  --coarse        characterize on the coarse 4-point test grid (fast,
                  lower LUT resolution)
  --no-cache      re-characterize instead of using the on-disk cache
  --cache-dir D   cache directory (default .nanoleak-cache or $NANOLEAK_CACHE_DIR)
  --circuit-format F  auto (default) | bench | yosys; auto picks by
                  extension (.bench, .json = Yosys gate-level JSON dump)
                  and falls back to the built-in generator names

estimate options:
  --reference     also run the full transistor-level reference solve

sweep options:
  --mode M            lut (default) | noloading | direct
  --shard-vectors N   stream the sweep in shards of N vectors (progress per
                      shard on stderr; merged stats are bit-identical to a
                      monolithic run; default 0 = one shard)

mlv options:
  --goal min|max                       search direction (default min)
  --strategy exhaustive|random|hillclimb   (default hillclimb)
  --samples N     random-strategy samples (default 1024)
  --restarts N    hill-climb restarts (default 8)
  --max-steps N   hill-climb accepted-move limit (default 64)

optimize options (plus all mlv options, which steer the scoring vector):
  --rounds N          optimization-round bound (default 4, at most 16; each
                      round is a pin-permutation pass, a remap pass, and a
                      vector re-search — the loop stops early on convergence)
  --no-canonicalize   skip the double-inverter / dead-gate pre-pass
  --no-permute        skip the commutative pin-permutation pass
  --no-remap          skip the NAND(!x,!y) <-> INV(NOR(x,y)) remap pass
  --out FILE          also write the optimized netlist as structured JSON

mc options:
  --samples N         Monte-Carlo samples / perturbed dies (default 200)
  --pattern-seed S    input-pattern stream seed (default: --seed)
  --sigma-vt V        inter-die threshold-voltage sigma in volts, the
                      paper's Fig. 11 sweep variable (default 0.030)
  --sigma-vt-intra V  intra-die threshold sigma in volts (default 0.030).
                      At circuit scope it is one die-wide draw shared by
                      every transistor, so it acts as extra inter-die
                      variance, not per-device mismatch
  --shard-samples N   stream the run in shards of N samples (progress per
                      shard on stderr; merged summary is bit-identical to
                      a monolithic run; default 0 = one shard)
  --exact             characterize every die from scratch (bit-exact
                      reference path). Default off: dies derive from the
                      nominal library's recorded sensitivities — 10-100x
                      faster, with the measured max/mean deviation from
                      the exact path reported alongside the summary
  (mc ignores the disk cache: per-sample libraries are RAM-memoized only)

serve options:
  --addr A        bind address (default 127.0.0.1:8425)
  --queue N       bound on queued jobs (default 64)
  --keep-alive N  max requests per keep-alive connection (0 = one request
                  per connection; default 1000)
  --job-cap N     finished jobs retained before oldest-first eviction
                  (default 512)
  --default-job-timeout-ms N  deadline applied to jobs whose request
                  carries no timeout_ms field (0 = none, the default;
                  at most 3600000); expired jobs fail with error
                  deadline_exceeded at the next shard boundary, keeping
                  completed shards
  --faults SPEC   arm fault-injection failpoints for chaos drills,
                  e.g. cache-io=error:disk gone*2;slow-shard=sleep:500
                  ($NANOLEAK_FAULTS applies when the flag is absent)
  --log-level L   off|error|warn|info|debug|trace — JSON-lines log
                  verbosity on stderr (default info; NANOLEAK_LOG
                  applies when the flag is absent)";

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    // Subcommand dispatch with backwards compatibility: a first
    // argument that is not a known command is an `estimate` target.
    let command = match args[0].as_str() {
        "estimate" | "sweep" | "mlv" | "optimize" | "mc" | "serve" => args.remove(0),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => "estimate".to_string(),
    };
    // Unless NANOLEAK_LOG (read lazily by nanoleak-obs) says otherwise,
    // warnings such as a failed disk-cache write reach stderr, and a
    // long-lived service also logs its startup and job lines.
    if std::env::var_os("NANOLEAK_LOG").is_none() {
        let serve = command == "serve";
        nanoleak_obs::set_level(if serve { Level::Info } else { Level::Warn });
    }
    let result = match command.as_str() {
        "serve" => cmd_serve(args),
        _ => cmd_analysis(&command, args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => fail(&e.message),
    }
}

/// Removes one of the CLI's own flags from `args`, with its value when
/// `with_value` (a bare switch yields `Some("")`).
fn take_own(
    args: &mut Vec<String>,
    name: &str,
    with_value: bool,
) -> Result<Option<String>, ApiError> {
    let Some(i) = args.iter().position(|a| a == name) else { return Ok(None) };
    args.remove(i);
    if args.iter().any(|a| a == name) {
        return Err(ApiError::bad(format!("{name} given twice")));
    }
    if !with_value {
        return Ok(Some(String::new()));
    }
    match args.get(i) {
        Some(v) if !v.starts_with("--") => Ok(Some(args.remove(i))),
        _ => Err(ApiError::bad(format!("{name} expects a value"))),
    }
}

/// Decodes `--kebab-name V` flags into an API request body as
/// `"kebab_name": V`. V is read as a JSON scalar when it parses as
/// one, otherwise as a string; a bare `--name` is `true` and
/// `--no-name` is `false`. A repeated flag or a stray positional is an
/// error.
fn decode_flags(args: &[String]) -> Result<Body, ApiError> {
    let mut fields: Vec<(String, Value)> = Vec::new();
    let mut items = args.iter().peekable();
    while let Some(item) = items.next() {
        let Some(flag) = item.strip_prefix("--") else {
            return Err(ApiError::bad(format!("unexpected argument '{item}'")));
        };
        let (name, value) = match flag.strip_prefix("no-") {
            Some(negated) => (negated, Value::Bool(false)),
            None => match items.next_if(|v| !v.starts_with("--")) {
                Some(raw) => (flag, scalar(raw)),
                None => (flag, Value::Bool(true)),
            },
        };
        let name = name.replace('-', "_");
        if fields.iter().any(|(n, _)| *n == name) {
            return Err(ApiError::bad(format!("--{flag} given twice")));
        }
        fields.push((name, value));
    }
    Ok(Body::from_fields(fields))
}

fn scalar(raw: &str) -> Value {
    match json::value_from_str(raw) {
        Ok(v @ (Value::Unit | Value::Bool(_) | Value::Int(_) | Value::F64(_) | Value::Str(_))) => v,
        _ => Value::Str(raw.to_string()),
    }
}

/// Resolves a `.bench` path, Yosys JSON dump, or built-in generator
/// name to a circuit (`--circuit-format auto|bench|yosys`).
fn load_circuit(target: &str, format: Option<&str>) -> Result<Circuit, ApiError> {
    let read = || {
        std::fs::read_to_string(target)
            .map_err(|e| ApiError::bad(format!("cannot read '{target}': {e}")))
    };
    let parsed = |e: String| ApiError::bad(format!("{target}: {e}"));
    let bench = |text: &str| {
        parse_bench(target.trim_end_matches(".bench"), text).map_err(|e| parsed(e.to_string()))
    };
    // The empty name lets the importer keep the JSON module's name.
    let yosys = |text: &str| parse_yosys_json("", text).map_err(|e| parsed(e.to_string()));
    let raw = match format.unwrap_or("auto") {
        "bench" => bench(&read()?)?,
        "yosys" => yosys(&read()?)?,
        "auto" if target.ends_with(".bench") => bench(&read()?)?,
        "auto" if target.ends_with(".json") => yosys(&read()?)?,
        "auto" => {
            builtin(target).ok_or_else(|| ApiError::bad(format!("unknown circuit '{target}'")))?
        }
        other => {
            return Err(ApiError::bad(format!(
                "--circuit-format: expected auto|bench|yosys, got '{other}'"
            )))
        }
    };
    normalize(&raw).map_err(|e| ApiError::bad(format!("normalization failed: {e}")))
}

/// Shard and round progress on stderr, so `--format json` stdout
/// stays machine-parseable.
struct Progress {
    label: String,
    total: AtomicUsize,
}

impl JobObserver for Progress {
    fn declare(&self, total: usize) {
        self.total.store(total, Ordering::Relaxed);
    }

    fn unit(&self, index: usize, _partial: Value) {
        let total = self.total.load(Ordering::Relaxed);
        if total > 1 {
            eprintln!("[{}] {}/{total} done", self.label, index + 1);
        }
    }
}

fn cmd_analysis(command: &str, mut args: Vec<String>) -> Result<(), ApiError> {
    if args.first().is_none_or(|a| a.starts_with("--")) {
        return Err(ApiError::bad("missing circuit target (the target must come before options)"));
    }
    let target = args.remove(0);
    let json_output = match take_own(&mut args, "--format", true)?.as_deref() {
        None | Some("text") => false,
        Some("json") => true,
        Some(other) => {
            return Err(ApiError::bad(format!("--format: expected text|json, got '{other}'")))
        }
    };
    let no_cache = take_own(&mut args, "--no-cache", false)?.is_some();
    let cache_dir = take_own(&mut args, "--cache-dir", true)?;
    let circuit_format = take_own(&mut args, "--circuit-format", true)?;
    let reference = command == "estimate" && take_own(&mut args, "--reference", false)?.is_some();
    let out = if command == "optimize" { take_own(&mut args, "--out", true)? } else { None };
    let body = decode_flags(&args)?;
    if reference && json_output {
        // Refusing beats silently dropping the reference solve from
        // the JSON report.
        return Err(ApiError::bad("--reference is not supported with --format json"));
    }

    let circuit = load_circuit(&target, circuit_format.as_deref())?;
    // The server's stores: a RAM memo over the disk cache, RAM only
    // without one. Monte-Carlo dies are one-shot, so `mc` never
    // touches the disk.
    let cache = MemoLibraryCache::configured(!no_cache && command != "mc", cache_dir);
    let unit = if command == "optimize" { "round" } else { "shard" };
    let progress = Progress { label: format!("{command} {unit}"), total: AtomicUsize::new(0) };
    match command {
        "estimate" => {
            let r = api::estimate_circuit(&cache, &body, target, &circuit)?;
            emit(json_output, &r, print_estimate);
            if reference {
                print_reference(&cache, &body, &circuit, &r)?;
            }
        }
        "sweep" => {
            let r = api::sweep_circuit(&cache, &body, target, &circuit, &progress)?;
            emit(json_output, &r, print_sweep);
        }
        "mlv" => emit(json_output, &api::mlv_circuit(&cache, &body, target, &circuit)?, print_mlv),
        "optimize" => {
            let r = api::optimize_circuit(&cache, &body, target, &circuit, &progress)?;
            if let Some(path) = &out {
                std::fs::write(path, json::value_to_string(&r.netlist))
                    .map_err(|e| ApiError::bad(format!("cannot write '{path}': {e}")))?;
                eprintln!("[optimize] wrote optimized netlist to {path}");
            }
            emit(json_output, &r, print_optimize);
        }
        "mc" => {
            let r = api::mc_circuit(&cache, &body, target, &circuit, &progress)?;
            emit(json_output, &r, print_mc);
        }
        _ => unreachable!("dispatch covers all commands"),
    }
    let stats = cache.stats();
    let store = cache.disk().map_or("RAM only".to_string(), |d| d.dir().display().to_string());
    eprintln!(
        "[cache] {} disk hit(s), {} characterization(s), {} RAM hit(s) ({store})",
        stats.disk_hits, stats.characterizations, stats.memory_hits
    );
    Ok(())
}

/// Prints the response as pretty JSON, or renders it as text.
fn emit<T: Serialize>(json_output: bool, response: &T, render: fn(&T)) {
    if json_output {
        println!("{}", json::to_string_pretty(response));
    } else {
        render(response);
    }
}

fn print_estimate(r: &EstimateResponse) {
    println!("{}: {} gates, {} input bits", r.target, r.gates, r.input_bits);
    println!("\nleakage over {} random vectors (mean):", r.vectors);
    println!("  without loading : {:10.3} uA", r.mean_no_loading_a * 1e6);
    println!("  with loading    : {:10.3} uA", r.mean_total_a * 1e6);
    println!("  leakage power   : {:10.3} uW (with loading)", r.mean_power_w * 1e6);
    println!("\nloading impact (avg over vectors):");
    println!("  subthreshold    : {:+7.2} %", r.loading_impact_avg_sub * 100.0);
    println!("  gate tunneling  : {:+7.2} %", r.loading_impact_avg_gate * 100.0);
    println!("  junction BTBT   : {:+7.2} %", r.loading_impact_avg_btbt * 100.0);
    println!("  total           : {:+7.2} %", r.loading_impact_avg * 100.0);
    println!("loading impact (max over vectors): {:+7.2} %", r.loading_impact_max * 100.0);
}

/// `--reference`: the full transistor-level solve on the first few of
/// the run's patterns (regenerated from its seed), against the
/// estimator on the same patterns.
fn print_reference(
    cache: &MemoLibraryCache,
    body: &Body,
    circuit: &Circuit,
    r: &EstimateResponse,
) -> Result<(), ApiError> {
    let op = api::resolve_operating_point(body)?;
    let tech = api::resolve_tech(body)?;
    let (lib, _) = cache
        .get_or_characterize_at(&tech, &op, &api::resolve_char_opts(body)?)
        .map_err(|e| ApiError::unprocessable(e.to_string()))?;
    let n = r.vectors.min(5);
    let mut rng = rand::rngs::StdRng::seed_from_u64(r.seed);
    let patterns = Pattern::random_batch(circuit, &mut rng, n);
    let loaded = estimate_batch(circuit, &lib, &patterns, EstimatorMode::Lut)
        .map_err(|e| ApiError::unprocessable(format!("estimation failed: {e}")))?;
    println!("\nrunning full reference solve on {n} vectors (slow) ...");
    match reference_batch(circuit, &lib.tech, op.temp, &patterns, &ReferenceOptions::default()) {
        Ok(refs) => {
            let mean_err = loaded
                .iter()
                .zip(&refs)
                .map(|(e, r)| accuracy(e, &r.leakage).total_rel_err.abs())
                .sum::<f64>()
                / n as f64;
            println!(
                "  reference mean  : {:10.3} uA",
                refs.iter().map(|r| r.leakage.total.total()).sum::<f64>() / n as f64 * 1e6
            );
            println!("  estimator error : {:7.2} % (mean |total|)", mean_err * 100.0);
        }
        Err(e) => eprintln!("  reference failed: {e}"),
    }
    Ok(())
}

/// One table row: the label, then each value in microamps.
fn print_row(name: &str, width: usize, values: &[f64]) {
    let cells: String = values.iter().map(|v| format!(" {:>width$.4}", v * 1e6)).collect();
    println!("  {name:<6}{cells}");
}

fn print_sweep(r: &SweepResponse) {
    let (s, ua) = (&r.stats, 1e6);
    println!("{}: {} gates", r.target, r.gates);
    println!("\nper-vector leakage statistics over {} vectors [uA]:", s.vectors);
    println!(
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "mean", "std", "min", "p50", "p90", "p99", "max"
    );
    for (name, st) in [("total", &s.total), ("sub", &s.sub), ("gate", &s.gate), ("btbt", &s.btbt)] {
        print_row(name, 10, &[st.mean, st.std, st.min, st.p50, st.p90, st.p99, st.max]);
    }
    println!();
    for (label, extreme) in [("min", &s.min), ("max", &s.max)] {
        println!(
            "  {label} vector : #{:<6} {} ({:.4} uA)",
            extreme.index,
            fmt_pattern(&extreme.pattern),
            extreme.leakage.total() * ua
        );
    }
    println!(
        "\n  {} vectors in {:.3} s — {:.0} patterns/sec",
        s.vectors,
        r.elapsed_ms / 1e3,
        r.patterns_per_sec
    );
}

fn goal_word(goal: &str) -> &'static str {
    if goal == "max" {
        "maximum"
    } else {
        "minimum"
    }
}

fn print_mlv(r: &MlvResponse) {
    println!("{}: {}-leakage vector ({} strategy):", r.target, goal_word(&r.goal), r.strategy);
    println!("  vector   : {}", r.vector);
    println!("  leakage  : {:.4} uA total", r.objective_a * 1e6);
    println!(
        "  breakdown: sub {:.4} / gate {:.4} / btbt {:.4} uA",
        r.sub_a * 1e6,
        r.gate_a * 1e6,
        r.btbt_a * 1e6
    );
    println!(
        "\n  {} evaluations, {} improving moves, {} restart(s) in {:.3} s",
        r.evaluations,
        r.improving_moves,
        r.restarts,
        r.elapsed_ms / 1e3
    );
}

fn print_optimize(r: &OptimizeResponse) {
    let ua = 1e6;
    println!("{}: leakage optimization at the {}-leakage vector:", r.target, goal_word(&r.goal));
    if r.canonicalized {
        println!(
            "  canonical : {} inverter pair(s), {} dead gate(s) removed",
            r.inverter_pairs_removed, r.dead_gates_removed
        );
    }
    println!("  baseline  : {:.4} uA at {}", r.baseline_a * ua, r.baseline_vector);
    println!(
        "  improved  : {:.4} uA at {} ({:+.2} %)",
        r.improved_a * ua,
        r.improved_vector,
        -r.improvement_percent
    );
    println!(
        "  rewrites  : {} pin permutation(s), {} NAND/NOR remap(s) over {} round(s)",
        r.accepted_permutations, r.accepted_remaps, r.rounds_run
    );
    println!("  gates     : {} -> {}", r.gates_before, r.gates_after);
    if r.reverted {
        println!("  (no rewrite survived the objective guard; input returned unchanged)");
    }
    println!("\n  {} estimator evaluations in {:.3} s", r.evaluations, r.elapsed_ms / 1e3);
}

fn print_mc(r: &McResponse) {
    let summary = &r.summary;
    println!(
        "{}: leakage distribution over {} perturbed dies \
         (sigma_vt {:.0} mV inter / {:.0} mV intra, {} vector(s)/sample) [uA]:",
        r.target,
        r.samples,
        r.sigmas.vt_inter * 1e3,
        r.sigmas.vt_intra * 1e3,
        r.vectors
    );
    println!(
        "  {:<6} {:>12} {:>12} {:>12} {:>12}",
        "", "mean(load)", "mean(no)", "std(load)", "std(no)"
    );
    let (l, u) = (&summary.loaded, &summary.unloaded);
    for (name, l, u) in [
        ("total", &l.total, &u.total),
        ("sub", &l.sub, &u.sub),
        ("gate", &l.gate, &u.gate),
        ("btbt", &l.btbt, &u.btbt),
    ] {
        print_row(name, 12, &[l.mean, u.mean, l.std, u.std]);
    }
    println!(
        "\n  loading shifts the total-leakage mean by {:+.2}% and the spread by {:+.2}%",
        summary.mean_shift * 100.0,
        summary.std_shift * 100.0
    );
    println!(
        "\n  {} samples in {:.3} s — {:.1} samples/sec{}",
        r.samples,
        r.elapsed_ms / 1e3,
        r.samples_per_sec,
        if r.exact { " (exact per-die characterization)" } else { "" }
    );
    if let Some(fast) = &summary.fast {
        println!(
            "  fast path: {}/{} dies derived from nominal sensitivities \
             ({} entry fallback(s), max error estimate {:.4})",
            fast.diag.dies_derived,
            fast.diag.dies_derived + fast.diag.dies_full,
            fast.diag.entries_fallback,
            fast.diag.max_error_estimate
        );
        println!(
            "  deviation vs exact over {} probed sample(s): max {:.4}% mean {:.4}% \
             (tolerance {:.2}; use --exact for the bit-exact path)",
            fast.probed,
            fast.max_deviation * 100.0,
            fast.mean_deviation * 100.0,
            fast.tol
        );
    }
}

fn cmd_serve(mut args: Vec<String>) -> Result<(), ApiError> {
    let no_cache = take_own(&mut args, "--no-cache", false)?.is_some();
    let cache_dir = take_own(&mut args, "--cache-dir", true)?;
    let body = decode_flags(&args)?;
    let defaults = ServeConfig::default();
    // The `timeout_ms` rule of job requests, with 0 meaning none.
    let timeout_ms = match body.get("default_job_timeout_ms", 0u64)? {
        0 => None,
        ms => Some(check_job_timeout("default_job_timeout_ms", ms)?),
    };
    let config = ServeConfig {
        addr: body.get("addr", defaults.addr.clone())?,
        threads: body.get("threads", defaults.threads)?,
        queue_capacity: body.get("queue", defaults.queue_capacity)?,
        cache_dir: cache_dir.map(std::path::PathBuf::from),
        disk_cache: !no_cache,
        keep_alive_requests: body.get("keep_alive", defaults.keep_alive_requests)?,
        finished_jobs_cap: body.get("job_cap", defaults.finished_jobs_cap)?,
        default_job_timeout: timeout_ms.map(std::time::Duration::from_millis),
        ..defaults
    };
    if config.queue_capacity == 0 || config.finished_jobs_cap == 0 {
        return Err(ApiError::bad("'queue' and 'job_cap' must be at least 1"));
    }
    let faults: Option<String> = body.opt("faults")?;
    let log_level: Option<String> = body.opt("log_level")?;
    body.reject_unread()?;
    // `--faults` wins over $NANOLEAK_FAULTS; either arms the global
    // failpoint registry before any worker starts.
    let armed_faults = match faults {
        Some(spec) => nanoleak_fault::arm_from_spec(&spec)
            .map_err(|e| ApiError::bad(format!("faults: {e}")))?,
        None => nanoleak_fault::arm_from_env()
            .map_err(|e| ApiError::bad(format!("{}: {e}", nanoleak_fault::ENV_VAR)))?,
    };
    // `--log-level` wins over NANOLEAK_LOG and the default set in
    // `main`.
    if let Some(raw) = log_level {
        let level = Level::parse(&raw)
            .ok_or_else(|| ApiError::bad(format!("log_level: unknown level '{raw}'")))?;
        nanoleak_obs::set_level(level);
    }
    if armed_faults > 0 {
        nanoleak_obs::warn!(
            "serve",
            "fault injection armed: {} failpoint(s) — chaos drill, not a production posture",
            armed_faults
        );
    }
    nanoleak_serve::install_signal_handlers();
    let fatal = |e: String| ApiError { status: 500, message: e };
    let server =
        Server::bind(&config).map_err(|e| fatal(format!("cannot bind {}: {e}", config.addr)))?;
    let addr =
        server.local_addr().map_err(|e| fatal(format!("cannot resolve bound address: {e}")))?;
    let stats = server.state().stats();
    // The listening line stays on stdout so scripts can capture the
    // resolved port; everything else is structured stderr logging.
    println!("nanoleak-serve listening on http://{addr}");
    nanoleak_obs::info!(
        "serve",
        "listening on http://{}: {} worker(s), queue capacity {}, disk cache {}, \
         keep-alive {} req/conn, {} finished jobs retained",
        addr,
        stats.workers,
        stats.queue.capacity,
        if config.disk_cache { "on" } else { "off" },
        config.keep_alive_requests,
        config.finished_jobs_cap
    );
    nanoleak_obs::info!(
        "serve",
        "endpoints: /healthz /metrics /v1/stats /v1/estimate /v1/sweep /v1/mlv /v1/optimize \
         /v1/jobs; \
         ctrl-c or SIGTERM drains queued jobs and exits"
    );
    server.run().map_err(|e| fatal(format!("server failed: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let body = decode_flags(&args(&["--vectors", "10", "--bogus", "--seed", "1"])).unwrap();
        assert_eq!(body.get("vectors", 100usize).unwrap(), 10);
        assert_eq!(body.get("seed", 2005u64).unwrap(), 1);
        let err = body.reject_unread().unwrap_err();
        assert_eq!(err.message, "unknown field(s): 'bogus'");
    }

    #[test]
    fn stray_positionals_are_rejected() {
        let err = decode_flags(&args(&["extra"])).unwrap_err();
        assert!(err.message.contains("'extra'"), "{}", err.message);
        let err = decode_flags(&args(&["--coarse", "--seed", "3", "4"])).unwrap_err();
        assert!(err.message.contains("'4'"), "{}", err.message);
    }

    #[test]
    fn missing_values_are_rejected() {
        let err = take_own(&mut args(&["--format"]), "--format", true).unwrap_err();
        assert!(err.message.contains("expects a value"));
        let err = take_own(&mut args(&["--format", "--seed", "3"]), "--format", true).unwrap_err();
        assert!(err.message.contains("expects a value"));
    }

    #[test]
    fn values_and_flags_parse() {
        let mut list = args(&["--threads", "8", "--no-cache", "--coarse", "--temp", "350.5"]);
        list.extend(args(&["--no-remap", "--goal", "max", "--vdd-scale", "-1"]));
        assert_eq!(take_own(&mut list, "--no-cache", false).unwrap().as_deref(), Some(""));
        assert_eq!(take_own(&mut list, "--reference", false).unwrap(), None);
        let body = decode_flags(&list).unwrap();
        assert_eq!(body.get("threads", 0usize).unwrap(), 8);
        assert!(body.get("coarse", false).unwrap());
        assert_eq!(body.get("temp", 300.0).unwrap(), 350.5);
        assert!(!body.get("remap", true).unwrap());
        assert_eq!(body.get::<String>("goal", "min".into()).unwrap(), "max");
        assert_eq!(body.get("vdd_scale", 1.0).unwrap(), -1.0);
        body.reject_unread().unwrap();
    }

    #[test]
    fn repeated_flags_are_rejected() {
        let err = decode_flags(&args(&["--seed", "1", "--seed", "2"])).unwrap_err();
        assert!(err.message.contains("--seed given twice"), "{}", err.message);
        let err = decode_flags(&args(&["--remap", "--no-remap"])).unwrap_err();
        assert!(err.message.contains("given twice"), "{}", err.message);
        let err =
            take_own(&mut args(&["--no-cache", "--no-cache"]), "--no-cache", false).unwrap_err();
        assert!(err.message.contains("given twice"), "{}", err.message);
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let body = decode_flags(&args(&["--vectors", "many"])).unwrap();
        let err = api::resolve_sweep_config(&body).unwrap_err();
        assert!(err.message.contains("'vectors'"), "{}", err.message);
    }

    #[test]
    fn mode_parsing() {
        let body = decode_flags(&args(&["--mode", "noloading"])).unwrap();
        assert_eq!(api::resolve_sweep_config(&body).unwrap().mode, EstimatorMode::NoLoading);
        let body = decode_flags(&args(&["--mode", "spice"])).unwrap();
        assert!(api::resolve_sweep_config(&body).unwrap_err().message.contains("spice"));
    }

    #[test]
    fn pattern_formatting() {
        let p = Pattern { pi: vec![true, false], states: vec![] };
        assert_eq!(fmt_pattern(&p), "10");
        let p = Pattern { pi: vec![false], states: vec![true] };
        assert_eq!(fmt_pattern(&p), "0|1");
    }
}
