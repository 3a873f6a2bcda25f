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
//! behaves like `estimate`, preserving the original CLI. Unknown
//! `--flags` are rejected with an error instead of being silently
//! ignored.
//!
//! Every subcommand analyzes at a first-class operating point
//! (`--temp` × `--vdd-scale`, see `nanoleak_cells::OperatingPoint`),
//! the same condition derivation the server's grid and MC jobs use.
//!
//! The characterized cell library is cached on disk between runs
//! (`.nanoleak-cache/` or `$NANOLEAK_CACHE_DIR`); pass `--no-cache`
//! to force re-characterization. `mc` is the exception: its per-sample
//! libraries belong to unique perturbed dies, so they are memoized in
//! RAM only — a disk cache would fill with one-shot entries.

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Instant;

use nanoleak::prelude::*;
use nanoleak_cells::OperatingPoint;
use nanoleak_engine::{
    mc_streaming_mode, mlv_search, shard_count, sweep_streaming, CacheOutcome, EngineError,
    LibraryCache, McMode, MemoLibraryCache, MlvConfig, MlvGoal, MlvStrategy, ScalarStats,
    SweepConfig,
};
use nanoleak_netlist::generate::{alu, iscas_like, multiplier};
use nanoleak_netlist::{parse_yosys_json, RawCircuit};
use nanoleak_opt::{optimize_with, OptimizeConfig};
use nanoleak_serve::api::{
    circuit_to_value, fmt_pattern, round_to_value, EstimateResponse, McResponse, MlvResponse,
    OptimizeResponse, SweepResponse,
};
use nanoleak_serve::{ServeConfig, Server};
use nanoleak_variation::{char_opts_for, CircuitMcConfig, Stats, VariationSigmas};
use rand::SeedableRng;

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

common options:
  --vectors N     random vectors (estimate/sweep; patterns per MC sample for
                  mc; default 100, mc default 1)
  --seed S        RNG seed (default 2005)
  --temp K        temperature in kelvin (default 300)
  --vdd-scale X   supply-scale factor on the nominal Vdd (default 1.0)
  --threads N     worker threads for sweep/mlv/mc/serve (default: all cores)
  --lanes N       patterns per evaluation word for sweep/mlv/mc: 64 packs
                  patterns 64-wide through the block kernel, 1 forces the
                  scalar reference path, 0 picks automatically (default 0;
                  results are bit-identical either way)
  --format F      output format for estimate/sweep/mlv/mc: text (default)
                  or json
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
  --rounds N          optimization-round bound (default 4; each round is a
                      pin-permutation pass, a remap pass, and a vector
                      re-search — the loop stops early on convergence)
  --no-canonicalize   skip the double-inverter / dead-gate pre-pass
  --no-permute        skip the commutative pin-permutation pass
  --no-remap          skip the NAND(!x,!y) <-> INV(NOR(x,y)) remap pass
  --out FILE          also write the optimized netlist as structured JSON

mc options:
  --samples N         Monte-Carlo samples / perturbed dies (default 200)
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
                  carries no timeout_ms field (default: none); expired
                  jobs fail with error deadline_exceeded at the next
                  shard boundary, keeping completed shards
  --faults SPEC   arm fault-injection failpoints for chaos drills,
                  e.g. cache-io=error:disk gone*2;slow-shard=sleep:500
                  ($NANOLEAK_FAULTS applies when the flag is absent)
  --log-level L   off|error|warn|info|debug|trace — JSON-lines log
                  verbosity on stderr (default info; NANOLEAK_LOG
                  applies when the flag is absent)";

/// Strict argument list: every flag must be consumed by the active
/// subcommand or parsing fails.
struct Args {
    items: Vec<String>,
    used: Vec<bool>,
}

impl Args {
    fn new(items: Vec<String>) -> Self {
        let used = vec![false; items.len()];
        Self { items, used }
    }

    /// Consumes a boolean `--flag`; `true` if present.
    fn take_flag(&mut self, name: &str) -> bool {
        let mut found = false;
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                found = true;
            }
        }
        found
    }

    /// Consumes `--name value`; errors if the value is missing.
    fn take_value(&mut self, name: &str) -> Result<Option<String>, String> {
        for i in 0..self.items.len() {
            if !self.used[i] && self.items[i] == name {
                self.used[i] = true;
                let Some(value) = self.items.get(i + 1) else {
                    return Err(format!("{name} expects a value"));
                };
                if self.used[i + 1] || value.starts_with("--") {
                    return Err(format!("{name} expects a value, got '{value}'"));
                }
                self.used[i + 1] = true;
                return Ok(Some(value.clone()));
            }
        }
        Ok(None)
    }

    /// Consumes `--name value` parsed as `T`, with a default.
    fn take_parsed<T: std::str::FromStr>(&mut self, name: &str, default: T) -> Result<T, String> {
        match self.take_value(name)? {
            None => Ok(default),
            Some(raw) => raw.parse().map_err(|_| format!("{name}: cannot parse '{raw}'")),
        }
    }

    /// Consumes the leading positional argument. Only the *first*
    /// item qualifies: a later non-flag token is some flag's value,
    /// and binding it as a positional would mis-parse
    /// `sweep --vectors 10 s1196` (the target must come first).
    fn take_positional(&mut self) -> Option<String> {
        if !self.items.is_empty() && !self.used[0] && !self.items[0].starts_with("--") {
            self.used[0] = true;
            return Some(self.items[0].clone());
        }
        None
    }

    /// Fails if anything was left unconsumed (unknown flags or stray
    /// positionals).
    fn finish(self) -> Result<(), String> {
        let leftover: Vec<&str> = self
            .items
            .iter()
            .zip(&self.used)
            .filter(|(_, &used)| !used)
            .map(|(item, _)| item.as_str())
            .collect();
        if leftover.is_empty() {
            Ok(())
        } else {
            Err(format!("unknown argument(s): {}", leftover.join(" ")))
        }
    }
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if raw.is_empty() {
        eprintln!("{USAGE}");
        return ExitCode::FAILURE;
    }
    // Subcommand dispatch with backwards compatibility: a first
    // argument that is not a known command is an `estimate` target.
    let command = match raw[0].as_str() {
        "estimate" | "sweep" | "mlv" | "optimize" | "mc" | "serve" => raw.remove(0),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        _ => "estimate".to_string(),
    };

    let mut args = Args::new(raw);
    // `serve` is the one command without a circuit argument.
    if command == "serve" {
        return match cmd_serve(args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => fail(&msg),
        };
    }
    let Some(target) = args.take_positional() else {
        return fail("missing circuit target (the target must come before options)");
    };

    let result = match command.as_str() {
        "estimate" => cmd_estimate(&target, args),
        "sweep" => cmd_sweep(&target, args),
        "mlv" => cmd_mlv(&target, args),
        "optimize" => cmd_optimize(&target, args),
        "mc" => cmd_mc(&target, args),
        _ => unreachable!("dispatch covers all commands"),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => fail(&msg),
    }
}

/// On-disk netlist dialect of the circuit target: `--circuit-format`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CircuitFormat {
    /// By extension: `.bench` → bench, `.json` → yosys, otherwise a
    /// built-in generator name.
    Auto,
    Bench,
    Yosys,
}

impl CircuitFormat {
    fn take(args: &mut Args) -> Result<Self, String> {
        match args.take_value("--circuit-format")?.as_deref() {
            None | Some("auto") => Ok(CircuitFormat::Auto),
            Some("bench") => Ok(CircuitFormat::Bench),
            Some("yosys") => Ok(CircuitFormat::Yosys),
            Some(other) => {
                Err(format!("--circuit-format: expected auto|bench|yosys, got '{other}'"))
            }
        }
    }
}

/// Resolves a `.bench` path, Yosys JSON dump, or built-in generator
/// name to a circuit.
fn load_circuit(target: &str, format: CircuitFormat) -> Result<Circuit, String> {
    let read = || -> Result<String, String> {
        std::fs::read_to_string(target).map_err(|e| format!("cannot read '{target}': {e}"))
    };
    let bench = |text: &str| -> Result<RawCircuit, String> {
        let name = target.trim_end_matches(".bench").to_string();
        parse_bench(&name, text).map_err(|e| format!("{target}: {e}"))
    };
    // The empty name lets the importer keep the JSON module's name.
    let yosys = |text: &str| parse_yosys_json("", text).map_err(|e| format!("{target}: {e}"));
    let raw = match format {
        CircuitFormat::Bench => bench(&read()?)?,
        CircuitFormat::Yosys => yosys(&read()?)?,
        CircuitFormat::Auto if target.ends_with(".bench") => bench(&read()?)?,
        CircuitFormat::Auto if target.ends_with(".json") => yosys(&read()?)?,
        CircuitFormat::Auto => match target {
            "alu88" => alu(8),
            "mult88" => multiplier(8),
            other => iscas_like(other).ok_or_else(|| format!("unknown circuit '{other}'"))?,
        },
    };
    normalize(&raw).map_err(|e| format!("normalization failed: {e}"))
}

/// Cache-related options shared by all subcommands.
struct CacheOpts {
    enabled: bool,
    dir: Option<String>,
}

impl CacheOpts {
    fn take(args: &mut Args) -> Result<Self, String> {
        let enabled = !args.take_flag("--no-cache");
        let dir = args.take_value("--cache-dir")?;
        Ok(Self { enabled, dir })
    }
}

/// Output format of the analysis subcommands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OutputFormat {
    Text,
    Json,
}

impl OutputFormat {
    fn take(args: &mut Args) -> Result<Self, String> {
        match args.take_value("--format")?.as_deref() {
            None | Some("text") => Ok(OutputFormat::Text),
            Some("json") => Ok(OutputFormat::Json),
            Some(other) => Err(format!("--format: expected text|json, got '{other}'")),
        }
    }
}

/// The operating conditions of a run: `--temp` (kelvin) and
/// `--vdd-scale`, bundled as the shared [`OperatingPoint`] the whole
/// stack characterizes through.
fn take_operating_point(args: &mut Args) -> Result<OperatingPoint, String> {
    let op = OperatingPoint {
        temp: args.take_parsed("--temp", 300.0)?,
        vdd_scale: args.take_parsed("--vdd-scale", 1.0)?,
    };
    op.validate()?;
    Ok(op)
}

/// `--coarse` selects the fast 4-point test grid (what the service's
/// `"coarse": true` does); the default is the production 11-point
/// resolution.
fn take_char_opts(args: &mut Args) -> CharacterizeOptions {
    if args.take_flag("--coarse") {
        CharacterizeOptions::coarse(&CellType::ALL)
    } else {
        CharacterizeOptions::default()
    }
}

/// Obtains the characterized library at an operating point, through
/// the persistent cache unless disabled. With `quiet`, progress goes
/// to stderr so stdout stays machine-parseable (`--format json`).
/// A disk-cache I/O failure falls back to an uncached
/// characterization; a solver failure is returned, not retried.
fn load_library(
    tech: &Technology,
    op: &OperatingPoint,
    opts: &CharacterizeOptions,
    cache: &CacheOpts,
    quiet: bool,
) -> Result<Arc<CellLibrary>, String> {
    macro_rules! info {
        ($($arg:tt)*) => {
            if quiet { eprintln!($($arg)*) } else { println!($($arg)*) }
        };
    }
    let temp = op.temp;
    let characterize = || {
        op.characterize(tech, opts)
            .map(Arc::new)
            .map_err(|e| format!("characterization failed: {e}"))
    };
    if !cache.enabled {
        info!("characterizing cell library for {} at {temp} K (cache disabled) ...", tech.name);
        return characterize();
    }
    let store = match &cache.dir {
        Some(dir) => LibraryCache::new(dir),
        None => LibraryCache::default_location(),
    };
    let t0 = Instant::now();
    match store.load_or_characterize(&op.tech(tech), temp, opts) {
        Ok((lib, outcome)) => {
            let elapsed = t0.elapsed();
            match outcome {
                CacheOutcome::Hit => info!(
                    "[cache] hit: loaded {} @ {temp} K from {} in {:.1} ms",
                    tech.name,
                    store.dir().display(),
                    elapsed.as_secs_f64() * 1e3
                ),
                CacheOutcome::Miss => info!(
                    "[cache] miss: characterized {} @ {temp} K in {:.2} s (stored in {})",
                    tech.name,
                    elapsed.as_secs_f64(),
                    store.dir().display()
                ),
                CacheOutcome::Invalidated => info!(
                    "[cache] stale entry replaced: re-characterized {} @ {temp} K in {:.2} s",
                    tech.name,
                    elapsed.as_secs_f64()
                ),
                // LibraryCache is the disk layer; RAM hits only come
                // from the MemoLibraryCache used by `serve`.
                CacheOutcome::MemoryHit => unreachable!("disk cache cannot hit RAM"),
            }
            Ok(lib)
        }
        Err(e @ EngineError::Cache(_)) => {
            eprintln!("warning: {e}; continuing without the disk cache");
            characterize()
        }
        Err(e) => Err(e.to_string()),
    }
}

fn parse_mode(raw: Option<String>) -> Result<EstimatorMode, String> {
    match raw.as_deref() {
        None | Some("lut") => Ok(EstimatorMode::Lut),
        Some("noloading") => Ok(EstimatorMode::NoLoading),
        Some("direct") => Ok(EstimatorMode::DirectSolve),
        Some(other) => Err(format!("--mode: expected lut|noloading|direct, got '{other}'")),
    }
}

fn cmd_estimate(target: &str, mut args: Args) -> Result<(), String> {
    let vectors: usize = args.take_parsed("--vectors", 100)?;
    let seed: u64 = args.take_parsed("--seed", 2005)?;
    let op = take_operating_point(&mut args)?;
    let with_reference = args.take_flag("--reference");
    let format = OutputFormat::take(&mut args)?;
    let char_opts = take_char_opts(&mut args);
    let cache = CacheOpts::take(&mut args)?;
    let circuit_format = CircuitFormat::take(&mut args)?;
    args.finish()?;
    if with_reference && format == OutputFormat::Json {
        // Refusing beats silently dropping the reference solve from
        // the JSON report.
        return Err("--reference is not supported with --format json".to_string());
    }

    let t0 = Instant::now();
    let circuit = load_circuit(target, circuit_format)?;
    if format == OutputFormat::Text {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let tech = Technology::d25();
    let lib = load_library(&tech, &op, &char_opts, &cache, format == OutputFormat::Json)?;

    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let patterns = Pattern::random_batch(&circuit, &mut rng, vectors);

    let loaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::Lut)
        .map_err(|e| format!("estimation failed: {e}"))?;
    let unloaded = estimate_batch(&circuit, &lib, &patterns, EstimatorMode::NoLoading)
        .expect("baseline estimation cannot fail after loaded pass");

    let mean =
        |rs: &[CircuitLeakage]| rs.iter().map(|r| r.total.total()).sum::<f64>() / rs.len() as f64;
    let pairs: Vec<_> = loaded.iter().cloned().zip(unloaded.iter().cloned()).collect();
    let impact = LoadingImpact::from_pairs(&pairs);

    if format == OutputFormat::Json {
        // The service's POST /v1/estimate response type, so one
        // parser covers both transports by construction.
        let report = EstimateResponse {
            target: target.to_string(),
            gates: circuit.gate_count(),
            input_bits: circuit.inputs().len() + circuit.state_inputs().len(),
            vectors,
            seed,
            temp: op.temp,
            mean_total_a: mean(&loaded),
            mean_no_loading_a: mean(&unloaded),
            mean_power_w: mean(&loaded) * lib.tech.vdd,
            loading_impact_avg: impact.avg_total,
            loading_impact_max: impact.max_total,
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        println!("{}", serde::json::to_string_pretty(&report));
        return Ok(());
    }

    println!("\nleakage over {vectors} random vectors (mean):");
    println!("  without loading : {:10.3} uA", mean(&unloaded) * 1e6);
    println!("  with loading    : {:10.3} uA", mean(&loaded) * 1e6);
    println!("  leakage power   : {:10.3} uW (with loading)", mean(&loaded) * lib.tech.vdd * 1e6);
    println!("\nloading impact (avg over vectors):");
    println!("  subthreshold    : {:+7.2} %", impact.avg.sub * 100.0);
    println!("  gate tunneling  : {:+7.2} %", impact.avg.gate * 100.0);
    println!("  junction BTBT   : {:+7.2} %", impact.avg.btbt * 100.0);
    println!("  total           : {:+7.2} %", impact.avg_total * 100.0);
    println!("loading impact (max over vectors): {:+7.2} %", impact.max_total * 100.0);

    if with_reference {
        let n = patterns.len().min(5);
        println!("\nrunning full reference solve on {n} vectors (slow) ...");
        match nanoleak_core::reference_batch(
            &circuit,
            &lib.tech,
            op.temp,
            &patterns[..n],
            &ReferenceOptions::default(),
        ) {
            Ok(refs) => {
                let accs: Vec<_> =
                    loaded[..n].iter().zip(&refs).map(|(e, r)| accuracy(e, &r.leakage)).collect();
                let mean_err =
                    accs.iter().map(|a| a.total_rel_err.abs()).sum::<f64>() / accs.len() as f64;
                println!(
                    "  reference mean  : {:10.3} uA",
                    refs.iter().map(|r| r.leakage.total.total()).sum::<f64>() / n as f64 * 1e6
                );
                println!("  estimator error : {:7.2} % (mean |total|)", mean_err * 100.0);
            }
            Err(e) => eprintln!("  reference failed: {e}"),
        }
    }
    Ok(())
}

/// The `--lanes` flag shared by sweep/mlv/mc: `0` (auto → the
/// 64-wide block kernel), `64` (block explicitly), or `1` (the scalar
/// reference path). A throughput knob only — results are
/// bit-identical either way.
fn take_lanes(args: &mut Args) -> Result<usize, String> {
    let lanes: usize = args.take_parsed("--lanes", 0)?;
    if !matches!(lanes, 0 | 1 | 64) {
        return Err(format!("--lanes: expected 0 (auto), 1 (scalar), or 64 (block), got {lanes}"));
    }
    Ok(lanes)
}

fn cmd_sweep(target: &str, mut args: Args) -> Result<(), String> {
    let config = SweepConfig {
        vectors: args.take_parsed("--vectors", 100)?,
        seed: args.take_parsed("--seed", 2005)?,
        threads: args.take_parsed("--threads", 0)?,
        mode: parse_mode(args.take_value("--mode")?)?,
        lanes: take_lanes(&mut args)?,
    };
    let op = take_operating_point(&mut args)?;
    let shard_vectors: usize = args.take_parsed("--shard-vectors", 0)?;
    let format = OutputFormat::take(&mut args)?;
    let char_opts = take_char_opts(&mut args);
    let cache = CacheOpts::take(&mut args)?;
    let circuit_format = CircuitFormat::take(&mut args)?;
    args.finish()?;
    if config.vectors == 0 {
        return Err("--vectors must be at least 1".to_string());
    }

    let circuit = load_circuit(target, circuit_format)?;
    if format == OutputFormat::Text {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let tech = Technology::d25();
    let lib = load_library(&tech, &op, &char_opts, &cache, format == OutputFormat::Json)?;

    // Progress streams to stderr so `--format json` stdout stays
    // machine-parseable; merged stats are bit-identical to a
    // monolithic sweep for any shard size.
    let shards = shard_count(config.vectors, shard_vectors);
    let report = sweep_streaming(&circuit, &lib, &config, shard_vectors, |shard| {
        if shards > 1 {
            eprintln!(
                "[sweep] shard {}/{shards}: {} vectors done (mean {:.4} uA)",
                shard.shard + 1,
                shard.start + shard.vectors,
                shard.stats.total.mean * 1e6
            );
        }
        true
    })
    .map_err(|e| format!("sweep failed: {e}"))?
    .expect("CLI sweeps are never cancelled");
    let s = &report.stats;
    let t = &report.telemetry;

    if format == OutputFormat::Json {
        // The service's POST /v1/sweep response type (see estimate).
        let report_json = SweepResponse {
            target: target.to_string(),
            gates: circuit.gate_count(),
            temp: op.temp,
            config,
            shards,
            min_vector: fmt_pattern(&s.min.pattern),
            max_vector: fmt_pattern(&s.max.pattern),
            stats: s.clone(),
            elapsed_ms: t.elapsed.as_secs_f64() * 1e3,
            patterns_per_sec: t.patterns_per_sec,
        };
        println!("{}", serde::json::to_string_pretty(&report_json));
        return Ok(());
    }

    let ua = 1e6;
    let row = |name: &str, st: &ScalarStats| {
        println!(
            "  {name:<6} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4} {:>10.4}",
            st.mean * ua,
            st.std * ua,
            st.min * ua,
            st.p50 * ua,
            st.p90 * ua,
            st.p99 * ua,
            st.max * ua,
        );
    };
    println!("\nper-vector leakage statistics over {} vectors [uA]:", s.vectors);
    println!(
        "  {:<6} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "", "mean", "std", "min", "p50", "p90", "p99", "max"
    );
    row("total", &s.total);
    row("sub", &s.sub);
    row("gate", &s.gate);
    row("btbt", &s.btbt);
    println!(
        "\n  min vector : #{:<6} {} ({:.4} uA)",
        s.min.index,
        fmt_pattern(&s.min.pattern),
        s.min.leakage.total() * ua
    );
    println!(
        "  max vector : #{:<6} {} ({:.4} uA)",
        s.max.index,
        fmt_pattern(&s.max.pattern),
        s.max.leakage.total() * ua
    );
    println!(
        "\n  {} vectors on {} thread(s) in {:.3} s — {:.0} patterns/sec",
        s.vectors,
        t.threads,
        t.elapsed.as_secs_f64(),
        t.patterns_per_sec
    );
    Ok(())
}

/// The MLV-search flags shared by `mlv` and `optimize` (goal,
/// strategy, seed, threads), mirroring the service's resolver.
fn take_mlv_config(args: &mut Args) -> Result<MlvConfig, String> {
    let goal = match args.take_value("--goal")?.as_deref() {
        None | Some("min") => MlvGoal::Min,
        Some("max") => MlvGoal::Max,
        Some(other) => return Err(format!("--goal: expected min|max, got '{other}'")),
    };
    let samples: usize = args.take_parsed("--samples", 1024)?;
    let restarts: usize = args.take_parsed("--restarts", 8)?;
    let max_steps: usize = args.take_parsed("--max-steps", 64)?;
    if samples == 0 {
        return Err("--samples must be at least 1".to_string());
    }
    if restarts == 0 {
        return Err("--restarts must be at least 1".to_string());
    }
    let strategy = match args.take_value("--strategy")?.as_deref() {
        None | Some("hillclimb") => MlvStrategy::HillClimb { restarts, max_steps },
        Some("exhaustive") => MlvStrategy::Exhaustive,
        Some("random") => MlvStrategy::Random { samples },
        Some(other) => {
            return Err(format!("--strategy: expected exhaustive|random|hillclimb, got '{other}'"))
        }
    };
    Ok(MlvConfig {
        goal,
        strategy,
        seed: args.take_parsed("--seed", 2005)?,
        threads: args.take_parsed("--threads", 0)?,
        mode: EstimatorMode::Lut,
        lanes: take_lanes(args)?,
    })
}

fn goal_name(goal: MlvGoal) -> &'static str {
    match goal {
        MlvGoal::Min => "min",
        MlvGoal::Max => "max",
    }
}

fn cmd_mlv(target: &str, mut args: Args) -> Result<(), String> {
    let config = take_mlv_config(&mut args)?;
    let goal = config.goal;
    let op = take_operating_point(&mut args)?;
    let format = OutputFormat::take(&mut args)?;
    let char_opts = take_char_opts(&mut args);
    let cache = CacheOpts::take(&mut args)?;
    let circuit_format = CircuitFormat::take(&mut args)?;
    args.finish()?;

    let circuit = load_circuit(target, circuit_format)?;
    if format == OutputFormat::Text {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let tech = Technology::d25();
    let lib = load_library(&tech, &op, &char_opts, &cache, format == OutputFormat::Json)?;

    let result =
        mlv_search(&circuit, &lib, &config).map_err(|e| format!("MLV search failed: {e}"))?;
    let tel = &result.telemetry;

    if format == OutputFormat::Json {
        // The service's POST /v1/mlv response type, so one parser
        // covers both transports by construction (floats print
        // shortest-round-trip, decoding bit-exactly).
        let goal_name = match goal {
            MlvGoal::Min => "min",
            MlvGoal::Max => "max",
        };
        let report = MlvResponse {
            target: target.to_string(),
            goal: goal_name.to_string(),
            strategy: tel.strategy.to_string(),
            vector: fmt_pattern(&result.pattern),
            pattern: result.pattern.clone(),
            objective_a: result.objective,
            sub_a: result.leakage.total.sub,
            gate_a: result.leakage.total.gate,
            btbt_a: result.leakage.total.btbt,
            evaluations: tel.evaluations,
            improving_moves: tel.improving_moves,
            restarts: tel.restarts,
            // Search-only wall clock, matching the service's
            // `POST /v1/mlv` semantics for the same field.
            elapsed_ms: tel.elapsed.as_secs_f64() * 1e3,
        };
        println!("{}", serde::json::to_string_pretty(&report));
        return Ok(());
    }

    let which = match goal {
        MlvGoal::Min => "minimum",
        MlvGoal::Max => "maximum",
    };
    println!("\n{which}-leakage vector ({} strategy):", tel.strategy);
    println!("  vector   : {}", fmt_pattern(&result.pattern));
    println!("  leakage  : {:.4} uA total", result.objective * 1e6);
    println!(
        "  breakdown: sub {:.4} / gate {:.4} / btbt {:.4} uA",
        result.leakage.total.sub * 1e6,
        result.leakage.total.gate * 1e6,
        result.leakage.total.btbt * 1e6
    );
    println!(
        "  power    : {:.4} uW at {:.2} V",
        result.objective * lib.tech.vdd * 1e6,
        lib.tech.vdd
    );
    println!(
        "\n  {} evaluations, {} improving moves, {} restart(s) in {:.3} s",
        tel.evaluations,
        tel.improving_moves,
        tel.restarts,
        tel.elapsed.as_secs_f64()
    );
    Ok(())
}

fn cmd_optimize(target: &str, mut args: Args) -> Result<(), String> {
    let mlv = take_mlv_config(&mut args)?;
    let rounds: usize = args.take_parsed("--rounds", 4)?;
    if rounds == 0 {
        return Err("--rounds must be at least 1".to_string());
    }
    let config = OptimizeConfig {
        mlv,
        max_rounds: rounds,
        canonicalize: !args.take_flag("--no-canonicalize"),
        permute: !args.take_flag("--no-permute"),
        remap: !args.take_flag("--no-remap"),
    };
    let out_path = args.take_value("--out")?;
    let op = take_operating_point(&mut args)?;
    let format = OutputFormat::take(&mut args)?;
    let char_opts = take_char_opts(&mut args);
    let cache = CacheOpts::take(&mut args)?;
    let circuit_format = CircuitFormat::take(&mut args)?;
    args.finish()?;

    let t0 = Instant::now();
    let circuit = load_circuit(target, circuit_format)?;
    if format == OutputFormat::Text {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let tech = Technology::d25();
    let lib = load_library(&tech, &op, &char_opts, &cache, format == OutputFormat::Json)?;

    // Round progress goes to stderr so `--format json` stdout stays
    // machine-parseable.
    let result = optimize_with(&circuit, &lib, &config, |round| {
        eprintln!(
            "[optimize] round {}/{}: objective {:.4} uA ({} permutation(s), {} remap(s))",
            round.round,
            round.rounds_total,
            round.objective_a * 1e6,
            round.accepted_permutations,
            round.accepted_remaps
        );
        true
    })
    .map_err(|e| format!("optimization failed: {e}"))?
    .expect("CLI optimizations are never cancelled");

    if let Some(path) = &out_path {
        let netlist = serde::json::value_to_string(&circuit_to_value(&result.circuit));
        std::fs::write(path, netlist).map_err(|e| format!("cannot write '{path}': {e}"))?;
        eprintln!("[optimize] wrote optimized netlist to {path}");
    }

    if format == OutputFormat::Json {
        // The service's POST /v1/optimize response type, so one
        // parser covers both transports by construction.
        let (pairs, dead) = result
            .canonical
            .as_ref()
            .map_or((0, 0), |r| (r.inverter_pairs_removed, r.dead_gates_removed));
        let response = OptimizeResponse {
            target: target.to_string(),
            goal: goal_name(config.mlv.goal).to_string(),
            strategy: result.baseline.telemetry.strategy.to_string(),
            gates_before: result.gates_before,
            gates_after: result.gates_after,
            rounds_run: result.rounds.len(),
            max_rounds: rounds,
            baseline_vector: fmt_pattern(&result.baseline.pattern),
            baseline_a: result.baseline.objective,
            improved_vector: fmt_pattern(&result.improved.pattern),
            improved_a: result.improved.objective,
            improved_power_w: result.improved.objective * lib.tech.vdd,
            improvement_percent: result.improvement_percent(),
            accepted_permutations: result.rounds.iter().map(|r| r.accepted_permutations).sum(),
            accepted_remaps: result.rounds.iter().map(|r| r.accepted_remaps).sum(),
            canonicalized: result.canonical.is_some(),
            inverter_pairs_removed: pairs,
            dead_gates_removed: dead,
            reverted: result.reverted,
            evaluations: result.evaluations,
            rounds: result.rounds.iter().map(round_to_value).collect(),
            netlist: circuit_to_value(&result.circuit),
            elapsed_ms: t0.elapsed().as_secs_f64() * 1e3,
        };
        println!("{}", serde::json::to_string_pretty(&response));
        return Ok(());
    }

    let ua = 1e6;
    let which = match config.mlv.goal {
        MlvGoal::Min => "minimum",
        MlvGoal::Max => "maximum",
    };
    println!("\nleakage optimization at the {which}-leakage vector:");
    if let Some(report) = &result.canonical {
        println!(
            "  canonical : {} -> {} gates ({} inverter pair(s), {} dead gate(s) removed)",
            report.gates_before,
            report.gates_after,
            report.inverter_pairs_removed,
            report.dead_gates_removed
        );
    }
    println!(
        "  baseline  : {:.4} uA at {}",
        result.baseline.objective * ua,
        fmt_pattern(&result.baseline.pattern)
    );
    println!(
        "  improved  : {:.4} uA at {} ({:+.2} %)",
        result.improved.objective * ua,
        fmt_pattern(&result.improved.pattern),
        -result.improvement_percent()
    );
    println!(
        "  rewrites  : {} pin permutation(s), {} NAND/NOR remap(s) over {} round(s)",
        result.rounds.iter().map(|r| r.accepted_permutations).sum::<usize>(),
        result.rounds.iter().map(|r| r.accepted_remaps).sum::<usize>(),
        result.rounds.len()
    );
    println!("  gates     : {} -> {}", result.gates_before, result.gates_after);
    if result.reverted {
        println!("  (no rewrite survived the objective guard; input returned unchanged)");
    }
    println!(
        "\n  {} estimator evaluations in {:.3} s",
        result.evaluations,
        result.elapsed.as_secs_f64()
    );
    Ok(())
}

fn cmd_mc(target: &str, mut args: Args) -> Result<(), String> {
    let samples: usize = args.take_parsed("--samples", 200)?;
    let vectors: usize = args.take_parsed("--vectors", 1)?;
    let seed: u64 = args.take_parsed("--seed", 2005)?;
    let sigma_vt: f64 = args.take_parsed("--sigma-vt", 30e-3)?;
    let sigma_vt_intra: f64 = args.take_parsed("--sigma-vt-intra", 30e-3)?;
    let threads: usize = args.take_parsed("--threads", 0)?;
    let lanes = take_lanes(&mut args)?;
    let shard_samples: usize = args.take_parsed("--shard-samples", 0)?;
    let op = take_operating_point(&mut args)?;
    let format = OutputFormat::take(&mut args)?;
    let coarse = args.take_flag("--coarse");
    let exact = args.take_flag("--exact");
    // Accepted for flag-set compatibility with the other subcommands,
    // but deliberately unused: per-sample libraries belong to unique
    // perturbed dies, so `mc` never reads or writes the disk cache.
    let _ = CacheOpts::take(&mut args)?;
    let circuit_format = CircuitFormat::take(&mut args)?;
    args.finish()?;
    if samples == 0 || vectors == 0 {
        return Err("--samples and --vectors must be at least 1".to_string());
    }

    let circuit = load_circuit(target, circuit_format)?;
    if format == OutputFormat::Text {
        println!("{}", CircuitStats::compute(&circuit));
    }
    let tech = Technology::d25();
    let sigmas =
        VariationSigmas::paper_nominal().with_vt_inter(sigma_vt).with_vt_intra(sigma_vt_intra);
    sigmas.validate()?;
    let config = CircuitMcConfig {
        samples,
        seed,
        sigmas,
        op,
        vectors,
        pattern_seed: seed,
        threads,
        char_opts: char_opts_for(&circuit, coarse),
        lanes,
    };
    // Per-sample libraries belong to unique perturbed dies: memoize in
    // RAM (re-runs of one seed hit), never on disk (one-shot litter).
    let cache = MemoLibraryCache::memory_only();
    let shards = shard_count(samples, shard_samples);
    let mode = McMode::from_exact(exact);
    let report =
        mc_streaming_mode(&circuit, &tech, &cache, &config, mode, shard_samples, |shard| {
            if shards > 1 {
                eprintln!(
                    "[mc] shard {}/{shards}: {} samples done (loaded mean {:.4} uA)",
                    shard.shard + 1,
                    shard.start + shard.samples,
                    shard.summary.loaded.total.mean * 1e6
                );
            }
            true
        })
        .map_err(|e| format!("monte carlo failed: {e}"))?
        .expect("CLI MC runs are never cancelled");
    let summary = report.summary;
    let tel = &report.telemetry;

    if format == OutputFormat::Json {
        // The service's "mc" job response type (see estimate/sweep).
        let response = McResponse {
            target: target.to_string(),
            gates: circuit.gate_count(),
            samples,
            vectors,
            seed,
            pattern_seed: seed,
            temp: op.temp,
            vdd_scale: op.vdd_scale,
            sigmas: config.sigmas,
            shards,
            exact,
            summary,
            elapsed_ms: tel.elapsed.as_secs_f64() * 1e3,
            samples_per_sec: tel.samples_per_sec,
        };
        println!("{}", serde::json::to_string_pretty(&response));
        return Ok(());
    }

    let ua = 1e6;
    println!(
        "\nleakage distribution over {samples} perturbed dies \
         (sigma_vt {:.0} mV inter / {:.0} mV intra, {vectors} vector(s)/sample) [uA]:",
        sigma_vt * 1e3,
        sigma_vt_intra * 1e3
    );
    println!(
        "  {:<6} {:>12} {:>12} {:>12} {:>12}",
        "", "mean(load)", "mean(no)", "std(load)", "std(no)"
    );
    let row = |name: &str, l: &Stats, u: &Stats| {
        println!(
            "  {name:<6} {:>12.4} {:>12.4} {:>12.4} {:>12.4}",
            l.mean * ua,
            u.mean * ua,
            l.std * ua,
            u.std * ua
        );
    };
    row("total", &summary.loaded.total, &summary.unloaded.total);
    row("sub", &summary.loaded.sub, &summary.unloaded.sub);
    row("gate", &summary.loaded.gate, &summary.unloaded.gate);
    row("btbt", &summary.loaded.btbt, &summary.unloaded.btbt);
    println!(
        "\n  loading shifts the total-leakage mean by {:+.2}% and the spread by {:+.2}%",
        summary.mean_shift * 100.0,
        summary.std_shift * 100.0
    );
    println!(
        "\n  {samples} samples in {:.3} s — {:.1} samples/sec{}",
        tel.elapsed.as_secs_f64(),
        tel.samples_per_sec,
        if exact { " (exact per-die characterization)" } else { "" }
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
    Ok(())
}

fn cmd_serve(mut args: Args) -> Result<(), String> {
    let defaults = ServeConfig::default();
    let addr = args.take_value("--addr")?.unwrap_or_else(|| "127.0.0.1:8425".to_string());
    let threads: usize = args.take_parsed("--threads", 0)?;
    let queue_capacity: usize = args.take_parsed("--queue", 64)?;
    let keep_alive_requests: usize =
        args.take_parsed("--keep-alive", defaults.keep_alive_requests)?;
    let finished_jobs_cap: usize = args.take_parsed("--job-cap", defaults.finished_jobs_cap)?;
    let default_job_timeout_ms: u64 = args.take_parsed("--default-job-timeout-ms", 0)?;
    // `--faults` wins over $NANOLEAK_FAULTS; either arms the global
    // failpoint registry before any worker starts.
    let armed_faults = match args.take_value("--faults")? {
        Some(spec) => nanoleak_fault::arm_from_spec(&spec).map_err(|e| format!("--faults: {e}"))?,
        None => nanoleak_fault::arm_from_env()
            .map_err(|e| format!("{}: {e}", nanoleak_fault::ENV_VAR))?,
    };
    // `--log-level` wins; otherwise NANOLEAK_LOG applies (read lazily
    // by nanoleak-obs); otherwise a long-lived service defaults to
    // info so operators see startup and job lines.
    match args.take_value("--log-level")? {
        Some(raw) => {
            let level = nanoleak_obs::Level::parse(&raw)
                .ok_or_else(|| format!("--log-level: unknown level '{raw}'"))?;
            nanoleak_obs::set_level(level);
        }
        None => {
            if std::env::var_os("NANOLEAK_LOG").is_none() {
                nanoleak_obs::set_level(nanoleak_obs::Level::Info);
            }
        }
    }
    if queue_capacity == 0 {
        return Err("--queue must be at least 1".to_string());
    }
    if finished_jobs_cap == 0 {
        return Err("--job-cap must be at least 1".to_string());
    }
    let cache = CacheOpts::take(&mut args)?;
    args.finish()?;

    let config = ServeConfig {
        addr,
        threads,
        queue_capacity,
        cache_dir: cache.dir.map(std::path::PathBuf::from),
        disk_cache: cache.enabled,
        keep_alive_requests,
        finished_jobs_cap,
        default_job_timeout: (default_job_timeout_ms > 0)
            .then(|| std::time::Duration::from_millis(default_job_timeout_ms)),
        ..defaults
    };
    if armed_faults > 0 {
        nanoleak_obs::warn!(
            "serve",
            "fault injection armed: {} failpoint(s) — chaos drill, not a production posture",
            armed_faults
        );
    }
    nanoleak_serve::install_signal_handlers();
    let server = Server::bind(&config).map_err(|e| format!("cannot bind {}: {e}", config.addr))?;
    let addr = server.local_addr().map_err(|e| format!("cannot resolve bound address: {e}"))?;
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
    server.run().map_err(|e| format!("server failed: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Args {
        Args::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let mut a = args(&["--vectors", "10", "--bogus", "--seed", "1"]);
        let _ = a.take_parsed::<usize>("--vectors", 100).unwrap();
        let _ = a.take_parsed::<u64>("--seed", 2005).unwrap();
        let err = a.finish().unwrap_err();
        assert!(err.contains("--bogus"), "{err}");
    }

    #[test]
    fn stray_positionals_are_rejected() {
        let mut a = args(&["s1196", "extra"]);
        assert_eq!(a.take_positional().as_deref(), Some("s1196"));
        let err = a.finish().unwrap_err();
        assert!(err.contains("extra"));
    }

    #[test]
    fn missing_values_are_rejected() {
        let mut a = args(&["--vectors"]);
        let err = a.take_value("--vectors").unwrap_err();
        assert!(err.contains("expects a value"));
        let mut a = args(&["--vectors", "--seed", "3"]);
        let err = a.take_value("--vectors").unwrap_err();
        assert!(err.contains("expects a value"));
    }

    #[test]
    fn values_and_flags_parse() {
        let mut a = args(&["--threads", "8", "--no-cache", "--temp", "350"]);
        assert_eq!(a.take_parsed::<usize>("--threads", 0).unwrap(), 8);
        assert!(a.take_flag("--no-cache"));
        assert!(!a.take_flag("--reference"));
        assert_eq!(a.take_parsed::<f64>("--temp", 300.0).unwrap(), 350.0);
        a.finish().unwrap();
    }

    #[test]
    fn parse_errors_name_the_flag() {
        let mut a = args(&["--vectors", "many"]);
        let err = a.take_parsed::<usize>("--vectors", 100).unwrap_err();
        assert!(err.contains("--vectors") && err.contains("many"));
    }

    #[test]
    fn mode_parsing() {
        assert_eq!(parse_mode(None).unwrap(), EstimatorMode::Lut);
        assert_eq!(parse_mode(Some("noloading".into())).unwrap(), EstimatorMode::NoLoading);
        assert!(parse_mode(Some("spice".into())).is_err());
    }

    #[test]
    fn pattern_formatting() {
        let p = Pattern { pi: vec![true, false], states: vec![] };
        assert_eq!(fmt_pattern(&p), "10");
        let p = Pattern { pi: vec![false], states: vec![true] };
        assert_eq!(fmt_pattern(&p), "0|1");
    }
}
