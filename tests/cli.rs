//! End-to-end tests of the `nanoleak-cli` binary: the `--format json`
//! machine interface of the analysis subcommands, driven through a
//! real process the way a harness would, and its parity with the HTTP
//! API's runners.

use std::path::PathBuf;
use std::process::Command;

use nanoleak_engine::MemoLibraryCache;
use nanoleak_serve::api::{self, Body, NoopObserver};
use serde::{json, Deserialize as _, Serialize as _, Value};

fn cli() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nanoleak-cli"))
}

/// A tiny two-gate `.bench` circuit written to a temp file.
fn tiny_bench(tag: &str) -> PathBuf {
    let path =
        std::env::temp_dir().join(format!("nanoleak-cli-test-{tag}-{}.bench", std::process::id()));
    std::fs::write(&path, "INPUT(a)\nINPUT(b)\nOUTPUT(y)\nn1 = NAND(a, b)\ny = NOT(n1)\n")
        .expect("write bench");
    path
}

fn get<'v>(v: &'v Value, name: &str) -> &'v Value {
    let Value::Record(fields) = v else { panic!("expected object, got {v:?}") };
    &fields.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no '{name}' in {v:?}")).1
}

fn run_json(args: &[&str]) -> Value {
    let out = cli().args(args).output().expect("spawn nanoleak-cli");
    assert!(
        out.status.success(),
        "cli {args:?} failed:\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf8 stdout");
    json::value_from_str(&stdout).unwrap_or_else(|e| panic!("bad JSON ({e}): {stdout}"))
}

/// `mlv --format json` emits the service's response type on stdout
/// (stderr carries the progress chatter), and the floats decode
/// bit-exactly across runs — the shortest-round-trip contract.
#[test]
fn mlv_json_output_parses_and_is_deterministic() {
    let bench = tiny_bench("mlv");
    let target = bench.to_str().unwrap();
    let args =
        ["mlv", target, "--strategy", "exhaustive", "--coarse", "--format", "json", "--no-cache"];
    let first = run_json(&args);
    assert_eq!(get(&first, "goal"), &Value::Str("min".into()));
    assert_eq!(get(&first, "strategy"), &Value::Str("exhaustive".into()));
    let objective = f64::from_value(get(&first, "objective_a")).expect("objective_a");
    assert!(objective > 0.0, "positive leakage, got {objective}");
    let Value::Str(vector) = get(&first, "vector") else { panic!("vector: {first:?}") };
    assert_eq!(vector.len(), 2, "two primary inputs");
    // The breakdown components sum to a total near the objective.
    let sum = ["sub_a", "gate_a", "btbt_a"]
        .iter()
        .map(|f| f64::from_value(get(&first, f)).unwrap())
        .sum::<f64>();
    assert!((sum - objective).abs() / objective < 1e-9, "{sum} vs {objective}");

    // A second run decodes to the same bits (only wall-clock differs).
    let second = run_json(&args);
    let again = f64::from_value(get(&second, "objective_a")).unwrap();
    assert_eq!(objective.to_bits(), again.to_bits(), "shortest-round-trip floats");
    let _ = std::fs::remove_file(&bench);
}

/// `mc --format json` carries the full distribution summary, and the
/// same seed reproduces it bit-exactly.
#[test]
fn mc_json_output_carries_the_distribution_summary() {
    let bench = tiny_bench("mc");
    let target = bench.to_str().unwrap();
    let args = [
        "mc",
        target,
        "--samples",
        "3",
        "--seed",
        "9",
        "--sigma-vt",
        "0.05",
        "--coarse",
        "--format",
        "json",
    ];
    let first = run_json(&args);
    assert_eq!(get(&first, "samples"), &Value::Int(3));
    assert_eq!(get(&first, "seed"), &Value::Int(9));
    let sigmas = get(&first, "sigmas");
    assert_eq!(f64::from_value(get(sigmas, "vt_inter")).unwrap(), 0.05);
    let summary = get(&first, "summary");
    let loaded_mean = f64::from_value(get(get(get(summary, "loaded"), "total"), "mean")).unwrap();
    let unloaded_mean =
        f64::from_value(get(get(get(summary, "unloaded"), "total"), "mean")).unwrap();
    assert!(loaded_mean > 0.0 && unloaded_mean > 0.0);
    assert_ne!(loaded_mean, unloaded_mean, "loading must move the distribution");

    let second = run_json(&args);
    let again_mean =
        f64::from_value(get(get(get(get(&second, "summary"), "loaded"), "total"), "mean")).unwrap();
    assert_eq!(loaded_mean.to_bits(), again_mean.to_bits(), "same seed, same bits");
    let _ = std::fs::remove_file(&bench);
}

/// The `error:` line of a failed run (stderr also carries the usage
/// text, which names every flag).
fn error_line(args: &[&str]) -> String {
    let out = cli().args(args).output().expect("spawn nanoleak-cli");
    assert_eq!(out.status.code(), Some(1), "{args:?} should fail");
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    stderr
        .lines()
        .find(|l| l.starts_with("error: "))
        .unwrap_or_else(|| panic!("no error line in {stderr}"))
        .to_string()
}

/// Strict flag rejection covers the new subcommand too.
#[test]
fn mc_rejects_unknown_flags_and_bad_values() {
    let bench = tiny_bench("mc-bad");
    let target = bench.to_str().unwrap();
    let line = error_line(&["mc", target, "--bogus"]);
    assert!(line.contains("'bogus'"), "{line}");
    let line = error_line(&["mc", target, "--samples", "0", "--coarse"]);
    assert!(line.contains("'samples'"), "{line}");
    let _ = std::fs::remove_file(&bench);
}

/// Drops the wall-clock fields, the only part of a response two runs
/// may disagree on.
fn without_wall_clock(v: Value) -> Value {
    let Value::Record(fields) = v else { panic!("expected object, got {v:?}") };
    let clock = ["elapsed_ms", "patterns_per_sec", "samples_per_sec"];
    Value::Record(fields.into_iter().filter(|(n, _)| !clock.contains(&n.as_str())).collect())
}

/// `nanoleak-cli <command> s838 --coarse <flags> --format json` prints
/// exactly what the API's runner returns for the body with `fields`.
fn assert_cli_is_api(command: &str, flags: &[&str], fields: &str) {
    let mut args = vec![command, "s838", "--coarse", "--no-cache", "--format", "json"];
    args.extend_from_slice(flags);
    let from_cli = run_json(&args);
    let body = Body::parse(&format!(r#"{{"target": "s838", "coarse": true, {fields}}}"#)).unwrap();
    let cache = MemoLibraryCache::memory_only();
    let response = match command {
        "estimate" => api::run_estimate(&cache, &body).map(|r| r.to_value()),
        "sweep" => api::run_sweep_streaming(&cache, &body, &NoopObserver).map(|r| r.to_value()),
        "mlv" => api::run_mlv(&cache, &body).map(|r| r.to_value()),
        "optimize" => api::run_optimize_with(&cache, &body, &NoopObserver).map(|r| r.to_value()),
        "mc" => api::run_mc(&cache, &body, &NoopObserver).map(|r| r.to_value()),
        other => panic!("no runner for {other}"),
    }
    .unwrap_or_else(|e| panic!("{command}: {e:?}"));
    // Through the text codec the CLI printed with, so number forms agree.
    let from_api = json::value_from_str(&json::value_to_string(&response)).unwrap();
    assert_eq!(without_wall_clock(from_cli), without_wall_clock(from_api), "{command}");
}

#[test]
fn estimate_json_is_the_api_response() {
    assert_cli_is_api("estimate", &["--vectors", "4", "--seed", "7"], r#""vectors": 4, "seed": 7"#);
}

#[test]
fn sweep_json_is_the_api_response() {
    assert_cli_is_api(
        "sweep",
        &["--vectors", "96", "--shard-vectors", "32", "--mode", "noloading"],
        r#""vectors": 96, "shard_vectors": 32, "mode": "noloading""#,
    );
}

#[test]
fn mlv_json_is_the_api_response() {
    assert_cli_is_api(
        "mlv",
        &["--goal", "max", "--restarts", "2", "--max-steps", "8"],
        r#""goal": "max", "restarts": 2, "max_steps": 8"#,
    );
}

#[test]
fn optimize_json_is_the_api_response() {
    assert_cli_is_api(
        "optimize",
        &["--rounds", "1", "--restarts", "2", "--max-steps", "8", "--no-remap"],
        r#""rounds": 1, "restarts": 2, "max_steps": 8, "remap": false"#,
    );
}

#[test]
fn mc_json_is_the_api_response() {
    assert_cli_is_api(
        "mc",
        &["--samples", "2", "--vectors", "4", "--pattern-seed", "11"],
        r#""samples": 2, "vectors": 4, "pattern_seed": 11"#,
    );
}

/// A characterization that cannot converge (5000 K is far outside the
/// device model) is a clean exit-1 error on both library paths, never
/// a panic, and a solver failure is not mistaken for a disk-cache
/// failure.
#[test]
fn non_converging_characterization_fails_cleanly() {
    let bench = tiny_bench("no-converge");
    let target = bench.to_str().unwrap();
    let cache_dir = std::env::temp_dir()
        .join(format!("nanoleak-cli-test-no-converge-cache-{}", std::process::id()));
    let cache_dir = cache_dir.to_str().unwrap();
    let base = ["estimate", target, "--coarse", "--temp", "5000", "--format", "json"];
    for cache in [&["--no-cache"][..], &["--cache-dir", cache_dir][..]] {
        let out = cli().args(base).args(cache).output().expect("spawn nanoleak-cli");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{cache:?}: {stderr}");
        assert!(stderr.contains("characterization failed"), "{cache:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "{cache:?}: {stderr}");
        assert!(!stderr.contains("continuing without the disk cache"), "{cache:?}: {stderr}");
    }
    let _ = std::fs::remove_dir_all(cache_dir);
    let _ = std::fs::remove_file(&bench);
}
