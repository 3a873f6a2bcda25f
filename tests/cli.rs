//! End-to-end tests of the `nanoleak-cli` binary: the `--format json`
//! machine interface of the `mlv` and `mc` subcommands, driven through
//! a real process the way a harness would.

use std::path::PathBuf;
use std::process::Command;

use serde::{json, Deserialize as _, Value};

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

/// Strict flag rejection covers the new subcommand too.
#[test]
fn mc_rejects_unknown_flags_and_bad_values() {
    let bench = tiny_bench("mc-bad");
    let target = bench.to_str().unwrap();
    let out = cli().args(["mc", target, "--bogus"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus"), "{stderr}");

    let out = cli().args(["mc", target, "--samples", "0", "--coarse"]).output().expect("spawn");
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--samples"), "{stderr}");
    let _ = std::fs::remove_file(&bench);
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
