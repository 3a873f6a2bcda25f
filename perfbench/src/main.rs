//! Seeded end-to-end and per-layer benchmark of the nanoleak workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_s1196|mc_s838|serve_mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every workload builds its inputs from `--seed`, sets up cold (no
//! disk cache, fresh RAM caches), measures for `--seconds`, checks
//! its outputs and prints a text report followed by one JSON line:
//! `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics; `--trace 1` splits the measured
//! time between an untraced and a traced half and reports per-layer
//! metrics read from the program's own instruments plus the
//! benchmark's timing of public calls into each layer. A failed check
//! exits with code 1, bad arguments with code 2.

mod client;
mod layers;
mod mc;
mod metrics;
mod report;
mod serve;
mod stats;
mod sweep;

use report::Report;

/// Cold set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// Conditions shared by every workload of one run.
#[derive(Debug, Clone, Copy)]
pub struct Ctx {
    /// The workload seed; every input derives from it.
    pub seed: u64,
    /// Measured time of the run.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of end-to-end.
    pub trace: bool,
    /// Worker threads and client connections: the host's available
    /// parallelism.
    pub threads: usize,
}

impl Ctx {
    /// A seed for input stream `stream`, derived from the run seed.
    pub fn stream(&self, stream: u64) -> u64 {
        nanoleak_core::exec::mix(self.seed, stream)
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: perfbench --workload <sweep_s1196|mc_s838|serve_mix> --seed <n> \
         --seconds <s> --trace <0|1>"
    );
    std::process::exit(2);
}

fn main() {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().unwrap_or_else(|_| usage("--seed: integer"))),
            "--seconds" => {
                seconds = value.parse().unwrap_or_else(|_| usage("--seconds: number"));
                if !(seconds > 0.0 && seconds <= 600.0) {
                    usage("--seconds: expected 0 < s <= 600");
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: expected 0 or 1"),
                }
            }
            other => usage(&format!("unknown flag {other}")),
        }
    }
    let Some(workload) = workload else { usage("--workload is required") };
    let Some(seed) = seed else { usage("--seed is required") };
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx { seed, seconds, trace, threads };

    let mut report = Report::default();
    report.context("workload", &workload);
    report.context("seed", seed);
    report.context("seconds", seconds);
    report.context("trace", u8::from(trace));
    report.context("host_cores", threads);
    report.context("cpu_model", report::cpu_model());
    report.context(
        "cache_state",
        "cold: disk cache disabled, fresh RAM memo and empty plan cache per set-up",
    );
    match workload.as_str() {
        "sweep_s1196" => sweep::run(&ctx, &mut report),
        "mc_s838" => mc::run(&ctx, &mut report),
        "serve_mix" => serve::run(&ctx, &mut report),
        other => usage(&format!("unknown workload {other}")),
    }
    report.context("peak_rss_mb_with_checks", report::peak_rss_mb());
    report.print(trace);
    if !report.correct() {
        std::process::exit(1);
    }
}
