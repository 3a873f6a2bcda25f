//! `serve_mix`: an in-process `nanoleak_serve::Server` on loopback,
//! driven closed-loop by one keep-alive client connection per core.
//!
//! The seeded mix is mostly small synchronous `/v1/estimate` calls,
//! plus `/v1/mlv` hill-climbs and a few async `/v1/jobs` (sweep, fast
//! MC, optimize) polled until their result is fetched. Requests spread
//! over three builtin targets and a hot set of six operating points
//! (18 target × point keys, under the 64-entry plan and library
//! residency bounds); a seeded trickle of never-seen temperatures on
//! the synchronous calls forces library misses on the request path.
//! Every request asks for the coarse characterization grid.
//!
//! No recorded traffic exists for this service, so every number of the
//! mix below (shares, request shapes, hot set, miss rate) is an
//! assumption, not a measurement. The job shares are chosen so that
//! each job kind takes about a tenth of the clients' time or less, and
//! the gated tail averages the slowest tenth of operations, where the
//! three job kinds and the slowest synchronous requests all weigh in:
//! no single rare job kind decides the gated metrics.

use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use nanoleak_cells::{CellType, CharacterizeOptions, OperatingPoint};
use nanoleak_device::Technology;
use nanoleak_engine::{plan_cache, MemoLibraryCache};
use nanoleak_obs::{Counter, Histogram, HistogramSnapshot};
use nanoleak_serve::api::{self, Body, NoopObserver};
use nanoleak_serve::{ServeConfig, Server, ShutdownHandle};
use serde::{json, Serialize, Value};

use crate::client::Client;
use crate::layers::{build_circuit, build_ms, common_layers, layer_probes, mc_layers, rows};
use crate::metrics::{ratio, Delta, Snapshot};
use crate::report::Report;
use crate::stats::{median, percentile, tail_mean};
use crate::{Ctx, SETUP_REPS};

const TARGETS: [&str; 3] = ["s838", "s1196", "s1423"];
/// The hot operating points `(temp K, vdd_scale)`.
const POINTS: [(f64, f64); 6] =
    [(300.0, 1.0), (325.0, 1.0), (350.0, 1.0), (300.0, 0.9), (325.0, 0.9), (350.0, 0.9)];
/// The mix, as slots of one block of [`BLOCK`] consecutive requests of
/// a client: every block holds exactly these counts, in a seeded order,
/// so each run sees the same composition. An assumption; on a 2-core
/// Xeon it gives estimates about half the clients' time, mlv about a
/// quarter and each job kind about a tenth (`client_time_share` in
/// the report).
const BLOCK_MIX: [(Kind, u64); 5] = [
    (Kind::Estimate, 82),
    (Kind::Mlv, 13),
    (Kind::SweepJob, 2),
    (Kind::McJob, 1),
    (Kind::OptimizeJob, 2),
];
const BLOCK: u64 = 100;
/// Every second block's first synchronous request asks for a
/// never-seen temperature (a library miss on the request path).
const TRICKLE_EVERY_BLOCKS: u64 = 2;
/// Vectors per `/v1/estimate`.
const ESTIMATE_VECTORS: usize = 16;
/// Served responses compared against the in-process API per run.
const CHECKS: usize = 200;
/// The gated tail is the mean latency of the slowest `1 - TAIL_Q` of
/// operations (about 100 in a 40 s run): the jobs, which are 5% of
/// operations, spread over three kinds, and the slowest synchronous
/// requests (s1423 hill-climbs, library misses, requests contending
/// with a running job). A percentile there would fall between the
/// per-target clusters of hill-climb latencies and jump from run to
/// run.
const TAIL_Q: f64 = 0.90;
/// Pause between job status polls.
const POLL_PAUSE: Duration = Duration::from_millis(2);
/// The server closes a kept-alive connection after this many requests.
const KEEP_ALIVE_REQUESTS: usize = 1000;
/// Fast-MC job shape: dies and vectors per die.
const MC_JOB_SAMPLES: usize = 16;
const MC_JOB_VECTORS: usize = 64;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Estimate,
    Mlv,
    SweepJob,
    McJob,
    OptimizeJob,
}

impl Kind {
    fn name(self) -> &'static str {
        match self {
            Kind::Estimate => "estimate",
            Kind::Mlv => "mlv",
            Kind::SweepJob => "sweep_job",
            Kind::McJob => "mc_job",
            Kind::OptimizeJob => "optimize_job",
        }
    }

    fn is_job(self) -> bool {
        !matches!(self, Kind::Estimate | Kind::Mlv)
    }
}

/// One generated request.
struct Req {
    kind: Kind,
    target: &'static str,
    body: String,
    check: bool,
}

/// The kinds of one block of a client's requests, in seeded order.
fn block_kinds(seed: u64) -> Vec<Kind> {
    let mut kinds: Vec<Kind> =
        BLOCK_MIX.iter().flat_map(|&(kind, n)| std::iter::repeat_n(kind, n as usize)).collect();
    for i in (1..kinds.len()).rev() {
        let j = (nanoleak_core::exec::mix(seed, i as u64) % (i as u64 + 1)) as usize;
        kinds.swap(i, j);
    }
    kinds
}

/// Request `k` of client `client`: a pure function of the run seed.
fn request(ctx: &Ctx, client: usize, k: u64, checks_left: bool) -> Req {
    let stream = ctx.stream(10 + client as u64);
    let (block, slot) = (k / BLOCK, (k % BLOCK) as usize);
    let kinds = block_kinds(nanoleak_core::exec::mix(stream, u64::MAX - block));
    let kind = kinds[slot];
    let h = nanoleak_core::exec::mix(stream, k);
    let seed = (h >> 16) & 0xffff_ffff;
    let (mut temp, vdd) = POINTS[((h >> 48) % POINTS.len() as u64) as usize];
    let first_sync = kinds.iter().position(|k| !k.is_job()) == Some(slot);
    if first_sync && block % TRICKLE_EVERY_BLOCKS == 0 {
        // A temperature no earlier request used (0.1 mK resolution).
        temp = 300.0 + ((h >> 24) % 700_000) as f64 * 1e-4;
    }
    let target = TARGETS[((h >> 56) % TARGETS.len() as u64) as usize];
    let point = format!("\"temp\":{temp},\"vdd_scale\":{vdd},\"coarse\":true");
    let (target, body) = match kind {
        Kind::Estimate => (
            target,
            format!("{{\"target\":\"{target}\",\"vectors\":{ESTIMATE_VECTORS},\"seed\":{seed},{point}}}"),
        ),
        Kind::Mlv => (
            target,
            format!(
                "{{\"target\":\"{target}\",\"strategy\":\"hillclimb\",\"restarts\":2,\
                 \"max_steps\":16,\"seed\":{seed},{point}}}"
            ),
        ),
        Kind::SweepJob => (
            "s1196",
            format!(
                "{{\"type\":\"sweep\",\"target\":\"s1196\",\"vectors\":16384,\
                 \"shard_vectors\":4096,\"seed\":{seed},{point}}}"
            ),
        ),
        // Fast MC jobs stay on the nominal point whose sensitivity
        // build the warm-up paid.
        Kind::McJob => (
            "s838",
            format!(
                "{{\"type\":\"mc\",\"target\":\"s838\",\"samples\":{MC_JOB_SAMPLES},\
                 \"vectors\":{MC_JOB_VECTORS},\"seed\":{seed},\"coarse\":true}}"
            ),
        ),
        Kind::OptimizeJob => (
            "s838",
            format!(
                "{{\"type\":\"optimize\",\"target\":\"s838\",\"rounds\":1,\"restarts\":2,\
                 \"max_steps\":16,\"seed\":{seed},{point}}}"
            ),
        ),
    };
    Req { kind, target, body, check: checks_left && (h >> 8).is_multiple_of(4) }
}

/// A running server plus the instruments the benchmark reads.
struct Running {
    addr: SocketAddr,
    shutdown: ShutdownHandle,
    thread: JoinHandle<std::io::Result<()>>,
    request_seconds: Histogram,
    protocol_errors: Counter,
    shed: Vec<Counter>,
}

impl Running {
    fn start(ctx: &Ctx) -> Self {
        let server = Server::bind(&ServeConfig {
            addr: "127.0.0.1:0".into(),
            threads: ctx.threads,
            disk_cache: false,
            keep_alive_requests: KEEP_ALIVE_REQUESTS,
            ..Default::default()
        })
        .expect("bind loopback");
        let t = &server.state().telemetry;
        Running {
            addr: server.local_addr().expect("bound address"),
            shutdown: server.shutdown_handle(),
            request_seconds: t.request_seconds.clone(),
            protocol_errors: t.protocol_errors.clone(),
            shed: vec![
                t.shed_queue_full.clone(),
                t.shed_predicted_deadline.clone(),
                t.shed_connection_limit.clone(),
                t.shed_connection_requests.clone(),
            ],
            thread: std::thread::spawn(move || server.run()),
        }
    }

    fn stop(self) {
        self.shutdown.request();
        self.thread.join().expect("server thread").expect("server run");
    }

    fn telemetry(&self) -> (HistogramSnapshot, u64, u64) {
        (
            self.request_seconds.snapshot(),
            self.protocol_errors.get(),
            self.shed.iter().map(Counter::get).sum(),
        )
    }

    fn scrape(&self) -> Snapshot {
        let resp = Client::new(self.addr).send("GET", "/metrics", "").expect("scrape /metrics");
        Snapshot::parse(&resp.body)
    }
}

/// One completed operation (a sync request, or a job from submit to
/// fetched result).
struct Op {
    kind: Kind,
    target: &'static str,
    ms: f64,
    ok: bool,
    /// The endpoint's own `elapsed_ms` (sync requests).
    api_ms: f64,
}

/// What one client thread saw.
#[derive(Default)]
struct ClientLog {
    ops: Vec<Op>,
    exchanges: u64,
    exchange_s: f64,
    poll_pause_s: f64,
    reconnects: u64,
    /// `(kind, request body, served result)` of the checked subset.
    checked: Vec<(Kind, String, Value)>,
    /// Served fast-MC job results (for die accounting).
    mc_results: Vec<Value>,
}

fn field<'v>(v: &'v Value, name: &str) -> Option<&'v Value> {
    match v {
        Value::Record(fields) => fields.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

/// A JSON number; `None` for anything else, including the `null` a
/// non-finite float encodes as.
fn number(v: Option<&Value>) -> Option<f64> {
    match v {
        Some(Value::F64(x)) => Some(*x),
        Some(Value::Int(i)) => Some(*i as f64),
        _ => None,
    }
}

fn num(v: Option<&Value>) -> f64 {
    number(v).unwrap_or(0.0)
}

impl ClientLog {
    fn send(&mut self, c: &mut Client, method: &str, path: &str, body: &str) -> Option<Value> {
        let t = Instant::now();
        let out = c.send(method, path, body);
        self.exchange_s += t.elapsed().as_secs_f64();
        self.exchanges += 1;
        match out {
            // 503/429 sheds (with Retry-After) and every other non-2xx
            // fail the operation; nothing is retried.
            Ok(resp) if (200..300).contains(&resp.status) => json::value_from_str(&resp.body).ok(),
            _ => None,
        }
    }

    /// Submits a job, polls until it finishes, fetches its result.
    fn job(&mut self, c: &mut Client, body: &str) -> Option<Value> {
        let submitted = self.send(c, "POST", "/v1/jobs", body)?;
        let id = num(field(&submitted, "id")) as u64;
        loop {
            let status = self.send(c, "GET", &format!("/v1/jobs/{id}"), "")?;
            match field(&status, "status") {
                Some(Value::Str(s)) if s == "done" => break,
                Some(Value::Str(s)) if s == "queued" || s == "running" => {}
                _ => return None,
            }
            let t = Instant::now();
            std::thread::sleep(POLL_PAUSE);
            self.poll_pause_s += t.elapsed().as_secs_f64();
        }
        let result = self.send(c, "GET", &format!("/v1/jobs/{id}/result"), "")?;
        field(&result, "result").cloned()
    }

    fn perform(&mut self, c: &mut Client, req: &Req) {
        let t = Instant::now();
        let value = match req.kind {
            Kind::Estimate => self.send(c, "POST", "/v1/estimate", &req.body),
            Kind::Mlv => self.send(c, "POST", "/v1/mlv", &req.body),
            _ => self.job(c, &req.body),
        };
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let api_ms = if req.kind.is_job() {
            0.0
        } else {
            value.as_ref().map_or(0.0, |v| num(field(v, "elapsed_ms")))
        };
        if let Some(v) = &value {
            if req.kind == Kind::McJob {
                self.mc_results.push(v.clone());
            }
            if req.check {
                self.checked.push((req.kind, req.body.clone(), v.clone()));
            }
        }
        self.ops.push(Op { kind: req.kind, target: req.target, ms, ok: value.is_some(), api_ms });
    }
}

/// One closed-loop phase across all clients.
struct Phase {
    logs: Vec<ClientLog>,
    wall: f64,
    global: Delta,
    jobs: Delta,
    handle: HistogramSnapshot,
    protocol_errors: u64,
    shed: u64,
}

impl Phase {
    fn ops(&self) -> impl Iterator<Item = &Op> {
        self.logs.iter().flat_map(|l| &l.ops)
    }

    fn throughput(&self) -> f64 {
        ratio(self.ops().filter(|o| o.ok).count() as f64, self.wall)
    }
}

fn measure(
    ctx: &Ctx,
    server: &Running,
    secs: f64,
    first_k: u64,
    checks_per_client: usize,
) -> Phase {
    let jobs_before = server.scrape();
    let global_before = Snapshot::global();
    let (handle_before, pe_before, shed_before) = server.telemetry();
    let start = Instant::now();
    let deadline = Duration::from_secs_f64(secs);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..ctx.threads)
            .map(|client| {
                scope.spawn(move || {
                    let mut log = ClientLog::default();
                    let mut conn = Client::new(server.addr);
                    let mut k = first_k;
                    while start.elapsed() < deadline {
                        let req = request(ctx, client, k, log.checked.len() < checks_per_client);
                        log.perform(&mut conn, &req);
                        k += 1;
                    }
                    log.reconnects = conn.reconnects;
                    log
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let (handle_after, pe_after, shed_after) = server.telemetry();
    let global = Snapshot::global().since(&global_before);
    let jobs = server.scrape().since(&jobs_before);
    let mut handle = handle_after;
    for (a, b) in handle.counts.iter_mut().zip(handle_before.counts) {
        *a -= b;
    }
    handle.sum -= handle_before.sum;
    Phase {
        logs,
        wall,
        global,
        jobs,
        handle,
        protocol_errors: pe_after - pe_before,
        shed: shed_after - shed_before,
    }
}

/// Drops wall-clock fields, which differ between any two runs.
fn strip_timings(v: &Value) -> Value {
    const TIMINGS: [&str; 3] = ["elapsed_ms", "patterns_per_sec", "samples_per_sec"];
    match v {
        Value::Record(fields) => Value::Record(
            fields
                .iter()
                .filter(|(k, _)| !TIMINGS.contains(&k.as_str()))
                .map(|(k, v)| (k.clone(), strip_timings(v)))
                .collect(),
        ),
        Value::Seq(xs) => Value::Seq(xs.iter().map(strip_timings).collect()),
        other => other.clone(),
    }
}

/// The in-process API result for one served request, through JSON
/// text exactly as the server sends it.
fn in_process(
    kind: Kind,
    body: &str,
    cache: &MemoLibraryCache,
    mc_cache: &MemoLibraryCache,
) -> Value {
    fn text<T: Serialize>(r: Result<T, api::ApiError>) -> String {
        json::to_string(&r.expect("in-process API call"))
    }
    let body = Body::parse(body).expect("generated body parses");
    let out = match kind {
        Kind::Estimate => text(api::run_estimate(cache, &body)),
        Kind::Mlv => text(api::run_mlv(cache, &body)),
        Kind::SweepJob => text(api::run_sweep_streaming(cache, &body, &NoopObserver)),
        Kind::McJob => text(api::run_mc(mc_cache, &body, &NoopObserver)),
        Kind::OptimizeJob => text(api::run_optimize_with(cache, &body, &NoopObserver)),
    };
    json::value_from_str(&out).expect("API output is JSON")
}

pub fn run(ctx: &Ctx, r: &mut Report) {
    r.context("targets", TARGETS.join(","));
    r.context("hot_points", format!("{POINTS:?} (temp K, vdd_scale)"));
    r.context("grid_points", CharacterizeOptions::coarse(&CellType::ALL).points);
    r.context(
        "mix",
        "per client, every 100 requests in seeded order: 82 estimate, 13 mlv hill-climb, \
         2 sweep job, 1 fast-mc job, 2 optimize job; every 200th at a fresh temperature \
         (assumed, not recorded traffic)",
    );
    r.context("clients", format!("{} closed-loop keep-alive connections", ctx.threads));
    r.context("keep_alive_requests", KEEP_ALIVE_REQUESTS);

    // Set-up: bind, serve, first characterization (an estimate at the
    // first hot point), each time on a fresh server and plan cache.
    let mut setups = Vec::new();
    let mut server = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = server.take() {
            Running::stop(old);
        }
        plan_cache::clear();
        let t = Instant::now();
        let s = Running::start(ctx);
        let first = Client::new(s.addr).send(
            "POST",
            "/v1/estimate",
            "{\"target\":\"s838\",\"vectors\":1,\"coarse\":true}",
        );
        assert!(first.is_ok_and(|r| r.status == 200), "first characterization failed");
        setups.push(t.elapsed().as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one set-up");
    r.e2e.insert("setup_s", median(&setups));

    // Warm-up (not timed): every hot point characterized, the nominal
    // sensitivity build for the MC jobs done.
    std::thread::scope(|scope| {
        let mc = scope.spawn(|| {
            let body = format!(
                "{{\"type\":\"mc\",\"target\":\"s838\",\"samples\":1,\
                 \"vectors\":{MC_JOB_VECTORS},\"coarse\":true}}"
            );
            ClientLog::default().job(&mut Client::new(server.addr), &body).is_some()
        });
        let mut conn = Client::new(server.addr);
        for (temp, vdd) in POINTS {
            let body = format!(
                "{{\"target\":\"s838\",\"vectors\":1,\"temp\":{temp},\"vdd_scale\":{vdd},\
                 \"coarse\":true}}"
            );
            let ok = ClientLog::default().send(&mut conn, "POST", "/v1/estimate", &body).is_some();
            assert!(ok, "warm-up estimate failed");
        }
        assert!(mc.join().expect("warm-up thread"), "warm-up MC job failed");
    });

    let per_client = CHECKS.div_ceil(ctx.threads);
    let phases = if ctx.trace {
        let plain = measure(ctx, &server, ctx.seconds / 2.0, 0, per_client);
        let traced = measure(ctx, &server, ctx.seconds / 2.0, 1 << 32, per_client);
        vec![plain, traced]
    } else {
        vec![measure(ctx, &server, ctx.seconds, 0, per_client)]
    };
    // The program's footprint: read before the output checks, whose
    // in-process re-runs and fresh caches are the benchmark's own work.
    r.e2e.insert("peak_rss_mb", crate::report::peak_rss_mb());
    let main = &phases[0];

    let ops: Vec<&Op> = phases.iter().flat_map(Phase::ops).collect();
    r.attempted = ops.len() as u64;
    r.failed = ops.iter().filter(|o| !o.ok).count() as u64;
    check(r, &phases, &served_mc(&phases));

    let lat_ms: Vec<f64> = main.ops().map(|o| o.ms).collect();
    let (tail_ms, slowest) = tail_mean(&lat_ms, TAIL_Q);
    r.context(
        "latency_samples",
        format!("{} operations; tail = mean of the slowest {slowest}", lat_ms.len()),
    );
    let by_kind = |k: Kind| {
        let ms: Vec<f64> = main.ops().filter(|o| o.kind == k).map(|o| o.ms).collect();
        format!(
            "{} {} (p50 {:.1} ms, max {:.1} ms)",
            k.name(),
            ms.len(),
            median(&ms),
            percentile(&ms, 1.0)
        )
    };
    r.context("ops_by_kind", BLOCK_MIX.map(|(k, _)| by_kind(k)).join(", "));
    let client_ms: f64 = lat_ms.iter().sum();
    let share = |k: Kind| {
        let ms: f64 = main.ops().filter(|o| o.kind == k).map(|o| o.ms).sum();
        format!("{} {:.3}", k.name(), ratio(ms, client_ms))
    };
    r.context("client_time_share", BLOCK_MIX.map(|(k, _)| share(k)).join(", "));
    r.e2e.insert("throughput_per_s", main.throughput());
    r.e2e.insert("latency_p50_ms", median(&lat_ms));
    r.e2e.insert("latency_tail_ms", tail_ms);
    r.named("serve_req_per_s", main.throughput(), "req/s");
    r.named("serve_p50_ms", median(&lat_ms), "ms");
    r.named("serve_tail_mean_ms", tail_ms, "ms");
    r.named("serve_p90_ms", percentile(&lat_ms, 0.90), "ms");
    r.named("serve_p99_ms", percentile(&lat_ms, 0.99), "ms");
    r.named("setup_s", median(&setups), "s");

    if let [plain, traced] = phases.as_slice() {
        traced_layers(ctx, r, plain, traced);
        // Benchmark-timed core probes on the nominal coarse library.
        let tech = Technology::d25();
        let lib = OperatingPoint::default()
            .characterize(&tech, &CharacterizeOptions::coarse(&CellType::ALL))
            .expect("coarse library");
        layer_probes(r, &TARGETS, &build_circuit("s838"), &lib, ctx.stream(9));
    }
    server.stop();
}

/// Compares the first [`CHECKS`] of the seeded subset of served
/// responses with the in-process API on fresh RAM-only caches, and
/// checks every served fast-MC job's die accounting and realized
/// deviation.
fn check(r: &mut Report, phases: &[Phase], mc: &ServedMc) {
    let cache = MemoLibraryCache::memory_only();
    let mc_cache = MemoLibraryCache::memory_only();
    let checked: Vec<_> =
        phases.iter().flat_map(|p| &p.logs).flat_map(|l| &l.checked).take(CHECKS).collect();
    let mismatches = checked
        .iter()
        .filter(|(kind, body, served)| {
            strip_timings(served) != strip_timings(&in_process(*kind, body, &cache, &mc_cache))
        })
        .count();
    r.check(
        "served_equals_in_process",
        !checked.is_empty() && mismatches == 0,
        format!(
            "{} seeded responses, {mismatches} mismatches (wall-clock fields excluded)",
            checked.len()
        ),
    );
    r.check(
        "served_mc_jobs_accounted",
        mc.jobs > 0 && mc.accounted,
        format!("dies_derived + dies_full == samples on each of {} jobs", mc.jobs),
    );
    r.check(
        "served_mc_deviation_within_tol",
        mc.jobs > 0 && mc.over_tol == 0,
        format!(
            "{} of {} jobs at or over their tolerance; worst realized deviation {:.4}%",
            mc.over_tol,
            mc.jobs,
            mc.worst * 100.0
        ),
    );
    r.named("served_mc_max_deviation_pct", mc.worst * 100.0, "%");
}

/// What the served fast-MC jobs of some phases report about
/// themselves (`summary.fast`).
#[derive(Default)]
struct ServedMc {
    jobs: usize,
    /// `dies_derived + dies_full == samples` on every job.
    accounted: bool,
    /// Largest realized fast-vs-exact deviation of the probed dies.
    worst: f64,
    /// Jobs whose deviation is not finite and below their tolerance.
    over_tol: usize,
    dies_derived: f64,
    dies_full: f64,
    entries: f64,
    entry_fallbacks: f64,
}

fn served_mc<'p>(phases: impl IntoIterator<Item = &'p Phase>) -> ServedMc {
    let mut mc = ServedMc { accounted: true, ..Default::default() };
    for v in phases.into_iter().flat_map(|p| &p.logs).flat_map(|l| &l.mc_results) {
        let fast = field(v, "summary").and_then(|s| field(s, "fast"));
        let diag =
            |name: &str| num(fast.and_then(|f| field(f, "diag")).and_then(|d| field(d, name)));
        mc.jobs += 1;
        mc.accounted &= diag("dies_derived") + diag("dies_full") == MC_JOB_SAMPLES as f64;
        mc.dies_derived += diag("dies_derived");
        mc.dies_full += diag("dies_full");
        mc.entries += diag("entries_derived") + diag("entries_fallback");
        mc.entry_fallbacks += diag("entries_fallback");
        let dev = number(fast.and_then(|f| field(f, "max_deviation"))).unwrap_or(f64::NAN);
        let tol = num(fast.and_then(|f| field(f, "tol")));
        mc.worst = mc.worst.max(dev);
        mc.over_tol += usize::from(!(dev.is_finite() && dev < tol));
    }
    mc
}

fn traced_layers(ctx: &Ctx, r: &mut Report, plain: &Phase, traced: &Phase) {
    let d = &traced.global;
    common_layers(r, d);
    // MC jobs add arithmetically reconstructed blocks (two arms per die
    // on the fast path); the rest were counted at the call.
    let mc_jobs = traced.ops().filter(|o| o.ok && o.kind == Kind::McJob).count();
    let reconstructed = (mc_jobs * 2 * MC_JOB_SAMPLES * MC_JOB_VECTORS.div_ceil(64)) as f64;
    r.layer("core.blocks", d.get("nanoleak_block_blocks_total") - reconstructed);
    r.layer("core.blocks_reconstructed", reconstructed);
    r.layer("core.tail_lane_waste", d.get("nanoleak_block_tail_lane_waste_total"));
    r.layer("core.block_kernel_s", d.sum("nanoleak_block_kernel_seconds"));
    r.layer("engine.sweep_shard_s", d.sum("nanoleak_sweep_shard_seconds"));
    mc_layers(r, d);
    let mc = served_mc([traced]);
    r.layer("variation.dies_derived", mc.dies_derived);
    r.layer("variation.dies_full", mc.dies_full);
    r.layer("variation.max_deviation_pct", mc.worst * 100.0);
    r.layer("cells.entry_fallbacks", mc.entry_fallbacks);
    r.layer("cells.entry_fallback_ratio", ratio(mc.entry_fallbacks, mc.entries));
    r.layer("opt.run_s", d.sum("nanoleak_opt_run_seconds"));
    r.layer("opt.candidates", d.get("nanoleak_opt_candidates_total"));

    let exchanges: u64 = traced.logs.iter().map(|l| l.exchanges).sum();
    let exchange_s: f64 = traced.logs.iter().map(|l| l.exchange_s).sum();
    let handle_s = traced.handle.sum;
    r.layer("server.handle_ms", ratio(handle_s, traced.handle.count() as f64) * 1e3);
    r.layer("server.transport_ms", ratio(exchange_s - handle_s, exchanges as f64) * 1e3);
    r.layer("server.queue_wait_s", traced.jobs.mean("nanoleak_job_queue_wait_seconds"));
    r.layer("server.job_s", traced.jobs.mean("nanoleak_job_seconds"));
    r.layer("server.shed", traced.shed as f64);
    r.layer("server.protocol_errors", traced.protocol_errors as f64);
    r.layer("client.reconnects", traced.logs.iter().map(|l| l.reconnects).sum::<u64>() as f64);
    r.layer("trace_overhead_pct", (plain.throughput() / traced.throughput() - 1.0) * 100.0);

    // Self times of the client threads' time, per client (so they add
    // up to the phase's wall time). Netlist builds are charged at the
    // benchmark-timed per-target cost; `/v1/estimate` reports its
    // whole analysis call in `elapsed_ms`, `/v1/mlv` only its search.
    let clients = ctx.threads as f64;
    let builds: Vec<(&str, f64)> = TARGETS.iter().map(|&t| (t, build_ms(t) / 1e3)).collect();
    let build_s = |t: &str| builds.iter().find(|(n, _)| *n == t).map_or(0.0, |(_, s)| *s);
    let (mut est_api, mut est_net, mut mlv_api, mut mlv_net) = (0.0, 0.0, 0.0, 0.0);
    for op in traced.ops().filter(|o| o.ok) {
        match op.kind {
            Kind::Estimate => {
                est_api += op.api_ms / 1e3;
                est_net += build_s(op.target);
            }
            Kind::Mlv => {
                mlv_api += op.api_ms / 1e3;
                mlv_net += build_s(op.target);
            }
            _ => {}
        }
    }
    let poll_pause: f64 = traced.logs.iter().map(|l| l.poll_pause_s).sum();
    rows(
        r,
        traced.wall,
        &[
            ("row.transport_s", (exchange_s - handle_s) / clients),
            ("row.server_s", (handle_s - est_api - mlv_api - mlv_net) / clients),
            ("row.netlist_s", (est_net + mlv_net) / clients),
            ("row.engine_s", (est_api - est_net + mlv_api) / clients),
            ("row.client_s", poll_pause / clients),
        ],
    );
    r.notes.push(format!(
        "rows split client-thread time / {clients} clients: transport = client latency minus \
         server handle time (nanoleak_server_request_seconds) over {exchanges} exchanges; \
         server = handle minus the analysis calls; engine = endpoint-reported analysis time \
         minus netlist builds; netlist = benchmark-timed build per target x requests; client = \
         pauses between job polls; jobs execute on server workers while clients poll"
    ));
    r.notes.push(
        "core.blocks excludes the fast-MC jobs' blocks, which the engine reconstructs \
         arithmetically (core.blocks_reconstructed)"
            .into(),
    );
}
