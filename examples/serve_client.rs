//! Drive the `nanoleak-serve` HTTP API as a client: submit a
//! temperature × Vdd condition-grid job and print the resulting
//! leakage matrix, stream a sharded sweep job and page its per-shard
//! partials as they land, then run a circuit-level Monte-Carlo job
//! and page its distribution partials the same way.
//!
//! Starts a service instance in-process on an ephemeral port (exactly
//! what `nanoleak-cli serve` runs), then talks to it over plain TCP —
//! the same bytes an external client would send:
//!
//! ```sh
//! cargo run --release --example serve_client
//! ```
//!
//! The grid is the paper's operating-space question at batch scale
//! (cf. Sultan et al., *Is Leakage Power a Linear Function of
//! Temperature?*): every (temperature, Vdd) cell characterizes the
//! scaled technology through the server's shared in-RAM cache and
//! runs one deterministic 64-vector sweep.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use nanoleak_serve::{ServeConfig, Server};
use rand::{RngCore, SeedableRng};
use serde::{json, Deserialize as _, Value};

/// One HTTP/1.1 exchange; returns `(status, retry_after, body)`.
fn http_full(
    addr: std::net::SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> (u16, Option<u64>, String) {
    let mut stream = TcpStream::connect(addr).expect("connect to server");
    // Head and body in one write, no Nagle delay: a split write
    // would wait on the server's delayed ACK.
    stream.set_nodelay(true).expect("set nodelay");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: client\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").unwrap_or((raw.as_str(), ""));
    let status: u16 = head.split_whitespace().nth(1).and_then(|s| s.parse().ok()).unwrap_or(0);
    let retry_after = head
        .lines()
        .filter_map(|l| l.split_once(':'))
        .find(|(n, _)| n.eq_ignore_ascii_case("retry-after"))
        .and_then(|(_, v)| v.trim().parse().ok());
    (status, retry_after, body.to_string())
}

/// One HTTP/1.1 exchange; returns the response body.
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> String {
    http_full(addr, method, path, body).2
}

/// Submits a job, honoring the server's admission control: a 503/429
/// shed is retried after the `Retry-After` hint (floored by a capped
/// exponential backoff, jittered so a shed fleet doesn't reconverge
/// on the same instant). This is the client half of the overload
/// contract — the server promises a useful hint, the client promises
/// to actually back off.
fn submit_job(addr: std::net::SocketAddr, job: &str) -> Value {
    let mut rng = rand::rngs::StdRng::seed_from_u64(std::process::id() as u64);
    let mut backoff = Duration::from_millis(250);
    const BACKOFF_CAP: Duration = Duration::from_secs(30);
    const ATTEMPTS: u32 = 8;
    for attempt in 1..=ATTEMPTS {
        let (status, retry_after, body) = http_full(addr, "POST", "/v1/jobs", job);
        match status {
            202 => return json::value_from_str(&body).expect("submit JSON"),
            503 | 429 => {
                let hinted = retry_after.map(Duration::from_secs).unwrap_or(backoff);
                // Jitter: 50%..150% of the wait, so callers shed
                // together don't retry together.
                let wait = hinted.max(backoff).mul_f64(0.5 + (rng.next_u64() % 1000) as f64 / 1e3);
                println!(
                    "  server shed the job ({status}, retry in {:.1} s, attempt {attempt}/{ATTEMPTS})",
                    wait.as_secs_f64()
                );
                std::thread::sleep(wait);
                backoff = (backoff * 2).min(BACKOFF_CAP);
            }
            other => panic!("submit failed with {other}: {body}"),
        }
    }
    panic!("server still shedding after {ATTEMPTS} attempts");
}

fn get<'v>(v: &'v Value, name: &str) -> &'v Value {
    let Value::Record(fields) = v else { panic!("expected object, got {v:?}") };
    &fields.iter().find(|(n, _)| n == name).unwrap_or_else(|| panic!("no '{name}'")).1
}

fn main() {
    // A resident service with two job workers, RAM cache only.
    let server = Server::bind(&ServeConfig {
        addr: "127.0.0.1:0".into(),
        threads: 2,
        disk_cache: false,
        ..Default::default()
    })
    .expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = server.shutdown_handle();
    let host = std::thread::spawn(move || server.run());
    println!("nanoleak-serve on http://{addr}\n");

    // Submit the condition grid: 4 temperatures × 3 supply scalings.
    let job = r#"{
        "type": "grid", "target": "s1196", "vectors": 64, "seed": 2005, "coarse": true,
        "temps": [300, 325, 350, 375], "vdd_scales": [0.8, 0.9, 1.0]
    }"#;
    let resp = submit_job(addr, job);
    let Value::Int(id) = get(&resp, "id") else { panic!("no job id: {resp:?}") };
    println!("submitted grid job #{id} (s1196, 4 temps x 3 Vdd scales, 64 vectors/cell)");

    // Poll until done.
    let result = loop {
        let body = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let status = json::value_from_str(&body).expect("status JSON");
        let Value::Str(state) = get(&status, "status") else { panic!("bad status: {body}") };
        match state.as_str() {
            "done" => break get(&status, "result").clone(),
            "failed" => panic!("job failed: {body}"),
            _ => {
                print!(".");
                std::io::stdout().flush().ok();
                std::thread::sleep(Duration::from_millis(250));
            }
        }
    };
    println!("\n");

    // Print the matrix: rows = temperature, columns = Vdd. Column
    // voltages come from the result cells themselves (each GridCell
    // carries the supply it actually ran at).
    let temps: Vec<f64> = Vec::from_value(get(&result, "temps")).expect("temps");
    let scales: Vec<f64> = Vec::from_value(get(&result, "vdd_scales")).expect("scales");
    let matrix: Vec<Vec<f64>> = Vec::from_value(get(&result, "mean_total_a")).expect("matrix");
    let Value::Seq(cells) = get(&result, "cells") else { panic!("cells missing") };
    let vdds: Vec<f64> = cells[..scales.len()]
        .iter()
        .map(|c| f64::from_value(get(c, "vdd")).expect("vdd"))
        .collect();
    println!("mean total leakage [uA] over the operating grid:");
    print!("  {:>8}", "T \\ Vdd");
    for vdd in &vdds {
        print!(" {vdd:>10.2} V");
    }
    println!();
    for (ti, row) in matrix.iter().enumerate() {
        print!("  {:>6.0} K", temps[ti]);
        for x in row {
            print!(" {:>12.4}", x * 1e6);
        }
        println!();
    }

    // Show what the resident cache did for the 12-cell fan-out.
    let stats = json::value_from_str(&http(addr, "GET", "/v1/stats", "")).expect("stats JSON");
    let cache = get(&stats, "cache");
    let int = |v: &Value| i64::from_value(v).expect("counter");
    println!(
        "\ncache: {} characterizations, {} RAM hits over the job",
        int(get(cache, "characterizations")),
        int(get(cache, "memory_hits"))
    );

    // Second act: a sharded sweep. 512 vectors in shards of 128 —
    // the same protocol that pages a 10^6-vector sweep without one
    // giant response body. Partials are polled as the job runs.
    let job = r#"{
        "type": "sweep", "target": "s1196", "vectors": 512, "seed": 2005,
        "shard_vectors": 128, "coarse": true
    }"#;
    let resp = submit_job(addr, job);
    let Value::Int(id) = get(&resp, "id") else { panic!("no job id: {resp:?}") };
    println!("\nsubmitted sharded sweep job #{id} (s1196, 512 vectors, 4 shards of 128)");

    // Page each shard in order; a 202 means "not computed yet".
    let mut shard = 0usize;
    let mut shard_means = Vec::new();
    while shard < 4 {
        let body = http(addr, "GET", &format!("/v1/jobs/{id}/result?shard={shard}"), "");
        let page = json::value_from_str(&body).expect("shard page JSON");
        let Value::Record(fields) = &page else { panic!("bad page: {body}") };
        if fields.iter().any(|(n, _)| n == "partial") {
            let partial = get(&page, "partial");
            let mean = f64::from_value(get(get(get(partial, "stats"), "total"), "mean"))
                .expect("shard mean");
            println!(
                "  shard {shard}: vectors {}..{} mean {:.4} uA",
                int(get(partial, "start")),
                int(get(partial, "start")) + int(get(partial, "vectors")),
                mean * 1e6
            );
            shard_means.push(mean);
            shard += 1;
        } else {
            std::thread::sleep(Duration::from_millis(100));
        }
    }

    // The merged result is bit-identical to a monolithic sweep of the
    // same seed — sharding is a transport detail, not a math change.
    let body = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    let merged = json::value_from_str(&body).expect("result JSON");
    let stats = get(get(&merged, "result"), "stats");
    let mean = f64::from_value(get(get(stats, "total"), "mean")).expect("mean");
    println!("  merged: 512 vectors mean {:.4} uA (bit-exact vs monolithic)", mean * 1e6);

    // Third act: circuit-level Monte-Carlo variation (the paper's
    // Section 5.3 at circuit scale). Each sample is a perturbed die —
    // characterized through the server's memo cache — so shards stream
    // distribution partials through the same paging protocol.
    let job = r#"{
        "type": "mc", "target": "s838", "samples": 8, "seed": 2005, "sigma_vt": 0.05,
        "shard_samples": 4, "coarse": true
    }"#;
    let resp = submit_job(addr, job);
    let Value::Int(id) = get(&resp, "id") else { panic!("no job id: {resp:?}") };
    println!("\nsubmitted MC job #{id} (s838, 8 perturbed dies, sigma_vt 50 mV, 2 shards)");

    let mut shard = 0usize;
    while shard < 2 {
        let body = http(addr, "GET", &format!("/v1/jobs/{id}/result?shard={shard}"), "");
        let page = json::value_from_str(&body).expect("shard page JSON");
        let Value::Record(fields) = &page else { panic!("bad page: {body}") };
        if fields.iter().any(|(n, _)| n == "partial") {
            let summary = get(get(&page, "partial"), "summary");
            let loaded = f64::from_value(get(get(get(summary, "loaded"), "total"), "mean"))
                .expect("loaded mean");
            let unloaded = f64::from_value(get(get(get(summary, "unloaded"), "total"), "mean"))
                .expect("unloaded mean");
            println!(
                "  shard {shard}: loaded mean {:.4} uA vs unloaded {:.4} uA",
                loaded * 1e6,
                unloaded * 1e6
            );
            shard += 1;
        } else {
            std::thread::sleep(Duration::from_millis(200));
        }
    }

    // Shard partials stream before the job finishes — the fast MC
    // path still runs its deviation probe after the last shard — so
    // wait for "done" before asking for the merged result.
    loop {
        let body = http(addr, "GET", &format!("/v1/jobs/{id}"), "");
        let status = json::value_from_str(&body).expect("status JSON");
        let Value::Str(state) = get(&status, "status") else { panic!("bad status: {body}") };
        match state.as_str() {
            "done" => break,
            "failed" => panic!("mc job failed: {body}"),
            _ => std::thread::sleep(Duration::from_millis(100)),
        }
    }
    let body = http(addr, "GET", &format!("/v1/jobs/{id}/result"), "");
    let merged = json::value_from_str(&body).expect("result JSON");
    let summary = get(get(&merged, "result"), "summary");
    println!(
        "  merged: loading shifts the mean by {:+.2}% and the spread by {:+.2}% \
         (bit-exact vs in-process)",
        f64::from_value(get(summary, "mean_shift")).expect("mean_shift") * 100.0,
        f64::from_value(get(summary, "std_shift")).expect("std_shift") * 100.0,
    );

    // Where did the wall time go? `?debug=timings` on the job status
    // returns the per-stage breakdown aggregated from the span
    // capture the executor ran under (the full span tree is at
    // GET /v1/jobs/{id}/trace).
    let body = http(addr, "GET", &format!("/v1/jobs/{id}?debug=timings"), "");
    let status = json::value_from_str(&body).expect("timings JSON");
    let timings = get(&status, "timings");
    let ms = |name: &str| f64::from_value(get(timings, name)).expect(name);
    println!("\ntiming breakdown of MC job #{id} (?debug=timings):");
    for (label, key) in [
        ("queue wait", "queue_wait_ms"),
        ("characterize", "characterize_ms"),
        ("estimate", "estimate_ms"),
        ("merge", "merge_ms"),
        ("serialize", "serialize_ms"),
        ("total", "total_ms"),
    ] {
        println!("  {label:>12}: {:9.3} ms", ms(key));
    }

    shutdown.request();
    host.join().expect("server thread").expect("server run");
}
