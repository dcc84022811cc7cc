//! `serve_query`: an in-process `rrb-serve` daemon on `127.0.0.1:0` with
//! its default worker count and a store seeded during set-up. One
//! client alternates a warm `POST /v1/campaigns` of the NGMP spec with
//! `GET /v1/runs/{hash}` for every streamed hash, in seeded order.
//!
//! The workload is not in `BENCHMARK.json` (its run-to-run spread on a
//! shared two-vCPU host exceeds any allowed bound; see the README), but
//! [`probe_store`] measures the same serve layer in traced
//! `store_roundtrip` units.

use super::{measured_loop, Config};
use crate::inputs::{Inputs, Rng};
use crate::report::Report;
use crate::stats::{fastest, median};
use crate::trace::Tracer;
use rrb::json::Json;
use rrb::store::ResultStore;
use rrb_serve::{client, ServeConfig, ServeStats, Server, ServerHandle};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Instant;

/// `/healthz` probes per traced unit.
const HEALTHZ_PROBES: usize = 20;

/// A running daemon, shut down and joined on [`Daemon::stop`] or drop.
struct Daemon {
    addr: SocketAddr,
    handle: ServerHandle,
    thread: Option<JoinHandle<std::io::Result<ServeStats>>>,
    store: Arc<ResultStore>,
}

impl Daemon {
    /// Opens (or reopens) the store at `dir` and serves it.
    fn start(dir: &Path) -> Result<Daemon, String> {
        let store = Arc::new(ResultStore::open(dir).map_err(|e| e.to_string())?);
        let config = ServeConfig { addr: String::from("127.0.0.1:0"), ..ServeConfig::default() };
        let server = Server::bind(config, Arc::clone(&store)).map_err(|e| e.to_string())?;
        let addr = server.local_addr().map_err(|e| e.to_string())?;
        let handle = server.handle();
        let thread = Some(std::thread::spawn(move || server.run()));
        Ok(Daemon { addr, handle, thread, store })
    }

    fn stop(&mut self) -> Option<ServeStats> {
        self.handle.shutdown();
        self.thread.take()?.join().ok()?.ok()
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A daemon whose store holds every run of the NGMP spec.
pub struct Seeded {
    daemon: Daemon,
    ngmp: String,
    /// Unique content addresses of the streamed runs, in seeded order.
    hashes: Vec<String>,
    /// The deterministic lines of the seeding campaign stream.
    reference: Vec<String>,
    /// Runs the daemon simulated while seeding.
    seeded_runs: u64,
}

/// What the serve layer saw over a run, beyond the spans.
#[derive(Debug, Default)]
pub struct ServeTally {
    bodies: HashMap<String, String>,
    non_200: u64,
    ttfb_ms: Vec<f64>,
    runs_executed: u64,
}

/// Every line of a campaign stream except the timing `stats` trailer.
fn deterministic_lines(body: &str) -> Vec<String> {
    body.lines()
        .filter(|l| !l.is_empty() && !l.contains("\"type\":\"stats\""))
        .map(String::from)
        .collect()
}

fn stats_field(body: &str, key: &str) -> Option<u64> {
    let line = body.lines().find(|l| l.contains("\"type\":\"stats\""))?;
    Json::parse(line).ok()?.get(key)?.as_u64()
}

fn campaign(addr: SocketAddr, spec: &str) -> Result<String, String> {
    match client::post(addr, "/v1/campaigns", spec) {
        Ok(r) if r.status == 200 => Ok(r.body),
        Ok(r) => Err(format!("campaign returned {}: {}", r.status, r.body)),
        Err(e) => Err(format!("campaign request failed: {e}")),
    }
}

/// Serves the store at `dir`, streams the NGMP spec once cold (which
/// simulates whatever the store lacks) and once warm (which must
/// simulate nothing), and orders the streamed hashes by `seed`.
pub fn seed_daemon(dir: &Path, ngmp: &str, seed: u64) -> Result<Seeded, String> {
    let daemon = Daemon::start(dir)?;
    let cold = campaign(daemon.addr, ngmp)?;
    let mut hashes: Vec<String> = Vec::new();
    for line in cold.lines().filter(|l| l.contains("\"type\":\"run\"")) {
        let hash = line.split("\"spec_hash\":\"").nth(1).and_then(|t| t.split('"').next());
        if let Some(hash) = hash.filter(|h| !hashes.iter().any(|seen| seen == h)) {
            hashes.push(hash.to_string());
        }
    }
    let warm = campaign(daemon.addr, ngmp)?;
    if stats_field(&warm, "executed_runs") != Some(0) {
        return Err(String::from("the warm seeding campaign simulated runs"));
    }
    Rng::new(seed, 2).shuffle(&mut hashes);
    Ok(Seeded {
        seeded_runs: stats_field(&cold, "executed_runs").unwrap_or(0),
        reference: deterministic_lines(&cold),
        daemon,
        ngmp: ngmp.to_string(),
        hashes,
    })
}

/// A campaign request over a raw socket: whether the status is 200, the
/// time from sending to the first response byte, and the bytes read.
fn raw_campaign(addr: SocketAddr, spec: &str) -> std::io::Result<(bool, f64, usize)> {
    let mut stream = TcpStream::connect(addr)?;
    let head = format!(
        "POST /v1/campaigns HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\nContent-Length: {}\r\n\r\n",
        spec.len()
    );
    let start = Instant::now();
    stream.write_all(head.as_bytes())?;
    stream.write_all(spec.as_bytes())?;
    let mut buf = vec![0u8; 1 << 16];
    let first = stream.read(&mut buf)?;
    let ttfb = start.elapsed().as_secs_f64();
    let ok = buf[..first].starts_with(b"HTTP/1.1 200");
    let mut total = first;
    loop {
        match stream.read(&mut buf)? {
            0 => break,
            n => total += n,
        }
    }
    Ok((ok && first > 0, ttfb, total))
}

/// One pass: a warm campaign stream, then a point query for every
/// hash. Returns the stream's wall time and each query's.
fn pass(
    s: &Seeded,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut ServeTally,
) -> (f64, Vec<f64>) {
    let start = Instant::now();
    let stream = tracer.span("serve.stream", || campaign(s.daemon.addr, &s.ngmp));
    let stream_s = start.elapsed().as_secs_f64();
    let mut problems = Vec::new();
    let mut errors = 0;
    match stream {
        Ok(body) if deterministic_lines(&body) == s.reference => {}
        Ok(_) => problems.push(String::from("campaign stream differs from the set-up stream")),
        Err(e) => {
            errors += 1;
            problems.push(e);
        }
    }
    let mut latencies = Vec::with_capacity(s.hashes.len());
    for hash in &s.hashes {
        let path = format!("/v1/runs/{hash}");
        let start = Instant::now();
        let resp = tracer.span("serve.query", || client::get(s.daemon.addr, &path));
        latencies.push(start.elapsed().as_secs_f64());
        match resp {
            Ok(r) if r.status == 200 => {
                let expected = tally.bodies.entry(hash.clone()).or_insert_with(|| r.body.clone());
                if *expected != r.body || !r.body.contains(hash.as_str()) {
                    problems.push(format!("point query {hash} answered differently"));
                }
            }
            Ok(r) => {
                errors += 1;
                tally.non_200 += 1;
                problems.push(format!("point query {hash} returned {}", r.status));
            }
            Err(e) => {
                errors += 1;
                problems.push(format!("point query {hash} failed: {e}"));
            }
        }
    }
    report.pass(1 + s.hashes.len() as u64, errors, problems);
    (stream_s, latencies)
}

/// The traced extras after a pass: `/healthz` probes and one campaign
/// over a raw socket for its first-byte time and size.
fn probe(s: &Seeded, tracer: &mut Tracer, report: &mut Report, tally: &mut ServeTally) {
    let mut errors = 0;
    for _ in 0..HEALTHZ_PROBES {
        if !matches!(tracer.span("serve.healthz", || client::get(s.daemon.addr, "/healthz")), Ok(r) if r.status == 200)
        {
            errors += 1;
            tally.non_200 += 1;
        }
    }
    match tracer.span("serve.stream_raw", || raw_campaign(s.daemon.addr, &s.ngmp)) {
        Ok((true, ttfb, bytes)) => {
            tally.ttfb_ms.push(ttfb * 1e3);
            report.layers.insert("serve.stream_bytes", bytes as f64);
        }
        Ok((false, ..)) | Err(_) => errors += 1,
    }
    let problems =
        if errors > 0 { vec![format!("{errors} probe requests failed")] } else { Vec::new() };
    report.pass(HEALTHZ_PROBES as u64 + 1, errors, problems);
    let requests = 1 + s.hashes.len() + HEALTHZ_PROBES + 1;
    report.layers.insert("serve.requests", requests as f64);
}

/// Stops the daemon and checks that it simulated nothing after set-up.
fn stop(mut s: Seeded, report: &mut Report, tally: &mut ServeTally) {
    match s.daemon.stop() {
        Some(stats) if stats.runs_executed == s.seeded_runs => {
            tally.runs_executed += stats.runs_executed
        }
        other => report.pass(
            1,
            1,
            vec![format!(
                "daemon simulated runs after set-up: {other:?} vs {} seeded",
                s.seeded_runs
            )],
        ),
    }
}

impl ServeTally {
    /// Records the serve layer's counters.
    pub fn record(&self, report: &mut Report) {
        report.layers.insert("serve.non_200", self.non_200 as f64);
        report.layers.insert("serve.stream_ttfb_ms", median(&self.ttfb_ms));
        report.layers.insert("serve.runs_executed", self.runs_executed as f64);
    }
}

/// Measures the serve layer once over the warm store at `dir`: a daemon,
/// one pass and the traced extras. `store_roundtrip` runs this after
/// each traced unit, so the serve layer is measured in a workload the
/// benchmark drives.
pub fn probe_store(
    dir: &Path,
    ngmp: &str,
    seed: u64,
    tracer: &mut Tracer,
    report: &mut Report,
    tally: &mut ServeTally,
) {
    match seed_daemon(dir, ngmp, seed) {
        Ok(s) => {
            pass(&s, tracer, report, tally);
            probe(&s, tracer, report, tally);
            stop(s, report, tally);
        }
        Err(e) => report.pass(1, 1, vec![format!("cannot serve the warm store: {e}")]),
    }
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let mut tally = ServeTally::default();
    let mut streams = Vec::new();
    let mut queries = Vec::new();
    let mut query_passes = Vec::new();
    let run = measured_loop(
        cfg,
        tracer,
        &mut report,
        |rep, report| {
            let inputs = Inputs::generate(cfg.seed);
            let dir = cfg.work_dir.join(format!("serve-{rep}"));
            let seeded = seed_daemon(&dir, &inputs.ngmp, cfg.seed);
            if let Err(e) = &seeded {
                report.pass(1, 1, vec![format!("set-up failed: {e}")]);
            }
            seeded.ok()
        },
        |s, tracer, report| {
            let Some(s) = s else {
                return 0.0;
            };
            let (stream_s, latencies) = pass(s, tracer, report, &mut tally);
            let query_pass_s = latencies.iter().sum::<f64>();
            if tracer.enabled() {
                probe(s, tracer, report, &mut tally);
                for hash in &s.hashes {
                    let found = u64::from_str_radix(hash, 16)
                        .ok()
                        .map(|h| tracer.span("store.payload", || s.daemon.store.entry_payload(h)));
                    if !matches!(found, Some(Ok(Some(_)))) {
                        report.pass(1, 1, vec![format!("no stored payload for {hash}")]);
                    }
                }
            } else {
                streams.push(stream_s);
                queries.extend_from_slice(&latencies);
                query_passes.push(query_pass_s);
            }
            stream_s + query_pass_s
        },
    );
    let Some(s) = run.state else {
        return report;
    };
    let runs = s.hashes.len() as f64;
    stop(s, &mut report, &mut tally);
    tally.record(&mut report);
    report.layers.insert("trace.overhead", run.overhead);
    let (stream_s, query_pass_s) = (fastest(&streams), fastest(&query_passes));
    report.end_to_end(run.setup_s, runs / stream_s, runs / query_pass_s, fastest(&queries));
    report.named("stream_s", stream_s, "s");
    report.named("queries_per_s", runs / query_pass_s, "1/s");
    report.latency_summary("query", &queries);
    report
}
