//! End-to-end daemon tests over real sockets: boot a [`Server`] on an
//! ephemeral port, talk to it with the crate's own minimal client, and
//! check the streaming protocol, the store-backed endpoints, error
//! containment, concurrent clients, and graceful shutdown.

use rrb::campaign::{CampaignGrid, GridScenario};
use rrb::json::Json;
use rrb::spec::ExperimentSpec;
use rrb::store::ResultStore;
use rrb_serve::{client, ServeConfig, ServeStats, Server};
use rrb_sim::MachineConfig;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::thread::JoinHandle;

struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!("rrb-serve-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Daemon {
    addr: SocketAddr,
    store: Arc<ResultStore>,
    thread: JoinHandle<std::io::Result<ServeStats>>,
    _dir: TempDir,
}

impl Daemon {
    fn boot(tag: &str, workers: usize) -> Daemon {
        let dir = TempDir::new(tag);
        let store = Arc::new(ResultStore::open(dir.0.join("cache")).unwrap());
        let config =
            ServeConfig { addr: String::from("127.0.0.1:0"), workers, ..ServeConfig::default() };
        let server = Server::bind(config, Arc::clone(&store)).unwrap();
        let addr = server.local_addr().unwrap();
        let thread = std::thread::spawn(move || server.run());
        Daemon { addr, store, thread, _dir: dir }
    }

    /// Graceful shutdown via the endpoint, returning the final stats.
    fn shutdown(self) -> ServeStats {
        let resp = client::post(self.addr, "/v1/shutdown", "").unwrap();
        assert_eq!(resp.status, 200);
        self.thread.join().unwrap().unwrap()
    }
}

/// A small derive-grid spec (everything deduplicates through one plan).
fn small_spec() -> String {
    let grid = CampaignGrid::new(GridScenario::Derive, MachineConfig::toy(4, 2))
        .iterations(vec![40])
        .max_k(8);
    ExperimentSpec::from_grid("serve-test", &grid).to_text()
}

/// The parsed `stats` trailer line of a campaign stream.
fn stats_line(body: &str) -> Json {
    let line = body
        .lines()
        .find(|l| l.contains("\"type\":\"stats\""))
        .expect("campaign stream has a stats line");
    Json::parse(line).unwrap()
}

fn u64_field(v: &Json, key: &str) -> u64 {
    v.get(key).and_then(Json::as_u64).unwrap_or_else(|| panic!("no u64 `{key}` in {v:?}"))
}

/// Everything except the non-deterministic `stats` trailer.
fn deterministic_lines(body: &str) -> Vec<&str> {
    body.lines().filter(|l| !l.is_empty() && !l.contains("\"type\":\"stats\"")).collect()
}

#[test]
fn healthz_errors_and_unknown_routes() {
    let daemon = Daemon::boot("basic", 1);

    let ok = client::get(daemon.addr, "/healthz").unwrap();
    assert_eq!(ok.status, 200);
    assert_eq!(ok.body, "{\"status\":\"ok\"}");

    assert_eq!(client::get(daemon.addr, "/nope").unwrap().status, 404);
    assert_eq!(client::post(daemon.addr, "/healthz", "").unwrap().status, 405);
    assert_eq!(client::get(daemon.addr, "/v1/runs/zzz").unwrap().status, 400);
    assert_eq!(client::get(daemon.addr, "/v1/runs/0123456789abcdef").unwrap().status, 404);

    // Malformed and unrunnable specs are contained as status codes.
    assert_eq!(client::post(daemon.addr, "/v1/campaigns", "not json").unwrap().status, 422);
    let empty = "{\"version\":1,\"name\":\"x\",\"machine\":{},\"grid\":null,\"workloads\":[]}";
    let resp = client::post(daemon.addr, "/v1/campaigns", empty).unwrap();
    assert_eq!(resp.status, 422);
    assert!(resp.body.contains("error"));

    let stats = daemon.shutdown();
    assert_eq!(stats.campaigns, 0);
    assert_eq!(stats.runs_executed, 0);
}

#[test]
fn campaign_stream_cold_then_warm_and_point_queries() {
    let daemon = Daemon::boot("campaign", 2);
    let spec = small_spec();

    // Cold: every unique run simulates.
    let cold = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(cold.status, 200);
    let header = Json::parse(cold.lines()[0]).unwrap();
    assert_eq!(header.get("type").and_then(Json::as_str), Some("campaign"));
    let unique = u64_field(&header, "unique_runs");
    assert!(unique > 0);
    let cold_stats = stats_line(&cold.body);
    assert_eq!(u64_field(&cold_stats, "executed_runs"), unique);
    assert_eq!(u64_field(&cold_stats, "store_hits"), 0);

    // Warm: byte-identical records, zero simulations.
    let warm = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(warm.status, 200);
    assert_eq!(deterministic_lines(&cold.body), deterministic_lines(&warm.body));
    let warm_stats = stats_line(&warm.body);
    assert_eq!(u64_field(&warm_stats, "executed_runs"), 0);
    assert_eq!(u64_field(&warm_stats, "store_hits"), unique);

    // Every streamed run's content address answers a point query.
    let mut hashes: Vec<String> = cold
        .body
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| spec_hash_of(&v))
        .collect();
    hashes.sort();
    hashes.dedup();
    assert!(!hashes.is_empty());
    for hash in &hashes {
        let resp = client::get(daemon.addr, &format!("/v1/runs/{hash}")).unwrap();
        assert_eq!(resp.status, 200, "point query for {hash}: {}", resp.body);
        let v = Json::parse(&resp.body).unwrap();
        assert!(v.get("payload").and_then(|p| p.get("measurement")).is_some());
    }

    // The store stats endpoint sees the entries and the counters.
    let stats = client::get(daemon.addr, "/v1/store/stats").unwrap();
    assert_eq!(stats.status, 200);
    let v = Json::parse(&stats.body).unwrap();
    assert_eq!(u64_field(&v, "entries"), unique);
    let server = v.get("server").unwrap();
    assert_eq!(u64_field(server, "campaigns"), 2);

    // The static analyzer endpoint works on the same body.
    let analyzed = client::post(daemon.addr, "/v1/analyze", &spec).unwrap();
    assert_eq!(analyzed.status, 200);
    assert!(!Json::parse(&analyzed.body)
        .unwrap()
        .get("cells")
        .unwrap()
        .as_array()
        .unwrap()
        .is_empty());

    let final_stats = daemon.shutdown();
    assert_eq!(final_stats.campaigns, 2);
    assert_eq!(final_stats.runs_executed, unique);
    assert!(final_stats.point_queries >= hashes.len() as u64);
}

#[test]
fn point_query_body_is_the_rendered_payload_of_the_entry_file() {
    let daemon = Daemon::boot("body", 1);
    let cold = client::post(daemon.addr, "/v1/campaigns", &small_spec()).unwrap();
    assert_eq!(cold.status, 200);
    let hashes: Vec<String> = cold
        .body
        .lines()
        .filter(|l| l.contains("\"type\":\"run\""))
        .filter_map(|l| Json::parse(l).ok())
        .filter_map(|v| spec_hash_of(&v))
        .collect();
    assert!(!hashes.is_empty());
    for hash in &hashes {
        // The body as a tree render of the entry file's payload: the
        // daemon must answer with exactly these bytes.
        let file = daemon.store.dir().join("entries").join(format!("{hash}.json"));
        let entry = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
        let expected = Json::obj(vec![
            ("spec_hash", Json::str(hash.clone())),
            ("payload", entry.get("payload").unwrap().clone()),
        ])
        .render_compact();
        let resp = client::get(daemon.addr, &format!("/v1/runs/{hash}")).unwrap();
        assert_eq!(resp.status, 200, "point query for {hash}: {}", resp.body);
        assert_eq!(resp.body, expected, "point query body for {hash}");
    }
    daemon.shutdown();
}

fn spec_hash_of(v: &Json) -> Option<String> {
    v.get("spec_hash").and_then(Json::as_str).map(str::to_owned)
}

#[test]
fn concurrent_clients_agree_and_the_store_verifies_clean() {
    let daemon = Daemon::boot("concurrent", 2);
    let spec = small_spec();

    // N racing clients posting the same overlapping spec.
    let responses: Vec<client::Response> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let spec = spec.clone();
                let addr = daemon.addr;
                scope.spawn(move || client::post(addr, "/v1/campaigns", &spec).unwrap())
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let header = Json::parse(responses[0].lines()[0]).unwrap();
    let unique = u64_field(&header, "unique_runs");

    // Byte-identical per-run records (and scenario/summary lines) for
    // every client, regardless of interleaving.
    let reference = deterministic_lines(&responses[0].body);
    for resp in &responses {
        assert_eq!(resp.status, 200);
        assert_eq!(deterministic_lines(&resp.body), reference);
    }

    // No duplicate simulations beyond the benign race window: every
    // client saw each unique run exactly once (hit or simulated), and
    // the store ends up complete — a follow-up pass simulates nothing.
    for resp in &responses {
        let stats = stats_line(&resp.body);
        assert_eq!(u64_field(&stats, "executed_runs") + u64_field(&stats, "store_hits"), unique);
    }
    let warm = client::post(daemon.addr, "/v1/campaigns", &spec).unwrap();
    assert_eq!(u64_field(&stats_line(&warm.body), "executed_runs"), 0);

    // The racing writes left a verifiably clean store.
    let report = daemon.store.verify();
    assert!(report.problems.is_empty(), "store problems: {:?}", report.problems);
    assert_eq!(
        u64_field(
            &Json::parse(&client::get(daemon.addr, "/v1/store/stats").unwrap().body).unwrap(),
            "entries"
        ),
        unique
    );

    daemon.shutdown();
}

#[test]
fn draining_shutdown_finishes_the_campaign_in_flight() {
    let daemon = Daemon::boot("drain", 1);
    let spec = small_spec();
    let addr = daemon.addr;

    // Start a campaign, wait until the daemon has accepted it (the
    // campaigns counter ticks at the start of the handler), then
    // request shutdown; the drain must let it finish, not cut it off.
    let campaign = std::thread::spawn(move || client::post(addr, "/v1/campaigns", &spec).unwrap());
    for _ in 0..1000 {
        let stats = client::get(daemon.addr, "/v1/store/stats").unwrap();
        let v = Json::parse(&stats.body).unwrap();
        if u64_field(v.get("server").unwrap(), "campaigns") >= 1 {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
    let _ = client::post(daemon.addr, "/v1/shutdown", "");
    let resp = campaign.join().unwrap();
    assert_eq!(resp.status, 200);
    let stats = stats_line(&resp.body);
    let header = Json::parse(resp.lines()[0]).unwrap();
    assert_eq!(
        u64_field(&stats, "executed_runs") + u64_field(&stats, "store_hits"),
        u64_field(&header, "unique_runs")
    );
    let final_stats = daemon.thread.join().unwrap().unwrap();
    assert_eq!(final_stats.campaigns, 1);
}
