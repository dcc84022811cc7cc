//! Bounded model-checking sweep: exact worst-case delays and tightness
//! certificates for every arbiter the workspace implements, on both the
//! single-bus and the two-level topology.
//!
//! For each cell the checker enumerates request-arrival alignments
//! (with per-arbiter symmetry pruning) against the real arbiter
//! implementations and reports the *exact* worst-case per-request
//! delay, the tightness certificate `exact / static`, and the
//! exploration statistics. The gate pins the invariants that make the
//! static analyzer trustworthy: every cell is explored, every exact
//! bound is finite, and no exact bound ever exceeds its static bound.
//!
//! It also times the whole static, flow and exact bound ladder
//! (`analyze_spec` + `verify_spec`) over the checked-in specs
//! `examples/experiments/ngmp_sweep.json` and
//! `crates/bench/specs/ablation_arbiters.json`, and records
//! `ladder_cells_per_s` from the fastest of [`LADDER_PASSES`] passes.
//!
//! Artifact: `BENCH_verify.json`, gated by `bench_gate` via
//! `baselines/verify.json`.
//!
//! ```sh
//! cargo run --release -p rrb-bench --bin verify_sweep
//! ```

use rrb::campaign::{CampaignGrid, GridScenario};
use rrb::json::Json;
use rrb::spec::ExperimentSpec;
use rrb::statics::VerifyOptions;
use rrb::verify::{render_verified, verify_grid, verify_spec};
use rrb_sim::{ArbiterKind, MachineConfig, McQueueConfig};
use std::hint::black_box;
use std::time::Instant;

const MC_OCCUPANCY: u64 = 2;

/// The specs the bound-ladder timing runs over.
const LADDER_SPECS: [&str; 2] = [
    concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/experiments/ngmp_sweep.json"),
    concat!(env!("CARGO_MANIFEST_DIR"), "/specs/ablation_arbiters.json"),
];

/// Timed passes over the ladder specs. The analysis is deterministic, so
/// the fastest pass is the least-noisy estimate.
const LADDER_PASSES: usize = 20;

/// Cells per pass and cells per second of the fastest pass of
/// `analyze_spec` + `verify_spec` over [`LADDER_SPECS`].
fn ladder_rate() -> (u64, f64) {
    let specs: Vec<ExperimentSpec> = LADDER_SPECS
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{path}: {e}"));
            ExperimentSpec::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
        })
        .collect();
    let mut cells = 0;
    let mut fastest = f64::INFINITY;
    for _ in 0..LADDER_PASSES {
        let start = Instant::now();
        cells = 0;
        for spec in &specs {
            black_box(rrb::analyze_spec(spec));
            cells += black_box(verify_spec(spec, &VerifyOptions::default())).len() as u64;
        }
        fastest = fastest.min(start.elapsed().as_secs_f64());
    }
    (cells, cells as f64 / fastest)
}

fn base(two_level: bool) -> MachineConfig {
    let mut cfg = MachineConfig::toy(4, 2);
    if two_level {
        cfg.topology.mc =
            Some(McQueueConfig { service_occupancy: MC_OCCUPANCY, arbiter: ArbiterKind::Fifo });
    }
    cfg
}

fn main() {
    let arbiters = vec![
        ArbiterKind::RoundRobin,
        ArbiterKind::FixedPriority,
        ArbiterKind::Fifo,
        ArbiterKind::Tdma { slot_cycles: 6 },
        ArbiterKind::GroupedRoundRobin { group_size: 2 },
    ];
    println!(
        "bounded model-checking sweep on the toy machine (Nc = 4, l_bus = 2, l_mc = {MC_OCCUPANCY}):\n"
    );

    let mut rows = Vec::new();
    let mut violations = 0usize;
    let mut unbounded = 0usize;
    let mut unexplored = 0usize;
    let mut explored = 0u64;
    let mut pruned = 0u64;
    for two_level in [false, true] {
        let grid = CampaignGrid::new(GridScenario::Derive, base(two_level))
            .arbiters(arbiters.clone())
            .iterations(vec![80])
            .max_k(16);
        let verified = verify_grid(&grid, &VerifyOptions::default());
        print!("{}", render_verified(&verified));
        println!();
        for cell in verified {
            violations += usize::from(!cell.violations().is_empty());
            unbounded += usize::from(cell.exact_total().is_none());
            unexplored += usize::from(cell.explored() == 0);
            explored += cell.explored();
            pruned += cell.pruned();
            rows.push(cell.to_json());
        }
    }

    let (ladder_cells, ladder_cells_per_s) = ladder_rate();
    println!(
        "bound ladder over the checked-in specs: {ladder_cells} cells, \
         {ladder_cells_per_s:.0} cells/s (fastest of {LADDER_PASSES} passes)"
    );

    let artifact = Json::obj(vec![
        ("bench", Json::str("verify_sweep")),
        ("mc_service_occupancy", Json::U64(MC_OCCUPANCY)),
        ("cells", Json::U64(rows.len() as u64)),
        ("unbounded", Json::U64(unbounded as u64)),
        ("unexplored", Json::U64(unexplored as u64)),
        ("soundness_violations", Json::U64(violations as u64)),
        ("all_explored", Json::Bool(unexplored == 0)),
        ("all_sound", Json::Bool(violations == 0)),
        ("alignments_explored", Json::U64(explored)),
        ("alignments_pruned", Json::U64(pruned)),
        ("ladder_cells", Json::U64(ladder_cells)),
        ("ladder_cells_per_s", Json::F64(ladder_cells_per_s)),
        ("rows", Json::Arr(rows)),
    ]);
    let path = "BENCH_verify.json";
    match std::fs::write(path, artifact.render_pretty()) {
        Ok(()) => println!("wrote {path}"),
        Err(e) => eprintln!("failed to write {path}: {e}"),
    }
}
