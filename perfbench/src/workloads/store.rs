//! `store_roundtrip`: both specs answered from a `ResultStore`. Set-up
//! opens a store in the run's scratch directory; the first set-up fills
//! it with one cold pass, which simulates and inserts every run, and
//! every later one finds it full, as a second invocation over a kept
//! store does. Each timed unit is one warm pass, which answers every
//! run from the store, and one `entry_payload` point read of every
//! stored run. Traced units also run a cold pass into a fresh store,
//! for the write path's spans, and serve that store through an
//! `rrb-serve` daemon, so the serve layer is measured here (see
//! [`serve::probe_store`]).
//!
//! Untraced runs write one store and nothing while they are timed:
//! writing a store per cycle or per set-up left the file system writing
//! back thousands of entries behind the timed work, which slowed later
//! set-ups up to twofold and whole runs by up to a quarter.

use super::serve::{self, ServeTally};
use super::sweep::{check_pass, timed_pass};
use super::{measured_loop, record_campaign, traced_replay, Config};
use crate::inputs::{Inputs, Rng};
use crate::pipeline::{unique_runs, PassOutput};
use crate::report::Report;
use crate::stats::fastest;
use crate::trace::Tracer;
use rrb::campaign::RunSpec;
use rrb::store::ResultStore;
use std::path::Path;
use std::time::Instant;

/// Problems with a pass over a store: any check of [`check_pass`], plus
/// store activity other than a cold pass's (no hits, every run written)
/// or a warm pass's (every run a hit).
fn check_store_pass(out: &PassOutput, reference: &[String], cold: bool) -> Vec<String> {
    let what = if cold { "cold pass" } else { "warm pass" };
    let mut problems = check_pass(out, reference, what);
    let (hits, writes) = if cold { (0, out.unique) } else { (out.unique, 0) };
    if out.hits != hits || out.writes != writes {
        problems.push(format!(
            "{what}: {} hits and {} writes for {} runs",
            out.hits, out.writes, out.unique
        ));
    }
    problems
}

/// A fresh store at `dir` filled by one traced cold pass, with the
/// pass's output; failures are recorded in `report`.
fn fill_fresh(
    dir: &Path,
    inputs: &Inputs,
    reference: &[String],
    tracer: &mut Tracer,
    report: &mut Report,
) -> Option<(ResultStore, PassOutput)> {
    let _ = std::fs::remove_dir_all(dir);
    let store = match tracer.span("store.open", || ResultStore::open(dir)) {
        Ok(store) => store,
        Err(e) => {
            report.pass(1, 1, vec![format!("cannot open a fresh store: {e}")]);
            return None;
        }
    };
    let (_, out) = timed_pass(inputs, 1, Some(&store), tracer);
    report.pass(out.unique, out.errors, check_store_pass(&out, reference, true));
    Some((store, out))
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let dir = cfg.work_dir.join("store");
    let replay_runs = unique_runs(&Inputs::generate(cfg.seed));
    let mut hashes: Vec<u64> = replay_runs.iter().map(RunSpec::spec_hash).collect();
    Rng::new(cfg.seed, 3).shuffle(&mut hashes);
    let mut cold_s = 0.0;
    let mut payload = Vec::new();
    let mut serve_tally = ServeTally::default();
    let mut warm = Vec::new();
    let mut unique = 0;
    let mut traced_units = 0;
    let run = measured_loop(
        cfg,
        tracer,
        &mut report,
        |rep, report| {
            let inputs = Inputs::generate(cfg.seed);
            let mut quiet = Tracer::new(false);
            let (_, reference) = timed_pass(&inputs, 1, None, &mut quiet);
            // Opening pays the simulator-fingerprint probe once per process.
            let store = match ResultStore::open(&dir) {
                Ok(store) => store,
                Err(e) => {
                    report.pass(1, 1, vec![format!("cannot open the store: {e}")]);
                    return (inputs, reference.json, None);
                }
            };
            let (t, out) = timed_pass(&inputs, 1, Some(&store), &mut quiet);
            if rep == 0 {
                cold_s = t;
            }
            report.pass(out.unique, out.errors, check_store_pass(&out, &reference.json, rep == 0));
            (inputs, reference.json, Some(store))
        },
        |(inputs, reference, store), tracer, report| {
            let Some(store) = store else {
                return 0.0;
            };
            let traced = tracer.enabled();
            let fresh = if traced {
                traced_units += 1;
                let dir = cfg.work_dir.join(format!("traced-{traced_units}"));
                fill_fresh(&dir, inputs, reference, tracer, report)
            } else {
                None
            };
            let (t_warm, out) = timed_pass(inputs, 1, Some(store), tracer);
            unique = out.unique;
            report.pass(out.unique, out.errors, check_store_pass(&out, reference, false));
            // Point reads through `entry_payload`, the daemon's
            // `GET /v1/runs/{hash}` backend, of every stored run in seeded order.
            let start = Instant::now();
            let missing = hashes
                .iter()
                .filter(|&&hash| {
                    !matches!(
                        tracer.span("store.payload", || store.entry_payload(hash)),
                        Ok(Some(_))
                    )
                })
                .count() as u64;
            let t_payload = start.elapsed().as_secs_f64();
            let problems = if missing > 0 {
                vec![format!("{missing} stored runs have no valid payload")]
            } else {
                Vec::new()
            };
            report.pass(hashes.len() as u64, missing, problems);
            if let Some((fresh, cold_out)) = fresh {
                record_campaign(report, &cold_out);
                let stats = tracer.span("store.stats", || fresh.stats());
                for (name, value) in [
                    ("store.lookups", cold_out.unique + out.unique),
                    ("store.hits", cold_out.hits + out.hits),
                    ("store.inserts", cold_out.writes),
                    ("store.entry_bytes", stats.bytes),
                ] {
                    report.layers.insert(name, value as f64);
                }
                *report.layers.entry("store.rejected").or_default() +=
                    (cold_out.rejected + out.rejected) as f64;
                traced_replay(&replay_runs, tracer, report);
                let dir = fresh.dir().to_path_buf();
                drop(fresh);
                serve::probe_store(&dir, &inputs.ngmp, cfg.seed, tracer, report, &mut serve_tally);
            } else if !traced {
                warm.push(t_warm);
                payload.push(t_payload);
            }
            t_warm + t_payload
        },
    );
    report.layers.insert("trace.overhead", run.overhead);
    if cfg.trace {
        serve_tally.record(&mut report);
    }
    let runs = unique as f64;
    let (w, p) = (fastest(&warm), fastest(&payload));
    report.end_to_end(run.setup_s, runs / w, hashes.len() as f64 / p, w);
    report.named("warm_runs_per_s", runs / w, "1/s");
    report.named("payload_reads_per_s", hashes.len() as f64 / p, "1/s");
    report.named("cold_runs_per_s (first set-up)", runs / cold_s, "1/s");
    report.latency_summary("warm_pass", &warm);
    report
}
