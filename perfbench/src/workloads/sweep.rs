//! `sweep_cold`: both specs planned and executed with no store, at one
//! job and at `min(2, nproc)` jobs. The simulator and executor do
//! nearly all the work; the store and the daemon do none.

use super::{measured_loop, record_campaign, traced_replay, Config};
use crate::inputs::Inputs;
use crate::pipeline::{campaign_pass, unique_runs, PassOutput};
use crate::report::Report;
use crate::stats::fastest;
use crate::trace::Tracer;
use rrb::store::ResultStore;
use std::time::Instant;

/// Worker threads for the parallel pass.
pub fn par_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get()).min(2)
}

/// One pass over both specs and its wall time.
pub fn timed_pass(
    inputs: &Inputs,
    jobs: usize,
    store: Option<&ResultStore>,
    tracer: &mut Tracer,
) -> (f64, PassOutput) {
    let start = Instant::now();
    let out = campaign_pass(inputs, jobs, store, tracer);
    (start.elapsed().as_secs_f64(), out)
}

/// Problems with `out`, including any difference from the reference
/// JSON of a jobs-1 pass with no store.
pub fn check_pass(out: &PassOutput, reference: &[String], what: &str) -> Vec<String> {
    let mut problems = out.problems.clone();
    if out.json != reference {
        problems.push(format!("{what}: campaign JSON differs from the jobs-1 no-store reference"));
    }
    problems
}

/// Runs the workload.
pub fn run(cfg: &Config, tracer: &mut Tracer) -> Report {
    let mut report = Report::default();
    let par = par_jobs();
    let replay_runs = if cfg.trace { unique_runs(&Inputs::generate(cfg.seed)) } else { Vec::new() };
    let mut serial = Vec::new();
    let mut parallel = Vec::new();
    let mut unique = 0;
    let run = measured_loop(
        cfg,
        tracer,
        &mut report,
        |_, _| {
            let inputs = Inputs::generate(cfg.seed);
            let (_, warm) = timed_pass(&inputs, 1, None, &mut Tracer::new(false));
            (inputs, warm.json)
        },
        |(inputs, reference), tracer, report| {
            let traced = tracer.enabled();
            let (t1, out1) = timed_pass(inputs, 1, None, tracer);
            let (t2, out2) = timed_pass(inputs, par, None, tracer);
            unique = out1.unique;
            for (out, what) in [(&out1, "jobs 1"), (&out2, "parallel jobs")] {
                report.pass(out.unique, out.errors, check_pass(out, reference, what));
            }
            if traced {
                record_campaign(report, &out1);
                traced_replay(&replay_runs, tracer, report);
            } else {
                serial.push(t1);
                parallel.push(t2);
            }
            t1 + t2
        },
    );
    report.layers.insert("trace.overhead", run.overhead);
    let runs = unique as f64;
    let (p1, p2) = (fastest(&serial), fastest(&parallel));
    report.end_to_end(run.setup_s, runs / p1, runs / p2, p1);
    report.named("runs_per_s", runs / p1, "1/s");
    report.named(format!("runs_per_s_par (jobs {par})"), runs / p2, "1/s");
    report.latency_summary("pass", &serial);
    report
}
