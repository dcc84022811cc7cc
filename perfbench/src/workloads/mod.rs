//! The workloads and the timing loop they share.
//!
//! Every workload is a closed loop driven from one thread: the next
//! unit of work starts only when the previous one has finished. A run
//! sets up once, then repeats its unit of work until `--seconds` have
//! passed, setting up again between units until it has set up
//! [`SETUP_REPS`] times, spread evenly over the run; the median set-up
//! time is `setup_s`. With `--trace 1` it alternates untraced and
//! traced units: the untraced ones give the reference for
//! `trace.overhead`, the traced ones record the spans the per-layer
//! metrics come from.

pub mod bounds;
pub mod serve;
pub mod store;
pub mod sweep;

use crate::pipeline::{sim_replay, PassOutput};
use crate::report::Report;
use crate::stats::median;
use crate::trace::Tracer;
use rrb::campaign::RunSpec;
use std::path::PathBuf;
use std::time::Instant;

/// A workload: runs in this process and reports what it measured.
pub type Workload = fn(&Config, &mut Tracer) -> Report;

/// Every workload by the name `--workload` takes.
pub const WORKLOADS: [(&str, Workload); 4] = [
    ("sweep_cold", sweep::run),
    ("store_roundtrip", store::run),
    ("serve_query", serve::run),
    ("bounds", bounds::run),
];

/// How often set-up runs in one process; its median is `setup_s`.
/// Set-ups run back to back covered a second or two of a host whose
/// speed changes every few seconds, so a run's median landed on the
/// fast or the slow level as a whole; spread over the run, it follows
/// the share of each.
pub const SETUP_REPS: usize = 9;

/// Fewest units of each kind (untraced, traced) a run measures, however
/// long they take.
const MIN_UNITS: usize = 3;

/// One run's settings.
#[derive(Debug, Clone)]
pub struct Config {
    /// Input seed.
    pub seed: u64,
    /// How long the timed loop runs.
    pub seconds: f64,
    /// Whether to record spans.
    pub trace: bool,
    /// Scratch directory for stores, removed when the run ends.
    pub work_dir: PathBuf,
}

/// Records the campaign-layer counts of one traced pass.
pub fn record_campaign(report: &mut Report, out: &PassOutput) {
    for (name, value) in [
        ("campaign.unique_runs", out.unique),
        ("campaign.planned_runs", out.planned),
        ("executor.runs", out.unique - out.hits),
        ("campaign.output_bytes", out.json.iter().map(String::len).sum::<usize>() as u64),
    ] {
        report.layers.insert(name, value as f64);
    }
    *report.layers.entry("executor.failed_runs").or_default() += out.errors as f64;
}

/// Replays `runs` on the simulator, records the exact counts, and fails
/// the check when they differ from an earlier replay of the same runs.
pub fn traced_replay(runs: &[RunSpec], tracer: &mut Tracer, report: &mut Report) {
    let counts = sim_replay(runs, tracer);
    let mut problems = Vec::new();
    for (name, value) in [
        ("sim.simulated_cycles", counts.simulated_cycles),
        ("sim.stepped_cycles", counts.stepped_cycles),
        ("sim.instructions", counts.instructions),
    ] {
        let value = value as f64;
        if report.layers.insert(name, value).is_some_and(|earlier| earlier != value) {
            problems.push(format!("{name} differs between replays of the same runs"));
        }
    }
    report.pass(runs.len() as u64, counts.errors, problems);
}

/// What [`measured_loop`] measured.
pub struct Measured<S> {
    /// Median set-up wall time.
    pub setup_s: f64,
    /// The first set-up's state, which every unit ran on.
    pub state: S,
    /// Traced over untraced median unit time, minus one; 0 when untraced.
    pub overhead: f64,
}

/// Sets up, then repeats `unit` until `cfg.seconds` have passed and both
/// kinds of unit ran at least [`MIN_UNITS`] times. Between units it sets
/// up again, dropping the new state, until [`SETUP_REPS`] set-ups have
/// run at even intervals over the run. `unit` returns its own comparable
/// wall time; the tracer is enabled, with a fresh trace id, for every
/// other unit when tracing.
pub fn measured_loop<S>(
    cfg: &Config,
    tracer: &mut Tracer,
    report: &mut Report,
    mut setup: impl FnMut(usize, &mut Report) -> S,
    mut unit: impl FnMut(&S, &mut Tracer, &mut Report) -> f64,
) -> Measured<S> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut timed_setup = |setups: &mut Vec<f64>, report: &mut Report| {
        let start = Instant::now();
        let state = setup(setups.len(), report);
        setups.push(start.elapsed().as_secs_f64());
        state
    };
    let state = timed_setup(&mut setups, report);
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut traced = Vec::new();
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        if setups.len() < SETUP_REPS
            && elapsed * SETUP_REPS as f64 >= cfg.seconds * setups.len() as f64
        {
            drop(timed_setup(&mut setups, report));
            continue;
        }
        let trace_this = cfg.trace && untraced.len() > traced.len();
        tracer.set_enabled(trace_this);
        if trace_this {
            tracer.next_trace();
        }
        let pass = tracer.enter("pass");
        let t = unit(&state, tracer, report);
        tracer.exit(pass);
        tracer.set_enabled(false);
        if trace_this {
            traced.push(t)
        } else {
            untraced.push(t)
        }
        let enough = untraced.len() >= MIN_UNITS && (!cfg.trace || traced.len() >= MIN_UNITS);
        if enough && start.elapsed().as_secs_f64() >= cfg.seconds {
            break;
        }
    }
    while setups.len() < SETUP_REPS {
        drop(timed_setup(&mut setups, report));
    }
    let overhead = if cfg.trace { median(&traced) / median(&untraced) - 1.0 } else { 0.0 };
    Measured { setup_s: median(&setups), state, overhead }
}
