//! The campaign pipeline every simulating workload drives: parse, plan,
//! execute, finish, render — with spans around each call when tracing.

use crate::inputs::Inputs;
use crate::trace::Tracer;
use rrb::campaign::{CampaignResult, RunError, RunMeasurement, RunSpec, StoreUsage};
use rrb::executor::{Executor, MachineArena};
use rrb::sim::{CoreId, Machine};
use rrb::spec::ExperimentSpec;
use rrb::store::{ResultStore, StoreLookup};

/// What one pass over both specs produced.
#[derive(Debug, Default)]
pub struct PassOutput {
    /// Rendered campaign JSON, one per spec.
    pub json: Vec<String>,
    /// Runs planned before deduplication.
    pub planned: u64,
    /// Unique runs executed or answered.
    pub unique: u64,
    /// Runs that returned a `RunError` (or specs that failed to parse).
    pub errors: u64,
    /// Store activity, summed over both specs.
    pub hits: u64,
    /// Entries written.
    pub writes: u64,
    /// Entries that existed but were rejected.
    pub rejected: u64,
    /// Problems found by the pass's own output checks.
    pub problems: Vec<String>,
}

/// One pass over both specs at `jobs` worker threads, against `store`
/// when given.
///
/// Untraced, each spec's unique runs go through [`Executor::execute_with`]
/// exactly as `Campaign::run` drives them. Traced at one job, the pass
/// makes the same calls one run at a time — `ResultStore::lookup`, then
/// `MachineArena::execute`, then `ResultStore::insert`, in the order
/// `MachineArena::execute_stored` uses — so each gets its own span.
pub fn campaign_pass(
    inputs: &Inputs,
    jobs: usize,
    store: Option<&ResultStore>,
    tracer: &mut Tracer,
) -> PassOutput {
    let mut out = PassOutput::default();
    for text in inputs.specs() {
        let parse = tracer.enter("spec.parse");
        let parsed = ExperimentSpec::parse(text).map(|spec| (spec.to_campaign(jobs), spec.name));
        tracer.exit(parse);
        let (campaign, name) = match parsed {
            Ok(parsed) => parsed,
            Err(e) => {
                out.errors += 1;
                out.problems.push(format!("spec does not parse: {e}"));
                continue;
            }
        };
        let plan = tracer.span("campaign.plan", || campaign.plan());
        let specs = plan.unique_specs();
        out.planned += plan.planned_runs() as u64;
        out.unique += specs.len() as u64;
        let (results, usage) = if tracer.enabled() && jobs == 1 {
            execute_one_by_one(specs, store, tracer)
        } else {
            let executor = Executor::new().jobs(jobs);
            tracer.span("executor.batch", || executor.execute_with(specs, store))
        };
        out.errors += results.iter().filter(|r| r.is_err()).count() as u64;
        out.hits += usage.hits as u64;
        out.writes += usage.writes as u64;
        out.rejected += usage.warnings.iter().filter(|w| w.contains("rejected")).count() as u64;
        let result = tracer.span("campaign.finish", || plan.finish(&results, usage, jobs));
        let json = tracer.span("campaign.render", || result.to_json());
        if name == "ngmp-sweep" {
            out.problems.extend(check_ngmp_ubd(&result));
        }
        out.json.push(json);
    }
    out
}

fn execute_one_by_one(
    specs: &[RunSpec],
    store: Option<&ResultStore>,
    tracer: &mut Tracer,
) -> (Vec<Result<RunMeasurement, RunError>>, StoreUsage) {
    let mut arena = MachineArena::new();
    let mut usage = StoreUsage::default();
    let mut results = Vec::with_capacity(specs.len());
    for spec in specs {
        if let Some(store) = store {
            match tracer.span("store.lookup", || store.lookup(spec)) {
                StoreLookup::Hit(m) => {
                    usage.hits += 1;
                    results.push(Ok(m));
                    continue;
                }
                StoreLookup::Miss => {}
                StoreLookup::Rejected(reason) => {
                    usage.warnings.push(format!("cache entry rejected: {reason}"));
                }
            }
        }
        let result = tracer.span("executor.execute", || arena.execute(spec));
        if let (Some(store), Ok(m)) = (store, &result) {
            match tracer.span("store.insert", || store.insert(spec, m)) {
                Ok(true) => usage.writes += 1,
                Ok(false) => {}
                Err(e) => usage.warnings.push(format!("failed to cache: {e}")),
            }
        }
        results.push(result);
    }
    (results, usage)
}

/// The `ubd` recoveries `examples/run_experiment.rs` asserts: the 3- and
/// 4-core cells find `(Nc - 1) * 9` exactly, the 2-core cell at least 9.
fn check_ngmp_ubd(result: &CampaignResult) -> Vec<String> {
    let ubd = |cores: u64| {
        let name = format!("derive/rr/c{cores}/load-vs-load/i120");
        result.reports.iter().find(|r| r.scenario == name).and_then(|r| r.metric_u64("ubd_m"))
    };
    let mut problems = Vec::new();
    for (cores, expected) in [(3, 18), (4, 27)] {
        if ubd(cores) != Some(expected) {
            problems
                .push(format!("c{cores} recovered ubd_m {:?}, expected {expected}", ubd(cores)));
        }
    }
    if ubd(2) < Some(9) {
        problems.push(format!("c2 recovered ubd_m {:?}, expected at least 9", ubd(2)));
    }
    problems
}

/// Every unique run of both specs, in plan order.
pub fn unique_runs(inputs: &Inputs) -> Vec<RunSpec> {
    let mut runs = Vec::new();
    for text in inputs.specs() {
        if let Ok(spec) = ExperimentSpec::parse(text) {
            runs.extend_from_slice(spec.to_campaign(1).plan().unique_specs());
        }
    }
    runs
}

/// Exact simulator counts over one replay of a run list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimCounts {
    /// Cycles simulated, stepped or skipped.
    pub simulated_cycles: u64,
    /// Cycles the machine actually stepped.
    pub stepped_cycles: u64,
    /// Instructions retired on every core.
    pub instructions: u64,
    /// Runs that failed to load or run.
    pub errors: u64,
}

/// Replays `runs` on one reused [`Machine`] with request and trace
/// recording off, as the executor configures it, with a span around
/// each simulator call.
pub fn sim_replay(runs: &[RunSpec], tracer: &mut Tracer) -> SimCounts {
    let mut counts = SimCounts::default();
    let mut machine: Option<Machine> = None;
    for spec in runs {
        let mut cfg = spec.cfg.clone();
        cfg.record_requests = false;
        cfg.record_trace = false;
        let reset = tracer.enter("sim.reset");
        let ready = match machine.as_mut() {
            Some(m) => m.reset_to(cfg).is_ok(),
            None => Machine::new(cfg).map(|m| machine = Some(m)).is_ok(),
        };
        tracer.exit(reset);
        let Some(m) = machine.as_mut().filter(|_| ready) else {
            counts.errors += 1;
            continue;
        };
        let loaded = tracer.span("sim.load", || {
            std::iter::once(&spec.scua).chain(&spec.contenders).enumerate().all(
                |(core, program)| m.try_load_program(CoreId::new(core), program.clone()).is_ok(),
            )
        });
        let summary = if loaded { tracer.span("sim.run", || m.run()).ok() } else { None };
        let Some(summary) = summary else {
            counts.errors += 1;
            continue;
        };
        counts.simulated_cycles += summary.cycles;
        counts.stepped_cycles += m.steps_executed();
        counts.instructions += summary.cores().iter().map(|c| c.instructions).sum::<u64>();
    }
    counts
}
