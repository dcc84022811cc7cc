//! The unified batch-execution front end: a warm [`MachineArena`]
//! behind one [`Executor`].
//!
//! Every measurement in this crate is a [`RunSpec`] — one machine, one
//! workload — and every `RunSpec` executes here, whether it comes from a
//! [`Campaign`](crate::campaign::Campaign), a serial convenience
//! function such as [`derive_ubd`](crate::methodology::derive_ubd), or
//! the `rrb-serve` worker pool:
//!
//! ```
//! use rrb::campaign::RunSpec;
//! use rrb::executor::Executor;
//! use rrb_kernels::{rsk_nop, AccessKind};
//! use rrb_sim::{CoreId, MachineConfig};
//!
//! let cfg = MachineConfig::toy(4, 2);
//! let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 60);
//! let specs: Vec<RunSpec> = (0..4)
//!     .map(|k| RunSpec::contended_rsk(format!("k={k}"), cfg.clone(), scua.clone(), AccessKind::Load))
//!     .collect();
//! let (results, _usage) = Executor::new().jobs(2).execute(&specs);
//! assert!(results.iter().all(Result::is_ok));
//! ```
//!
//! ## The arena
//!
//! A [`MachineArena`] owns at most one [`Machine`] and re-targets it at
//! each incoming spec with [`Machine::reset_to`], which rewinds cores,
//! caches, shared resources, DRAM, PMCs and trace buffers to their
//! just-built state *without reallocating*. The reset is semantically
//! indistinguishable from building a fresh machine — the property test
//! in `tests/prop_arena_reset.rs` pins cycle-for-cycle equality of the
//! two paths over randomized configurations and workloads — so batched
//! runs reuse one warm machine per worker instead of paying an
//! allocator round trip per run. [`Executor::arena`] turns the reuse
//! off (every run then builds a fresh machine); output is byte-identical
//! either way.
//!
//! ## What the executor strips
//!
//! A [`RunMeasurement`] exposes aggregate counters and histograms only —
//! nothing in it can observe per-request [`RequestRecord`]s or trace
//! events. The executor therefore disables `record_requests` and
//! `record_trace` on the machines it drives: observationally identical
//! through this API, and it lets the simulator's steady-state
//! fast-forward engage (which refuses to skip when it would have to
//! synthesize per-request records for the skipped periods). Drive a
//! [`Machine`] directly when you need the records or the trace.
//!
//! [`RequestRecord`]: rrb_sim::RequestRecord

use crate::campaign::{RunError, RunMeasurement, RunSource, RunSpec, StoreUsage};
use crate::scenario::RunOutcome;
use crate::store::{ResultStore, StoreLookup};
use rrb_analysis::Histogram;
use rrb_sim::{CoreId, Machine, MachineConfig};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// One run's full outcome against an optional persistent store: the
/// measurement (or failure), where it came from, and any non-fatal
/// store warnings.
pub type StoredOutcome = (Result<RunMeasurement, RunError>, RunSource, Vec<String>);

/// A reusable machine slot: executes [`RunSpec`]s back to back on one
/// warm [`Machine`], rebuilding only when the slot is still empty.
///
/// The arena is deliberately dumb — no scheduling, no store, no
/// threads; one mutable slot. [`Executor`] composes arenas into worker
/// pools; the `rrb-serve` daemon keeps one per worker thread across
/// jobs.
#[derive(Debug, Default)]
pub struct MachineArena {
    machine: Option<Machine>,
}

impl MachineArena {
    /// An empty (cold) arena.
    pub fn new() -> Self {
        MachineArena { machine: None }
    }

    /// Whether the arena holds a machine from a previous run.
    pub fn is_warm(&self) -> bool {
        self.machine.is_some()
    }

    /// Drops the warm machine, forcing the next run to build afresh.
    pub fn clear(&mut self) {
        self.machine = None;
    }

    /// Executes one spec, resetting the warm machine when one is held.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] when the configuration is invalid, the
    /// workload does not fit the machine, the cycle budget is
    /// exhausted, or the scua never terminates. A failed run leaves the
    /// arena usable: the next call resets (or rebuilds) as usual.
    pub fn execute(&mut self, spec: &RunSpec) -> Result<RunMeasurement, RunError> {
        let cfg = execution_config(&spec.cfg);
        let machine = match self.machine.take() {
            Some(mut m) => match m.reset_to(cfg) {
                Ok(()) => self.machine.insert(m),
                Err(e) => {
                    // Validation failed before any mutation: keep the
                    // warm machine for the next (valid) spec.
                    self.machine = Some(m);
                    return Err(e.into());
                }
            },
            None => self.machine.insert(Machine::new(cfg)?),
        };
        machine.try_load_program(CoreId::new(0), spec.scua.clone())?;
        for (i, contender) in spec.contenders.iter().enumerate() {
            machine.try_load_program(CoreId::new(i + 1), contender.clone())?;
        }
        let summary = machine.run()?;
        let scua = CoreId::new(0);
        let core = summary.core(scua);
        let execution_time = core.execution_time().ok_or(RunError::NonTerminatingScua)?;
        let pmc = machine.pmc().core(scua);
        Ok(RunMeasurement {
            execution_time,
            bus_requests: core.bus_requests,
            instructions: core.instructions,
            gamma_histogram: Histogram::from_bins(
                pmc.gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            mc_gamma_histogram: Histogram::from_bins(
                pmc.mc_gamma_histogram.iter().map(|(&g, &n)| (g, n)),
            ),
            contender_histogram: Histogram::from_bins(
                pmc.contender_histogram.iter().map(|(&c, &n)| (u64::from(c), n)),
            ),
            bus_utilization: summary.bus_utilization,
            mc_utilization: summary.mc_utilization,
        })
    }

    /// [`MachineArena::execute`] behind an optional persistent store: a
    /// valid, structurally confirmed entry skips simulation entirely; a
    /// missing, corrupt, stale, or colliding entry simulates (recording
    /// a warning when the entry existed but could not be trusted) and
    /// persists the fresh measurement on success.
    pub fn execute_stored(&mut self, spec: &RunSpec, store: Option<&ResultStore>) -> StoredOutcome {
        let mut warnings = Vec::new();
        if let Some(store) = store {
            match store.lookup(spec) {
                StoreLookup::Hit(m) => return (Ok(m), RunSource::Store, warnings),
                StoreLookup::Miss => {}
                StoreLookup::Rejected(reason) => warnings
                    .push(format!("cache entry rejected, re-executing `{}`: {reason}", spec.label)),
            }
        }
        let result = self.execute(spec);
        let mut recorded = false;
        if let (Some(store), Ok(m)) = (store, &result) {
            match store.insert(spec, m) {
                Ok(written) => recorded = written,
                Err(e) => warnings.push(format!("failed to cache `{}`: {e}", spec.label)),
            }
        }
        (result, RunSource::Simulated { recorded }, warnings)
    }
}

/// The machine configuration a spec actually executes under: identical
/// timing, with the two pure-observability features a
/// [`RunMeasurement`] cannot expose turned off (see the module docs).
fn execution_config(cfg: &MachineConfig) -> MachineConfig {
    let mut cfg = cfg.clone();
    cfg.record_requests = false;
    cfg.record_trace = false;
    cfg
}

/// The unified batch executor: plans in, plan-ordered results out.
///
/// Builder options select the worker-thread count ([`Executor::jobs`]),
/// machine reuse ([`Executor::arena`]) and a persistent result store
/// ([`Executor::store`]). Whatever the options, the returned results
/// are **indexed by plan position** and byte-identical: scheduling,
/// caching and reuse can change how fast the answer arrives, never what
/// it is. The executor runs every spec it is given; deduplicating a
/// plan is [`Campaign::plan`](crate::campaign::Campaign::plan)'s job.
#[derive(Clone)]
pub struct Executor {
    jobs: usize,
    arena: bool,
    store: Option<Arc<ResultStore>>,
}

impl Default for Executor {
    fn default() -> Self {
        Self::new()
    }
}

impl Executor {
    /// A serial executor: one job, arena reuse on, no persistent store.
    pub fn new() -> Self {
        Executor { jobs: 1, arena: true, store: None }
    }

    /// Sets the worker-thread count (1 = serial; clamped to the plan
    /// size at execution).
    #[must_use]
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// Enables (default) or disables machine reuse. With reuse off,
    /// every run builds a fresh [`Machine`]; output is byte-identical
    /// either way — `campaign_throughput` asserts it, and the arena
    /// property test pins the underlying reset equivalence.
    #[must_use]
    pub fn arena(mut self, arena: bool) -> Self {
        self.arena = arena;
        self
    }

    /// Attaches a persistent [`ResultStore`]: warm entries skip
    /// simulation entirely, fresh results are recorded for the next
    /// batch. Output is byte-identical with or without a store.
    #[must_use]
    pub fn store(mut self, store: Arc<ResultStore>) -> Self {
        self.store = Some(store);
        self
    }

    /// Executes one spec and returns its measurement, consulting the
    /// configured store if any.
    ///
    /// # Errors
    ///
    /// Returns [`RunError`] as [`MachineArena::execute`] does.
    pub fn run(&self, spec: &RunSpec) -> Result<RunMeasurement, RunError> {
        self.run_in(&mut MachineArena::new(), spec, self.store.as_deref()).0
    }

    /// Executes one spec in a caller-owned arena against a per-call
    /// store — the entry point for external schedulers that keep their
    /// own long-lived arenas (the `rrb-serve` worker pool keeps one per
    /// worker thread across jobs). Honours [`Executor::arena`]: with
    /// reuse disabled the arena is cleared first, so the run builds
    /// fresh.
    pub fn run_in(
        &self,
        arena: &mut MachineArena,
        spec: &RunSpec,
        store: Option<&ResultStore>,
    ) -> StoredOutcome {
        if !self.arena {
            arena.clear();
        }
        arena.execute_stored(spec, store)
    }

    /// Executes a plan under this executor's options and the configured
    /// store. Results come back **indexed by plan position** with the
    /// plan-ordered [`StoreUsage`] aggregate.
    pub fn execute(
        &self,
        specs: &[RunSpec],
    ) -> (Vec<Result<RunMeasurement, RunError>>, StoreUsage) {
        self.execute_with(specs, self.store.as_deref())
    }

    /// Executes a plan like [`Executor::execute`] and pairs each result
    /// with its spec's label: the plan-ordered [`RunOutcome`]s that
    /// [`Scenario::analyze`](crate::scenario::Scenario::analyze) takes.
    /// Store usage is dropped.
    pub fn outcomes(&self, specs: &[RunSpec]) -> Vec<RunOutcome> {
        let (results, _usage) = self.execute(specs);
        specs
            .iter()
            .zip(results)
            .map(|(spec, result)| RunOutcome { label: spec.label.clone(), result })
            .collect()
    }

    /// [`Executor::execute`] with the store supplied per call instead of
    /// owned, for callers holding only a reference. Spreads `specs` over
    /// the worker threads, one arena per worker, and aggregates store
    /// usage in plan order (independent of worker scheduling).
    pub fn execute_with(
        &self,
        specs: &[RunSpec],
        store: Option<&ResultStore>,
    ) -> (Vec<Result<RunMeasurement, RunError>>, StoreUsage) {
        let jobs = self.jobs.min(specs.len().max(1));
        let outcomes: Vec<StoredOutcome> = if jobs == 1 {
            let mut arena = MachineArena::new();
            specs.iter().map(|spec| self.run_in(&mut arena, spec, store)).collect()
        } else {
            let slots: Vec<Mutex<Option<StoredOutcome>>> =
                specs.iter().map(|_| Mutex::new(None)).collect();
            let next = AtomicUsize::new(0);
            std::thread::scope(|scope| {
                for _ in 0..jobs {
                    scope.spawn(|| {
                        let mut arena = MachineArena::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(spec) = specs.get(i) else { break };
                            let outcome = self.run_in(&mut arena, spec, store);
                            *slots[i].lock().unwrap_or_else(PoisonError::into_inner) =
                                Some(outcome);
                        }
                    });
                }
            });
            slots
                .into_iter()
                .map(|slot| {
                    // A panicking worker propagates out of the scope
                    // above, so every slot is filled here; the fallback
                    // keeps this path panic-free regardless.
                    slot.into_inner().unwrap_or_else(PoisonError::into_inner).unwrap_or_else(|| {
                        (
                            Err(RunError::Analysis(String::from(
                                "worker delivered no result for this run",
                            ))),
                            RunSource::Simulated { recorded: false },
                            Vec::new(),
                        )
                    })
                })
                .collect()
        };
        let mut usage = StoreUsage::default();
        let results = outcomes
            .into_iter()
            .map(|(result, source, warnings)| {
                match source {
                    RunSource::Store => usage.hits += 1,
                    RunSource::Simulated { recorded: true } => usage.writes += 1,
                    RunSource::Simulated { recorded: false } => {}
                }
                usage.warnings.extend(warnings);
                result
            })
            .collect();
        (results, usage)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rrb_kernels::{rsk, rsk_nop, AccessKind};
    use rrb_sim::{ArbiterKind, SimError};

    fn toy() -> MachineConfig {
        MachineConfig::toy(4, 2)
    }

    fn plan(n: usize) -> Vec<RunSpec> {
        let cfg = toy();
        (0..n)
            .map(|k| {
                RunSpec::contended_rsk(
                    format!("k={k}"),
                    cfg.clone(),
                    rsk_nop(AccessKind::Load, k, &cfg, CoreId::new(0), 40),
                    AccessKind::Load,
                )
            })
            .collect()
    }

    #[test]
    fn warm_arena_matches_cold_runs() {
        let specs = plan(5);
        let mut arena = MachineArena::new();
        for spec in &specs {
            let warm = arena.execute(spec).expect("warm run");
            let cold = MachineArena::new().execute(spec).expect("cold run");
            assert_eq!(warm, cold, "arena reuse must not change `{}`", spec.label);
        }
        assert!(arena.is_warm());
    }

    #[test]
    fn arena_survives_a_failed_run() {
        let mut arena = MachineArena::new();
        let good = &plan(1)[0];
        let warm = arena.execute(good).expect("first run");
        let mut bad_cfg = toy();
        bad_cfg.topology.bus.arbiter = ArbiterKind::Tdma { slot_cycles: 1 };
        let bad = RunSpec::isolated("bad", bad_cfg, good.scua.clone());
        assert!(matches!(arena.execute(&bad), Err(RunError::Sim(SimError::Config(_)))));
        assert!(arena.is_warm(), "an invalid spec must not cost the warm machine");
        assert_eq!(arena.execute(good).expect("after failure"), warm);
    }

    #[test]
    fn arena_off_is_byte_identical_to_arena_on() {
        let specs = plan(6);
        let on = Executor::new().execute(&specs).0;
        let off = Executor::new().arena(false).execute(&specs).0;
        assert_eq!(on, off);
    }

    #[test]
    fn parallel_matches_serial_with_arenas() {
        let specs = plan(6);
        let serial = Executor::new().execute(&specs).0;
        let parallel = Executor::new().jobs(4).execute(&specs).0;
        assert_eq!(serial, parallel);
    }

    #[test]
    fn arena_resizes_across_core_counts_and_topologies() {
        let mut arena = MachineArena::new();
        for cfg in [
            MachineConfig::toy(2, 2),
            MachineConfig::ngmp_two_level(),
            MachineConfig::toy(4, 3),
            MachineConfig::ngmp_ref(),
        ] {
            let scua = rsk_nop(AccessKind::Load, 1, &cfg, CoreId::new(0), 30);
            let spec = RunSpec::contended_rsk("r", cfg, scua, AccessKind::Load);
            let warm = arena.execute(&spec).expect("warm");
            let cold = MachineArena::new().execute(&spec).expect("cold");
            assert_eq!(warm, cold);
        }
    }

    #[test]
    fn endless_scua_is_reported_and_leaves_arena_usable() {
        let cfg = toy();
        let mut arena = MachineArena::new();
        let endless =
            RunSpec::isolated("endless", cfg.clone(), rsk(AccessKind::Load, &cfg, CoreId::new(0)));
        assert!(matches!(arena.execute(&endless), Err(RunError::NonTerminatingScua)));
        let good = &plan(1)[0];
        assert_eq!(
            arena.execute(good).expect("run"),
            MachineArena::new().execute(good).expect("run")
        );
    }
}
