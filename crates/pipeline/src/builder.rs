//! Typed construction for [`Simulator`]: the one fluent path covering
//! DoD bounds, fault plans, warmup, run budgets and tracing.
//!
//! `build()` applies the pieces in a fixed order — construct, install
//! bounds, install the fault plan, functional warmup, then enable
//! tracing — so every caller sets a run up alike and warmup never
//! pollutes a collected trace.
//!
//! ```
//! use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
//! use smtsim_workload::Workload;
//! use std::sync::Arc;
//!
//! let cfg = MachineConfig::icpp08_single();
//! let wl = Arc::new(Workload::spec("gzip", 1, 0x1_0000, 0x1000_0000));
//! let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), 7)
//!     .warmup(10_000)
//!     .build()
//!     .expect("valid configuration");
//! let stats = sim.run(StopCondition::AnyThreadCommitted(5_000));
//! assert!(stats.threads[0].committed >= 5_000);
//! ```

use crate::budget::RunBudget;
use crate::config::MachineConfig;
use crate::core::Simulator;
use crate::error::SimError;
use crate::fault::FaultPlan;
use crate::rob_policy::{DodBounds, RobAllocator};
use smtsim_obs::{NoopTracer, Tracer};
use smtsim_workload::Workload;
use std::sync::Arc;

/// Builder for [`Simulator`]; start with
/// [`Simulator::builder`].
pub struct SimulatorBuilder<T: Tracer = NoopTracer> {
    cfg: MachineConfig,
    workloads: Vec<Arc<Workload>>,
    alloc: Box<dyn RobAllocator>,
    seed: u64,
    dod_bounds: Option<Vec<DodBounds>>,
    fault_plan: Option<FaultPlan>,
    warmup_insts: u64,
    budget: RunBudget,
    cycle_skip: bool,
    tracer: T,
}

impl SimulatorBuilder {
    /// Starts a builder over the mandatory pieces (see
    /// [`Simulator::builder`], the public entry point).
    pub(crate) fn new(
        cfg: MachineConfig,
        workloads: Vec<Arc<Workload>>,
        alloc: Box<dyn RobAllocator>,
        seed: u64,
    ) -> Self {
        SimulatorBuilder {
            cfg,
            workloads,
            alloc,
            seed,
            dod_bounds: None,
            fault_plan: None,
            warmup_insts: 0,
            budget: RunBudget::default(),
            cycle_skip: true,
            tracer: NoopTracer,
        }
    }
}

impl<T: Tracer> SimulatorBuilder<T> {
    /// Installs static DoD bound tables, one per hardware thread,
    /// enabling the oracle cross-check at every correct-path L2 fill.
    /// A table-count mismatch surfaces as [`SimError::InvalidConfig`]
    /// from [`SimulatorBuilder::build`].
    #[must_use]
    pub fn dod_bounds(mut self, bounds: Vec<DodBounds>) -> Self {
        self.dod_bounds = Some(bounds);
        self
    }

    /// Installs a deterministic fault-injection plan.
    #[must_use]
    pub fn fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault_plan = Some(plan);
        self
    }

    /// Installs watchdog ceilings ([`RunBudget`]) enforced
    /// cooperatively inside every subsequent `try_run` on the built
    /// simulator; the default budget is unlimited. The warmup phase is
    /// not metered — ceilings apply to timed cycles only.
    #[must_use]
    pub fn run_budget(mut self, budget: RunBudget) -> Self {
        self.budget = budget;
        self
    }

    /// Functionally warms caches and predictors with
    /// `insts_per_thread` instructions per thread before any timed
    /// cycle (0 = no warmup).
    #[must_use]
    pub fn warmup(mut self, insts_per_thread: u64) -> Self {
        self.warmup_insts = insts_per_thread;
        self
    }

    /// Enables or disables event-driven cycle skipping (default:
    /// enabled). Skipping is an execution-speed optimization that is
    /// provably timing-transparent — statistics, traces and stop
    /// cycles are identical either way — so the switch exists for
    /// validation harnesses (`SMTSIM_NO_SKIP`) that prove exactly
    /// that, not for tuning results.
    #[must_use]
    pub fn cycle_skip(mut self, enabled: bool) -> Self {
        self.cycle_skip = enabled;
        self
    }

    /// Swaps in a tracer, changing the simulator's type: the default
    /// [`NoopTracer`] compiles every emission site away; a collecting
    /// tracer (e.g. [`smtsim_obs::TraceLog`]) records the structured
    /// event stream. Tracing starts *after* warmup.
    #[must_use]
    pub fn tracer<U: Tracer>(self, tracer: U) -> SimulatorBuilder<U> {
        SimulatorBuilder {
            cfg: self.cfg,
            workloads: self.workloads,
            alloc: self.alloc,
            seed: self.seed,
            dod_bounds: self.dod_bounds,
            fault_plan: self.fault_plan,
            warmup_insts: self.warmup_insts,
            budget: self.budget,
            cycle_skip: self.cycle_skip,
            tracer,
        }
    }

    /// Builds the simulator: validates the configuration, installs the
    /// optional pieces in the canonical order (bounds → fault plan →
    /// warmup) and arms tracing hooks last so warmup leaves no events.
    pub fn build(self) -> Result<Simulator<T>, SimError> {
        let mut sim =
            Simulator::construct(self.cfg, self.workloads, self.alloc, self.seed, self.tracer)?;
        if let Some(bounds) = self.dod_bounds {
            sim.install_dod_bounds(bounds)?;
        }
        if let Some(plan) = self.fault_plan {
            sim.install_fault_plan(plan);
        }
        if self.warmup_insts > 0 {
            sim.run_warmup(self.warmup_insts);
        }
        sim.set_run_budget(self.budget);
        sim.set_cycle_skip(self.cycle_skip);
        if T::ENABLED {
            sim.alloc.set_tracing(true);
            sim.mem.set_tracing(true);
        }
        Ok(sim)
    }
}
