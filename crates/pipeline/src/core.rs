//! The SMT out-of-order core: state, construction and the cycle loop.
//!
//! Stage implementations (fetch/dispatch/issue/event handling/commit and
//! squash) live in `stages.rs`; this module owns the data structures,
//! the per-cycle ordering, the [`RobQuery`] view handed to ROB
//! allocation policies, and the run driver.
//!
//! ## Cycle ordering
//!
//! Within a cycle `now`, the core processes, in order: timed events
//! (completions, L2-miss detections, fills), commit, issue, dispatch,
//! fetch, and finally the ROB-policy tick. Later stages observe the
//! effects of earlier ones in the same cycle — the usual
//! reverse-pipeline evaluation that lets results flow through without
//! extra latches.

use crate::config::{FetchPolicyKind, MachineConfig};
use crate::error::{DeadlockSnapshot, HeadSnapshot, SimError, ThreadSnapshot};
use crate::event_queue::EventQueue;
use crate::fault::{FaultPlan, FaultState, FaultStats};
use crate::fu::FuPool;
use crate::regfile::RegFiles;
use crate::rob_policy::{DodBounds, RobAllocator, RobQuery, DOD_WINDOW};
use crate::soa::{IqSoa, LsqSoa, RobSoa};
use crate::stages::DispatchClass;
use crate::stats::SimStats;
use crate::types::{BranchState, Event, InstRef};
use smtsim_isa::{DynInst, ThreadId};
use smtsim_mem::{Cycle, Hierarchy};
use smtsim_obs::{NoopTracer, TraceEvent, Tracer};
use smtsim_predict::{Btb, Gshare};
use smtsim_workload::{Executor, Workload};
use std::collections::VecDeque;
use std::sync::Arc;

/// A fetched, not-yet-dispatched instruction in a thread's front end.
#[derive(Clone, Debug)]
pub(crate) struct Fetched {
    pub di: DynInst,
    pub wrong_path: bool,
    pub branch: Option<BranchState>,
    /// Earliest dispatch cycle (models decode depth).
    pub ready_at: Cycle,
}

/// Per-hardware-thread state.
pub(crate) struct Thread {
    pub exec: Executor,
    pub rob: RobSoa,
    pub next_tag: u64,
    pub lsq: LsqSoa,
    pub fetch_q: VecDeque<Fetched>,
    /// Correct-path instructions squashed by FLUSH awaiting refetch.
    pub replay_q: VecDeque<DynInst>,
    /// Next PC the front end will fetch (predicted path).
    pub fetch_pc: u64,
    /// Fetching fabricated wrong-path instructions.
    pub in_wrong_path: bool,
    pub wp_counter: u64,
    /// Tag of the unresolved mispredicted branch, if any.
    pub redirect_tag: Option<u64>,
    /// Front end stalled until this cycle (I-miss / redirect penalty).
    pub fetch_stall_until: Cycle,
    /// Wrong-path fetch ran outside the program; wait for resolution.
    pub fetch_halted: bool,
    /// FLUSH policy: fetch gated until this load tag fills.
    pub flush_gate: Option<u64>,
    /// Instructions in decode/rename/IQ (the ICOUNT metric).
    pub icount: usize,
    /// In-flight loads that missed L1-D (DCRA "slow" classification).
    pub pending_l1d: usize,
    /// In-flight loads with a *detected*, unfilled L2 miss.
    pub pending_l2_visible: usize,
    /// Last I-cache line probed (one probe per line transition).
    pub last_fetch_line: u64,
    /// Trace sequence number of the last committed instruction
    /// (commit-order integrity: the committed stream must be the
    /// functional trace, contiguously, in order — wrong-path work and
    /// FLUSH replays must never leak into or punch holes in it).
    pub last_committed_seq: Option<u64>,
}

impl Thread {
    fn new(wl: Arc<Workload>, seed: u64, lsq_size: usize) -> Self {
        let entry_pc = wl.program.pc_of(wl.program.entry(), 0);
        Thread {
            exec: Executor::new(wl, seed),
            // The smallest ring: enough for every baseline-32 thread;
            // larger ROB configurations grow it on demand.
            rob: RobSoa::with_capacity(64),
            next_tag: 0,
            // Dispatch stalls a thread at `lsq_size`, so the LSQ ring
            // never outgrows it.
            lsq: LsqSoa::with_capacity(lsq_size),
            fetch_q: VecDeque::with_capacity(32),
            replay_q: VecDeque::new(),
            fetch_pc: entry_pc,
            in_wrong_path: false,
            wp_counter: 0,
            redirect_tag: None,
            fetch_stall_until: 0,
            fetch_halted: false,
            flush_gate: None,
            icount: 0,
            pending_l1d: 0,
            pending_l2_visible: 0,
            last_fetch_line: u64::MAX,
            last_committed_seq: None,
        }
    }

    /// The *exact* number of instructions among the first `window` ROB
    /// entries younger than `idx` that transitively depend, through
    /// registers, on the result of the instruction at `idx` — the
    /// quantity the paper's DoD counter (unexecuted entries, §4.1)
    /// approximates.
    ///
    /// The taint walk mirrors `smtsim-analysis`: an instruction is
    /// dependent iff it reads a tainted register; a dependent write
    /// extends the taint, an independent write kills it. Hardwired zero
    /// registers never carry taint. The walk stops at the first
    /// wrong-path entry — its operands are fabricated, and everything
    /// behind it will be squashed.
    pub fn exact_dependents(&self, idx: usize, window: usize) -> u32 {
        let bit = |r: Option<smtsim_isa::ArchReg>| match r {
            Some(r) if !r.is_zero() => 1u64 << r.flat_index(),
            _ => 0u64,
        };
        let mut taint = bit(self.rob.slot(idx).di.dst);
        let mut count = 0u32;
        if taint == 0 {
            return 0;
        }
        let n = window.min(self.rob.len().saturating_sub(idx + 1));
        for j in 0..n {
            let e = self.rob.slot(idx + 1 + j);
            if e.wrong_path {
                break;
            }
            let dependent = e.di.srcs.iter().any(|&s| bit(s) & taint != 0);
            let dst = bit(e.di.dst);
            if dependent {
                count += 1;
                taint |= dst;
            } else {
                taint &= !dst;
                if taint == 0 {
                    break;
                }
            }
        }
        count
    }
}

/// Read-only ROB view handed to [`RobAllocator`] implementations.
pub(crate) struct RobView<'a> {
    pub threads: &'a [Thread],
}

impl RobQuery for RobView<'_> {
    fn num_threads(&self) -> usize {
        self.threads.len()
    }

    fn occupancy(&self, thread: ThreadId) -> usize {
        self.threads[thread].rob.len()
    }

    fn oldest_tag(&self, thread: ThreadId) -> Option<u64> {
        self.threads[thread].rob.front_tag()
    }

    fn in_flight(&self, thread: ThreadId, tag: u64) -> bool {
        self.threads[thread].rob.index_of(tag).is_some()
    }

    fn count_unexecuted_younger(&self, thread: ThreadId, tag: u64, window: usize) -> Option<u32> {
        // The paper's DoD scan: with the `executed` flags held in a
        // per-ROB bitset, counting the result-invalid entries in the
        // window behind the load is a masked popcount over at most two
        // u64 words per (possibly wrapped) segment.
        let th = &self.threads[thread];
        let idx = th.rob.index_of(tag)?;
        Some(th.rob.count_unexecuted(idx + 1, window))
    }

    fn has_pending_l2_miss(&self, thread: ThreadId) -> bool {
        self.threads[thread].pending_l2_visible > 0
    }
}

/// When to stop a simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StopCondition {
    /// Stop once any single thread has committed this many instructions
    /// (the paper's criterion: "simulations were stopped after 100
    /// million instructions from any thread had committed").
    AnyThreadCommitted(u64),
    /// Stop once the machine has committed this many instructions in
    /// total.
    TotalCommitted(u64),
    /// Stop after this many cycles.
    Cycles(Cycle),
}

/// How often (in cycles) per-thread ROB occupancy is sampled into the
/// trace when tracing is enabled.
pub(crate) const OCCUPANCY_SAMPLE_INTERVAL: Cycle = 128;

/// Reusable hot-loop scratch buffers: the cycle kernel clears and
/// refills these instead of allocating fresh `Vec`s every cycle
/// (`mem::take` while in use, restored before the stage returns).
#[derive(Default)]
pub(crate) struct Scratch {
    /// Fetch-stage thread ordering.
    pub order: Vec<ThreadId>,
    /// Per-thread DCRA issue-queue caps.
    pub caps: Vec<usize>,
    /// Issue candidates as `(seq, IQ arena slot)` (seq is globally
    /// unique, so sorting the tuples is sorting by age).
    pub cands: Vec<(u64, u32)>,
    /// Squash-path replay collection (front end / ROB).
    pub fetch_replay: Vec<DynInst>,
    pub rob_replay: Vec<DynInst>,
    /// Per-thread dispatch classification for the cycle-skip engine.
    pub classes: Vec<DispatchClass>,
    /// The events due this cycle, in processing order.
    pub events: Vec<Event>,
}

/// The cycle-level SMT simulator.
///
/// Generic over its [`Tracer`]: the default [`NoopTracer`] records
/// nothing and monomorphizes every emission site away (the zero-cost
/// path used by all measurement runs); construct with
/// [`SimulatorBuilder::tracer`](crate::SimulatorBuilder::tracer) to
/// collect a structured event stream instead.
pub struct Simulator<T: Tracer = NoopTracer> {
    pub(crate) cfg: MachineConfig,
    pub(crate) threads: Vec<Thread>,
    pub(crate) regs: RegFiles,
    /// Shared issue queue.
    pub(crate) iq: IqSoa,
    /// IQ entries held per thread (DCRA caps / ICOUNT).
    pub(crate) iq_usage: Vec<usize>,
    pub(crate) fu: FuPool,
    pub(crate) mem: Hierarchy,
    pub(crate) gshare: Gshare,
    pub(crate) btb: Btb,
    pub(crate) alloc: Box<dyn RobAllocator>,
    pub(crate) events: EventQueue,
    pub(crate) now: Cycle,
    pub(crate) global_seq: u64,
    pub(crate) commit_rr: usize,
    pub(crate) dispatch_rr: usize,
    pub(crate) stats: SimStats,
    pub(crate) last_commit: Cycle,
    /// Fault-injection state (inert by default).
    pub(crate) fault: FaultState,
    /// First integrity violation reported by a stage this cycle; the
    /// stages cannot return `Result` without contorting the hot loops,
    /// so they record the violation here and [`Simulator::try_step`]
    /// surfaces it as [`SimError::InvariantViolation`] at cycle end.
    pub(crate) integrity_violation: Option<String>,
    /// Static DoD bound tables, one per thread (empty = oracle off).
    pub(crate) dod_bounds: Vec<DodBounds>,
    /// Watchdog ceilings for `try_run` (unlimited by default).
    pub(crate) budget: crate::RunBudget,
    /// Event-driven cycle skipping (on by default; timing-identical —
    /// see [`Simulator::try_skip_ahead`]). Disable to cross-check.
    pub(crate) cycle_skip: bool,
    /// Did the cycle just stepped do any work? Cleared at the top of
    /// [`Simulator::try_step`]; set by every stage that pops an event,
    /// commits, finds an issue candidate, dispatches, or may fetch.
    pub(crate) cycle_activity: bool,
    /// Reusable hot-loop buffers (see [`Scratch`]).
    pub(crate) scratch: Scratch,
    /// Structured-event sink (a ZST no-op by default).
    pub(crate) tracer: T,
}

impl Simulator {
    /// Starts a [`SimulatorBuilder`](crate::SimulatorBuilder) — the
    /// one construction path, covering DoD bounds, fault plans,
    /// warmup, run budgets and tracing.
    ///
    /// * `workloads` — one per hardware thread (`cfg.num_threads`).
    /// * `alloc` — the ROB capacity policy ([`crate::FixedRob`] for the
    ///   baselines; the two-level schemes come from `smtsim-rob2`).
    /// * `seed` — perturbs executor seeds (thread `t` uses `seed + t`).
    pub fn builder(
        cfg: MachineConfig,
        workloads: Vec<Arc<Workload>>,
        alloc: Box<dyn RobAllocator>,
        seed: u64,
    ) -> crate::SimulatorBuilder {
        crate::SimulatorBuilder::new(cfg, workloads, alloc, seed)
    }
}

impl<T: Tracer> Simulator<T> {
    /// Core constructor behind the builder: validates the
    /// configuration and assembles the machine with the given tracer.
    pub(crate) fn construct(
        cfg: MachineConfig,
        workloads: Vec<Arc<Workload>>,
        alloc: Box<dyn RobAllocator>,
        seed: u64,
        tracer: T,
    ) -> Result<Self, SimError> {
        cfg.validate()?;
        if workloads.len() != cfg.num_threads {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "need one workload per hardware thread: {} workloads for {} threads",
                    workloads.len(),
                    cfg.num_threads
                ),
            });
        }
        let threads: Vec<Thread> = workloads
            .into_iter()
            .enumerate()
            .map(|(t, wl)| Thread::new(wl, seed.wrapping_add(t as u64), cfg.lsq_size))
            .collect();
        let stats = SimStats::new(cfg.num_threads);
        let regs = RegFiles::new(
            cfg.int_regs / cfg.num_threads,
            cfg.fp_regs / cfg.num_threads,
            cfg.num_threads,
            cfg.shared_regs,
        );
        // The IQ's wakeup network hangs one waiter list off every
        // physical register, so the register files are sized first.
        let iq = IqSoa::new(
            cfg.iq_size,
            [
                regs.total(smtsim_isa::RegClass::Int),
                regs.total(smtsim_isa::RegClass::Fp),
            ],
            cfg.num_threads,
        );
        Ok(Simulator {
            regs,
            iq,
            iq_usage: vec![0; cfg.num_threads],
            fu: FuPool::new(&cfg.fu),
            mem: Hierarchy::new(cfg.l1i, cfg.l1d, cfg.l2, cfg.mem),
            gshare: Gshare::icpp08(),
            btb: Btb::icpp08(),
            alloc,
            events: EventQueue::new(),
            now: 0,
            global_seq: 0,
            commit_rr: 0,
            dispatch_rr: 0,
            stats,
            last_commit: 0,
            fault: FaultState::new(FaultPlan::default(), cfg.num_threads),
            integrity_violation: None,
            dod_bounds: Vec::new(),
            budget: crate::RunBudget::default(),
            cycle_skip: true,
            cycle_activity: true,
            scratch: Scratch::default(),
            tracer,
            threads,
            cfg,
        })
    }

    /// Consumes the simulator, returning its tracer (e.g. to read a
    /// collected [`smtsim_obs::TraceLog`] after a run).
    pub fn into_tracer(self) -> T {
        self.tracer
    }

    /// Installs static DoD bound tables
    /// (via [`SimulatorBuilder::dod_bounds`](crate::SimulatorBuilder::dod_bounds)),
    /// one per hardware thread, enabling the oracle cross-check at every
    /// correct-path L2 fill (see [`DodBounds`]). Violations are always
    /// counted in `SimStats::dod_oracle`; with the `dod-oracle` feature
    /// enabled they additionally fail the cycle as
    /// [`SimError::InvariantViolation`]. A table-count mismatch is
    /// reported as [`SimError::InvalidConfig`].
    pub(crate) fn install_dod_bounds(&mut self, bounds: Vec<DodBounds>) -> Result<(), SimError> {
        if bounds.len() != self.cfg.num_threads {
            return Err(SimError::InvalidConfig {
                reason: format!(
                    "need one DoD bound table per hardware thread: {} tables for {} threads",
                    bounds.len(),
                    self.cfg.num_threads
                ),
            });
        }
        self.dod_bounds = bounds;
        Ok(())
    }

    /// Cross-checks one correct-path L2 fill against the static DoD
    /// bound for the load's PC. `idx` is the load's ROB index; `counted`
    /// is the hardware counter value over the same first-level window,
    /// *before* fault injection.
    pub(crate) fn oracle_check(&mut self, r: InstRef, idx: usize, pc: u64, counted: u32) {
        if self.dod_bounds.is_empty() {
            return;
        }
        let Some(max) = self.dod_bounds[r.thread].lookup(pc) else {
            return;
        };
        let exact = self.threads[r.thread].exact_dependents(idx, DOD_WINDOW);
        let o = &mut self.stats.dod_oracle;
        o.checked += 1;
        o.exact_sum += exact as u64;
        o.counter_err_sum += counted.abs_diff(exact) as u64;
        if counted > exact {
            o.counter_overshoot += 1;
        }
        if exact > max {
            o.violations += 1;
            #[cfg(feature = "dod-oracle")]
            self.report_integrity(format!(
                "DoD oracle: load {pc:#x} (t{} tag {}) has {exact} dependent \
                 instructions in its first-level window at fill, exceeding \
                 the static dependence bound {max}",
                r.thread, r.tag
            ));
        }
    }

    /// Installs a fault-injection plan
    /// (via [`SimulatorBuilder::fault_plan`](crate::SimulatorBuilder::fault_plan)).
    /// Call before any timed cycles; the decision counters restart from
    /// zero.
    pub(crate) fn install_fault_plan(&mut self, plan: FaultPlan) {
        self.fault = FaultState::new(plan, self.cfg.num_threads);
    }

    /// Counts of faults injected so far.
    pub fn fault_stats(&self) -> FaultStats {
        self.fault.stats
    }

    /// Installs watchdog ceilings for subsequent
    /// [`Simulator::try_run`] calls (see [`crate::RunBudget`]); set
    /// through [`SimulatorBuilder::run_budget`](crate::SimulatorBuilder::run_budget).
    pub(crate) fn set_run_budget(&mut self, budget: crate::RunBudget) {
        self.budget = budget;
    }

    /// Current cycle.
    pub fn cycle(&self) -> Cycle {
        self.now
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// The ROB allocation policy (downcast with
    /// [`RobAllocator::as_any`] to read policy-specific statistics).
    pub fn allocator(&self) -> &dyn RobAllocator {
        self.alloc.as_ref()
    }

    /// Enables or disables event-driven cycle skipping (on by default;
    /// timing-identical — see
    /// [`SimulatorBuilder::cycle_skip`](crate::SimulatorBuilder::cycle_skip)).
    pub(crate) fn set_cycle_skip(&mut self, enabled: bool) {
        self.cycle_skip = enabled;
    }

    /// Schedules an event.
    #[inline]
    pub(crate) fn push_event(&mut self, ev: Event) {
        debug_assert!(ev.at >= self.now);
        self.events.push(ev);
    }

    /// Functionally warms caches and predictors
    /// (via [`SimulatorBuilder::warmup`](crate::SimulatorBuilder::warmup))
    /// by running `insts_per_thread` instructions of each thread
    /// through the memory directories and predictor tables — no timing,
    /// no statistics. The paper simulates SimPoint regions whose
    /// microarchitectural state is warm; warming before any timed cycle
    /// reproduces that (the `Lab` harness in `smtsim-rob2` does).
    pub(crate) fn run_warmup(&mut self, insts_per_thread: u64) {
        assert_eq!(self.now, 0, "warmup must precede timed simulation");
        for t in 0..self.cfg.num_threads {
            let mut last_line = u64::MAX;
            for _ in 0..insts_per_thread {
                let di = self.threads[t].exec.next_inst();
                let line = di.pc & !(self.cfg.l1i.line - 1);
                if line != last_line {
                    self.mem.warm_inst(di.pc);
                    last_line = line;
                }
                if di.op.is_mem() {
                    self.mem
                        .warm_data(di.mem_addr, di.op == smtsim_isa::OpClass::Store);
                }
                if di.op == smtsim_isa::OpClass::BranchCond {
                    let h = self.gshare.history(t);
                    self.gshare.train(di.pc, h, di.taken);
                    self.gshare.set_history(t, (h << 1) | di.taken as u16);
                }
                if di.op.is_branch() && di.taken {
                    self.btb.update(di.pc, di.next_pc);
                }
                // The front end resumes exactly where the functional
                // walk stopped.
                self.threads[t].fetch_pc = di.next_pc;
            }
        }
    }

    /// Advances the machine by one cycle.
    ///
    /// # Panics
    /// Panics if the cycle surfaces a deadlock or an invariant
    /// violation; [`Simulator::try_step`] reports these as [`SimError`]
    /// instead.
    pub fn step(&mut self) {
        if let Err(e) = self.try_step() {
            panic!("{e}");
        }
    }

    /// Advances the machine by one cycle, reporting integrity failures
    /// as typed errors:
    ///
    /// * [`SimError::InvariantViolation`] — a stage observed
    ///   inconsistent machine state, a cheap cross-structure check
    ///   failed (ROB-entry conservation against the policy's physical
    ///   budget, per-thread occupancy bounds), or — every
    ///   `MachineConfig::invariant_interval` cycles — the deep scan
    ///   ([`Simulator::check_invariants`]) or the allocation policy's
    ///   self-audit found a mismatch.
    /// * [`SimError::Deadlock`] — no instruction committed for
    ///   `MachineConfig::deadlock_cycles` cycles; carries a
    ///   [`DeadlockSnapshot`] of per-thread state.
    ///
    /// After an error the machine state is left as-is for post-mortem
    /// inspection; continuing to step is not meaningful.
    pub fn try_step(&mut self) -> Result<(), SimError> {
        self.cycle_activity = false;
        self.process_events();
        self.commit_stage();
        self.issue_stage();
        self.dispatch_stage();
        self.fetch_stage();
        self.policy_tick();
        self.sample_occupancy();
        if T::ENABLED {
            // The allocation policy and the memory hierarchy sit on the
            // far side of trait-object / crate boundaries, so they
            // buffer their events; fold them into the tracer once per
            // cycle, in a fixed order, to keep the stream deterministic.
            for (c, ev) in self.alloc.drain_trace() {
                self.tracer.record(c, ev);
            }
            for (c, ev) in self.mem.drain_trace() {
                self.tracer.record(c, ev);
            }
        }
        self.now += 1;
        if let Some(detail) = self.integrity_violation.take() {
            return Err(SimError::InvariantViolation {
                cycle: self.now,
                detail,
            });
        }
        self.conservation_check()?;
        if self.cfg.invariant_interval > 0 && self.now.is_multiple_of(self.cfg.invariant_interval) {
            if let Some(detail) = self.check_invariants() {
                return Err(SimError::InvariantViolation {
                    cycle: self.now,
                    detail,
                });
            }
            let view = RobView {
                threads: &self.threads,
            };
            if let Some(detail) = self.alloc.audit(&view) {
                return Err(SimError::InvariantViolation {
                    cycle: self.now,
                    detail: format!("policy audit ({}): {detail}", self.alloc.name()),
                });
            }
        }
        if self.now - self.last_commit > self.cfg.deadlock_cycles {
            return Err(SimError::Deadlock {
                snapshot: Box::new(self.deadlock_snapshot()),
            });
        }
        Ok(())
    }

    /// Runs until `stop` is reached; returns the final statistics.
    ///
    /// # Panics
    /// Panics if the run surfaces a deadlock or an invariant violation;
    /// [`Simulator::try_run`] reports these as [`SimError`] instead.
    pub fn run(&mut self, stop: StopCondition) -> &SimStats {
        if let Err(e) = self.try_run(stop) {
            panic!("{e}");
        }
        &self.stats
    }

    /// Runs until `stop` is reached, reporting integrity failures as
    /// typed errors (see [`Simulator::try_step`]). Statistics —
    /// including the cycle count — are coherent up to the failing cycle
    /// in both outcomes, so a sweep can record partial progress of a
    /// poisoned cell.
    pub fn try_run(&mut self, stop: StopCondition) -> Result<&SimStats, SimError> {
        // xtask: allow-wall-clock — SMTSIM_CELL_TIMEOUT watchdog anchor
        let started = std::time::Instant::now();
        loop {
            match stop {
                StopCondition::AnyThreadCommitted(n) => {
                    if self.stats.threads.iter().any(|t| t.committed >= n) {
                        break;
                    }
                }
                StopCondition::TotalCommitted(n) => {
                    if self.stats.total_committed() >= n {
                        break;
                    }
                }
                StopCondition::Cycles(n) => {
                    if self.now >= n {
                        break;
                    }
                }
            }
            if let Err(e) = self.check_budget(&started) {
                self.stats.cycles = self.now;
                return Err(e);
            }
            if let Err(e) = self.try_step() {
                self.stats.cycles = self.now;
                return Err(e);
            }
            if self.cycle_skip && !self.cycle_activity {
                self.try_skip_ahead(stop);
            }
        }
        self.stats.cycles = self.now;
        Ok(&self.stats)
    }

    /// Event-driven cycle skipping: called after a *quiet* cycle (no
    /// event processed, nothing committed, no issue candidate, no
    /// dispatch, no thread allowed to fetch). If the machine is
    /// provably quiescent until some future cycle `T` — no scheduled
    /// event, allocation-policy deadline, fetch wakeup, budget poll,
    /// invariant scan or watchdog deadline lands earlier — replicate
    /// the per-cycle accounting of the intervening cycles in closed
    /// form and advance the clock directly, so the next `try_step`
    /// executes cycle `T` exactly as it would have without the skip.
    ///
    /// Soundness: every input of the per-thread dispatch
    /// classification (fetch-queue head and its `ready_at`, ROB/IQ/LSQ
    /// occupancies, DCRA caps via `pending_l1d`, free registers,
    /// policy capacity) can only change through events, commits,
    /// dispatches, fetches or policy-tick transitions — all of which
    /// are either impossible on a quiet machine or capped below `T`.
    /// Stall counters, occupancy sums, trace stall/occupancy samples
    /// and the commit/dispatch round-robin cursors are replicated
    /// per skipped cycle; budgets and the deadlock watchdog keep their
    /// exact firing cycles because `T` is capped at each deadline.
    fn try_skip_ahead(&mut self, stop: StopCondition) {
        // Active fault plans may mutate per-cycle decision state inside
        // the dispatch gates; never skip under one.
        if self.fault.plan.is_active() {
            return;
        }
        let view = RobView {
            threads: &self.threads,
        };
        // The allocation policy's quiescence horizon: the earliest
        // future cycle at which its `tick` may act (0 when it acts now).
        let mut target = self.alloc.skip_quiesce(&view);
        if let StopCondition::Cycles(n) = stop {
            target = target.min(n);
        }
        if let Some(at) = self.events.next_at() {
            target = target.min(at);
        }
        if let Some(max) = self.budget.max_cycles {
            target = target.min(max);
        }
        if self.budget.wall_ms.is_some() || self.budget.token.is_some() {
            // Wall-clock / cancellation polls happen when `check_budget`
            // runs at a multiple of BUDGET_POLL_INTERVAL; make every
            // poll cycle a real loop iteration.
            target = target.min(self.now.next_multiple_of(crate::BUDGET_POLL_INTERVAL));
        }
        let iv = self.cfg.invariant_interval;
        // The deep scan runs while stepping cycle c whenever (c + 1)
        // is a multiple of the interval (0 = disabled); that cycle
        // must be stepped normally.
        if let Some(q) = self.now.checked_div(iv) {
            target = target.min((q + 1) * iv - 1);
        }
        // The deadlock watchdog fires while stepping cycle
        // last_commit + deadlock_cycles; step it normally.
        target = target.min(self.last_commit.saturating_add(self.cfg.deadlock_cycles));
        for th in &self.threads {
            if th.fetch_stall_until > self.now {
                target = target.min(th.fetch_stall_until);
            }
            if let Some(f) = th.fetch_q.front() {
                if f.ready_at > self.now {
                    target = target.min(f.ready_at);
                }
            }
        }
        if target <= self.now {
            return;
        }
        // The quiet step observed fetch at the *previous* cycle; a
        // stall that expired exactly at the new `now` makes a thread
        // fetch-eligible this cycle even though nothing above caps the
        // target (its fetch queue may be empty). Fetching is activity,
        // so a fetch-eligible thread means the machine is not
        // quiescent.
        for t in 0..self.cfg.num_threads {
            if self.can_fetch(t) {
                return;
            }
        }

        // Classify every thread's dispatch gate from current state; a
        // thread that could dispatch means the machine is not actually
        // quiescent (e.g. the policy tick just granted capacity), so
        // fall back to normal stepping.
        let n = self.cfg.num_threads;
        let mut caps = std::mem::take(&mut self.scratch.caps);
        let mut classes = std::mem::take(&mut self.scratch.classes);
        self.dcra_caps_into(&mut caps);
        classes.clear();
        for (t, &cap) in caps.iter().enumerate() {
            classes.push(self.classify_dispatch(t, cap));
        }
        if classes.contains(&DispatchClass::Pass) {
            self.scratch.caps = caps;
            self.scratch.classes = classes;
            return;
        }

        // Replicate the per-cycle accounting of cycles [now, target).
        let k = target - self.now;
        for (t, class) in classes.iter().enumerate() {
            if let DispatchClass::Stall(kind) = *class {
                self.bump_stall(t, kind, k);
            }
        }
        self.stats.iq_occupancy_sum += self.iq.len() as u64 * k;
        if self.iq.len() >= self.cfg.iq_size {
            self.stats.iq_full_cycles += k;
        }
        for (t, th) in self.threads.iter().enumerate() {
            self.stats.threads[t].rob_occupancy_sum += th.rob.len() as u64 * k;
        }
        self.alloc.on_cycles_skipped(k);
        if T::ENABLED {
            // Synthesize the exact trace stream the stepped cycles
            // would have produced: dispatch-stage stall records in
            // round-robin visit order, then the occupancy samples.
            for c in self.now..target {
                let start = (self.dispatch_rr + (c - self.now) as usize) % n;
                for j in 0..n {
                    let t = (start + j) % n;
                    if let DispatchClass::Stall(kind) = classes[t] {
                        self.tracer
                            .record(c, TraceEvent::ThreadStall { thread: t, kind });
                    }
                }
                if c.is_multiple_of(OCCUPANCY_SAMPLE_INTERVAL) {
                    for (t, th) in self.threads.iter().enumerate() {
                        let occupancy = u32::try_from(th.rob.len()).unwrap_or(u32::MAX);
                        self.tracer.record(
                            c,
                            TraceEvent::RobOccupancy {
                                thread: t,
                                occupancy,
                            },
                        );
                    }
                }
            }
        }
        self.commit_rr = (self.commit_rr + k as usize % n) % n;
        self.dispatch_rr = (self.dispatch_rr + k as usize % n) % n;
        self.now = target;
        self.scratch.caps = caps;
        self.scratch.classes = classes;
    }

    /// Cooperative watchdog: enforces the [`crate::RunBudget`] ceilings
    /// from inside the cycle loop. The simulated-cycle ceiling is
    /// checked every cycle (it must fire at an exact, reproducible
    /// cycle); the wall-clock and cancellation ceilings are polled
    /// every [`crate::BUDGET_POLL_INTERVAL`] cycles and are documented
    /// as non-deterministic.
    // xtask: allow-wall-clock — wall-clock ceiling is documented non-deterministic
    fn check_budget(&self, started: &std::time::Instant) -> Result<(), SimError> {
        if let Some(max) = self.budget.max_cycles {
            if self.now >= max {
                return Err(SimError::CellTimeout {
                    cycle: self.now,
                    detail: format!("cycle budget of {max} simulated cycles exhausted"),
                });
            }
        }
        if self.now.is_multiple_of(crate::BUDGET_POLL_INTERVAL) {
            if let Some(token) = &self.budget.token {
                if token.is_cancelled() {
                    return Err(SimError::CellTimeout {
                        cycle: self.now,
                        detail: "cancelled by sweep engine".into(),
                    });
                }
            }
            if let Some(ms) = self.budget.wall_ms {
                if started.elapsed().as_millis() >= u128::from(ms) {
                    return Err(SimError::CellTimeout {
                        cycle: self.now,
                        detail: format!("wall-clock budget of {ms} ms exhausted"),
                    });
                }
            }
        }
        Ok(())
    }

    /// Cheap always-on integrity checks: O(threads) per cycle.
    ///
    /// ROB-entry conservation — the machine must never hold more
    /// entries than the policy's physical budget, globally or per
    /// thread. Per-thread occupancy may legally exceed the *current*
    /// capacity grant (capacity shrinks below occupancy while a
    /// two-level extension drains), so the bounds checked here are the
    /// physical maxima, which no correct dispatch sequence can exceed.
    fn conservation_check(&self) -> Result<(), SimError> {
        let mut total = 0usize;
        let per_thread_max = self.alloc.max_capacity();
        for (t, th) in self.threads.iter().enumerate() {
            if th.rob.len() > per_thread_max {
                return Err(SimError::InvariantViolation {
                    cycle: self.now,
                    detail: format!(
                        "t{t}: ROB occupancy {} exceeds the policy's physical maximum {} ({})",
                        th.rob.len(),
                        per_thread_max,
                        self.alloc.name()
                    ),
                });
            }
            total += th.rob.len();
        }
        let bound = self.alloc.conservation_bound(self.cfg.num_threads);
        if total > bound {
            return Err(SimError::InvariantViolation {
                cycle: self.now,
                detail: format!(
                    "ROB-entry conservation: {total} entries in flight exceed the \
                     policy's global budget {bound} ({})",
                    self.alloc.name()
                ),
            });
        }
        Ok(())
    }

    /// Records a stage-observed integrity violation (first one wins);
    /// surfaced by [`Simulator::try_step`] at cycle end.
    #[cold]
    pub(crate) fn report_integrity(&mut self, detail: String) {
        self.integrity_violation.get_or_insert(detail);
    }

    /// The ROB capacity dispatch consults for `thread` this cycle —
    /// the policy's grant, unless a fault plan is lying about it.
    #[inline]
    pub(crate) fn dispatch_capacity(&mut self, t: ThreadId) -> usize {
        let real = self.alloc.capacity(t);
        self.fault.effective_capacity(t, real, self.now)
    }

    /// Runs the ROB policy's per-cycle hook.
    fn policy_tick(&mut self) {
        let view = RobView {
            threads: &self.threads,
        };
        self.alloc.tick(&view, self.now);
    }

    /// Per-cycle statistics sampling.
    fn sample_occupancy(&mut self) {
        self.stats.iq_occupancy_sum += self.iq.len() as u64;
        if self.iq.len() >= self.cfg.iq_size {
            self.stats.iq_full_cycles += 1;
        }
        for (t, th) in self.threads.iter().enumerate() {
            self.stats.threads[t].rob_occupancy_sum += th.rob.len() as u64;
        }
        if T::ENABLED && self.now.is_multiple_of(OCCUPANCY_SAMPLE_INTERVAL) {
            for (t, th) in self.threads.iter().enumerate() {
                let occupancy = u32::try_from(th.rob.len()).unwrap_or(u32::MAX);
                self.tracer.record(
                    self.now,
                    TraceEvent::RobOccupancy {
                        thread: t,
                        occupancy,
                    },
                );
            }
        }
    }

    /// Thread order for fetch this cycle, best candidate first, filled
    /// into the caller's reusable buffer.
    pub(crate) fn fetch_order_into(&self, order: &mut Vec<ThreadId>) {
        let n = self.cfg.num_threads;
        order.clear();
        order.extend(0..n);
        match self.cfg.fetch_policy {
            FetchPolicyKind::RoundRobin => {
                order.rotate_left((self.now as usize) % n);
            }
            // ICOUNT ordering is shared by ICOUNT, DCRA, STALL, FLUSH
            // (the latter differ in gating, not ordering). The sort key
            // is made total by the thread id, so the unstable sort is
            // deterministic.
            _ => {
                order.sort_unstable_by_key(|&t| (self.threads[t].icount, t));
            }
        }
    }

    /// May `t` fetch this cycle under the active policy?
    pub(crate) fn can_fetch(&self, t: ThreadId) -> bool {
        let th = &self.threads[t];
        if th.fetch_halted
            || th.fetch_stall_until > self.now
            || th.fetch_q.len() >= self.cfg.fetch_queue
        {
            return false;
        }
        match self.cfg.fetch_policy {
            FetchPolicyKind::Stall | FetchPolicyKind::Flush => {
                th.pending_l2_visible == 0 && th.flush_gate.is_none()
            }
            _ => true,
        }
    }

    /// Per-thread shared-IQ dispatch caps under DCRA; `usize::MAX` when
    /// DCRA is not active. The issue queue is the only resource capped:
    /// threads rename from the register pool without a DCRA share.
    pub(crate) fn dcra_caps_into(&self, caps: &mut Vec<usize>) {
        let n = self.cfg.num_threads;
        caps.clear();
        let FetchPolicyKind::Dcra(dcra) = self.cfg.fetch_policy else {
            caps.resize(n, usize::MAX);
            return;
        };
        // Classification: a thread with an outstanding L1-D miss is
        // memory-demanding ("slow") and receives `slow_share` times the
        // base share of the shared issue queue.
        let s = self.threads.iter().filter(|t| t.pending_l1d > 0).count() as u32;
        let f = n as u32 - s;
        let denom = (f + dcra.slow_share * s).max(1);
        caps.extend((0..n).map(|t| {
            let mult = if self.threads[t].pending_l1d > 0 {
                dcra.slow_share
            } else {
                1
            } as usize;
            (self.cfg.iq_size * mult) / denom as usize
        }));
    }

    /// Verifies cross-structure invariants, returning a description of
    /// the first violation found. Intended for stress tests and
    /// debugging sessions (`None` = consistent); costs O(machine
    /// state), so do not call it every cycle in measurement runs.
    pub fn check_invariants(&self) -> Option<String> {
        // Shared IQ: every entry references an in-flight, unissued,
        // non-NOP instruction; per-thread usage counters agree.
        let mut iq_per_thread = vec![0usize; self.cfg.num_threads];
        for (et, etag) in self.iq.iter() {
            let Some(idx) = self.threads[et].rob.index_of(etag) else {
                return Some(format!("IQ entry t{et} tag {etag} not in flight"));
            };
            if self.threads[et].rob.issued(idx) {
                return Some(format!("issued instruction t{et} tag {etag} still in IQ"));
            }
            iq_per_thread[et] += 1;
        }
        if self.iq.len() > self.cfg.iq_size {
            return Some(format!("IQ overflow: {}", self.iq.len()));
        }
        for (t, &actual_iq) in iq_per_thread.iter().enumerate() {
            if actual_iq != self.iq_usage[t] {
                return Some(format!(
                    "t{t}: iq_usage {} != actual {}",
                    self.iq_usage[t], actual_iq
                ));
            }
            let th = &self.threads[t];
            // ROB: tags strictly increasing; LSQ mirrors the ROB's
            // memory ops in order (checked with a cursor walk — no
            // collection); occupancy within the policy cap is not
            // asserted (capacity may legally shrink below occupancy
            // while a two-level extension drains).
            let mut prev_tag = None;
            let mut lsq_cursor = 0usize;
            for idx in 0..th.rob.len() {
                let tag = th.rob.tag_at(idx);
                if let Some(p) = prev_tag {
                    if tag <= p {
                        return Some(format!("t{t}: ROB tags not increasing at {tag}"));
                    }
                }
                prev_tag = Some(tag);
                if th.rob.slot(idx).di.op.is_mem() {
                    if lsq_cursor >= th.lsq.len() || th.lsq.tag_at(lsq_cursor) != tag {
                        return Some(format!(
                            "t{t}: LSQ out of sync with ROB mem op tag {tag} at LSQ index {lsq_cursor}"
                        ));
                    }
                    lsq_cursor += 1;
                }
                if th.rob.executed(idx) && !th.rob.issued(idx) {
                    return Some(format!("t{t}: executed-but-unissued tag {tag}"));
                }
            }
            if lsq_cursor != th.lsq.len() {
                return Some(format!(
                    "t{t}: LSQ holds {} entries beyond the ROB's {lsq_cursor} mem ops",
                    th.lsq.len()
                ));
            }
            if th.lsq.len() > self.cfg.lsq_size {
                return Some(format!("t{t}: LSQ overflow"));
            }
            // ICOUNT = front-end occupancy + unissued IQ entries.
            let expect_icount = th.fetch_q.len() + actual_iq;
            if th.icount != expect_icount {
                return Some(format!(
                    "t{t}: icount {} != fetch_q {} + iq {}",
                    th.icount,
                    th.fetch_q.len(),
                    iq_per_thread[t]
                ));
            }
        }
        None
    }

    /// Per-stage benchmark hooks (`bench-internals` feature): expose
    /// the stage entry points in `try_step` order so a bench harness
    /// can time each stage inside a faithful cycle loop. Not part of
    /// the supported API.
    #[cfg(feature = "bench-internals")]
    pub fn bench_process_events(&mut self) {
        self.process_events();
    }

    /// Commit stage alone; see [`Simulator::bench_process_events`].
    #[cfg(feature = "bench-internals")]
    pub fn bench_commit_stage(&mut self) {
        self.commit_stage();
    }

    /// Issue/execute stage alone; see
    /// [`Simulator::bench_process_events`].
    #[cfg(feature = "bench-internals")]
    pub fn bench_issue_stage(&mut self) {
        self.issue_stage();
    }

    /// Dispatch/rename stage alone; see
    /// [`Simulator::bench_process_events`].
    #[cfg(feature = "bench-internals")]
    pub fn bench_dispatch_stage(&mut self) {
        self.dispatch_stage();
    }

    /// Fetch stage alone; see [`Simulator::bench_process_events`].
    #[cfg(feature = "bench-internals")]
    pub fn bench_fetch_stage(&mut self) {
        self.fetch_stage();
    }

    /// Runs the end-of-cycle bookkeeping the stage hooks below do not
    /// cover (policy tick, occupancy sampling, trace drains, clock
    /// advance) — the remainder of [`Simulator::try_step`] minus the
    /// integrity surfacing, which per-stage benches do not exercise.
    #[cfg(feature = "bench-internals")]
    pub fn bench_cycle_end(&mut self) {
        self.policy_tick();
        self.sample_occupancy();
        if T::ENABLED {
            for (c, ev) in self.alloc.drain_trace() {
                self.tracer.record(c, ev);
            }
            for (c, ev) in self.mem.drain_trace() {
                self.tracer.record(c, ev);
            }
        }
        self.now += 1;
    }

    /// One masked-popcount DoD scan per thread (behind the oldest
    /// entry), summed — the kernel the paper's counter hardware models.
    #[cfg(feature = "bench-internals")]
    pub fn bench_dod_scan(&self, window: usize) -> u64 {
        let view = RobView {
            threads: &self.threads,
        };
        (0..self.cfg.num_threads)
            .filter_map(|t| {
                let tag = view.oldest_tag(t)?;
                view.count_unexecuted_younger(t, tag, window)
            })
            .map(u64::from)
            .sum()
    }

    /// Captures the diagnostic state the deadlock watchdog reports.
    #[cold]
    fn deadlock_snapshot(&self) -> DeadlockSnapshot {
        DeadlockSnapshot {
            deadlock_cycles: self.cfg.deadlock_cycles,
            now: self.now,
            policy: self.alloc.name(),
            threads: self
                .threads
                .iter()
                .enumerate()
                .map(|(t, th)| ThreadSnapshot {
                    rob_len: th.rob.len(),
                    rob_cap: self.alloc.capacity(t),
                    iq_use: self.iq_usage[t],
                    icount: th.icount,
                    head: (!th.rob.is_empty()).then(|| HeadSnapshot {
                        tag: th.rob.tag_at(0),
                        op: th.rob.slot(0).di.op,
                        issued: th.rob.issued(0),
                        executed: th.rob.executed(0),
                    }),
                    fetch_halted: th.fetch_halted,
                    fetch_stall_until: th.fetch_stall_until,
                    in_wrong_path: th.in_wrong_path,
                    pending_l2: th.pending_l2_visible,
                })
                .collect(),
            iq_len: self.iq.len(),
            iq_size: self.cfg.iq_size,
            int_free_t0: self.regs.free_count(0, smtsim_isa::RegClass::Int),
            fp_free_t0: self.regs.free_count(0, smtsim_isa::RegClass::Fp),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::InstState;
    use smtsim_isa::{ArchReg, OpClass};

    /// A thread whose ROB is filled with hand-built entries, bypassing
    /// the pipeline (only the taint walk is under test).
    fn thread_with(entries: Vec<(Option<ArchReg>, [Option<ArchReg>; 2], bool)>) -> Thread {
        let wl = Arc::new(Workload::spec("gzip", 1, 0x1_0000, 0x1000_0000));
        let mut th = Thread::new(wl, 0, 48);
        for (tag, (dst, srcs, wrong_path)) in entries.into_iter().enumerate() {
            th.rob.push_back(InstState {
                tag: tag as u64,
                di: DynInst {
                    pc: 0x1_0000 + tag as u64 * 4,
                    seq: tag as u64,
                    op: OpClass::IntAlu,
                    dst,
                    srcs,
                    mem_addr: 0,
                    taken: false,
                    next_pc: 0,
                },
                wrong_path,
                dst_phys: None,
                old_phys: None,
                issued: false,
                executed: false,
                branch: None,
                mem: None,
                dod_hist: 0,
            });
        }
        th
    }

    fn r(i: u8) -> Option<ArchReg> {
        Some(ArchReg::int(i))
    }

    #[test]
    fn exact_dependents_follows_transitive_chain() {
        // load r1; r2 <- r1; r3 <- r2; r4 <- r5 (independent).
        let th = thread_with(vec![
            (r(1), [None, None], false),
            (r(2), [r(1), None], false),
            (r(3), [r(2), None], false),
            (r(4), [r(5), None], false),
        ]);
        assert_eq!(th.exact_dependents(0, DOD_WINDOW), 2);
    }

    #[test]
    fn exact_dependents_kill_ends_dependence() {
        // load r1; r1 <- r6 (overwrite kills the taint); r7 <- r1.
        let th = thread_with(vec![
            (r(1), [None, None], false),
            (r(1), [r(6), None], false),
            (r(7), [r(1), None], false),
        ]);
        assert_eq!(th.exact_dependents(0, DOD_WINDOW), 0);
    }

    #[test]
    fn exact_dependents_ignores_zero_register() {
        // A load whose dst is the hardwired zero has no dependents.
        let th = thread_with(vec![
            (r(31), [None, None], false),
            (r(2), [r(31), None], false),
        ]);
        assert_eq!(th.exact_dependents(0, DOD_WINDOW), 0);
    }

    #[test]
    fn exact_dependents_stops_at_wrong_path() {
        let th = thread_with(vec![
            (r(1), [None, None], false),
            (r(2), [r(1), None], false),
            (r(3), [r(1), None], true), // wrong path: walk stops here
            (r(4), [r(1), None], false),
        ]);
        assert_eq!(th.exact_dependents(0, DOD_WINDOW), 1);
    }

    #[test]
    fn exact_dependents_respects_window() {
        let mut entries = vec![(r(1), [None, None], false)];
        for _ in 0..40 {
            entries.push((r(2), [r(1), None], false));
        }
        let th = thread_with(entries);
        assert_eq!(th.exact_dependents(0, DOD_WINDOW), DOD_WINDOW as u32);
        assert_eq!(th.exact_dependents(0, 5), 5);
    }
}
