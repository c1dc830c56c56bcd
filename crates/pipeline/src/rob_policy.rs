//! Reorder-buffer capacity policy abstraction.
//!
//! The pipeline treats ROB capacity as a per-thread, per-cycle quantity
//! supplied by a [`RobAllocator`]. The plain machine uses [`FixedRob`]
//! (the paper's Baseline_32 / Baseline_128); the paper's contribution —
//! the two-level ROB schemes — lives in the `smtsim-rob2` crate and
//! plugs in through the same trait.
//!
//! The allocator observes the machine through [`RobQuery`], which
//! exposes exactly what the paper's hardware mechanism can see: ROB
//! occupancies, the oldest-instruction identity, and the count of
//! not-yet-executed ("result valid" bit clear) entries behind a given
//! instruction — the low-complexity Degree-of-Dependence counter of
//! §4.1.

use smtsim_isa::ThreadId;
use smtsim_mem::Cycle;
use std::collections::BTreeMap;

/// Entries the paper's 5-bit DoD counter scans: the 32-entry first
/// level minus the missing load itself.
pub const DOD_WINDOW: usize = 31;

/// Static per-load upper bounds on the number of *register-dependent*
/// instructions that can appear within the first [`DOD_WINDOW`] younger
/// instructions of a load, computed offline by the `smtsim-analysis`
/// dependence pass over the workload's program and installed via
/// `SimulatorBuilder::dod_bounds`.
///
/// The pipeline uses the table as an oracle: at every L2 fill it walks
/// the register taint forward from the load over the younger
/// correct-path ROB entries — the *exact* dependent count the hardware
/// DoD counter of §4.1 approximates — and checks it never exceeds the
/// static bound. Note the oracle constrains the exact count, not the
/// hardware counter itself: the counter reads "unexecuted", which also
/// picks up independent instructions stalled behind overlapping misses,
/// so it may legitimately exceed the static dependence bound. The gap
/// between the two is recorded as the counter-error statistics.
#[derive(Clone, Debug, Default)]
pub struct DodBounds {
    max: BTreeMap<u64, u32>,
}

impl DodBounds {
    /// Wraps a `load pc -> static max dependents` table.
    pub fn new(max: BTreeMap<u64, u32>) -> Self {
        DodBounds { max }
    }

    /// The static bound for the load at `pc`, if analyzed.
    pub fn lookup(&self, pc: u64) -> Option<u32> {
        self.max.get(&pc).copied()
    }

    /// Number of loads with a bound.
    pub fn len(&self) -> usize {
        self.max.len()
    }

    /// True when no load has a bound.
    pub fn is_empty(&self) -> bool {
        self.max.is_empty()
    }
}

/// Read-only view of the ROBs offered to allocation policies.
pub trait RobQuery {
    /// Number of threads.
    fn num_threads(&self) -> usize;
    /// Current ROB occupancy of `thread`.
    fn occupancy(&self, thread: ThreadId) -> usize;
    /// Tag of the oldest in-flight instruction, if any.
    fn oldest_tag(&self, thread: ThreadId) -> Option<u64>;
    /// Is `tag` still in flight for `thread`?
    fn in_flight(&self, thread: ThreadId, tag: u64) -> bool;
    /// The paper's DoD counter: scans ROB entries *younger* than `tag`
    /// whose position from the ROB head is below `window`, counting
    /// those with the result-valid bit clear. Returns `None` if `tag`
    /// is no longer in flight.
    fn count_unexecuted_younger(&self, thread: ThreadId, tag: u64, window: usize) -> Option<u32>;
    /// Does `thread` have an in-flight load with a detected,
    /// not-yet-filled L2 miss?
    fn has_pending_l2_miss(&self, thread: ThreadId) -> bool;
}

/// Notification of an L2-miss lifecycle event delivered to the
/// allocator.
#[derive(Clone, Copy, Debug)]
pub struct MissEvent {
    /// Thread owning the load.
    pub thread: ThreadId,
    /// The load's ROB tag.
    pub tag: u64,
    /// The load's PC (for DoD prediction).
    pub pc: u64,
    /// Branch-history snapshot of the thread at the load (for the
    /// path-qualified predictor).
    pub hist: u16,
    /// The load is on a mispredicted (wrong) path.
    pub wrong_path: bool,
}

/// A ROB capacity policy.
pub trait RobAllocator {
    /// Effective ROB capacity for `thread` this cycle. Dispatch stalls
    /// the thread when its occupancy reaches this value.
    fn capacity(&self, thread: ThreadId) -> usize;

    /// Called once per cycle (after writeback, before dispatch) so the
    /// policy can run its timers/rechecks and perform allocations.
    fn tick(&mut self, view: &dyn RobQuery, now: Cycle);

    /// An L2 miss was detected for a load.
    fn on_l2_miss(&mut self, view: &dyn RobQuery, ev: MissEvent, now: Cycle);

    /// The fill for an L2-missing load arrived (the load completes).
    /// `counted_dod` is the hardware count of unexecuted instructions
    /// behind the load at fill time (predictor training data, §4.2).
    fn on_l2_fill(&mut self, view: &dyn RobQuery, ev: MissEvent, counted_dod: u32, now: Cycle);

    /// `thread` squashed all instructions with tags >= `first_tag` at
    /// cycle `now` (so policies can timestamp squash-driven state
    /// transitions, e.g. the start of a tenure drain).
    fn on_squash(&mut self, thread: ThreadId, first_tag: u64, now: Cycle);

    /// Human-readable policy name for reports.
    fn name(&self) -> String;

    /// Total ROB entries a single thread could ever hold (used for
    /// sizing diagnostics); for two-level designs this is L1 + L2.
    fn max_capacity(&self) -> usize;

    /// Upper bound on the *total* ROB entries the machine may hold
    /// across all threads under this policy — the conservation law the
    /// simulator's per-cycle integrity check enforces (Σ occupancy must
    /// never exceed it, even while capacity grants shrink below
    /// occupancy during a drain).
    ///
    /// The default — every thread simultaneously at `max_capacity` —
    /// is exact for fixed partitions; policies that share structure
    /// between threads (a two-level ROB shares its second level)
    /// override it with the tighter physical budget.
    fn conservation_bound(&self, num_threads: usize) -> usize {
        num_threads * self.max_capacity()
    }

    /// Deep self-audit: verify the policy's internal bookkeeping is
    /// consistent with the machine state it has been told about,
    /// returning a description of the first inconsistency. Called by
    /// the simulator's periodic invariant scan
    /// (`MachineConfig::invariant_interval`); `None` = consistent.
    fn audit(&self, _view: &dyn RobQuery) -> Option<String> {
        None
    }

    /// Downcast hook so harnesses can retrieve policy-specific
    /// statistics after a run.
    fn as_any(&self) -> &dyn std::any::Any;

    /// Enables or disables event tracing inside the policy. Policies
    /// that emit [`smtsim_obs::TraceEvent`]s buffer them internally
    /// (they cannot reach the simulator's tracer directly — the
    /// allocator is a trait object below the generic); the simulator
    /// drains the buffer once per cycle via
    /// [`RobAllocator::drain_trace`]. Default: tracing unsupported.
    fn set_tracing(&mut self, _enabled: bool) {}

    /// Drains the policy's buffered trace events (empty unless
    /// [`RobAllocator::set_tracing`] enabled buffering).
    fn drain_trace(&mut self) -> Vec<(Cycle, smtsim_obs::TraceEvent)> {
        Vec::new()
    }

    /// Cycle-skip contract: the earliest future cycle at which this
    /// policy's [`RobAllocator::tick`] may do *anything* (allocate,
    /// release, emit a trace event, mutate statistics other than
    /// through [`RobAllocator::on_cycles_skipped`]) given the current
    /// machine state, assuming no event, commit, dispatch, fetch or
    /// squash happens in the meantime. Returning `c` promises every
    /// tick strictly before `c` is a no-op on a quiescent machine,
    /// licensing the simulator to skip those cycles; return `0` when
    /// tick acts now and [`Cycle::MAX`] when it never acts.
    fn skip_quiesce(&self, view: &dyn RobQuery) -> Cycle;

    /// The simulator skipped `skipped` quiescent cycles in one jump;
    /// policies with per-cycle accumulators (e.g. a held-extension
    /// cycle counter bumped in `tick`) replicate them here so
    /// statistics match the unskipped execution exactly.
    fn on_cycles_skipped(&mut self, _skipped: u64) {}
}

/// Fixed private per-thread ROBs — the paper's baseline machines
/// (`Baseline_32`, `Baseline_128`).
#[derive(Clone, Debug)]
pub struct FixedRob {
    entries: usize,
}

impl FixedRob {
    /// Creates the baseline policy with `entries` per thread.
    pub fn new(entries: usize) -> Self {
        assert!(entries > 0);
        FixedRob { entries }
    }
}

impl RobAllocator for FixedRob {
    fn capacity(&self, _thread: ThreadId) -> usize {
        self.entries
    }

    fn tick(&mut self, _view: &dyn RobQuery, _now: Cycle) {}

    fn on_l2_miss(&mut self, _view: &dyn RobQuery, _ev: MissEvent, _now: Cycle) {}

    fn on_l2_fill(&mut self, _view: &dyn RobQuery, _ev: MissEvent, _dod: u32, _now: Cycle) {}

    fn on_squash(&mut self, _thread: ThreadId, _first_tag: u64, _now: Cycle) {}

    fn name(&self) -> String {
        format!("Baseline_{}", self.entries)
    }

    fn max_capacity(&self) -> usize {
        self.entries
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    /// The baseline's tick never acts: quiescent forever.
    fn skip_quiesce(&self, _view: &dyn RobQuery) -> Cycle {
        Cycle::MAX
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_rob_reports_constant_capacity() {
        let f = FixedRob::new(32);
        assert_eq!(f.capacity(0), 32);
        assert_eq!(f.capacity(3), 32);
        assert_eq!(f.max_capacity(), 32);
        assert_eq!(f.name(), "Baseline_32");
    }

    #[test]
    fn fixed_rob_conservation_is_exact_partition() {
        let f = FixedRob::new(32);
        assert_eq!(f.conservation_bound(4), 128);
        assert_eq!(f.conservation_bound(1), 32);
    }

    #[test]
    #[should_panic]
    fn zero_entries_rejected() {
        let _ = FixedRob::new(0);
    }

    #[test]
    fn dod_bounds_lookup() {
        let empty = DodBounds::default();
        assert!(empty.is_empty());
        assert_eq!(empty.lookup(0x100), None);
        let b = DodBounds::new(BTreeMap::from([(0x100u64, 5u32), (0x104, 0)]));
        assert_eq!(b.len(), 2);
        assert_eq!(b.lookup(0x100), Some(5));
        assert_eq!(b.lookup(0x104), Some(0));
        assert_eq!(b.lookup(0x108), None);
    }
}
