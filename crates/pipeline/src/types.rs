//! In-flight instruction state and pipeline bookkeeping types.

use crate::regfile::PhysReg;
use smtsim_isa::{DynInst, ThreadId};
use smtsim_mem::Cycle;

/// Stable identity of an in-flight instruction: its thread plus a
/// per-thread monotonically increasing tag. Tags never recycle within a
/// run, so stale references (e.g. completion events for squashed
/// instructions) are detected by comparison.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstRef {
    /// Hardware thread.
    pub thread: ThreadId,
    /// Per-thread dispatch tag.
    pub tag: u64,
}

/// Branch-specific in-flight state.
#[derive(Clone, Copy, Debug)]
pub struct BranchState {
    /// gshare history snapshot at prediction.
    pub hist: u16,
    /// Set at fetch when the front end already knows the prediction
    /// disagrees with the trace (direction or target).
    pub mispredicted: bool,
}

/// Memory-op-specific in-flight state.
#[derive(Clone, Copy, Debug, Default)]
pub struct MemState {
    /// This load missed the L1 D-cache.
    pub l1_miss: bool,
    /// The L2 miss has been *detected* by the core (the
    /// `L2MissDetected` event fired) and not yet filled. Drives the
    /// per-thread pending-miss counter, so squash must decrement it
    /// when set.
    pub miss_visible: bool,
}

/// One reorder-buffer entry: a dynamic instruction plus all its pipeline
/// state. The `executed` flag is the "result valid" bit the paper's DoD
/// counting mechanism scans.
#[derive(Clone, Debug)]
pub struct InstState {
    /// Per-thread tag (== position in dispatch order).
    pub tag: u64,
    /// The dynamic instruction.
    pub di: DynInst,
    /// Fetched down a mispredicted path; will be squashed.
    pub wrong_path: bool,
    /// Renamed destination.
    pub dst_phys: Option<PhysReg>,
    /// Previous mapping of the destination architectural register.
    pub old_phys: Option<PhysReg>,
    /// Issued to a functional unit.
    pub issued: bool,
    /// Result valid (execution complete).
    pub executed: bool,
    /// Branch state, if a branch.
    pub branch: Option<BranchState>,
    /// Memory state, if a load/store.
    pub mem: Option<MemState>,
    /// Thread's global branch history when this instruction was
    /// dispatched; feeds the path-qualified DoD predictor (§4.2).
    pub dod_hist: u16,
}

/// Per-thread load/store queue entry.
#[derive(Clone, Copy, Debug)]
pub struct LsqEntry {
    /// Owning instruction tag.
    pub tag: u64,
    /// Store (true) or load (false).
    pub is_store: bool,
    /// Effective address (known from the trace; *architecturally*
    /// resolved only once address generation executes).
    pub addr: u64,
    /// Address generation has completed.
    pub resolved: bool,
}

/// Timed pipeline events, processed in [`Event`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Functional-unit / memory completion: mark executed, wake
    /// dependents, resolve branches.
    Complete,
    /// An L2 miss becomes visible to the core (DoD machinery trigger).
    L2MissDetected,
    /// An L2-missing load's fill arrives (histogram sampling point and
    /// predictor training point).
    L2Fill,
}

/// An entry in the event queue.
#[derive(Clone, Copy, Debug, Eq)]
pub struct Event {
    /// When the event fires.
    pub at: Cycle,
    /// What happens.
    pub kind: EventKind,
    /// The instruction it concerns.
    pub inst: InstRef,
    /// Physical ROB slot of `inst` when it issued: the handler's O(1)
    /// lookup, validated by tag (a squash frees the slot, a ring grow
    /// relocates it; both fall back to a search by tag). Not part of
    /// the ordering key.
    pub slot: u32,
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Time-major, then instruction identity and kind: a total,
        // deterministic processing order.
        (self.at, self.inst.thread, self.inst.tag, self.kind as u8).cmp(&(
            other.at,
            other.inst.thread,
            other.inst.tag,
            other.kind as u8,
        ))
    }
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn event_ordering_is_total_and_time_major() {
        let e1 = Event {
            at: 5,
            kind: EventKind::Complete,
            inst: InstRef { thread: 1, tag: 9 },
            slot: 0,
        };
        let e2 = Event {
            at: 6,
            kind: EventKind::Complete,
            inst: InstRef { thread: 0, tag: 1 },
            slot: 0,
        };
        assert!(e1 < e2);
        let e3 = Event {
            at: 5,
            kind: EventKind::Complete,
            inst: InstRef { thread: 0, tag: 2 },
            slot: 0,
        };
        assert!(e3 < e1, "same time orders by thread/tag");
    }

    #[test]
    fn inst_ref_ordering() {
        let a = InstRef { thread: 0, tag: 5 };
        let b = InstRef { thread: 0, tag: 6 };
        assert!(a < b);
    }
}
