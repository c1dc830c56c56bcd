//! Machine configuration (the paper's Table 1) and fetch-policy knobs.

use crate::error::SimError;
use smtsim_isa::FuTimings;
use smtsim_mem::{CacheConfig, MemConfig};

/// Dynamic resource-allocation policy constants for DCRA
/// (Cazorla et al., MICRO-37), reimplemented from its published
/// description; see DESIGN.md §3 for the approximation notes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DcraConfig {
    /// Share multiplier for memory-demanding ("slow") threads: a slow
    /// thread may occupy `slow_share` times the base share of a fast
    /// thread in the shared issue queue, the one resource DCRA caps
    /// here (registers are renamed without a cap).
    pub slow_share: u32,
}

impl Default for DcraConfig {
    fn default() -> Self {
        DcraConfig { slow_share: 2 }
    }
}

/// Instruction fetch / dispatch gating policy.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum FetchPolicyKind {
    /// Round-robin over runnable threads (simplest baseline).
    RoundRobin,
    /// ICOUNT (Tullsen et al.): prioritize threads with the fewest
    /// instructions in decode/rename/IQ.
    Icount,
    /// DCRA (Cazorla et al.): ICOUNT ordering plus per-thread caps on
    /// shared-resource usage, with slow (memory-demanding) threads
    /// granted larger shares. The paper's baseline.
    Dcra(DcraConfig),
    /// STALL (Tullsen & Brown): gate fetch for a thread with an
    /// outstanding L2 miss.
    Stall,
    /// FLUSH (Tullsen & Brown): STALL plus squashing the instructions
    /// already in the pipeline behind the missing load.
    Flush,
}

/// Full machine configuration. [`MachineConfig::icpp08`] reproduces
/// Table 1.
#[derive(Clone, Debug)]
pub struct MachineConfig {
    /// Hardware thread contexts (4 in the paper).
    pub num_threads: usize,
    /// Fetch width in instructions per cycle (8).
    pub fetch_width: usize,
    /// Maximum threads fetched per cycle (the "2" of ICOUNT 2.8).
    pub fetch_threads: usize,
    /// Cycles between fetch and earliest dispatch (front-end depth).
    pub decode_latency: u64,
    /// Per-thread fetch-queue capacity.
    pub fetch_queue: usize,
    /// Dispatch width (instructions renamed/dispatched per cycle).
    pub dispatch_width: usize,
    /// Issue width (8).
    pub issue_width: usize,
    /// Commit width (8).
    pub commit_width: usize,
    /// Shared issue-queue entries (64).
    pub iq_size: usize,
    /// Per-thread load/store queue entries (48).
    pub lsq_size: usize,
    /// Integer physical registers in the core (Table 1: 224 total).
    pub int_regs: usize,
    /// Floating-point physical registers in the core (224 total).
    pub fp_regs: usize,
    /// Organize the rename pool as one shared core-wide pool (the
    /// default, matching Table 1's single 224+224 budget and the
    /// paper's "pressure on the ... register file (RF)" analysis) or
    /// as per-thread partitions of `int_regs / num_threads` each
    /// (ablation).
    pub shared_regs: bool,
    /// Functional-unit counts and latencies.
    pub fu: FuTimings,
    /// Fetch policy.
    pub fetch_policy: FetchPolicyKind,
    /// L1 I-cache geometry.
    pub l1i: CacheConfig,
    /// L1 D-cache geometry.
    pub l1d: CacheConfig,
    /// Unified L2 geometry.
    pub l2: CacheConfig,
    /// Memory/bus timing.
    pub mem: MemConfig,
    /// Extra cycles of fetch redirect penalty after a branch
    /// misprediction resolves (on top of pipeline refill through the
    /// decode stages).
    pub redirect_penalty: u64,
    /// Watchdog: abort if no instruction commits for this many cycles
    /// (catches model deadlocks in development and CI).
    pub deadlock_cycles: u64,
    /// Run the deep cross-structure invariant scan
    /// ([`crate::Simulator::check_invariants`] plus the allocation
    /// policy's self-audit) every this many cycles; `0` disables it.
    /// The O(threads) conservation checks are always on regardless —
    /// this knob only controls the O(machine-state) scan, which is too
    /// slow for measurement runs but cheap insurance in tests and CI.
    pub invariant_interval: u64,
}

impl MachineConfig {
    /// The paper's Table 1 machine: 8-wide, 4 threads, 64-entry shared
    /// IQ, 48-entry LSQs, 224+224 physical registers, DCRA fetch.
    pub fn icpp08() -> Self {
        MachineConfig {
            num_threads: 4,
            fetch_width: 8,
            fetch_threads: 2,
            decode_latency: 3,
            fetch_queue: 16,
            dispatch_width: 8,
            issue_width: 8,
            commit_width: 8,
            iq_size: 64,
            lsq_size: 48,
            int_regs: 224,
            fp_regs: 224,
            shared_regs: true,
            fu: FuTimings::icpp08(),
            fetch_policy: FetchPolicyKind::Dcra(DcraConfig::default()),
            l1i: CacheConfig::l1i_icpp08(),
            l1d: CacheConfig::l1d_icpp08(),
            l2: CacheConfig::l2_icpp08(),
            mem: MemConfig::icpp08(),
            redirect_penalty: 2,
            deadlock_cycles: 1_000_000,
            invariant_interval: 0,
        }
    }

    /// Same machine with a single hardware thread (for the
    /// single-threaded runs that normalize weighted IPC).
    pub fn icpp08_single() -> Self {
        MachineConfig {
            num_threads: 1,
            fetch_threads: 1,
            ..MachineConfig::icpp08()
        }
    }

    /// Validates structural constraints.
    pub fn validate(&self) -> Result<(), SimError> {
        let fail = |reason: String| Err(SimError::InvalidConfig { reason });
        if self.num_threads == 0 || self.num_threads > smtsim_isa::MAX_THREADS {
            return fail("num_threads out of range".into());
        }
        if self.fetch_threads == 0 || self.fetch_threads > self.num_threads {
            return fail("fetch_threads out of range".into());
        }
        for (name, v) in [
            ("fetch_width", self.fetch_width),
            ("dispatch_width", self.dispatch_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
            ("iq_size", self.iq_size),
            ("lsq_size", self.lsq_size),
            ("fetch_queue", self.fetch_queue),
        ] {
            if v == 0 {
                return fail(format!("{name} must be nonzero"));
            }
        }
        // Each thread permanently pins one physical register per
        // architectural register; there must be headroom to rename.
        if self.int_regs / self.num_threads <= smtsim_isa::NUM_ARCH_INT {
            return fail(format!(
                "int_regs {} cannot cover {} threads' architectural state",
                self.int_regs, self.num_threads
            ));
        }
        if self.fp_regs / self.num_threads <= smtsim_isa::NUM_ARCH_FP {
            return fail(format!(
                "fp_regs {} cannot cover {} threads' architectural state",
                self.fp_regs, self.num_threads
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_values() {
        let c = MachineConfig::icpp08();
        c.validate().unwrap();
        assert_eq!(c.num_threads, 4);
        assert_eq!(c.fetch_width, 8);
        assert_eq!(c.issue_width, 8);
        assert_eq!(c.commit_width, 8);
        assert_eq!(c.iq_size, 64);
        assert_eq!(c.lsq_size, 48);
        assert_eq!(c.int_regs, 224);
        assert_eq!(c.fp_regs, 224);
        assert!(matches!(c.fetch_policy, FetchPolicyKind::Dcra(_)));
    }

    #[test]
    fn single_thread_variant() {
        let c = MachineConfig::icpp08_single();
        c.validate().unwrap();
        assert_eq!(c.num_threads, 1);
        assert_eq!(c.iq_size, 64);
    }

    #[test]
    fn validate_catches_register_starvation() {
        let mut c = MachineConfig::icpp08();
        c.int_regs = 128; // exactly the pinned demand of 4 threads
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_zero_widths() {
        let mut c = MachineConfig::icpp08();
        c.issue_width = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_catches_fetch_threads() {
        let mut c = MachineConfig::icpp08();
        c.fetch_threads = 5;
        assert!(c.validate().is_err());
    }

    #[test]
    fn dcra_default_share() {
        assert_eq!(DcraConfig::default().slow_share, 2);
    }

    #[test]
    fn validate_returns_typed_error() {
        let mut c = MachineConfig::icpp08();
        c.iq_size = 0;
        match c.validate() {
            Err(SimError::InvalidConfig { reason }) => {
                assert!(reason.contains("iq_size"), "{reason}");
            }
            other => panic!("expected InvalidConfig, got {other:?}"),
        }
    }

    #[test]
    fn invariant_interval_defaults_off() {
        assert_eq!(MachineConfig::icpp08().invariant_interval, 0);
    }
}
