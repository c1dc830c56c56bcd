//! Typed simulation errors.
//!
//! The simulator's integrity machinery — configuration validation, the
//! no-commit-progress watchdog, and the invariant checker — reports
//! failures as [`SimError`] values through
//! [`SimulatorBuilder::build`], [`Simulator::try_step`] and
//! [`Simulator::try_run`] instead of aborting the process. The
//! panicking [`Simulator::step`] and [`Simulator::run`] remain as thin
//! wrappers for callers that treat any model failure as fatal;
//! harnesses that sweep many configurations (the `Lab` in
//! `smtsim-rob2`) use the `try_` forms so one poisoned cell cannot
//! take down a whole experiment.
//!
//! [`SimulatorBuilder::build`]: crate::SimulatorBuilder::build
//! [`Simulator::try_step`]: crate::Simulator::try_step
//! [`Simulator::try_run`]: crate::Simulator::try_run
//! [`Simulator::step`]: crate::Simulator::step
//! [`Simulator::run`]: crate::Simulator::run

use smtsim_isa::OpClass;
use smtsim_mem::Cycle;
use std::fmt;

/// Why a simulation could not continue.
#[derive(Clone, Debug, PartialEq)]
pub enum SimError {
    /// The watchdog saw no instruction commit for
    /// `MachineConfig::deadlock_cycles` consecutive cycles. Carries a
    /// machine-state snapshot for diagnosis.
    Deadlock {
        /// Per-thread and shared-structure state at detection time.
        snapshot: Box<DeadlockSnapshot>,
    },
    /// A cross-structure consistency check failed: the model reached a
    /// state that no correct hardware could be in (conservation,
    /// ordering or synchronization breakage).
    InvariantViolation {
        /// Cycle at which the violation was detected.
        cycle: Cycle,
        /// Which check failed and the observed values.
        detail: String,
    },
    /// The machine configuration or workload set is structurally
    /// invalid; the simulator was never constructed.
    InvalidConfig {
        /// Which constraint was violated.
        reason: String,
    },
    /// A sweep cell panicked. The crash-isolated sweep engine
    /// (`Lab::sweep_cells` in `smtsim-rob2`) catches the unwind, converts it
    /// to this typed error and keeps the remaining cells running; the
    /// cell renders as `n/a` like any other failed cell.
    CellPanic {
        /// The panic payload, when it was a string (the common case).
        reason: String,
    },
    /// The per-cell watchdog budget (`RunBudget`) expired before the
    /// stop condition was reached: the simulated-cycle ceiling or the
    /// wall-clock ceiling was exhausted, or the sweep engine cancelled
    /// the cell through its [`CancelToken`](crate::CancelToken). Like
    /// [`SimError::CellPanic`], the cell renders as `n/a` with a note
    /// and the remaining cells keep running.
    CellTimeout {
        /// Cycle at which the budget check fired.
        cycle: Cycle,
        /// Which ceiling expired and its configured value.
        detail: String,
    },
}

impl SimError {
    /// Short machine-readable kind tag (stable across messages; used by
    /// sweep reports to label failed cells).
    pub fn kind(&self) -> &'static str {
        match self {
            SimError::Deadlock { .. } => "deadlock",
            SimError::InvariantViolation { .. } => "invariant-violation",
            SimError::InvalidConfig { .. } => "invalid-config",
            SimError::CellPanic { .. } => "panic",
            SimError::CellTimeout { .. } => "timeout",
        }
    }

    /// Whether a sweep may retry this cell: transient failure modes
    /// (panic, watchdog timeout, deadlock — the signature of an
    /// injected fault wedging the machine) can succeed on a clean
    /// re-run, while configuration and invariant errors are
    /// deterministic and retrying would only repeat them.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            SimError::CellPanic { .. } | SimError::CellTimeout { .. } | SimError::Deadlock { .. }
        )
    }
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Deadlock { snapshot } => write!(f, "{snapshot}"),
            SimError::InvariantViolation { cycle, detail } => {
                write!(f, "invariant violation at cycle {cycle}: {detail}")
            }
            SimError::InvalidConfig { reason } => {
                write!(f, "invalid configuration: {reason}")
            }
            SimError::CellPanic { reason } => {
                write!(f, "cell panicked: {reason}")
            }
            SimError::CellTimeout { cycle, detail } => {
                write!(f, "cell timed out at cycle {cycle}: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The reorder-buffer head of one thread at deadlock time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HeadSnapshot {
    /// ROB tag of the oldest in-flight instruction.
    pub tag: u64,
    /// Its operation class.
    pub op: OpClass,
    /// Has it issued?
    pub issued: bool,
    /// Has it executed (result valid)?
    pub executed: bool,
}

/// One thread's state in a [`DeadlockSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub struct ThreadSnapshot {
    /// ROB occupancy.
    pub rob_len: usize,
    /// The allocation policy's current capacity grant.
    pub rob_cap: usize,
    /// Shared-IQ entries held.
    pub iq_use: usize,
    /// ICOUNT metric (front end + unissued IQ entries).
    pub icount: usize,
    /// Oldest in-flight instruction, if any.
    pub head: Option<HeadSnapshot>,
    /// Front end halted awaiting a redirect.
    pub fetch_halted: bool,
    /// Front end stalled until this cycle.
    pub fetch_stall_until: Cycle,
    /// Fetching fabricated wrong-path instructions.
    pub in_wrong_path: bool,
    /// Detected, unfilled L2 misses in flight.
    pub pending_l2: usize,
}

/// Machine state captured when the deadlock watchdog fires — everything
/// needed to tell a starved thread from a lost wakeup from a policy
/// that stopped granting capacity.
#[derive(Clone, Debug, PartialEq)]
pub struct DeadlockSnapshot {
    /// The watchdog threshold that fired.
    pub deadlock_cycles: u64,
    /// Cycle at detection.
    pub now: Cycle,
    /// Active ROB-policy name.
    pub policy: String,
    /// Per-thread state.
    pub threads: Vec<ThreadSnapshot>,
    /// Shared-IQ occupancy.
    pub iq_len: usize,
    /// Shared-IQ capacity.
    pub iq_size: usize,
    /// Free integer rename registers visible to thread 0.
    pub int_free_t0: usize,
    /// Free floating-point rename registers visible to thread 0.
    pub fp_free_t0: usize,
}

impl fmt::Display for DeadlockSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "deadlock: no commit for {} cycles (now={}, policy={})",
            self.deadlock_cycles, self.now, self.policy
        )?;
        for (t, th) in self.threads.iter().enumerate() {
            writeln!(
                f,
                "  t{t}: rob={}/{} iq_use={} icount={} head={:?} halted={} stall_until={} wrong_path={} pend_l2={}",
                th.rob_len,
                th.rob_cap,
                th.iq_use,
                th.icount,
                th.head.map(|h| (h.tag, h.op, h.issued, h.executed)),
                th.fetch_halted,
                th.fetch_stall_until,
                th.in_wrong_path,
                th.pending_l2,
            )?;
        }
        write!(
            f,
            "  iq={}/{} int_free(t0)={} fp_free(t0)={}",
            self.iq_len, self.iq_size, self.int_free_t0, self.fp_free_t0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> DeadlockSnapshot {
        DeadlockSnapshot {
            deadlock_cycles: 1000,
            now: 1001,
            policy: "Baseline_32".into(),
            threads: vec![ThreadSnapshot {
                rob_len: 32,
                rob_cap: 32,
                iq_use: 4,
                icount: 8,
                head: Some(HeadSnapshot {
                    tag: 17,
                    op: OpClass::Load,
                    issued: true,
                    executed: false,
                }),
                fetch_halted: false,
                fetch_stall_until: 0,
                in_wrong_path: false,
                pending_l2: 1,
            }],
            iq_len: 12,
            iq_size: 64,
            int_free_t0: 3,
            fp_free_t0: 40,
        }
    }

    #[test]
    fn deadlock_display_carries_diagnostics() {
        let e = SimError::Deadlock {
            snapshot: Box::new(snapshot()),
        };
        let msg = e.to_string();
        assert!(msg.contains("no commit for 1000 cycles"));
        assert!(msg.contains("t0: rob=32/32"));
        assert!(msg.contains("pend_l2=1"));
        assert!(msg.contains("iq=12/64"));
        assert_eq!(e.kind(), "deadlock");
    }

    #[test]
    fn invariant_display() {
        let e = SimError::InvariantViolation {
            cycle: 42,
            detail: "t0: ROB occupancy 33 exceeds bound".into(),
        };
        assert!(e.to_string().contains("cycle 42"));
        assert_eq!(e.kind(), "invariant-violation");
    }

    #[test]
    fn cell_panic_display() {
        let e = SimError::CellPanic {
            reason: "mix index 99 out of range 1..=11".into(),
        };
        assert!(e.to_string().contains("cell panicked"));
        assert!(e.to_string().contains("out of range"));
        assert_eq!(e.kind(), "panic");
    }

    #[test]
    fn cell_timeout_display_and_transience() {
        let e = SimError::CellTimeout {
            cycle: 4096,
            detail: "cycle budget of 4096 simulated cycles exhausted".into(),
        };
        assert!(e.to_string().contains("timed out at cycle 4096"));
        assert!(e.to_string().contains("cycle budget"));
        assert_eq!(e.kind(), "timeout");
        assert!(e.is_transient());
        assert!(SimError::CellPanic { reason: "x".into() }.is_transient());
        assert!(!SimError::InvalidConfig { reason: "x".into() }.is_transient());
        assert!(!SimError::InvariantViolation {
            cycle: 1,
            detail: "x".into()
        }
        .is_transient());
    }

    #[test]
    fn invalid_config_display() {
        let e = SimError::InvalidConfig {
            reason: "iq_size must be nonzero".into(),
        };
        assert!(e.to_string().contains("iq_size"));
        assert_eq!(e.kind(), "invalid-config");
    }
}
