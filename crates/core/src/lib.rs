//! # smtsim-rob2 — Two-Level Reorder Buffers for SMT processors
//!
//! A from-scratch Rust reproduction of *"Two-Level Reorder Buffers:
//! Accelerating Memory-Bound Applications on SMT Architectures"*
//! (Jason Loew and Dmitry Ponomarev, ICPP 2008).
//!
//! This crate contains the paper's contribution and its evaluation
//! harness:
//!
//! * [`TwoLevelRob`] — the two-level ROB allocator with all four
//!   schemes (reactive R-ROB, relaxed R-ROB, count-delayed CDR-ROB and
//!   predictive P-ROB), including the low-complexity
//!   Degree-of-Dependence counter and the §4.2 DoD predictors;
//! * [`metrics`] — weighted IPC and the Fair Throughput (harmonic-mean)
//!   metric the paper reports;
//! * [`Lab`] / [`figures`] — the experiment driver regenerating every
//!   figure and table of §5 over the Table 2 benchmark mixes, each
//!   defined by its committed [`spec`] file;
//! * [`report`] — text rendering in the paper's row/series layout;
//! * [`cache`] — the persistent content-addressed result cache offline
//!   sweeps and the serve daemon share;
//! * [`knobs`] — the one knob table, parsed from the environment,
//!   merged with a spec and lowered into a [`Lab`].
//!
//! The substrates live in sibling crates: the cycle-level SMT pipeline
//! (`smtsim-pipeline`), memory hierarchy (`smtsim-mem`), predictors
//! (`smtsim-predict`) and synthetic SPEC-2000-like workloads
//! (`smtsim-workload`).
//!
//! ```
//! use smtsim_rob2::{Lab, RobConfig, TwoLevelConfig};
//!
//! let mut lab = Lab::new(42).with_budgets(5_000, 5_000);
//! let base = lab.run_mix(1, RobConfig::Baseline(32));
//! let two = lab.run_mix(1, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)));
//! println!("FT {:.3} -> {:.3}", base.ft, two.ft);
//! ```

pub mod cache;
pub mod experiment;
pub mod figures;
pub mod journal;
pub mod knobs;
pub mod metrics;
pub mod report;
pub mod spec;
pub mod twolevel;

pub use cache::ResultCache;
pub use experiment::{
    fan_out, CellOutcome, Lab, MixRun, NormTable, RobConfig, SweepCell, SweepHealth, SweepPlan,
    SweepReport, TracedMixRun,
};
pub use figures::{AccuracyData, AccuracyRow, FigureData, HistogramData, Series, ALL_MIXES};
pub use journal::{Journal, JournalEntry, JournalError};
pub use knobs::{Knob, Knobs, KNOBS};
pub use metrics::{fair_throughput, harmonic_mean, improvement, mean, weighted_ipc};
pub use spec::{
    committed_specs, committed_variants, spec_dir, ExperimentSpec, SpecError, SpecKind, SpecVariant,
};
pub use twolevel::{
    DodPredictorKind, ReleasePolicy, Scheme, SchemeKind, TwoLevelConfig, TwoLevelRob, TwoLevelStats,
};
