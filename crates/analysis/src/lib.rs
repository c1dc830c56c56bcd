//! Static analysis over smtsim programs: the dependence graph, exact
//! Degree-of-Dependence bounds, and program lints.
//!
//! The paper's DoD counter (§4.1) and PC-indexed predictors (§4.2) are
//! *approximations* of the true number of load-dependent in-flight
//! instructions. Generated programs are static CFGs with fixed register
//! dataflow, so the true quantity has statically computable bounds —
//! this crate computes them and the simulator harness uses them as an
//! oracle: the exact dependent count measured at L2-fill time must
//! never exceed [`dod::LoadBounds::max`], and the gap between the
//! hardware's unexecuted-entry count and the exact count is the
//! *counter error* reported per scheme.
//!
//! Passes:
//! * [`depgraph`] — interprocedural def-use / data-dependence graph
//!   with DOT and JSON export;
//! * [`dod`] — per-static-load min/max dependent instructions within a
//!   `W`-instruction window (`W` = the 32-entry first-level ROB minus
//!   the load itself);
//! * [`lint`] — well-formedness lints (use-before-def, unreachable
//!   blocks, no-progress trap loops, dangling stream ids);
//! * [`cfg`](mod@cfg) — shared semantic-CFG scaffolding.
//!
//! The `analyze` binary drives all of them over generated workloads.

pub mod cfg;
pub mod depgraph;
pub mod dod;
pub mod lint;

pub use depgraph::{DepEdge, DepGraph, EntryUse};
pub use dod::{DodAnalysis, LoadBounds, L1_WINDOW};
pub use lint::{has_errors, lint_program, lint_workload, Finding, Rule, Severity};
