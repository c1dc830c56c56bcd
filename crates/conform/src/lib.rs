//! # smtsim-conform
//!
//! Differential conformance oracle for the two-level-ROB reproduction:
//! proves that every second-level allocation scheme (R-ROB, Relaxed
//! R-ROB, CDR-ROB, P-ROB) is *timing-only* — it changes when
//! instructions commit, never what they compute.
//!
//! Three pieces (DESIGN.md §12):
//!
//! * [`reference`](mod@reference) — a small in-order functional executor over
//!   `smtsim-isa` programs producing the canonical per-thread commit
//!   stream (PC, destination register, value fingerprint, memory
//!   effects). It reimplements the `smtsim-workload` executor semantics
//!   independently, so it cross-checks the generator as well as the
//!   pipeline.
//! * [`capture`] — turns any traced `Simulator` run (the
//!   `TraceEvent::Commit` stream) into the same canonical form by
//!   replaying the committed `(pc, mem_addr, taken)` sequence through
//!   the static program.
//! * [`harness`] — runs every configuration the committed specs render
//!   ([`smtsim_rob2::committed_variants`]), each through [`traced_run`],
//!   on the same workload set and asserts all commit streams equal the
//!   reference, reporting the first divergent commit with episode
//!   context from `EpisodeReconstructor`. It also enforces two
//!   timing-side invariants that commit streams cannot see: every
//!   `CounterAtFill` DoD sample stays within the first-level window,
//!   and the static-DoD oracle records zero violations.
//!
//! [`fuzz`] drives the harness with seeded, machine-generated
//! multi-threaded workloads (pointer-chase, streaming, high/low-DoD
//! shapes via the `crates/workload` builders), filtered through
//! `smtsim-analysis` lints, with failing cases shrunk by halving basic
//! blocks. A committed corpus under `tests/corpus/` replays fully
//! offline.

pub mod capture;
pub mod fuzz;
pub mod harness;
pub mod record;
pub mod reference;

pub use capture::{capture_streams, CaptureError, CapturedStream};
pub use fuzz::{
    case_profiles, case_workloads, committed_corpus, parse_case, render_case, run_case,
    run_fresh_cases, shrink_once, CaseSpec, CaseVerdict, CorpusCase,
};
pub use harness::{check_workloads, traced_run, ConformFailure, ConformReport};
pub use record::{ArchState, CommitRecord};
pub use reference::Reference;
