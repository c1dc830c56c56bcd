//! # smtsim-check — bounded model checking for the two-level ROB
//! transfer protocol
//!
//! The transfer protocol — detect a long-latency L2 miss, request the
//! shared second-level partition, get denied or granted, extend into
//! it, drain, release — is the correctness core of the paper's
//! contribution, and its failure modes (double release, grant while
//! held, a withheld release after a squash) are exactly the ones a
//! cycle-accurate simulator can mask for millions of cycles. This
//! crate attacks it from two sides (DESIGN.md §14):
//!
//! * **Down from the spec** — [`model`] is a small executable abstract
//!   model of the protocol (per-thread episode state machines × the
//!   shared partition), and [`explore`](mod@explore) exhaustively enumerates every
//!   interleaving within bounds, checking safety invariants as
//!   reachability and the lost-wakeup liveness property by backward
//!   reachability, reporting a *minimal* counterexample trace.
//! * **Up from the implementation** — [`monitor`] checks any real
//!   `(cycle, TraceEvent)` stream against the model (global stream
//!   checks + per-episode path acceptance), and [`replay`] drives the
//!   live simulator over paper mixes and the fuzz corpus to feed it.
//!
//! The `seeded-release-bug` feature plants a protocol bug in the
//! abstract model (a squashed trigger never starts the tenure drain);
//! the mutation self-test proves the explorer catches it with a
//! three-step counterexample — evidence the checker actually checks.

pub mod explore;
pub mod model;
pub mod monitor;
pub mod replay;

pub use explore::{explore, ExploreReport, Violation};
pub use model::{
    apply, check_invariants, deny_sound, release_allowed, successors, validate_action, Action,
    Bounds, ModelConfig, Phase, State, Tenure, MAX_MISSES, MAX_THREADS,
};
pub use monitor::{check_episode_path, check_stream, Conformance, Nonconformance};
pub use replay::{replay_case, replay_mix, replay_workloads, ReplayError, ReplayOutcome};
