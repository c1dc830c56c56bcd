//! Sweep-as-a-service: the `smtsim-serve` daemon (DESIGN.md §17).
//!
//! An offline `spec` run rebuilds its world per invocation: labs,
//! normalization runs and sweep results all die with the process. This
//! crate turns the sweep engine into a long-running service. A daemon
//! listens on a Unix socket for line-delimited JSON requests carrying
//! an [`ExperimentSpec`] (inline TOML body or committed registry id),
//! expands each spec into its `mix × config` cell matrix, shards the
//! cells over a shared worker pool — reusing the `RunBudget`
//! watchdogs, `CellPanic`/`CellTimeout` isolation and retry layer of
//! the sweep engine cell for cell — and streams per-cell results back
//! incrementally, one JSON line each, followed by the fully rendered
//! figure.
//!
//! Results land in the **persistent content-addressed cache** the
//! offline bins use too ([`ResultCache`], `SMTSIM_JOURNAL`): one
//! sweep-journal file per *experiment universe*
//! ([`Lab::journal_universe`]), each record keyed by the existing
//! `cell_key(mix, RobConfig::fingerprint())`. Identical cells from
//! different specs, from a daemon restarted on the same cache
//! directory, or from an offline `spec` run that filled it are served
//! from disk instead of recomputed, and the warm normalization tables
//! are kept in memory per universe across requests. A corrupted record
//! surfaces as a typed `JournalError::Corrupt`, never as wrong bytes.
//! The terminal figure is assembled from the very outcomes the workers
//! streamed, through the same code the offline sweep renders with.
//!
//! Multi-client behaviour: requests are admitted up to a bounded
//! queue (a full queue answers a typed *retryable* rejection without
//! ever blocking the accept loop), cells are scheduled round-robin
//! across active requests (fair multi-client progress), a cell
//! already being computed for one request is *deferred* for any other
//! (single-flight — it resolves as a cache hit once the first
//! computation lands), and a client that disconnects mid-stream has
//! its queued cells cancelled immediately and its in-flight cells
//! within one watchdog poll via the per-request [`CancelToken`].
//! Cache hit/miss/in-flight counters are exported through
//! `smtsim-obs`'s `MetricsRegistry` and served over the protocol.
//!
//! The daemon is deliberately **env-free**: it consumes a typed
//! [`ServeConfig`] plus the [`Knobs`] its caller parsed, and lowers
//! every spec through the same [`Knobs`] lowering the offline bins use
//! — which is what makes the served bytes provably identical to the
//! offline `spec` bin (`tests/serve.rs`).
//!
//! [`ExperimentSpec`]: smtsim_rob2::ExperimentSpec
//! [`Knobs`]: smtsim_rob2::Knobs
//! [`Lab::journal_universe`]: smtsim_rob2::Lab::journal_universe
//! [`ResultCache`]: smtsim_rob2::ResultCache
//! [`CancelToken`]: smtsim_pipeline::CancelToken

pub mod protocol;
pub mod server;

pub use protocol::{Request, SpecSource};
pub use server::{ServeConfig, Server, SpecLowering};
