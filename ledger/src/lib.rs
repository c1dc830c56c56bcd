//! `smtsim-ledger`: the layered host-time benchmark of the simulator.
//!
//! End-to-end numbers are what a user of this reproduction waits for —
//! a figure run, the whole suite, a served request — measured through
//! child processes of the `ledger` binary that call the product entry
//! points directly. Per-layer numbers come from a separate traced pass
//! that replays the same work in-process, one span per call into each
//! layer's public functions; nothing inside the program changes. Every
//! output byte is checked. See `README.md` next to this crate for the
//! workloads, the metrics and the layer → end-to-end map.

pub mod child;
pub mod client;
pub mod clock;
pub mod compare;
pub mod json;
pub mod measure;
pub mod metrics;
pub mod plan;
pub mod replay;
pub mod report;
pub mod span;
pub mod stats;
pub mod workload;
