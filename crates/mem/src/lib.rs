//! # smtsim-mem
//!
//! Cache hierarchy, MSHRs and memory-bus timing for the two-level-ROB
//! reproduction (Loew & Ponomarev, ICPP 2008). Implements the Table 1
//! memory system: split 1-cycle L1 caches, a 10-cycle unified 2 MB L2,
//! and a 64-bit memory bus with 500-cycle first-chunk / 2-cycle
//! interchunk timing.
//!
//! The model is query-driven (no event queue): the core asks for an
//! access at a given cycle and receives the completion time, with MSHR
//! coalescing, MSHR capacity limits, and bus serialization of line
//! transfers all folded into the answer. See [`Hierarchy`].

pub mod cache;
pub mod hierarchy;
pub mod mshr;

pub use cache::{Cache, CacheConfig, Evicted};
pub use hierarchy::{AccessResult, Hierarchy, MemConfig};
pub use mshr::Mshr;

/// Simulation time in core clock cycles.
pub type Cycle = u64;
