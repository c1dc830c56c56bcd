//! # smtsim-pipeline
//!
//! A cycle-level simultaneous-multithreading (SMT) out-of-order
//! processor model — the M-Sim-equivalent substrate for the two-level
//! reorder buffer reproduction (Loew & Ponomarev, ICPP 2008).
//!
//! The model implements the paper's Table 1 machine: an 8-wide
//! fetch/issue/commit core with per-thread front ends, shared rename
//! register files (224 int + 224 fp), a shared 64-entry issue queue,
//! per-thread 48-entry load/store queues and per-thread reorder buffers
//! whose *capacity is a policy decision* — the hook through which the
//! paper's two-level ROB (crate `smtsim-rob2`) plugs in. Fetch is
//! governed by ICOUNT, DCRA (the paper's baseline), STALL, FLUSH or
//! round-robin policies.
//!
//! ```
//! use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
//! use smtsim_workload::Workload;
//! use std::sync::Arc;
//!
//! let cfg = MachineConfig::icpp08_single();
//! let wl = Arc::new(Workload::spec("gzip", 1, 0x1_0000, 0x1000_0000));
//! let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), 7)
//!     .build()
//!     .expect("valid configuration");
//! let stats = sim.run(StopCondition::AnyThreadCommitted(5_000));
//! assert!(stats.threads[0].committed >= 5_000);
//! ```

// The cycle loop is load-bearing for every experiment in the repo: a
// stray unwrap in a stage turns a model bug into a process abort that
// takes a whole sweep down. Production code must route failures through
// `SimError` / `Simulator::report_integrity`; the few sites where an
// Option is structurally impossible carry a local `#[allow]` with an
// `// invariant:` justification. (Tests are exempt.)
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod budget;
pub mod builder;
pub mod config;
pub mod core;
pub mod error;
pub(crate) mod event_queue;
pub mod fault;
pub mod fu;
pub mod regfile;
pub mod rob_policy;
pub(crate) mod soa;
pub mod stages;
pub mod stats;
pub mod types;

pub use budget::{CancelToken, RunBudget, BUDGET_POLL_INTERVAL};
pub use builder::SimulatorBuilder;
pub use config::{DcraConfig, FetchPolicyKind, MachineConfig};
pub use core::{Simulator, StopCondition};
pub use error::{DeadlockSnapshot, HeadSnapshot, SimError, ThreadSnapshot};
pub use fault::{FaultPlan, FaultStats};
pub use fu::FuPool;
pub use regfile::{PhysReg, RegFiles};
pub use rob_policy::{DodBounds, FixedRob, MissEvent, RobAllocator, RobQuery, DOD_WINDOW};
pub use smtsim_obs::{NoopTracer, TraceEvent, TraceLog, Tracer};
pub use stats::{DodHistogram, DodOracleStats, SimStats, ThreadStats};
pub use types::{InstRef, InstState};
