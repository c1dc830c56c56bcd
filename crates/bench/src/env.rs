//! The single funnel for environment-knob parsing.
//!
//! Every knob the harness binaries and benches consume is read here,
//! once, into a typed [`BenchEnv`] — no other module in the workspace
//! reads `std::env::var` (enforced by `cargo xtask lint`). The knob
//! table lives on the crate root (`smtsim-bench` module docs) and in
//! EXPERIMENTS.md §"Environment knobs"; keep all three in sync when
//! adding a knob.

use smtsim_pipeline::{FaultPlan, MachineConfig, SimError};
use smtsim_rob2::{ExperimentSpec, Lab, ResultCache};
use std::path::PathBuf;
use std::sync::Arc;

/// Parses an environment integer. A missing variable yields `default`;
/// a malformed value is a typed [`SimError::InvalidConfig`] naming the
/// variable (a silent fallback would hide a typo'd budget).
pub fn try_env_u64(name: &str, default: u64) -> Result<u64, SimError> {
    match std::env::var(name) {
        Err(_) => Ok(default),
        Ok(v) => v.trim().parse().map_err(|_| SimError::InvalidConfig {
            reason: format!("{name}={v} is not an unsigned integer"),
        }),
    }
}

/// Reads `MIXES` (comma-separated mix indices, default: all 11 paper
/// mixes); a malformed or out-of-range entry is a typed
/// [`SimError::InvalidConfig`].
fn try_mixes() -> Result<Vec<usize>, SimError> {
    let Ok(v) = std::env::var("MIXES") else {
        return Ok(smtsim_rob2::ALL_MIXES.to_vec());
    };
    v.split(',')
        .map(|x| {
            let idx: usize = x.trim().parse().map_err(|_| SimError::InvalidConfig {
                reason: format!("MIXES entry '{x}' is not an integer"),
            })?;
            if !(1..=11).contains(&idx) {
                return Err(SimError::InvalidConfig {
                    reason: format!("MIXES entry {idx} out of range 1..=11"),
                });
            }
            Ok(idx)
        })
        .collect()
}

/// Builds a [`FaultPlan`] from the `FAULT_*` knobs, or `None` when
/// every category is off (the common case: no plan is installed and
/// the hooks stay on their zero-cost path).
fn try_fault_plan() -> Result<Option<FaultPlan>, SimError> {
    let plan = FaultPlan {
        seed: try_env_u64("FAULT_SEED", 0)?,
        drop_fill: try_env_u64("FAULT_DROP_FILL", 0)? as u32,
        delay_fill: try_env_u64("FAULT_DELAY_FILL", 0)? as u32,
        delay_cycles: try_env_u64("FAULT_DELAY_CYCLES", 300)?,
        corrupt_dod: try_env_u64("FAULT_CORRUPT_DOD", 0)? as u32,
        withhold_release: try_env_u64("FAULT_WITHHOLD_RELEASE", 0)? as u32,
        ..FaultPlan::default()
    };
    Ok(plan.is_active().then_some(plan))
}

/// Reads an optional path knob (`None` when unset or empty).
fn env_path(name: &str) -> Option<PathBuf> {
    match std::env::var(name) {
        Ok(v) if !v.trim().is_empty() => Some(PathBuf::from(v)),
        _ => None,
    }
}

/// Which spec-overridable knobs the environment set *explicitly*.
///
/// Captured once in [`BenchEnv::from_env`] so the spec merge
/// ([`BenchEnv::with_spec`]) can apply the documented precedence:
/// **explicit env knob > spec value > built-in default**. A knob that
/// merely fell back to its default is not explicit — a spec may still
/// override it.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExplicitKnobs {
    /// `BUDGET` was set.
    pub budget: bool,
    /// `ST_BUDGET` was set.
    pub st_budget: bool,
    /// `WARMUP` was set.
    pub warmup: bool,
    /// `SEED` was set.
    pub seed: bool,
    /// `MIXES` was set.
    pub mixes: bool,
    /// `FUZZ_CASES` was set.
    pub fuzz_cases: bool,
    /// `FUZZ_SEED` was set.
    pub fuzz_seed: bool,
    /// `CHECK_THREADS` was set.
    pub check_threads: bool,
    /// `CHECK_L2` was set.
    pub check_l2: bool,
}

impl ExplicitKnobs {
    /// Snapshot of which overridable knobs the environment pins.
    fn capture() -> ExplicitKnobs {
        let set = |name: &str| std::env::var_os(name).is_some();
        ExplicitKnobs {
            budget: set("BUDGET"),
            st_budget: set("ST_BUDGET"),
            warmup: set("WARMUP"),
            seed: set("SEED"),
            mixes: set("MIXES"),
            fuzz_cases: set("FUZZ_CASES"),
            fuzz_seed: set("FUZZ_SEED"),
            check_threads: set("CHECK_THREADS"),
            check_l2: set("CHECK_L2"),
        }
    }
}

/// Every environment knob the harness consumes, parsed once into typed
/// fields. See the crate-root docs for the knob table.
#[derive(Clone, Debug)]
pub struct BenchEnv {
    /// `BUDGET` — committed instructions per multithreaded run.
    pub budget: u64,
    /// `ST_BUDGET` — committed instructions per single-threaded
    /// normalization run (defaults to `BUDGET`).
    pub st_budget: u64,
    /// `WARMUP` — functional warm-up instructions per thread.
    pub warmup: u64,
    /// `SEED` — workload generation seed.
    pub seed: u64,
    /// `MIXES` — the mix indices to run (default: all 11).
    pub mixes: Vec<usize>,
    /// `SMTSIM_JOBS` — sweep worker threads (`None` = available
    /// parallelism; output is byte-identical at any value).
    pub jobs: Option<usize>,
    /// `DEADLOCK_CYCLES` — commitless-cycle watchdog threshold.
    pub deadlock_cycles: u64,
    /// `INVARIANT_INTERVAL` — deep invariant-scan cadence (0 = off).
    pub invariant_interval: u64,
    /// `FAULT_*` — the fault plan, when any category is enabled.
    pub fault: Option<FaultPlan>,
    /// `BENCH_ITERS` — timed iterations per bench target.
    pub bench_iters: u32,
    /// `FUZZ_CASES` — fresh fuzz cases per `conform` run.
    pub fuzz_cases: u64,
    /// `FUZZ_SEED` — base seed for fresh fuzz cases.
    pub fuzz_seed: u64,
    /// `SMTSIM_JOURNAL` — result-cache directory sweeps resume from
    /// (unset/empty = nothing persisted).
    pub journal: Option<PathBuf>,
    /// `SMTSIM_CELL_TIMEOUT` — wall-clock watchdog per sweep cell, in
    /// milliseconds (`0` = unlimited; non-deterministic by nature).
    pub cell_timeout_ms: Option<u64>,
    /// `SMTSIM_CELL_CYCLES` — simulated-cycle watchdog per sweep cell
    /// (`0` = unlimited; deterministic).
    pub cell_cycles: Option<u64>,
    /// `SMTSIM_CELL_RETRIES` — retries per transiently-failed sweep
    /// cell (default 0).
    pub cell_retries: u32,
    /// `CHECK_THREADS` — thread bound for the `check` bin's model
    /// exploration (1..=4, default 3).
    pub check_threads: usize,
    /// `CHECK_L2` — shared-partition bound for the `check` bin's model
    /// exploration (1..=4, default 2).
    pub check_l2: u8,
    /// `SMTSIM_NO_SKIP` — disables event-driven cycle skipping in
    /// every simulator the harness builds (any nonzero value).
    /// Validation-only: output is byte-identical either way, and the
    /// `xtask determinism` gate proves it on every run.
    pub no_skip: bool,
    /// `SMTSIM_SPEC` — experiment-spec path for the generic `spec`
    /// bin (unset/empty = none).
    pub spec: Option<PathBuf>,
    /// `SMTSIM_SERVE_SOCKET` — Unix socket the `serve` daemon listens
    /// on (default: `smtsim-serve.sock` under the system temp dir).
    pub serve_socket: PathBuf,
    /// `SMTSIM_SERVE_CACHE` — the daemon's persistent result-cache
    /// directory (default: `smtsim-serve-cache` under the CWD, like
    /// journal paths).
    pub serve_cache: PathBuf,
    /// `SMTSIM_SERVE_QUEUE` — the daemon's admission bound: maximum
    /// concurrently admitted requests (≥ 1, default 8); the next
    /// submission is rejected with a retryable `queue-full` error.
    pub serve_queue: usize,
    /// Which spec-overridable knobs the environment set explicitly
    /// (drives [`BenchEnv::with_spec`] precedence).
    pub explicit: ExplicitKnobs,
}

impl BenchEnv {
    /// Reads and validates every knob. The first malformed knob comes
    /// back as a typed [`SimError::InvalidConfig`] naming the variable.
    pub fn from_env() -> Result<BenchEnv, SimError> {
        let machine = MachineConfig::icpp08();
        let budget = try_env_u64("BUDGET", 40_000)?;
        let jobs = try_env_u64("SMTSIM_JOBS", 0)?;
        let bench_iters = try_env_u64("BENCH_ITERS", 5)?;
        Ok(BenchEnv {
            budget,
            st_budget: try_env_u64("ST_BUDGET", budget)?,
            warmup: try_env_u64("WARMUP", 60_000)?,
            seed: try_env_u64("SEED", 42)?,
            mixes: try_mixes()?,
            // 0 (the default) delegates to the machine's available
            // parallelism; any explicit value pins the worker count.
            jobs: (jobs > 0).then_some(jobs as usize),
            deadlock_cycles: try_env_u64("DEADLOCK_CYCLES", machine.deadlock_cycles)?,
            invariant_interval: try_env_u64("INVARIANT_INTERVAL", machine.invariant_interval)?,
            fault: try_fault_plan()?,
            bench_iters: u32::try_from(bench_iters).map_err(|_| SimError::InvalidConfig {
                reason: format!("BENCH_ITERS={bench_iters} exceeds u32"),
            })?,
            fuzz_cases: try_env_u64("FUZZ_CASES", 4)?,
            fuzz_seed: try_env_u64("FUZZ_SEED", 2_026)?,
            journal: env_path("SMTSIM_JOURNAL"),
            // For the watchdog knobs 0 (the default) means unlimited.
            cell_timeout_ms: match try_env_u64("SMTSIM_CELL_TIMEOUT", 0)? {
                0 => None,
                ms => Some(ms),
            },
            cell_cycles: match try_env_u64("SMTSIM_CELL_CYCLES", 0)? {
                0 => None,
                c => Some(c),
            },
            cell_retries: {
                let r = try_env_u64("SMTSIM_CELL_RETRIES", 0)?;
                u32::try_from(r).map_err(|_| SimError::InvalidConfig {
                    reason: format!("SMTSIM_CELL_RETRIES={r} exceeds u32"),
                })?
            },
            check_threads: {
                let t = try_env_u64("CHECK_THREADS", 3)?;
                if !(1..=4).contains(&t) {
                    return Err(SimError::InvalidConfig {
                        reason: format!("CHECK_THREADS={t} out of range 1..=4"),
                    });
                }
                t as usize
            },
            no_skip: try_env_u64("SMTSIM_NO_SKIP", 0)? != 0,
            check_l2: {
                let l2 = try_env_u64("CHECK_L2", 2)?;
                if !(1..=4).contains(&l2) {
                    return Err(SimError::InvalidConfig {
                        reason: format!("CHECK_L2={l2} out of range 1..=4"),
                    });
                }
                l2 as u8
            },
            spec: env_path("SMTSIM_SPEC"),
            serve_socket: env_path("SMTSIM_SERVE_SOCKET")
                .unwrap_or_else(|| std::env::temp_dir().join("smtsim-serve.sock")),
            serve_cache: env_path("SMTSIM_SERVE_CACHE")
                .unwrap_or_else(|| PathBuf::from("smtsim-serve-cache")),
            serve_queue: {
                let q = try_env_u64("SMTSIM_SERVE_QUEUE", 8)?;
                if q == 0 {
                    return Err(SimError::InvalidConfig {
                        reason: "SMTSIM_SERVE_QUEUE=0: the daemon must admit at least one request"
                            .into(),
                    });
                }
                q as usize
            },
            explicit: ExplicitKnobs::capture(),
        })
    }

    /// Infallible form of [`BenchEnv::from_env`] for the figure
    /// binaries: prints the typed error and exits with status 2.
    pub fn read() -> BenchEnv {
        exit_on_config_error(BenchEnv::from_env())
    }

    /// Builds the experiment driver this environment describes: budgets,
    /// warm-up, seed, job count, integrity knobs, (if any `FAULT_*`
    /// category is on) a lab-wide fault plan and the resilience knobs,
    /// including the `SMTSIM_JOURNAL` result cache.
    pub fn lab(&self) -> Lab {
        let mut lab = Lab::new(self.seed)
            .with_budgets(self.budget, self.st_budget)
            .with_warmup(self.warmup)
            .with_jobs(self.jobs)
            .with_cycle_skip(!self.no_skip);
        lab.machine.deadlock_cycles = self.deadlock_cycles;
        lab.machine.invariant_interval = self.invariant_interval;
        if let Some(plan) = &self.fault {
            lab.set_fault(None, plan.clone());
        }
        lab.with_cell_wall_ms(self.cell_timeout_ms)
            .with_cell_cycle_budget(self.cell_cycles)
            .with_retries(self.cell_retries)
            .with_cache(
                self.journal
                    .as_ref()
                    .map(|dir| Arc::new(ResultCache::new(dir))),
            )
    }

    /// Merges an experiment spec into this environment under the one
    /// documented precedence: **explicit env knob > spec value (the
    /// `[knobs]` section over its `knobs = "<preset>"` preset) >
    /// built-in default**. Only the spec-overridable knobs
    /// ([`ExplicitKnobs`]) participate; everything else (journal,
    /// watchdogs, faults, jobs…) is environment-only and copied
    /// through.
    ///
    /// `ST_BUDGET` keeps its documented coupling: when neither layer
    /// pins it, it follows the *merged* budget.
    #[must_use]
    pub fn with_spec(&self, spec: &ExperimentSpec) -> BenchEnv {
        let k = spec.knobs();
        let e = self.explicit;
        let pick = |explicit: bool, env_v: u64, spec_v: Option<u64>| {
            if explicit {
                env_v
            } else {
                spec_v.unwrap_or(env_v)
            }
        };
        let mut merged = self.clone();
        merged.budget = pick(e.budget, self.budget, k.budget);
        merged.st_budget = if e.st_budget {
            self.st_budget
        } else {
            k.st_budget.unwrap_or(merged.budget)
        };
        merged.warmup = pick(e.warmup, self.warmup, k.warmup);
        merged.seed = pick(e.seed, self.seed, k.seed);
        if !e.mixes {
            merged.mixes = spec.effective_mixes();
        }
        merged.fuzz_cases = pick(e.fuzz_cases, self.fuzz_cases, k.fuzz_cases);
        merged.fuzz_seed = pick(e.fuzz_seed, self.fuzz_seed, k.fuzz_seed);
        merged.check_threads =
            pick(e.check_threads, self.check_threads as u64, k.check_threads) as usize;
        merged.check_l2 = pick(e.check_l2, u64::from(self.check_l2), k.check_l2) as u8;
        merged
    }

    /// Builds the lab a *merged* environment (see
    /// [`BenchEnv::with_spec`]) describes for `spec`: the usual
    /// [`BenchEnv::lab`] wiring plus the spec's machine (environment
    /// integrity knobs re-applied on top) and normalization reference.
    #[must_use]
    pub fn lab_for_spec(&self, spec: &ExperimentSpec) -> Lab {
        let mut lab = self.lab();
        lab.machine = spec.machine.clone();
        lab.machine.deadlock_cycles = self.deadlock_cycles;
        lab.machine.invariant_interval = self.invariant_interval;
        lab.with_norm(spec.norm)
    }
}

/// Unwraps a fallible knob read for the figure binaries through the
/// crate-wide exit-code policy (invalid configuration → status 2).
pub(crate) fn exit_on_config_error<T>(r: Result<T, SimError>) -> T {
    match r {
        Ok(v) => v,
        Err(e) => crate::exit_bin(&e.into()),
    }
}
