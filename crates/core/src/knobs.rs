//! The one knob table, from the environment to the spec to the cache
//! key.
//!
//! Every integer experiment knob is one row of [`KNOBS`]: its
//! environment variable, its spec `[knobs]` key (if a spec may set
//! it), its default, the values it accepts and whether it changes cell
//! bytes — i.e. whether it lowers into [`Lab::journal_universe`]. A
//! [`Knobs`] value holds those integers plus `MIXES` and the four path
//! settings, and three functions walk the table:
//!
//! * [`Knobs::from_lookup`] parses every knob from a name → value
//!   lookup. [`Knobs::from_env`] hands it the process environment; it
//!   is the workspace's only environment reader (`cargo xtask lint`
//!   refuses `env::var` anywhere else).
//! * [`Knobs::with_spec`] merges a spec under one rule, key by key:
//!   explicit env > spec `[knobs]` > spec preset > built-in default.
//! * [`Knobs::lab_for_spec`] lowers the merged value into a [`Lab`]:
//!   the one lowering the offline bins and the serve daemon share.
//!
//! EXPERIMENTS.md §"Environment knobs" documents every knob; a test
//! keeps its names and defaults in step with this table.

use crate::cache::ResultCache;
use crate::experiment::Lab;
use crate::figures::ALL_MIXES;
use crate::spec::ExperimentSpec;
use smtsim_pipeline::{FaultPlan, MachineConfig, SimError};
use std::ops::RangeInclusive;
use std::path::PathBuf;
use std::sync::Arc;
use KnobDefault::{FollowsBudget, Value};

/// Names one integer knob; its row is `KNOBS[knob as usize]`.
#[allow(missing_docs)] // each variant is documented by its `KNOBS` row
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Knob {
    Budget,
    StBudget,
    Warmup,
    Seed,
    FuzzCases,
    FuzzSeed,
    CheckThreads,
    CheckL2,
    Jobs,
    NoSkip,
    DeadlockCycles,
    InvariantInterval,
    FaultSeed,
    FaultDropFill,
    FaultDelayFill,
    FaultDelayCycles,
    FaultCorruptDod,
    FaultWithholdRelease,
    CellTimeout,
    CellCycles,
    CellRetries,
    ServeQueue,
}

/// A knob's value when neither the environment nor a spec sets it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KnobDefault {
    /// A fixed value.
    Value(u64),
    /// Whatever `BUDGET` is after the spec merge.
    FollowsBudget,
}

/// One row of [`KNOBS`].
#[derive(Clone, Debug)]
pub struct KnobRow {
    /// The knob this row describes.
    pub knob: Knob,
    /// Environment variable.
    pub env: &'static str,
    /// Spec `[knobs]` key; `None` = environment-only.
    pub spec_key: Option<&'static str>,
    /// Value when nothing sets it.
    pub default: KnobDefault,
    /// Accepted values; anything else is a typed config error.
    pub range: RangeInclusive<u64>,
    /// Changes cell bytes, so it must move [`Lab::journal_universe`].
    pub byte_affecting: bool,
}

const fn row(
    knob: Knob,
    env: &'static str,
    spec_key: Option<&'static str>,
    default: KnobDefault,
    range: RangeInclusive<u64>,
    byte_affecting: bool,
) -> KnobRow {
    KnobRow {
        knob,
        env,
        spec_key,
        default,
        range,
        byte_affecting,
    }
}

const ANY: RangeInclusive<u64> = 0..=u64::MAX;
/// Knobs stored in `u32` fields: a larger value would wrap.
const U32: RangeInclusive<u64> = 0..=u32::MAX as u64;
/// The model checker's exploration bounds.
const CHECK_BOUND: RangeInclusive<u64> = 1..=4;

/// Every integer knob, in [`Knob`] order. Columns: knob, environment
/// variable, spec key, default, accepted range, changes cell bytes.
#[rustfmt::skip]
pub const KNOBS: &[KnobRow] = &[
    row(Knob::Budget,       "BUDGET",        Some("budget"),        Value(40_000), ANY, true),
    row(Knob::StBudget,     "ST_BUDGET",     Some("st_budget"),     FollowsBudget, ANY, true),
    row(Knob::Warmup,       "WARMUP",        Some("warmup"),        Value(60_000), ANY, true),
    row(Knob::Seed,         "SEED",          Some("seed"),          Value(42),     ANY, true),
    row(Knob::FuzzCases,    "FUZZ_CASES",    Some("fuzz_cases"),    Value(4),      ANY, false),
    row(Knob::FuzzSeed,     "FUZZ_SEED",     Some("fuzz_seed"),     Value(2_026),  ANY, false),
    row(Knob::CheckThreads, "CHECK_THREADS", Some("check_threads"), Value(3), CHECK_BOUND, false),
    row(Knob::CheckL2,      "CHECK_L2",      Some("check_l2"),      Value(2), CHECK_BOUND, false),
    // 0 = the machine's available parallelism.
    row(Knob::Jobs,       "SMTSIM_JOBS",    None, Value(0), ANY, false),
    // Any nonzero value disables cycle skipping (timing-transparent).
    row(Knob::NoSkip,     "SMTSIM_NO_SKIP", None, Value(0), ANY, false),
    row(Knob::DeadlockCycles,       "DEADLOCK_CYCLES",        None, Value(1_000_000), ANY, true),
    row(Knob::InvariantInterval,    "INVARIANT_INTERVAL",     None, Value(0),         ANY, true),
    row(Knob::FaultSeed,            "FAULT_SEED",             None, Value(0),         ANY, true),
    row(Knob::FaultDropFill,        "FAULT_DROP_FILL",        None, Value(0),         U32, true),
    row(Knob::FaultDelayFill,       "FAULT_DELAY_FILL",       None, Value(0),         U32, true),
    row(Knob::FaultDelayCycles,     "FAULT_DELAY_CYCLES",     None, Value(300),       ANY, true),
    row(Knob::FaultCorruptDod,      "FAULT_CORRUPT_DOD",      None, Value(0),         U32, true),
    row(Knob::FaultWithholdRelease, "FAULT_WITHHOLD_RELEASE", None, Value(0),         U32, true),
    // The watchdogs: 0 = unlimited.
    row(Knob::CellTimeout,          "SMTSIM_CELL_TIMEOUT",    None, Value(0),         ANY, true),
    row(Knob::CellCycles,           "SMTSIM_CELL_CYCLES",     None, Value(0),         ANY, true),
    row(Knob::CellRetries,          "SMTSIM_CELL_RETRIES",    None, Value(0),         U32, true),
    row(Knob::ServeQueue,           "SMTSIM_SERVE_QUEUE",     None, Value(8), 1..=u64::MAX, false),
];

const KNOB_COUNT: usize = KNOBS.len();

impl KnobRow {
    /// `v` if this row accepts it, else the accepted range for the
    /// caller's diagnostic.
    pub fn check(&self, v: u64) -> Result<u64, String> {
        let (lo, hi) = (*self.range.start(), *self.range.end());
        match (self.range.contains(&v), hi) {
            (true, _) => Ok(v),
            (false, u64::MAX) => Err(format!("{lo}..")),
            (false, _) => Err(format!("{lo}..={hi}")),
        }
    }

    /// Parses an environment value for this row.
    fn parse(&self, raw: &str) -> Result<u64, SimError> {
        let env = self.env;
        let invalid = |reason| SimError::InvalidConfig { reason };
        let v = raw
            .trim()
            .parse()
            .map_err(|_| invalid(format!("{env}={raw} is not an unsigned integer")))?;
        self.check(v)
            .map_err(|range| invalid(format!("{env}={v} out of range {range}")))
    }
}

/// Every knob value a run uses: the [`KNOBS`] integers, `MIXES` and
/// the path settings, plus which knobs were set explicitly (those win
/// over a spec in [`Knobs::with_spec`]).
#[derive(Clone, Debug)]
pub struct Knobs {
    values: [u64; KNOB_COUNT],
    explicit: [bool; KNOB_COUNT],
    /// `MIXES` — the mix indices to run (default: all 11).
    pub mixes: Vec<usize>,
    mixes_explicit: bool,
    /// `SMTSIM_JOURNAL` — result-cache directory sweeps resume from
    /// (unset/empty = nothing persisted).
    pub journal: Option<PathBuf>,
    /// `SMTSIM_SPEC` — spec path for the generic `spec` bin.
    pub spec: Option<PathBuf>,
    /// `SMTSIM_SERVE_SOCKET` — the daemon's Unix socket.
    pub serve_socket: PathBuf,
    /// `SMTSIM_SERVE_CACHE` — the daemon's result-cache directory.
    pub serve_cache: PathBuf,
}

impl Default for Knobs {
    /// Every knob at its built-in default.
    fn default() -> Self {
        Knobs::from_lookup(|_| None).expect("built-in defaults are in range")
    }
}

impl Knobs {
    /// Reads every knob from the process environment. The first
    /// malformed or out-of-range value is a typed
    /// [`SimError::InvalidConfig`] naming the variable.
    pub fn from_env() -> Result<Knobs, SimError> {
        Knobs::from_lookup(|name| std::env::var(name).ok())
    }

    /// Parses every knob from `lookup` (variable name → raw value;
    /// `None` = unset). A value that is present is explicit, even if
    /// it equals the default.
    pub fn from_lookup(lookup: impl Fn(&str) -> Option<String>) -> Result<Knobs, SimError> {
        let mut values = [0; KNOB_COUNT];
        let mut explicit = [false; KNOB_COUNT];
        for row in KNOBS {
            let i = row.knob as usize;
            values[i] = match (lookup(row.env), row.default) {
                (Some(raw), _) => {
                    explicit[i] = true;
                    row.parse(&raw)?
                }
                (None, Value(v)) => v,
                (None, FollowsBudget) => values[Knob::Budget as usize],
            };
        }
        let mixes = lookup("MIXES");
        let path = |name| {
            lookup(name)
                .filter(|v| !v.trim().is_empty())
                .map(PathBuf::from)
        };
        Ok(Knobs {
            values,
            explicit,
            mixes_explicit: mixes.is_some(),
            mixes: mixes.map_or_else(|| Ok(ALL_MIXES.to_vec()), |v| parse_mixes(&v))?,
            journal: path("SMTSIM_JOURNAL"),
            spec: path("SMTSIM_SPEC"),
            serve_socket: path("SMTSIM_SERVE_SOCKET")
                .unwrap_or_else(|| std::env::temp_dir().join("smtsim-serve.sock")),
            serve_cache: path("SMTSIM_SERVE_CACHE")
                .unwrap_or_else(|| PathBuf::from("smtsim-serve-cache")),
        })
    }

    /// The value of `knob`.
    #[must_use]
    pub fn get(&self, knob: Knob) -> u64 {
        self.values[knob as usize]
    }

    /// Merges `spec` under the one precedence rule, key by key:
    /// **explicit env > spec `[knobs]` > spec preset > built-in
    /// default**. A knob that fell back to its default is not explicit,
    /// so a spec may still set it. `ST_BUDGET` that nothing sets
    /// follows the *merged* `BUDGET`.
    #[must_use]
    pub fn with_spec(&self, spec: &ExperimentSpec) -> Knobs {
        let mut merged = self.clone();
        for row in KNOBS {
            let i = row.knob as usize;
            if self.explicit[i] {
                continue;
            }
            match (spec.knob(row.knob), row.default) {
                (Some(v), _) => merged.values[i] = v,
                (None, FollowsBudget) => merged.values[i] = merged.get(Knob::Budget),
                (None, Value(_)) => {}
            }
        }
        if !self.mixes_explicit {
            merged.mixes = spec.effective_mixes();
        }
        merged
    }

    /// The lab these knobs describe on the paper's Table 1 machine:
    /// budgets, warm-up, seed, job count, integrity knobs, (if any
    /// `FAULT_*` category is on) a lab-wide fault plan, the watchdogs
    /// and retries, and the `SMTSIM_JOURNAL` result cache.
    #[must_use]
    pub fn lab(&self) -> Lab {
        let nonzero = |k| Some(self.get(k)).filter(|&v| v != 0);
        let mut lab = Lab::new(self.get(Knob::Seed))
            .with_budgets(self.get(Knob::Budget), self.get(Knob::StBudget))
            .with_warmup(self.get(Knob::Warmup))
            .with_jobs(nonzero(Knob::Jobs).map(|j| j as usize))
            .with_cache(
                self.journal
                    .as_ref()
                    .map(|dir| Arc::new(ResultCache::new(dir))),
            );
        lab.machine = self.machine(&lab.machine);
        lab.cycle_skip = nonzero(Knob::NoSkip).is_none();
        lab.cell_wall_ms = nonzero(Knob::CellTimeout);
        lab.cell_cycle_budget = nonzero(Knob::CellCycles);
        lab.retries = self.get(Knob::CellRetries) as u32;
        if let Some(plan) = self.fault_plan() {
            lab.set_fault(None, plan);
        }
        lab
    }

    /// [`Knobs::lab`] on the spec's machine (integrity knobs applied on
    /// top) and normalization reference. Call it on the value
    /// [`Knobs::with_spec`] merged for the same spec.
    #[must_use]
    pub fn lab_for_spec(&self, spec: &ExperimentSpec) -> Lab {
        let mut lab = self.lab();
        lab.machine = self.machine(&spec.machine);
        lab.with_norm(spec.norm)
    }

    /// `base` with the `DEADLOCK_CYCLES`/`INVARIANT_INTERVAL` integrity
    /// knobs applied.
    fn machine(&self, base: &MachineConfig) -> MachineConfig {
        MachineConfig {
            deadlock_cycles: self.get(Knob::DeadlockCycles),
            invariant_interval: self.get(Knob::InvariantInterval),
            ..base.clone()
        }
    }

    /// The `FAULT_*` plan, or `None` when every category is off (no
    /// plan is installed and the hooks stay on their zero-cost path).
    #[must_use]
    pub fn fault_plan(&self) -> Option<FaultPlan> {
        // The category rows are range-checked to `u32`.
        let n = |k| self.get(k) as u32;
        let plan = FaultPlan {
            seed: self.get(Knob::FaultSeed),
            drop_fill: n(Knob::FaultDropFill),
            delay_fill: n(Knob::FaultDelayFill),
            delay_cycles: self.get(Knob::FaultDelayCycles),
            corrupt_dod: n(Knob::FaultCorruptDod),
            withhold_release: n(Knob::FaultWithholdRelease),
            ..FaultPlan::default()
        };
        plan.is_active().then_some(plan)
    }
}

/// Parses `MIXES` (comma-separated mix indices, each in 1..=11).
fn parse_mixes(v: &str) -> Result<Vec<usize>, SimError> {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, SimError> {
        Knobs::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    /// The committed fig2 spec plus `extra` text appended to it.
    fn fig2(extra: &str) -> ExperimentSpec {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../experiments/fig2.toml");
        let text = std::fs::read_to_string(path).expect("fig2.toml is committed");
        ExperimentSpec::parse("fig2.toml", &format!("{text}{extra}")).unwrap()
    }

    #[test]
    fn table_rows_are_indexed_by_knob() {
        for (i, row) in KNOBS.iter().enumerate() {
            assert_eq!(row.knob as usize, i, "{} is out of place", row.env);
            assert!(row
                .check(match row.default {
                    Value(v) => v,
                    FollowsBudget => 1,
                })
                .is_ok());
        }
        // `FollowsBudget` rows read BUDGET, so it must parse first.
        assert_eq!(Knob::Budget as usize, 0);
        let machine = MachineConfig::icpp08();
        let d = Knobs::default();
        assert_eq!(d.get(Knob::DeadlockCycles), machine.deadlock_cycles);
        assert_eq!(d.get(Knob::InvariantInterval), machine.invariant_interval);
    }

    #[test]
    fn values_beyond_u32_are_refused_not_wrapped() {
        for env in [
            "FAULT_DROP_FILL",
            "FAULT_DELAY_FILL",
            "FAULT_CORRUPT_DOD",
            "FAULT_WITHHOLD_RELEASE",
            "SMTSIM_CELL_RETRIES",
        ] {
            let err = knobs(&[(env, "4294967297")]).expect_err(env);
            assert_eq!(err.kind(), "invalid-config");
            assert!(
                err.to_string()
                    .contains(&format!("{env}=4294967297 out of range 0..=4294967295")),
                "{err}"
            );
            assert!(knobs(&[(env, "4294967295")]).is_ok(), "{env}");
        }
        let plan = knobs(&[("FAULT_DROP_FILL", "4294967295")])
            .unwrap()
            .fault_plan()
            .expect("an on category installs a plan");
        assert_eq!(plan.drop_fill, u32::MAX);
    }

    #[test]
    fn check_bounds_and_serve_queue_are_range_checked() {
        for (env, bad) in [("CHECK_THREADS", "0"), ("CHECK_L2", "5")] {
            let err = knobs(&[(env, bad)]).expect_err(env);
            assert!(
                err.to_string()
                    .contains(&format!("{env}={bad} out of range 1..=4")),
                "{err}"
            );
        }
        let err = knobs(&[("SMTSIM_SERVE_QUEUE", "0")]).expect_err("queue 0");
        assert!(err.to_string().contains("out of range 1.."), "{err}");
    }

    #[test]
    fn fig2_cache_universes_are_pinned() {
        // Existing cache directories stay warm: these are the universes
        // fig2 lowered to before the knob table existed.
        let at = |spec: &ExperimentSpec| {
            Knobs::default()
                .with_spec(spec)
                .lab_for_spec(spec)
                .journal_universe()
        };
        assert_eq!(at(&fig2("")), "aec00c168c09329f");
        assert_eq!(at(&fig2("knobs = \"ci\"\n")), "5fef4be35a9391d0");
    }

    #[test]
    fn presets_fill_what_knobs_sections_leave() {
        let spec = fig2("knobs = \"ci\"\n\n[knobs]\nwarmup = 5000\n");
        let merged = Knobs::default().with_spec(&spec);
        assert_eq!(merged.get(Knob::Budget), 8_000, "preset");
        assert_eq!(merged.get(Knob::Warmup), 5_000, "[knobs] beats the preset");
        assert_eq!(
            merged.get(Knob::StBudget),
            8_000,
            "follows the merged budget"
        );
        assert_eq!(merged.get(Knob::FuzzCases), 4, "default");
        let pinned = knobs(&[("WARMUP", "60000")]).unwrap().with_spec(&spec);
        assert_eq!(pinned.get(Knob::Warmup), 60_000, "explicit env beats both");
    }

    #[test]
    fn table_matches_experiments_md() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../EXPERIMENTS.md");
        let doc = std::fs::read_to_string(path).expect("EXPERIMENTS.md is committed");
        let section = doc
            .split("## Environment knobs")
            .nth(1)
            .and_then(|s| s.split("\n## ").next())
            .expect("EXPERIMENTS.md has an Environment knobs section");
        let rows: Vec<(String, String)> = section
            .lines()
            .filter_map(|l| {
                let cells: Vec<&str> = l.split('|').map(str::trim).collect();
                let name = cells.get(1)?.strip_prefix('`')?.strip_suffix('`')?;
                Some((name.to_string(), cells.get(2)?.to_string()))
            })
            .collect();
        let doc_default = |env: &str| {
            let found = rows.iter().find(|(n, _)| n == env);
            found
                .unwrap_or_else(|| panic!("EXPERIMENTS.md lacks a `{env}` row"))
                .1
                .as_str()
        };
        for row in KNOBS {
            let doc = doc_default(row.env);
            match row.default {
                FollowsBudget => assert_eq!(doc, "`BUDGET`", "{}", row.env),
                Value(v) => {
                    let digits: String = doc
                        .split('(')
                        .next()
                        .unwrap()
                        .chars()
                        .filter(|c| !c.is_whitespace())
                        .collect();
                    assert_eq!(digits, v.to_string(), "{} default", row.env);
                }
            }
        }
        let d = Knobs::default();
        let mixes = format!("{}..{}", d.mixes[0], d.mixes[d.mixes.len() - 1]);
        assert_eq!(doc_default("MIXES"), mixes);
        assert!(d.journal.is_none() && doc_default("SMTSIM_JOURNAL").starts_with("unset"));
        assert!(d.spec.is_none() && doc_default("SMTSIM_SPEC").starts_with("unset"));
        let socket = d.serve_socket.file_name().unwrap().to_string_lossy();
        assert_eq!(
            doc_default("SMTSIM_SERVE_SOCKET"),
            format!("`$TMPDIR/{socket}`")
        );
        let cache = d.serve_cache.display();
        assert_eq!(doc_default("SMTSIM_SERVE_CACHE"), format!("`{cache}`"));
        assert_eq!(rows.len(), KNOBS.len() + 5, "no undocumented or stale rows");
    }
}
