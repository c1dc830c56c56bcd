//! The harness binaries that regenerate every table and figure of the
//! paper's evaluation.
//!
//! Each artifact is defined by its committed `experiments/<id>.toml`
//! spec (DESIGN.md §16). The `spec` bin runs the spec `SMTSIM_SPEC`
//! names and prints the same rows/series the paper reports
//! (`SMTSIM_SPEC=experiments/fig2.toml cargo run --release -p
//! smtsim-bench --bin spec`); the `serve` bin serves figure specs over
//! a Unix socket ([`serve_support`]).
//!
//! Every environment knob is a row of the one knob table,
//! [`smtsim_rob2::knobs`]: `Knobs::from_env` parses them all, and no
//! other module in the workspace reads `std::env::var` (enforced by
//! `cargo xtask lint`). EXPERIMENTS.md §"Environment knobs" lists them.

pub mod serve_support;
pub mod spec_run;

/// The knob value under the name the benchmark ledger uses.
pub use smtsim_rob2::Knobs as BenchEnv;

pub use smtsim_rob2::spec_dir;
pub use spec_run::run_spec;

use smtsim_pipeline::SimError;
use smtsim_rob2::JournalError;

/// A harness binary failure, classified by the workspace-wide exit
/// policy: **invalid configuration exits 2** (malformed knobs, a
/// journal recorded under a different experiment universe), **runtime
/// failures exit 1** (I/O, journal corruption, simulation divergence).
/// Every binary funnels through [`run_bin`], so the exit codes are
/// uniform across all of them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BinError {
    /// The invocation itself is wrong; exits with status 2.
    Config(String),
    /// The run failed; exits with status 1.
    Runtime(String),
}

impl BinError {
    /// The process exit status for this failure class.
    #[must_use]
    pub fn exit_code(&self) -> i32 {
        match self {
            BinError::Config(_) => 2,
            BinError::Runtime(_) => 1,
        }
    }
}

impl std::fmt::Display for BinError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinError::Config(m) | BinError::Runtime(m) => write!(f, "{m}"),
        }
    }
}

impl From<SimError> for BinError {
    fn from(e: SimError) -> Self {
        match e {
            SimError::InvalidConfig { .. } => BinError::Config(e.to_string()),
            other => BinError::Runtime(other.to_string()),
        }
    }
}

impl From<JournalError> for BinError {
    fn from(e: JournalError) -> Self {
        match e {
            // Pointing a run at a journal recorded under different
            // knobs is a configuration mistake, like a malformed knob.
            JournalError::UniverseMismatch { .. } => BinError::Config(e.to_string()),
            other => BinError::Runtime(other.to_string()),
        }
    }
}

impl From<std::io::Error> for BinError {
    fn from(e: std::io::Error) -> Self {
        BinError::Runtime(e.to_string())
    }
}

/// Prints a [`BinError`] and exits with its status code.
pub fn exit_bin(e: &BinError) -> ! {
    eprintln!("error: {e}");
    std::process::exit(e.exit_code());
}

/// The uniform `main` wrapper for every harness binary: runs `f`,
/// exits 0 on success, and maps failures through the [`BinError`]
/// exit-code policy (configuration → 2, runtime → 1).
pub fn run_bin(f: impl FnOnce() -> Result<(), BinError>) -> ! {
    match f() {
        Ok(()) => std::process::exit(0),
        Err(e) => exit_bin(&e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::{Knob, Knobs};

    /// Parses knobs from `vars` alone, as if they were the whole
    /// environment.
    fn knobs(vars: &[(&str, &str)]) -> Result<Knobs, SimError> {
        Knobs::from_lookup(|name| {
            vars.iter()
                .find(|(k, _)| *k == name)
                .map(|(_, v)| (*v).to_string())
        })
    }

    #[test]
    fn defaults_are_sane() {
        let env = knobs(&[]).expect("an empty environment parses");
        assert!(env.get(Knob::Budget) > 0);
        // Without ST_BUDGET the normalization budget follows BUDGET.
        assert_eq!(env.get(Knob::StBudget), env.get(Knob::Budget));
        assert!(env.fault_plan().is_none());
        let lab = env.lab();
        assert_eq!(lab.mt_budget, env.get(Knob::Budget));
        assert_eq!(lab.st_budget, env.get(Knob::StBudget));
        assert_eq!(lab.warmup, env.get(Knob::Warmup));
        // No FAULT_* knobs set: no plan installed anywhere.
        assert!((1..=11).all(|m| lab.fault_for(m).is_none()));
        assert_eq!(env.mixes, smtsim_rob2::ALL_MIXES.to_vec());
    }

    #[test]
    fn smtsim_jobs_knob_pins_the_worker_count() {
        let lab = knobs(&[("SMTSIM_JOBS", "4")]).unwrap().lab();
        assert_eq!(lab.jobs, Some(4));
        assert_eq!(lab.effective_jobs(), 4);
        let auto = knobs(&[("SMTSIM_JOBS", "0")]).unwrap().lab();
        assert_eq!(auto.jobs, None, "0 means auto");
        let Err(err) = knobs(&[("SMTSIM_JOBS", "four")]) else {
            panic!("SMTSIM_JOBS=four must be rejected")
        };
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("SMTSIM_JOBS=four"), "{err}");
    }

    #[test]
    fn fault_plan_from_env_is_none_by_default() {
        assert_eq!(knobs(&[]).unwrap().fault_plan(), None);
        // A category beyond `u32` used to wrap (2^32 turned the fault
        // off, 2^32 + 1 fired it on every fill); now it exits 2.
        for env in [
            "FAULT_DROP_FILL",
            "FAULT_DELAY_FILL",
            "FAULT_CORRUPT_DOD",
            "FAULT_WITHHOLD_RELEASE",
        ] {
            let err = knobs(&[(env, "4294967296")]).expect_err(env);
            assert_eq!(err.kind(), "invalid-config");
            assert_eq!(BinError::from(err).exit_code(), 2, "{env}");
        }
    }

    #[test]
    fn malformed_env_integer_is_a_typed_config_error() {
        let err = knobs(&[("BUDGET", "40k")]).expect_err("'40k' must not parse");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("BUDGET=40k"), "{err}");
        // Missing and well-formed values still succeed.
        assert_eq!(knobs(&[]).unwrap().get(Knob::Budget), 40_000);
        let padded = knobs(&[("BUDGET", " 12 ")]).unwrap();
        assert_eq!(padded.get(Knob::Budget), 12);
    }

    #[test]
    fn malformed_budget_fails_lab_construction() {
        let Err(err) = knobs(&[("ST_BUDGET", "lots")]) else {
            panic!("ST_BUDGET=lots must be rejected")
        };
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("ST_BUDGET=lots"), "{err}");
    }

    #[test]
    fn malformed_and_out_of_range_mixes_are_typed_config_errors() {
        let err = knobs(&[("MIXES", "1,two,3")]).expect_err("'two' must not parse");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("'two'"), "{err}");
        let err = knobs(&[("MIXES", "1,12")]).expect_err("12 is out of range");
        assert!(err.to_string().contains("out of range"), "{err}");
        assert_eq!(knobs(&[("MIXES", "2, 9")]).unwrap().mixes, vec![2, 9]);
    }

    #[test]
    fn resilience_knobs_arm_the_lab() {
        // Defaults: everything off, no footer machinery armed.
        assert!(!knobs(&[]).unwrap().lab().resilience_active());
        let lab = knobs(&[
            ("SMTSIM_JOURNAL", "/tmp/smtsim-cache"),
            ("SMTSIM_CELL_TIMEOUT", "1500"),
            ("SMTSIM_CELL_CYCLES", "200000"),
            ("SMTSIM_CELL_RETRIES", "2"),
        ])
        .unwrap()
        .lab();
        assert_eq!(
            lab.cache.as_ref().map(|c| c.dir()),
            Some(std::path::Path::new("/tmp/smtsim-cache"))
        );
        assert_eq!(lab.cell_wall_ms, Some(1_500));
        assert_eq!(lab.cell_cycle_budget, Some(200_000));
        assert_eq!(lab.retries, 2);
        assert!(lab.resilience_active());
        // 0 means "unlimited", and an empty cache path means "off".
        let lab = knobs(&[
            ("SMTSIM_JOURNAL", "  "),
            ("SMTSIM_CELL_TIMEOUT", "0"),
            ("SMTSIM_CELL_CYCLES", "0"),
            ("SMTSIM_CELL_RETRIES", "0"),
        ])
        .unwrap()
        .lab();
        assert!(!lab.resilience_active());
        let err = knobs(&[("SMTSIM_CELL_RETRIES", "two")]).expect_err("'two' must not parse");
        assert_eq!(err.kind(), "invalid-config");
    }

    #[test]
    fn bin_error_exit_codes_follow_the_policy() {
        use smtsim_pipeline::SimError;
        use smtsim_rob2::JournalError;
        let config: BinError = SimError::InvalidConfig { reason: "x".into() }.into();
        assert_eq!(config.exit_code(), 2);
        let runtime: BinError = SimError::CellTimeout {
            cycle: 1,
            detail: "x".into(),
        }
        .into();
        assert_eq!(runtime.exit_code(), 1);
        let stale: BinError = JournalError::UniverseMismatch {
            expected: "a".into(),
            found: "b".into(),
        }
        .into();
        assert_eq!(stale.exit_code(), 2, "stale journal is a config error");
        let corrupt: BinError = JournalError::Corrupt {
            line: 3,
            detail: "x".into(),
        }
        .into();
        assert_eq!(corrupt.exit_code(), 1);
        let io: BinError = std::io::Error::other("disk").into();
        assert_eq!(io.exit_code(), 1);
    }

    #[test]
    fn committed_specs_parse_and_are_named_by_their_files() {
        let specs = smtsim_rob2::committed_specs().unwrap_or_else(|e| panic!("{e}"));
        assert!(
            specs.len() >= 17,
            "the 16 paper artifacts and tools plus l2_partition_sweep have committed specs"
        );
        for (stem, spec) in &specs {
            assert_eq!(&spec.id, stem, "spec id matches its file name");
        }
    }

    #[test]
    fn explicit_env_knobs_override_spec_knobs() {
        use smtsim_rob2::ExperimentSpec;
        let spec = ExperimentSpec::parse(
            "t.toml",
            "[experiment]\nid = \"t\"\ntitle = \"T\"\nkind = \"figure\"\n\
             schemes = [\"r-rob-16\"]\nmixes = [1, 2]\n\
             [knobs]\nbudget = 1234\nwarmup = 99\nseed = 7\n",
        )
        .unwrap();
        // No env overrides: the spec's knobs land; unset knobs keep
        // the built-in defaults.
        let merged = knobs(&[]).unwrap().with_spec(&spec);
        assert_eq!(merged.get(Knob::Budget), 1234);
        assert_eq!(merged.get(Knob::Warmup), 99);
        assert_eq!(merged.get(Knob::Seed), 7);
        assert_eq!(merged.get(Knob::FuzzCases), 4);
        assert_eq!(merged.mixes, vec![1, 2]);
        // The spec's budget also drives the st_budget fallback when
        // neither ST_BUDGET nor a spec st_budget is given.
        assert_eq!(merged.get(Knob::StBudget), 1234);
        // Explicit env wins over the spec, key by key.
        let merged = knobs(&[("BUDGET", "777"), ("MIXES", "9")])
            .unwrap()
            .with_spec(&spec);
        assert_eq!(merged.get(Knob::Budget), 777, "explicit beats the spec");
        assert_eq!(merged.get(Knob::StBudget), 777, "follows the merged budget");
        assert_eq!(merged.get(Knob::Warmup), 99, "untouched keys: the spec");
        assert_eq!(merged.mixes, vec![9], "explicit MIXES beats the spec");
        // An explicit value equal to the default still wins.
        let merged = knobs(&[("SEED", "42")]).unwrap().with_spec(&spec);
        assert_eq!(merged.get(Knob::Seed), 42);
    }

    #[test]
    fn spec_lowering_renders_the_legacy_bytes_at_any_job_count() {
        // The figure bytes are pinned by the `tests/golden/` files the
        // `cargo xtask determinism` fig2 and fig1 legs compare against.
        use smtsim_rob2::{report, ExperimentSpec};
        let env = knobs(&[("BUDGET", "2500"), ("WARMUP", "1000"), ("MIXES", "1")]).unwrap();
        let table1 = ExperimentSpec::load(&spec_dir().join("table1.toml")).unwrap();
        assert_eq!(
            report::render_table1(&env.with_spec(&table1).lab_for_spec(&table1).machine),
            report::render_table1(&env.lab().machine),
            "table1 spec output drifted"
        );
    }

    #[test]
    fn malformed_spec_files_become_typed_config_errors() {
        use smtsim_rob2::ExperimentSpec;
        // The committed determinism fixture: a typo'd `[knobs]` key.
        let fixture = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../xtask/fixtures/malformed-spec.toml");
        let err = ExperimentSpec::load(&fixture).expect_err("fixture must be refused");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("budgett"), "{err}");
        let bin: BinError = err.into();
        assert_eq!(bin.exit_code(), 2);
        // A missing file is also a typed config error naming the path.
        let err = ExperimentSpec::load(std::path::Path::new("/nonexistent/spec.toml"))
            .expect_err("missing file must be refused");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("/nonexistent/spec.toml"), "{err}");
    }
}
