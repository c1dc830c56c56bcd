//! The spec executor: runs a parsed [`ExperimentSpec`] end to end.
//!
//! Every harness binary is a thin wrapper over [`run_named_spec`] (or
//! [`run_spec`] for the generic `spec` bin driven by `SMTSIM_SPEC`):
//! the bin names a committed `experiments/*.toml` file, this module
//! loads it, merges the environment knobs under the documented
//! precedence ([`Knobs::with_spec`]), lowers the result into the
//! existing [`smtsim_rob2::Lab`] machinery and renders the same bytes
//! the hand-wired bins produced before the migration (`cargo xtask
//! determinism` pins that equivalence).
//!
//! One runner per output kind:
//!
//! * figure / histogram / table1 / table2 / accuracy — [`figures`];
//! * episodes (trace dump) — [`trace`];
//! * conform / check — the differential and model-checking suites;
//! * suite — renders each listed sibling spec into `results/<id>.txt`.

mod check;
mod conform;
pub(crate) mod figures;
mod suite;
mod trace;

use crate::BinError;
use smtsim_rob2::{ExperimentSpec, Knobs, Lab, SpecKind};
use std::path::{Path, PathBuf};

/// The committed spec directory, pinned to the source tree (the
/// binaries' CWD is a scratch directory under `cargo xtask
/// determinism`).
#[must_use]
pub fn spec_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../experiments")
}

/// Runs the committed spec `experiments/<name>.toml`. The entry point
/// every named harness binary delegates to.
pub fn run_named_spec(name: &str) -> Result<(), BinError> {
    run_spec(&spec_dir().join(format!("{name}.toml")))
}

/// Loads, validates and executes one spec file. Malformed specs come
/// back as typed configuration errors (exit 2 through [`crate::run_bin`])
/// with file/line context naming the offending key.
pub fn run_spec(path: &Path) -> Result<(), BinError> {
    let spec = ExperimentSpec::load(path)?;
    let env = Knobs::from_env()?;
    let merged = env.with_spec(&spec);
    match spec.kind {
        SpecKind::Figure => figures::run_figure(&merged, &spec),
        SpecKind::Histogram => figures::run_histogram(&merged, &spec),
        SpecKind::Table1 => figures::run_table1(&merged, &spec),
        SpecKind::Table2 => figures::run_table2(),
        SpecKind::Accuracy => figures::run_accuracy(&merged, &spec),
        SpecKind::Episodes => trace::run(&merged, &spec),
        SpecKind::Conform => conform::run(&merged),
        SpecKind::Check => check::run(&merged),
        SpecKind::Suite => suite::run(&merged, &spec, path),
    }
}

/// Loads a sibling spec referenced by id from a `specs = [...]` list,
/// resolved next to the referencing spec file.
fn sibling_spec(parent: &Path, id: &str) -> Result<ExperimentSpec, BinError> {
    let dir = parent.parent().unwrap_or_else(|| Path::new("."));
    Ok(ExperimentSpec::load(&dir.join(format!("{id}.toml")))?)
}

/// Builds the spec's lab and pre-validates its result cache: the
/// shard an armed `SMTSIM_JOURNAL` directory holds for the lab's
/// universe is opened *here*, so a damaged cache surfaces as a typed
/// [`BinError`] instead of a mid-sweep panic.
fn prepared_spec_lab(env: &Knobs, spec: &ExperimentSpec) -> Result<Lab, BinError> {
    let lab = env.lab_for_spec(spec);
    let on_file = lab.cache_shard()?.map_or(0, |shard| shard.len());
    if on_file > 0 {
        eprintln!("journal: resuming — {on_file} completed cell(s) on file");
    }
    Ok(lab)
}

/// The committed conformance corpus, pinned to the source tree.
fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus")
}

/// Collects the sorted `.case` files under the committed corpus; a
/// missing directory is a configuration error naming the path.
fn corpus_cases() -> Result<Vec<PathBuf>, BinError> {
    let dir = corpus_dir();
    let mut paths: Vec<PathBuf> = match std::fs::read_dir(&dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "case"))
            .collect(),
        Err(e) => {
            return Err(BinError::Config(format!(
                "cannot read {}: {e}",
                dir.display()
            )));
        }
    };
    paths.sort();
    Ok(paths)
}
