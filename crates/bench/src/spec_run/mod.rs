//! The spec executor: runs a parsed [`ExperimentSpec`] end to end.
//!
//! The `spec` bin hands [`run_spec`] the file `SMTSIM_SPEC` names
//! (usually a committed `experiments/<id>.toml`); this module loads
//! it, merges the environment knobs under the documented precedence
//! ([`Knobs::with_spec`]), lowers the result into a
//! [`smtsim_rob2::Lab`] and writes the artifact the spec describes.
//!
//! One runner per output kind:
//!
//! * figure / histogram / table1 / table2 / accuracy — `figures`,
//!   over the spec-driven sweeps of [`smtsim_rob2::figures`];
//! * episodes (trace dump) — `trace`;
//! * conform / check — the differential and model-checking suites;
//! * suite — renders each listed sibling spec into `results/<id>.txt`
//!   from one shared sweep.

mod check;
mod conform;
mod figures;
mod suite;
mod trace;

use crate::BinError;
use smtsim_conform::{committed_corpus, CaseSpec};
use smtsim_rob2::{ExperimentSpec, Knobs, Lab, SpecKind};
use std::path::Path;

/// Loads, validates and executes one spec file. Malformed specs come
/// back as typed configuration errors (exit 2 through [`crate::run_bin`])
/// with file/line context naming the offending key.
pub fn run_spec(path: &Path) -> Result<(), BinError> {
    let spec = ExperimentSpec::load(path)?;
    let env = Knobs::from_env()?;
    let merged = env.with_spec(&spec);
    match spec.kind {
        SpecKind::Figure | SpecKind::Histogram => figures::run_artifact(&merged, &spec),
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

/// The committed conformance corpus ([`committed_corpus`]): each
/// readable case's file name and spec. An empty corpus and each
/// unreadable case print a `FAIL` line and count in `failures`; an
/// unreadable directory is a configuration error naming the path.
fn corpus(failures: &mut usize) -> Result<Vec<(String, CaseSpec)>, BinError> {
    let cases = committed_corpus().map_err(BinError::Config)?;
    if cases.is_empty() {
        *failures += 1;
        println!("  FAIL: no .case files in tests/corpus");
    }
    let mut readable = Vec::new();
    for (name, spec) in cases {
        match spec {
            Ok(spec) => readable.push((name, spec)),
            Err(e) => {
                *failures += 1;
                println!("  {name}: FAIL (unreadable: {e})");
            }
        }
    }
    Ok(readable)
}
