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
//! * conform — the trace oracles (differential and protocol monitor)
//!   over mixes, the corpus and fresh fuzz;
//! * check — bounded model checking of the protocol;
//! * suite — renders each listed sibling spec into `results/<id>.txt`
//!   from one shared sweep.

mod check;
mod conform;
mod figures;
mod suite;
mod trace;

use crate::BinError;
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
