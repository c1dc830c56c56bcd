//! Runners for the figure/table/accuracy output kinds: the spec-driven
//! sweeps of [`smtsim_rob2::figures`] and the rendering in
//! [`smtsim_rob2::report`], printed to stdout.

use super::prepared_spec_lab;
use crate::BinError;
use smtsim_rob2::{figures, report, ExperimentSpec, Knobs};

/// `kind = "figure"` or `"histogram"`: one artifact to stdout, from
/// one sweep over its cells.
pub(super) fn run_artifact(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let sweep = lab.sweep_cells(&figures::artifact_cells(spec, &env.mixes));
    print!(
        "{}",
        figures::render_artifact(&lab, spec, &env.mixes, sweep.outcomes).0
    );
    Ok(())
}

/// `kind = "table1"`: the machine-configuration table for the spec's
/// machine (environment integrity knobs applied, like every lab).
pub(super) fn run_table1(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    print!("{}", report::render_table1(&env.lab_for_spec(spec).machine));
    Ok(())
}

/// `kind = "table2"`: the benchmark-mix table (no knobs consumed).
pub(super) fn run_table2() -> Result<(), BinError> {
    print!("{}", report::render_table2());
    Ok(())
}

/// `kind = "accuracy"`: the DoD-accuracy table over the spec's
/// schemes; any fill exceeding the static dependence bound is a
/// runtime failure (exit 1).
pub(super) fn run_accuracy(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let acc = figures::accuracy_for(&mut lab, spec, &env.mixes);
    print!("{}", report::render_accuracy(&acc));
    if acc.total_violations() > 0 {
        return Err(BinError::Runtime(format!(
            "{} fill(s) exceeded the static DoD bound",
            acc.total_violations()
        )));
    }
    Ok(())
}
