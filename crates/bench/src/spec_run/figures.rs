//! Runners for the figure/table/accuracy output kinds: the spec's
//! variant list drives the generic drivers in [`smtsim_rob2::figures`]
//! and the rendering in [`smtsim_rob2::report`].

use super::prepared_spec_lab;
use crate::BinError;
use smtsim_rob2::{
    figures, improvement, report, CellOutcome, ExperimentSpec, Knobs, Lab, RobConfig, SpecKind,
    SweepCell, SweepReport,
};

/// The spec's title (validated present for the kinds that render one).
fn title(spec: &ExperimentSpec) -> &str {
    spec.title.as_deref().expect("validated at parse time")
}

/// The cells a figure or histogram spec renders from, in sweep order:
/// each configuration's mixes, configuration-major, as
/// [`figures::ft_sweep`] dispatches them. A histogram's `compare`
/// reference comes first, the order the legacy fig3/fig7 bins ran in.
pub(super) fn artifact_cells(spec: &ExperimentSpec, mixes: &[usize]) -> Vec<SweepCell> {
    spec.compare
        .iter()
        .map(|(cmp, _)| cmp)
        .chain(&spec.variants)
        .flat_map(|v| mixes.iter().map(move |&m| (m, v.config)))
        .collect()
}

/// Renders a figure or histogram spec from the outcomes of its
/// [`artifact_cells`], in that order. Returns the text and one line
/// per failed cell of the artifact itself (a failed `compare` cell
/// only makes the comparison `n/a`).
pub(super) fn render_artifact(
    lab: &Lab,
    spec: &ExperimentSpec,
    mixes: &[usize],
    mut outcomes: Vec<CellOutcome>,
) -> (String, Vec<String>) {
    if spec.kind == SpecKind::Figure {
        let variants = spec
            .variants
            .iter()
            .map(|v| (v.label.clone(), v.config))
            .collect();
        let own = SweepReport::new(outcomes);
        let fig = figures::ft_figure_from(lab, title(spec), variants, mixes, own);
        return (report::render_figure(&fig), fig.failures);
    }
    let own = SweepReport::new(outcomes.split_off(outcomes.len() - mixes.len()));
    let fig = figures::dod_figure_from(lab, title(spec), spec.variants[0].config, mixes, own);
    let mut text = report::render_histogram(&fig);
    if let Some((cmp, label)) = &spec.compare {
        let base =
            figures::dod_figure_from(lab, label, cmp.config, mixes, SweepReport::new(outcomes));
        text.push_str(&compare_line(fig.pooled_mean(), base.pooled_mean(), label));
    }
    (text, fig.failures)
}

/// Formats the pooled-mean comparison a histogram spec's `compare`
/// key asks for. A histogram whose every mix failed pools to a 0 (or
/// NaN) mean; the comparison is then undefined, not "+0 %".
fn compare_line(pooled: f64, base: f64, label: &str) -> String {
    let vs = match improvement(pooled, base) {
        Some(d) => format!("{:+.1}%", d * 100.0),
        None => "n/a".to_string(),
    };
    format!("mean dependents vs {label}: {vs}\n")
}

/// `kind = "figure"` or `"histogram"`: one artifact to stdout, from
/// one sweep over its cells.
pub(super) fn run_artifact(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let sweep = lab.sweep_cells(&artifact_cells(spec, &env.mixes));
    print!(
        "{}",
        render_artifact(&lab, spec, &env.mixes, sweep.outcomes).0
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
/// runtime failure (exit 1), as in the legacy bin.
pub(super) fn run_accuracy(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let configs: Vec<RobConfig> = spec.variants.iter().map(|v| v.config).collect();
    let acc = figures::accuracy_for(&mut lab, title(spec), &configs, &env.mixes);
    print!("{}", report::render_accuracy(&acc));
    if acc.total_violations() > 0 {
        return Err(BinError::Runtime(format!(
            "{} fill(s) exceeded the static DoD bound",
            acc.total_violations()
        )));
    }
    Ok(())
}
