//! Runners for the figure/table/accuracy output kinds: the spec's
//! variant list drives the generic drivers in [`smtsim_rob2::figures`]
//! and the rendering in [`smtsim_rob2::report`].

use super::prepared_spec_lab;
use crate::BinError;
use smtsim_rob2::{
    figures, improvement, report, ExperimentSpec, FigureData, HistogramData, Knobs, Lab, RobConfig,
};

/// The spec's title (validated present for the kinds that render one).
fn title(spec: &ExperimentSpec) -> &str {
    spec.title.as_deref().expect("validated at parse time")
}

/// Lowers the spec's resolved variants into the `(label, config)`
/// pairs [`figures::ft_sweep`] consumes.
fn variant_pairs(spec: &ExperimentSpec) -> Vec<(String, RobConfig)> {
    spec.variants
        .iter()
        .map(|v| (v.label.clone(), v.config))
        .collect()
}

/// Builds the FT figure a `kind = "figure"` spec describes.
pub(super) fn figure_data(lab: &mut Lab, mixes: &[usize], spec: &ExperimentSpec) -> FigureData {
    figures::ft_sweep(lab, title(spec), variant_pairs(spec), mixes)
}

/// Builds the DoD histogram a `kind = "histogram"` spec describes
/// (the main scheme only — the comparison reference is run separately).
pub(super) fn histogram_data(
    lab: &mut Lab,
    mixes: &[usize],
    spec: &ExperimentSpec,
) -> HistogramData {
    figures::dod_figure(lab, title(spec), spec.variants[0].config, mixes)
}

/// Formats the pooled-mean comparison a histogram spec's `compare`
/// key asks for. A histogram whose every mix failed pools to a 0 (or
/// NaN) mean; the comparison is then undefined, not "+0 %".
pub(super) fn compare_line(pooled: f64, base: f64, label: &str) -> String {
    let vs = match improvement(pooled, base) {
        Some(d) => format!("{:+.1}%", d * 100.0),
        None => "n/a".to_string(),
    };
    format!("mean dependents vs {label}: {vs}\n")
}

/// `kind = "figure"`: one FT figure to stdout.
pub(super) fn run_figure(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let fig = figure_data(&mut lab, &env.mixes, spec);
    print!("{}", report::render_figure(&fig));
    Ok(())
}

/// `kind = "histogram"`: one DoD histogram to stdout, with the
/// optional pooled-mean comparison line. The reference scheme runs
/// *first* on the same lab, matching the legacy fig3/fig7 dispatch
/// order cell for cell.
pub(super) fn run_histogram(env: &Knobs, spec: &ExperimentSpec) -> Result<(), BinError> {
    let mut lab = prepared_spec_lab(env, spec)?;
    let base = spec
        .compare
        .as_ref()
        .map(|(cmp, label)| figures::dod_figure(&mut lab, label, cmp.config, &env.mixes));
    let fig = histogram_data(&mut lab, &env.mixes, spec);
    print!("{}", report::render_histogram(&fig));
    if let (Some(base), Some((_, label))) = (&base, &spec.compare) {
        print!(
            "{}",
            compare_line(fig.pooled_mean(), base.pooled_mean(), label)
        );
    }
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
