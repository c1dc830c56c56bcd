//! Regeneration of every figure and table in the paper's evaluation
//! (§5). Each function returns structured data; `report.rs` renders it
//! as text, and `smtsim-bench` wraps each in a binary and a Criterion
//! bench.

use crate::experiment::{Lab, MixRun, RobConfig, SweepCell};
use crate::metrics::mean;
use crate::twolevel::{Scheme, TwoLevelConfig};
use smtsim_pipeline::{DodHistogram, DodOracleStats, SimError};

/// All 11 paper mixes.
pub const ALL_MIXES: [usize; 11] = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11];

/// One line series across mixes (e.g. FT of one configuration).
#[derive(Clone, Debug)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(mix name, value)` per mix; `None` marks a cell whose run
    /// failed (rendered as `n/a`).
    pub points: Vec<(String, Option<f64>)>,
    /// Arithmetic mean across the mixes that produced a value (the
    /// paper's "Average" bar). `NaN` when every cell failed.
    pub average: f64,
}

impl Series {
    /// Builds a series from per-mix run results, recording one
    /// single-line entry per failed cell into `failures`.
    fn from_results(
        label: impl Into<String>,
        results: Vec<(String, Result<MixRun, SimError>)>,
        failures: &mut Vec<String>,
    ) -> Self {
        let label = label.into();
        let mut points = Vec::with_capacity(results.len());
        for (mix_name, res) in results {
            match res {
                Ok(r) => points.push((mix_name, Some(r.ft))),
                Err(e) => {
                    failures.push(failure_line(&mix_name, &label, &e));
                    points.push((mix_name, None));
                }
            }
        }
        let present: Vec<f64> = points.iter().filter_map(|(_, v)| *v).collect();
        let average = if present.is_empty() {
            f64::NAN
        } else {
            mean(&present)
        };
        Series {
            label,
            points,
            average,
        }
    }
}

/// One compact line describing a failed cell (first line of the error —
/// deadlock snapshots are multi-line).
fn failure_line(mix_name: &str, label: &str, e: &SimError) -> String {
    let msg = e.to_string();
    let first = msg.lines().next().unwrap_or("error").to_string();
    format!("{mix_name} / {label}: {first}")
}

fn mix_name(m: usize) -> String {
    smtsim_workload::mix(m).name.to_string()
}

/// A bar-chart style figure: several series over the same mixes.
#[derive(Clone, Debug)]
pub struct FigureData {
    /// Figure title.
    pub title: String,
    /// The series.
    pub series: Vec<Series>,
    /// One line per failed `(mix, configuration)` cell; empty on a
    /// fully healthy sweep.
    pub failures: Vec<String>,
    /// The sweep-health footer, present only when the lab had any
    /// resilience feature active ([`Lab::resilience_active`]) — plain
    /// labs keep producing byte-identical committed goldens.
    pub health: Option<String>,
}

impl FigureData {
    /// Average improvement of `series[idx]` over `series[base]`, when
    /// both averages are well-defined — `None` for a degenerate or
    /// poisoned baseline (e.g. a series whose every cell failed).
    pub fn avg_improvement(&self, idx: usize, base: usize) -> Option<f64> {
        crate::metrics::improvement(self.series[idx].average, self.series[base].average)
    }
}

/// A histogram figure: per-mix DoD distributions (Figures 1/3/7).
#[derive(Clone, Debug)]
pub struct HistogramData {
    /// Figure title.
    pub title: String,
    /// `(mix name, histogram)` per mix; failed mixes are omitted and
    /// listed in [`HistogramData::failures`].
    pub mixes: Vec<(String, DodHistogram)>,
    /// One line per failed mix; empty on a fully healthy sweep.
    pub failures: Vec<String>,
    /// Sweep-health footer (see [`FigureData::health`]).
    pub health: Option<String>,
}

impl HistogramData {
    /// Mean dependent count pooled over all mixes.
    pub fn pooled_mean(&self) -> f64 {
        let mut pooled = DodHistogram::default();
        for (_, h) in &self.mixes {
            pooled.merge(h);
        }
        pooled.mean()
    }
}

fn ft_figure(lab: &mut Lab, title: &str, configs: &[RobConfig], mixes: &[usize]) -> FigureData {
    let variants: Vec<(String, RobConfig)> = configs.iter().map(|c| (c.label(), *c)).collect();
    ft_sweep(lab, title, variants, mixes)
}

/// Shared FT-figure driver: one series per labeled configuration, all
/// `mix × config` cells dispatched through [`Lab::sweep`] as one batch
/// (one phase-1 normalization pass, one phase-2 fan-out) and sliced
/// back per series in input order.
pub fn ft_sweep(
    lab: &mut Lab,
    title: &str,
    variants: Vec<(String, RobConfig)>,
    mixes: &[usize],
) -> FigureData {
    let cells: Vec<SweepCell> = variants
        .iter()
        .flat_map(|(_, cfg)| {
            let cfg = *cfg;
            mixes.iter().map(move |&m| (m, cfg))
        })
        .collect();
    let report = lab.sweep_cells(&cells);
    ft_figure_from(lab, title, variants, mixes, report)
}

/// The figure-assembly half of [`ft_sweep`]: builds the FT figure from
/// a finished report whose outcomes are in the configuration-major
/// `variants × mixes` order [`ft_sweep`] dispatches. Public so a
/// caller that ran the cells itself — the serve daemon, from the
/// outcomes its workers streamed, or the spec executor's suite, from
/// its slice of one shared sweep — renders exactly the offline bytes.
pub fn ft_figure_from(
    lab: &Lab,
    title: &str,
    variants: Vec<(String, RobConfig)>,
    mixes: &[usize],
    report: crate::SweepReport,
) -> FigureData {
    let health = sweep_health_note(lab, &report);
    let mut results = report.results().into_iter();
    let mut failures = Vec::new();
    let series = variants
        .into_iter()
        .map(|(label, _)| {
            let rows: Vec<(String, Result<MixRun, SimError>)> = mixes
                .iter()
                .map(|&m| (mix_name(m), results.next().expect("one result per cell")))
                .collect();
            Series::from_results(label, rows, &mut failures)
        })
        .collect();
    FigureData {
        title: title.to_string(),
        series,
        failures,
        health,
    }
}

/// The health footer attached to figure data: only present when the
/// lab has a resilience feature armed, so figures from a plain lab
/// stay byte-identical to the committed goldens. The summary itself is
/// path-independent (see [`crate::SweepHealth`]) — a resumed sweep
/// renders the same footer as an uninterrupted one.
fn sweep_health_note(lab: &Lab, report: &crate::SweepReport) -> Option<String> {
    lab.resilience_active()
        .then(|| report.health.summary_line())
}

/// Shared DoD-histogram driver: one column per mix under a single
/// configuration, all cells dispatched through [`Lab::sweep_cells`] as
/// one batch. [`fig1`]/[`fig3`]/[`fig7`] are fixed-wiring wrappers.
pub fn dod_figure(lab: &mut Lab, title: &str, cfg: RobConfig, mixes: &[usize]) -> HistogramData {
    let cells: Vec<SweepCell> = mixes.iter().map(|&m| (m, cfg)).collect();
    let report = lab.sweep_cells(&cells);
    dod_figure_from(lab, title, cfg, mixes, report)
}

/// The histogram-assembly half of [`dod_figure`]: builds the DoD
/// histogram from a finished report holding one outcome per mix, in
/// `mixes` order. Public so a caller that swept the cells together
/// with others (the spec executor's suite) renders the same bytes.
pub fn dod_figure_from(
    lab: &Lab,
    title: &str,
    cfg: RobConfig,
    mixes: &[usize],
    report: crate::SweepReport,
) -> HistogramData {
    let health = sweep_health_note(lab, &report);
    let mut failures = Vec::new();
    let mut cols = Vec::with_capacity(mixes.len());
    for (&m, res) in mixes.iter().zip(report.results()) {
        match res {
            Ok(run) => cols.push((run.mix.clone(), run.stats.dod_at_fill.clone())),
            Err(e) => failures.push(failure_line(&mix_name(m), &cfg.label(), &e)),
        }
    }
    HistogramData {
        title: title.to_string(),
        mixes: cols,
        failures,
        health,
    }
}

/// Figure 1: number of instructions dependent on a long-latency load,
/// observed in the ROB at miss service time, on the baseline machine.
pub fn fig1(lab: &mut Lab, mixes: &[usize]) -> HistogramData {
    dod_figure(
        lab,
        "Figure 1: DoD at L2-miss service time (Baseline_32)",
        RobConfig::Baseline(32),
        mixes,
    )
}

/// Figure 2: FT of 2-Level R-ROB16 vs Baseline_32 and Baseline_128.
pub fn fig2(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    ft_figure(
        lab,
        "Figure 2: FT with 2-Level R-ROB",
        &[
            RobConfig::Baseline(32),
            RobConfig::Baseline(128),
            RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
        ],
        mixes,
    )
}

/// Figure 3: DoD distribution under 2-Level R-ROB16 (the paper reports
/// a 56 % increase in captured dependents over Figure 1).
pub fn fig3(lab: &mut Lab, mixes: &[usize]) -> HistogramData {
    dod_figure(
        lab,
        "Figure 3: DoD at L2-miss service time (2-Level R-ROB16)",
        RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
        mixes,
    )
}

/// Figure 4: FT of 2-Level Relaxed R-ROB15.
pub fn fig4(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    ft_figure(
        lab,
        "Figure 4: FT with 2-Level Relaxed R-ROB15",
        &[
            RobConfig::Baseline(32),
            RobConfig::Baseline(128),
            RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)),
        ],
        mixes,
    )
}

/// Figure 5: FT of 2-Level CDR-ROB15 (32-cycle count delay).
pub fn fig5(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    ft_figure(
        lab,
        "Figure 5: FT with 2-Level CDR-ROB15",
        &[
            RobConfig::Baseline(32),
            RobConfig::Baseline(128),
            RobConfig::TwoLevel(TwoLevelConfig::cdr_rob(15)),
        ],
        mixes,
    )
}

/// Figure 6: FT of 2-Level P-ROB3 and P-ROB5.
pub fn fig6(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    ft_figure(
        lab,
        "Figure 6: FT with 2-Level P-ROB",
        &[
            RobConfig::Baseline(32),
            RobConfig::Baseline(128),
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(3)),
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)),
        ],
        mixes,
    )
}

/// Figure 7: DoD distribution under 2-Level P-ROB (the paper reports a
/// 120 % increase in captured dependents over Figure 1).
pub fn fig7(lab: &mut Lab, mixes: &[usize]) -> HistogramData {
    dod_figure(
        lab,
        "Figure 7: DoD at L2-miss service time (2-Level P-ROB5)",
        RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)),
        mixes,
    )
}

/// One row of the DoD-accuracy table: how well the dynamic machinery
/// (the §4.1 hardware counter and, for P-ROB, the §4.2 predictor)
/// tracked the static-analysis ground truth in one mix × configuration
/// run.
#[derive(Clone, Debug)]
pub struct AccuracyRow {
    /// "Mix 1" .. "Mix 11".
    pub mix: String,
    /// Configuration label.
    pub config: String,
    /// Oracle cross-check counters for the run (checked fills,
    /// bound violations, exact/counter-error means).
    pub oracle: DodOracleStats,
    /// Verified prediction accuracy, for predictive configurations.
    pub pred_accuracy: Option<f64>,
    /// Predictor table coverage, for predictive configurations.
    pub pred_coverage: Option<f64>,
}

/// The DoD-accuracy table: per mix × configuration oracle and
/// predictor quality metrics.
#[derive(Clone, Debug)]
pub struct AccuracyData {
    /// Table title.
    pub title: String,
    /// One row per healthy mix × configuration cell.
    pub rows: Vec<AccuracyRow>,
    /// One line per failed cell; empty on a fully healthy sweep.
    pub failures: Vec<String>,
    /// Sweep-health footer (see [`FigureData::health`]).
    pub health: Option<String>,
}

impl AccuracyData {
    /// Total bound violations across all rows (must be zero on a
    /// healthy simulator).
    pub fn total_violations(&self) -> u64 {
        self.rows.iter().map(|r| r.oracle.violations).sum()
    }
}

/// DoD-accuracy table over `mixes`: the dynamic DoD counter and the
/// P-ROB predictor cross-checked against the static dependence bounds,
/// under the paper's reactive (R-ROB16) and predictive (P-ROB5)
/// configurations.
pub fn accuracy(lab: &mut Lab, mixes: &[usize]) -> AccuracyData {
    accuracy_for(
        lab,
        "DoD accuracy: dynamic counter & predictor vs. static bounds",
        &[
            RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)),
        ],
        mixes,
    )
}

/// Generic DoD-accuracy driver over an arbitrary configuration list —
/// the entry point `kind = "accuracy"` specs render through.
pub fn accuracy_for(
    lab: &mut Lab,
    title: &str,
    configs: &[RobConfig],
    mixes: &[usize],
) -> AccuracyData {
    let cells: Vec<SweepCell> = configs
        .iter()
        .flat_map(|&cfg| mixes.iter().map(move |&m| (m, cfg)))
        .collect();
    let report = lab.sweep_cells(&cells);
    let health = sweep_health_note(lab, &report);
    let mut results = report.results().into_iter();
    let mut rows = Vec::new();
    let mut failures = Vec::new();
    for cfg in configs {
        for &m in mixes {
            match results.next().expect("one result per cell") {
                Ok(run) => {
                    let predictive = run
                        .twolevel
                        .filter(|tl| tl.pred_hits + tl.pred_cold > 0 || tl.cov_lookups > 0);
                    rows.push(AccuracyRow {
                        mix: run.mix,
                        config: run.config,
                        oracle: run.stats.dod_oracle,
                        pred_accuracy: predictive.map(|tl| tl.prediction_accuracy()),
                        pred_coverage: predictive.map(|tl| tl.coverage()),
                    });
                }
                Err(e) => failures.push(failure_line(&mix_name(m), &cfg.label(), &e)),
            }
        }
    }
    AccuracyData {
        title: title.to_string(),
        rows,
        failures,
        health,
    }
}

/// §5.2 text: DoD-threshold sweep for the reactive scheme
/// ("thresholds ranging from 1 to 16"; higher values clog the IQ).
pub fn threshold_sweep(lab: &mut Lab, mixes: &[usize], thresholds: &[u32]) -> FigureData {
    let mut configs = vec![RobConfig::Baseline(32)];
    configs.extend(
        thresholds
            .iter()
            .map(|&t| RobConfig::TwoLevel(TwoLevelConfig::r_rob(t))),
    );
    ft_figure(lab, "DoD threshold sweep (2-Level R-ROB)", &configs, mixes)
}

/// Ablation A1 (DESIGN.md §6): design-choice sensitivity of the
/// reactive scheme — recheck cadence, CDR snapshot delay, release
/// policy, and second-level size.
pub fn ablation(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    use crate::twolevel::ReleasePolicy;
    let mut variants: Vec<(String, TwoLevelConfig)> = Vec::new();
    let base = TwoLevelConfig::r_rob(16);
    variants.push(("R-ROB16 (paper)".into(), base));
    for interval in [1, 5, 20] {
        let mut c = base;
        c.recheck_interval = interval;
        variants.push((format!("recheck={interval}"), c));
    }
    for delay in [8, 16, 64] {
        let mut c = TwoLevelConfig::cdr_rob(15);
        c.scheme = Scheme::CountDelayed { delay };
        variants.push((format!("CDR delay={delay}"), c));
    }
    {
        let mut c = base;
        c.release = ReleasePolicy::DrainOnly;
        variants.push(("release=drain-only".into(), c));
    }
    for l2 in [96, 192, 768] {
        let mut c = base;
        c.l2_entries = l2;
        variants.push((format!("L2={l2}"), c));
    }
    let variants: Vec<(String, RobConfig)> = variants
        .into_iter()
        .map(|(label, cfg)| (label, RobConfig::TwoLevel(cfg)))
        .collect();
    ft_sweep(lab, "Ablation: two-level design choices", variants, mixes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_pipeline::FaultPlan;

    fn lab() -> Lab {
        Lab::new(11).with_budgets(6_000, 6_000)
    }

    #[test]
    fn fig1_histograms_have_samples() {
        let mut lab = lab();
        let h = fig1(&mut lab, &[1]);
        assert_eq!(h.mixes.len(), 1);
        assert!(h.mixes[0].1.samples > 0);
        assert!(h.pooled_mean() >= 0.0);
    }

    #[test]
    fn fig2_has_three_series_over_requested_mixes() {
        let mut lab = lab();
        let f = fig2(&mut lab, &[1, 9]);
        assert_eq!(f.series.len(), 3);
        assert_eq!(f.series[0].label, "Baseline_32");
        assert_eq!(f.series[2].label, "2-Level R-ROB16");
        for s in &f.series {
            assert_eq!(s.points.len(), 2);
            assert!(s.points.iter().all(|(_, v)| v.is_some()));
            assert!(s.average > 0.0);
        }
        assert!(f.failures.is_empty());
    }

    #[test]
    fn poisoned_cell_is_isolated_as_na() {
        let mut lab = lab();
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(2);
        plan.drop_fill = 1; // every fill for mix 1 is lost
        lab.set_fault(Some(1), plan);
        let f = fig2(&mut lab, &[1, 9]);
        assert_eq!(f.failures.len(), 3, "one failure per configuration");
        for s in &f.series {
            assert!(s.points[0].1.is_none(), "poisoned cell must be n/a");
            assert!(s.points[1].1.is_some(), "healthy cell must survive");
            // The average is over surviving cells only.
            assert!(s.average > 0.0 && s.average.is_finite());
        }
        for line in &f.failures {
            assert!(line.contains("deadlock"), "failure line: {line}");
            assert_eq!(line.lines().count(), 1, "failure lines are compact");
        }
    }

    #[test]
    fn poisoned_histogram_mix_is_skipped_with_note() {
        let mut lab = lab();
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(3);
        plan.drop_fill = 1;
        lab.set_fault(Some(1), plan);
        let h = fig1(&mut lab, &[1, 9]);
        assert_eq!(h.mixes.len(), 1, "failed mix omitted");
        assert_eq!(h.failures.len(), 1);
        assert!(h.failures[0].contains("deadlock"));
    }

    #[test]
    fn fig6_includes_both_p_rob_thresholds() {
        let mut lab = lab();
        let f = fig6(&mut lab, &[2]);
        let labels: Vec<&str> = f.series.iter().map(|s| s.label.as_str()).collect();
        assert!(labels.contains(&"2-Level P-ROB3"));
        assert!(labels.contains(&"2-Level P-ROB5"));
    }

    #[test]
    fn threshold_sweep_labels() {
        let mut lab = lab();
        let f = threshold_sweep(&mut lab, &[1], &[4, 16]);
        assert_eq!(f.series.len(), 3);
        assert_eq!(f.series[1].label, "2-Level R-ROB4");
    }

    #[test]
    fn accuracy_table_checks_fills_without_violations() {
        let mut lab = lab();
        let a = accuracy(&mut lab, &[1]);
        assert_eq!(a.rows.len(), 2, "R-ROB16 and P-ROB5 rows");
        assert!(a.failures.is_empty());
        assert_eq!(a.total_violations(), 0, "static bound must hold");
        for r in &a.rows {
            assert!(
                r.oracle.checked > 0,
                "{}: the oracle must see fills",
                r.config
            );
            // Exact dependents can never exceed the §4.1 counter, so
            // the mean error is exactly the counter's MLP overcount.
            assert!(r.oracle.mean_exact() >= 0.0);
        }
        let p_rob = a.rows.iter().find(|r| r.config.contains("P-ROB")).unwrap();
        assert!(p_rob.pred_accuracy.is_some(), "P-ROB exposes accuracy");
        assert!(p_rob.pred_coverage.is_some(), "P-ROB exposes coverage");
        let r_rob = a.rows.iter().find(|r| r.config.contains("R-ROB")).unwrap();
        assert!(r_rob.pred_accuracy.is_none(), "R-ROB has no predictor");
    }

    #[test]
    fn avg_improvement_math() {
        let f = FigureData {
            title: "t".into(),
            series: vec![
                Series {
                    label: "a".into(),
                    points: vec![],
                    average: 1.0,
                },
                Series {
                    label: "b".into(),
                    points: vec![],
                    average: 1.3,
                },
            ],
            failures: vec![],
            health: None,
        };
        let d = f.avg_improvement(1, 0).expect("healthy averages");
        assert!((d - 0.3).abs() < 1e-12);
        // A poisoned baseline makes the comparison undefined, not +0 %.
        assert_eq!(f.avg_improvement(0, 1).map(|_| ()), Some(()));
        let mut poisoned = f.clone();
        poisoned.series[0].average = f64::NAN;
        assert_eq!(poisoned.avg_improvement(1, 0), None);
    }

    #[test]
    fn figures_are_identical_at_any_job_count() {
        let render = |jobs: usize| {
            let mut lab = lab();
            lab.jobs = Some(jobs);
            let fig = fig2(&mut lab, &[1, 9]);
            let hist = fig1(&mut lab, &[1, 9]);
            (
                crate::report::render_figure(&fig),
                crate::report::render_histogram(&hist),
            )
        };
        let serial = render(1);
        let parallel = render(4);
        assert_eq!(serial.0, parallel.0, "FT figure differs across job counts");
        assert_eq!(serial.1, parallel.1, "histogram differs across job counts");
    }

    #[test]
    fn health_footer_appears_only_under_resilience() {
        // Plain lab: no footer — committed goldens stay byte-identical.
        let mut plain = lab();
        let f = fig2(&mut plain, &[1]);
        assert!(f.health.is_none());
        assert!(!crate::report::render_figure(&f).contains("sweep health"));
        // Resilient lab with idle knobs: footer present, all healthy.
        let mut resilient = lab();
        resilient.retries = 1;
        let f = fig2(&mut resilient, &[1]);
        assert_eq!(
            f.health.as_deref(),
            Some("sweep health: 3 ok (0 retried), 0 timed out, 0 failed")
        );
        let rendered = crate::report::render_figure(&f);
        assert!(rendered.ends_with("sweep health: 3 ok (0 retried), 0 timed out, 0 failed\n"));
        // A watchdog-tight lab renders every cell n/a with a timeout
        // note plus the footer.
        let mut tight = lab();
        tight.cell_cycle_budget = Some(400);
        let h = fig1(&mut tight, &[1]);
        assert!(h.mixes.is_empty());
        assert_eq!(h.failures.len(), 1);
        assert!(
            h.failures[0].contains("timed out at cycle 400"),
            "{:?}",
            h.failures
        );
        let rendered = crate::report::render_histogram(&h);
        assert!(rendered.contains("failed: "));
        assert!(rendered.contains("sweep health: 0 ok (0 retried), 1 timed out, 0 failed"));
    }
}
