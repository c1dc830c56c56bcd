//! The paper's qualitative results, asserted as tests. These are the
//! reproduction's success criteria (DESIGN.md §5): the *shape* of every
//! headline claim must hold at laptop-scale budgets.

use smtsim_rob2::{figures, ExperimentSpec, HistogramData, Lab, RobConfig, TwoLevelConfig};

/// Memory-bound mixes, where the mechanism is designed to win.
const MEMORY_MIXES: [usize; 4] = [1, 3, 5, 9];

fn lab() -> Lab {
    let mut lab = Lab::new(42).with_budgets(25_000, 25_000);
    lab.warmup = 60_000;
    lab
}

/// The committed histogram spec `experiments/<id>.toml`, swept over
/// `mixes`: its histogram and its `compare` reference's, if any.
fn histogram(lab: &mut Lab, id: &str, mixes: &[usize]) -> (HistogramData, Option<HistogramData>) {
    let spec = ExperimentSpec::load(&smtsim_rob2::spec_dir().join(format!("{id}.toml")))
        .expect("committed spec parses");
    figures::histogram_for(lab, &spec, mixes)
}

fn avg_ft(lab: &mut Lab, cfg: RobConfig, mixes: &[usize]) -> f64 {
    let s: f64 = mixes.iter().map(|&m| lab.run_mix(m, cfg).ft).sum();
    s / mixes.len() as f64
}

#[test]
fn baseline_128_underperforms_baseline_32() {
    // §5.2 / Figure 2: "the Baseline_128 configuration significantly
    // underperforms the Baseline_32 configuration due to the increased
    // pressure on the shared resources".
    let mut lab = lab();
    let b32 = avg_ft(&mut lab, RobConfig::Baseline(32), &MEMORY_MIXES);
    let b128 = avg_ft(&mut lab, RobConfig::Baseline(128), &MEMORY_MIXES);
    assert!(
        b128 < b32 * 0.95,
        "Baseline_128 ({b128:.4}) must lose to Baseline_32 ({b32:.4})"
    );
}

#[test]
fn reactive_two_level_beats_both_baselines() {
    // Figure 2's headline: 2-Level R-ROB16 above Baseline_32 and far
    // above Baseline_128 on memory-bound mixes.
    let mut lab = lab();
    let b32 = avg_ft(&mut lab, RobConfig::Baseline(32), &MEMORY_MIXES);
    let b128 = avg_ft(&mut lab, RobConfig::Baseline(128), &MEMORY_MIXES);
    let r16 = avg_ft(
        &mut lab,
        RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
        &MEMORY_MIXES,
    );
    assert!(
        r16 > b32,
        "R-ROB16 ({r16:.4}) must beat Baseline_32 ({b32:.4})"
    );
    assert!(
        r16 > b128 * 1.15,
        "R-ROB16 ({r16:.4}) must clearly beat Baseline_128 ({b128:.4})"
    );
}

#[test]
fn all_two_level_schemes_beat_baseline_on_memory_mixes() {
    // Figures 2/4/5/6: every scheme improves FT on the memory-bound
    // workloads it targets.
    let mut lab = lab();
    let b32 = avg_ft(&mut lab, RobConfig::Baseline(32), &MEMORY_MIXES);
    for cfg in [
        TwoLevelConfig::r_rob(16),
        TwoLevelConfig::relaxed_r_rob(15),
        TwoLevelConfig::cdr_rob(15),
        TwoLevelConfig::p_rob(5),
    ] {
        let ft = avg_ft(&mut lab, RobConfig::TwoLevel(cfg), &MEMORY_MIXES);
        assert!(
            ft > b32,
            "{:?} ({ft:.4}) must beat Baseline_32 ({b32:.4})",
            cfg.scheme
        );
    }
}

#[test]
fn high_ilp_mixes_are_not_harmed() {
    // The mechanism's defining property: memory-bound threads are
    // accelerated "without adversely impacting the performance of other
    // concurrently running applications". On the execution-bound mixes
    // (10, 11) the second level stays idle and FT is unchanged.
    let mut lab = lab();
    for m in [10usize, 11] {
        let base = lab.run_mix(m, RobConfig::Baseline(32));
        let two = lab.run_mix(m, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)));
        assert!(
            two.ft >= base.ft * 0.97,
            "Mix {m}: two-level ({:.4}) must not hurt the baseline ({:.4})",
            two.ft,
            base.ft
        );
        let tl = two.twolevel.unwrap();
        assert!(
            tl.allocations <= 5,
            "Mix {m}: execution-bound threads should rarely qualify ({} allocations)",
            tl.allocations
        );
    }
}

#[test]
fn figure1_dod_distribution_is_small_and_skewed() {
    // Figure 1: "a typical number of load-dependent instructions is
    // fairly small for all simulated mixes".
    let mut lab = lab();
    let (fig, _) = histogram(&mut lab, "fig1", &[1, 2, 4]);
    for (name, h) in &fig.mixes {
        assert!(h.samples > 50, "{name}: too few fill samples");
        assert!(
            h.mean() < 16.0,
            "{name}: mean DoD {:.2} not small",
            h.mean()
        );
        // Right-skew: the lower half of the range holds most mass.
        let low: u64 = h.bins()[..16].iter().sum();
        assert!(
            low * 2 > h.samples,
            "{name}: distribution should be skewed toward small counts"
        );
    }
}

#[test]
fn deeper_windows_capture_more_dependents() {
    // Figures 3 and 7: the captured dependent count rises under the
    // two-level schemes (paper: +56 % reactive, +120 % predictive), and
    // the predictive scheme — which allocates earliest and overlaps the
    // most misses — captures at least as much as the reactive one.
    let mut lab = lab();
    let mixes = [1usize, 3, 4];
    // Figures 3 and 7 each carry Figure 1 as their `compare` reference.
    let (reactive, Some(base)) = histogram(&mut lab, "fig3", &mixes) else {
        panic!("fig3 compares against Figure 1")
    };
    let (predictive, _) = histogram(&mut lab, "fig7", &mixes);
    let (base, reactive, predictive) = (
        base.pooled_mean(),
        reactive.pooled_mean(),
        predictive.pooled_mean(),
    );
    assert!(
        reactive > base * 1.1,
        "R-ROB mean DoD ({reactive:.2}) must exceed baseline ({base:.2})"
    );
    assert!(
        predictive > base * 1.2,
        "P-ROB mean DoD ({predictive:.2}) must clearly exceed baseline ({base:.2})"
    );
}

#[test]
fn dod_threshold_matters() {
    // §5.2: the threshold is "pivotal in preventing the issue queue
    // clog" — a tiny threshold allocates rarely (few gains), so the
    // paper's threshold must beat it on memory-bound mixes.
    let mut lab = lab();
    let mixes = [1usize, 4];
    let t1 = avg_ft(
        &mut lab,
        RobConfig::TwoLevel(TwoLevelConfig::r_rob(1)),
        &mixes,
    );
    let t16 = avg_ft(
        &mut lab,
        RobConfig::TwoLevel(TwoLevelConfig::r_rob(16)),
        &mixes,
    );
    assert!(
        t16 >= t1,
        "threshold 16 ({t16:.4}) should do at least as well as threshold 1 ({t1:.4})"
    );
}

#[test]
fn predictive_scheme_prediction_accuracy_is_high() {
    // §4.2: "for the same control flow path the number of
    // load-dependent instructions does not change", so the last-value
    // predictor should verify accurately.
    let mut lab = lab();
    let r = lab.run_mix(1, RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)));
    let tl = r.twolevel.unwrap();
    assert!(tl.pred_verified > 50, "need verified predictions");
    assert!(
        tl.prediction_accuracy() > 0.8,
        "last-value DoD accuracy {:.2} too low",
        tl.prediction_accuracy()
    );
}
