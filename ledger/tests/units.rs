//! The ledger's pure pieces: order statistics, span self time, the
//! seeded serve plan and the parent-vs-change verdict.

use smtsim_ledger::compare::{verdict, win_frac, Verdict};
use smtsim_ledger::plan::{self, MissCell};
use smtsim_ledger::span::{self_time_by_layer, self_times, Span};
use smtsim_ledger::stats::{median, quartiles, tail, Summary};
use smtsim_ledger::workload::by_name;
use smtsim_rob2::ExperimentSpec;
use std::collections::BTreeSet;
use std::path::Path;

fn close(a: f64, b: f64) -> bool {
    (a - b).abs() < 1e-9
}

fn ramp(n: usize) -> Vec<f64> {
    // Shuffled, so every statistic must sort first.
    let mut v: Vec<f64> = (1..=n).map(|i| i as f64).collect();
    v.reverse();
    v.swap(0, n / 2);
    v
}

#[test]
fn median_and_quartiles_match_python_exclusive_quantiles() {
    // statistics.median / statistics.quantiles(xs, n=4) in Python.
    assert!(close(median(&ramp(10)), 5.5));
    assert!(close(median(&ramp(9)), 5.0));
    assert!(median(&[]).is_nan());
    let (q1, q3) = quartiles(&ramp(10));
    assert!(close(q1, 2.75) && close(q3, 8.25), "{q1} {q3}");
    let (q1, q3) = quartiles(&[1.0, 2.0, 3.0, 4.0]);
    assert!(close(q1, 1.25) && close(q3, 3.75), "{q1} {q3}");
    // Two samples extrapolate, as Python's exclusive method does.
    let (q1, q3) = quartiles(&[4.0, 1.0]);
    assert!(close(q1, 0.25) && close(q3, 4.75), "{q1} {q3}");
    assert_eq!(quartiles(&[7.0]), (7.0, 7.0));
}

#[test]
fn tail_is_the_highest_nearest_rank_percentile_with_ten_samples_beyond() {
    // 1000 samples: p99 is rank 990 with 10 beyond; p99.9 has 1.
    assert_eq!(tail(&ramp(1000)), Some((99.0, 990.0)));
    // 200 samples: p95 (rank 190) keeps 10 beyond, p99 only 2.
    assert_eq!(tail(&ramp(200)), Some((95.0, 190.0)));
    // 100 samples: p90 (rank 90) is the highest.
    assert_eq!(tail(&ramp(100)), Some((90.0, 90.0)));
    // 20 samples: only the median (rank 10) has 10 beyond.
    assert_eq!(tail(&ramp(20)), Some((50.0, 10.0)));
    assert_eq!(tail(&ramp(19)), None);
    assert_eq!(tail(&[]), None);
    let s = Summary::of(&ramp(10));
    assert_eq!((s.n, s.tail), (10, None));
    assert!(close(s.median, 5.5) && close(s.q1, 2.75) && close(s.q3, 8.25));
}

fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
    Span {
        name: name.into(),
        start,
        end,
        parent,
    }
}

#[test]
fn self_time_subtracts_the_union_of_child_intervals() {
    let spans = vec![
        span("core.phase2", 0, 100, None),
        // Two parallel workers overlapping on [30, 50).
        span("core.run_cell", 10, 50, Some(0)),
        span("core.run_cell", 30, 70, Some(0)),
        // A grandchild covering part of the first cell.
        span("pipeline.run", 20, 40, Some(1)),
        // A child sticking out of its parent counts only inside it.
        span("report.render", 90, 120, Some(0)),
    ];
    // phase2: 100 - |[10,70) ∪ [90,100)| = 100 - 70.
    assert_eq!(self_times(&spans), vec![30, 20, 40, 20, 30]);
    let by_layer = self_time_by_layer(&spans);
    assert_eq!(by_layer["core"], 90);
    assert_eq!(by_layer["pipeline"], 20);
    assert_eq!(by_layer["report"], 30);
}

fn fig2_spec() -> ExperimentSpec {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../experiments/fig2.toml");
    ExperimentSpec::load(&path).expect("experiments/fig2.toml loads")
}

#[test]
fn serve_plan_is_a_pure_function_of_the_seed_and_rep() {
    assert_eq!(plan::miss_plan(42, 0), plan::miss_plan(42, 0));
    assert_ne!(plan::miss_plan(42, 0), plan::miss_plan(7, 0));
    assert_ne!(plan::miss_plan(42, 0), plan::miss_plan(42, 1));
}

#[test]
fn serve_plan_never_repeats_a_cell_nor_asks_for_a_fig2_cell() {
    let fig2: BTreeSet<String> = fig2_spec()
        .variants
        .iter()
        .map(|v| v.config.fingerprint())
        .collect();
    let per_daemon = 1 + by_name("serve-miss").expect("serve-miss").requests;
    assert!(per_daemon <= plan::candidate_schemes().len());
    for seed in [0, 42, u64::MAX] {
        for rep in 0..3 {
            let cells: Vec<MissCell> = plan::miss_plan(seed, rep);
            assert_eq!(cells.len(), plan::candidate_schemes().len());
            let distinct: BTreeSet<String> = cells
                .iter()
                .map(|c| {
                    let spec = ExperimentSpec::parse(&c.id(), &c.spec_toml())
                        .unwrap_or_else(|e| panic!("{}: {e}", c.id()));
                    assert_eq!(spec.variants.len(), 1);
                    assert_eq!(spec.effective_mixes(), vec![plan::MISS_MIX]);
                    let fp = spec.variants[0].config.fingerprint();
                    assert!(!fig2.contains(&fp), "{} is a fig2 cell", c.id());
                    fp
                })
                .collect();
            assert_eq!(distinct.len(), cells.len(), "seed {seed} repeats a cell");
        }
    }
}

#[test]
fn verdicts_follow_the_pairwise_rule_and_the_bounds() {
    let parent = [
        100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 101.0, 99.0, 100.0, 100.2,
    ];
    // Faster in every pair, by more than the parent's IQR.
    let faster: Vec<f64> = parent.iter().map(|p| p - 10.0).collect();
    assert!(close(win_frac(&parent, &faster, true), 1.0));
    assert_eq!(verdict(&parent, &faster, 0.05, true), Verdict::Improved);
    // 1% slower, inside a 5% bound.
    let slower: Vec<f64> = parent.iter().map(|p| p * 1.01).collect();
    assert_eq!(verdict(&parent, &slower, 0.05, true), Verdict::Unchanged);
    // 20% slower.
    let worse: Vec<f64> = parent.iter().map(|p| p * 1.2).collect();
    assert_eq!(verdict(&parent, &worse, 0.05, true), Verdict::Regressed);
    // For a higher-is-better metric the same numbers flip.
    assert_eq!(verdict(&parent, &worse, 0.05, false), Verdict::Improved);
    // A parent noisier than the bound cannot show "unchanged".
    let noisy = [
        50.0, 150.0, 60.0, 140.0, 100.0, 70.0, 130.0, 80.0, 120.0, 100.0,
    ];
    assert_eq!(verdict(&noisy, &noisy, 0.05, true), Verdict::Unresolved);
    // A zero bound flags any rise.
    assert_eq!(
        verdict(&[0.0; 10], &[0.0; 10], 0.0, true),
        Verdict::Unchanged
    );
    let mut one = [0.0; 10];
    one[3] = 0.01;
    assert_eq!(verdict(&[0.0; 10], &one, 0.0, true), Verdict::Regressed);
}

#[test]
fn benchmark_json_lists_exactly_the_workloads_and_metrics_the_code_reports() {
    use smtsim_ledger::json::{parse_json, Json};
    use smtsim_ledger::metrics::{E2E, LAYERS};
    use smtsim_ledger::workload::WORKLOADS;
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
    let doc = parse_json(&text).expect("BENCHMARK.json is JSON");
    let list = |key: &str, fields: &[&str]| -> Vec<Vec<String>> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key}"))
            .iter()
            .map(|e| {
                fields
                    .iter()
                    .map(|f| e.get(f).and_then(Json::as_str).expect(f).to_string())
                    .collect()
            })
            .collect()
    };
    let want: Vec<Vec<String>> = WORKLOADS
        .iter()
        .map(|w| vec![w.name.to_string(), w.why.to_string()])
        .collect();
    assert_eq!(list("workloads", &["name", "why"]), want);
    let metrics = |ms: &[smtsim_ledger::metrics::Meta]| -> Vec<Vec<String>> {
        ms.iter()
            .map(|m| {
                let better = if m.lower_is_better { "lower" } else { "higher" };
                vec![m.name.to_string(), m.unit.to_string(), better.to_string()]
            })
            .collect()
    };
    assert_eq!(
        list("end_to_end", &["name", "unit", "better"]),
        metrics(&E2E)
    );
    assert_eq!(
        list("per_layer", &["name", "unit", "better"]),
        metrics(&LAYERS)
    );
}
