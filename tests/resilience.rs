//! Crash-tolerance regression suite (DESIGN.md §13): the persistent
//! result cache, the per-cell watchdog and the retry layer.
//!
//! The invariants under test:
//!
//! * a sweep killed mid-flight and relaunched on its cache directory
//!   produces **byte-identical** figures to an uninterrupted sweep, at
//!   any `SMTSIM_JOBS`;
//! * shard damage is never silently absorbed — a truncated final line
//!   (the only state a crashed append can leave) is tolerated,
//!   everything else is a typed [`JournalError`];
//! * a lab whose knobs changed addresses a different, empty shard and
//!   never sees (or touches) the cells recorded under the old knobs;
//! * a wedged cell is terminated by the cycle watchdog as a typed
//!   [`SimError::CellTimeout`] rendered `n/a`, and the rest of the
//!   sweep completes;
//! * a transiently-faulted cell is recovered by retry and reported
//!   through [`SweepHealth`].

use smtsim_pipeline::{FaultPlan, SimError};
use smtsim_rob2::{
    figures, report, ExperimentSpec, FigureData, JournalError, Lab, ResultCache, RobConfig,
    SweepCell,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// A fresh scratch cache directory under the temp dir, unique per test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("smtsim-resilience-tests")
        .join(format!("{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn small_lab() -> Lab {
    Lab::new(7).with_budgets(6_000, 6_000)
}

/// `lab` armed with a fresh [`ResultCache`] handle on `dir` — a new
/// handle re-reads every shard from disk, like a relaunched process.
fn armed(lab: Lab, dir: &Path) -> Lab {
    lab.with_cache(Some(Arc::new(ResultCache::new(dir))))
}

/// The one shard file inside a cache directory.
fn shard_file(dir: &Path) -> PathBuf {
    let mut shards: Vec<PathBuf> = fs::read_dir(dir)
        .expect("cache directory exists")
        .flatten()
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "jsonl"))
        .collect();
    assert_eq!(shards.len(), 1, "exactly one universe shard: {shards:?}");
    shards.pop().unwrap()
}

/// Cells already stored in the armed lab's current shard.
fn on_file(lab: &Lab) -> usize {
    lab.cache_shard()
        .expect("shard opens")
        .expect("cache armed")
        .len()
}

/// The committed Figure 2 spec, the one the product runs.
fn fig2_spec() -> ExperimentSpec {
    ExperimentSpec::load(&smtsim_rob2::spec_dir().join("fig2.toml")).expect("fig2.toml parses")
}

/// The Figure 2 cell matrix in dispatch order (configuration-major).
fn fig2_cells(mixes: &[usize]) -> Vec<SweepCell> {
    figures::artifact_cells(&fig2_spec(), mixes)
}

fn fig2(lab: &mut Lab, mixes: &[usize]) -> FigureData {
    figures::figure_for(lab, &fig2_spec(), mixes)
}

/// An uninterrupted cache-armed fig2 render (on its own fresh cache).
fn reference_fig2(tag: &str, mixes: &[usize]) -> String {
    let dir = scratch(tag);
    let mut lab = armed(small_lab(), &dir);
    let text = report::render_figure(&fig2(&mut lab, mixes));
    let _ = fs::remove_dir_all(&dir);
    text
}

#[test]
fn kill_and_resume_is_byte_identical_at_any_job_count() {
    let mixes = [1usize, 9];
    let cells = fig2_cells(&mixes);
    let reference = reference_fig2("reference", &mixes);

    for jobs in [1usize, 4] {
        let dir = scratch(&format!("resume-jobs{jobs}"));
        // "Crash" after 2 of 6 cells: a sweep over the dispatch-order
        // prefix leaves exactly what a killed sweep would have stored.
        let killed = armed(small_lab(), &dir).sweep_cells(&cells[..2]);
        assert_eq!(killed.outcomes.len(), 2);

        // Relaunch: a fresh lab and cache handle on the same directory.
        let mut lab = armed(small_lab().with_jobs(Some(jobs)), &dir);
        assert_eq!(on_file(&lab), 2, "the two completed cells are on file");
        let resumed = report::render_figure(&fig2(&mut lab, &mixes));
        assert_eq!(
            resumed, reference,
            "resumed sweep at jobs={jobs} must be byte-identical"
        );

        // The shard now holds every cell; a third launch re-runs
        // nothing.
        let mut lab = armed(small_lab(), &dir);
        assert_eq!(on_file(&lab), cells.len());
        let replayed = lab.sweep_cells(&cells);
        assert_eq!(replayed.journal_hits(), cells.len());
        let _ = fs::remove_dir_all(&dir);
    }
}

#[test]
fn truncated_final_record_is_tolerated_and_recovered() {
    let dir = scratch("truncated");
    let cells = fig2_cells(&[1]);
    armed(small_lab(), &dir).sweep_cells(&cells[..2]);

    // Simulate a crash mid-append: chop the final record in half.
    let path = shard_file(&dir);
    let text = fs::read_to_string(&path).unwrap();
    assert_eq!(text.lines().count(), 3, "header + 2 records");
    let keep = text.len() - text.lines().last().unwrap().len() / 2 - 1;
    fs::write(&path, &text[..keep]).unwrap();

    // The damaged shard opens with one record; the sweep re-runs the
    // lost cell and the figure matches an uninterrupted reference.
    let mut lab = armed(small_lab(), &dir);
    assert_eq!(on_file(&lab), 1, "truncated final line tolerated");
    let resumed = report::render_figure(&fig2(&mut lab, &[1]));
    assert_eq!(resumed, reference_fig2("truncated-ref", &[1]));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_mid_file_is_a_typed_corruption_error() {
    let dir = scratch("garbage");
    let cells = fig2_cells(&[1]);
    armed(small_lab(), &dir).sweep_cells(&cells[..2]);

    // Damage a NON-final record — a state no crashed append can
    // produce, so it must be refused, not skipped.
    let path = shard_file(&dir);
    let text = fs::read_to_string(&path).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    let mangled = format!("{}\n{}\n{}\n", lines[0], "{\"key\":garbage", lines[2]);
    fs::write(&path, mangled).unwrap();
    match armed(small_lab(), &dir).cache_shard() {
        Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
        other => panic!("corruption accepted: {other:?}"),
    }

    // A flipped crc is corruption too, even with valid JSON around it.
    let flipped = text.replacen("\"crc\":\"", "\"crc\":\"0", 1);
    fs::write(&path, flipped).unwrap();
    assert!(
        matches!(
            armed(small_lab(), &dir).cache_shard(),
            Err(JournalError::Corrupt { .. })
        ),
        "crc mismatch must be typed corruption"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn stale_universe_is_rejected_never_reused() {
    let dir = scratch("stale");
    armed(small_lab(), &dir).sweep_cells(&fig2_cells(&[1])[..1]);
    let original = shard_file(&dir);

    // Any knob that changes cell bytes addresses a different, empty
    // shard: the old cells are never served to the new universe.
    let tweaked = |tweak: fn(&mut Lab)| {
        let mut lab = small_lab();
        tweak(&mut lab);
        lab
    };
    let relabeled: Vec<(&str, Lab)> = vec![
        ("seed", Lab::new(8).with_budgets(6_000, 6_000)),
        ("budget", small_lab().with_budgets(5_000, 6_000)),
        ("warmup", small_lab().with_warmup(1_234)),
        ("retries", tweaked(|lab| lab.retries = 1)),
        (
            "cycle budget",
            tweaked(|lab| lab.cell_cycle_budget = Some(1_000_000)),
        ),
    ];
    for (what, lab) in relabeled {
        let lab = armed(lab, &dir);
        let shard = lab.cache_shard().unwrap().expect("cache armed");
        assert_ne!(shard.path(), original, "{what} change must move the shard");
        assert!(shard.is_empty(), "{what} change must start empty");
    }
    // ...and the old shard's record is untouched.
    assert_eq!(on_file(&armed(small_lab(), &dir)), 1);
    // The job count is scheduling, not physics: not part of the
    // universe, so resuming at a different SMTSIM_JOBS shares the shard.
    let lab = armed(small_lab().with_jobs(Some(4)), &dir);
    assert_eq!(on_file(&lab), 1, "jobs don't change bytes");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn wedged_cell_is_terminated_and_rendered_na_while_rest_completes() {
    // A fault plan that drops every L2 fill starves the mix forever;
    // with the deadlock watchdog pushed out of reach, the cycle budget
    // is the only thing standing between the sweep and a wedge.
    let mut lab = small_lab();
    lab.cell_cycle_budget = Some(60_000);
    lab.machine.deadlock_cycles = u64::MAX;
    let mut plan = FaultPlan::new(5);
    plan.drop_fill = 1;
    lab.set_fault(Some(1), plan);

    let fig = fig2(&mut lab, &[1, 9]);
    // Mix 1 times out in every configuration; Mix 9 completes.
    assert_eq!(fig.failures.len(), 3);
    for line in &fig.failures {
        assert!(line.contains("timed out at cycle 60000"), "{line}");
    }
    for series in &fig.series {
        assert!(series.points[0].1.is_none(), "wedged cell renders n/a");
        assert!(series.points[1].1.is_some(), "healthy cell completes");
    }
    assert_eq!(
        fig.health.as_deref(),
        Some("sweep health: 3 ok (0 retried), 3 timed out, 0 failed")
    );
    let rendered = report::render_figure(&fig);
    assert!(rendered.contains("n/a"));
    assert!(rendered.contains("timed out at cycle 60000"));
}

#[test]
fn transient_fault_recovers_via_retry_and_reports_health() {
    let mixes = [1usize, 9];
    // Reference bytes from a lab that never faults (same machine).
    let reference = {
        let mut lab = small_lab();
        lab.machine.deadlock_cycles = 3_000;
        lab.sweep_cells(&fig2_cells(&mixes)).results()
    };

    let mut lab = small_lab();
    lab.retries = 2;
    lab.machine.deadlock_cycles = 3_000;
    let mut plan = FaultPlan::new(5);
    plan.drop_fill = 1;
    // Active on attempt 1 only: the canonical transient fault.
    lab.set_transient_fault(1, plan, 1);

    let report = lab.sweep_cells(&fig2_cells(&mixes));
    assert!(report.health.all_ok(), "every cell recovered");
    assert_eq!(report.health.ok, 6);
    assert_eq!(report.health.retried, 3, "all three Mix 1 cells retried");
    assert_eq!(report.health.extra_attempts, 3);
    assert_eq!(report.health.timed_out, 0);

    // Recovered cells are byte-identical to never-faulted ones.
    let healed: Vec<String> = report
        .outcomes
        .iter()
        .map(|o| format!("{:?}", o.result))
        .collect();
    let clean: Vec<String> = reference.iter().map(|r| format!("{r:?}")).collect();
    assert_eq!(healed, clean);
}

#[test]
fn fault_plan_times_retry_matrix_never_aborts() {
    // Smoke over the fault-plan × retry matrix: every combination must
    // end in recovery or a typed n/a — never a process abort.
    let mut plans = Vec::new();
    {
        let mut p = FaultPlan::new(11);
        p.drop_fill = 1; // starvation → deadlock (transient class)
        plans.push(("drop", p));
    }
    {
        let mut p = FaultPlan::new(12);
        p.delay_fill = 2;
        p.delay_cycles = 64; // absorbed, never an error
        plans.push(("delay", p));
    }
    {
        let mut p = FaultPlan::new(13);
        p.corrupt_dod = 2; // predictor noise, absorbed
        plans.push(("corrupt", p));
    }
    for (name, plan) in plans {
        for retries in [0u32, 1] {
            let mut lab = small_lab();
            lab.retries = retries;
            lab.machine.deadlock_cycles = 3_000;
            lab.set_transient_fault(1, plan.clone(), 1);
            let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]);
            let o = &report.outcomes[0];
            match &o.result {
                Ok(_) => {
                    // Absorbed fault or recovered-by-retry.
                    assert!(
                        o.attempts <= retries + 1,
                        "{name}/r{retries}: attempts bounded"
                    );
                }
                Err(SimError::Deadlock { .. } | SimError::CellTimeout { .. }) => {
                    assert_eq!(
                        o.attempts,
                        retries + 1,
                        "{name}/r{retries}: every retry spent before giving up"
                    );
                }
                Err(other) => panic!("{name}/r{retries}: unexpected error {other}"),
            }
            assert_eq!(report.health.total(), 1);
        }
    }
}
