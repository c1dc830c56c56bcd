//! Runner for `kind = "suite"`: regenerates every listed sibling spec
//! into `results/<id>.txt` on one shared lab, printing a one-line
//! summary per artifact to stderr.
//!
//! All artifacts' cells — histogram `compare` references included —
//! go through one [`smtsim_rob2::Lab::sweep_cells`] call, which runs
//! each distinct cell once however many figures repeat it (Figures 2,
//! 4, 5 and 6 all carry Baseline_32 and Baseline_128). Each artifact
//! then renders from its own slice of the outcomes, so its bytes, its
//! failure notes and its health footer are exactly what the `spec`
//! bin prints for that spec alone. After the sweep the suite prints
//! one deterministic work counter to stderr:
//! `cells: <requested> requested, <distinct> distinct, <n> from cache`.
//!
//! Sweeps are crash-isolated: a cell whose run fails (deadlock,
//! invariant violation, panic) renders as `n/a` in its figure and is
//! listed in the final summary; the remaining cells still regenerate.
//!
//! The shared lab means every sub-spec must agree with the suite on
//! machine, normalization baseline, mixes and knobs — a sub-spec that
//! declares its own would silently be overridden, so that is refused
//! as a configuration error instead.

use super::sibling_spec;
use crate::BinError;
use smtsim_rob2::journal::cell_key;
use smtsim_rob2::{figures, report, ExperimentSpec, Knobs, SpecKind, SweepCell, SweepReport};
use std::collections::BTreeMap;
use std::fs;

/// Refuses a sub-spec whose own experiment parameters would silently
/// be overridden by the suite's shared lab.
fn check_conformity(suite: &ExperimentSpec, sub: &ExperimentSpec) -> Result<(), BinError> {
    let complain = |what: &str| {
        Err(BinError::Config(format!(
            "spec {}: a suite entry must inherit the suite's {what} (the suite runs every \
             entry on one shared lab)",
            sub.id
        )))
    };
    if sub.machine_id != suite.machine_id || sub.fetch_policy_id != suite.fetch_policy_id {
        return complain("machine");
    }
    if sub.norm_id != suite.norm_id {
        return complain("normalization baseline");
    }
    if sub.mixes.is_some() {
        return complain("mix selection");
    }
    if sub.knobs_id.is_some() || !sub.knob_overrides.is_empty() {
        return complain("knobs");
    }
    Ok(())
}

/// The cells `sub` renders from, or a configuration error for a kind
/// that cannot render into `results/`.
fn sub_cells(sub: &ExperimentSpec, mixes: &[usize]) -> Result<Vec<SweepCell>, BinError> {
    match sub.kind {
        SpecKind::Table1 | SpecKind::Table2 => Ok(Vec::new()),
        SpecKind::Figure | SpecKind::Histogram => Ok(figures::artifact_cells(sub, mixes)),
        other => Err(BinError::Config(format!(
            "spec {}: kind = \"{}\" cannot run inside a suite (only figures, histograms and \
             tables render to results/)",
            sub.id,
            other.as_str()
        ))),
    }
}

/// The suite's work counter: cells requested, distinct cells among
/// them, and distinct cells the result cache served instead of running.
fn work_line(cells: &[SweepCell], sweep: &SweepReport) -> String {
    let mut distinct: BTreeMap<String, bool> = BTreeMap::new();
    for (&(m, cfg), o) in cells.iter().zip(&sweep.outcomes) {
        distinct.insert(cell_key(m, &cfg.fingerprint()), o.from_journal);
    }
    let cached = distinct.values().filter(|&&hit| hit).count();
    format!(
        "cells: {} requested, {} distinct, {cached} from cache",
        cells.len(),
        distinct.len()
    )
}

pub(super) fn run(
    env: &Knobs,
    spec: &ExperimentSpec,
    path: &std::path::Path,
) -> Result<(), BinError> {
    fs::create_dir_all("results")?;
    let mixes = env.mixes.clone();
    let mut subs = Vec::new();
    let mut cells: Vec<SweepCell> = Vec::new();
    for id in &spec.specs {
        let sub = sibling_spec(path, id)?;
        check_conformity(spec, &sub)?;
        let own = sub_cells(&sub, &mixes)?;
        subs.push((sub, own.len()));
        cells.extend(own);
    }

    let mut lab = super::prepared_spec_lab(env, spec)?;
    eprintln!(
        "budget={} warmup={} seed={} jobs={} mixes={mixes:?}",
        lab.mt_budget,
        lab.warmup,
        lab.seed,
        lab.effective_jobs()
    );
    let sweep = lab.sweep_cells(&cells);
    eprintln!("{}", work_line(&cells, &sweep));

    let mut outcomes = sweep.outcomes.into_iter();
    let mut failed: Vec<String> = Vec::new();
    for (sub, n) in &subs {
        let text = match sub.kind {
            SpecKind::Table1 => report::render_table1(&lab.machine),
            SpecKind::Table2 => report::render_table2(),
            _ => {
                let own = outcomes.by_ref().take(*n).collect();
                let (text, failures) = figures::render_artifact(&lab, sub, &mixes, own);
                failed.extend(failures);
                text
            }
        };
        fs::write(format!("results/{}.txt", sub.id), &text)?;
        eprintln!("results/{}.txt ({} bytes)", sub.id, text.len());
    }

    if failed.is_empty() {
        eprintln!("done");
    } else {
        eprintln!("done with {} failed cell(s):", failed.len());
        for f in &failed {
            eprintln!("  failed: {f}");
        }
    }
    Ok(())
}
