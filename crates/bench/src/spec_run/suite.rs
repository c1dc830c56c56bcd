//! Runner for `kind = "suite"`: regenerates every listed sibling spec
//! into `results/<id>.txt` on one shared lab, printing a one-line
//! summary per artifact to stderr.
//!
//! Sweeps are crash-isolated: a cell whose run fails (deadlock,
//! invariant violation, panic) renders as `n/a` in its figure and is
//! listed in the final summary; the remaining cells still regenerate.
//!
//! The shared lab means every sub-spec must agree with the suite on
//! machine, normalization baseline, mixes and knobs — a sub-spec that
//! declares its own would silently be overridden, so that is refused
//! as a configuration error instead. Histogram pooled means are
//! memoized by scheme fingerprint, so a `compare` reference that
//! already rendered earlier in the suite (Figure 1 for Figures 3 and
//! 7) is reused instead of re-run.

use super::{figures, sibling_spec};
use crate::BinError;
use smtsim_rob2::{report, ExperimentSpec, Knobs, SpecKind};
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

pub(super) fn run(
    env: &Knobs,
    spec: &ExperimentSpec,
    path: &std::path::Path,
) -> Result<(), BinError> {
    fs::create_dir_all("results")?;
    let mut subs = Vec::new();
    for id in &spec.specs {
        let sub = sibling_spec(path, id)?;
        check_conformity(spec, &sub)?;
        subs.push(sub);
    }

    let mixes = env.mixes.clone();
    let mut lab = super::prepared_spec_lab(env, spec)?;
    eprintln!(
        "budget={} warmup={} seed={} jobs={} mixes={mixes:?}",
        lab.mt_budget,
        lab.warmup,
        lab.seed,
        lab.effective_jobs()
    );

    let write = |name: &str, contents: String| -> std::io::Result<()> {
        fs::write(format!("results/{name}.txt"), &contents)?;
        eprintln!("results/{name}.txt ({} bytes)", contents.len());
        Ok(())
    };

    let mut failed: Vec<String> = Vec::new();
    // Pooled mean per already-rendered histogram scheme, so a later
    // histogram's `compare` reference reuses it instead of re-running.
    let mut pooled: BTreeMap<String, f64> = BTreeMap::new();

    for sub in &subs {
        match sub.kind {
            SpecKind::Table1 => write(&sub.id, report::render_table1(&lab.machine))?,
            SpecKind::Table2 => write(&sub.id, report::render_table2())?,
            SpecKind::Figure => {
                let fig = figures::figure_data(&mut lab, &mixes, sub);
                failed.extend(fig.failures.iter().cloned());
                write(&sub.id, report::render_figure(&fig))?;
            }
            SpecKind::Histogram => {
                let base = sub.compare.as_ref().map(|(cmp, label)| {
                    let key = cmp.config.fingerprint();
                    let mean = pooled.get(&key).copied().unwrap_or_else(|| {
                        smtsim_rob2::figures::dod_figure(&mut lab, label, cmp.config, &mixes)
                            .pooled_mean()
                    });
                    (mean, label.clone())
                });
                let fig = figures::histogram_data(&mut lab, &mixes, sub);
                failed.extend(fig.failures.iter().cloned());
                pooled.insert(sub.variants[0].config.fingerprint(), fig.pooled_mean());
                let mut text = report::render_histogram(&fig);
                if let Some((mean, label)) = base {
                    text.push_str(&figures::compare_line(fig.pooled_mean(), mean, &label));
                }
                write(&sub.id, text)?;
            }
            other => {
                return Err(BinError::Config(format!(
                    "spec {}: kind = \"{}\" cannot run inside a suite (only figures, \
                     histograms and tables render to results/)",
                    sub.id,
                    other.as_str()
                )));
            }
        }
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
