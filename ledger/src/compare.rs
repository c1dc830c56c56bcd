//! `ledger compare`: parent-vs-change verdicts from alternating run
//! files. A change *improved* a metric when it wins at least nine
//! tenths of the pairs (ties count for neither side) and the medians
//! differ by more than the parent's own interquartile range; it
//! *regressed* when its median is worse than the parent's by more than
//! the metric's `BENCHMARK.json` bound; the verdict is *unresolved*
//! when the parent's spread is wider than the bound (unless every
//! change run beats every parent run), and *unchanged* otherwise.
//! `failed_frac` has a bound of zero: any rise in failures is a
//! regression.

use crate::json::{parse_json, Json};
use crate::metrics;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Pairs needed before a verdict is a claim.
pub const MIN_PAIRS: usize = 10;

/// A verdict on one (workload, metric).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// The change is better, beyond the parent's own spread.
    Improved,
    /// Within the bound.
    Unchanged,
    /// Worse by more than the bound.
    Regressed,
    /// The parent's spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The verdict's word.
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Share of pairs the change wins (ties count for neither side).
#[must_use]
pub fn win_frac(parent: &[f64], change: &[f64], lower_is_better: bool) -> f64 {
    let pairs = parent.len().min(change.len());
    let wins = parent
        .iter()
        .zip(change)
        .filter(|(p, c)| if lower_is_better { c < p } else { c > p })
        .count();
    wins as f64 / pairs.max(1) as f64
}

/// The verdict for one metric's per-run values.
#[must_use]
pub fn verdict(parent: &[f64], change: &[f64], bound: f64, lower_is_better: bool) -> Verdict {
    let (mp, mc) = (median(parent), median(change));
    let (q1, q3) = quartiles(parent);
    let worse = |c: f64, p: f64| if lower_is_better { c > p } else { c < p };
    if bound == 0.0 {
        let max = |xs: &[f64]| xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        return if worse(max(change), max(parent)) {
            Verdict::Regressed
        } else {
            Verdict::Unchanged
        };
    }
    let clear_win = win_frac(parent, change, lower_is_better) >= 0.9
        && (mc - mp).abs() > q3 - q1
        && worse(mp, mc);
    let rel = (mc - mp) / mp.abs();
    let rel_worse = if lower_is_better { rel } else { -rel };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| worse(p, c)));
    if clear_win {
        Verdict::Improved
    } else if rel_worse > bound {
        Verdict::Regressed
    } else if (q3 - q1) / mp.abs() > bound && !all_better {
        Verdict::Unresolved
    } else {
        Verdict::Unchanged
    }
}

/// `(metric → (bound, lower is better))` from `BENCHMARK.json` and
/// [`metrics::E2E_EXTRA`].
fn bounds(path: &Path) -> Result<BTreeMap<String, (f64, bool)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = v
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks end_to_end")?;
    let mut out = BTreeMap::new();
    for m in list {
        let name = m
            .get("name")
            .and_then(Json::as_str)
            .ok_or("metric without name")?;
        let bound = m
            .get("bound")
            .and_then(Json::as_f64)
            .ok_or("metric without bound")?;
        let lower = m.get("better").and_then(Json::as_str) == Some("lower");
        out.insert(name.to_string(), (bound, lower));
    }
    for (m, bound) in metrics::E2E_EXTRA {
        out.insert(m.name.to_string(), (bound, m.lower_is_better));
    }
    Ok(out)
}

/// `(workload, metric) → value` of one run file.
fn run_values(path: &Path) -> Result<BTreeMap<(String, String), f64>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let v = parse_json(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let Some(Json::Obj(workloads)) = v.get("workloads") else {
        return Err(format!("{}: not a ledger run file", path.display()));
    };
    let mut out = BTreeMap::new();
    for (w, entry) in workloads {
        if let Some(Json::Obj(e2e)) = entry.get("e2e") {
            for (m, val) in e2e {
                if let Some(x) = val.get("value").and_then(Json::as_f64) {
                    out.insert((w.clone(), m.clone()), x);
                }
            }
        }
    }
    Ok(out)
}

/// The comparison table for alternating `parent` / `change` run files,
/// judged against the bounds in `benchmark`.
pub fn compare(parent: &[PathBuf], change: &[PathBuf], benchmark: &Path) -> Result<String, String> {
    if parent.len() != change.len() || parent.is_empty() {
        return Err("compare needs as many parent runs as change runs (at least one)".into());
    }
    let bounds = bounds(benchmark)?;
    let load = |files: &[PathBuf]| {
        files
            .iter()
            .map(|p| run_values(p))
            .collect::<Result<Vec<_>, _>>()
    };
    let (pv, cv) = (load(parent)?, load(change)?);
    let mut s = String::new();
    if parent.len() < MIN_PAIRS {
        let _ = writeln!(
            s,
            "note: {} pairs; a claim needs at least {MIN_PAIRS}",
            parent.len()
        );
    }
    let _ = writeln!(
        s,
        "{:<14} {:<12} {:>36} {:>36} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "wins"
    );
    for key in pv[0].keys() {
        let col = |runs: &[BTreeMap<(String, String), f64>]| -> Option<Vec<f64>> {
            runs.iter().map(|r| r.get(key).copied()).collect()
        };
        let (Some(p), Some(c)) = (col(&pv), col(&cv)) else {
            continue;
        };
        let Some(&(bound, lower)) = bounds.get(&key.1) else {
            continue;
        };
        let fmt = |xs: &[f64]| {
            let (q1, q3) = quartiles(xs);
            format!("{:.4} [{q1:.4}, {q3:.4}]", median(xs))
        };
        let _ = writeln!(
            s,
            "{:<14} {:<12} {:>36} {:>36} {:>6.2}  {}",
            key.0,
            key.1,
            fmt(&p),
            fmt(&c),
            win_frac(&p, &c, lower),
            verdict(&p, &c, bound, lower).as_str()
        );
    }
    Ok(s)
}
