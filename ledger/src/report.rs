//! Turning an [`Outcome`] into numbers: the end-to-end values, the
//! human-readable listing, the one-line JSON result `ledger bench`
//! ends with, and the `run.json` record `ledger compare` reads.

use crate::json::{self, Obj};
use crate::measure::Outcome;
use crate::metrics::{self, Meta};
use crate::stats::{median, Summary};
use std::fmt::Write as _;

/// An end-to-end metric's value with the summary it came from.
#[derive(Clone, Debug)]
pub struct Value {
    /// The metric.
    pub meta: Meta,
    /// The reported value.
    pub value: f64,
    /// The samples' summary, when the value is a median of samples.
    pub summary: Option<Summary>,
}

fn samples<'a>(o: &'a Outcome, name: &str) -> &'a [f64] {
    o.samples.get(name).map_or(&[], Vec::as_slice)
}

/// Every end-to-end value `o` has, in print order.
#[must_use]
pub fn e2e(o: &Outcome) -> Vec<Value> {
    let mut out = Vec::new();
    let extra = metrics::E2E_EXTRA.iter().map(|(m, _)| m);
    for meta in metrics::E2E.iter().chain(extra) {
        let (value, summary) = match meta.name {
            "tail_ms" => match Summary::of(samples(o, "p50_ms")).tail {
                Some((_, v)) => (v, None),
                None => continue,
            },
            "failed_frac" => (o.failed as f64 / o.attempted.max(1) as f64, None),
            name => {
                let xs = samples(o, name);
                if xs.is_empty() {
                    continue;
                }
                (median(xs), Some(Summary::of(xs)))
            }
        };
        out.push(Value {
            meta: *meta,
            value,
            summary,
        });
    }
    out
}

/// The human-readable listing of one outcome.
#[must_use]
pub fn listing(o: &Outcome) -> String {
    let mut s = String::new();
    let w = o.workload;
    let _ = writeln!(
        s,
        "== {} (seed {}, {} hardware threads, {} attempted, {} failed)",
        w.name,
        o.seed,
        crate::workload::hardware_threads(),
        o.attempted,
        o.failed
    );
    for f in &o.failures {
        let _ = writeln!(s, "   FAILED: {f}");
    }
    let p50 = Summary::of(samples(o, "p50_ms"));
    for v in e2e(o) {
        let _ = write!(
            s,
            "   {:<34} {:>14.4} {}",
            v.meta.name, v.value, v.meta.unit
        );
        if v.meta.name == "tail_ms" {
            if let Some((p, _)) = p50.tail {
                let _ = write!(s, "  (p{p}, n={})", p50.n);
            }
        } else if let Some(sum) = &v.summary {
            let _ = write!(s, "  (q1 {:.4}, q3 {:.4}, n={})", sum.q1, sum.q3, sum.n);
        }
        let _ = writeln!(s);
    }
    for m in metrics::LAYERS {
        if let Some(v) = o.layers.get(m.name) {
            let _ = writeln!(s, "   {:<34} {:>14.4} {}", m.name, v, m.unit);
        }
    }
    let get = |k: &str| o.layers.get(k).copied().unwrap_or(0.0);
    let parts = get("workload.instantiate_ms")
        + get("analysis.static_bounds_ms")
        + get("pipeline.build_warmup_ms")
        + get("pipeline.run_ms");
    if get("core.run_cell_ms") > 0.0 && parts > 0.0 {
        let _ = writeln!(
            s,
            "   decomposition covers {:.1}% of core.run_cell_ms",
            100.0 * parts / get("core.run_cell_ms")
        );
    }
    if let Some(t) = &o.trace {
        let total: u64 = t.self_ns.values().sum();
        let _ = write!(s, "   self time by layer:");
        for (layer, ns) in &t.self_ns {
            let _ = write!(
                s,
                " {layer} {:.1} ms ({:.1}%)",
                *ns as f64 / 1e6,
                100.0 * *ns as f64 / total.max(1) as f64
            );
        }
        let _ = writeln!(s);
    }
    s
}

/// The result line `ledger bench` prints last: whether every output
/// was correct, the operation counts, and the end-to-end metrics every
/// workload has — or with `trace` the per-layer ones.
#[must_use]
pub fn result_line(o: &Outcome, trace: bool) -> String {
    let entry = |value: f64, unit: &str| Obj::new().num("value", value).str("unit", unit).finish();
    let metrics = if trace {
        metrics::LAYERS
            .iter()
            .filter_map(|m| Some((m.name, entry(*o.layers.get(m.name)?, m.unit))))
            .fold(Obj::new(), |acc, (k, v)| acc.raw(k, v))
    } else {
        e2e(o)
            .into_iter()
            .filter(|v| metrics::E2E.contains(&v.meta))
            .fold(Obj::new(), |acc, v| {
                acc.raw(v.meta.name, entry(v.value, v.meta.unit))
            })
    };
    Obj::new()
        .raw("correct", (o.failed == 0).to_string())
        .int("attempted", o.attempted.max(1))
        .int("failed", o.failed)
        .raw("metrics", metrics.finish())
        .finish()
}

/// One workload's entry in `run.json`.
#[must_use]
pub fn run_entry(o: &Outcome) -> String {
    let e2e = e2e(o).into_iter().fold(Obj::new(), |acc, v| {
        let mut e = Obj::new().num("value", v.value).str("unit", v.meta.unit);
        if let Some(s) = &v.summary {
            e = e.num("q1", s.q1).num("q3", s.q3).int("n", s.n as u64);
        }
        acc.raw(v.meta.name, e.finish())
    });
    let layers = metrics::LAYERS
        .iter()
        .fold(Obj::new(), |acc, m| match o.layers.get(m.name) {
            Some(v) => acc.raw(
                m.name,
                Obj::new().num("value", *v).str("unit", m.unit).finish(),
            ),
            None => acc,
        });
    let samples = o.samples.iter().fold(Obj::new(), |acc, (k, v)| {
        acc.raw(k, json::arr(v.iter().map(|x| json::num(*x))))
    });
    Obj::new()
        .int("seed", o.seed)
        .int("attempted", o.attempted)
        .int("failed", o.failed)
        .raw(
            "failures",
            json::arr(o.failures.iter().map(|f| json::json_string(f))),
        )
        .raw("e2e", e2e.finish())
        .raw("layers", layers.finish())
        .raw("samples", samples.finish())
        .finish()
}
