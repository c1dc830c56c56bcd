//! Every metric the ledger reports: name, unit, and which direction is
//! better. End-to-end metrics are host time and memory a user of the
//! system sees; per-layer metrics come from the traced pass and the
//! serve client's line timestamps.

/// A metric's description.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Meta {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// True when a lower value is better.
    pub lower_is_better: bool,
}

const fn low(name: &'static str, unit: &'static str) -> Meta {
    Meta {
        name,
        unit,
        lower_is_better: true,
    }
}

const fn high(name: &'static str, unit: &'static str) -> Meta {
    Meta {
        name,
        unit,
        lower_is_better: false,
    }
}

/// End-to-end metrics every workload reports, in print order.
///
/// * `p50_ms` — median wall time of one operation as its user waits
///   for it: one whole spec run for the offline workloads, one request
///   for the serve workloads.
/// * `setup_s` — time before the first simulated cycle: the median of
///   `ledger child setup` launches offline; daemon spawn to first
///   `pong` on a warm restart for serve.
/// * `peak_rss_mb` — the child's (the daemon's) own `VmHWM` at exit.
pub const E2E: [Meta; 3] = [
    low("p50_ms", "ms"),
    low("setup_s", "s"),
    low("peak_rss_mb", "MB"),
];

/// End-to-end metrics `ledger run` prints beside [`E2E`] where they
/// exist — the tail percentile (only with enough samples), serve-hit's
/// cold `fig2` submit, and the failed-operation share — each with the
/// bound `ledger compare` judges it by. Not every workload has them,
/// so `BENCHMARK.json` cannot list them; a failure rise is never within
/// bounds.
pub const E2E_EXTRA: [(Meta, f64); 3] = [
    (low("tail_ms", "ms"), 0.25),
    (low("cold_fig2_s", "s"), 0.10),
    (low("failed_frac", "frac"), 0.0),
];

/// Per-layer metrics, named `<layer>.<what>` after the module measured.
pub const LAYERS: [Meta; 45] = [
    low("spec.load_us", "us"),
    low("bench.lower_us", "us"),
    low("core.norm_table_ms", "ms"),
    low("core.norm_runs", "count"),
    low("core.cells", "count"),
    low("core.cells_per_mix", "count"),
    high("core.unique_cell_frac", "frac"),
    low("core.run_cell_ms", "ms"),
    low("core.cell_residual_ms", "ms"),
    high("core.phase2_efficiency", "frac"),
    low("workload.instantiate_ms", "ms"),
    low("analysis.static_bounds_ms", "ms"),
    low("pipeline.build_warmup_ms", "ms"),
    low("pipeline.run_ms", "ms"),
    low("pipeline.sim_cycles", "count"),
    low("pipeline.committed", "count"),
    low("pipeline.ns_per_cycle", "ns"),
    high("pipeline.minst_per_s", "Minst/s"),
    high("pipeline.skip_speedup", "ratio"),
    low("pipeline.stage.events_ns", "ns"),
    low("pipeline.stage.commit_ns", "ns"),
    low("pipeline.stage.issue_ns", "ns"),
    low("pipeline.stage.dispatch_ns", "ns"),
    low("pipeline.stage.fetch_ns", "ns"),
    low("pipeline.stage.cycle_end_ns", "ns"),
    low("pipeline.dod_scan_ns", "ns"),
    low("report.render_us", "us"),
    low("serve.accept_ms", "ms"),
    low("serve.first_cell_ms", "ms"),
    low("serve.hit_cell_gap_us", "us"),
    low("serve.miss_cell_ms", "ms"),
    low("serve.done_ms", "ms"),
    low("serve.response_kb", "kB"),
    low("serve.cells_run", "count"),
    high("serve.cache_hits", "count"),
    low("serve.cache_misses", "count"),
    low("serve.inflight_waits", "count"),
    low("serve.queue_rejections", "count"),
    low("serve.journal_append_errors", "count"),
    low("journal.record_us", "us"),
    low("journal.lookup_us", "us"),
    low("journal.open_ms", "ms"),
    low("journal.records", "count"),
    low("ledger.trace_overhead_frac", "frac"),
    low("ledger.replay_ms", "ms"),
];
