//! The serve wire protocol: line-delimited JSON over a Unix socket.
//!
//! One request per connection. The client sends a single JSON object
//! on one line, then keeps the connection open and reads JSON lines
//! until the terminal line for its request kind arrives:
//!
//! ```text
//! → {"op":"submit","spec":"fig2"}            # registry id under the spec dir
//! → {"op":"submit","spec_toml":"..."}        # inline spec TOML body
//! ← {"type":"accepted","request":3,"cells":12,"universe":"<fnv64>"}
//! ← {"type":"cell","index":0,"mix":1,"config":"Baseline_32","key":"1|…",
//!    "cached":false,"attempts":1,"status":"ok","run":{…}}
//! ← …one cell line per matrix cell: cached cells first, in matrix
//!    order, then computed cells in completion order…
//! ← {"type":"done","request":3,"cells":12,"cache_hits":4,"cache_misses":8,
//!    "failed":0,"cancelled":0,"figure":"…rendered figure text…"}
//!
//! → {"op":"metrics"}
//! ← {"type":"metrics","counters":{…},"active_requests":1,"inflight_cells":4}
//!
//! → {"op":"ping"}
//! ← {"type":"pong"}
//!
//! → {"op":"shutdown"}
//! ← {"type":"draining"}   # then the daemon finishes admitted requests
//! ← {"type":"bye"}
//! ```
//!
//! A cell the cache holds when the request is admitted streams right
//! after `accepted`, its `run` the exact text its cache record stores
//! (the same bytes a computed cell's line carried). Cells that must
//! run follow as workers finish them, so their order depends on the
//! pool; the `index` field places each in the matrix.
//!
//! Any failure is a typed single-line error and ends the exchange:
//!
//! ```text
//! ← {"type":"error","kind":"queue-full","retryable":true,"reason":"…"}
//! ```
//!
//! A request line longer than [`MAX_REQUEST_LINE`], one that is not
//! UTF-8 and one that nests JSON deeper than
//! [`smtsim_rob2::journal::MAX_JSON_DEPTH`] are all answered
//! `invalid-request`; the daemon reads at most one byte past the bound.
//!
//! `retryable:true` (kinds `queue-full`, `shutting-down`) means the
//! request was well-formed and may simply be resubmitted later; every
//! other kind is a client or cache defect. Clients must keep their
//! write half open until the terminal line: the daemon treats EOF on
//! the connection as *cancel this request*.
//!
//! Submitted specs must be `kind = "figure"` — the matrix-shaped unit
//! the cache is keyed for. Composite kinds (suites, tables) are
//! client-side iterations over figure submissions.

use smtsim_rob2::journal::{json_string, mix_run_to_json};
use smtsim_rob2::CellOutcome;
use std::sync::Arc;

/// Maximum accepted request-line length, newline included: a
/// misbehaving client cannot grow the daemon's read buffer past it
/// (inline spec TOML fits comfortably).
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// Where a submitted spec's TOML comes from.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SpecSource {
    /// A committed experiment id, resolved to `<spec_dir>/<id>.toml`.
    Registry(String),
    /// An inline TOML body shipped in the request itself.
    Inline(String),
}

/// One parsed client request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Run a figure spec and stream its cells back.
    Submit(SpecSource),
    /// Report cache/scheduler counters.
    Metrics,
    /// Liveness probe.
    Ping,
    /// Drain admitted requests, then stop the daemon.
    Shutdown,
}

/// Parses one request line. Errors are human-readable reasons destined
/// for an `invalid-request` error line.
pub fn parse_request(line: &str) -> Result<Request, String> {
    if line.len() > MAX_REQUEST_LINE {
        return Err(format!("request line exceeds {MAX_REQUEST_LINE} bytes"));
    }
    let v = smtsim_rob2::journal::parse_json(line.trim())
        .map_err(|e| format!("unparseable request JSON: {e}"))?;
    let op = v
        .get("op")
        .and_then(smtsim_rob2::journal::Json::as_str)
        .ok_or_else(|| "request lacks an \"op\" string field".to_string())?;
    match op {
        "submit" => {
            let spec = v.get("spec").and_then(smtsim_rob2::journal::Json::as_str);
            let toml = v
                .get("spec_toml")
                .and_then(smtsim_rob2::journal::Json::as_str);
            match (spec, toml) {
                (Some(id), None) => {
                    if id.is_empty()
                        || !id
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
                    {
                        return Err(format!("spec id {id:?} is not a plain registry name"));
                    }
                    Ok(Request::Submit(SpecSource::Registry(id.to_string())))
                }
                (None, Some(body)) => Ok(Request::Submit(SpecSource::Inline(body.to_string()))),
                (Some(_), Some(_)) => Err("submit carries both \"spec\" and \"spec_toml\"".into()),
                (None, None) => Err("submit needs a \"spec\" id or a \"spec_toml\" body".into()),
            }
        }
        "metrics" => Ok(Request::Metrics),
        "ping" => Ok(Request::Ping),
        "shutdown" => Ok(Request::Shutdown),
        other => Err(format!("unknown op {other:?}")),
    }
}

/// Typed error kinds an exchange can end with.
pub mod error_kind {
    /// The admission queue is at its bound; resubmit later.
    pub const QUEUE_FULL: &str = "queue-full";
    /// The daemon is draining for shutdown; resubmit to a new daemon.
    pub const SHUTTING_DOWN: &str = "shutting-down";
    /// The request line itself was malformed.
    pub const INVALID_REQUEST: &str = "invalid-request";
    /// The spec failed to parse, validate or lower.
    pub const INVALID_CONFIG: &str = "invalid-config";
    /// The spec kind is not servable (only figures are).
    pub const UNSUPPORTED_KIND: &str = "unsupported-kind";
    /// The cache shard for this universe is damaged.
    pub const JOURNAL_CORRUPT: &str = "journal-corrupt";
    /// The cache shard could not be read or written.
    pub const CACHE_IO: &str = "cache-io";

    /// Whether `kind` invites a plain resubmission.
    pub fn retryable(kind: &str) -> bool {
        matches!(kind, QUEUE_FULL | SHUTTING_DOWN)
    }
}

/// Renders an `error` line (no trailing newline).
pub fn error_line(kind: &str, reason: &str) -> String {
    format!(
        "{{\"type\":\"error\",\"kind\":{},\"retryable\":{},\"reason\":{}}}",
        json_string(kind),
        error_kind::retryable(kind),
        json_string(reason)
    )
}

/// Renders an `accepted` line.
pub fn accepted_line(request: u64, cells: usize, universe: &str) -> String {
    format!(
        "{{\"type\":\"accepted\",\"request\":{request},\"cells\":{cells},\"universe\":{}}}",
        json_string(universe)
    )
}

/// How one streamed cell resolved.
#[derive(Clone, Debug)]
pub enum CellStatus {
    /// Completed; carries the canonical run JSON.
    Ok {
        /// `journal::mix_run_to_json` output for the cell's run.
        run_json: Arc<str>,
    },
    /// Failed after its retry budget; carries the error display text.
    Failed {
        /// The `SimError` rendered for humans.
        error: String,
    },
    /// Cancelled before (or while) running.
    Cancelled,
}

impl CellStatus {
    /// How a resolved `outcome` streams. An `Ok` run splices the text
    /// the result cache holds for it ([`CellOutcome::run_json`]); only
    /// a run whose cache append failed is rendered here.
    pub(crate) fn of(outcome: &CellOutcome) -> CellStatus {
        match &outcome.result {
            Ok(run) => CellStatus::Ok {
                run_json: outcome
                    .run_json
                    .clone()
                    .unwrap_or_else(|| mix_run_to_json(run).into()),
            },
            Err(e) => CellStatus::Failed {
                error: e.to_string(),
            },
        }
    }
}

/// Renders one `cell` line.
pub fn cell_line(
    index: usize,
    mix: usize,
    config: &str,
    key: &str,
    cached: bool,
    attempts: u32,
    status: &CellStatus,
) -> String {
    let head = format!(
        "{{\"type\":\"cell\",\"index\":{index},\"mix\":{mix},\"config\":{},\"key\":{},\"cached\":{cached},\"attempts\":{attempts}",
        json_string(config),
        json_string(key)
    );
    match status {
        CellStatus::Ok { run_json } => {
            format!("{head},\"status\":\"ok\",\"run\":{run_json}}}")
        }
        CellStatus::Failed { error } => {
            format!(
                "{head},\"status\":\"failed\",\"error\":{}}}",
                json_string(error)
            )
        }
        CellStatus::Cancelled => format!("{head},\"status\":\"cancelled\"}}"),
    }
}

/// Per-request completion tallies carried on the `done` line.
#[derive(Clone, Copy, Debug, Default)]
pub struct DoneStats {
    /// Cells served from the persistent cache.
    pub cache_hits: usize,
    /// Cells computed fresh (and appended to the cache when `Ok`).
    pub cache_misses: usize,
    /// Cells that exhausted their retry budget.
    pub failed: usize,
    /// Cells cancelled by client disconnect or shutdown.
    pub cancelled: usize,
}

/// Renders the terminal `done` line for a completed request.
pub fn done_line(request: u64, cells: usize, stats: &DoneStats, figure: &str) -> String {
    format!(
        "{{\"type\":\"done\",\"request\":{request},\"cells\":{cells},\"cache_hits\":{},\"cache_misses\":{},\"failed\":{},\"cancelled\":{},\"figure\":{}}}",
        stats.cache_hits,
        stats.cache_misses,
        stats.failed,
        stats.cancelled,
        json_string(figure)
    )
}

/// Renders the `metrics` line from sorted counter pairs.
pub fn metrics_line(
    counters: &[(String, u64)],
    active_requests: usize,
    inflight_cells: usize,
) -> String {
    let body: Vec<String> = counters
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_string(k)))
        .collect();
    format!(
        "{{\"type\":\"metrics\",\"counters\":{{{}}},\"active_requests\":{active_requests},\"inflight_cells\":{inflight_cells}}}",
        body.join(",")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::journal::parse_json;

    #[test]
    fn submit_forms_parse() {
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"spec\":\"fig2\"}").unwrap(),
            Request::Submit(SpecSource::Registry("fig2".into()))
        );
        assert_eq!(
            parse_request("{\"op\":\"submit\",\"spec_toml\":\"[experiment]\\nid=1\"}").unwrap(),
            Request::Submit(SpecSource::Inline("[experiment]\nid=1".into()))
        );
        assert_eq!(parse_request("{\"op\":\"ping\"}").unwrap(), Request::Ping);
        assert_eq!(
            parse_request(" {\"op\":\"metrics\"} \n").unwrap(),
            Request::Metrics
        );
        assert_eq!(
            parse_request("{\"op\":\"shutdown\"}").unwrap(),
            Request::Shutdown
        );
    }

    #[test]
    fn malformed_requests_are_rejected_with_reasons() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("{\"spec\":\"fig2\"}")
            .unwrap_err()
            .contains("op"));
        assert!(parse_request("{\"op\":\"submit\"}")
            .unwrap_err()
            .contains("spec"));
        assert!(parse_request("{\"op\":\"submit\",\"spec\":\"a\",\"spec_toml\":\"b\"}").is_err());
        // Path traversal cannot smuggle through a registry id.
        assert!(parse_request("{\"op\":\"submit\",\"spec\":\"../etc/passwd\"}").is_err());
        assert!(parse_request("{\"op\":\"submit\",\"spec\":\"\"}").is_err());
        assert!(parse_request("{\"op\":\"explode\"}").is_err());
    }

    #[test]
    fn response_lines_are_valid_json() {
        for line in [
            error_line(error_kind::QUEUE_FULL, "8 requests admitted"),
            accepted_line(7, 12, "deadbeef"),
            cell_line(
                0,
                1,
                "Baseline_32",
                "1|abc",
                true,
                1,
                &CellStatus::Ok {
                    run_json: "{\"mix\":\"Mix 1\"}".into(),
                },
            ),
            cell_line(
                1,
                2,
                "TwoLevel",
                "2|abc",
                false,
                3,
                &CellStatus::Failed {
                    error: "cell timeout: \"budget\"".into(),
                },
            ),
            cell_line(2, 9, "TwoLevel", "9|abc", false, 0, &CellStatus::Cancelled),
            done_line(
                7,
                12,
                &DoneStats {
                    cache_hits: 4,
                    cache_misses: 8,
                    failed: 0,
                    cancelled: 0,
                },
                "Figure 2\nline\t1",
            ),
            metrics_line(&[("serve.cache_hits".into(), 4)], 1, 2),
        ] {
            let v = parse_json(&line).unwrap_or_else(|e| panic!("{line}: {e}"));
            assert!(v.get("type").is_some(), "{line}");
        }
    }

    #[test]
    fn retryable_marking_matches_kind_policy() {
        let retry = error_line(error_kind::SHUTTING_DOWN, "draining");
        assert!(retry.contains("\"retryable\":true"), "{retry}");
        let fatal = error_line(error_kind::JOURNAL_CORRUPT, "crc mismatch");
        assert!(fatal.contains("\"retryable\":false"), "{fatal}");
    }
}
