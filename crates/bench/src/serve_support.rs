//! Bench-layer glue for the `smtsim-serve` daemon (DESIGN.md §17):
//! the knobs-to-[`ServeConfig`] bridge, the `serve` bin's entry point
//! and a minimal blocking client the serve test suites and the
//! benchmark ledger speak the wire protocol with.
//!
//! The daemon crate itself is deliberately env-free: every
//! `SMTSIM_SERVE_*` knob is a [`Knobs`] row like all the others, and
//! the daemon lowers specs through the same [`Knobs`] value the
//! offline bins use.

use crate::BinError;
use smtsim_rob2::journal::{parse_json, Json};
use smtsim_rob2::{Knob, Knobs};
use smtsim_serve::{ServeConfig, Server};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};

/// Builds the daemon configuration from the `SMTSIM_SERVE_*` knobs
/// (socket, cache directory, admission bound) plus `SMTSIM_JOBS` for
/// the worker-pool size.
#[must_use]
pub fn serve_config(env: &Knobs, spec_dir: Option<PathBuf>) -> ServeConfig {
    ServeConfig {
        socket: env.serve_socket.clone(),
        cache_dir: env.serve_cache.clone(),
        queue_limit: env.get(Knob::ServeQueue) as usize,
        workers: env.get(Knob::Jobs) as usize,
        spec_dir,
    }
}

/// Entry point of the `serve` bin: starts the daemon on the
/// environment's socket/cache/queue knobs with the committed
/// `experiments/` directory as the spec registry, then blocks until a
/// protocol `shutdown` drains it.
pub fn run_serve() -> Result<(), BinError> {
    let env = Knobs::from_env()?;
    let config = serve_config(&env, Some(crate::spec_dir()));
    let socket = config.socket.clone();
    let cache = config.cache_dir.clone();
    let server = Server::start(config, Box::new(env))
        .map_err(|e| BinError::Runtime(format!("cannot start daemon: {e}")))?;
    eprintln!(
        "smtsim-serve: listening on {} (cache: {})",
        socket.display(),
        cache.display()
    );
    server.wait();
    Ok(())
}

/// Sends one request line to a running daemon and collects every
/// response line until the daemon ends the exchange. The write half
/// stays open throughout, as the protocol requires (client EOF means
/// *cancel*).
pub fn request_lines(socket: &Path, request: &str) -> io::Result<Vec<String>> {
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(request.as_bytes())?;
    stream.write_all(b"\n")?;
    BufReader::new(stream).lines().collect()
}

/// A `submit` request line for a registry spec id.
#[must_use]
pub fn submit_registry(id: &str) -> String {
    format!(
        "{{\"op\":\"submit\",\"spec\":{}}}",
        smtsim_rob2::journal::json_string(id)
    )
}

/// A `submit` request line carrying an inline spec TOML body.
#[must_use]
pub fn submit_inline(toml: &str) -> String {
    format!(
        "{{\"op\":\"submit\",\"spec_toml\":{}}}",
        smtsim_rob2::journal::json_string(toml)
    )
}

/// Extracts a string field from a response line's JSON.
#[must_use]
pub fn line_str(line: &str, field: &str) -> Option<String> {
    parse_json(line)
        .ok()?
        .get(field)
        .and_then(Json::as_str)
        .map(str::to_string)
}

/// Extracts an integer field from a response line's JSON.
#[must_use]
pub fn line_u64(line: &str, field: &str) -> Option<u64> {
    parse_json(line).ok()?.get(field).and_then(Json::as_u64)
}

/// The terminal line of a collected exchange, verified to be the
/// given `type`. Any `error` line in the stream is surfaced instead.
pub fn terminal_line<'a>(lines: &'a [String], want: &str) -> Result<&'a String, BinError> {
    if let Some(err) = lines
        .iter()
        .find(|l| line_str(l, "type").as_deref() == Some("error"))
    {
        return Err(BinError::Runtime(format!("daemon answered: {err}")));
    }
    let last = lines
        .last()
        .ok_or_else(|| BinError::Runtime("daemon closed the stream without a reply".into()))?;
    if line_str(last, "type").as_deref() == Some(want) {
        Ok(last)
    } else {
        Err(BinError::Runtime(format!(
            "expected a terminal {want:?} line, got: {last}"
        )))
    }
}

/// The decoded rendered figure from a submit exchange's `done` line.
pub fn figure_of(lines: &[String]) -> Result<String, BinError> {
    let done = terminal_line(lines, "done")?;
    line_str(done, "figure")
        .ok_or_else(|| BinError::Runtime(format!("done line lacks a figure: {done}")))
}

/// Reads one daemon counter via a `metrics` exchange (0 if the counter
/// has never been bumped).
pub fn counter_of(socket: &Path, key: &str) -> Result<u64, BinError> {
    let lines = request_lines(socket, "{\"op\":\"metrics\"}")?;
    let line = terminal_line(&lines, "metrics")?;
    let v = parse_json(line).map_err(|e| BinError::Runtime(format!("bad metrics line: {e}")))?;
    Ok(v.get("counters")
        .and_then(|c| c.get(key))
        .and_then(Json::as_u64)
        .unwrap_or(0))
}
