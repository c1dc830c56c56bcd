//! A timing client for the serve daemon's line protocol: one request
//! per connection, every response line stamped on arrival.

use crate::clock::Stamp;
use crate::json::{parse_json, Json};
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::Duration;

/// One request/response exchange.
#[derive(Clone, Debug)]
pub struct Exchange {
    /// Response lines with their arrival time after the request was
    /// sent.
    pub lines: Vec<(Duration, String)>,
    /// Connect to end of stream.
    pub total: Duration,
    /// Response bytes, newlines included.
    pub bytes: usize,
}

impl Exchange {
    /// Sends `request` and reads the response to end of stream. The
    /// write half stays open throughout (EOF would cancel the request).
    pub fn run(socket: &Path, request: &str) -> io::Result<Exchange> {
        let t0 = Stamp::now();
        let mut stream = UnixStream::connect(socket)?;
        stream.write_all(request.as_bytes())?;
        stream.write_all(b"\n")?;
        let mut reader = BufReader::new(stream);
        let mut lines = Vec::new();
        let mut bytes = 0;
        loop {
            let mut line = String::new();
            let n = reader.read_line(&mut line)?;
            if n == 0 {
                break;
            }
            let at = t0.elapsed();
            bytes += n;
            lines.push((at, line.trim_end_matches('\n').to_string()));
        }
        Ok(Exchange {
            lines,
            total: t0.elapsed(),
            bytes,
        })
    }

    /// The parsed lines grouped by `type`, with their arrival times.
    /// Unparseable lines are grouped under `""`.
    #[must_use]
    pub fn by_type(&self) -> BTreeMap<String, Vec<(Duration, Json)>> {
        let mut out: BTreeMap<String, Vec<(Duration, Json)>> = BTreeMap::new();
        for (t, l) in &self.lines {
            let v = parse_json(l).unwrap_or(Json::Null);
            let kind = v
                .get("type")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            out.entry(kind).or_default().push((*t, v));
        }
        out
    }
}

/// What a submit exchange must look like.
#[derive(Clone, Copy, Debug)]
pub struct Expect {
    /// Cells the matrix has.
    pub cells: u64,
    /// Whether every cell must be a cache hit (else every cell a miss).
    pub cached: bool,
}

/// A checked submit: its figure and line timings.
#[derive(Clone, Debug)]
pub struct Submitted {
    /// The `done` line's rendered figure.
    pub figure: String,
    /// Send → `accepted` line.
    pub accept: Duration,
    /// Send → first `cell` line.
    pub first_cell: Duration,
    /// Send → last `cell` line.
    pub last_cell: Duration,
    /// Send → `done` line.
    pub done: Duration,
}

/// Checks a submit exchange against the protocol and `expect`: one
/// `accepted` line, exactly one `ok` cell line per cell with the
/// expected cache status, and a clean `done` line carrying the figure.
/// Any error line, failed, cancelled or `n/a` cell fails the check.
pub fn check_submit(ex: &Exchange, expect: Expect) -> Result<Submitted, String> {
    let lines = ex.by_type();
    if let Some(kind) = lines
        .keys()
        .find(|k| !matches!(k.as_str(), "accepted" | "cell" | "done"))
    {
        return Err(format!("daemon answered a {kind:?} line: {:?}", ex.lines));
    }
    let none = Vec::new();
    let one = |kind: &str| lines.get(kind).filter(|v| v.len() == 1).map(|v| &v[0]);
    let cells = lines.get("cell").unwrap_or(&none);
    let (Some((accept, acc)), Some((done_at, done_v))) = (one("accepted"), one("done")) else {
        return Err(format!(
            "exchange lacks one accepted and one done line ({} lines)",
            ex.lines.len()
        ));
    };
    let field = |v: &Json, k: &str| v.get(k).and_then(Json::as_u64);
    if field(acc, "cells") != Some(expect.cells) || cells.len() as u64 != expect.cells {
        return Err(format!(
            "expected {} cells, accepted {:?}, streamed {}",
            expect.cells,
            field(acc, "cells"),
            cells.len()
        ));
    }
    for (_, c) in cells {
        let ok = c.get("status").and_then(Json::as_str) == Some("ok");
        let cached = c.get("cached") == Some(&Json::Bool(true));
        if !ok || cached != expect.cached {
            return Err(format!(
                "cell {:?} has status {:?}, cached {cached} (want ok, {})",
                field(c, "index"),
                c.get("status").and_then(Json::as_str),
                expect.cached
            ));
        }
    }
    let (hits, misses) = if expect.cached {
        (expect.cells, 0)
    } else {
        (0, expect.cells)
    };
    if field(done_v, "cache_hits") != Some(hits)
        || field(done_v, "cache_misses") != Some(misses)
        || field(done_v, "failed") != Some(0)
        || field(done_v, "cancelled") != Some(0)
    {
        return Err(format!(
            "done line reports unexpected work: {}",
            ex.lines.last().map_or("", |l| l.1.as_str())
        ));
    }
    let figure = done_v
        .get("figure")
        .and_then(Json::as_str)
        .ok_or("done line lacks a figure")?
        .to_string();
    if figure.contains("n/a") {
        return Err("figure has n/a cells".into());
    }
    Ok(Submitted {
        figure,
        accept: *accept,
        first_cell: cells.first().map_or(*done_at, |c| c.0),
        last_cell: cells.last().map_or(*done_at, |c| c.0),
        done: *done_at,
    })
}

/// Pings until the daemon answers `pong` or `timeout` passes.
pub fn wait_pong(socket: &Path, timeout: Duration) -> Result<(), String> {
    let t0 = Stamp::now();
    loop {
        if let Ok(ex) = Exchange::run(socket, "{\"op\":\"ping\"}") {
            if ex.lines.iter().any(|(_, l)| l == "{\"type\":\"pong\"}") {
                return Ok(());
            }
        }
        if t0.elapsed() > timeout {
            return Err(format!("daemon did not answer ping within {timeout:?}"));
        }
        std::thread::sleep(Duration::from_micros(50));
    }
}

/// The daemon's counters from a `metrics` exchange.
pub fn counters(socket: &Path) -> Result<Vec<(String, u64)>, String> {
    let ex = Exchange::run(socket, "{\"op\":\"metrics\"}").map_err(|e| e.to_string())?;
    let lines = ex.by_type();
    let (_, v) = lines
        .get("metrics")
        .and_then(|v| v.first())
        .ok_or("no metrics line")?;
    match v.get("counters") {
        Some(Json::Obj(m)) => Ok(m
            .iter()
            .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
            .collect()),
        _ => Err("metrics line lacks counters".into()),
    }
}

/// Asks the daemon to drain and stop; succeeds once it said `bye`.
pub fn shutdown(socket: &Path) -> Result<(), String> {
    let ex = Exchange::run(socket, "{\"op\":\"shutdown\"}").map_err(|e| e.to_string())?;
    if ex.lines.iter().any(|(_, l)| l == "{\"type\":\"bye\"}") {
        Ok(())
    } else {
        Err(format!("shutdown not acknowledged: {:?}", ex.lines))
    }
}
