//! Resumable on-disk sweep journal: the shard format of the
//! [`ResultCache`](crate::ResultCache).
//!
//! An append-only JSON-lines file recording one line per *completed*
//! sweep cell, so a killed sweep relaunched on the same cache
//! directory skips every already-finished cell and still produces
//! byte-identical figure output to an uninterrupted run
//! (`SMTSIM_JOURNAL`, see EXPERIMENTS.md; format details in DESIGN.md
//! §13).
//!
//! Layout:
//!
//! ```text
//! {"smtsim_journal":1,"universe":"<fnv64 hex of the lab state>"}
//! {"key":"<mix>|<config fingerprint>","attempts":N,"run":{...},"crc":"<fnv64 hex>"}
//! ...
//! ```
//!
//! * The **header** pins the journal to one experiment universe — the
//!   hash covers every [`Lab`](crate::Lab) field that can change a cell
//!   result (seed, budgets, warm-up, machine, normalization reference,
//!   fault plans). Opening a journal written under a different universe
//!   is a typed [`JournalError::UniverseMismatch`], never a silent
//!   reuse — the same bug class as the stale normalization cache fixed
//!   in an earlier revision.
//! * Each **record** is self-checking: `crc` is the FNV-1a hash of
//!   `key|attempts|<canonical run JSON>`, and the reader re-serializes
//!   the parsed run through the same canonical writer, so a record only
//!   loads if its payload round-trips bit-exactly.
//! * **Atomicity** comes from single-`write` appends: every record is
//!   one `write_all` of one complete line (serialized under a mutex),
//!   so a crash can only truncate the *final* line. The reader
//!   tolerates exactly that — a trailing partial line is dropped — while
//!   corruption anywhere else (garbage bytes, a torn middle record, a
//!   failed crc) is a typed [`JournalError::Corrupt`].
//!
//! Only `Ok` cells are journaled. Failed cells re-run on resume: they
//! are cheap (they failed early) and re-running them keeps the
//! resumed sweep's result vector — and therefore the rendered figure —
//! identical to an uninterrupted run's.

use crate::experiment::MixRun;
use crate::twolevel::TwoLevelStats;
use smtsim_pipeline::{DodHistogram, DodOracleStats, FaultStats, SimStats, ThreadStats};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// Journal format version (header field `smtsim_journal`).
pub const JOURNAL_VERSION: u64 = 1;

/// Why a journal could not be opened or a record could not be loaded.
#[derive(Clone, Debug, PartialEq)]
pub enum JournalError {
    /// The file could not be read, created or appended to.
    Io {
        /// Journal path.
        path: PathBuf,
        /// The OS error.
        detail: String,
    },
    /// A non-final line failed to parse or failed its crc — the file
    /// was damaged somewhere a single-line append crash cannot reach.
    Corrupt {
        /// 1-based line number of the offending record.
        line: usize,
        /// What failed.
        detail: String,
    },
    /// The header's universe fingerprint does not match the current
    /// lab state: the journal was recorded under different seeds,
    /// budgets, machine or fault plans and must not be reused.
    UniverseMismatch {
        /// Fingerprint of the current lab state.
        expected: String,
        /// Fingerprint found in the journal header.
        found: String,
    },
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io { path, detail } => {
                write!(f, "journal I/O error on {}: {detail}", path.display())
            }
            JournalError::Corrupt { line, detail } => {
                write!(f, "journal corrupt at line {line}: {detail}")
            }
            JournalError::UniverseMismatch { expected, found } => write!(
                f,
                "journal universe mismatch: lab state hashes to {expected} \
                 but the journal was recorded under {found}; refusing to \
                 resume from a different experiment universe"
            ),
        }
    }
}

impl std::error::Error for JournalError {}

/// FNV-1a 64-bit — the workspace's dependency-free content hash — of
/// the concatenation of `parts`.
fn fnv1a64(parts: &[&[u8]]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in parts.iter().copied().flatten() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hex fingerprint of an arbitrary canonical description string.
pub fn fingerprint_str(s: &str) -> String {
    format!("{:016x}", fnv1a64(&[s.as_bytes()]))
}

/// A record's crc: the [`fingerprint_str`] of `key|attempts|run_json`,
/// hashed part by part instead of through a copy of the run text.
fn record_crc(key: &str, attempts: u32, run_json: &str) -> String {
    let attempts = attempts.to_string();
    let parts = [key, "|", &attempts, "|", run_json].map(str::as_bytes);
    format!("{:016x}", fnv1a64(&parts))
}

/// The journal key of one sweep cell: mix index plus the config's
/// *value* fingerprint (not its display label, which can collide).
pub fn cell_key(mix_idx: usize, config_fingerprint: &str) -> String {
    format!("{mix_idx}|{config_fingerprint}")
}

/// One loaded journal record.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// The completed cell result.
    pub run: MixRun,
    /// Attempts the cell took when first completed (1 = first try).
    pub attempts: u32,
    /// The run's canonical JSON ([`mix_run_to_json`]) as the record
    /// holds it: the text its crc was checked against at open, or the
    /// text [`Journal::record`] wrote. Shared, so a hit is served
    /// without rendering the run again.
    pub run_json: Arc<str>,
}

/// An open sweep journal: a snapshot of previously completed cells
/// plus an append handle for newly completed ones. Shared by sweep
/// workers through `&Journal` — appends serialize on an internal lock.
pub struct Journal {
    path: PathBuf,
    universe: String,
    /// Records loaded at open time plus those appended through this
    /// handle — the live view `lookup` serves, so a second sweep over
    /// the same open journal sees the first sweep's cells.
    entries: Mutex<BTreeMap<String, JournalEntry>>,
    file: Mutex<fs::File>,
}

impl fmt::Debug for Journal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Journal")
            .field("path", &self.path)
            .field("entries", &self.len())
            .finish()
    }
}

impl Journal {
    /// Opens (or creates) the journal at `path` for the experiment
    /// universe `universe` (a [`fingerprint_str`] of the lab state).
    /// Existing records are validated and loaded; a trailing partial
    /// line — the signature of a crash mid-append — is silently
    /// dropped, every other malformation is a typed error.
    pub fn open(path: &Path, universe: &str) -> Result<Journal, JournalError> {
        let io = |e: std::io::Error| JournalError::Io {
            path: path.to_path_buf(),
            detail: e.to_string(),
        };
        let mut entries = BTreeMap::new();
        let preexisting = path.exists();
        if preexisting {
            let bytes = fs::read(path).map_err(io)?;
            entries = load_records(&bytes, universe)?;
        }
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(io)?;
        if !preexisting {
            let header =
                format!("{{\"smtsim_journal\":{JOURNAL_VERSION},\"universe\":\"{universe}\"}}\n");
            file.write_all(header.as_bytes()).map_err(io)?;
            file.flush().map_err(io)?;
        }
        Ok(Journal {
            path: path.to_path_buf(),
            universe: universe.to_string(),
            entries: Mutex::new(entries),
            file: Mutex::new(file),
        })
    }

    /// The journal's on-disk path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The universe fingerprint this journal was opened under.
    pub fn universe(&self) -> &str {
        &self.universe
    }

    /// The record for `key` — loaded at open time or appended through
    /// this handle — if any.
    pub fn lookup(&self, key: &str) -> Option<JournalEntry> {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .get(key)
            .cloned()
    }

    /// True when a record for `key` is held; [`Journal::lookup`]
    /// without cloning the record.
    pub fn contains(&self, key: &str) -> bool {
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .contains_key(key)
    }

    /// Number of records held.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|e| e.into_inner()).len()
    }

    /// True when no records are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends one completed cell as a single atomic line write, then
    /// folds it into the live in-memory view. Returns the run's
    /// canonical JSON the line holds, shared with the new entry.
    pub fn record(&self, key: &str, run: &MixRun, attempts: u32) -> Result<Arc<str>, JournalError> {
        let run_json: Arc<str> = mix_run_to_json(run).into();
        let line = record_line(key, &run_json, attempts);
        {
            let mut file = self.file.lock().unwrap_or_else(|e| e.into_inner());
            let io = |e: std::io::Error| JournalError::Io {
                path: self.path.clone(),
                detail: e.to_string(),
            };
            file.write_all(line.as_bytes()).map_err(io)?;
            file.flush().map_err(io)?;
        }
        self.entries
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .insert(
                key.to_owned(),
                JournalEntry {
                    run: run.clone(),
                    attempts,
                    run_json: run_json.clone(),
                },
            );
        Ok(run_json)
    }
}

/// Serializes one record line (with trailing newline) around a run's
/// canonical JSON.
fn record_line(key: &str, run_json: &str, attempts: u32) -> String {
    let crc = record_crc(key, attempts, run_json);
    format!(
        "{{\"key\":{},\"attempts\":{attempts},\"run\":{run_json},\"crc\":\"{crc}\"}}\n",
        json_string(key)
    )
}

/// Parses journal bytes: header validation plus record loading with
/// the truncation-tolerance policy described in the module docs.
fn load_records(
    bytes: &[u8],
    universe: &str,
) -> Result<BTreeMap<String, JournalEntry>, JournalError> {
    let mut entries = BTreeMap::new();
    // A crash mid-append leaves a final line without its newline; that
    // partial tail (and only it) is dropped before validation.
    let complete = match bytes.iter().rposition(|&b| b == b'\n') {
        Some(i) => &bytes[..i],
        None => &[],
    };
    // Every complete line was written as UTF-8, so a byte that is not
    // is damage like any other, typed with its line.
    let complete = std::str::from_utf8(complete).map_err(|e| {
        let valid = &complete[..e.valid_up_to()];
        JournalError::Corrupt {
            line: 1 + valid.iter().filter(|&&b| b == b'\n').count(),
            detail: format!("invalid UTF-8 at byte {}", e.valid_up_to()),
        }
    })?;
    let mut lines = complete.lines().enumerate();
    let Some((_, header)) = lines.next() else {
        return Err(JournalError::Corrupt {
            line: 1,
            detail: "journal has no complete header line".into(),
        });
    };
    let hdr = parse_json(header).map_err(|e| JournalError::Corrupt {
        line: 1,
        detail: format!("unparseable header: {e}"),
    })?;
    let version = hdr
        .get("smtsim_journal")
        .and_then(Json::as_u64)
        .ok_or_else(|| JournalError::Corrupt {
            line: 1,
            detail: "header lacks smtsim_journal version".into(),
        })?;
    if version != JOURNAL_VERSION {
        return Err(JournalError::Corrupt {
            line: 1,
            detail: format!("unsupported journal version {version}"),
        });
    }
    let found =
        hdr.get("universe")
            .and_then(Json::as_str)
            .ok_or_else(|| JournalError::Corrupt {
                line: 1,
                detail: "header lacks universe fingerprint".into(),
            })?;
    if found != universe {
        return Err(JournalError::UniverseMismatch {
            expected: universe.to_string(),
            found: found.to_string(),
        });
    }
    for (idx, line) in lines {
        if line.is_empty() {
            continue;
        }
        let lineno = idx + 1;
        let corrupt = |detail: String| JournalError::Corrupt {
            line: lineno,
            detail,
        };
        let rec = parse_json(line).map_err(|e| corrupt(format!("unparseable record: {e}")))?;
        let key = rec
            .get("key")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("record lacks key".into()))?
            .to_string();
        let attempts = rec
            .get("attempts")
            .and_then(Json::as_u64)
            .ok_or_else(|| corrupt("record lacks attempts".into()))?;
        let attempts = u32::try_from(attempts)
            .map_err(|_| corrupt(format!("attempts {attempts} out of range")))?;
        let run_val = rec
            .get("run")
            .ok_or_else(|| corrupt("record lacks run".into()))?;
        let run = mix_run_from_json(run_val).map_err(|e| corrupt(format!("bad run: {e}")))?;
        let crc = rec
            .get("crc")
            .and_then(Json::as_str)
            .ok_or_else(|| corrupt("record lacks crc".into()))?;
        // Re-serialize through the canonical writer: the crc only
        // matches if the payload round-trips bit-exactly, and the text
        // it matches is the one the entry serves.
        let run_json = mix_run_to_json(&run);
        let expect = record_crc(&key, attempts, &run_json);
        if crc != expect {
            return Err(corrupt(format!(
                "crc mismatch for key {key}: stored {crc}, recomputed {expect}"
            )));
        }
        entries.insert(
            key,
            JournalEntry {
                run,
                attempts,
                run_json: run_json.into(),
            },
        );
    }
    Ok(entries)
}

// ---------------------------------------------------------------------
// Canonical MixRun JSON (hand-rolled: the workspace is serde-free).
// ---------------------------------------------------------------------

/// Escapes and quotes a JSON string. Public because every hand-rolled
/// JSON writer in the workspace (the journal itself, the serve
/// protocol) must escape identically — the workspace is serde-free.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Writes an f64 so that parsing the text yields the identical bits:
/// `{:?}` emits the shortest representation that round-trips.
fn json_f64(v: f64) -> String {
    format!("{v:?}")
}

fn json_f64_arr(vs: &[f64]) -> String {
    let body: Vec<String> = vs.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", body.join(","))
}

fn json_u64_arr(vs: &[u64]) -> String {
    let body: Vec<String> = vs.iter().map(u64::to_string).collect();
    format!("[{}]", body.join(","))
}

/// Canonical JSON of one [`MixRun`] — fixed key order, exact floats.
pub fn mix_run_to_json(r: &MixRun) -> String {
    let mut s = String::with_capacity(1024);
    let _ = write!(
        s,
        "{{\"mix\":{},\"config\":{},\"ft\":{},\"throughput\":{},\"ipc\":{},\"single_ipc\":{},\"weighted\":{}",
        json_string(&r.mix),
        json_string(&r.config),
        json_f64(r.ft),
        json_f64(r.throughput),
        json_f64_arr(&r.ipc),
        json_f64_arr(&r.single_ipc),
        json_f64_arr(&r.weighted),
    );
    let st = &r.stats;
    let _ = write!(
        s,
        ",\"stats\":{{\"cycles\":{},\"iq_occupancy_sum\":{},\"iq_full_cycles\":{},\"threads\":[",
        st.cycles, st.iq_occupancy_sum, st.iq_full_cycles
    );
    for (i, t) in st.threads.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "{{\"committed\":{},\"fetched\":{},\"wrong_path_fetched\":{},\"dispatched\":{},\"issued\":{},\"squashed\":{},\"branches\":{},\"mispredicts\":{},\"loads\":{},\"l2_misses\":{},\"forwarded_loads\":{},\"rob_occupancy_sum\":{},\"rob_stall_cycles\":{},\"stall_regs\":{},\"stall_iq\":{},\"stall_caps\":{},\"stall_lsq\":{}}}",
            t.committed,
            t.fetched,
            t.wrong_path_fetched,
            t.dispatched,
            t.issued,
            t.squashed,
            t.branches,
            t.mispredicts,
            t.loads,
            t.l2_misses,
            t.forwarded_loads,
            t.rob_occupancy_sum,
            t.rob_stall_cycles,
            t.stall_regs,
            t.stall_iq,
            t.stall_caps,
            t.stall_lsq,
        );
    }
    let h = &st.dod_at_fill;
    let _ = write!(
        s,
        "],\"dod_at_fill\":{{\"bins\":{},\"samples\":{},\"sum\":{}}}",
        json_u64_arr(h.bins()),
        h.samples,
        h.sum
    );
    let o = &st.dod_oracle;
    let _ = write!(
        s,
        ",\"dod_oracle\":{{\"checked\":{},\"violations\":{},\"exact_sum\":{},\"counter_err_sum\":{},\"counter_overshoot\":{}}}}}",
        o.checked, o.violations, o.exact_sum, o.counter_err_sum, o.counter_overshoot
    );
    match &r.twolevel {
        None => s.push_str(",\"twolevel\":null"),
        Some(tl) => {
            let _ = write!(
                s,
                ",\"twolevel\":{{\"allocations\":{},\"releases\":{},\"held_cycles\":{},\"rejected_dod\":{},\"rejected_busy\":{},\"pred_hits\":{},\"pred_cold\":{},\"pred_correct\":{},\"pred_verified\":{},\"cov_lookups\":{},\"cov_hits\":{}}}",
                tl.allocations,
                tl.releases,
                tl.held_cycles,
                tl.rejected_dod,
                tl.rejected_busy,
                tl.pred_hits,
                tl.pred_cold,
                tl.pred_correct,
                tl.pred_verified,
                tl.cov_lookups,
                tl.cov_hits,
            );
        }
    }
    let fs = &r.faults;
    let _ = write!(
        s,
        ",\"faults\":{{\"dropped_fills\":{},\"delayed_fills\":{},\"corrupted_dod\":{},\"withheld_releases\":{}}}}}",
        fs.dropped_fills, fs.delayed_fills, fs.corrupted_dod, fs.withheld_releases
    );
    s
}

/// Rebuilds a [`MixRun`] from its canonical JSON value.
pub fn mix_run_from_json(v: &Json) -> Result<MixRun, String> {
    let str_field = |k: &str| -> Result<String, String> {
        v.get(k)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("missing string field {k}"))
    };
    let f64_field = |k: &str| -> Result<f64, String> {
        v.get(k)
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("missing number field {k}"))
    };
    let f64_vec = |k: &str| -> Result<Vec<f64>, String> {
        v.get(k)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("missing array field {k}"))?
            .iter()
            .map(|x| x.as_f64().ok_or_else(|| format!("non-number in {k}")))
            .collect()
    };
    let stats_v = v.get("stats").ok_or("missing stats")?;
    let u = |obj: &Json, k: &str| -> Result<u64, String> {
        obj.get(k)
            .and_then(Json::as_u64)
            .ok_or_else(|| format!("missing u64 field {k}"))
    };
    let threads_v = stats_v
        .get("threads")
        .and_then(Json::as_arr)
        .ok_or("missing stats.threads")?;
    let mut threads = Vec::with_capacity(threads_v.len());
    for t in threads_v {
        threads.push(ThreadStats {
            committed: u(t, "committed")?,
            fetched: u(t, "fetched")?,
            wrong_path_fetched: u(t, "wrong_path_fetched")?,
            dispatched: u(t, "dispatched")?,
            issued: u(t, "issued")?,
            squashed: u(t, "squashed")?,
            branches: u(t, "branches")?,
            mispredicts: u(t, "mispredicts")?,
            loads: u(t, "loads")?,
            l2_misses: u(t, "l2_misses")?,
            forwarded_loads: u(t, "forwarded_loads")?,
            rob_occupancy_sum: u(t, "rob_occupancy_sum")?,
            rob_stall_cycles: u(t, "rob_stall_cycles")?,
            stall_regs: u(t, "stall_regs")?,
            stall_iq: u(t, "stall_iq")?,
            stall_caps: u(t, "stall_caps")?,
            stall_lsq: u(t, "stall_lsq")?,
        });
    }
    let h_v = stats_v
        .get("dod_at_fill")
        .ok_or("missing stats.dod_at_fill")?;
    let bins: Vec<u64> = h_v
        .get("bins")
        .and_then(Json::as_arr)
        .ok_or("missing dod_at_fill.bins")?
        .iter()
        .map(|x| x.as_u64().ok_or_else(|| "non-u64 bin".to_string()))
        .collect::<Result<_, _>>()?;
    // Histograms merge bin by bin, so every run must carry the
    // simulator's binning.
    let want = DodHistogram::default().bins().len();
    if bins.len() != want {
        return Err(format!("dod_at_fill has {} bins, not {want}", bins.len()));
    }
    let dod_at_fill = DodHistogram::from_parts(bins, u(h_v, "samples")?, u(h_v, "sum")?);
    let o_v = stats_v
        .get("dod_oracle")
        .ok_or("missing stats.dod_oracle")?;
    let dod_oracle = DodOracleStats {
        checked: u(o_v, "checked")?,
        violations: u(o_v, "violations")?,
        exact_sum: u(o_v, "exact_sum")?,
        counter_err_sum: u(o_v, "counter_err_sum")?,
        counter_overshoot: u(o_v, "counter_overshoot")?,
    };
    let stats = SimStats {
        cycles: u(stats_v, "cycles")?,
        threads,
        iq_occupancy_sum: u(stats_v, "iq_occupancy_sum")?,
        iq_full_cycles: u(stats_v, "iq_full_cycles")?,
        dod_at_fill,
        dod_oracle,
    };
    let twolevel = match v.get("twolevel") {
        None | Some(Json::Null) => None,
        Some(tl) => Some(TwoLevelStats {
            allocations: u(tl, "allocations")?,
            releases: u(tl, "releases")?,
            held_cycles: u(tl, "held_cycles")?,
            rejected_dod: u(tl, "rejected_dod")?,
            rejected_busy: u(tl, "rejected_busy")?,
            pred_hits: u(tl, "pred_hits")?,
            pred_cold: u(tl, "pred_cold")?,
            pred_correct: u(tl, "pred_correct")?,
            pred_verified: u(tl, "pred_verified")?,
            cov_lookups: u(tl, "cov_lookups")?,
            cov_hits: u(tl, "cov_hits")?,
        }),
    };
    let f_v = v.get("faults").ok_or("missing faults")?;
    let faults = FaultStats {
        dropped_fills: u(f_v, "dropped_fills")?,
        delayed_fills: u(f_v, "delayed_fills")?,
        corrupted_dod: u(f_v, "corrupted_dod")?,
        withheld_releases: u(f_v, "withheld_releases")?,
    };
    Ok(MixRun {
        mix: str_field("mix")?,
        config: str_field("config")?,
        ft: f64_field("ft")?,
        throughput: f64_field("throughput")?,
        ipc: f64_vec("ipc")?,
        single_ipc: f64_vec("single_ipc")?,
        weighted: f64_vec("weighted")?,
        stats,
        twolevel,
        faults,
    })
}

// ---------------------------------------------------------------------
// Minimal JSON value model + recursive-descent parser.
// ---------------------------------------------------------------------

/// A parsed JSON value. Numbers keep their source text so u64 counters
/// above 2^53 survive the trip exactly (`as_u64` parses the text
/// directly; `as_f64` goes through the same shortest-representation
/// round trip the writer uses).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A number, kept as its source text.
    Num(String),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object (key order irrelevant to consumers).
    Obj(BTreeMap<String, Json>),
}

impl Json {
    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(m) => m.get(key),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The number as u64, if it parses exactly.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The number as f64.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(s) => s.parse().ok(),
            _ => None,
        }
    }

    /// The element list, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }
}

/// Deepest nesting of arrays and objects [`parse_json`] accepts.
/// Journal records nest five levels and protocol lines fewer; the
/// bound keeps a hostile line from recursing the parser off its
/// thread's stack.
pub const MAX_JSON_DEPTH: usize = 16;

/// Parses one JSON document from `text` (must consume all non-space
/// input). Nesting deeper than [`MAX_JSON_DEPTH`] is an error.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let bytes = text.as_bytes();
    let mut pos = 0;
    let v = parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing bytes at offset {pos}"));
    }
    Ok(v)
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < b.len() && b[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at offset {pos}", c as char))
    }
}

/// Parses the value at `pos`, which `depth` arrays or objects enclose.
fn parse_value(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at offset {pos}"
        )),
        Some(b'{') => parse_obj(b, pos, depth + 1),
        Some(b'[') => parse_arr(b, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        // `{:?}` on non-finite floats emits NaN / inf / -inf; accept
        // them so any float the writer can produce parses back.
        Some(b'N') => parse_lit(b, pos, "NaN", Json::Num("NaN".into())),
        Some(b'i') => parse_lit(b, pos, "inf", Json::Num("inf".into())),
        Some(_) => parse_num(b, pos),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("bad literal at offset {pos}"))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if b.get(*pos) == Some(&b'-') {
        *pos += 1;
        if b[*pos..].starts_with(b"inf") {
            *pos += 3;
            return Ok(Json::Num("-inf".into()));
        }
    }
    while *pos < b.len() && matches!(b[*pos], b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-') {
        *pos += 1;
    }
    if *pos == start {
        return Err(format!("expected number at offset {start}"));
    }
    let text = std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?;
    if text.parse::<f64>().is_err() {
        return Err(format!("malformed number '{text}' at offset {start}"));
    }
    Ok(Json::Num(text.to_string()))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b.get(*pos + 1..*pos + 5).ok_or("truncated \\u escape")?;
                        let hex = std::str::from_utf8(hex).map_err(|e| e.to_string())?;
                        let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).ok_or("invalid \\u code point")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("bad escape at offset {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // A run of plain characters up to the next quote or
                // escape. Both are ASCII, so the run ends on a character
                // boundary and decodes from its own bytes alone.
                let start = *pos;
                while *pos < b.len() && !matches!(b[*pos], b'"' | b'\\') {
                    *pos += 1;
                }
                out.push_str(std::str::from_utf8(&b[start..*pos]).map_err(|e| e.to_string())?);
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos, depth)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected ',' or ']' at offset {pos}")),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut map = BTreeMap::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(map));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        let val = parse_value(b, pos, depth)?;
        map.insert(key, val);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(map));
            }
            _ => return Err(format!("expected ',' or '}}' at offset {pos}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_run(twolevel: bool) -> MixRun {
        let mut stats = SimStats::new(2);
        stats.cycles = 123_456;
        stats.iq_occupancy_sum = 42;
        stats.iq_full_cycles = 7;
        stats.threads[0].committed = 1000;
        stats.threads[0].l2_misses = 55;
        stats.threads[1].stall_lsq = 3;
        stats.dod_at_fill.record(3);
        stats.dod_at_fill.record(64); // saturates: sum != Σ i·bins[i]
        stats.dod_oracle.checked = 9;
        stats.dod_oracle.counter_err_sum = 2;
        MixRun {
            mix: "Mix 1".into(),
            config: "Baseline_32".into(),
            ft: 0.1 + 0.2, // a value with no short decimal expansion
            throughput: 1.75,
            ipc: vec![0.5, f64::consts_test()],
            single_ipc: vec![1.0, 2.0],
            weighted: vec![0.5, 0.25],
            stats,
            twolevel: twolevel.then_some(TwoLevelStats {
                allocations: 11,
                releases: 10,
                held_cycles: 999,
                rejected_dod: 1,
                rejected_busy: 2,
                pred_hits: 3,
                pred_cold: 4,
                pred_correct: 5,
                pred_verified: 6,
                cov_lookups: 7,
                cov_hits: 8,
            }),
            faults: FaultStats {
                dropped_fills: 1,
                delayed_fills: 2,
                corrupted_dod: 3,
                withheld_releases: 4,
            },
        }
    }

    trait ConstsTest {
        fn consts_test() -> f64;
    }
    impl ConstsTest for f64 {
        fn consts_test() -> f64 {
            // An awkward float: many significant digits, round-trips
            // only through the shortest-representation path.
            0.123_456_789_012_345_67
        }
    }

    #[test]
    fn mix_run_round_trips_exactly() {
        for tl in [false, true] {
            let run = sample_run(tl);
            let json = mix_run_to_json(&run);
            let parsed = parse_json(&json).expect("canonical JSON parses");
            let back = mix_run_from_json(&parsed).expect("round trip");
            assert_eq!(format!("{run:?}"), format!("{back:?}"));
            // Idempotent: serializing the round-tripped value is
            // byte-identical (this is what record crcs rely on).
            assert_eq!(json, mix_run_to_json(&back));
        }
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = parse_json(r#"{"a":[1,2.5,-3],"b":{"c":"x\"y\\z\nw"},"d":null,"e":true}"#)
            .expect("parses");
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2].as_f64(),
            Some(-3.0)
        );
        assert_eq!(
            v.get("b").unwrap().get("c").unwrap().as_str(),
            Some("x\"y\\z\nw")
        );
        assert_eq!(v.get("d"), Some(&Json::Null));
        assert_eq!(v.get("e"), Some(&Json::Bool(true)));
    }

    #[test]
    fn parser_preserves_large_u64() {
        let big = u64::MAX;
        let v = parse_json(&format!("{{\"x\":{big}}}")).expect("parses");
        assert_eq!(v.get("x").unwrap().as_u64(), Some(big));
    }

    #[test]
    fn parser_bounds_nesting_depth() {
        let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(parse_json(&nested(MAX_JSON_DEPTH)).is_ok());
        let err = parse_json(&nested(MAX_JSON_DEPTH + 1)).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
        // A hostile line: far more levels than any thread stack holds
        // frames for, never closed. It fails typed, not by overflow.
        let hostile = format!("{{\"op\":{}", "[".repeat(200_000));
        let err = parse_json(&hostile).unwrap_err();
        assert!(err.contains("nesting deeper"), "{err}");
    }

    #[test]
    fn strings_decode_in_linear_time() {
        // About 1 MB of mixed one- to three-byte characters with an
        // escape every 64 bytes. Decoding it once per character over
        // the rest of the input took tens of seconds; one pass takes
        // milliseconds.
        let chunk = "spec = \"x\"\u{e9}\u{2603}".repeat(2) + &"a".repeat(36) + "\n";
        let body = chunk.repeat(1 << 14);
        assert!(body.len() > 1_000_000);
        let line = format!("{{\"spec_toml\":{}}}", json_string(&body));
        let t0 = std::time::Instant::now();
        let v = parse_json(&line).expect("parses");
        let took = t0.elapsed();
        assert_eq!(v.get("spec_toml").and_then(Json::as_str), Some(&*body));
        assert!(took.as_secs_f64() < 2.0, "1 MB string took {took:?}");
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse_json("{").is_err());
        assert!(parse_json("nope").is_err());
        assert!(parse_json("{\"a\":}").is_err());
        assert!(parse_json("[1,]").is_err());
        assert!(parse_json("{\"a\":1} extra").is_err());
    }

    #[test]
    fn journal_create_record_reopen() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-basic");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        let run = sample_run(true);
        {
            let j = Journal::open(&path, &uni).expect("create");
            assert!(j.is_empty());
            j.record("1|Baseline(32)", &run, 2).expect("append");
        }
        let j = Journal::open(&path, &uni).expect("reopen");
        assert_eq!(j.len(), 1);
        let e = j.lookup("1|Baseline(32)").expect("recorded entry");
        assert_eq!(e.attempts, 2);
        assert_eq!(format!("{:?}", e.run), format!("{run:?}"));
        assert_eq!(*e.run_json, mix_run_to_json(&run), "the text a hit serves");
        assert!(j.lookup("2|Baseline(32)").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_final_record_is_tolerated() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-trunc");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        {
            let j = Journal::open(&path, &uni).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
            j.record("k2", &sample_run(true), 1).unwrap();
        }
        // Simulate a crash mid-append: chop the file mid final line.
        let text = fs::read_to_string(&path).unwrap();
        fs::write(&path, &text[..text.len() - 25]).unwrap();
        let j = Journal::open(&path, &uni).expect("truncated tail tolerated");
        assert_eq!(j.len(), 1, "only the complete record survives");
        assert!(j.lookup("k1").is_some());
        assert!(j.lookup("k2").is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn garbage_mid_file_is_typed_corruption() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-garbage");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        {
            let j = Journal::open(&path, &uni).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
        }
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("!!not json!!\n");
        // Append a valid record *after* the garbage so the garbage is
        // mid-file, not a truncated tail.
        text.push_str(&record_line("k2", &mix_run_to_json(&sample_run(true)), 1));
        fs::write(&path, &text).unwrap();
        match Journal::open(&path, &uni) {
            Err(JournalError::Corrupt { line, detail }) => {
                assert_eq!(line, 3);
                assert!(detail.contains("unparseable record"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn crc_mismatch_is_typed_corruption() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-crc");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        {
            let j = Journal::open(&path, &uni).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
            j.record("k2", &sample_run(false), 1).unwrap();
        }
        // Flip a digit inside the first record's payload (keep JSON
        // valid, break the crc).
        let text = fs::read_to_string(&path).unwrap();
        let tampered = text.replacen("\"cycles\":123456", "\"cycles\":123457", 1);
        assert_ne!(text, tampered, "tamper site must exist");
        fs::write(&path, tampered).unwrap();
        match Journal::open(&path, &uni) {
            Err(JournalError::Corrupt { detail, .. }) => {
                assert!(detail.contains("crc mismatch"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn well_formed_records_out_of_range_are_typed_corruption() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-range");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        let expect_corrupt = |want_line: usize, what: &str| match Journal::open(&path, &uni) {
            Err(JournalError::Corrupt { line, detail }) => {
                assert_eq!(line, want_line, "{detail}");
                assert!(detail.contains(what), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        };
        // A 31-bin histogram would panic the first merge with a
        // simulator histogram; its line and crc are well formed.
        let mut short = sample_run(false);
        short.stats.dod_at_fill = DodHistogram::new(30);
        {
            let j = Journal::open(&path, &uni).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
            j.record("k2", &short, 1).unwrap();
        }
        expect_corrupt(3, "31 bins");
        // An `attempts` past u32 whose crc covers its truncation.
        fs::remove_file(&path).unwrap();
        Journal::open(&path, &uni)
            .expect("create")
            .record("k1", &sample_run(false), 2)
            .unwrap();
        let text = fs::read_to_string(&path).unwrap();
        let wide = text.replacen("\"attempts\":2,", "\"attempts\":4294967298,", 1);
        assert_ne!(text, wide, "tamper site must exist");
        fs::write(&path, wide).unwrap();
        expect_corrupt(2, "attempts");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_utf8_byte_mid_file_is_typed_corruption() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-utf8");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let uni = fingerprint_str("universe-A");
        {
            let j = Journal::open(&path, &uni).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
            j.record("k2", &sample_run(false), 1).unwrap();
        }
        // Flip the high bit of one byte of the first record: a complete
        // line that is no longer UTF-8, with a record after it.
        let mut bytes = fs::read(&path).unwrap();
        let first_record = bytes.iter().position(|&b| b == b'\n').unwrap() + 1;
        bytes[first_record + 10] ^= 0x80;
        fs::write(&path, bytes).unwrap();
        match Journal::open(&path, &uni) {
            Err(JournalError::Corrupt { line, detail }) => {
                assert_eq!(line, 2);
                assert!(detail.contains("UTF-8"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_universe_is_rejected() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-universe");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        let a = fingerprint_str("universe-A");
        let b = fingerprint_str("universe-B");
        {
            let j = Journal::open(&path, &a).expect("create");
            j.record("k1", &sample_run(false), 1).unwrap();
        }
        match Journal::open(&path, &b) {
            Err(JournalError::UniverseMismatch { expected, found }) => {
                assert_eq!(expected, b);
                assert_eq!(found, a);
            }
            other => panic!("expected UniverseMismatch, got {other:?}"),
        }
        // The original universe still opens fine.
        assert_eq!(Journal::open(&path, &a).expect("same universe").len(), 1);
        let _ = fs::remove_dir_all(&dir);
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(96))]

        #[test]
        fn damaged_shards_load_typed_and_serve_their_own_bytes(
            records in 2usize..6,
            damage in proptest::collection::vec(
                (0u8..2, proptest::arbitrary::any::<u64>(), 0u8..8),
                1..4,
            ),
        ) {
            // A shard of a few records, then random truncations and
            // single-bit flips anywhere in it, header included.
            let dir = std::env::temp_dir().join(format!(
                "smtsim-journal-test-damage-{}",
                std::process::id()
            ));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            let path = dir.join("j.jsonl");
            let uni = fingerprint_str("universe-A");
            let mut written = BTreeMap::new();
            {
                let j = Journal::open(&path, &uni).expect("create");
                for i in 0..records {
                    let mut run = sample_run(i % 2 == 0);
                    run.stats.cycles += i as u64;
                    run.ft += i as f64 / 7.0;
                    let key = format!("{i}|cfg");
                    j.record(&key, &run, 1 + i as u32).unwrap();
                    written.insert(key, mix_run_to_json(&run));
                }
            }
            let mut bytes = fs::read(&path).unwrap();
            for &(kind, at, bit) in &damage {
                if bytes.is_empty() {
                    break;
                }
                let at = (at % bytes.len() as u64) as usize;
                if kind == 0 {
                    bytes.truncate(at);
                } else {
                    bytes[at] ^= 1 << bit;
                }
            }
            fs::write(&path, &bytes).unwrap();
            // Ok or a typed error, never a panic; and every entry that
            // loads serves exactly the canonical text of its own run,
            // which is the text first written under its key.
            if let Ok(j) = Journal::open(&path, &uni) {
                let mut found = 0;
                for (key, text) in &written {
                    if let Some(e) = j.lookup(key) {
                        found += 1;
                        proptest::prop_assert_eq!(&*e.run_json, mix_run_to_json(&e.run).as_str());
                        proptest::prop_assert_eq!(&*e.run_json, text.as_str());
                    }
                }
                proptest::prop_assert_eq!(found, j.len());
            }
            let _ = fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn empty_file_lacks_header() {
        let dir = std::env::temp_dir().join("smtsim-journal-test-empty");
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("j.jsonl");
        fs::write(&path, "").unwrap();
        match Journal::open(&path, &fingerprint_str("u")) {
            Err(JournalError::Corrupt { line: 1, detail }) => {
                assert!(detail.contains("header"), "{detail}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        let _ = fs::remove_dir_all(&dir);
    }
}
