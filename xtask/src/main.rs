//! `cargo xtask` — workspace automation.
//!
//! Subcommands:
//!
//! * `lint` — source-level policy checks (below);
//! * `determinism` — runs representative committed specs (figure,
//!   histogram, accuracy table, the `trace` structured dump, the model
//!   checker and the trace oracles of `conform` over the mixes and the
//!   corpus) through the `spec` bin at `SMTSIM_JOBS=1` and
//!   `SMTSIM_JOBS=4` and fails unless their stdout is byte-identical:
//!   the parallel sweep engine is *defined* to produce the serial
//!   output at any job count. Budget knobs (`BUDGET`/`WARMUP`/
//!   `MIXES`…) are honored when already set in the environment;
//!   otherwise a fast CI-scale budget is used. Runs use a scratch
//!   CWD so reduced-budget artifacts never overwrite the committed
//!   `results/`. The `fig2`, `fig1`, `accuracy` and `trace` outputs
//!   (the last is the contents of `results/episodes.txt` at CI scale)
//!   are additionally pinned byte-for-byte against the committed
//!   golden files in `tests/golden/`; `--bless` rewrites the goldens
//!   after an intended change. Golden comparison is skipped when any
//!   budget knob is overridden, because the goldens are recorded at
//!   the default CI-scale settings. A third `fig2` leg runs under
//!   `SMTSIM_NO_SKIP=1` and must match the default output
//!   byte-for-byte: event-driven cycle skipping (DESIGN.md §15) is
//!   defined to be timing-transparent. A final leg runs the generic
//!   `spec` bin against the committed malformed-spec fixture and
//!   requires exit code 2 with an error naming the offending key —
//!   the typed-spec-error contract, pinned end to end.
//! * `conform` — runs the `conform` spec, whose harness judges every
//!   traced run with the differential and the protocol monitor
//!   (committed mixes + fuzz corpus replay + fresh-seed smoke), at
//!   `SMTSIM_JOBS=1` and `SMTSIM_JOBS=4` and fails unless both runs
//!   pass with byte-identical stdout: generated fuzz programs and
//!   verdicts must be a pure function of `FUZZ_SEED`. It then runs the
//!   `smtsim-conform` mutation self-test on both sides of the
//!   `seeded-dod-bug` feature: the differential must be clean on the
//!   pristine pipeline *and* catch the planted DoD-window off-by-one
//!   (DESIGN.md §12).
//! * `check` — runs the `check` bounded-model-checking spec (exhaustive
//!   protocol exploration at CI bounds) at `SMTSIM_JOBS=1` and
//!   `SMTSIM_JOBS=4` and fails unless both runs pass with
//!   byte-identical stdout, then runs the `smtsim-check`
//!   mutation self-test on both sides of the `seeded-release-bug`
//!   feature: the explorer must be clean on the pristine model *and*
//!   catch the planted bug with its minimal counterexample
//!   (DESIGN.md §14).
//!
//! `lint` checks are things rustc/clippy cannot express because they
//! are *policy*, not language rules:
//!
//! * **hash-collections** — `HashMap`/`HashSet` in production sources.
//!   Their iteration order is nondeterministic per process, so a hash
//!   collection anywhere near simulator state or report/figure output
//!   silently breaks byte-for-byte reproducibility. Use
//!   `BTreeMap`/`BTreeSet` (or annotate the line with
//!   `// xtask: allow-hash-collection — <reason>` for a keyed lookup
//!   that provably never iterates).
//! * **unwrap-in-pipeline** — `.unwrap()` / `.expect(` in
//!   `crates/pipeline` hot paths. The simulator reports integrity
//!   failures as typed `SimError`s; a panic in a stage poisons a whole
//!   sweep instead of one cell. Marker: `// xtask: allow-unwrap`.
//! * **lossy-cast-in-stats** — narrowing `as` casts in stats/metrics
//!   accounting files, where a truncated counter produces a plausible
//!   but wrong figure. Marker: `// xtask: allow-lossy-cast`.
//! * **env-read-outside-benchenv** — `env::var` / `env::var_os` reads
//!   anywhere but `crates/core/src/knobs.rs`. Every experiment knob is
//!   a row of its table and parses exactly once through
//!   `Knobs::from_env`, so the table is authoritative and a typo'd
//!   variable fails loudly instead of silently using a default.
//!   Marker: `// xtask: allow-env-read`.
//! * **wall-clock-in-sim** — `Instant` / `SystemTime` reads outside
//!   the cell watchdog (`crates/pipeline/src/budget.rs`).
//!   Simulated time comes from the cycle counter; a wall-clock read
//!   anywhere near simulator state or report output makes figures
//!   machine- and load-dependent. Marker: `// xtask: allow-wall-clock`.
//! * **scheme-wiring-outside-registry** — `RobConfig::Baseline(…)`,
//!   `RobConfig::TwoLevel(…)` or `TwoLevelConfig::…` constructions in
//!   `crates/bench/src`, `crates/serve/src` and
//!   `crates/core/src/figures.rs`. These layers execute or serve
//!   committed `experiments/*.toml` specs; every scheme they run must
//!   resolve through the spec registry so the spec files stay the
//!   single source of experiment truth. Marker:
//!   `// xtask: allow-scheme-wiring`.
//! * **stale-allow-marker** — any `xtask: allow-*` marker whose own
//!   line and next line contain nothing the marker suppresses. Stale
//!   allowances are refused outright: left in place, they silently
//!   bless the *next* violation someone introduces on that line.
//!
//! Test code is exempt: `tests/` directories, and everything at or
//! below the first `#[cfg(test)]` line of a file (the workspace
//! convention keeps the test module last).
//!
//! Run as `cargo xtask lint` (alias in `.cargo/config.toml`). Exits 1
//! when violations are found, printing `path:line: [rule] message`.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// One lint hit.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Violation {
    file: PathBuf,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Recursively collects `.rs` files under `dir`, sorted for
/// deterministic output. `skip_tests` drops `tests/` directories.
fn rust_sources(dir: &Path, skip_tests: bool, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut entries: Vec<_> = entries.flatten().map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
            if skip_tests && (name == "tests" || name == "benches" || name == "target") {
                continue;
            }
            rust_sources(&path, skip_tests, out);
        } else if path.extension().and_then(|e| e.to_str()) == Some("rs") {
            out.push(path);
        }
    }
}

/// The code portion of a source line: strips `//` comments (including
/// doc comments) so prose mentioning `HashMap` never trips the lint.
/// String literals containing `//` are not handled — acceptable for a
/// policy lint over this workspace.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does `lines[idx]` carry `marker` on the same or the previous line?
fn allowed(lines: &[&str], idx: usize, marker: &str) -> bool {
    lines[idx].contains(marker) || (idx > 0 && lines[idx - 1].contains(marker))
}

/// The narrowing `as` casts the stats lint rejects.
const NARROWING_CASTS: &[&str] = &[
    " as u8", " as u16", " as u32", " as i8", " as i16", " as i32",
];

/// Does `code` contain `cast` at a word boundary (so ` as u32` does
/// not also match inside ` as u32x4`-style names)?
fn has_cast(code: &str, cast: &str) -> bool {
    let mut search = code;
    while let Some(i) = search.find(cast) {
        let after = &search[i + cast.len()..];
        if after.chars().next().is_none_or(|c| !c.is_alphanumeric()) {
            return true;
        }
        search = after;
    }
    false
}

/// Does `code` mention `tok` as a standalone identifier (both sides
/// bounded, so `Instantiates` in a name never matches `Instant`)?
fn has_token(code: &str, tok: &str) -> bool {
    let bytes = code.as_bytes();
    let mut start = 0;
    while let Some(i) = code[start..].find(tok) {
        let at = start + i;
        let end = at + tok.len();
        let word = |b: u8| b.is_ascii_alphanumeric() || b == b'_';
        let before_ok = at == 0 || !word(bytes[at - 1]);
        let after_ok = end >= bytes.len() || !word(bytes[end]);
        if before_ok && after_ok {
            return true;
        }
        start = end;
    }
    false
}

/// Does `code` read a wall clock (`Instant` / `SystemTime`)?
fn has_wall_clock(code: &str) -> bool {
    has_token(code, "Instant") || has_token(code, "SystemTime")
}

/// Does `code` hardcode a ROB scheme construction (the wiring the
/// spec registry owns)?
fn has_scheme_wiring(code: &str) -> bool {
    code.contains("RobConfig::Baseline")
        || code.contains("RobConfig::TwoLevel")
        || code.contains("TwoLevelConfig::")
}

/// Predicate deciding whether a code line needs a given allow-marker.
type MarkerUse = fn(&str) -> bool;

/// Every allow-marker, paired with the predicate deciding whether a
/// line actually needs it. A marker whose own line and next line both
/// fail the predicate is *stale* — a hard lint failure, because dead
/// markers rot into false confidence that a suppression is load-
/// bearing.
const MARKER_USES: &[(&str, MarkerUse)] = &[
    ("xtask: allow-hash-collection", |c| {
        c.contains("HashMap") || c.contains("HashSet")
    }),
    ("xtask: allow-unwrap", |c| {
        c.contains(".unwrap()") || c.contains(".expect(")
    }),
    ("xtask: allow-lossy-cast", |c| {
        NARROWING_CASTS.iter().any(|cast| has_cast(c, cast))
    }),
    ("xtask: allow-env-read", |c| c.contains("env::var")),
    ("xtask: allow-wall-clock", has_wall_clock),
    ("xtask: allow-scheme-wiring", has_scheme_wiring),
];

/// Index of the first `#[cfg(test)]`-style line, i.e. where the file's
/// test module begins; everything from there on is exempt.
fn test_code_start(lines: &[&str]) -> usize {
    lines
        .iter()
        .position(|l| {
            let t = l.trim_start();
            t.starts_with("#[cfg(") && t.contains("test")
        })
        .unwrap_or(lines.len())
}

/// Scans one production source file. `is_env_funnel` marks the single
/// file allowed to read the process environment; `is_wall_exempt`
/// marks the file where wall-clock reads are the point (the cell
/// watchdog); `runs_specs` marks the layers that must take every
/// scheme from a spec.
fn scan_file(
    path: &Path,
    in_pipeline: bool,
    is_stats: bool,
    is_env_funnel: bool,
    is_wall_exempt: bool,
    runs_specs: bool,
    out: &mut Vec<Violation>,
) {
    let Ok(text) = std::fs::read_to_string(path) else {
        return;
    };
    let lines: Vec<&str> = text.lines().collect();
    let end = test_code_start(&lines);
    for (idx, raw) in lines.iter().enumerate().take(end) {
        let code = code_of(raw);
        let lineno = idx + 1;
        for coll in ["HashMap", "HashSet"] {
            if code.contains(coll) && !allowed(&lines, idx, "xtask: allow-hash-collection") {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: "hash-collections",
                    message: format!(
                        "{coll} in production code: iteration order is nondeterministic; \
                         use BTreeMap/BTreeSet or annotate `// xtask: allow-hash-collection`"
                    ),
                });
            }
        }
        if in_pipeline
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(&lines, idx, "xtask: allow-unwrap")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "unwrap-in-pipeline",
                message: "panicking extractor in a pipeline hot path: report a typed \
                          SimError (or annotate `// xtask: allow-unwrap`)"
                    .into(),
            });
        }
        if !is_env_funnel
            && code.contains("env::var")
            && !allowed(&lines, idx, "xtask: allow-env-read")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "env-read-outside-benchenv",
                message: "environment read outside `crates/core/src/knobs.rs`: add the \
                          knob to its `KNOBS` table so `Knobs::from_env` parses it \
                          (or annotate `// xtask: allow-env-read`)"
                    .into(),
            });
        }
        if is_stats && !allowed(&lines, idx, "xtask: allow-lossy-cast") {
            for cast in NARROWING_CASTS {
                if has_cast(code, cast) {
                    out.push(Violation {
                        file: path.to_path_buf(),
                        line: lineno,
                        rule: "lossy-cast-in-stats",
                        message: format!(
                            "narrowing `{}` in stats accounting can silently truncate \
                             a counter; widen instead (or annotate \
                             `// xtask: allow-lossy-cast`)",
                            cast.trim_start()
                        ),
                    });
                }
            }
        }
        if !is_wall_exempt
            && has_wall_clock(code)
            && !allowed(&lines, idx, "xtask: allow-wall-clock")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "wall-clock-in-sim",
                message: "wall-clock read (`Instant`/`SystemTime`) outside the cell \
                          watchdog: simulated time comes from \
                          the cycle counter, so figures and verdicts stay machine- and \
                          load-independent (or annotate `// xtask: allow-wall-clock`)"
                    .into(),
            });
        }
        if runs_specs
            && has_scheme_wiring(code)
            && !allowed(&lines, idx, "xtask: allow-scheme-wiring")
        {
            out.push(Violation {
                file: path.to_path_buf(),
                line: lineno,
                rule: "scheme-wiring-outside-registry",
                message: "hardcoded ROB scheme construction outside the registry: resolve \
                          the configuration through the spec registry (a scheme id in the \
                          experiment spec) so `experiments/*.toml` stays the single source \
                          of experiment truth (or annotate `// xtask: allow-scheme-wiring`)"
                    .into(),
            });
        }
        // Stale allow-markers: a marker that suppresses nothing on its
        // own or the next line is refused outright.
        for &(marker, used_by) in MARKER_USES {
            if raw.contains(marker)
                && !used_by(code)
                && !lines.get(idx + 1).is_some_and(|l| used_by(code_of(l)))
            {
                out.push(Violation {
                    file: path.to_path_buf(),
                    line: lineno,
                    rule: "stale-allow-marker",
                    message: format!(
                        "`{marker}` suppresses nothing on this or the next line; \
                         remove the marker (stale allowances hide future violations)"
                    ),
                });
            }
        }
    }
}

/// Runs every lint over the workspace rooted at `root`; returns the
/// violations sorted by file and line.
fn run_lints(root: &Path) -> Vec<Violation> {
    // Scope: the simulator production crates. `xtask` itself and the
    // vendored proptest shim are not simulator state/output.
    let mut files = Vec::new();
    rust_sources(&root.join("crates"), true, &mut files);
    let mut out = Vec::new();
    for f in &files {
        let rel = f.strip_prefix(root).unwrap_or(f);
        let in_pipeline = rel.starts_with("crates/pipeline/src");
        let stem = rel.file_name().and_then(|n| n.to_str()).unwrap_or("");
        let is_stats = stem == "stats.rs" || stem == "metrics.rs";
        let is_env_funnel = rel == Path::new("crates/core/src/knobs.rs");
        // Wall-clock reads are the *purpose* of the cell watchdog;
        // everywhere else they are a determinism hazard.
        let is_wall_exempt = rel == Path::new("crates/pipeline/src/budget.rs");
        let runs_specs = rel.starts_with("crates/bench/src")
            || rel.starts_with("crates/serve/src")
            || rel == Path::new("crates/core/src/figures.rs");
        scan_file(
            f,
            in_pipeline,
            is_stats,
            is_env_funnel,
            is_wall_exempt,
            runs_specs,
            &mut out,
        );
    }
    out.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    out
}

/// The CI-scale budget the `determinism` harness uses when the caller
/// has not already pinned the knobs. Golden files under `tests/golden/`
/// are recorded at exactly these settings.
const DETERMINISM_DEFAULTS: &[(&str, &str)] = &[
    ("BUDGET", "8000"),
    ("WARMUP", "10000"),
    ("MIXES", "1,2,9"),
    // Small model bounds for the `check` bin's exploration pass — the
    // full CI bounds run in `cargo xtask check`; here the point is
    // only that the report bytes are identical across runs.
    ("CHECK_THREADS", "2"),
    ("CHECK_L2", "2"),
    // The `conform` leg judges the mixes and the corpus; fresh fuzz
    // runs in `cargo xtask conform`.
    ("FUZZ_CASES", "0"),
];

/// Runs the committed spec `experiments/<id>.toml` through the `spec`
/// bin at the given job count and captures stdout. Knobs already
/// present in the environment win over the `defaults`; otherwise a
/// fast CI-scale budget keeps the check under a minute. `forced`
/// entries are set unconditionally — they override both the defaults
/// and the caller's environment (used for legs that deliberately flip
/// a knob, like the `SMTSIM_NO_SKIP` comparison). `SMTSIM_SPEC` is
/// always forced to the absolute spec path, so a caller's own
/// `SMTSIM_SPEC` cannot redirect a leg.
fn run_bench_bin(
    root: &Path,
    id: &str,
    jobs: usize,
    defaults: &[(&str, &str)],
    forced: &[(&str, &str)],
) -> Result<String, String> {
    // Specs write `results/` relative to their CWD; run them in a
    // scratch directory so this reduced-budget check never overwrites
    // the committed full-budget artifacts.
    let scratch = root.join("target/xtask-determinism");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("cannot create scratch dir: {e}"))?;
    let manifest = root
        .join("Cargo.toml")
        .canonicalize()
        .map_err(|e| format!("cannot resolve workspace manifest: {e}"))?;
    let spec = root
        .join("experiments")
        .join(format!("{id}.toml"))
        .canonicalize()
        .map_err(|e| format!("cannot resolve experiments/{id}.toml: {e}"))?;
    let mut cmd = std::process::Command::new("cargo");
    cmd.current_dir(&scratch)
        .args(["run", "--release", "-q", "--manifest-path"])
        .arg(manifest)
        .args(["-p", "smtsim-bench", "--bin", "spec"])
        .env("SMTSIM_JOBS", jobs.to_string());
    for &(k, v) in defaults {
        if std::env::var_os(k).is_none() {
            cmd.env(k, v);
        }
    }
    for &(k, v) in forced {
        cmd.env(k, v);
    }
    cmd.env("SMTSIM_SPEC", spec);
    let out = cmd
        .output()
        .map_err(|e| format!("cannot spawn cargo for {id}: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "{id} (SMTSIM_JOBS={jobs}) failed with {}:\n{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        ));
    }
    Ok(String::from_utf8_lossy(&out.stdout).into_owned())
}

/// Runs `experiments/<id>.toml` through the `spec` bin at
/// `SMTSIM_JOBS=1` and `4` and byte-compares stdout. Returns the serial
/// run's stdout when both runs succeed and agree; otherwise reports
/// the failure or the first divergence under `label` and returns
/// `None`.
fn jobs_1_and_4(root: &Path, label: &str, id: &str, defaults: &[(&str, &str)]) -> Option<String> {
    let run = |jobs| {
        run_bench_bin(root, id, jobs, defaults, &[])
            .map_err(|e| eprintln!("xtask {label}: {e}"))
            .ok()
    };
    let serial = run(1)?;
    let parallel = run(4)?;
    if serial == parallel {
        println!("xtask {label}: identical at jobs 1 and 4");
        return Some(serial);
    }
    eprintln!("xtask {label}: OUTPUT DIFFERS between jobs 1 and 4");
    report_first_divergence("jobs=1", &serial, "jobs=4", &parallel);
    None
}

/// Reports the first line where two captured outputs diverge.
fn report_first_divergence(label_a: &str, a: &str, label_b: &str, b: &str) {
    for (n, (la, lb)) in a.lines().zip(b.lines()).enumerate() {
        if la != lb {
            eprintln!("  first divergence at line {}:", n + 1);
            eprintln!("    {label_a}: {la}");
            eprintln!("    {label_b}: {lb}");
            return;
        }
    }
    // Same shared prefix: one side simply has more lines.
    eprintln!(
        "  outputs share a common prefix; line counts differ ({} vs {})",
        a.lines().count(),
        b.lines().count()
    );
}

/// The specs whose CI-scale stdout is pinned byte-for-byte under
/// `tests/golden/` (the stdout of `trace` is exactly the
/// `results/episodes.txt` table; `accuracy` prints the
/// `results/accuracy.txt` table).
const GOLDEN_BINS: &[(&str, &str)] = &[
    ("fig2", "fig2.txt"),
    ("fig1", "fig1.txt"),
    ("trace", "episodes.txt"),
    ("accuracy", "accuracy.txt"),
];

/// Compares one spec's captured stdout against its committed golden
/// file (or rewrites the golden when `bless` is set). Only meaningful
/// when the caller is running at the default CI-scale knob values —
/// with knobs overridden in the environment the comparison is skipped.
fn check_golden(root: &Path, id: &str, golden: &str, output: &str, bless: bool) -> Result<(), ()> {
    let path = root.join("tests/golden").join(golden);
    if bless {
        if let Some(dir) = path.parent() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("xtask determinism: cannot create {}: {e}", dir.display());
                return Err(());
            }
        }
        return match std::fs::write(&path, output) {
            Ok(()) => {
                println!("xtask determinism: {id}: blessed tests/golden/{golden}");
                Ok(())
            }
            Err(e) => {
                eprintln!("xtask determinism: cannot write {}: {e}", path.display());
                Err(())
            }
        };
    }
    match std::fs::read_to_string(&path) {
        Ok(expected) if expected == output => {
            println!("xtask determinism: {id}: matches tests/golden/{golden}");
            Ok(())
        }
        Ok(expected) => {
            eprintln!(
                "xtask determinism: {id}: OUTPUT DRIFTED from tests/golden/{golden} \
                 (run `cargo xtask determinism --bless` if the change is intended)"
            );
            report_first_divergence("golden", &expected, "actual", output);
            Err(())
        }
        Err(e) => {
            eprintln!(
                "xtask determinism: {id}: cannot read {} ({e}); \
                 run `cargo xtask determinism --bless` to record it",
                path.display()
            );
            Err(())
        }
    }
}

/// The spec-error leg of the `determinism` harness: the generic
/// `spec` bin, pointed at the committed malformed fixture, must exit
/// with code 2 (invalid configuration) and an error naming the
/// offending key — proving malformed TOML surfaces as a typed
/// `SimError::InvalidConfig` through `run_bin`, never as a panic.
fn check_malformed_spec(root: &Path) -> Result<(), String> {
    let fixture = root
        .join("xtask/fixtures/malformed-spec.toml")
        .canonicalize()
        .map_err(|e| format!("cannot resolve malformed-spec fixture: {e}"))?;
    let manifest = root
        .join("Cargo.toml")
        .canonicalize()
        .map_err(|e| format!("cannot resolve workspace manifest: {e}"))?;
    let out = std::process::Command::new("cargo")
        .args(["run", "--release", "-q", "--manifest-path"])
        .arg(manifest)
        .args(["-p", "smtsim-bench", "--bin", "spec"])
        .env("SMTSIM_SPEC", &fixture)
        .output()
        .map_err(|e| format!("cannot spawn cargo for spec: {e}"))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    if out.status.code() != Some(2) {
        return Err(format!(
            "spec bin on the malformed fixture exited with {:?}, expected 2:\n{stderr}",
            out.status.code()
        ));
    }
    if !stderr.contains("budgett") {
        return Err(format!(
            "spec bin's error does not name the offending key `budgett`:\n{stderr}"
        ));
    }
    Ok(())
}

/// The `determinism` subcommand: byte-compares serial vs. 4-way
/// parallel output of one FT figure, one DoD histogram, the accuracy
/// table and the structured-trace episode summary (the figure kinds
/// the sweep engine feeds, plus the traced sweep variant), the model
/// checker's report and the trace oracles' `conform` report. The
/// [`GOLDEN_BINS`] outputs are additionally pinned against the
/// committed golden files in `tests/golden/` (skipped when the budget
/// knobs are overridden in the environment, since the goldens are
/// recorded at the default CI-scale settings); `--bless` rewrites the
/// goldens instead.
fn run_determinism(root: &Path, bless: bool) -> ExitCode {
    let mut failed = false;
    // Goldens are only valid at the recorded knob values.
    let knobs_default = DETERMINISM_DEFAULTS
        .iter()
        .chain([&("SEED", ""), &("ST_BUDGET", "")])
        .all(|(k, _)| std::env::var_os(k).is_none());
    for id in ["fig2", "fig1", "accuracy", "trace", "check", "conform"] {
        let label = format!("determinism: {id}");
        let Some(serial) = jobs_1_and_4(root, &label, id, DETERMINISM_DEFAULTS) else {
            // The leg already fails; its golden and no-skip comparisons
            // would add nothing.
            failed = true;
            continue;
        };
        if let Some(&(_, golden)) = GOLDEN_BINS.iter().find(|&&(b, _)| b == id) {
            if knobs_default {
                if check_golden(root, id, golden, &serial, bless).is_err() {
                    failed = true;
                }
            } else {
                println!("xtask determinism: {id}: golden comparison skipped (knobs overridden)");
            }
        }
        // Cycle skipping is defined to be timing-transparent
        // (DESIGN.md §15): a fast-forwarded quiet stretch must leave
        // the machine in exactly the state the cycle-by-cycle loop
        // would have reached. Pin that with a third fig2 leg run under
        // `SMTSIM_NO_SKIP=1` and byte-compared against the default.
        if id == "fig2" {
            match run_bench_bin(
                root,
                id,
                1,
                DETERMINISM_DEFAULTS,
                &[("SMTSIM_NO_SKIP", "1")],
            ) {
                Ok(noskip) if noskip == serial => {
                    println!("xtask determinism: {id}: identical with SMTSIM_NO_SKIP=1");
                }
                Ok(noskip) => {
                    failed = true;
                    eprintln!(
                        "xtask determinism: {id}: OUTPUT DIFFERS with SMTSIM_NO_SKIP=1 \
                         (cycle skipping is not timing-transparent)"
                    );
                    report_first_divergence("skip", &serial, "no-skip", &noskip);
                }
                Err(e) => {
                    eprintln!("xtask determinism: {e}");
                    failed = true;
                }
            }
        }
    }
    match check_malformed_spec(root) {
        Ok(()) => {
            println!("xtask determinism: spec: malformed fixture exits 2 naming the key");
        }
        Err(e) => {
            failed = true;
            eprintln!("xtask determinism: {e}");
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Knob defaults for the `conform` subcommand: both trace oracles on
/// three mixes at a small budget plus a bounded fresh-fuzz smoke (from
/// the default `FUZZ_SEED`), sized to keep both job-count runs under a
/// minute together.
const CONFORM_DEFAULTS: &[(&str, &str)] = &[
    ("BUDGET", "4000"),
    ("WARMUP", "2000"),
    ("MIXES", "1,2,9"),
    ("FUZZ_CASES", "2"),
];

/// The `conform` subcommand: runs the trace-oracle spec (differential
/// and protocol monitor) at `SMTSIM_JOBS=1` and `SMTSIM_JOBS=4` and
/// fails unless (a) both runs
/// pass and (b) their stdout is byte-identical — the acceptance
/// criterion that the fuzzer's generated programs and verdicts are a
/// pure function of `FUZZ_SEED`, independent of worker count — then
/// runs the mutation self-test on both sides of the `seeded-dod-bug`
/// feature.
fn run_conform(root: &Path) -> ExitCode {
    let Some(report) = jobs_1_and_4(root, "conform", "conform", CONFORM_DEFAULTS) else {
        return ExitCode::FAILURE;
    };
    print!("{report}");
    run_mutation_selftest(root, "conform", "smtsim-conform", "seeded-dod-bug")
}

/// Knob defaults for the `check` subcommand: the model checker at its
/// CI bounds (every scheme family × release policy, exhaustively).
const CHECK_DEFAULTS: &[(&str, &str)] = &[("CHECK_THREADS", "3"), ("CHECK_L2", "2")];

/// Runs `package`'s `mutation` test target on both sides of its
/// seeded-bug `feature`. Both sides must pass as cargo tests: the
/// pristine side asserts the oracle finds nothing, the seeded side
/// asserts it catches the planted bug — so an oracle that silently
/// stopped checking fails here.
fn run_mutation_selftest(root: &Path, label: &str, package: &str, feature: &str) -> ExitCode {
    for seeded in [false, true] {
        let mut cmd = std::process::Command::new("cargo");
        cmd.args(["test", "-q", "--manifest-path"])
            .arg(root.join("Cargo.toml"))
            .args(["-p", package, "--test", "mutation"]);
        if seeded {
            cmd.args(["--features", feature]);
        }
        let failure = match cmd.output() {
            Ok(out) if out.status.success() => continue,
            Ok(out) => format!(
                "failed with {}:\n{}{}",
                out.status,
                String::from_utf8_lossy(&out.stdout),
                String::from_utf8_lossy(&out.stderr)
            ),
            Err(e) => format!("cannot spawn cargo test: {e}"),
        };
        eprintln!("xtask {label}: mutation self-test (seeded={seeded}) {failure}");
        return ExitCode::FAILURE;
    }
    println!("xtask {label}: mutation self-test passed (pristine clean, seeded bug caught)");
    ExitCode::SUCCESS
}

/// The `check` subcommand: runs the bounded model checker spec at
/// `SMTSIM_JOBS=1` and `4` and fails unless both runs pass with
/// byte-identical stdout (the checker's report — state counts and
/// counterexamples — must be a pure function of its knobs), then runs
/// the mutation self-test on both sides of the `seeded-release-bug`
/// feature.
fn run_check(root: &Path) -> ExitCode {
    let Some(report) = jobs_1_and_4(root, "check", "check", CHECK_DEFAULTS) else {
        return ExitCode::FAILURE;
    };
    print!("{report}");
    run_mutation_selftest(root, "check", "smtsim-check", "seeded-release-bug")
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().unwrap_or_default();
    // `--root` serves the self-tests and lets CI lint a checkout from
    // anywhere; default is the manifest's parent (the workspace root).
    let mut root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..");
    let mut rest = Vec::new();
    while let Some(a) = args.next() {
        if a == "--root" {
            match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("xtask: --root requires a value");
                    return ExitCode::from(2);
                }
            }
        } else {
            rest.push(a);
        }
    }
    match cmd.as_str() {
        "lint" if rest.is_empty() => {
            let violations = run_lints(&root);
            for v in &violations {
                println!("{v}");
            }
            if violations.is_empty() {
                println!("xtask lint: clean");
                ExitCode::SUCCESS
            } else {
                eprintln!("xtask lint: {} violation(s)", violations.len());
                ExitCode::FAILURE
            }
        }
        "determinism" if rest.is_empty() => run_determinism(&root, false),
        "determinism" if rest == ["--bless"] => run_determinism(&root, true),
        "conform" if rest.is_empty() => run_conform(&root),
        "check" if rest.is_empty() => run_check(&root),
        _ => {
            eprintln!(
                "usage: cargo xtask <lint|determinism [--bless]|conform|check> [--root PATH]"
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("fixtures/seeded-violation")
    }

    fn repo_root() -> PathBuf {
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
    }

    #[test]
    fn seeded_hashmap_violation_fails() {
        // The fixture plants a HashMap iteration in a report-output
        // path; the lint must refuse it.
        let violations = run_lints(&fixture_root());
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "hash-collections"
                    && v.file.ends_with("crates/core/src/report.rs")),
            "expected a hash-collections violation, got: {violations:?}"
        );
    }

    #[test]
    fn seeded_unwrap_and_cast_violations_fail() {
        let violations = run_lints(&fixture_root());
        assert!(violations
            .iter()
            .any(|v| v.rule == "unwrap-in-pipeline"
                && v.file.ends_with("crates/pipeline/src/stages.rs")));
        assert!(violations
            .iter()
            .any(|v| v.rule == "lossy-cast-in-stats"
                && v.file.ends_with("crates/pipeline/src/stats.rs")));
    }

    #[test]
    fn seeded_env_read_violation_fails() {
        // The fixture plants a bare `env::var` knob read in a figure
        // bin; the lint must refuse it — while the designated funnel
        // file `crates/core/src/knobs.rs` stays exempt.
        let violations = run_lints(&fixture_root());
        assert!(
            violations
                .iter()
                .any(|v| v.rule == "env-read-outside-benchenv"
                    && v.file.ends_with("crates/bench/src/bin/figx.rs")),
            "expected an env-read violation, got: {violations:?}"
        );
        assert!(
            !violations
                .iter()
                .any(|v| v.file.ends_with("crates/core/src/knobs.rs")),
            "the knob-table funnel itself must be exempt: {violations:?}"
        );
    }

    #[test]
    fn seeded_wall_clock_violations_fail() {
        // The fixture plants `Instant` and `SystemTime` reads in core
        // simulator code; the lint must refuse both.
        let violations = run_lints(&fixture_root());
        let wall: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == "wall-clock-in-sim")
            .collect();
        assert!(
            wall.len() >= 2
                && wall
                    .iter()
                    .all(|v| v.file.ends_with("crates/core/src/timer.rs")),
            "expected both timer.rs wall-clock violations, got: {wall:?}"
        );
    }

    #[test]
    fn stale_allow_markers_fail_hard() {
        // The fixture plants an allow-wall-clock marker over pure code
        // and a same-line allow-unwrap over a plain literal; both must
        // be refused as stale.
        let violations = run_lints(&fixture_root());
        let stale: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == "stale-allow-marker")
            .collect();
        assert_eq!(
            stale.len(),
            2,
            "expected exactly the two stale.rs markers, got: {stale:?}"
        );
        assert!(stale
            .iter()
            .all(|v| v.file.ends_with("crates/core/src/stale.rs")));
    }

    #[test]
    fn seeded_scheme_wiring_violation_fails() {
        // The fixture plants inline RobConfig/TwoLevelConfig
        // constructions in a bench bin and in the core figure module;
        // the lint must refuse the bare ones and accept the annotated
        // one.
        let violations = run_lints(&fixture_root());
        let wiring: Vec<_> = violations
            .iter()
            .filter(|v| v.rule == "scheme-wiring-outside-registry")
            .collect();
        assert_eq!(
            wiring.len(),
            3,
            "expected the two bare hardwired.rs constructions and the figures.rs one, \
             got: {wiring:?}"
        );
        assert!(wiring.iter().all(|v| {
            v.file.ends_with("crates/bench/src/bin/hardwired.rs")
                || v.file.ends_with("crates/core/src/figures.rs")
        }));
        // Core outside `figures.rs` is out of scope: the registry
        // itself constructs configs.
        assert!(!violations.iter().any(|v| {
            v.rule == "scheme-wiring-outside-registry"
                && v.file.to_string_lossy().contains("crates/core/")
                && !v.file.ends_with("crates/core/src/figures.rs")
        }));
    }

    #[test]
    fn wall_clock_token_matching_is_word_bounded() {
        assert!(has_wall_clock("let t = std::time::Instant::now();"));
        assert!(has_wall_clock("SystemTime::now()"));
        assert!(!has_wall_clock("mix.instantiate(seed)"));
        assert!(!has_wall_clock("fn InstantiatesNothing() {}"));
        assert!(!has_wall_clock("let my_Instant_like = 3;"));
    }

    #[test]
    fn fixture_allowed_lines_are_clean() {
        // The fixture also contains annotated lines and test-module
        // lines that must NOT fire.
        let violations = run_lints(&fixture_root());
        for v in &violations {
            assert!(
                !v.file.ends_with("crates/core/src/allowed.rs"),
                "annotated/test code flagged: {v}"
            );
        }
    }

    #[test]
    fn real_workspace_is_clean() {
        let violations = run_lints(&repo_root());
        assert!(
            violations.is_empty(),
            "workspace has lint violations:\n{}",
            violations
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn golden_bless_then_match_then_drift() {
        // Round-trip the golden machinery against a scratch root:
        // bless records the output, an identical rerun matches, and a
        // one-byte drift is refused.
        let root = repo_root().join("target/xtask-golden-selftest");
        let _ = std::fs::remove_dir_all(&root);
        let out = "line one\nline two\n";
        assert!(check_golden(&root, "trace", "episodes.txt", out, true).is_ok());
        assert!(check_golden(&root, "trace", "episodes.txt", out, false).is_ok());
        let drifted = "line one\nline 2wo\n";
        assert!(check_golden(&root, "trace", "episodes.txt", drifted, false).is_err());
        // A missing golden is an error (with a --bless hint), not a
        // silent pass.
        assert!(check_golden(&root, "accuracy", "accuracy.txt", out, false).is_err());
    }

    #[test]
    fn comment_mentions_do_not_fire() {
        assert_eq!(code_of("let x = 1; // HashMap is banned"), "let x = 1; ");
        assert_eq!(code_of("/// HashMap docs"), "");
    }

    #[test]
    fn test_module_detection() {
        let lines = vec!["fn a() {}", "#[cfg(test)]", "mod tests {}"];
        assert_eq!(test_code_start(&lines), 1);
        let no_tests = vec!["fn a() {}"];
        assert_eq!(test_code_start(&no_tests), 1);
    }
}
