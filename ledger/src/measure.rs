//! Measuring one workload.
//!
//! End-to-end numbers come from child processes of this binary, timed
//! from spawn to exit (offline) or from request to end of response
//! (serve), with nothing traced. Afterwards a separate traced pass
//! (`ledger child trace`) gives the per-layer numbers and renders the
//! outputs once more. Every output byte of every rep is checked: against
//! the committed bytes, and for the serve misses against the traced
//! pass's render of the same single-cell spec.

use crate::child::RSS_PREFIX;
use crate::client::{self, Exchange, Expect, Submitted};
use crate::clock::Stamp;
use crate::json::{parse_json, Json};
use crate::plan::{self, MissCell};
use crate::stats::median;
use crate::workload::{RepKind, Workload, SUITE_FILES};
use smtsim_bench::serve_support;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

/// `ledger child setup` launches before each timed offline rep. They
/// are spread over the run, after the warm-up rep, because the first
/// launches after an idle spell run up to twice as long.
pub const SETUP_PER_REP: usize = 10;

/// Warm restarts after each daemon rep.
pub const RESTARTS_PER_REP: usize = 5;

/// Cells of Figure 2 (11 mixes × 3 schemes).
const FIG2_CELLS: u64 = 33;

/// How long a daemon may take to answer its first ping or to exit.
const DAEMON_PATIENCE: Duration = Duration::from_secs(60);

/// How much of a workload one measurement runs.
#[derive(Clone, Copy, Debug)]
pub enum Length {
    /// A fixed number of timed reps (daemon reps for serve workloads,
    /// each with the workload's request count).
    Reps(usize),
    /// Timed reps until this many seconds have passed (at least one).
    Seconds(f64),
}

/// Where and how children run.
#[derive(Clone, Debug)]
pub struct Context {
    /// This binary.
    pub exe: PathBuf,
    /// Scratch root (`target/ledger` in the source tree).
    pub work: PathBuf,
    /// Workload seed.
    pub seed: u64,
}

/// Output name → bytes.
pub type Outputs = BTreeMap<String, String>;

/// The traced pass's report, parsed.
#[derive(Clone, Debug)]
pub struct Trace {
    /// The raw JSON report (spans included), written as the trace file.
    pub raw: String,
    /// Per-layer metrics.
    pub metrics: BTreeMap<String, f64>,
    /// Renders, name → bytes.
    pub renders: Outputs,
    /// Self time per layer, ns.
    pub self_ns: BTreeMap<String, u64>,
}

/// Everything one measurement produced.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// The workload.
    pub workload: &'static Workload,
    /// Its seed.
    pub seed: u64,
    /// Samples per end-to-end metric.
    pub samples: BTreeMap<&'static str, Vec<f64>>,
    /// Per-layer values.
    pub layers: BTreeMap<String, f64>,
    /// Operations attempted: child launches, daemon requests and traced
    /// passes.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Why they failed (one line per distinct failure).
    pub failures: Vec<String>,
    /// The traced pass, when one ran.
    pub trace: Option<Trace>,
}

impl Outcome {
    fn new(workload: &'static Workload, seed: u64) -> Outcome {
        Outcome {
            workload,
            seed,
            samples: BTreeMap::new(),
            layers: BTreeMap::new(),
            attempted: 0,
            failed: 0,
            failures: Vec::new(),
            trace: None,
        }
    }

    fn sample(&mut self, metric: &'static str, v: f64) {
        self.samples.entry(metric).or_default().push(v);
    }

    fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    /// `n` operations failed the same way.
    fn fail_n(&mut self, n: usize, why: &str) {
        self.failed += n as u64;
        self.failures.push(format!("{n} {why}"));
    }
}

fn fresh_dir(p: &Path) -> PathBuf {
    let _ = fs::remove_dir_all(p);
    let _ = fs::create_dir_all(p);
    p.to_path_buf()
}

/// `p` relative to the current directory when it lies below it — Unix
/// socket paths are limited to about a hundred bytes.
fn short(p: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| p.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .unwrap_or_else(|| p.to_path_buf())
}

/// A child of this binary with exactly the workload's environment.
fn child(ctx: &Context, w: &Workload, args: &[&str], cwd: &Path) -> Command {
    let mut c = Command::new(&ctx.exe);
    c.arg("child")
        .args(args)
        .env_clear()
        .envs(w.env())
        .current_dir(cwd)
        .stdin(Stdio::null());
    c
}

fn rss_kb(stderr: &str) -> Option<u64> {
    stderr
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(RSS_PREFIX))
        .and_then(|v| v.trim().parse().ok())
}

/// The first difference between `got` and `want`, if any.
#[must_use]
fn mismatch(got: &Outputs, want: &Outputs) -> Option<String> {
    for (name, w) in want {
        let Some(g) = got.get(name) else {
            return Some(format!("{name}: missing"));
        };
        if g != w {
            let line = g
                .lines()
                .zip(w.lines())
                .position(|(a, b)| a != b)
                .unwrap_or_else(|| g.lines().count().min(w.lines().count()));
            return Some(format!("{name}: bytes differ from line {}", line + 1));
        }
    }
    got.keys()
        .find(|k| !want.contains_key(*k))
        .map(|k| format!("{k}: unexpected output"))
}

/// The committed outputs of `w` (none for the serve misses).
fn committed(w: &Workload) -> Result<Outputs, String> {
    w.expected_paths()
        .into_iter()
        .map(|(name, p)| {
            fs::read_to_string(&p)
                .map(|t| (name, t))
                .map_err(|e| format!("cannot read expected output {}: {e}", p.display()))
        })
        .collect()
}

/// Runs the traced pass over `specs` in a child.
fn traced(
    ctx: &Context,
    w: &Workload,
    specs: &[PathBuf],
    deep: bool,
    dir: &Path,
) -> Result<Trace, String> {
    let scratch = dir.to_string_lossy().into_owned();
    let mut args: Vec<String> = vec!["trace".into(), "--scratch".into(), scratch];
    if deep {
        args.push("--deep".into());
    }
    args.extend(specs.iter().map(|p| p.to_string_lossy().into_owned()));
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let out = child(ctx, w, &args, dir)
        .output()
        .map_err(|e| format!("cannot run the traced pass: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "traced pass failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    let raw = String::from_utf8_lossy(&out.stdout).trim().to_string();
    parse_trace(raw)
}

/// Parses a traced-pass report; its own failures become an error.
fn parse_trace(raw: String) -> Result<Trace, String> {
    let v = parse_json(&raw).map_err(|e| format!("unparseable traced-pass report: {e}"))?;
    if let Some(f) = v
        .get("failures")
        .and_then(Json::as_arr)
        .and_then(|a| a.first())
    {
        return Err(format!("traced pass: {}", f.as_str().unwrap_or("failure")));
    }
    let obj = |k: &str| match v.get(k) {
        Some(Json::Obj(m)) => Ok(m.clone()),
        _ => Err(format!("traced-pass report lacks {k}")),
    };
    let metrics = obj("metrics")?
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_f64()?)))
        .collect();
    let renders = obj("renders")?
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_str()?.to_string())))
        .collect();
    let self_ns = obj("self_ns")?
        .into_iter()
        .filter_map(|(k, v)| Some((k, v.as_u64()?)))
        .collect();
    Ok(Trace {
        raw,
        metrics,
        renders,
        self_ns,
    })
}

/// One timed offline rep.
struct Rep {
    wall: Duration,
    rss_kb: Option<u64>,
    outputs: Outputs,
}

fn offline_rep(ctx: &Context, w: &Workload, dir: &Path) -> Result<Rep, String> {
    let spec = w.spec.path();
    let results = dir.join("results");
    let _ = fs::remove_dir_all(&results);
    let t0 = Stamp::now();
    let out = child(ctx, w, &["spec", &spec.to_string_lossy()], dir)
        .output()
        .map_err(|e| format!("cannot launch the spec child: {e}"))?;
    let wall = t0.elapsed();
    let stderr = String::from_utf8_lossy(&out.stderr);
    if !out.status.success() {
        return Err(format!(
            "spec child exited {}: {}",
            out.status,
            stderr.trim()
        ));
    }
    if let Some(l) = stderr
        .lines()
        .find(|l| l.starts_with("error") || l.starts_with("warning") || l.contains("failed:"))
    {
        return Err(format!("spec child reported: {l}"));
    }
    let mut outputs = Outputs::new();
    if w.kind == RepKind::Suite {
        for id in SUITE_FILES {
            let p = results.join(format!("{id}.txt"));
            let text = fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()))?;
            outputs.insert(id.to_string(), text);
        }
    } else {
        let stem = spec
            .file_stem()
            .map_or_else(String::new, |s| s.to_string_lossy().into_owned());
        outputs.insert(stem, String::from_utf8_lossy(&out.stdout).into_owned());
    }
    if let Some((name, _)) = outputs.iter().find(|(_, t)| t.contains("n/a")) {
        return Err(format!("{name} has n/a cells"));
    }
    Ok(Rep {
        wall,
        rss_kb: rss_kb(&stderr),
        outputs,
    })
}

fn keep_going(len: Length, done: usize, t0: Stamp) -> bool {
    match len {
        Length::Reps(n) => done < n,
        Length::Seconds(s) => done == 0 || t0.elapsed().as_secs_f64() < s,
    }
}

fn offline(ctx: &Context, w: &'static Workload, len: Length, trace: bool) -> Outcome {
    let mut o = Outcome::new(w, ctx.seed);
    let dir = fresh_dir(&ctx.work.join("work").join(w.name));
    let spec = w.spec.path();
    let setup = |o: &mut Outcome| {
        for _ in 0..SETUP_PER_REP {
            o.attempted += 1;
            let t0 = Stamp::now();
            let out = child(ctx, w, &["setup", &spec.to_string_lossy()], &dir).output();
            let secs = t0.elapsed().as_secs_f64();
            match out {
                Ok(out) if out.status.success() => o.sample("setup_s", secs),
                Ok(out) => o.fail(format!(
                    "setup child exited {}: {}",
                    out.status,
                    String::from_utf8_lossy(&out.stderr).trim()
                )),
                Err(e) => o.fail(format!("cannot launch the setup child: {e}")),
            }
        }
    };

    // Unreadable expected bytes fail every rep ("unexpected output").
    let reference = committed(w).unwrap_or_else(|e| {
        o.fail(e);
        Outputs::new()
    });
    let run_rep = |o: &mut Outcome, timed: bool| {
        o.attempted += 1;
        let rep = match offline_rep(ctx, w, &dir) {
            Ok(r) => r,
            Err(e) => return o.fail(e),
        };
        if let Some(m) = mismatch(&rep.outputs, &reference) {
            return o.fail(format!("output mismatch: {m}"));
        }
        let Some(kb) = rep.rss_kb else {
            return o.fail("spec child did not report its peak RSS".into());
        };
        if timed {
            o.sample("p50_ms", rep.wall.as_secs_f64() * 1e3);
            o.sample("peak_rss_mb", kb as f64 / 1024.0);
        }
    };
    run_rep(&mut o, false);
    let t0 = Stamp::now();
    let mut done = 0;
    while keep_going(len, done, t0) {
        setup(&mut o);
        run_rep(&mut o, true);
        done += 1;
    }

    if trace {
        o.attempted += 1;
        match traced(ctx, w, &[spec], true, &dir) {
            Ok(t) => {
                if let Some(m) = mismatch(&t.renders, &reference) {
                    o.fail(format!(
                        "traced render differs from the end-to-end output: {m}"
                    ));
                }
                let e2e_ms = median(o.samples.get("p50_ms").map_or(&[][..], Vec::as_slice));
                finish_layers(&mut o, &t, e2e_ms);
                o.trace = Some(t);
            }
            Err(e) => o.fail(e),
        }
    }
    o
}

/// Copies the traced pass's metrics into the layer table and derives
/// the tracing overhead against `e2e_ms`, the untraced wall time of the
/// same work.
fn finish_layers(o: &mut Outcome, t: &Trace, e2e_ms: f64) {
    for (k, v) in &t.metrics {
        o.layers.insert(k.clone(), *v);
    }
    if let Some(replay) = t.metrics.get("ledger.replay_ms") {
        o.layers
            .insert("ledger.trace_overhead_frac".into(), replay / e2e_ms - 1.0);
    }
}

/// A daemon child; dropping it kills the process if it still runs and
/// always reaps it.
struct Daemon {
    child: Child,
    socket: PathBuf,
    stderr: PathBuf,
}

impl Daemon {
    fn spawn(
        ctx: &Context,
        w: &Workload,
        dir: &Path,
        cache: &str,
        tag: usize,
    ) -> Result<Daemon, String> {
        let stderr = dir.join(format!("daemon-{tag}.err"));
        let file = fs::File::create(&stderr).map_err(|e| format!("{}: {e}", stderr.display()))?;
        let socket = dir.join("s.sock");
        let _ = fs::remove_file(&socket);
        let child = child(ctx, w, &["serve"], dir)
            .env("SMTSIM_SERVE_SOCKET", "s.sock")
            .env("SMTSIM_SERVE_CACHE", cache)
            .stdout(Stdio::null())
            .stderr(file)
            .spawn()
            .map_err(|e| format!("cannot launch the daemon: {e}"))?;
        Ok(Daemon {
            child,
            socket: short(&socket),
            stderr,
        })
    }

    /// Drains and stops the daemon; returns its peak RSS in kB.
    fn stop(mut self) -> Result<u64, String> {
        client::shutdown(&self.socket)?;
        let t0 = Stamp::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("daemon exited {status}")),
                Ok(None) if t0.elapsed() < DAEMON_PATIENCE => {
                    std::thread::sleep(Duration::from_millis(1));
                }
                Ok(None) => return Err("daemon did not exit after shutdown".into()),
                Err(e) => return Err(e.to_string()),
            }
        }
        let text = fs::read_to_string(&self.stderr).unwrap_or_default();
        rss_kb(&text).ok_or_else(|| "daemon did not report its peak RSS".to_string())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Line timings of checked submits, per metric.
#[derive(Default)]
struct Timings(BTreeMap<&'static str, Vec<f64>>);

impl Timings {
    fn add(&mut self, key: &'static str, v: f64) {
        self.0.entry(key).or_default().push(v);
    }

    fn record(&mut self, s: &Submitted, ex: &Exchange, cells: u64, hit: bool) {
        let ms = |d: Duration| d.as_secs_f64() * 1e3;
        self.add("serve.accept_ms", ms(s.accept));
        self.add("serve.first_cell_ms", ms(s.first_cell));
        self.add("serve.done_ms", ms(s.done.saturating_sub(s.last_cell)));
        self.add("serve.response_kb", ex.bytes as f64 / 1024.0);
        if hit && cells > 1 {
            let gap = s.last_cell.saturating_sub(s.first_cell).as_secs_f64() * 1e6;
            self.add("serve.hit_cell_gap_us", gap / (cells - 1) as f64);
        }
        if !hit {
            self.add(
                "serve.miss_cell_ms",
                ms(s.first_cell.saturating_sub(s.accept)),
            );
        }
    }
}

/// The `sweep health` footer a served figure carries.
fn footer(cells: u64) -> String {
    format!("sweep health: {cells} ok (0 retried), 0 timed out, 0 failed\n")
}

/// What the serve reps collected for the final byte checks.
#[derive(Default)]
struct Served {
    /// Daemon reps run.
    reps: usize,
    /// Distinct figures of computed or replayed `fig2` submits → count.
    fig2: BTreeMap<String, usize>,
    /// Every miss with the rep that served it and its figure.
    misses: Vec<(usize, MissCell, String)>,
    /// The daemons' counters, summed over reps.
    counters: BTreeMap<String, u64>,
    timings: Timings,
    cold_ms: Vec<f64>,
    /// Summed latency of every miss, warm-up included.
    miss_ms_total: f64,
}

/// One daemon rep on a fresh cache: the untimed warm-up, the timed
/// requests, counters, shutdown, then warm restarts over the populated
/// cache.
fn serve_rep(ctx: &Context, w: &Workload, dir: &Path, o: &mut Outcome, served: &mut Served) {
    let rep = served.reps;
    served.reps += 1;
    let mut plan = plan::miss_plan(ctx.seed, rep).into_iter();
    let cache = format!("cache-{rep}");
    let _ = fs::remove_dir_all(dir.join(&cache));
    o.attempted += 1;
    let daemon = match Daemon::spawn(ctx, w, dir, &cache, rep) {
        Ok(d) => d,
        Err(e) => return o.fail(e),
    };
    if let Err(e) = client::wait_pong(&daemon.socket, DAEMON_PATIENCE) {
        return o.fail(e);
    }
    let fig2 = serve_support::submit_registry("fig2");
    // One request, checked; its figure is kept for the byte checks.
    let mut request = |o: &mut Outcome, served: &mut Served, timed: bool, cold: bool| {
        o.attempted += 1;
        let (text, expect, miss) = if w.kind == RepKind::ServeHit {
            let expect = Expect {
                cells: FIG2_CELLS,
                cached: !cold,
            };
            (fig2.clone(), expect, None)
        } else {
            let Some(cell) = plan.next() else {
                return o.fail("the miss plan ran out of cells".into());
            };
            let expect = Expect {
                cells: 1,
                cached: false,
            };
            (
                serve_support::submit_inline(&cell.spec_toml()),
                expect,
                Some(cell),
            )
        };
        let checked = Exchange::run(&daemon.socket, &text)
            .map_err(|e| e.to_string())
            .and_then(|ex| client::check_submit(&ex, expect).map(|s| (ex, s)));
        match checked {
            Ok((ex, s)) => {
                let ms = ex.total.as_secs_f64() * 1e3;
                if miss.is_some() {
                    served.miss_ms_total += ms;
                }
                if cold {
                    served.cold_ms.push(ms);
                } else if timed {
                    o.sample("p50_ms", ms);
                    served.timings.record(&s, &ex, expect.cells, miss.is_none());
                }
                match miss {
                    Some(cell) => served.misses.push((rep, cell, s.figure)),
                    None => *served.fig2.entry(s.figure).or_default() += 1,
                }
            }
            Err(e) => o.fail(format!("request: {e}")),
        }
    };
    // Untimed warm-up: the cold `fig2` submit computes every cell; the
    // first miss also runs the mix's normalization.
    request(o, served, false, w.kind == RepKind::ServeHit);
    for _ in 0..w.requests {
        request(o, served, true, false);
    }

    match client::counters(&daemon.socket) {
        Ok(cs) => {
            for (k, v) in cs {
                *served.counters.entry(k).or_default() += v;
            }
        }
        Err(e) => o.fail(format!("metrics: {e}")),
    }
    match daemon.stop() {
        Ok(kb) => o.sample("peak_rss_mb", kb as f64 / 1024.0),
        Err(e) => return o.fail(e),
    }

    for i in 0..RESTARTS_PER_REP {
        o.attempted += 1;
        let t0 = Stamp::now();
        let daemon = match Daemon::spawn(ctx, w, dir, &cache, 1000 + i) {
            Ok(d) => d,
            Err(e) => {
                o.fail(e);
                continue;
            }
        };
        match client::wait_pong(&daemon.socket, DAEMON_PATIENCE) {
            Ok(()) => o.sample("setup_s", t0.elapsed().as_secs_f64()),
            Err(e) => {
                o.fail(e);
                continue;
            }
        }
        if let Err(e) = daemon.stop() {
            o.fail(format!("restart {i}: {e}"));
        }
    }
}

/// Writes the served misses as spec files for the traced pass, one
/// directory per daemon rep (the replay carries phase-1 tables only
/// between specs of one directory, as one daemon does).
fn miss_specs(dir: &Path, served: &Served) -> Vec<PathBuf> {
    let root = fresh_dir(&dir.join("miss-specs"));
    served
        .misses
        .iter()
        .map(|(rep, cell, _)| {
            let d = root.join(format!("rep-{rep}"));
            let _ = fs::create_dir_all(&d);
            let p = d.join(format!("{}.toml", cell.id()));
            let _ = fs::write(&p, cell.spec_toml());
            p
        })
        .collect()
}

fn serve(ctx: &Context, w: &'static Workload, len: Length, trace: bool) -> Outcome {
    let mut o = Outcome::new(w, ctx.seed);
    let dir = fresh_dir(&ctx.work.join("work").join(w.name));
    let mut served = Served::default();
    let t0 = Stamp::now();
    while keep_going(len, served.reps, t0) {
        serve_rep(ctx, w, &dir, &mut o, &mut served);
    }
    for ms in &served.cold_ms {
        o.sample("cold_fig2_s", ms / 1e3);
    }

    // The bytes every served figure must equal, before the footer of a
    // clean sweep: the committed Figure 2 for the hits, the traced
    // pass's render of the same single-cell spec for a miss.
    let committed_fig2 = committed(w)
        .unwrap_or_else(|e| {
            o.fail(e);
            Outputs::new()
        })
        .remove("fig2");
    let specs = match w.kind {
        RepKind::ServeHit => vec![w.spec.path()],
        _ => miss_specs(&dir, &served),
    };
    let replay = if (trace || w.kind == RepKind::ServeMiss) && !specs.is_empty() {
        o.attempted += 1;
        match traced(ctx, w, &specs, trace, &dir) {
            Ok(t) => Some(t),
            Err(e) => {
                o.fail(e);
                None
            }
        }
    } else {
        None
    };
    let render = |name: &str| replay.as_ref().and_then(|t| t.renders.get(name).cloned());
    let want_fig2 = committed_fig2
        .as_ref()
        .map(|c| format!("{c}{}", footer(FIG2_CELLS)));
    for (fig, &n) in &served.fig2 {
        if want_fig2.as_ref() != Some(fig) {
            o.fail_n(n, "fig2 response(s) differ from results/fig2.txt");
        }
    }
    if let (Some(c), Some(r)) = (&committed_fig2, render("fig2")) {
        if *c != r {
            o.fail("traced fig2 render differs from results/fig2.txt".into());
        }
    }
    for (_, cell, fig) in &served.misses {
        match render(&cell.id()) {
            Some(r) if format!("{r}{}", footer(1)) == *fig => {}
            Some(_) => o.fail(format!("{} differs from its offline render", cell.id())),
            None => o.fail(format!("{} has no offline render", cell.id())),
        }
    }

    // Per-layer numbers: the traced pass, the client's line timings and
    // the daemon's counters (per daemon rep).
    if trace {
        if let Some(t) = &replay {
            // The untraced wall time of the replayed work: the cold
            // submit, or every miss.
            let e2e_ms = match w.kind {
                RepKind::ServeHit => median(&served.cold_ms),
                _ => served.miss_ms_total,
            };
            finish_layers(&mut o, t, e2e_ms);
        }
        for (k, v) in &served.timings.0 {
            o.layers.insert((*k).to_string(), median(v));
        }
        for k in [
            "cells_run",
            "cache_hits",
            "cache_misses",
            "inflight_waits",
            "queue_rejections",
            "journal_append_errors",
        ] {
            let v = served
                .counters
                .get(&format!("serve.{k}"))
                .copied()
                .unwrap_or(0);
            o.layers
                .insert(format!("serve.{k}"), v as f64 / served.reps.max(1) as f64);
        }
        o.trace = replay;
    }
    o
}

/// Measures `w`.
#[must_use]
pub fn measure(ctx: &Context, w: &'static Workload, len: Length, trace: bool) -> Outcome {
    let mut o = if w.kind.is_serve() {
        serve(ctx, w, len, trace)
    } else {
        offline(ctx, w, len, trace)
    };
    if trace {
        // Every workload reports every per-layer metric; a layer the
        // workload never enters (the daemon, offline) reads 0.
        for m in crate::metrics::LAYERS {
            o.layers.entry(m.name.to_string()).or_insert(0.0);
        }
    }
    o
}
