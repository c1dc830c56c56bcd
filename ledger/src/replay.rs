//! The traced pass: replays a workload's specs in-process through the
//! public entry points of each layer, one span per call, and renders
//! the same bytes the product does.
//!
//! The real path mirrors the spec executor: spec load → lower
//! (`BenchEnv::with_spec` + `lab_for_spec`) → `Lab::norm_table` →
//! `Lab::run_cell` per cell, fanned out over the lab's job count the
//! way the sweep engine does → `report::render_*`. Specs run one after
//! another, as the serve daemon answers a closed-loop client's
//! requests; phase-1 tables of one lab identity carry over between
//! specs of one directory, as one daemon's per-universe warm start
//! does (the serve workloads write one directory per daemon rep). The
//! renders must byte-match the end-to-end output, which proves both
//! passes did the same work, and the real path's wall time against the
//! end-to-end median is the tracing overhead.
//!
//! With `deep` set, the pass then measures what the real path cannot
//! show, on a lab rebuilt from the same lowered spec: every cell runs
//! `Lab::run_cell` once more and, next to it on the same worker, the
//! same cell decomposed into `mix().instantiate` →
//! `DodAnalysis::compute` → `Simulator::builder().build()` (warm-up) →
//! `try_run`. Timing the two back to back keeps machine-speed drift out
//! of their difference. A sample of distinct cells also reruns with
//! cycle skipping off and through the `bench-internals` stage hooks,
//! and the cells' results go through the journal's record / lookup /
//! open calls.
//!
//! Runs inside `ledger child trace`, whose environment holds exactly
//! the workload's knobs, so `BenchEnv::from_env` lowers as the product
//! does.

use crate::clock::Stamp;
use crate::json::{self, Obj};
use crate::span::{self, Recorder};
use smtsim_analysis::{DodAnalysis, L1_WINDOW};
use smtsim_bench::BenchEnv;
use smtsim_pipeline::{DodBounds, SimError, Simulator, StopCondition, DOD_WINDOW};
use smtsim_rob2::journal::cell_key;
use smtsim_rob2::{
    improvement, mean, report, ExperimentSpec, FigureData, HistogramData, Journal, Lab, MixRun,
    NormTable, RobConfig, Series, SpecKind,
};
use smtsim_workload::{mix, Workload};
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Distinct (mix, config) pairs the skip comparison and the stage
/// timings sample, at most.
pub const SAMPLE_PAIRS: usize = 24;

/// Cycles each sampled pair runs through the stage hooks.
pub const STAGE_CYCLES: u64 = 20_000;

/// The kernel stages, in `try_step` order, then the DoD scan.
pub const STAGES: [&str; 7] = [
    "events",
    "commit",
    "issue",
    "dispatch",
    "fetch",
    "cycle_end",
    "dod_scan",
];

/// A spec with the environment it was lowered into: what the deep pass
/// rebuilds an identical lab from.
struct Lowered {
    merged: BenchEnv,
    spec: ExperimentSpec,
}

/// A real-path lab and the index of the spec it was lowered from.
struct SpecLab {
    lab: Lab,
    lowered: usize,
}

/// One sweep's phase-1 table and the spec its lab was lowered from.
struct Sweep {
    lowered: usize,
    table: NormTable,
}

/// One cell the real path ran.
struct CellRun {
    sweep: usize,
    mix: usize,
    config: RobConfig,
    run: Result<MixRun, SimError>,
}

/// Everything the replay accumulates across specs.
#[derive(Default)]
struct State {
    /// Phase-1 tables per lab identity (seed, budgets, warm-up, norm
    /// scheme, machine).
    norm: BTreeMap<String, NormTable>,
    norm_runs: usize,
    lowered: Vec<Lowered>,
    sweeps: Vec<Sweep>,
    cells: Vec<CellRun>,
    /// Phase-2 wall time × workers, summed over sweeps (ns).
    phase2_capacity: u128,
    /// Largest phase-2 worker count used.
    jobs: usize,
    renders: BTreeMap<String, String>,
}

/// What the deep measurements found.
#[derive(Default)]
struct Deep {
    run_cell_ns: u64,
    parts_ns: [u64; 4],
    sim_cycles: u64,
    committed: u64,
    skip_on_ns: u64,
    skip_off_ns: u64,
    stage_ns: [u64; 7],
    stage_cycles: u64,
    clock_ns: f64,
    record_ns: u64,
    lookup_ns: u64,
    open_ns: u64,
    records: u64,
}

fn panic_reason(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` on every item over `jobs` scoped workers pulling from a
/// shared index, returning each result with its start and end stamps,
/// in input order.
fn fan_out<T: Sync, R: Send>(
    jobs: usize,
    items: &[T],
    f: impl Fn(&T) -> R + Sync,
) -> Vec<(R, Stamp, Stamp)> {
    let next = AtomicUsize::new(0);
    let work = || {
        let mut out = Vec::new();
        loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(i) else { break };
            let t0 = Stamp::now();
            let r = f(item);
            out.push((i, (r, t0, Stamp::now())));
        }
        out
    };
    let mut all: Vec<(usize, (R, Stamp, Stamp))> = if jobs <= 1 {
        work()
    } else {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..jobs).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("replay workers catch cell panics"))
                .collect()
        })
    };
    all.sort_by_key(|(i, _)| *i);
    all.into_iter().map(|(_, r)| r).collect()
}

fn lab_identity(lab: &Lab) -> String {
    format!(
        "{}|{}|{}|{}|{:?}",
        lab.seed,
        lab.st_budget,
        lab.warmup,
        lab.norm.fingerprint(),
        lab.machine
    )
}

fn mix_name(m: usize) -> String {
    mix(m).name.to_string()
}

/// The figure layer's one-line failure description.
fn failure_line(mix_name: &str, label: &str, e: &SimError) -> String {
    let msg = e.to_string();
    let first = msg.lines().next().unwrap_or("error");
    format!("{mix_name} / {label}: {first}")
}

fn lower(
    rec: &mut Recorder,
    st: &mut State,
    env: &BenchEnv,
    spec: &ExperimentSpec,
) -> (SpecLab, Vec<usize>) {
    let (merged, lab) = rec.span("bench.lower", |_| {
        let merged = env.with_spec(spec);
        let lab = merged.lab_for_spec(spec);
        (merged, lab)
    });
    let mixes = merged.mixes.clone();
    st.lowered.push(Lowered {
        merged,
        spec: spec.clone(),
    });
    let lowered = st.lowered.len() - 1;
    (SpecLab { lab, lowered }, mixes)
}

/// Phase 1 of a sweep: `Lab::norm_table`, warm-started from the
/// replay's earlier tables for the same lab identity.
fn phase1(rec: &mut Recorder, st: &mut State, lab: &mut Lab, mixes: &[usize]) -> NormTable {
    let identity = lab_identity(lab);
    if let Some(t) = st.norm.get(&identity) {
        lab.seed_norm_cache(t);
    }
    let before = lab.cached_norm_runs();
    let table = rec.span("core.norm_table", |_| lab.norm_table(mixes));
    st.norm_runs += lab.cached_norm_runs() - before;
    match st.norm.get_mut(&identity) {
        Some(t) => t.merge(&table),
        None => {
            st.norm.insert(identity, table.clone());
        }
    }
    table
}

/// A whole sweep on one lab: phase 1, then `Lab::run_cell` per cell
/// over the lab's jobs, panic-isolated like the sweep engine. Results
/// in input order.
fn sweep(
    rec: &mut Recorder,
    st: &mut State,
    sl: &mut SpecLab,
    cells: &[(usize, RobConfig)],
) -> Vec<Result<MixRun, SimError>> {
    let mixes: Vec<usize> = cells.iter().map(|&(m, _)| m).collect();
    let table = phase1(rec, st, &mut sl.lab, &mixes);
    let lab = &sl.lab;
    let jobs = lab.effective_jobs().min(cells.len()).max(1);
    st.jobs = st.jobs.max(jobs);
    let results: Vec<Result<MixRun, SimError>> = rec.span("core.phase2", |rec| {
        let t0 = Stamp::now();
        let ran = fan_out(jobs, cells, |&(m, cfg)| {
            catch_unwind(AssertUnwindSafe(|| lab.run_cell(m, cfg, &table))).unwrap_or_else(|p| {
                Err(SimError::CellPanic {
                    reason: panic_reason(p.as_ref()),
                })
            })
        });
        st.phase2_capacity += t0.elapsed().as_nanos() * jobs as u128;
        ran.into_iter()
            .map(|(run, s, e)| {
                rec.add("core.run_cell", s, e);
                run
            })
            .collect()
    });
    let sweep = st.sweeps.len();
    for (&(mix, config), run) in cells.iter().zip(&results) {
        st.cells.push(CellRun {
            sweep,
            mix,
            config,
            run: run.clone(),
        });
    }
    st.sweeps.push(Sweep {
        lowered: sl.lowered,
        table,
    });
    results
}

/// `figures::ft_sweep` over the replay's sweep: one series per variant,
/// cells in the engine's config-major order.
fn figure(
    rec: &mut Recorder,
    st: &mut State,
    sl: &mut SpecLab,
    title: &str,
    variants: &[(String, RobConfig)],
    mixes: &[usize],
) -> FigureData {
    let cells: Vec<(usize, RobConfig)> = variants
        .iter()
        .flat_map(|&(_, cfg)| mixes.iter().map(move |&m| (m, cfg)))
        .collect();
    let mut results = sweep(rec, st, sl, &cells).into_iter();
    let mut failures = Vec::new();
    let series = variants
        .iter()
        .map(|(label, _)| {
            let points: Vec<(String, Option<f64>)> = mixes
                .iter()
                .map(|&m| match results.next().expect("one result per cell") {
                    Ok(r) => (mix_name(m), Some(r.ft)),
                    Err(e) => {
                        failures.push(failure_line(&mix_name(m), label, &e));
                        (mix_name(m), None)
                    }
                })
                .collect();
            let present: Vec<f64> = points.iter().filter_map(|(_, v)| *v).collect();
            let average = if present.is_empty() {
                f64::NAN
            } else {
                mean(&present)
            };
            Series {
                label: label.clone(),
                points,
                average,
            }
        })
        .collect();
    FigureData {
        title: title.to_string(),
        series,
        failures,
        health: None,
    }
}

/// `figures::dod_figure` over the replay's sweep.
fn histogram(
    rec: &mut Recorder,
    st: &mut State,
    sl: &mut SpecLab,
    title: &str,
    cfg: RobConfig,
    mixes: &[usize],
) -> HistogramData {
    let cells: Vec<(usize, RobConfig)> = mixes.iter().map(|&m| (m, cfg)).collect();
    let mut failures = Vec::new();
    let mut cols = Vec::new();
    for (&m, res) in mixes.iter().zip(sweep(rec, st, sl, &cells)) {
        match res {
            Ok(run) => cols.push((run.mix.clone(), run.stats.dod_at_fill.clone())),
            Err(e) => failures.push(failure_line(&mix_name(m), &cfg.label(), &e)),
        }
    }
    HistogramData {
        title: title.to_string(),
        mixes: cols,
        failures,
        health: None,
    }
}

fn title(spec: &ExperimentSpec) -> &str {
    spec.title.as_deref().unwrap_or(&spec.id)
}

fn variant_pairs(spec: &ExperimentSpec) -> Vec<(String, RobConfig)> {
    spec.variants
        .iter()
        .map(|v| (v.label.clone(), v.config))
        .collect()
}

/// A figure spec on its own lab, as the `spec` bin and the daemon run
/// one.
fn replay_figure(rec: &mut Recorder, st: &mut State, env: &BenchEnv, spec: &ExperimentSpec) {
    let (mut sl, mixes) = lower(rec, st, env, spec);
    let fig = figure(rec, st, &mut sl, title(spec), &variant_pairs(spec), &mixes);
    let text = rec.span("report.render", |_| report::render_figure(&fig));
    st.renders.insert(spec.id.clone(), text);
}

/// The suite runner's loop: every sibling spec on one shared lab, the
/// histogram comparison references memoized by scheme fingerprint.
fn replay_suite(
    rec: &mut Recorder,
    st: &mut State,
    env: &BenchEnv,
    spec: &ExperimentSpec,
    path: &Path,
) -> Result<(), String> {
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    let subs = rec.span("spec.load", |_| {
        spec.specs
            .iter()
            .map(|id| ExperimentSpec::load(&dir.join(format!("{id}.toml"))))
            .collect::<Result<Vec<_>, _>>()
    });
    let subs = subs.map_err(|e| e.to_string())?;
    let (mut sl, mixes) = lower(rec, st, env, spec);
    let mut pooled: BTreeMap<String, f64> = BTreeMap::new();
    for sub in &subs {
        let text = match sub.kind {
            SpecKind::Table1 => {
                rec.span("report.render", |_| report::render_table1(&sl.lab.machine))
            }
            SpecKind::Table2 => rec.span("report.render", |_| report::render_table2()),
            SpecKind::Figure => {
                let fig = figure(rec, st, &mut sl, title(sub), &variant_pairs(sub), &mixes);
                rec.span("report.render", |_| report::render_figure(&fig))
            }
            SpecKind::Histogram => {
                let base = match &sub.compare {
                    Some((cmp, label)) => {
                        let m = match pooled.get(&cmp.config.fingerprint()) {
                            Some(&m) => m,
                            None => {
                                histogram(rec, st, &mut sl, label, cmp.config, &mixes).pooled_mean()
                            }
                        };
                        Some((m, label.clone()))
                    }
                    None => None,
                };
                let cfg = sub.variants[0].config;
                let fig = histogram(rec, st, &mut sl, title(sub), cfg, &mixes);
                pooled.insert(cfg.fingerprint(), fig.pooled_mean());
                rec.span("report.render", |_| {
                    let mut text = report::render_histogram(&fig);
                    if let Some((base, label)) = base {
                        let vs = improvement(fig.pooled_mean(), base)
                            .map_or_else(|| "n/a".to_string(), |d| format!("{:+.1}%", d * 100.0));
                        text.push_str(&format!("mean dependents vs {label}: {vs}\n"));
                    }
                    text
                })
            }
            other => {
                return Err(format!(
                    "spec {}: kind {} is not replayable inside a suite",
                    sub.id,
                    other.as_str()
                ))
            }
        };
        st.renders.insert(sub.id.clone(), text);
    }
    Ok(())
}

/// Builds one cell's simulator step by step, exactly as `Lab::run_cell`
/// does, with stamps before `mix().instantiate`, before
/// `DodAnalysis::compute`, before the build (which runs the warm-up)
/// and after it.
fn build_cell(
    lab: &Lab,
    m: usize,
    rob: RobConfig,
    skip: bool,
) -> Result<(Simulator, [Stamp; 4]), SimError> {
    let t0 = Stamp::now();
    let wls: Vec<Arc<Workload>> = mix(m)
        .instantiate(lab.seed)
        .into_iter()
        .map(Arc::new)
        .collect();
    let t1 = Stamp::now();
    let bounds: Vec<DodBounds> = wls
        .iter()
        .map(|w| DodBounds::new(DodAnalysis::compute(&w.program, L1_WINDOW).max_map()))
        .collect();
    let t2 = Stamp::now();
    let sim = Simulator::builder(lab.machine.clone(), wls, rob.build(), lab.seed)
        .dod_bounds(bounds)
        .warmup(lab.warmup)
        .cycle_skip(skip)
        .build()?;
    Ok((sim, [t0, t1, t2, Stamp::now()]))
}

/// Stamps around the four steps of one decomposed cell, plus what the
/// rebuilt simulator reported.
struct Parts {
    stamps: [Stamp; 5],
    cycles: u64,
    committed: Vec<u64>,
}

impl Parts {
    fn run_ns(&self) -> u64 {
        self.stamps[4].ns_since(self.stamps[3])
    }
}

/// One cell rebuilt by [`build_cell`] and run to the lab's budget.
fn decompose(lab: &Lab, m: usize, rob: RobConfig, skip: bool) -> Result<Parts, SimError> {
    let (mut sim, [t0, t1, t2, t3]) = build_cell(lab, m, rob, skip)?;
    sim.try_run(StopCondition::AnyThreadCommitted(lab.mt_budget))?;
    Ok(Parts {
        stamps: [t0, t1, t2, t3, Stamp::now()],
        cycles: sim.cycle(),
        committed: sim.stats().threads.iter().map(|t| t.committed).collect(),
    })
}

/// Does `parts` repeat the simulated outcome of `run`?
fn same_outcome(run: &MixRun, cycles: u64, committed: &[u64]) -> bool {
    run.stats.cycles == cycles
        && run
            .stats
            .threads
            .iter()
            .map(|t| t.committed)
            .eq(committed.iter().copied())
}

/// Mean gap between two consecutive clock reads, in ns: the cost every
/// per-stage interval carries on top of the stage itself.
fn clock_gap_ns() -> f64 {
    const READS: u32 = 10_000;
    let mut sum = 0;
    for _ in 0..READS {
        let a = Stamp::now();
        sum += Stamp::now().ns_since(a);
    }
    sum as f64 / f64::from(READS)
}

/// Per-stage kernel time over [`STAGE_CYCLES`] cycles of one cell,
/// driven through the `bench-internals` hooks in `try_step` order, one
/// clock read between stages.
fn stage_times(lab: &Lab, m: usize, rob: RobConfig) -> Result<[u64; 7], SimError> {
    let (mut sim, _) = build_cell(lab, m, rob, lab.cycle_skip)?;
    let mut acc = [0u64; 7];
    for _ in 0..STAGE_CYCLES {
        let t = [
            Stamp::now(),
            {
                sim.bench_process_events();
                Stamp::now()
            },
            {
                sim.bench_commit_stage();
                Stamp::now()
            },
            {
                sim.bench_issue_stage();
                Stamp::now()
            },
            {
                sim.bench_dispatch_stage();
                Stamp::now()
            },
            {
                sim.bench_fetch_stage();
                Stamp::now()
            },
            {
                sim.bench_cycle_end();
                Stamp::now()
            },
            {
                black_box(sim.bench_dod_scan(DOD_WINDOW));
                Stamp::now()
            },
        ];
        for (i, a) in acc.iter_mut().enumerate() {
            *a += t[i + 1].ns_since(t[i]);
        }
    }
    Ok(acc)
}

/// What one cell's deep rerun produced: `Lab::run_cell` with its time,
/// the decomposition, and for sampled cells the run without skipping.
type Rerun = (
    Result<MixRun, SimError>,
    u64,
    Result<Parts, SimError>,
    Option<Result<Parts, SimError>>,
);

fn run_deep(rec: &mut Recorder, st: &State, scratch: &Path, failures: &mut Vec<String>) -> Deep {
    let mut deep = Deep::default();
    let labs: Vec<Lab> = st
        .lowered
        .iter()
        .map(|l| l.merged.lab_for_spec(&l.spec))
        .collect();
    let lab_of = |c: &CellRun| {
        let sw = &st.sweeps[c.sweep];
        (&labs[sw.lowered], &sw.table)
    };
    let ok: Vec<(&CellRun, &MixRun)> = st
        .cells
        .iter()
        .filter_map(|c| Some((c, c.run.as_ref().ok()?)))
        .collect();
    // The first SAMPLE_PAIRS distinct (mix, config) pairs, in cell order.
    let mut seen = BTreeSet::new();
    let work: Vec<(usize, &CellRun, bool)> = ok
        .iter()
        .enumerate()
        .map(|(i, &(c, _))| {
            let sampled = seen.len() < SAMPLE_PAIRS && seen.insert((c.mix, c.config.fingerprint()));
            (i, c, sampled)
        })
        .collect();

    // Same fan-out as phase 2, so per-cell times compare with the real
    // path's under the same contention.
    rec.span("ledger.decompose", |rec| {
        let reruns = fan_out(st.jobs, &work, |&(i, c, sampled)| -> Rerun {
            let (lab, table) = lab_of(c);
            let rerun = || {
                let t0 = Stamp::now();
                let real = lab.run_cell(c.mix, c.config, table);
                (real, Stamp::now().ns_since(t0))
            };
            let decomposed = || decompose(lab, c.mix, c.config, lab.cycle_skip);
            // Alternate which goes first, so neither gains from going
            // second.
            let ((real, real_ns), parts) = if i % 2 == 0 {
                (rerun(), decomposed())
            } else {
                let parts = decomposed();
                (rerun(), parts)
            };
            let no_skip = sampled.then(|| decompose(lab, c.mix, c.config, false));
            (real, real_ns, parts, no_skip)
        });
        for (&(c, run), ((real, real_ns, parts, no_skip), _, _)) in ok.iter().zip(reruns) {
            let what = format!("mix {} / {}", c.mix, c.config.label());
            let real_ok = real.is_ok_and(|r| {
                let committed: Vec<u64> = r.stats.threads.iter().map(|t| t.committed).collect();
                same_outcome(run, r.stats.cycles, &committed)
            });
            let p = match parts {
                Ok(p) if real_ok && same_outcome(run, p.cycles, &p.committed) => p,
                _ => {
                    failures.push(format!("{what}: rerun or decomposition diverged"));
                    continue;
                }
            };
            deep.run_cell_ns += real_ns;
            for (i, name) in [
                "workload.instantiate",
                "analysis.static_bounds",
                "pipeline.build_warmup",
                "pipeline.run",
            ]
            .iter()
            .enumerate()
            {
                rec.add(name, p.stamps[i], p.stamps[i + 1]);
                deep.parts_ns[i] += p.stamps[i + 1].ns_since(p.stamps[i]);
            }
            deep.sim_cycles += p.cycles;
            deep.committed += p.committed.iter().sum::<u64>();
            match no_skip {
                None => {}
                Some(Ok(off)) if off.cycles == p.cycles && off.committed == p.committed => {
                    deep.skip_on_ns += p.run_ns();
                    deep.skip_off_ns += off.run_ns();
                }
                Some(_) => failures.push(format!("{what}: run with cycle skipping off differs")),
            }
        }
    });

    deep.clock_ns = clock_gap_ns();
    rec.span("ledger.stage_times", |_| {
        for (_, c, _) in work.iter().filter(|(_, _, sampled)| *sampled) {
            match stage_times(lab_of(c).0, c.mix, c.config) {
                Ok(t) => {
                    for (a, x) in deep.stage_ns.iter_mut().zip(t) {
                        *a += x;
                    }
                    deep.stage_cycles += STAGE_CYCLES;
                }
                Err(e) => failures.push(format!("stage timing of mix {} failed: {e}", c.mix)),
            }
        }
    });

    // Journal replay: the cells' results through the cache's own
    // record / lookup / open calls, on a scratch file.
    let path = scratch.join("replay-journal.jsonl");
    let _ = std::fs::remove_file(&path);
    let mut distinct = BTreeMap::new();
    for &(c, run) in &ok {
        distinct
            .entry(cell_key(c.mix, &c.config.fingerprint()))
            .or_insert(run);
    }
    let journaled = (|| -> Result<(), String> {
        let j = rec.span("journal.open", |_| Journal::open(&path, "ledger-replay"));
        let j = j.map_err(|e| e.to_string())?;
        for (key, run) in &distinct {
            let t0 = Stamp::now();
            j.record(key, run, 1).map_err(|e| e.to_string())?;
            let t1 = Stamp::now();
            rec.add("journal.record", t0, t1);
            deep.record_ns += t1.ns_since(t0);
        }
        for key in distinct.keys() {
            let t0 = Stamp::now();
            let hit = j.lookup(key);
            let t1 = Stamp::now();
            rec.add("journal.lookup", t0, t1);
            deep.lookup_ns += t1.ns_since(t0);
            if hit.is_none() {
                return Err(format!("journal lost record {key}"));
            }
        }
        drop(j);
        let t0 = Stamp::now();
        let reopened = Journal::open(&path, "ledger-replay").map_err(|e| e.to_string())?;
        let t1 = Stamp::now();
        rec.add("journal.open", t0, t1);
        deep.open_ns = t1.ns_since(t0);
        deep.records = reopened.len() as u64;
        if reopened.len() != distinct.len() {
            return Err("reopened journal lost records".into());
        }
        Ok(())
    })();
    if let Err(e) = journaled {
        failures.push(format!("journal replay failed: {e}"));
    }
    let _ = std::fs::remove_file(&path);
    deep
}

/// Options of one traced pass.
#[derive(Clone, Debug)]
pub struct Options {
    /// Also run the decomposition, skip comparison, stage timings and
    /// journal replay.
    pub deep: bool,
    /// Directory for the journal replay's scratch file.
    pub scratch: PathBuf,
}

/// Runs the traced pass over `specs` and returns its report as one JSON
/// object: `renders` (name → bytes), `cells` (per-cell deterministic
/// counters), `metrics` (per-layer numbers), `self_ns` (self time per
/// layer), `spans` and `failures`.
pub fn run(specs: &[PathBuf], opts: &Options) -> Result<String, String> {
    let mut rec = Recorder::new();
    let mut st = State::default();
    let mut failures: Vec<String> = Vec::new();
    rec.span("ledger.replay", |rec| -> Result<(), String> {
        let env = rec
            .span("bench.lower", |_| BenchEnv::from_env())
            .map_err(|e| e.to_string())?;
        for (i, path) in specs.iter().enumerate() {
            if i > 0 && path.parent() != specs[i - 1].parent() {
                st.norm.clear();
            }
            let spec = rec.span("spec.load", |_| ExperimentSpec::load(path));
            let spec = spec.map_err(|e| e.to_string())?;
            match spec.kind {
                SpecKind::Figure => replay_figure(rec, &mut st, &env, &spec),
                SpecKind::Suite => replay_suite(rec, &mut st, &env, &spec, path)?,
                other => return Err(format!("spec kind {} is not replayable", other.as_str())),
            }
        }
        Ok(())
    })?;
    for c in &st.cells {
        if let Err(e) = &c.run {
            failures.push(format!("mix {} / {}: {e}", c.mix, c.config.label()));
        }
    }
    let deep = opts
        .deep
        .then(|| run_deep(&mut rec, &st, &opts.scratch, &mut failures));
    Ok(report_json(&rec, &st, deep.as_ref(), &failures))
}

fn report_json(rec: &Recorder, st: &State, deep: Option<&Deep>, failures: &[String]) -> String {
    let ms = |ns: u64| ns as f64 / 1e6;
    let us = |ns: u64| ns as f64 / 1e3;
    let cells = st.cells.len();
    let mixes: BTreeSet<usize> = st.cells.iter().map(|c| c.mix).collect();
    let unique: BTreeSet<(usize, String)> = st
        .cells
        .iter()
        .map(|c| (c.mix, c.config.fingerprint()))
        .collect();
    let real_run_cell_ns = rec.total("core.run_cell");
    let mut m: Vec<(String, f64)> = vec![
        ("spec.load_us".into(), us(rec.total("spec.load"))),
        ("bench.lower_us".into(), us(rec.total("bench.lower"))),
        (
            "core.norm_table_ms".into(),
            ms(rec.total("core.norm_table")),
        ),
        ("core.norm_runs".into(), st.norm_runs as f64),
        ("core.cells".into(), cells as f64),
        (
            "core.cells_per_mix".into(),
            cells as f64 / mixes.len().max(1) as f64,
        ),
        (
            "core.unique_cell_frac".into(),
            unique.len() as f64 / cells.max(1) as f64,
        ),
        (
            "core.phase2_efficiency".into(),
            real_run_cell_ns as f64 / st.phase2_capacity.max(1) as f64,
        ),
        ("report.render_us".into(), us(rec.total("report.render"))),
        ("ledger.replay_ms".into(), ms(rec.total("ledger.replay"))),
    ];
    match deep {
        None => m.push(("core.run_cell_ms".into(), ms(real_run_cell_ns))),
        Some(d) => {
            let parts: u64 = d.parts_ns.iter().sum();
            let run_ns = d.parts_ns[3];
            m.extend([
                ("core.run_cell_ms".to_string(), ms(d.run_cell_ns)),
                (
                    "core.cell_residual_ms".to_string(),
                    (d.run_cell_ns as f64 - parts as f64) / 1e6,
                ),
                ("workload.instantiate_ms".into(), ms(d.parts_ns[0])),
                ("analysis.static_bounds_ms".into(), ms(d.parts_ns[1])),
                ("pipeline.build_warmup_ms".into(), ms(d.parts_ns[2])),
                ("pipeline.run_ms".into(), ms(run_ns)),
                ("pipeline.sim_cycles".into(), d.sim_cycles as f64),
                ("pipeline.committed".into(), d.committed as f64),
                (
                    "pipeline.ns_per_cycle".into(),
                    run_ns as f64 / d.sim_cycles.max(1) as f64,
                ),
                (
                    "pipeline.minst_per_s".into(),
                    d.committed as f64 / (run_ns.max(1) as f64 / 1e9) / 1e6,
                ),
                (
                    "pipeline.skip_speedup".into(),
                    d.skip_off_ns as f64 / d.skip_on_ns.max(1) as f64,
                ),
            ]);
            // Each stage interval carries one clock read on top of the
            // stage itself; take it back out.
            for (name, t) in STAGES.iter().zip(d.stage_ns) {
                let key = if *name == "dod_scan" {
                    "pipeline.dod_scan_ns".to_string()
                } else {
                    format!("pipeline.stage.{name}_ns")
                };
                let per_cycle = t as f64 / d.stage_cycles.max(1) as f64;
                m.push((key, (per_cycle - d.clock_ns).max(0.0)));
            }
            let per = |ns: u64| ns as f64 / 1e3 / d.records.max(1) as f64;
            m.extend([
                ("journal.record_us".to_string(), per(d.record_ns)),
                ("journal.lookup_us".into(), per(d.lookup_ns)),
                ("journal.open_ms".into(), ms(d.open_ns)),
                ("journal.records".into(), d.records as f64),
            ]);
        }
    }
    let metrics = m.iter().fold(Obj::new(), |o, (k, v)| o.num(k, *v)).finish();
    let renders = st
        .renders
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.str(k, v))
        .finish();
    let cells_json = json::arr(st.cells.iter().map(|c| {
        let o = Obj::new()
            .int("mix", c.mix as u64)
            .str("config", &c.config.label());
        match &c.run {
            Ok(r) => o
                .int("cycles", r.stats.cycles)
                .int("committed", r.stats.total_committed())
                .finish(),
            Err(e) => o.str("error", &e.to_string()).finish(),
        }
    }));
    let spans_json = json::arr(rec.spans().iter().map(|s| {
        let o = Obj::new()
            .str("name", &s.name)
            .int("start_ns", s.start)
            .int("end_ns", s.end);
        match s.parent {
            Some(p) => o.int("parent", p as u64),
            None => o.raw("parent", "null"),
        }
        .finish()
    }));
    let self_json = span::self_time_by_layer(rec.spans())
        .iter()
        .fold(Obj::new(), |o, (k, v)| o.int(k, *v))
        .finish();
    Obj::new()
        .raw("metrics", metrics)
        .raw("renders", renders)
        .raw("cells", cells_json)
        .raw("self_ns", self_json)
        .raw("spans", spans_json)
        .raw(
            "failures",
            json::arr(failures.iter().map(|f| json::json_string(f))),
        )
        .finish()
}
