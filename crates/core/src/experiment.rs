//! Experiment harness: runs Table 2 mixes under ROB configurations and
//! computes the paper's metrics.
//!
//! The [`Lab`] memoizes the single-threaded normalization runs, one per
//! distinct program — a benchmark at a thread slot, keyed by the full
//! run-relevant state — so sweeping many ROB configurations, as every
//! figure does, pays the normalization cost once, and a program that
//! several mixes name runs alone once. Each memo entry also holds the
//! static DoD bounds its solo run was analyzed with. A lab armed with a
//! [`ResultCache`] uses the cache's memo, which every lab armed with
//! that cache shares.
//!
//! Sweeps run in two phases. Phase 1 ([`Lab::plan`]) looks the cells
//! up in the armed result cache; the programs that the cells it lacks
//! need and the memo does not hold run alone, fanned out across the
//! sweep's workers, into an immutable [`NormTable`]. Phase 2 serves
//! each cell from the cache ([`SweepPlan::cached`]) or runs it through
//! [`Lab::run_planned`]: the one per-cell attempt loop
//! ([`Lab::run_cell_with_retries`]) plus the cache append.
//! [`Lab::sweep_cells`] fans phase 2 out across scoped worker threads
//! (`SMTSIM_JOBS` via the `spec` bin); the serve daemon's worker pool
//! calls the same two methods. Both phases merge results in input
//! order, so rendered figures are byte-identical at any job count.
//! Which cells a figure sweeps comes from its committed spec
//! ([`crate::figures::artifact_cells`]); [`Lab::run_mix`] and
//! [`Lab::try_run_mix`] are the one-cell library entry points.

use crate::cache::ResultCache;
use crate::journal::{self, cell_key, Journal, JournalError};
use crate::metrics::{fair_throughput, weighted_ipc};
use crate::twolevel::{TwoLevelConfig, TwoLevelRob, TwoLevelStats};
use smtsim_analysis::{DodAnalysis, L1_WINDOW};
use smtsim_obs::{Episode, EpisodeReconstructor, NoopTracer, TraceEvent, TraceLog, Tracer};
use smtsim_pipeline::{
    CancelToken, DodBounds, FaultPlan, FaultStats, FixedRob, MachineConfig, RobAllocator,
    RunBudget, SimError, SimStats, Simulator, StopCondition,
};
use smtsim_workload::{mix, Workload};
use std::collections::BTreeMap;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The static per-load DoD bound table of one workload's program. The
/// bounds come from the interprocedural dependence analysis
/// (`smtsim-analysis`) over the same first-level window the hardware
/// counter scans; the simulator cross-checks its exact dependent count
/// against them at every L2 fill.
#[must_use]
pub fn static_bounds(w: &Workload) -> DodBounds {
    DodBounds::new(DodAnalysis::compute(&w.program, L1_WINDOW).max_map())
}

/// A ROB configuration under test.
#[derive(Clone, Copy, Debug)]
pub enum RobConfig {
    /// Private fixed per-thread ROBs (`Baseline_32`, `Baseline_128`).
    Baseline(usize),
    /// A two-level scheme.
    TwoLevel(TwoLevelConfig),
}

impl RobConfig {
    /// Builds the allocator.
    pub fn build(&self) -> Box<dyn RobAllocator> {
        match *self {
            RobConfig::Baseline(n) => Box::new(FixedRob::new(n)),
            RobConfig::TwoLevel(cfg) => Box::new(TwoLevelRob::new(cfg)),
        }
    }

    /// Display label (matches the paper's legends): the name of the
    /// allocator [`RobConfig::build`] makes, without making it.
    pub fn label(&self) -> String {
        match self {
            RobConfig::Baseline(n) => format!("Baseline_{n}"),
            RobConfig::TwoLevel(cfg) => cfg.name(),
        }
    }

    /// Canonical value fingerprint: a string derived from every
    /// configuration field. Unlike [`RobConfig::label`] — which names
    /// only the scheme and threshold — this distinguishes two distinct
    /// configurations that happen to share a display name (e.g. two
    /// `2-Level R-ROB16`s with different second-level sizes), so it is
    /// what the normalization cache keys on.
    pub fn fingerprint(&self) -> String {
        format!("{self:?}")
    }
}

/// Result of one mix × configuration run.
#[derive(Clone, Debug)]
pub struct MixRun {
    /// "Mix 1" .. "Mix 11".
    pub mix: String,
    /// Configuration label.
    pub config: String,
    /// Fair throughput (harmonic mean of weighted IPCs).
    pub ft: f64,
    /// Raw throughput (sum of IPCs).
    pub throughput: f64,
    /// Per-thread multithreaded IPC.
    pub ipc: Vec<f64>,
    /// Per-thread single-threaded (alone) IPC used for normalization.
    pub single_ipc: Vec<f64>,
    /// Per-thread weighted IPC.
    pub weighted: Vec<f64>,
    /// Full machine statistics.
    pub stats: SimStats,
    /// Two-level allocator statistics, when applicable.
    pub twolevel: Option<TwoLevelStats>,
    /// Faults actually injected during the multithreaded run (all zero
    /// when no [`FaultPlan`] was installed for the mix).
    pub faults: FaultStats,
}

/// Result of one mix × configuration run with tracing armed: the
/// [`MixRun`] metrics plus the raw event stream and the complete
/// L2-miss episodes reconstructed from it. Produced by
/// [`Lab::sweep_traced`].
#[derive(Clone, Debug)]
pub struct TracedMixRun {
    /// The ordinary run result (identical to the untraced run: tracing
    /// observes the simulation without perturbing it).
    pub run: MixRun,
    /// The raw `(cycle, event)` stream, in emission order.
    pub events: Vec<(u64, TraceEvent)>,
    /// L2-miss episodes reconstructed from the stream.
    pub episodes: Vec<Episode>,
}

impl TracedMixRun {
    /// Folds a cell's collected event log into its episodes.
    fn fold(run: MixRun, log: TraceLog) -> TracedMixRun {
        let events = log.into_events();
        TracedMixRun {
            run,
            episodes: EpisodeReconstructor::from_events(&events),
            events,
        }
    }
}

/// The lab state a normalization run is measured under: the reference
/// ROB configuration (by value fingerprint, not display label) plus
/// every [`Lab`] field that can change a single-threaded IPC — the
/// workload seed, the run length (`st_budget`, `warmup`) and the
/// machine configuration.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct NormState {
    config: String,
    st_budget: u64,
    warmup: u64,
    seed: u64,
    machine: String,
}

/// The program a normalization run measures: one benchmark at one
/// thread slot. `Mix::instantiate_single` builds it from these two
/// plus the seed, which [`NormState`] covers, so every `(mix, slot)`
/// that names the same pair runs the same program (ammp at slot 0 in
/// Mixes 1, 3, 5 and 7, for one).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Program {
    bench: &'static str,
    slot: usize,
}

/// Cache key of one memoized normalization run: a [`Program`] under
/// one [`NormState`]. Mutating any field the state covers on the
/// [`Lab`] therefore misses the cache instead of silently serving an
/// IPC measured under the old state.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct NormKey {
    program: Program,
    state: NormState,
}

/// One program's successful solo run: its reference IPC and the static
/// DoD bounds it ran under, which every cell of every mix naming the
/// program reuses.
#[derive(Debug)]
pub(crate) struct Solo {
    ipc: f64,
    bounds: DodBounds,
}

/// The solo-run memo: every successful solo run, keyed by its
/// [`NormKey`]. A lab owns one and a [`ResultCache`] owns the one its
/// labs share; see `Lab::memo`.
pub(crate) type Solos = Mutex<BTreeMap<NormKey, Arc<Solo>>>;

/// Immutable product of a sweep's phase 1: the single-threaded
/// reference IPC (or the typed error its run produced) for every
/// `(mix, slot)` the sweep's cells need, all measured under
/// [`Lab::norm`]. Each distinct program is measured once, and every
/// `(mix, slot)` that names it reads its entry. Shared read-only by
/// the phase-2 workers.
///
/// The table also records the lab state it was measured under, and
/// [`Lab::run_cell`] refuses a table from any other state. A program's
/// entry is the lab's memo entry, static DoD bounds included, so its
/// phase-2 cells reuse the analysis its solo run ran.
#[derive(Clone, Debug)]
pub struct NormTable {
    state: NormState,
    /// The program each covered `(mix, slot)` runs.
    slots: BTreeMap<(usize, usize), Program>,
    /// Each program's memo entry, or the typed error its solo run
    /// produced.
    programs: BTreeMap<Program, Result<Arc<Solo>, SimError>>,
    /// Solo runs the phase 1 that built this table performed.
    runs: usize,
}

impl NormTable {
    /// The reference IPC of `(mix, slot)`, or the error its
    /// normalization run produced. A missing entry (the table was
    /// built for a different mix set) is an [`SimError::InvalidConfig`].
    pub fn get(&self, mix: usize, slot: usize) -> Result<f64, SimError> {
        match self.slots.get(&(mix, slot)) {
            Some(p) => self.programs[p]
                .as_ref()
                .map(|solo| solo.ipc)
                .map_err(SimError::clone),
            None => Err(SimError::InvalidConfig {
                reason: format!("normalization table has no entry for mix {mix} slot {slot}"),
            }),
        }
    }

    /// Number of `(mix, slot)` entries.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Solo runs the [`Lab::norm_table`] call that built this table
    /// performed: its distinct programs the lab had not memoized. A
    /// deterministic work counter, never rendered.
    pub fn runs(&self) -> usize {
        self.runs
    }

    /// Folds `other`'s entries into this table; on overlap the entry
    /// from `other` wins. Only the ledger's replay calls it, to keep
    /// one table per lab identity across its sweeps. A table measured
    /// under another lab state is ignored: its IPCs and bounds would
    /// be wrong here.
    pub fn merge(&mut self, other: &NormTable) {
        if other.state != self.state {
            return;
        }
        self.slots.extend(&other.slots);
        self.programs
            .extend(other.programs.iter().map(|(p, s)| (*p, s.clone())));
    }

    /// True when the table holds no entries.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The static DoD bounds of `wls`, mix `mix_idx` instantiated
    /// under the table's seed, one per thread slot. A slot whose
    /// program's solo run succeeded reuses the bounds that run was
    /// analyzed with: they depend only on the program and the seed,
    /// and a cell only reaches here after [`Lab::run_cell`] checked
    /// that its seed is the table's. Any other slot is analyzed on
    /// every call.
    fn dod_bounds(&self, mix_idx: usize, wls: &[Arc<Workload>]) -> Vec<DodBounds> {
        wls.iter()
            .enumerate()
            .map(|(slot, w)| {
                let program = self.slots.get(&(mix_idx, slot));
                match program.map(|p| &self.programs[p]) {
                    Some(Ok(solo)) => solo.bounds.clone(),
                    _ => static_bounds(w),
                }
            })
            .collect()
    }
}

/// One cell of a sweep: a mix index under a ROB configuration.
pub type SweepCell = (usize, RobConfig);

/// The distinct cells of `cells` by [`cell_key`], in first-occurrence
/// order, and for each input cell its index into them. The key map is
/// dropped on return, before any cell runs.
fn distinct_cells(cells: &[SweepCell]) -> (Vec<SweepCell>, Vec<usize>) {
    let mut seen: BTreeMap<String, usize> = BTreeMap::new();
    let mut distinct = Vec::new();
    let index = cells
        .iter()
        .map(|&(m, cfg)| {
            *seen
                .entry(cell_key(m, &cfg.fingerprint()))
                .or_insert_with(|| {
                    distinct.push((m, cfg));
                    distinct.len() - 1
                })
        })
        .collect();
    (distinct, index)
}

/// Runs `f` with panics converted to [`SimError::CellPanic`], so one
/// poisoned sweep cell degrades to an `n/a` figure cell instead of
/// killing the whole sweep (or a worker thread).
fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, SimError> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        let reason = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        SimError::CellPanic { reason }
    })
}

/// Evaluates `f(i)` for `i in 0..n` across `jobs` scoped workers
/// pulling from a shared counter (`jobs <= 1` runs serially on the
/// caller's thread), and returns the results in index order, so the
/// output is identical at any job count. Both phases of every sweep
/// and the fuzzer fan out through here. A worker's panic is re-raised
/// on the caller.
pub fn fan_out<R: Send>(jobs: usize, n: usize, f: impl Fn(usize) -> R + Sync) -> Vec<R> {
    let jobs = jobs.min(n.max(1));
    if jobs <= 1 {
        return (0..n).map(&f).collect();
    }
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        let (next, f) = (&next, &f);
        let handles: Vec<_> = (0..jobs)
            .map(|_| {
                s.spawn(move || {
                    let mut out = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        out.push((i, f(i)));
                    }
                    out
                })
            })
            .collect();
        let mut merged = Vec::with_capacity(n);
        for h in handles {
            merged.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
        }
        merged.sort_by_key(|&(i, _)| i);
        merged.into_iter().map(|(_, r)| r).collect()
    })
}

/// Outcome of one sweep cell ([`Lab::sweep_cells`], or one cell a
/// serve daemon streamed).
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The final result, after any retries (or as loaded from the
    /// result cache).
    pub result: Result<MixRun, SimError>,
    /// Attempts the cell took (1 = first try). Cache hits report the
    /// attempt count recorded when the cell originally completed, so
    /// this field — and everything derived from it — is identical
    /// between a resumed sweep and an uninterrupted one.
    pub attempts: u32,
    /// True when the result was loaded from the cache instead of run.
    pub from_journal: bool,
    /// The canonical JSON of an `Ok` result
    /// ([`journal::mix_run_to_json`]) as the result cache holds it: the
    /// text a hit's record was checked against, or the text a run's
    /// append wrote. Shared with the shard, never rendered twice.
    /// `None` for a failed cell, a failed append and a lab with no
    /// cache armed.
    pub run_json: Option<Arc<str>>,
}

/// Per-sweep health summary: cells ok / retried-then-ok / timed out /
/// failed, plus the total number of extra attempts the retry layer
/// spent. Derived purely from cell *results* (never from the execution
/// path), so a resumed sweep and an uninterrupted one summarize
/// identically — which is what lets the figure layer append this to
/// footers without breaking resume byte-identity.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepHealth {
    /// Cells that produced a result (including retried-then-ok ones).
    pub ok: usize,
    /// Subset of `ok` that needed more than one attempt.
    pub retried: usize,
    /// Cells whose final result was a watchdog timeout.
    pub timed_out: usize,
    /// Cells whose final result was any other error.
    pub failed: usize,
    /// Total attempts beyond the first, summed over all cells.
    pub extra_attempts: usize,
}

impl SweepHealth {
    /// Folds a sweep's outcomes into the summary.
    pub fn from_outcomes(outcomes: &[CellOutcome]) -> Self {
        let mut h = SweepHealth::default();
        for o in outcomes {
            h.extra_attempts += o.attempts.saturating_sub(1) as usize;
            match &o.result {
                Ok(_) => {
                    h.ok += 1;
                    if o.attempts > 1 {
                        h.retried += 1;
                    }
                }
                Err(SimError::CellTimeout { .. }) => h.timed_out += 1,
                Err(_) => h.failed += 1,
            }
        }
        h
    }

    /// Total cells summarized.
    pub fn total(&self) -> usize {
        self.ok + self.timed_out + self.failed
    }

    /// True when no cell timed out or failed.
    pub fn all_ok(&self) -> bool {
        self.timed_out == 0 && self.failed == 0
    }

    /// The one-line footer the figure layer appends when any
    /// resilience feature is active.
    pub fn summary_line(&self) -> String {
        format!(
            "sweep health: {} ok ({} retried), {} timed out, {} failed",
            self.ok, self.retried, self.timed_out, self.failed
        )
    }
}

/// Everything a resilient sweep produces: per-cell outcomes in input
/// order plus the [`SweepHealth`] summary.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// One outcome per input cell, in input order.
    pub outcomes: Vec<CellOutcome>,
    /// The path-independent health summary over `outcomes`.
    pub health: SweepHealth,
    /// Solo normalization runs the sweep's phase 1 performed
    /// ([`NormTable::runs`]). Path-dependent like
    /// [`SweepReport::journal_hits`], so never rendered into figures.
    pub norm_runs: usize,
}

impl SweepReport {
    /// A report over `outcomes` (one per cell, in input order), with
    /// the health summary folded from them and no normalization runs.
    pub fn new(outcomes: Vec<CellOutcome>) -> SweepReport {
        let health = SweepHealth::from_outcomes(&outcomes);
        SweepReport {
            outcomes,
            health,
            norm_runs: 0,
        }
    }

    /// Strips the report down to the classic result vector.
    pub fn results(self) -> Vec<Result<MixRun, SimError>> {
        self.outcomes.into_iter().map(|o| o.result).collect()
    }

    /// Cells served from the result cache instead of being re-run. (Path-
    /// *dependent* by nature — this is deliberately not part of
    /// [`SweepHealth`] and never rendered into figures.)
    pub fn journal_hits(&self) -> usize {
        self.outcomes.iter().filter(|o| o.from_journal).count()
    }
}

/// A sweep's phase 1 ([`Lab::plan`]): its cells, each keyed by
/// [`cell_key`], the result-cache shard that may already hold them and
/// the normalization table of the mixes with a cell it lacks. Phase 2
/// resolves cell `i` as [`SweepPlan::cached`] or, failing that,
/// [`Lab::run_planned`]; [`Lab::sweep_cells`] and the serve daemon's
/// workers both do exactly that.
#[derive(Debug)]
pub struct SweepPlan {
    cells: Vec<(SweepCell, String)>,
    /// The shard of the planning lab's universe; `None` with no cache.
    shard: Option<Arc<Journal>>,
    norm: NormTable,
}

impl SweepPlan {
    /// The planned cells with their keys, in the order given to
    /// [`Lab::plan`].
    pub fn cells(&self) -> &[(SweepCell, String)] {
        &self.cells
    }

    /// Cell `i` as the result cache holds it: the stored run, its
    /// stored text and the attempts it took, marked `from_journal`.
    /// `None` when the cell must run.
    pub fn cached(&self, i: usize) -> Option<CellOutcome> {
        let hit = self.shard.as_ref()?.lookup(&self.cells[i].1)?;
        Some(CellOutcome {
            result: Ok(hit.run),
            attempts: hit.attempts,
            from_journal: true,
            run_json: Some(hit.run_json),
        })
    }

    /// The universe ([`Lab::journal_universe`]) the plan's shard was
    /// opened under; `None` with no cache armed.
    pub fn universe(&self) -> Option<&str> {
        self.shard.as_deref().map(Journal::universe)
    }

    /// Solo runs the plan's phase 1 performed ([`NormTable::runs`]).
    pub fn norm_runs(&self) -> usize {
        self.norm.runs()
    }
}

/// Experiment driver with memoized normalization runs.
pub struct Lab {
    /// The multithreaded machine (defaults to Table 1).
    pub machine: MachineConfig,
    /// Workload-generation seed.
    pub seed: u64,
    /// Commit target for multithreaded runs (the run stops when any
    /// thread reaches it, as in the paper).
    pub mt_budget: u64,
    /// Commit target for single-threaded normalization runs.
    pub st_budget: u64,
    /// Functional warm-up instructions per thread before timed
    /// simulation (caches and predictors; see `SimulatorBuilder::warmup`).
    pub warmup: u64,
    /// Configuration of the reference machine used for the
    /// single-threaded normalization runs. Weighted IPCs of *every*
    /// configuration are normalized against the same reference
    /// (Baseline_32 alone), so FT values are directly comparable across
    /// the paper's bar charts.
    pub norm: RobConfig,
    /// Worker threads for both sweep phases: the solo runs of
    /// [`Lab::norm_table`], one per distinct program, and the cells of
    /// [`Lab::sweep_cells`]. `None` (the default) uses
    /// [`std::thread::available_parallelism`]; `Some(1)` forces the
    /// serial path. The `spec` bin sets this from the `SMTSIM_JOBS`
    /// environment knob; the serve daemon pins its request labs to 1,
    /// because its worker pool is its parallelism. The sweep output is
    /// byte-identical at any job count.
    pub jobs: Option<usize>,
    /// The solo-run memo of a lab with no [`Lab::cache`] armed.
    solos: Solos,
    /// Fault plan applied to every multithreaded run (see
    /// [`Lab::set_fault`]).
    global_fault: Option<FaultPlan>,
    /// Per-mix fault plans; these take precedence over `global_fault`.
    mix_faults: BTreeMap<usize, FaultPlan>,
    /// Per-mix *transient* fault plans, applied only while the cell's
    /// attempt number is at or below the stored bound (see
    /// [`Lab::set_transient_fault`]); these model faults the retry
    /// layer can recover from.
    transient_faults: BTreeMap<usize, (FaultPlan, u32)>,
    /// Persistent result cache (`SMTSIM_JOURNAL` names its directory;
    /// the serve daemon shares one across requests); `None` = nothing
    /// persisted. Every sweep reads and appends the shard of the lab's
    /// *current* [`Lab::journal_universe`], so a mutated lab can never
    /// be served another universe's cells. The cache's solo-run memo
    /// replaces the lab's own, so labs armed with one cache share solo
    /// runs whenever their normalization state matches, whatever their
    /// universe. See [`crate::cache`].
    pub cache: Option<Arc<ResultCache>>,
    /// Simulated-cycle ceiling per sweep cell (`SMTSIM_CELL_CYCLES`);
    /// the deterministic watchdog. `None` = unlimited.
    pub cell_cycle_budget: Option<u64>,
    /// Wall-clock ceiling per sweep cell in milliseconds
    /// (`SMTSIM_CELL_TIMEOUT`); non-deterministic by nature. `None` =
    /// unlimited.
    pub cell_wall_ms: Option<u64>,
    /// Retries per transiently-failed sweep cell
    /// (`SMTSIM_CELL_RETRIES`); 0 = the pre-resilience behavior.
    pub retries: u32,
    /// Event-driven cycle skipping in every simulator this lab builds
    /// (`SMTSIM_NO_SKIP` disables it). Timing-transparent by
    /// construction — results are byte-identical either way — so it is
    /// deliberately *not* part of the solo-run memo's key or the
    /// journal universe fingerprint.
    pub cycle_skip: bool,
    /// Cooperative cancellation for every *measured* (multithreaded)
    /// cell this lab runs: an embedding daemon arms one token per
    /// request and the cycle loop polls it through [`RunBudget`]. A
    /// cancelled cell fails with a typed
    /// [`SimError::CellTimeout`]-family error — never a wrong value —
    /// and normalization runs are unmetered, so the solo-run memo only
    /// ever stores healthy references. Operational like [`Lab::jobs`]:
    /// deliberately not part of the solo-run memo's key or the journal
    /// universe fingerprint.
    pub cancel: Option<CancelToken>,
}

impl Lab {
    /// A lab over the paper's Table 1 machine with laptop-scale
    /// budgets (see EXPERIMENTS.md for the budget used per figure).
    pub fn new(seed: u64) -> Self {
        Lab {
            machine: MachineConfig::icpp08(),
            seed,
            mt_budget: 60_000,
            st_budget: 60_000,
            warmup: 60_000,
            norm: RobConfig::Baseline(32),
            jobs: None,
            solos: Solos::default(),
            global_fault: None,
            mix_faults: BTreeMap::new(),
            transient_faults: BTreeMap::new(),
            cache: None,
            cell_cycle_budget: None,
            cell_wall_ms: None,
            retries: 0,
            cycle_skip: true,
            cancel: None,
        }
    }

    // The builders below mutate fields directly. Neither cache needs
    // invalidating *by construction*: every field a cached value
    // depends on is part of its key ([`NormKey`] for normalization
    // runs, [`Lab::journal_universe`] for cells), so a changed field
    // misses instead of hitting a stale entry (and restoring the old
    // value legitimately re-hits the old entries).

    /// Overrides the commit budgets.
    pub fn with_budgets(mut self, mt: u64, st: u64) -> Self {
        self.mt_budget = mt;
        self.st_budget = st;
        self
    }

    /// Overrides the functional warm-up length (instructions per
    /// thread).
    #[must_use]
    pub fn with_warmup(mut self, insts: u64) -> Self {
        self.warmup = insts;
        self
    }

    /// Overrides the sweep worker-thread count (`None` = available
    /// parallelism; the sweep output is byte-identical either way).
    #[must_use]
    pub fn with_jobs(mut self, jobs: Option<usize>) -> Self {
        self.jobs = jobs;
        self
    }

    /// Overrides the reference configuration for single-threaded
    /// normalization runs.
    #[must_use]
    pub fn with_norm(mut self, norm: RobConfig) -> Self {
        self.norm = norm;
        self
    }

    /// Arms (or clears) the persistent result cache: sweeps skip every
    /// cell already stored under the lab's universe and append each
    /// newly completed one (see the [`Lab::cache`] field).
    #[must_use]
    pub fn with_cache(mut self, cache: Option<Arc<ResultCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// Arms (or clears) the cooperative per-cell cancellation token
    /// (see the [`Lab::cancel`] field).
    #[must_use]
    pub fn with_cancel_token(mut self, token: Option<CancelToken>) -> Self {
        self.cancel = token;
        self
    }

    /// Installs a fault plan for multithreaded runs: `mix = None` sets a
    /// lab-wide plan, `mix = Some(i)` targets one mix (and overrides the
    /// lab-wide plan for it). Single-threaded normalization runs are
    /// never faulted — they define the healthy reference every weighted
    /// IPC is measured against.
    pub fn set_fault(&mut self, mix: Option<usize>, plan: FaultPlan) {
        match mix {
            None => self.global_fault = Some(plan),
            Some(i) => {
                self.mix_faults.insert(i, plan);
            }
        }
    }

    /// Installs a *transient* fault plan for `mix`: the plan applies
    /// only while the cell's attempt number is `<= active_attempts`
    /// and takes precedence over [`Lab::set_fault`] plans while
    /// active. This models a fault that clears on re-run — the retry
    /// layer's recovery target (and its test fixture).
    pub fn set_transient_fault(&mut self, mix: usize, plan: FaultPlan, active_attempts: u32) {
        self.transient_faults.insert(mix, (plan, active_attempts));
    }

    /// Removes all installed fault plans (persistent and transient).
    pub fn clear_faults(&mut self) {
        self.global_fault = None;
        self.mix_faults.clear();
        self.transient_faults.clear();
    }

    /// The plan a multithreaded run of `mix_idx` would use, if any.
    pub fn fault_for(&self, mix_idx: usize) -> Option<&FaultPlan> {
        self.mix_faults.get(&mix_idx).or(self.global_fault.as_ref())
    }

    /// The plan attempt number `attempt` of `mix_idx` would use: an
    /// active transient plan wins, then the persistent plans.
    fn fault_for_attempt(&self, mix_idx: usize, attempt: u32) -> Option<&FaultPlan> {
        if let Some((plan, active)) = self.transient_faults.get(&mix_idx) {
            if attempt <= *active {
                return Some(plan);
            }
        }
        self.fault_for(mix_idx)
    }

    /// Runs slot `slot` of `mix_idx` alone under [`Lab::norm`],
    /// unmemoized: its IPC and the static DoD bounds it ran under.
    fn solo_run(&self, mix_idx: usize, slot: usize) -> Result<Solo, SimError> {
        let wl = Arc::new(mix(mix_idx).instantiate_single(slot, self.seed));
        let bounds = static_bounds(&wl);
        let mut cfg = self.machine.clone();
        cfg.num_threads = 1;
        cfg.fetch_threads = 1;
        let mut sim = Simulator::builder(cfg, vec![wl], self.norm.build(), self.seed)
            .dod_bounds(vec![bounds.clone()])
            .warmup(self.warmup)
            .cycle_skip(self.cycle_skip)
            .build()?;
        sim.try_run(StopCondition::AnyThreadCommitted(self.st_budget))?;
        Ok(Solo {
            ipc: sim.stats().threads[0].ipc(sim.cycle()),
            bounds,
        })
    }

    /// The [`NormState`] a normalization run would be measured in
    /// given the lab's *current* state.
    fn norm_state(&self) -> NormState {
        // Exhaustive on purpose: a new field does not compile until it
        // is classified here.
        let Lab {
            machine,
            seed,
            st_budget,
            warmup,
            norm,
            // Multithreaded-only: normalization runs are unfaulted,
            // unmetered and unretried.
            mt_budget: _,
            global_fault: _,
            mix_faults: _,
            transient_faults: _,
            cell_cycle_budget: _,
            cell_wall_ms: _,
            retries: _,
            cancel: _,
            // Scheduling and memo state, timing-transparent skipping.
            jobs: _,
            solos: _,
            cache: _,
            cycle_skip: _,
        } = self;
        NormState {
            config: norm.fingerprint(),
            st_budget: *st_budget,
            warmup: *warmup,
            seed: *seed,
            machine: format!("{machine:?}"),
        }
    }

    /// The solo-run memo this lab reads and fills, locked: the armed
    /// [`Lab::cache`]'s, which every lab armed with it shares, else
    /// the lab's own. Picked on every call, because `cache` is a
    /// public field. Updates only insert whole entries, so a poisoned
    /// lock still guards a consistent map.
    fn memo(&self) -> MutexGuard<'_, BTreeMap<NormKey, Arc<Solo>>> {
        self.cache
            .as_deref()
            .map_or(&self.solos, ResultCache::solos)
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of solo runs the memo this lab uses holds: one per
    /// program and normalization state, however many mixes name the
    /// program (mutating budgets, seed, warm-up, the machine or the
    /// norm reference grows this rather than overwriting entries).
    /// With a [`Lab::cache`] armed this counts the cache's memo, which
    /// every lab armed with it shares.
    pub fn cached_norm_runs(&self) -> usize {
        self.memo().len()
    }

    /// Pre-warms the solo-run memo this lab uses from a [`NormTable`]
    /// computed earlier. Entries are keyed under the lab state the
    /// table was measured in, so a table from another seed, budget,
    /// warm-up, machine or norm reference never serves an IPC to this
    /// lab: its entries only hit once the lab is back in that state.
    /// Only healthy entries are seeded: errors are never memoized.
    pub fn seed_norm_cache(&mut self, table: &NormTable) {
        let healthy = table.programs.iter().filter_map(|(&program, solo)| {
            let solo = solo.as_ref().ok()?.clone();
            let state = table.state.clone();
            Some((NormKey { program, state }, solo))
        });
        self.memo().extend(healthy);
    }

    /// Worker-thread count a sweep would use right now: [`Lab::jobs`]
    /// if set, otherwise the machine's available parallelism.
    pub fn effective_jobs(&self) -> usize {
        self.jobs
            .or_else(|| {
                std::thread::available_parallelism()
                    .ok()
                    .map(NonZeroUsize::get)
            })
            .unwrap_or(1)
            .max(1)
    }

    /// Phase 1 of a sweep: the normalization runs of every `(mix,
    /// slot)` in `mixes` under [`Lab::norm`], snapshotted into an
    /// immutable [`NormTable`]. Each distinct program the memo lacks
    /// runs once, panic-isolated, fanned out over
    /// [`Lab::effective_jobs`] workers, and its static DoD bounds are
    /// analyzed inside that run; successes are memoized, errors never
    /// are, and every `(mix, slot)` naming a program reads its one
    /// result. The memo is locked to look the programs up and to insert
    /// the new runs, never while they run. A mix whose very
    /// instantiation panics is skipped here — its phase-2 cells hit the
    /// same panic and report it per cell. With a [`Lab::cache`] armed
    /// the memo is the cache's, so labs armed with it share solo runs.
    pub fn norm_table(&mut self, mixes: &[usize]) -> NormTable {
        let state = self.norm_state();
        let key = |program| NormKey {
            program,
            state: state.clone(),
        };
        let mut sorted: Vec<usize> = mixes.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        let mut slots = BTreeMap::new();
        let mut programs = BTreeMap::new();
        // Each program the memo lacks, with a mix that names it.
        let mut todo: BTreeMap<Program, usize> = BTreeMap::new();
        let memo = self.memo();
        for m in sorted {
            let Ok(benchmarks) = catch_cell(|| mix(m).benchmarks) else {
                continue;
            };
            for (slot, bench) in benchmarks.into_iter().enumerate() {
                let program = Program { bench, slot };
                slots.insert((m, slot), program);
                match memo.get(&key(program)) {
                    Some(solo) => {
                        programs.insert(program, Ok(solo.clone()));
                    }
                    None => {
                        todo.entry(program).or_insert(m);
                    }
                }
            }
        }
        drop(memo);
        let todo: Vec<(Program, usize)> = todo.into_iter().collect();
        let ran = fan_out(self.effective_jobs(), todo.len(), |i| {
            let (program, m) = todo[i];
            catch_cell(|| self.solo_run(m, program.slot)).and_then(|r| r)
        });
        let mut memo = self.memo();
        for (&(program, _), result) in todo.iter().zip(ran) {
            // Another lab on the same cache may have run the program
            // meanwhile; its entry is bit-identical, and keeping it
            // leaves one entry per key.
            let solo =
                result.map(|solo| memo.entry(key(program)).or_insert(Arc::new(solo)).clone());
            programs.insert(program, solo);
        }
        NormTable {
            state,
            slots,
            programs,
            runs: todo.len(),
        }
    }

    /// Runs one `mix × config` cell against a phase-1 normalization
    /// table. Takes `&self` — a cell mutates no lab state, which is
    /// what lets [`Lab::sweep_cells`] fan cells out across threads while
    /// sharing one `Lab` and one [`NormTable`]. A table measured under
    /// another lab state (seed, `st_budget`, warm-up, norm reference or
    /// machine) is refused with [`SimError::InvalidConfig`]: its IPCs
    /// and static bounds belong to other programs or runs.
    pub fn run_cell(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
    ) -> Result<MixRun, SimError> {
        self.run_cell_inner(mix_idx, rob, norm, NoopTracer, 1)
            .map(|(run, _)| run)
    }

    /// Shared body of [`Lab::run_cell`] and
    /// [`Lab::run_cell_with_retries`]: builds the simulator through
    /// [`Simulator::builder`] (bounds → fault plan for `attempt` →
    /// warm-up, tracing armed last), runs the mix and computes the
    /// metrics. Returns the tracer so traced callers can fold the
    /// collected stream.
    fn run_cell_inner<T: Tracer>(
        &self,
        mix_idx: usize,
        rob: RobConfig,
        norm: &NormTable,
        tracer: T,
        attempt: u32,
    ) -> Result<(MixRun, T), SimError> {
        if norm.state != self.norm_state() {
            return Err(SimError::InvalidConfig {
                reason: "normalization table was measured under another lab state (seed, \
                         st_budget, warm-up, norm reference or machine)"
                    .into(),
            });
        }
        let m = mix(mix_idx);
        let wls: Vec<Arc<Workload>> = m.instantiate(self.seed).into_iter().map(Arc::new).collect();
        let bounds = norm.dod_bounds(mix_idx, &wls);
        let mut builder = Simulator::builder(self.machine.clone(), wls, rob.build(), self.seed)
            .dod_bounds(bounds)
            .warmup(self.warmup)
            // Watchdog budgets apply to the measured (multithreaded)
            // cell run only — normalization runs are unmetered because
            // the solo-run memo must never store a timeout (see
            // `norm_table`).
            .run_budget(RunBudget {
                max_cycles: self.cell_cycle_budget,
                wall_ms: self.cell_wall_ms,
                token: self.cancel.clone(),
            })
            .cycle_skip(self.cycle_skip)
            .tracer(tracer);
        if let Some(plan) = self.fault_for_attempt(mix_idx, attempt) {
            builder = builder.fault_plan(plan.clone());
        }
        let mut sim = builder.build()?;
        let run_err = sim
            .try_run(StopCondition::AnyThreadCommitted(self.mt_budget))
            .err();
        let faults = sim.fault_stats();
        if let Some(e) = run_err {
            return Err(e);
        }
        let cycles = sim.cycle();
        let stats = sim.stats().clone();
        let ipc: Vec<f64> = stats.threads.iter().map(|t| t.ipc(cycles)).collect();
        let single_ipc: Vec<f64> = (0..ipc.len())
            .map(|slot| norm.get(mix_idx, slot))
            .collect::<Result<_, _>>()?;
        let weighted: Vec<f64> = ipc
            .iter()
            .zip(&single_ipc)
            .map(|(&mt, &st)| weighted_ipc(mt, st))
            .collect();
        let twolevel = sim
            .allocator()
            .as_any()
            .downcast_ref::<TwoLevelRob>()
            .map(|a| a.stats());
        let run = MixRun {
            mix: m.name.to_string(),
            config: rob.label(),
            ft: fair_throughput(&weighted),
            throughput: ipc.iter().sum(),
            ipc,
            single_ipc,
            weighted,
            stats,
            twolevel,
            faults,
        };
        Ok((run, sim.into_tracer()))
    }

    /// One cell through the attempt loop — the only retry path, shared
    /// by every sweep through [`Lab::run_planned`] (which the serve
    /// daemon's worker pool calls too) and [`Lab::sweep_traced`]. Each
    /// attempt runs panic-isolated under the watchdog budgets with a
    /// fresh `T::default()` tracer; a transiently failed attempt
    /// ([`SimError::is_transient`]) is retried at once, up to
    /// `1 + retries` attempts. The attempt number only selects the
    /// fault plan (see [`Lab::set_transient_fault`]) and the
    /// simulation itself is attempt-oblivious, so the result and the
    /// attempt count are a pure function of the lab state and the
    /// cell, and a retried cell that no longer faults is byte-identical
    /// to one that never faulted. A cancelled lab ([`Lab::cancel`])
    /// stops retrying immediately — retrying a request the client
    /// abandoned would only burn worker time. Returns the final result
    /// (with that attempt's tracer) and the attempts consumed.
    pub fn run_cell_with_retries<T: Tracer + Default>(
        &self,
        m: usize,
        cfg: RobConfig,
        norm: &NormTable,
    ) -> (Result<(MixRun, T), SimError>, u32) {
        let max_attempts = self.retries.saturating_add(1);
        let mut attempt = 1;
        loop {
            let res = catch_cell(|| self.run_cell_inner(m, cfg, norm, T::default(), attempt))
                .and_then(|r| r);
            let transient = res.as_ref().err().is_some_and(SimError::is_transient);
            let cancelled = self.cancel.as_ref().is_some_and(CancelToken::is_cancelled);
            if res.is_ok() || !transient || cancelled || attempt >= max_attempts {
                return (res, attempt);
            }
            attempt += 1;
        }
    }

    /// Phase 1 of a sweep over `cells`, taken as given (repeats are
    /// not collapsed): opens the result-cache shard of the lab's
    /// current universe ([`Lab::cache_shard`]), keys each cell with
    /// [`cell_key`] and runs [`Lab::norm_table`] over the mixes with a
    /// cell the shard cannot serve yet. Shard records only grow, so a
    /// cell that hits now still hits when it is resolved, and a plan
    /// whose cells all hit runs no solo run. With no cache armed every
    /// cell's mix is normalized.
    ///
    /// # Errors
    /// The shard's typed [`JournalError`] when it cannot be opened
    /// (I/O failure or a corrupt record).
    pub fn plan(&mut self, cells: &[SweepCell]) -> Result<SweepPlan, JournalError> {
        let shard = self.cache_shard()?;
        let cells: Vec<(SweepCell, String)> = cells
            .iter()
            .map(|&(m, cfg)| ((m, cfg), cell_key(m, &cfg.fingerprint())))
            .collect();
        let misses: Vec<usize> = cells
            .iter()
            .filter(|(_, key)| !shard.as_ref().is_some_and(|j| j.contains(key)))
            .map(|&((m, _), _)| m)
            .collect();
        let norm = self.norm_table(&misses);
        Ok(SweepPlan { cells, shard, norm })
    }

    /// Runs cell `i` of `plan` through [`Lab::run_cell_with_retries`]
    /// against the plan's normalization table and appends a success to
    /// the plan's shard, keeping the appended text as the outcome's
    /// [`CellOutcome::run_json`]. `plan` must come from this lab's
    /// [`Lab::plan`], with no field changed since. A failed append
    /// leaves the outcome without its text — only its durability is
    /// lost — and comes back beside it for the caller to report.
    pub fn run_planned(&self, plan: &SweepPlan, i: usize) -> (CellOutcome, Option<JournalError>) {
        let ((m, cfg), key) = &plan.cells[i];
        let (result, attempts) = self.run_cell_with_retries::<NoopTracer>(*m, *cfg, &plan.norm);
        let result = result.map(|(run, _)| run);
        let (run_json, append_error) = match (&plan.shard, &result) {
            (Some(j), Ok(run)) => match j.record(key, run, attempts) {
                Ok(text) => (Some(text), None),
                Err(e) => (None, Some(e)),
            },
            _ => (None, None),
        };
        let outcome = CellOutcome {
            result,
            attempts,
            from_journal: false,
            run_json,
        };
        (outcome, append_error)
    }

    /// Runs a batch of `mix × config` cells and returns their
    /// per-cell [`CellOutcome`]s, in input order, with a
    /// [`SweepHealth`] summary.
    ///
    /// Repeated cells collapse to their distinct [`cell_key`]s, and
    /// [`Lab::plan`] runs phase 1 over those. Phase 2 fans them out
    /// across [`Lab::effective_jobs`] scoped worker threads, each
    /// served by [`SweepPlan::cached`] or run by [`Lab::run_planned`],
    /// and copies every outcome to each input position that names the
    /// cell. A cell is a pure function of the lab state and its key,
    /// so collapsing changes no byte, and an armed cache never
    /// receives the same key twice from one sweep. Each cell is
    /// panic-isolated: a panicking cell yields [`SimError::CellPanic`]
    /// — rendered `n/a` by the figure layer — instead of killing the
    /// sweep. Outcomes are merged by input index, so the output (and
    /// every figure rendered from it) is byte-identical at any job
    /// count, including the serial `jobs = 1` path.
    ///
    /// When a result cache is armed ([`Lab::with_cache`] /
    /// `SMTSIM_JOURNAL`), cells already stored under the current
    /// experiment universe are served from disk without re-running,
    /// and every newly completed cell is appended durably the moment
    /// it finishes — so a killed sweep, relaunched on the same cache,
    /// resumes after the last completed cell and produces
    /// byte-identical results. Failed cells are never stored; they
    /// re-run (still deterministically) on resume. A failed append
    /// prints a warning and keeps the result in memory only.
    ///
    /// # Panics
    /// Panics if an armed cache shard cannot be opened (I/O failure or
    /// a corrupt record) — entry points that arm a cache pre-validate
    /// with [`Lab::cache_shard`] and map the typed error to an exit
    /// code instead.
    pub fn sweep_cells(&mut self, cells: &[SweepCell]) -> SweepReport {
        let (distinct, index) = distinct_cells(cells);
        let plan = match self.plan(&distinct) {
            Ok(plan) => plan,
            Err(e) => panic!("result cache unusable: {e}"),
        };
        let outcomes = fan_out(self.effective_jobs(), distinct.len(), |i| {
            plan.cached(i).unwrap_or_else(|| {
                let (outcome, append_error) = self.run_planned(&plan, i);
                if let Some(e) = append_error {
                    // A dying disk must not kill a healthy sweep.
                    eprintln!("warning: result cache append failed ({e}); cell result kept in memory only");
                }
                outcome
            })
        });
        let mut report = SweepReport::new(index.iter().map(|&i| outcomes[i].clone()).collect());
        report.norm_runs = plan.norm_runs();
        report
    }

    /// [`Lab::sweep_cells`] with tracing armed on every cell: each
    /// multithreaded run collects the full structured event stream
    /// (warm-up excluded), folded into episodes and metrics
    /// ([`TracedMixRun`]); the [`MixRun`] inside is identical to the
    /// untraced cell's — tracing is observational. Same two-phase
    /// structure, same panic isolation, same watchdog and retry loop,
    /// same input-order merge — the traced output is byte-identical at
    /// any job count. Traced sweeps never read or append the result
    /// cache's journal shards (they store [`MixRun`]s, not event
    /// streams).
    pub fn sweep_traced(&mut self, cells: &[SweepCell]) -> Vec<Result<TracedMixRun, SimError>> {
        let mixes: Vec<usize> = cells.iter().map(|&(m, _)| m).collect();
        let norm = self.norm_table(&mixes);
        fan_out(self.effective_jobs(), cells.len(), |i| {
            let (m, cfg) = cells[i];
            let (result, _) = self.run_cell_with_retries::<TraceLog>(m, cfg, &norm);
            result.map(|(run, log)| TracedMixRun::fold(run, log))
        })
    }

    /// True when any resilience feature — result cache, watchdog
    /// budget, retries, transient faults — is configured. The figure
    /// layer attaches the [`SweepHealth`] footer only in this case, so
    /// committed goldens produced by a plain lab stay byte-identical.
    pub fn resilience_active(&self) -> bool {
        self.cache.is_some()
            || self.cell_cycle_budget.is_some()
            || self.cell_wall_ms.is_some()
            || self.retries > 0
            || !self.transient_faults.is_empty()
    }

    /// The experiment-universe fingerprint the result cache is sharded
    /// by: every lab input that can change a cell's bytes (seed,
    /// budgets, warm-up, normalization universe, machine, fault plans
    /// and the resilience knobs themselves) — but *not* the job count,
    /// cycle skipping or the cancellation token, which only change
    /// scheduling. Which spec drove the lab is deliberately absent:
    /// cell bytes depend only on the lowered lab state plus the cell
    /// key, so specs that lower alike share cells.
    pub fn journal_universe(&self) -> String {
        // Exhaustive on purpose: a new field does not compile until it
        // is classified here, so none can be left out of the key.
        let Lab {
            machine,
            seed,
            mt_budget,
            st_budget,
            warmup,
            norm,
            global_fault,
            mix_faults,
            transient_faults,
            cell_cycle_budget,
            cell_wall_ms,
            retries,
            // Scheduling, memo and cancellation state only.
            jobs: _,
            solos: _,
            cache: _,
            cycle_skip: _,
            cancel: _,
        } = self;
        journal::fingerprint_str(&format!(
            "v{} seed={seed} mt={mt_budget} st={st_budget} warmup={warmup} norm={} \
             machine={machine:?} global_fault={global_fault:?} mix_faults={mix_faults:?} \
             transient_faults={transient_faults:?} cell_cycles={cell_cycle_budget:?} \
             cell_wall_ms={cell_wall_ms:?} retries={retries}",
            journal::JOURNAL_VERSION,
            norm.fingerprint(),
        ))
    }

    /// The result-cache shard of the lab's *current* universe, opened
    /// on first use; `Ok(None)` when no cache is armed. Entry points
    /// that arm a cache call this up front to map a damaged shard to a
    /// diagnostic and exit code, which makes the panic inside
    /// [`Lab::sweep_cells`] unreachable for them.
    pub fn cache_shard(&self) -> Result<Option<Arc<Journal>>, JournalError> {
        self.cache
            .as_ref()
            .map(|c| c.shard(&self.journal_universe()))
            .transpose()
    }

    /// Runs `mix_idx` under `rob` and computes all metrics.
    ///
    /// # Panics
    /// Panics on any [`SimError`]; use [`Lab::try_run_mix`] in sweeps
    /// that must survive a poisoned cell.
    pub fn run_mix(&mut self, mix_idx: usize, rob: RobConfig) -> MixRun {
        match self.try_run_mix(mix_idx, rob) {
            Ok(r) => r,
            Err(e) => panic!("{e}"),
        }
    }

    /// Fallible form of [`Lab::run_mix`]. The multithreaded run uses
    /// the fault plan installed via [`Lab::set_fault`] (if any); errors
    /// from either the faulted run or the normalization runs are
    /// returned instead of panicking, so a sweep can record the cell as
    /// failed and continue.
    pub fn try_run_mix(&mut self, mix_idx: usize, rob: RobConfig) -> Result<MixRun, SimError> {
        let norm = self.norm_table(&[mix_idx]);
        self.run_cell(mix_idx, rob, &norm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_lab() -> Lab {
        Lab::new(7).with_budgets(8_000, 8_000)
    }

    /// The reference IPC of slot `slot` of Mix 1, through phase 1.
    fn mix1_ipc(lab: &mut Lab, slot: usize) -> f64 {
        lab.norm_table(&[1])
            .get(1, slot)
            .expect("solo run succeeds")
    }

    #[test]
    fn cache_norm_table_is_memoized_and_positive() {
        let mut lab = small_lab();
        let a = lab.norm_table(&[1]);
        let b = lab.norm_table(&[1]);
        assert_eq!((a.runs(), b.runs()), (4, 0));
        for slot in 0..4 {
            let ipc = a.get(1, slot).unwrap();
            assert_eq!(ipc.to_bits(), b.get(1, slot).unwrap().to_bits());
            assert!(ipc > 0.0, "slot {slot}");
        }
    }

    #[test]
    fn run_mix_produces_consistent_metrics() {
        let mut lab = small_lab();
        let r = lab.run_mix(1, RobConfig::Baseline(32));
        assert_eq!(r.config, "Baseline_32");
        assert_eq!(r.ipc.len(), 4);
        assert!(r.ft > 0.0 && r.ft < 1.5, "ft = {}", r.ft);
        for (w, (mt, st)) in r.weighted.iter().zip(r.ipc.iter().zip(&r.single_ipc)) {
            assert!((w - mt / st).abs() < 1e-9);
            // Sharing a core can't speed a thread up beyond small
            // measurement noise.
            assert!(*w < 1.3, "weighted {w}");
        }
        assert!(r.twolevel.is_none());
    }

    #[test]
    fn two_level_run_reports_allocator_stats() {
        let mut lab = small_lab();
        let r = lab.run_mix(1, RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)));
        assert_eq!(r.config, "2-Level Relaxed R-ROB15");
        let tl = r.twolevel.expect("two-level stats");
        assert!(tl.allocations > 0, "memory-bound mix must allocate L2");
    }

    #[test]
    fn labels() {
        assert_eq!(RobConfig::Baseline(128).label(), "Baseline_128");
        assert_eq!(
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)).label(),
            "2-Level P-ROB5"
        );
        // A label names the allocator `build` makes, without making it.
        let committed = crate::committed_variants().expect("committed specs parse");
        for rob in committed.into_iter().map(|v| v.config) {
            assert_eq!(rob.label(), rob.build().name(), "{rob:?}");
        }
    }

    #[test]
    fn try_run_mix_surfaces_deadlock_as_typed_error() {
        let mut lab = small_lab();
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1; // every L2 fill lost: the first miss starves
        lab.set_fault(Some(1), plan);
        let err = lab
            .try_run_mix(1, RobConfig::Baseline(32))
            .expect_err("dropped fills must deadlock");
        match err {
            SimError::Deadlock { snapshot } => {
                assert_eq!(snapshot.deadlock_cycles, 3_000);
                assert!(!snapshot.threads.is_empty());
            }
            other => panic!("expected deadlock, got {other}"),
        }
        // The plan is scoped to mix 1; other mixes stay healthy.
        assert!(lab.try_run_mix(2, RobConfig::Baseline(32)).is_ok());
    }

    #[test]
    fn delay_faults_are_absorbed_and_counted() {
        let mut lab = small_lab();
        let mut plan = FaultPlan::new(9);
        plan.delay_fill = 2;
        plan.delay_cycles = 64;
        lab.set_fault(None, plan);
        let r = lab
            .try_run_mix(1, RobConfig::Baseline(32))
            .expect("slow DRAM is not a failure");
        assert!(r.faults.delayed_fills > 0, "plan never fired");
        lab.clear_faults();
        assert!(lab.fault_for(1).is_none());
    }

    #[test]
    fn cache_invalidated_by_st_budget_change() {
        let mut lab = small_lab();
        let a = mix1_ipc(&mut lab, 0);
        assert_eq!(lab.cached_norm_runs(), 4);
        // Regression: this used to hit the stale 8k-budget entry and
        // silently serve it for the 2k-budget request.
        lab.st_budget = 2_000;
        let b = mix1_ipc(&mut lab, 0);
        assert_eq!(lab.cached_norm_runs(), 8, "budget change must miss");
        assert_ne!(a, b, "stale normalization IPC served across budgets");
        // Restoring the budget serves the originally measured value.
        lab.st_budget = 8_000;
        assert_eq!(mix1_ipc(&mut lab, 0), a);
        assert_eq!(lab.cached_norm_runs(), 8);
    }

    #[test]
    fn cache_invalidated_by_seed_warmup_and_machine_changes() {
        let mut lab = small_lab();
        let base = mix1_ipc(&mut lab, 1);
        lab.seed = 8;
        let _ = mix1_ipc(&mut lab, 1);
        assert_eq!(lab.cached_norm_runs(), 8, "seed change must miss");
        lab.warmup = 4_000;
        let _ = mix1_ipc(&mut lab, 1);
        assert_eq!(lab.cached_norm_runs(), 12, "warm-up change must miss");
        lab.machine.mem.first_chunk += 400;
        let slow = mix1_ipc(&mut lab, 1);
        assert_eq!(lab.cached_norm_runs(), 16, "machine change must miss");
        // Slot 1 of Mix 1 is art (memory-bound): much slower DRAM must
        // change its alone-IPC, which the stale cache used to hide.
        assert_ne!(base, slow);
    }

    #[test]
    fn cache_distinguishes_configs_with_equal_labels() {
        let mut lab = small_lab();
        let a_cfg = TwoLevelConfig::r_rob(16);
        let mut b_cfg = a_cfg;
        b_cfg.l2_entries = 32;
        let a = RobConfig::TwoLevel(a_cfg);
        let b = RobConfig::TwoLevel(b_cfg);
        // Same display name, different machine: the old label-based
        // key collapsed these into one cache entry.
        assert_eq!(a.label(), b.label());
        assert_ne!(a.fingerprint(), b.fingerprint());
        lab.norm = a;
        let _ = mix1_ipc(&mut lab, 1);
        lab.norm = b;
        let _ = mix1_ipc(&mut lab, 1);
        assert_eq!(
            lab.cached_norm_runs(),
            8,
            "equal labels used to collide into one normalization entry"
        );
    }

    #[test]
    fn sweep_is_identical_serial_parallel_and_to_the_direct_api() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (2, RobConfig::Baseline(32)),
            (1, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
            (9, RobConfig::Baseline(128)),
        ];
        let run = |jobs: usize| {
            let mut lab = small_lab();
            lab.jobs = Some(jobs);
            format!("{:?}", lab.sweep_cells(&cells).results())
        };
        let serial = run(1);
        assert_eq!(serial, run(4), "job count changed sweep results");
        let mut lab = small_lab();
        let direct: Vec<Result<MixRun, SimError>> =
            cells.iter().map(|&(m, c)| lab.try_run_mix(m, c)).collect();
        assert_eq!(serial, format!("{direct:?}"));
    }

    #[test]
    fn sweep_isolates_panicking_cells() {
        let mut lab = small_lab();
        lab.jobs = Some(2);
        // Mix 99 does not exist: instantiating it panics. The sweep
        // must convert that to a typed per-cell error, not die.
        let rs = lab
            .sweep_cells(&[(1, RobConfig::Baseline(32)), (99, RobConfig::Baseline(32))])
            .results();
        assert!(rs[0].is_ok(), "healthy cell poisoned: {:?}", rs[0]);
        match &rs[1] {
            Err(SimError::CellPanic { reason }) => {
                assert!(reason.contains("out of range"), "{reason}");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
    }

    #[test]
    fn sweep_traced_isolates_panicking_cells() {
        let mut lab = small_lab();
        lab.jobs = Some(2);
        // Same poisoned-cell shape as the untraced sweep test, through
        // the traced engine: the panic must become a typed per-cell
        // error that downstream renderers show as `n/a`, and the
        // healthy cell's metrics must be exactly the untraced run's.
        let rs = lab.sweep_traced(&[(1, RobConfig::Baseline(32)), (99, RobConfig::Baseline(32))]);
        let traced = rs[0].as_ref().expect("healthy cell poisoned");
        assert!(!traced.events.is_empty(), "tracing was armed");
        assert_eq!(
            traced.episodes,
            smtsim_obs::EpisodeReconstructor::from_events(&traced.events),
            "episodes are the standard reduction of the cell's own stream"
        );
        match &rs[1] {
            Err(e @ SimError::CellPanic { reason }) => {
                assert!(reason.contains("out of range"), "{reason}");
                // The stable kind string the trace runner interpolates
                // into its `n/a (...)` row for a failed cell.
                assert_eq!(e.kind(), "panic");
            }
            other => panic!("expected CellPanic, got {other:?}"),
        }
        let untraced = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]).results();
        assert_eq!(
            format!("{:?}", traced.run),
            format!("{:?}", untraced[0].as_ref().expect("healthy cell")),
            "tracing perturbed the measured run"
        );
    }

    #[test]
    fn sweep_traced_is_identical_serial_and_parallel() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (99, RobConfig::Baseline(32)),
            (2, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
        ];
        let run = |jobs: usize| {
            let mut lab = small_lab();
            lab.jobs = Some(jobs);
            format!("{:?}", lab.sweep_traced(&cells))
        };
        assert_eq!(run(1), run(4), "job count changed traced sweep results");
    }

    #[test]
    fn norm_table_covers_requested_mixes_and_reports_missing() {
        let mut lab = small_lab();
        let t = lab.norm_table(&[2, 1, 1]);
        assert_eq!(t.len(), 8, "4 slots per mix, duplicates collapsed");
        assert!(!t.is_empty());
        assert!(t.get(1, 3).is_ok());
        let missing = t.get(5, 0).expect_err("mix 5 was not requested");
        assert_eq!(missing.kind(), "invalid-config");
    }

    #[test]
    fn foreign_norm_table_is_refused() {
        let seven = small_lab().with_warmup(2_000);
        let table = small_lab().with_warmup(2_000).norm_table(&[1]);
        assert!(seven.run_cell(1, RobConfig::Baseline(32), &table).is_ok());
        // A seed-8 lab must not normalize against seed-7 IPCs, nor
        // reuse the bounds of seed-7 programs.
        let mut eight = small_lab().with_warmup(2_000);
        eight.seed = 8;
        let err = eight
            .run_cell(1, RobConfig::Baseline(32), &table)
            .expect_err("a seed-7 table used on a seed-8 lab");
        assert_eq!(err.kind(), "invalid-config");
        assert!(err.to_string().contains("another lab state"), "{err}");
        // Every field of the recorded state is checked.
        let mutations: [fn(&mut Lab); 4] = [
            |l| l.st_budget = 4_000,
            |l| l.warmup = 1_000,
            |l| l.norm = RobConfig::Baseline(128),
            |l| l.machine.mem.first_chunk += 1,
        ];
        for mutate in mutations {
            let mut other = small_lab().with_warmup(2_000);
            mutate(&mut other);
            let err = other
                .run_cell(1, RobConfig::Baseline(32), &table)
                .expect_err("a mutated lab");
            assert_eq!(err.kind(), "invalid-config");
        }
        // A table merged from another state is ignored, and seeding
        // one keys its IPCs under their own state, so they never hit.
        let mut merged = eight.norm_table(&[2]);
        merged.merge(&table);
        assert!(merged.get(1, 0).is_err(), "foreign entries were merged");
        let before = eight.cached_norm_runs();
        eight.seed_norm_cache(&table);
        let _ = eight.norm_table(&[1]);
        assert_eq!(
            eight.cached_norm_runs(),
            before + 2 * 4,
            "seed-7 IPCs served to seed 8"
        );
    }

    #[test]
    fn static_bounds_are_computed_once_per_program() {
        let mut lab = small_lab().with_warmup(2_000);
        let solo = |t: &NormTable, m: usize, slot: usize| -> Arc<Solo> {
            t.programs[&t.slots[&(m, slot)]]
                .clone()
                .expect("solo run succeeds")
        };
        // Mixes 1 and 3 share ammp at slot 0: 7 programs, each analyzed
        // once, by the solo run that measured it, whose entry every mix
        // naming the program reads.
        let cold = lab.norm_table(&[1, 3]);
        assert_eq!(cold.runs(), 7);
        assert!(Arc::ptr_eq(&solo(&cold, 1, 0), &solo(&cold, 3, 0)));
        for m in [1, 3] {
            for (slot, w) in mix(m).instantiate(lab.seed).iter().enumerate() {
                assert_eq!(
                    format!("{:?}", solo(&cold, m, slot).bounds),
                    format!("{:?}", static_bounds(w)),
                    "mix {m} slot {slot}"
                );
            }
        }
        // A phase 1 the memo fully serves runs nothing and hands out
        // the cold run's entries, bounds included.
        let warm = lab.norm_table(&[1, 3]);
        assert_eq!(warm.runs(), 0);
        for (m, slot) in cold.slots.keys().copied() {
            assert!(
                Arc::ptr_eq(&solo(&cold, m, slot), &solo(&warm, m, slot)),
                "mix {m} slot {slot}"
            );
        }
        // A cell on the memo-served table runs identically to one on a
        // fresh table.
        let cfg = RobConfig::TwoLevel(TwoLevelConfig::r_rob(16));
        let memo = lab.run_cell(3, cfg, &warm).unwrap();
        let fresh_table = small_lab().with_warmup(2_000).norm_table(&[3]);
        let fresh = lab.run_cell(3, cfg, &fresh_table).unwrap();
        assert_eq!(format!("{memo:?}"), format!("{fresh:?}"));
    }

    /// A lab small enough that normalizing all eleven mixes is quick.
    fn tiny_lab() -> Lab {
        Lab::new(7).with_budgets(2_000, 2_000).with_warmup(1_000)
    }

    #[test]
    fn cache_norm_table_runs_each_program_once() {
        let mut lab = tiny_lab().with_jobs(Some(2));
        let all: Vec<usize> = (1..=11).collect();
        let table = lab.norm_table(&all);
        // The 44 slots name 29 programs: 29 solo runs, not 44.
        assert_eq!(table.len(), 44);
        assert_eq!(table.runs(), 29);
        assert_eq!(lab.cached_norm_runs(), 29);
        let again = lab.norm_table(&all);
        assert_eq!(again.runs(), 0, "every program is memoized");
        assert_eq!(lab.cached_norm_runs(), 29);
    }

    #[test]
    fn cache_shared_programs_are_bit_identical_across_mixes() {
        let mut lab = tiny_lab();
        let table = lab.norm_table(&(1..=11).collect::<Vec<_>>());
        let ammp: Vec<u64> = [1, 3, 5, 7]
            .iter()
            .map(|&m| table.get(m, 0).unwrap().to_bits())
            .collect();
        assert!(ammp.iter().all(|&b| b == ammp[0]), "{ammp:?}");
        // Every slot, measured in a lab that has never run its program,
        // reads the bits the shared entry holds.
        for m in 1..=11 {
            let alone = tiny_lab().norm_table(&[m]);
            for slot in 0..4 {
                assert_eq!(
                    alone.get(m, slot).unwrap().to_bits(),
                    table.get(m, slot).unwrap().to_bits(),
                    "mix {m} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn cache_norm_table_is_identical_at_any_job_count() {
        let all: Vec<usize> = (1..=11).collect();
        let table = |jobs| format!("{:?}", tiny_lab().with_jobs(Some(jobs)).norm_table(&all));
        assert_eq!(table(1), table(4), "job count changed the table");
    }

    #[test]
    fn cache_failed_solo_run_reaches_every_slot_and_is_not_memoized() {
        let mut lab = tiny_lab();
        lab.machine.iq_size = 0;
        // Mixes 1, 3, 5 and 7 name 12 programs, ammp at slot 0 in all.
        let table = lab.norm_table(&[1, 3, 5, 7]);
        assert_eq!(table.runs(), 12);
        for m in [1, 3, 5, 7] {
            let err = table.get(m, 0).expect_err("the solo run failed");
            assert_eq!(err.kind(), "invalid-config", "mix {m}: {err}");
            assert!(err.to_string().contains("iq_size"), "mix {m}: {err}");
        }
        assert_eq!(lab.cached_norm_runs(), 0, "an error was memoized");
        assert_eq!(lab.norm_table(&[1, 3, 5, 7]).runs(), 12, "failures rerun");
    }

    #[test]
    fn repeated_cells_run_once_and_fan_back_out_in_input_order() {
        let b32 = RobConfig::Baseline(32);
        let r16 = RobConfig::TwoLevel(TwoLevelConfig::r_rob(16));
        let cells = [(1, b32), (9, b32), (1, b32), (1, r16), (9, b32)];
        let unique = [(1, b32), (9, b32), (1, r16)];
        let back = [0, 1, 0, 2, 1];
        let lab = || small_lab().with_warmup(2_000);
        let reference = lab().sweep_cells(&unique).results();
        let expected: Vec<_> = back.iter().map(|&i| &reference[i]).collect();
        for jobs in [1, 4] {
            let dir = std::env::temp_dir().join(format!(
                "smtsim-repeated-cells-{jobs}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            for cache in [None, Some(Arc::new(ResultCache::new(&dir)))] {
                let mut lab = lab().with_jobs(Some(jobs)).with_cache(cache.clone());
                let report = lab.sweep_cells(&cells);
                assert_eq!(report.health.total(), 5, "jobs {jobs}");
                assert_eq!(report.health.ok, 5, "jobs {jobs}");
                assert_eq!(
                    format!("{:?}", report.results()),
                    format!("{expected:?}"),
                    "jobs {jobs}"
                );
                if cache.is_some() {
                    let shard = lab.cache_shard().unwrap().expect("cache armed");
                    let text = std::fs::read_to_string(shard.path()).unwrap();
                    // One header line plus one record per distinct cell.
                    assert_eq!(text.lines().count(), 1 + 3, "jobs {jobs}: {text}");
                }
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn deterministic_runs() {
        let ft = || {
            let mut lab = small_lab();
            lab.run_mix(2, RobConfig::Baseline(32)).ft
        };
        assert_eq!(ft(), ft());
    }

    #[test]
    fn sweep_health_is_a_pure_fold_over_outcomes() {
        let ok = |attempts, from_journal| CellOutcome {
            result: Ok(MixRun {
                mix: "m".into(),
                config: "c".into(),
                ipc: vec![],
                single_ipc: vec![],
                weighted: vec![],
                ft: 0.0,
                throughput: 0.0,
                stats: SimStats::new(0),
                twolevel: None,
                faults: FaultStats::default(),
            }),
            attempts,
            from_journal,
            run_json: None,
        };
        let timeout = CellOutcome {
            result: Err(SimError::CellTimeout {
                cycle: 9,
                detail: "x".into(),
            }),
            attempts: 3,
            from_journal: false,
            run_json: None,
        };
        let failed = CellOutcome {
            result: Err(SimError::InvalidConfig {
                reason: "bad".into(),
            }),
            attempts: 1,
            from_journal: false,
            run_json: None,
        };
        let outcomes = [ok(1, false), ok(2, true), timeout, failed];
        let h = SweepHealth::from_outcomes(&outcomes);
        assert_eq!(
            h,
            SweepHealth {
                ok: 2,
                retried: 1,
                timed_out: 1,
                failed: 1,
                extra_attempts: 3,
            }
        );
        assert_eq!(h.total(), 4);
        assert!(!h.all_ok());
        assert_eq!(
            h.summary_line(),
            "sweep health: 2 ok (1 retried), 1 timed out, 1 failed"
        );
    }

    #[test]
    fn transient_fault_is_recovered_by_retry_and_reported() {
        let cells = [
            (1usize, RobConfig::Baseline(32)),
            (2usize, RobConfig::Baseline(32)),
        ];
        // Reference: the same lab with no fault and no retries.
        let clean = small_lab().sweep_cells(&cells).results();
        // Fault plan that deadlocks mix 1 — but only on attempt 1.
        let mut lab = small_lab();
        lab.retries = 2;
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1;
        lab.set_transient_fault(1, plan, 1);
        let mut clean_faulty_machine = small_lab();
        clean_faulty_machine.machine.deadlock_cycles = 3_000;
        let clean = {
            // Deadlock-cycle setting changes the machine, so rebuild
            // the reference under the identical machine config.
            let _ = clean;
            clean_faulty_machine.sweep_cells(&cells).results()
        };
        let report = lab.sweep_cells(&cells);
        assert_eq!(
            report.health,
            SweepHealth {
                ok: 2,
                retried: 1,
                timed_out: 0,
                failed: 0,
                extra_attempts: 1,
            }
        );
        assert_eq!(report.outcomes[0].attempts, 2, "mix 1 needed a retry");
        assert_eq!(report.outcomes[1].attempts, 1);
        // The recovered cell is byte-identical to a never-faulted run.
        let healed = report.results();
        for (a, b) in healed.iter().zip(&clean) {
            assert_eq!(
                format!("{:?}", a.as_ref().unwrap()),
                format!("{:?}", b.as_ref().unwrap())
            );
        }
    }

    #[test]
    fn persistent_transient_fault_exhausts_retries() {
        // A "transient" plan active through every attempt never heals:
        // retries are spent, the final result is the typed error.
        let mut lab = small_lab();
        lab.retries = 1;
        lab.machine.deadlock_cycles = 3_000;
        let mut plan = FaultPlan::new(5);
        plan.drop_fill = 1;
        lab.set_transient_fault(1, plan, u32::MAX);
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]);
        assert_eq!(report.outcomes[0].attempts, 2, "both attempts spent");
        assert!(matches!(
            report.outcomes[0].result,
            Err(SimError::Deadlock { .. })
        ));
        assert_eq!(report.health.failed, 1);
        assert_eq!(report.health.extra_attempts, 1);
    }

    #[test]
    fn cycle_budget_renders_cells_as_timeouts_without_poisoning_others() {
        let mut lab = small_lab();
        lab.cell_cycle_budget = Some(500);
        assert!(lab.resilience_active());
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32)), (2, RobConfig::Baseline(32))]);
        // 8k committed instructions cannot fit in 500 cycles: every
        // cell times out, deterministically at cycle 500.
        assert_eq!(report.health.timed_out, 2);
        for o in &report.outcomes {
            match &o.result {
                Err(SimError::CellTimeout { cycle, .. }) => assert_eq!(*cycle, 500),
                other => panic!("expected timeout, got {other:?}"),
            }
        }
        // Timeouts are transient: with retries they are re-attempted
        // (and still time out — the budget is part of the universe).
        lab.retries = 1;
        let report = lab.sweep_cells(&[(1, RobConfig::Baseline(32))]);
        assert_eq!(report.outcomes[0].attempts, 2);
        assert_eq!(report.health.timed_out, 1);
    }

    #[test]
    fn resilient_sweep_with_idle_knobs_matches_plain_sweep() {
        let cells: Vec<SweepCell> = vec![
            (1, RobConfig::Baseline(32)),
            (1, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
            (2, RobConfig::Baseline(32)),
        ];
        let plain = small_lab().sweep_cells(&cells).results();
        // Generous budgets and armed retries that never fire must not
        // change a single byte of the results.
        let mut lab = small_lab();
        lab.cell_cycle_budget = Some(u64::MAX);
        lab.cell_wall_ms = Some(3_600_000);
        lab.retries = 3;
        let resilient = lab.sweep_cells(&cells);
        assert_eq!(resilient.health.ok, 3);
        assert_eq!(resilient.health.retried, 0);
        assert_eq!(resilient.journal_hits(), 0);
        assert_eq!(format!("{:?}", resilient.results()), format!("{plain:?}"));
    }

    #[test]
    fn journal_skips_completed_cells_and_survives_universe_changes() {
        let dir = std::env::temp_dir().join(format!("smtsim-cache-unit-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Some(Arc::new(ResultCache::new(&dir)));
        let cells = [
            (1usize, RobConfig::Baseline(32)),
            (2usize, RobConfig::Baseline(32)),
        ];
        let plain = small_lab().sweep_cells(&cells).results();
        let mut lab = small_lab().with_cache(cache.clone());
        let shard = lab.cache_shard().unwrap().expect("cache armed");
        assert!(shard.is_empty(), "fresh shard is empty");
        let first = lab.sweep_cells(&cells);
        assert_eq!(first.journal_hits(), 0);
        assert_eq!(first.norm_runs, 8, "Mixes 1 and 2 share no program");
        // Second sweep over the same universe: both cells come from
        // the cache, and the bytes are identical to a plain sweep.
        let second = lab.sweep_cells(&cells);
        assert_eq!(second.journal_hits(), 2);
        assert_eq!(second.health, first.health);
        assert_eq!(format!("{:?}", second.results()), format!("{plain:?}"));
        // A resumed sweep on a fresh cache, so with no solo run
        // memoized, whose cells all hit normalizes no mix.
        let resumed = small_lab()
            .with_cache(Some(Arc::new(ResultCache::new(&dir))))
            .sweep_cells(&cells);
        assert_eq!(resumed.journal_hits(), 2);
        assert_eq!(resumed.norm_runs, 0, "an all-hit resume ran phase 1");
        assert_eq!(format!("{:?}", resumed.results()), format!("{plain:?}"));
        // Mutating the lab moves it to a new universe: its sweeps
        // address a different, empty shard and never see the old cells.
        lab.mt_budget = 4_000;
        let moved = lab.cache_shard().unwrap().expect("cache armed");
        assert_ne!(moved.path(), shard.path());
        assert!(moved.is_empty());
        let rerun = lab.sweep_cells(&cells);
        assert_eq!(rerun.journal_hits(), 0);
        // The solo runs do not depend on the multithreaded budget, so
        // the cache's memo still serves them.
        assert_eq!(rerun.norm_runs, 0);
        assert_eq!(shard.len(), 2, "the old shard is untouched");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_plan_normalizes_only_mixes_with_a_missing_cell() {
        let dir = std::env::temp_dir().join(format!("smtsim-cache-plan-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b32 = RobConfig::Baseline(32);
        let filled = small_lab()
            .with_cache(Some(Arc::new(ResultCache::new(&dir))))
            .sweep_cells(&[(1, b32)]);
        // A fresh cache on the same directory: its shard holds Mix 1's
        // cell and its solo-run memo is empty.
        let mut lab = small_lab().with_cache(Some(Arc::new(ResultCache::new(&dir))));
        assert_eq!(lab.cached_norm_runs(), 0);
        let plan = lab.plan(&[(1, b32), (2, b32)]).expect("shard opens");
        assert_eq!(plan.norm_runs(), 4, "only Mix 2's programs run alone");
        assert_eq!(plan.universe(), Some(lab.journal_universe().as_str()));
        let hit = plan.cached(0).expect("Mix 1's cell is on file");
        assert!(hit.from_journal);
        assert_eq!(
            format!("{:?}", hit.result),
            format!("{:?}", filled.outcomes[0].result)
        );
        // The hit carries the text the filling run appended.
        assert_eq!(hit.run_json, filled.outcomes[0].run_json);
        assert!(plan.cached(1).is_none());
        // Running the missing cell appends it, so the plan serves it,
        // with the very text the run carries.
        let (ran, append_error) = lab.run_planned(&plan, 1);
        assert!(append_error.is_none());
        assert!(ran.result.is_ok() && !ran.from_journal);
        let text = ran.run_json.as_deref().expect("an appended run's text");
        assert_eq!(text, journal::mix_run_to_json(ran.result.as_ref().unwrap()));
        assert_eq!(plan.cached(1).unwrap().run_json.as_deref(), Some(text));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
