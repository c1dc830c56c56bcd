//! The daemon: socket accept loop, request admission, the fair
//! work-stealing cell scheduler and the per-request streaming state
//! machine. Protocol shapes live in [`crate::protocol`], persistence
//! in [`smtsim_rob2::cache`].
//!
//! Threading model:
//!
//! * **accept loop** (1 thread) — accepts connections and hands each
//!   to its own connection thread; never blocks on request work, so a
//!   full admission queue still answers `queue-full` immediately.
//! * **connection threads** (1 per live client) — parse the request,
//!   run admission + spec lowering + the *serial* phase-1
//!   normalization (through the cache's solo-run memo, so solo runs
//!   an earlier request made under the same normalization state are
//!   not repeated, and only for mixes with a cell the cache cannot
//!   serve), enqueue the request's cells,
//!   then stream completions back in completion order and finish with
//!   the figure rendered from those outcomes.
//! * **worker pool** (N threads) — pull one cell at a time, round-
//!   robin across admitted requests (fair multi-client progress).
//!   Cache hits resolve under the scheduler lock; misses run the cell
//!   through [`Lab::run_cell_with_retries`] outside any lock — full
//!   watchdog/panic-isolation/retry semantics — and append to the
//!   shard journal. A cell another request is *already computing* is
//!   deferred (single-flight) and re-armed as a cache hit when the
//!   computation lands.
//!
//! Lock order is `sched` before `metrics`; journal internals are leaf
//! locks. Cancellation is cooperative end to end: client EOF trips the
//! request's [`CancelToken`], queued cells resolve as `cancelled`
//! immediately and a running cell aborts at the next watchdog poll.

use crate::protocol::{self, error_kind, CellStatus, DoneStats, Request, SpecSource};
use smtsim_obs::{MetricsRegistry, NoopTracer};
use smtsim_pipeline::{CancelToken, SimError};
use smtsim_rob2::journal::{cell_key, mix_run_to_json};
use smtsim_rob2::{
    figures, report, CellOutcome, ExperimentSpec, Journal, JournalError, Knobs, Lab,
};
use smtsim_rob2::{NormTable, ResultCache, RobConfig, SpecKind, SweepReport};
use std::collections::{BTreeSet, VecDeque};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};

/// Poison-tolerant lock: a panicking holder must not cascade into
/// every other daemon thread (the data is counters and queues whose
/// invariants the scheduler re-checks on every pop).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Daemon configuration — a typed struct, not environment variables:
/// the bench layer owns the env funnel and builds one of these.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on (a stale file is replaced).
    pub socket: PathBuf,
    /// Persistent cache directory (created if missing).
    pub cache_dir: PathBuf,
    /// Admission bound: maximum concurrently admitted requests; the
    /// next submission is rejected `queue-full` (retryable).
    pub queue_limit: usize,
    /// Worker threads for the cell pool; `0` = available parallelism.
    pub workers: usize,
    /// Directory for `{"spec":"<id>"}` registry submissions; `None`
    /// accepts inline `spec_toml` only.
    pub spec_dir: Option<PathBuf>,
}

impl ServeConfig {
    /// The effective worker-pool size.
    #[must_use]
    pub fn effective_workers(&self) -> usize {
        if self.workers > 0 {
            return self.workers;
        }
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    }
}

/// How the daemon turns a parsed figure spec into the lab (and mix
/// list) its cells run under. [`Knobs`] implements it with the one
/// lowering the offline bins use ([`Knobs::with_spec`] then
/// [`Knobs::lab_for_spec`]), which is what makes served bytes
/// identical to the offline `spec` bin; the trait is the seam a test
/// wraps to stall admission.
pub trait SpecLowering: Send + Sync {
    /// Lowers `spec` to a ready lab plus the mix indices to sweep.
    fn lower(&self, spec: &ExperimentSpec) -> (Lab, Vec<usize>);
}

impl SpecLowering for Knobs {
    fn lower(&self, spec: &ExperimentSpec) -> (Lab, Vec<usize>) {
        let merged = self.with_spec(spec);
        let lab = merged.lab_for_spec(spec);
        (lab, merged.mixes)
    }
}

/// One cell of an admitted request's matrix.
struct CellJob {
    mix: usize,
    config: RobConfig,
    /// Series label (client display; the journal key is value-based).
    label: String,
    /// Content-addressed cache key: `mix|config-fingerprint`.
    key: String,
}

/// What a worker (or the cancel path) reports back to the request's
/// connection thread.
enum CellMsg {
    Done {
        idx: usize,
        cached: bool,
        attempts: u32,
        result: Box<Result<smtsim_rob2::MixRun, SimError>>,
    },
    Cancelled {
        idx: usize,
    },
}

/// Immutable per-request execution state, shared between the
/// connection thread, the scheduler and the workers.
struct RequestRun {
    id: u64,
    lab: Lab,
    mixes: Vec<usize>,
    norm: NormTable,
    journal: Arc<Journal>,
    universe: String,
    cells: Vec<CellJob>,
    cancel: CancelToken,
    tx: mpsc::Sender<CellMsg>,
}

/// A request's position in the scheduler: cells not yet claimed.
struct Entry {
    req: Arc<RequestRun>,
    /// Cells ready to claim, in matrix order.
    pending: VecDeque<usize>,
    /// Cells whose key is being computed by another request right now
    /// (single-flight); re-armed into `pending` on any completion.
    deferred: Vec<usize>,
}

/// Scheduler state under one lock.
struct Sched {
    /// Entries with claimable cells, round-robin order.
    queue: VecDeque<Entry>,
    /// Entries whose remaining cells are all deferred.
    parked: Vec<Entry>,
    /// `(universe, key)` pairs being computed right now.
    inflight: BTreeSet<(String, String)>,
    /// Cells currently executing in workers.
    running: usize,
    /// Admitted (accepted, not yet finished) submit requests.
    admitted: usize,
    /// Set once drain completes: workers exit instead of sleeping.
    stop_workers: bool,
}

struct Shared {
    config: ServeConfig,
    lowering: Box<dyn SpecLowering>,
    cache: Arc<ResultCache>,
    metrics: Mutex<MetricsRegistry>,
    sched: Mutex<Sched>,
    /// Wakes workers when cells become claimable (or on stop).
    work_cv: Condvar,
    /// Wakes drain waiters when `admitted` drops.
    drain_cv: Condvar,
    /// Set while draining: new submissions answer `shutting-down`.
    shutdown: AtomicBool,
    /// Set when the accept loop must exit on its next wake-up.
    stopped: AtomicBool,
    next_request: AtomicU64,
    /// Live connection threads, joined at shutdown. Finished ones are
    /// dropped on every accept, so the list stays as short as the
    /// number of concurrent clients.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

impl Shared {
    fn bump(&self, key: &str) {
        lock(&self.metrics).bump(key);
    }

    fn bump_by(&self, key: &str, n: u64) {
        lock(&self.metrics).bump_by(key, n);
    }
}

/// A running daemon. Dropping the handle does *not* stop the daemon —
/// call [`Server::shutdown`] (programmatic) or send the protocol
/// `shutdown` op and then [`Server::wait`].
pub struct Server {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds the socket, opens the cache directory and starts the
    /// accept loop plus worker pool.
    pub fn start(config: ServeConfig, lowering: Box<dyn SpecLowering>) -> std::io::Result<Server> {
        std::fs::create_dir_all(&config.cache_dir)?;
        let cache = Arc::new(ResultCache::new(&config.cache_dir));
        if config.socket.exists() {
            std::fs::remove_file(&config.socket)?;
        }
        let listener = UnixListener::bind(&config.socket)?;
        let workers_n = config.effective_workers();
        let shared = Arc::new(Shared {
            config,
            lowering,
            cache,
            metrics: Mutex::new(MetricsRegistry::new()),
            sched: Mutex::new(Sched {
                queue: VecDeque::new(),
                parked: Vec::new(),
                inflight: BTreeSet::new(),
                running: 0,
                admitted: 0,
                stop_workers: false,
            }),
            work_cv: Condvar::new(),
            drain_cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            stopped: AtomicBool::new(false),
            next_request: AtomicU64::new(1),
            conns: Mutex::new(Vec::new()),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let sh = shared.clone();
                thread::spawn(move || worker_loop(&sh))
            })
            .collect();
        let sh = shared.clone();
        let accept = thread::spawn(move || accept_loop(&sh, &listener));
        Ok(Server {
            shared,
            accept: Some(accept),
            workers,
        })
    }

    /// The socket the daemon listens on.
    #[must_use]
    pub fn socket(&self) -> PathBuf {
        self.shared.config.socket.clone()
    }

    /// A metrics counter, for in-process embedders and tests.
    #[must_use]
    pub fn counter(&self, key: &str) -> u64 {
        lock(&self.shared.metrics).counter(key)
    }

    /// Blocks until a protocol `shutdown` has drained the daemon, then
    /// joins every thread and removes the socket file.
    pub fn wait(mut self) {
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.join_rest();
    }

    /// Programmatic graceful shutdown: stop admitting, finish every
    /// admitted request, stop the pool and the accept loop, join all
    /// threads, remove the socket file.
    pub fn shutdown(mut self) {
        drain(&self.shared);
        stop(&self.shared);
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        self.join_rest();
    }

    fn join_rest(&mut self) {
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        let conns = std::mem::take(&mut *lock(&self.shared.conns));
        for h in conns {
            let _ = h.join();
        }
        let _ = std::fs::remove_file(&self.shared.config.socket);
    }
}

/// Blocks until every admitted request has finished. Entered with
/// [`Shared::shutdown`] already (or herewith) set so no new request
/// can be admitted behind the wait.
fn drain(shared: &Shared) {
    shared.shutdown.store(true, Ordering::SeqCst);
    let mut sched = lock(&shared.sched);
    while sched.admitted > 0 {
        sched = shared
            .drain_cv
            .wait(sched)
            .unwrap_or_else(|e| e.into_inner());
    }
}

/// Stops the worker pool and kicks the accept loop awake so it can
/// observe [`Shared::stopped`].
fn stop(shared: &Shared) {
    {
        let mut sched = lock(&shared.sched);
        sched.stop_workers = true;
    }
    shared.work_cv.notify_all();
    shared.stopped.store(true, Ordering::SeqCst);
    let _ = UnixStream::connect(&shared.config.socket);
}

fn accept_loop(shared: &Arc<Shared>, listener: &UnixListener) {
    for stream in listener.incoming() {
        if shared.stopped.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let sh = shared.clone();
        let handle = thread::spawn(move || handle_connection(&sh, stream));
        let mut conns = lock(&shared.conns);
        conns.retain(|h| !h.is_finished());
        conns.push(handle);
    }
}

/// Writes one response line; returns false when the client is gone.
fn send_line(stream: &mut UnixStream, line: &str) -> bool {
    stream
        .write_all(line.as_bytes())
        .and_then(|()| stream.write_all(b"\n"))
        .is_ok()
}

fn handle_connection(shared: &Arc<Shared>, mut stream: UnixStream) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(read_half);
    let mut line = String::new();
    if reader.read_line(&mut line).unwrap_or(0) == 0 {
        return;
    }
    let request = match protocol::parse_request(&line) {
        Ok(r) => r,
        Err(reason) => {
            send_line(
                &mut stream,
                &protocol::error_line(error_kind::INVALID_REQUEST, &reason),
            );
            return;
        }
    };
    match request {
        Request::Ping => {
            send_line(&mut stream, "{\"type\":\"pong\"}");
        }
        Request::Metrics => {
            let (active, running) = {
                let sched = lock(&shared.sched);
                (sched.admitted, sched.running)
            };
            let counters: Vec<(String, u64)> = lock(&shared.metrics)
                .counters()
                .map(|(k, v)| (k.to_string(), v))
                .collect();
            send_line(
                &mut stream,
                &protocol::metrics_line(&counters, active, running),
            );
        }
        Request::Shutdown => {
            send_line(&mut stream, "{\"type\":\"draining\"}");
            drain(shared);
            stop(shared);
            send_line(&mut stream, "{\"type\":\"bye\"}");
        }
        Request::Submit(source) => handle_submit(shared, stream, &source),
    }
}

/// A submit rejection: protocol error kind + reason.
struct Reject {
    kind: &'static str,
    reason: String,
}

fn handle_submit(shared: &Arc<Shared>, mut stream: UnixStream, source: &SpecSource) {
    if shared.shutdown.load(Ordering::SeqCst) {
        send_line(
            &mut stream,
            &protocol::error_line(error_kind::SHUTTING_DOWN, "daemon is draining"),
        );
        return;
    }
    // Admission — the *only* gate a new request can block other
    // clients on, and it is a constant-time counter check.
    {
        let mut sched = lock(&shared.sched);
        if sched.admitted >= shared.config.queue_limit {
            drop(sched);
            shared.bump("serve.queue_rejections");
            send_line(
                &mut stream,
                &protocol::error_line(
                    error_kind::QUEUE_FULL,
                    &format!(
                        "{} request(s) admitted (limit {})",
                        shared.config.queue_limit, shared.config.queue_limit
                    ),
                ),
            );
            return;
        }
        sched.admitted += 1;
    }
    // From here on every path must release the admission slot.
    run_admitted(shared, &mut stream, source);
    {
        let mut sched = lock(&shared.sched);
        sched.admitted -= 1;
    }
    shared.drain_cv.notify_all();
}

/// The admitted-request body: resolve → lower → normalize → enqueue →
/// stream → render. Any early error is answered as a typed line.
fn run_admitted(shared: &Arc<Shared>, stream: &mut UnixStream, source: &SpecSource) {
    let spec = match resolve_spec(shared, source) {
        Ok(s) => s,
        Err(r) => {
            send_line(stream, &protocol::error_line(r.kind, &r.reason));
            return;
        }
    };
    let (tx, rx) = mpsc::channel();
    let req = match prepare_request(shared, &spec, tx) {
        Ok(p) => p,
        Err(r) => {
            send_line(stream, &protocol::error_line(r.kind, &r.reason));
            return;
        }
    };
    let id = req.id;
    shared.bump("serve.requests");
    if !send_line(
        stream,
        &protocol::accepted_line(id, req.cells.len(), &req.universe),
    ) {
        // Client vanished before the stream even started.
        return;
    }

    let cells_n = req.cells.len();
    enqueue(shared, &req);
    spawn_disconnect_watch(shared, stream, &req);

    // Stream completions. Exactly one message arrives per cell, from
    // either a worker or the cancellation path.
    let mut stats = DoneStats::default();
    let mut outcomes: Vec<Option<CellOutcome>> = (0..cells_n).map(|_| None).collect();
    let mut client_gone = false;
    for _ in 0..cells_n {
        let Ok(msg) = rx.recv() else {
            break;
        };
        let line = match msg {
            CellMsg::Cancelled { idx } => {
                stats.cancelled += 1;
                let c = &req.cells[idx];
                protocol::cell_line(
                    idx,
                    c.mix,
                    &c.label,
                    &c.key,
                    false,
                    0,
                    &CellStatus::Cancelled,
                )
            }
            CellMsg::Done {
                idx,
                cached,
                attempts,
                result,
            } => {
                if cached {
                    stats.cache_hits += 1;
                } else {
                    stats.cache_misses += 1;
                }
                let status = match &*result {
                    Ok(run) => CellStatus::Ok {
                        run_json: mix_run_to_json(run),
                    },
                    Err(e) => {
                        stats.failed += 1;
                        CellStatus::Failed {
                            error: e.to_string(),
                        }
                    }
                };
                let c = &req.cells[idx];
                let line =
                    protocol::cell_line(idx, c.mix, &c.label, &c.key, cached, attempts, &status);
                outcomes[idx] = Some(CellOutcome {
                    result: *result,
                    attempts,
                    from_journal: cached,
                });
                line
            }
        };
        if !client_gone && !send_line(stream, &line) {
            // Broken pipe: cancel the rest, but keep draining our
            // channel so the per-cell accounting stays complete.
            client_gone = true;
            req.cancel.cancel();
            cancel_request(shared, id);
        }
    }

    // Every cell has an outcome unless the request was cancelled.
    let outcomes: Option<Vec<CellOutcome>> = outcomes.into_iter().collect();
    let (Some(outcomes), false) = (outcomes, client_gone || req.cancel.is_cancelled()) else {
        shared.bump("serve.requests_cancelled");
        return;
    };
    // Terminal line: the figure assembled from the streamed outcomes
    // by the same code the offline spec bin renders through.
    let fig = figures::ft_figure_from(&req.lab, &spec, &req.mixes, SweepReport::new(outcomes));
    let figure = report::render_figure(&fig);
    send_line(stream, &protocol::done_line(id, cells_n, &stats, &figure));
    shared.bump("serve.requests_completed");
    // Release the disconnect watcher's read so read-to-EOF clients see
    // the stream end right after the terminal line (the watcher holds
    // a duplicate of this socket that would otherwise stay open until
    // the client hangs up first).
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// Resolves the submitted spec source to a parsed, figure-kind spec.
fn resolve_spec(shared: &Shared, source: &SpecSource) -> Result<ExperimentSpec, Reject> {
    let spec = match source {
        SpecSource::Registry(id) => {
            let Some(dir) = shared.config.spec_dir.as_ref() else {
                return Err(Reject {
                    kind: error_kind::INVALID_CONFIG,
                    reason: "daemon has no spec registry; submit spec_toml instead".into(),
                });
            };
            ExperimentSpec::load(&dir.join(format!("{id}.toml"))).map_err(|e| Reject {
                kind: error_kind::INVALID_CONFIG,
                reason: e.to_string(),
            })?
        }
        SpecSource::Inline(body) => {
            ExperimentSpec::parse("<request>", body).map_err(|e| Reject {
                kind: error_kind::INVALID_CONFIG,
                reason: e.to_string(),
            })?
        }
    };
    if spec.kind != SpecKind::Figure {
        return Err(Reject {
            kind: error_kind::UNSUPPORTED_KIND,
            reason: format!(
                "spec {} has kind {:?}; only figure specs are servable",
                spec.id, spec.kind
            ),
        });
    }
    Ok(spec)
}

/// Lowers the spec onto the daemon's cache, opens the universe's shard
/// and runs the serial phase-1 normalization for the mixes the shard
/// cannot serve yet. `tx` is the completion channel
/// the connection thread keeps the receiver of.
fn prepare_request(
    shared: &Shared,
    spec: &ExperimentSpec,
    tx: mpsc::Sender<CellMsg>,
) -> Result<Arc<RequestRun>, Reject> {
    let (lab, mixes) = shared.lowering.lower(spec);
    let cancel = CancelToken::new();
    // Content addressing: identity is the lowered lab state (see
    // `smtsim_rob2::cache`), and the daemon's cache replaces any
    // env-armed one. One job: the worker pool is the daemon's
    // parallelism, so phase 1 stays serial on this connection thread.
    let mut lab = lab
        .with_cancel_token(Some(cancel.clone()))
        .with_cache(Some(shared.cache.clone()))
        .with_jobs(Some(1));
    let universe = lab.journal_universe();
    let journal = shared.cache.shard(&universe).map_err(|e| Reject {
        kind: match e {
            JournalError::Corrupt { .. } => error_kind::JOURNAL_CORRUPT,
            _ => error_kind::CACHE_IO,
        },
        reason: e.to_string(),
    })?;
    // The cell matrix the offline executor sweeps, in its order; a
    // figure spec's cells are scheme-major, which pairs each with its
    // series label.
    let labels = spec
        .variants
        .iter()
        .flat_map(|v| mixes.iter().map(move |_| &v.label));
    let cells: Vec<CellJob> = figures::artifact_cells(spec, &mixes)
        .into_iter()
        .zip(labels)
        .map(|((mix, config), label)| CellJob {
            mix,
            config,
            label: label.clone(),
            key: cell_key(mix, &config.fingerprint()),
        })
        .collect();
    // Phase 1, through the cache's solo-run memo, which every request
    // shares whatever its universe, for the mixes with a cell the shard
    // cannot serve: records only grow, so a cell that hits now still
    // hits when a worker claims it, and an all-hit request runs no solo
    // run.
    let misses: Vec<usize> = cells
        .iter()
        .filter(|c| !journal.contains(&c.key))
        .map(|c| c.mix)
        .collect();
    let norm = lab.norm_table(&misses);
    shared.bump_by("serve.norm_runs", norm.runs() as u64);
    Ok(Arc::new(RequestRun {
        id: shared.next_request.fetch_add(1, Ordering::SeqCst),
        lab,
        mixes,
        norm,
        journal,
        universe,
        cells,
        cancel,
        tx,
    }))
}

/// Queues the request's cells for the worker pool.
fn enqueue(shared: &Shared, req: &Arc<RequestRun>) {
    {
        let mut sched = lock(&shared.sched);
        sched.queue.push_back(Entry {
            req: req.clone(),
            pending: (0..req.cells.len()).collect(),
            deferred: Vec::new(),
        });
    }
    shared.work_cv.notify_all();
}

/// Watches the connection for client EOF while a request streams; EOF
/// cancels the request. The thread parks on a blocking read and exits
/// when the client (or the daemon, at process end) closes the socket.
fn spawn_disconnect_watch(shared: &Arc<Shared>, stream: &UnixStream, req: &Arc<RequestRun>) {
    let Ok(mut watch) = stream.try_clone() else {
        return;
    };
    let sh = shared.clone();
    let token = req.cancel.clone();
    let id = req.id;
    thread::spawn(move || {
        let mut buf = [0u8; 64];
        loop {
            match watch.read(&mut buf) {
                Ok(0) | Err(_) => break,
                Ok(_) => {} // Extra client bytes are ignored.
            }
        }
        token.cancel();
        cancel_request(&sh, id);
    });
}

/// Removes request `id` from the scheduler and resolves every not-yet
/// -claimed cell as cancelled. Idempotent; cells already claimed by a
/// worker resolve through the worker (which observes the token).
fn cancel_request(shared: &Shared, id: u64) {
    let mut sched = lock(&shared.sched);
    let mut found = Vec::new();
    if let Some(pos) = sched.queue.iter().position(|e| e.req.id == id) {
        found.push(sched.queue.remove(pos).expect("position just found"));
    }
    if let Some(pos) = sched.parked.iter().position(|e| e.req.id == id) {
        found.push(sched.parked.swap_remove(pos));
    }
    let mut cancelled = 0u64;
    for mut entry in found {
        for idx in entry.pending.drain(..).chain(entry.deferred.drain(..)) {
            let _ = entry.req.tx.send(CellMsg::Cancelled { idx });
            cancelled += 1;
        }
    }
    drop(sched);
    if cancelled > 0 {
        shared.bump_by("serve.cells_cancelled", cancelled);
    }
}

/// Requeues an entry after one cell was taken from it: back of the
/// round-robin queue while claimable cells remain, parked while only
/// deferred (inflight-elsewhere) cells remain, dropped when empty.
fn requeue(sched: &mut Sched, entry: Entry) {
    if !entry.pending.is_empty() {
        sched.queue.push_back(entry);
    } else if !entry.deferred.is_empty() {
        sched.parked.push(entry);
    }
}

/// Re-arms every parked entry: a computation just landed in some
/// journal, so deferred cells may now be cache hits. Entries whose
/// keys are still inflight simply re-defer on their next pop — cheap,
/// and it cannot starve: every completion re-arms the parked set.
fn unpark_all(sched: &mut Sched) {
    let parked = std::mem::take(&mut sched.parked);
    for mut entry in parked {
        entry.pending.extend(entry.deferred.drain(..));
        sched.queue.push_back(entry);
    }
}

fn worker_loop(shared: &Shared) {
    let mut sched = lock(&shared.sched);
    loop {
        if let Some(mut entry) = sched.queue.pop_front() {
            if entry.req.cancel.is_cancelled() {
                // Resolve the whole entry as cancelled in one sweep.
                let n = (entry.pending.len() + entry.deferred.len()) as u64;
                for idx in entry.pending.drain(..).chain(entry.deferred.drain(..)) {
                    let _ = entry.req.tx.send(CellMsg::Cancelled { idx });
                }
                drop(sched);
                if n > 0 {
                    shared.bump_by("serve.cells_cancelled", n);
                }
                sched = lock(&shared.sched);
                continue;
            }
            let idx = entry
                .pending
                .pop_front()
                .expect("queued entries have pending cells");
            let job = &entry.req.cells[idx];
            let flight_key = (entry.req.universe.clone(), job.key.clone());
            if let Some(hit) = entry.req.journal.lookup(&job.key) {
                // Cache hit: resolved under the lock (a map lookup).
                let _ = entry.req.tx.send(CellMsg::Done {
                    idx,
                    cached: true,
                    attempts: hit.attempts,
                    result: Box::new(Ok(hit.run)),
                });
                requeue(&mut sched, entry);
                drop(sched);
                shared.bump("serve.cache_hits");
                sched = lock(&shared.sched);
                continue;
            }
            if sched.inflight.contains(&flight_key) {
                // Another request is computing this exact cell:
                // single-flight defers ours until that lands.
                entry.deferred.push(idx);
                requeue(&mut sched, entry);
                drop(sched);
                shared.bump("serve.inflight_waits");
                sched = lock(&shared.sched);
                continue;
            }
            // Claim and compute outside the lock.
            sched.inflight.insert(flight_key.clone());
            sched.running += 1;
            let req = entry.req.clone();
            requeue(&mut sched, entry);
            drop(sched);

            let job = &req.cells[idx];
            let outcome = if req.cancel.is_cancelled() {
                None
            } else {
                let (result, attempts) = req
                    .lab
                    .run_cell_with_retries::<NoopTracer>(job.mix, job.config, &req.norm);
                Some((result.map(|(run, _)| run), attempts))
            };
            let mut append_failed = false;
            if let Some((Ok(run), attempts)) = &outcome {
                append_failed = req.journal.record(&job.key, run, *attempts).is_err();
            }

            sched = lock(&shared.sched);
            sched.inflight.remove(&flight_key);
            sched.running -= 1;
            unpark_all(&mut sched);
            drop(sched);
            match outcome {
                None => {
                    let _ = req.tx.send(CellMsg::Cancelled { idx });
                    shared.bump("serve.cells_cancelled");
                }
                Some((result, attempts)) => {
                    if req.cancel.is_cancelled() && result.is_err() {
                        // The watchdog aborted the run for the token;
                        // report it as the cancellation it is.
                        let _ = req.tx.send(CellMsg::Cancelled { idx });
                        shared.bump("serve.cells_cancelled");
                    } else {
                        shared.bump("serve.cache_misses");
                        shared.bump("serve.cells_run");
                        if result.is_err() {
                            shared.bump("serve.cells_failed");
                        }
                        let _ = req.tx.send(CellMsg::Done {
                            idx,
                            cached: false,
                            attempts,
                            result: Box::new(result),
                        });
                    }
                }
            }
            if append_failed {
                shared.bump("serve.journal_append_errors");
            }
            shared.work_cv.notify_all();
            sched = lock(&shared.sched);
            continue;
        }
        if sched.stop_workers {
            return;
        }
        sched = shared
            .work_cv
            .wait(sched)
            .unwrap_or_else(|e| e.into_inner());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn scratch_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("smtsim-serve-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn config(dir: &Path) -> ServeConfig {
        ServeConfig {
            socket: dir.join("serve.sock"),
            cache_dir: dir.join("cache"),
            queue_limit: 2,
            workers: 2,
            spec_dir: None,
        }
    }

    fn lowering() -> Box<dyn SpecLowering> {
        Box::new(Knobs::default())
    }

    fn roundtrip(socket: &Path, request: &str) -> Vec<String> {
        let mut s = UnixStream::connect(socket).expect("daemon is listening");
        s.write_all(request.as_bytes()).unwrap();
        s.write_all(b"\n").unwrap();
        let mut lines = Vec::new();
        let reader = BufReader::new(s);
        for line in reader.lines() {
            match line {
                Ok(l) => lines.push(l),
                Err(_) => break,
            }
        }
        lines
    }

    const TINY_SPEC: &str = "[experiment]\n\
        id = \"tiny\"\n\
        title = \"Tiny\"\n\
        kind = \"figure\"\n\
        norm = \"baseline-32\"\n\
        schemes = [\"baseline-32\"]\n\
        mixes = [1]\n\
        [knobs]\n\
        budget = 2000\n\
        warmup = 500\n";

    #[test]
    fn ping_metrics_invalid_and_shutdown() {
        let dir = scratch_dir("basic");
        let server = Server::start(config(&dir), lowering()).expect("daemon starts");
        let socket = server.socket();
        assert_eq!(
            roundtrip(&socket, "{\"op\":\"ping\"}"),
            vec!["{\"type\":\"pong\"}".to_string()]
        );
        let metrics = roundtrip(&socket, "{\"op\":\"metrics\"}");
        assert_eq!(metrics.len(), 1);
        assert!(
            metrics[0].contains("\"active_requests\":0"),
            "{}",
            metrics[0]
        );
        let bad = roundtrip(&socket, "{\"op\":\"explode\"}");
        assert!(bad[0].contains("invalid-request"), "{}", bad[0]);
        let bye = roundtrip(&socket, "{\"op\":\"shutdown\"}");
        assert_eq!(bye.last().map(String::as_str), Some("{\"type\":\"bye\"}"));
        server.wait();
        assert!(!dir.join("serve.sock").exists(), "socket cleaned up");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inline_submit_streams_cells_then_warm_resubmit_hits() {
        let dir = scratch_dir("submit");
        let server = Server::start(config(&dir), lowering()).expect("daemon starts");
        let socket = server.socket();
        let submit = format!(
            "{{\"op\":\"submit\",\"spec_toml\":{}}}",
            smtsim_rob2::journal::json_string(TINY_SPEC)
        );
        let cold = roundtrip(&socket, &submit);
        assert!(cold[0].contains("\"type\":\"accepted\""), "{}", cold[0]);
        assert!(cold[0].contains("\"cells\":1"), "{}", cold[0]);
        assert!(cold[1].contains("\"cached\":false"), "{}", cold[1]);
        let done_cold = cold.last().expect("done line");
        assert!(done_cold.contains("\"cache_misses\":1"), "{done_cold}");
        assert_eq!(server.counter("serve.cache_misses"), 1);
        assert_eq!(server.counter("serve.norm_runs"), 4, "Mix 1's programs");

        let warm = roundtrip(&socket, &submit);
        assert!(warm[1].contains("\"cached\":true"), "{}", warm[1]);
        let done_warm = warm.last().expect("done line");
        assert!(done_warm.contains("\"cache_hits\":1"), "{done_warm}");
        assert_eq!(server.counter("serve.cache_hits"), 1);
        assert_eq!(server.counter("serve.norm_runs"), 4, "an all-hit request");
        // The figure bytes are identical cold vs warm.
        let fig = |lines: &[String]| {
            lines
                .last()
                .unwrap()
                .split("\"figure\":")
                .nth(1)
                .unwrap()
                .to_string()
        };
        assert_eq!(fig(&cold), fig(&warm));
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_requests_share_solo_runs_across_universes() {
        let dir = scratch_dir("solos");
        let server = Server::start(config(&dir), lowering()).expect("daemon starts");
        let socket = server.socket();
        let submit = |spec: &str| {
            let toml = smtsim_rob2::journal::json_string(spec);
            roundtrip(
                &socket,
                &format!("{{\"op\":\"submit\",\"spec_toml\":{toml}}}"),
            )
        };
        let universe = |lines: &[String]| lines[0].split("\"universe\":").nth(1).map(str::to_owned);
        let first = submit(TINY_SPEC);
        assert_eq!(server.counter("serve.norm_runs"), 4, "Mix 1's programs");
        // A longer multithreaded run over the same solo runs: another
        // universe, so the cell misses, but no solo run is repeated.
        let longer =
            submit(&TINY_SPEC.replace("budget = 2000\n", "budget = 3000\nst_budget = 2000\n"));
        assert_ne!(universe(&first), universe(&longer), "{first:?} {longer:?}");
        assert!(longer[1].contains("\"cached\":false"), "{}", longer[1]);
        assert_eq!(server.counter("serve.cache_misses"), 2);
        assert_eq!(server.counter("serve.norm_runs"), 4, "solo runs rerun");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn finished_connection_threads_are_not_retained() {
        let dir = scratch_dir("conns");
        let server = Server::start(config(&dir), lowering()).expect("daemon starts");
        let socket = server.socket();
        for _ in 0..100 {
            assert_eq!(roundtrip(&socket, "{\"op\":\"ping\"}").len(), 1);
        }
        let tracked = lock(&server.shared.conns).len();
        assert!(tracked < 10, "{tracked} handles tracked after 100 pings");
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn non_figure_kind_and_bad_toml_are_typed_rejections() {
        let dir = scratch_dir("reject");
        let server = Server::start(config(&dir), lowering()).expect("daemon starts");
        let socket = server.socket();
        let bad = roundtrip(
            &socket,
            "{\"op\":\"submit\",\"spec_toml\":\"not toml at all\"}",
        );
        assert!(bad[0].contains("invalid-config"), "{}", bad[0]);
        // Registry submissions need a registry.
        let reg = roundtrip(&socket, "{\"op\":\"submit\",\"spec\":\"fig2\"}");
        assert!(reg[0].contains("no spec registry"), "{}", reg[0]);
        // A scheme the allocator cannot be built with is a typed parse
        // error, not a panic on the connection thread, so the request's
        // admission slot is released.
        let zero = roundtrip(
            &socket,
            &format!(
                "{{\"op\":\"submit\",\"spec_toml\":{}}}",
                smtsim_rob2::journal::json_string(
                    &TINY_SPEC.replace("schemes = [\"baseline-32\"]", "schemes = [\"baseline-0\"]")
                )
            ),
        );
        assert!(
            zero.first().is_some_and(|l| l.contains("invalid-config")),
            "{zero:?}"
        );
        let metrics = roundtrip(&socket, "{\"op\":\"metrics\"}");
        assert!(
            metrics[0].contains("\"active_requests\":0"),
            "{}",
            metrics[0]
        );
        server.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }
}
