//! The two-level reorder buffer (§4 of the paper).
//!
//! ROB storage is split into small private per-thread first-level ROBs
//! (32 entries each in the paper) and one large shared second-level
//! partition (384 entries) that is allocated *as a unit* to at most one
//! thread at a time — and only to a thread whose L2-missing load has a
//! small **Degree of Dependence** (DoD): few not-yet-executed
//! instructions behind it in the first-level ROB. Such a thread can
//! keep dispatching in the shadow of the miss without clogging the
//! shared issue queue, which is what lets memory-bound threads be
//! accelerated *without* hurting their co-runners.
//!
//! All four of the paper's allocation schemes are implemented:
//!
//! * **2-Level R-ROB** (§5.2) — reactive; allocate when the missing
//!   load is the oldest instruction, the first-level ROB is full, and
//!   the counted DoD is below the threshold; conditions are checked at
//!   miss detection and re-checked every 10 cycles.
//! * **2-Level Relaxed R-ROB** — drops the "first level full"
//!   condition, trading count accuracy for allocation latency.
//! * **2-Level CDR-ROB** — takes the DoD count snapshot a fixed delay
//!   (32 cycles) after miss detection, with the oldest/full conditions
//!   relaxed.
//! * **2-Level P-ROB** (§4.2/§5.3) — predictive; a PC-indexed DoD
//!   predictor is consulted the moment the miss is detected, and
//!   verified/trained by an actual count when the miss is serviced.

use smtsim_isa::ThreadId;
use smtsim_mem::Cycle;
use smtsim_obs::{DenyReason, DodSource, TraceEvent};
use smtsim_pipeline::{MissEvent, RobAllocator, RobQuery};
use smtsim_predict::{DodPredictor, LastValueDod, PathDod, ThresholdBitDod};

/// Which DoD predictor design backs a predictive scheme (§4.2).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DodPredictorKind {
    /// Last-value, PC-indexed table (the scheme evaluated in §5.3).
    LastValue,
    /// Single below-threshold bit per entry.
    ThresholdBit,
    /// gshare-style path-qualified table.
    Path,
}

/// Allocation scheme selector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scheme {
    /// Reactive counting at miss detection, with configurable
    /// structural preconditions.
    Reactive {
        /// Require the missing load to be the oldest in-flight
        /// instruction of its thread.
        require_oldest: bool,
        /// Require the first-level ROB to be full.
        require_full: bool,
    },
    /// Count-delayed reactive: snapshot the DoD a fixed number of
    /// cycles after miss detection (2-Level CDR-ROB).
    CountDelayed {
        /// Cycles between miss detection and the count snapshot.
        delay: Cycle,
    },
    /// Predictive allocation at miss-detection time (2-Level P-ROB).
    Predictive {
        /// Predictor design.
        predictor: DodPredictorKind,
    },
}

/// The scheme family without its tuning parameters — the granularity
/// at which the protocol model (`smtsim-check`) distinguishes
/// behaviors.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum SchemeKind {
    /// Reactive counting ([`Scheme::Reactive`]), full or relaxed.
    Reactive,
    /// Count-delayed reactive ([`Scheme::CountDelayed`]).
    CountDelayed,
    /// Predictive ([`Scheme::Predictive`]).
    Predictive,
}

impl Scheme {
    /// The scheme family this configuration belongs to.
    #[must_use]
    pub fn kind(self) -> SchemeKind {
        match self {
            Scheme::Reactive { .. } => SchemeKind::Reactive,
            Scheme::CountDelayed { .. } => SchemeKind::CountDelayed,
            Scheme::Predictive { .. } => SchemeKind::Predictive,
        }
    }

    /// Whether this scheme can ever emit `reason` — the deny-reason
    /// soundness table the protocol model checks traces against. The
    /// match is deliberately exhaustive over [`DenyReason`]: adding a
    /// reason fails compilation here until its reachability per scheme
    /// is stated.
    #[must_use]
    pub fn may_deny(self, reason: DenyReason) -> bool {
        match reason {
            // Any scheme can find the partition taken.
            DenyReason::Busy => true,
            // Any scheme can count/predict a too-high DoD.
            DenyReason::HighDod => true,
            // Only a predictor can be cold.
            DenyReason::ColdPredictor => matches!(self, Scheme::Predictive { .. }),
        }
    }
}

/// When the holder relinquishes the second-level partition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReleasePolicy {
    /// Tenure is tied to the load that triggered the allocation: once
    /// its fill returns, the holder stops extending (capacity reverts
    /// to the first level) and the partition is handed over as soon as
    /// the extension drains. The default — it rotates ownership across
    /// competing memory-bound threads, which the fair-throughput
    /// results depend on. New misses discovered during tenure still
    /// overlap (the MLP benefit); continuing them requires
    /// re-requesting the partition like any other thread.
    TriggerServiced,
    /// Release once the holder's occupancy has drained back to the
    /// first level *and* it has no outstanding detected L2 miss
    /// (ablation; a thread with back-to-back misses can monopolize the
    /// partition indefinitely).
    DrainAndNoMiss,
    /// Release as soon as occupancy drains to the first level,
    /// regardless of outstanding misses (ablation).
    DrainOnly,
}

/// Full configuration of a two-level ROB.
#[derive(Clone, Copy, Debug)]
pub struct TwoLevelConfig {
    /// Private first-level entries per thread (32 in the paper).
    pub l1_entries: usize,
    /// Shared second-level entries allocated as a unit (384 = 96×4).
    pub l2_entries: usize,
    /// DoD threshold: allocate only when the count/prediction is
    /// *below* this value.
    pub dod_threshold: u32,
    /// The allocation scheme.
    pub scheme: Scheme,
    /// Recheck cadence for pending candidates (10 cycles in §5.2).
    pub recheck_interval: Cycle,
    /// Release policy.
    pub release: ReleasePolicy,
}

impl TwoLevelConfig {
    /// 2-Level R-ROB with the paper's best threshold (16).
    pub fn r_rob(threshold: u32) -> Self {
        TwoLevelConfig {
            l1_entries: 32,
            l2_entries: 384,
            dod_threshold: threshold,
            scheme: Scheme::Reactive {
                require_oldest: true,
                require_full: true,
            },
            recheck_interval: 10,
            release: ReleasePolicy::TriggerServiced,
        }
    }

    /// 2-Level Relaxed R-ROB (threshold 15 in the paper).
    pub fn relaxed_r_rob(threshold: u32) -> Self {
        TwoLevelConfig {
            scheme: Scheme::Reactive {
                require_oldest: true,
                require_full: false,
            },
            ..TwoLevelConfig::r_rob(threshold)
        }
    }

    /// 2-Level CDR-ROB with a 32-cycle count delay (threshold 15).
    pub fn cdr_rob(threshold: u32) -> Self {
        TwoLevelConfig {
            scheme: Scheme::CountDelayed { delay: 32 },
            ..TwoLevelConfig::r_rob(threshold)
        }
    }

    /// 2-Level P-ROB with the last-value predictor (thresholds 3/5).
    pub fn p_rob(threshold: u32) -> Self {
        TwoLevelConfig {
            scheme: Scheme::Predictive {
                predictor: DodPredictorKind::LastValue,
            },
            ..TwoLevelConfig::r_rob(threshold)
        }
    }
}

/// Aggregate statistics of a two-level allocator.
#[derive(Clone, Copy, Debug, Default)]
pub struct TwoLevelStats {
    /// Second-level allocations performed.
    pub allocations: u64,
    /// Releases of the partition.
    pub releases: u64,
    /// Cycles the partition was held by any thread.
    pub held_cycles: u64,
    /// Candidates rejected because the counted/predicted DoD was at or
    /// above the threshold.
    pub rejected_dod: u64,
    /// Candidates that found the partition already taken.
    pub rejected_busy: u64,
    /// Predictor consultations that had information (predictive only).
    pub pred_hits: u64,
    /// Predictor consultations without information.
    pub pred_cold: u64,
    /// Verified predictions that matched the below-threshold decision.
    pub pred_correct: u64,
    /// Verified predictions total.
    pub pred_verified: u64,
    /// Predictor table lookups, counted inside the predictor itself
    /// (predictive only; includes both decision and verification
    /// lookups).
    pub cov_lookups: u64,
    /// Lookups that found a live tagged entry.
    pub cov_hits: u64,
}

impl TwoLevelStats {
    /// Verified prediction accuracy in `[0, 1]`.
    pub fn prediction_accuracy(&self) -> f64 {
        if self.pred_verified == 0 {
            0.0
        } else {
            self.pred_correct as f64 / self.pred_verified as f64
        }
    }

    /// Predictor coverage in `[0, 1]`: the fraction of table lookups
    /// that found information (`DodPredictor::coverage`).
    pub fn coverage(&self) -> f64 {
        if self.cov_lookups == 0 {
            0.0
        } else {
            self.cov_hits as f64 / self.cov_lookups as f64
        }
    }
}

/// A pending allocation candidate (a detected L2 miss awaiting its
/// conditions).
#[derive(Clone, Copy, Debug)]
struct Candidate {
    thread: ThreadId,
    tag: u64,
    /// Earliest cycle to (re)evaluate.
    check_at: Cycle,
    /// CDR: a count snapshot already taken (candidate passed the DoD
    /// test and is only waiting for the partition).
    counted_ok: bool,
    /// P-ROB: prediction outcome recorded for verification.
    predicted_below: Option<bool>,
}

/// The current tenure of the second-level partition.
#[derive(Clone, Copy, Debug)]
struct Tenure {
    thread: ThreadId,
    /// The load whose miss justified the allocation.
    trigger_tag: u64,
    /// When set, the trigger has been serviced (or squashed) at the
    /// recorded cycle: the holder no longer extends and the partition
    /// is released once drained.
    draining_since: Option<Cycle>,
}

impl Tenure {
    fn draining(&self) -> bool {
        self.draining_since.is_some()
    }
}

/// A read-only snapshot of the live tenure, for external checkers
/// (`smtsim-check`) and tests. Mirrors the internal `Tenure` record.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TenureView {
    /// Thread holding the second-level partition.
    pub thread: ThreadId,
    /// ROB tag of the load whose miss opened the tenure.
    pub trigger_tag: u64,
    /// Cycle the tenure stopped extending (trigger serviced or
    /// squashed), when that has happened.
    pub draining_since: Option<Cycle>,
}

/// The two-level ROB allocator. Plugs into the pipeline through
/// [`RobAllocator`].
pub struct TwoLevelRob {
    cfg: TwoLevelConfig,
    tenure: Option<Tenure>,
    candidates: Vec<Candidate>,
    /// Reusable buffer for the due-candidate sweep in `tick` (the
    /// evaluation loop may re-insert into `candidates`, so due entries
    /// are staged out first; reusing the stage avoids a per-tick heap
    /// allocation on the hot path).
    scratch_due: Vec<Candidate>,
    predictor: Option<Box<dyn DodPredictor>>,
    stats: TwoLevelStats,
    /// When armed (via [`RobAllocator::set_tracing`]), allocation
    /// decisions append [`TraceEvent`]s here for the simulator to drain
    /// once per cycle.
    tracing: bool,
    trace: Vec<(Cycle, TraceEvent)>,
}

impl TwoLevelRob {
    /// Builds an allocator from a configuration.
    pub fn new(cfg: TwoLevelConfig) -> Self {
        assert!(cfg.l1_entries > 0 && cfg.l2_entries > 0);
        assert!(cfg.recheck_interval > 0);
        let predictor: Option<Box<dyn DodPredictor>> = match cfg.scheme {
            Scheme::Predictive { predictor } => Some(match predictor {
                DodPredictorKind::LastValue => Box::new(LastValueDod::icpp08()),
                DodPredictorKind::ThresholdBit => {
                    Box::new(ThresholdBitDod::new(2048, cfg.dod_threshold))
                }
                DodPredictorKind::Path => Box::new(PathDod::new(4096)),
            }),
            _ => None,
        };
        TwoLevelRob {
            cfg,
            tenure: None,
            candidates: Vec::new(),
            scratch_due: Vec::new(),
            predictor,
            stats: TwoLevelStats::default(),
            tracing: false,
            trace: Vec::new(),
        }
    }

    /// Buffers a trace event when tracing is armed.
    fn emit(&mut self, now: Cycle, ev: TraceEvent) {
        if self.tracing {
            self.trace.push((now, ev));
        }
    }

    /// Traces the DoD count taken for an allocation decision.
    fn sample_count(&mut self, c: Candidate, count: u32, now: Cycle) {
        if count != u32::MAX {
            self.emit(
                now,
                TraceEvent::DodSampled {
                    thread: c.thread,
                    tag: c.tag,
                    value: count,
                    source: DodSource::CounterAtDecision,
                },
            );
        }
    }

    /// Records a DoD-threshold rejection (stat + trace event).
    fn reject_dod(&mut self, c: Candidate, now: Cycle) {
        self.stats.rejected_dod += 1;
        self.emit(
            now,
            TraceEvent::L2RobDenied {
                thread: c.thread,
                tag: c.tag,
                reason: DenyReason::HighDod,
            },
        );
    }

    /// Current holder of the second-level partition.
    pub fn owner(&self) -> Option<ThreadId> {
        self.tenure.map(|t| t.thread)
    }

    /// Snapshot of the live tenure, if any (state exposure for the
    /// protocol model checker).
    pub fn tenure_view(&self) -> Option<TenureView> {
        self.tenure.map(|t| TenureView {
            thread: t.thread,
            trigger_tag: t.trigger_tag,
            draining_since: t.draining_since,
        })
    }

    /// Writes the `(thread, tag)` of every pending allocation
    /// candidate into `out` (cleared first), sorted for deterministic
    /// inspection. Caller-provided storage so per-cycle inspectors can
    /// reuse one buffer instead of allocating on every call.
    pub fn candidate_tags_into(&self, out: &mut Vec<(ThreadId, u64)>) {
        out.clear();
        out.extend(self.candidates.iter().map(|c| (c.thread, c.tag)));
        out.sort_unstable();
    }

    /// Statistics so far. Coverage counters are read out of the
    /// predictor at call time, so they reflect every lookup up to now.
    pub fn stats(&self) -> TwoLevelStats {
        let mut s = self.stats;
        if let Some(p) = &self.predictor {
            (s.cov_lookups, s.cov_hits) = p.coverage();
        }
        s
    }

    /// The configuration.
    pub fn config(&self) -> &TwoLevelConfig {
        &self.cfg
    }

    /// The DoD-counter scan window: the first-level entries behind the
    /// load (the paper's 5-bit counter for a 32-entry first level).
    fn count_window(&self) -> usize {
        self.cfg.l1_entries - 1
    }

    fn allocate(&mut self, thread: ThreadId, trigger_tag: u64, now: Cycle) {
        debug_assert!(self.tenure.is_none());
        self.tenure = Some(Tenure {
            thread,
            trigger_tag,
            draining_since: None,
        });
        self.stats.allocations += 1;
        self.emit(
            now,
            TraceEvent::L2RobAllocated {
                thread,
                tag: trigger_tag,
            },
        );
        // Other candidates of the same thread are subsumed by this
        // tenure; other threads keep waiting for the partition.
        self.candidates.retain(|c| c.thread != thread);
    }

    /// Evaluates one candidate. Returns `true` when the candidate is
    /// finished (allocated or rejected) and should be removed.
    fn evaluate(
        &mut self,
        c: Candidate,
        view: &dyn RobQuery,
        now: Cycle,
    ) -> (bool, Option<Candidate>) {
        if !view.in_flight(c.thread, c.tag) {
            return (true, None);
        }
        if self.tenure.is_some() {
            // Partition busy: keep the candidacy alive (it may free
            // before the miss is serviced).
            self.stats.rejected_busy += 1;
            self.emit(
                now,
                TraceEvent::L2RobDenied {
                    thread: c.thread,
                    tag: c.tag,
                    reason: DenyReason::Busy,
                },
            );
            return (
                false,
                Some(Candidate {
                    check_at: now + self.cfg.recheck_interval,
                    ..c
                }),
            );
        }
        match self.cfg.scheme {
            Scheme::Reactive {
                require_oldest,
                require_full,
            } => {
                if require_oldest && view.oldest_tag(c.thread) != Some(c.tag) {
                    return (
                        false,
                        Some(Candidate {
                            check_at: now + self.cfg.recheck_interval,
                            ..c
                        }),
                    );
                }
                if require_full && view.occupancy(c.thread) < self.cfg.l1_entries {
                    return (
                        false,
                        Some(Candidate {
                            check_at: now + self.cfg.recheck_interval,
                            ..c
                        }),
                    );
                }
                let count = view
                    .count_unexecuted_younger(c.thread, c.tag, self.count_window())
                    .unwrap_or(u32::MAX);
                self.sample_count(c, count, now);
                if count < self.cfg.dod_threshold {
                    self.allocate(c.thread, c.tag, now);
                } else {
                    self.reject_dod(c, now);
                }
                (true, None)
            }
            Scheme::CountDelayed { .. } => {
                if c.counted_ok {
                    self.allocate(c.thread, c.tag, now);
                    return (true, None);
                }
                let count = view
                    .count_unexecuted_younger(c.thread, c.tag, self.count_window())
                    .unwrap_or(u32::MAX);
                self.sample_count(c, count, now);
                if count < self.cfg.dod_threshold {
                    self.allocate(c.thread, c.tag, now);
                } else {
                    self.reject_dod(c, now);
                }
                (true, None)
            }
            Scheme::Predictive { .. } => {
                // Predictive candidates are resolved at miss detection;
                // anything still pending passed the prediction and was
                // only waiting for the partition.
                debug_assert_eq!(c.predicted_below, Some(true));
                self.allocate(c.thread, c.tag, now);
                (true, None)
            }
        }
    }
}

impl RobAllocator for TwoLevelRob {
    fn capacity(&self, thread: ThreadId) -> usize {
        match self.tenure {
            Some(t) if t.thread == thread && !t.draining() => {
                self.cfg.l1_entries + self.cfg.l2_entries
            }
            _ => self.cfg.l1_entries,
        }
    }

    fn tick(&mut self, view: &dyn RobQuery, now: Cycle) {
        // Release check.
        if let Some(t) = self.tenure {
            self.stats.held_cycles += 1;
            let drained = view.occupancy(t.thread) <= self.cfg.l1_entries;
            let release = match self.cfg.release {
                ReleasePolicy::TriggerServiced => {
                    // The trigger may also leave flight by committing or
                    // squashing without this allocator seeing the fill
                    // (e.g. store-forwarded edge cases); treat that as
                    // serviced.
                    let over = t.draining() || !view.in_flight(t.thread, t.trigger_tag);
                    if over {
                        if let Some(ten) = self.tenure.as_mut() {
                            ten.draining_since.get_or_insert(now);
                        }
                    }
                    over && drained
                }
                ReleasePolicy::DrainAndNoMiss => drained && !view.has_pending_l2_miss(t.thread),
                ReleasePolicy::DrainOnly => drained,
            };
            if release {
                self.tenure = None;
                self.stats.releases += 1;
                self.emit(
                    now,
                    TraceEvent::L2RobReleased {
                        thread: t.thread,
                        trigger_tag: t.trigger_tag,
                    },
                );
            }
        }
        // Candidate evaluation.
        if self.candidates.is_empty() {
            return;
        }
        self.tick_candidates_now(view, now);
    }

    fn on_l2_miss(&mut self, view: &dyn RobQuery, ev: MissEvent, now: Cycle) {
        // The hardware cannot know a path is wrong, but modeling
        // allocations for doomed loads only adds noise to the state
        // machine; the squash hook would immediately clean them up.
        if ev.wrong_path {
            return;
        }
        match self.cfg.scheme {
            Scheme::Reactive { .. } => {
                self.candidates.push(Candidate {
                    thread: ev.thread,
                    tag: ev.tag,
                    check_at: now, // conditions checked the first cycle
                    counted_ok: false,
                    predicted_below: None,
                });
                // Evaluate immediately ("checked the first cycle the L2
                // miss is detected").
                self.tick_candidates_now(view, now);
            }
            Scheme::CountDelayed { delay } => {
                self.candidates.push(Candidate {
                    thread: ev.thread,
                    tag: ev.tag,
                    check_at: now + delay,
                    counted_ok: false,
                    predicted_below: None,
                });
            }
            Scheme::Predictive { .. } => {
                let pred = self
                    .predictor
                    .as_mut()
                    .expect("predictive scheme has predictor")
                    .predict_below(ev.pc, ev.hist, self.cfg.dod_threshold);
                match pred {
                    None => {
                        self.stats.pred_cold += 1;
                        self.emit(
                            now,
                            TraceEvent::L2RobDenied {
                                thread: ev.thread,
                                tag: ev.tag,
                                reason: DenyReason::ColdPredictor,
                            },
                        );
                    }
                    Some(below) => {
                        self.stats.pred_hits += 1;
                        // The predictor yields a below-threshold verdict,
                        // not a numeric DoD; trace it as 0/1.
                        self.emit(
                            now,
                            TraceEvent::DodSampled {
                                thread: ev.thread,
                                tag: ev.tag,
                                value: u32::from(below),
                                source: DodSource::Predictor,
                            },
                        );
                        if below {
                            if self.tenure.is_none() {
                                self.allocate(ev.thread, ev.tag, now);
                            } else {
                                self.stats.rejected_busy += 1;
                                self.emit(
                                    now,
                                    TraceEvent::L2RobDenied {
                                        thread: ev.thread,
                                        tag: ev.tag,
                                        reason: DenyReason::Busy,
                                    },
                                );
                                // Keep waiting for the partition.
                                self.candidates.push(Candidate {
                                    thread: ev.thread,
                                    tag: ev.tag,
                                    check_at: now + self.cfg.recheck_interval,
                                    counted_ok: true,
                                    predicted_below: Some(true),
                                });
                            }
                        } else {
                            self.stats.rejected_dod += 1;
                            self.emit(
                                now,
                                TraceEvent::L2RobDenied {
                                    thread: ev.thread,
                                    tag: ev.tag,
                                    reason: DenyReason::HighDod,
                                },
                            );
                        }
                    }
                }
            }
        }
    }

    fn on_l2_fill(&mut self, _view: &dyn RobQuery, ev: MissEvent, counted_dod: u32, now: Cycle) {
        self.candidates
            .retain(|c| !(c.thread == ev.thread && c.tag == ev.tag));
        // End of tenure: the triggering miss has been serviced.
        if let Some(t) = self.tenure.as_mut() {
            if t.thread == ev.thread && t.trigger_tag == ev.tag {
                t.draining_since.get_or_insert(now);
            }
        }
        if ev.wrong_path {
            return;
        }
        if let Some(p) = self.predictor.as_mut() {
            // Verification count "several cycles prior to the completion
            // of the miss service" (we take it at service completion —
            // the same window in this model). Train, and score the
            // prediction made at detection time.
            if let Scheme::Predictive { .. } = self.cfg.scheme {
                let predicted = p.predict_below(ev.pc, ev.hist, self.cfg.dod_threshold);
                if let Some(below) = predicted {
                    self.stats.pred_verified += 1;
                    if below == (counted_dod < self.cfg.dod_threshold) {
                        self.stats.pred_correct += 1;
                    }
                }
                p.update(ev.pc, ev.hist, counted_dod);
            }
        }
    }

    fn on_squash(&mut self, thread: ThreadId, first_tag: u64, now: Cycle) {
        self.candidates
            .retain(|c| !(c.thread == thread && c.tag >= first_tag));
        // A squashed trigger ends the tenure; the partition is
        // reclaimed by the drain check in `tick`.
        if let Some(t) = self.tenure.as_mut() {
            if t.thread == thread && t.trigger_tag >= first_tag {
                t.draining_since.get_or_insert(now);
            }
        }
    }

    fn name(&self) -> String {
        match self.cfg.scheme {
            Scheme::Reactive {
                require_full: true, ..
            } => format!("2-Level R-ROB{}", self.cfg.dod_threshold),
            Scheme::Reactive {
                require_full: false,
                ..
            } => format!("2-Level Relaxed R-ROB{}", self.cfg.dod_threshold),
            Scheme::CountDelayed { .. } => format!("2-Level CDR-ROB{}", self.cfg.dod_threshold),
            Scheme::Predictive { .. } => format!("2-Level P-ROB{}", self.cfg.dod_threshold),
        }
    }

    fn max_capacity(&self) -> usize {
        self.cfg.l1_entries + self.cfg.l2_entries
    }

    fn conservation_bound(&self, num_threads: usize) -> usize {
        // The second level is physically one partition: however tenure
        // moves around, the machine can never hold more than every
        // thread's private first level plus the shared entries once.
        num_threads * self.cfg.l1_entries + self.cfg.l2_entries
    }

    fn audit(&self, view: &dyn RobQuery) -> Option<String> {
        // Single-owner tenure bookkeeping: allocations and releases
        // must bracket the live tenure exactly.
        let live = self.tenure.is_some() as u64;
        if self.stats.allocations != self.stats.releases + live {
            return Some(format!(
                "tenure accounting: {} allocations vs {} releases with {} live tenure",
                self.stats.allocations, self.stats.releases, live
            ));
        }
        if let Some(t) = self.tenure {
            if t.thread >= view.num_threads() {
                return Some(format!("tenure held by nonexistent thread {}", t.thread));
            }
        }
        // Exclusive second level: every thread that does not hold the
        // partition must fit in its private first level. (The holder may
        // legally exceed it, including while draining.)
        let owner = self.tenure.map(|t| t.thread);
        for t in 0..view.num_threads() {
            if Some(t) != owner && view.occupancy(t) > self.cfg.l1_entries {
                return Some(format!(
                    "t{t}: occupancy {} exceeds the private first level ({}) \
                     without holding the partition (owner={owner:?})",
                    view.occupancy(t),
                    self.cfg.l1_entries
                ));
            }
        }
        None
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.trace.clear();
        }
    }

    fn drain_trace(&mut self) -> Vec<(Cycle, TraceEvent)> {
        std::mem::take(&mut self.trace)
    }

    /// Quiescence horizon for the cycle-skip engine: a non-mutating
    /// mirror of [`TwoLevelRob::tick`]. On a machine with no events,
    /// commits, dispatches, fetches or squashes, every `tick` input
    /// read here (occupancy, trigger in-flight status, pending-miss
    /// flag) is frozen, so:
    ///
    /// - a tick that would release the partition, or record the start
    ///   of a drain (`draining_since`), acts *immediately* — report a
    ///   horizon of 0 so the skip aborts and steps it normally;
    /// - otherwise the release verdict stays `false` for every skipped
    ///   cycle and the only per-cycle effect is the `held_cycles`
    ///   accumulator, replicated by
    ///   [`RobAllocator::on_cycles_skipped`];
    /// - pending candidates are untouchable until their earliest
    ///   `check_at`, which bounds the horizon.
    fn skip_quiesce(&self, view: &dyn RobQuery) -> Option<Cycle> {
        if let Some(t) = self.tenure {
            let drained = view.occupancy(t.thread) <= self.cfg.l1_entries;
            let acts_now = match self.cfg.release {
                ReleasePolicy::TriggerServiced => {
                    let over = t.draining() || !view.in_flight(t.thread, t.trigger_tag);
                    // `over` with no drain start recorded writes
                    // `draining_since`; `over && drained` releases.
                    over && (t.draining_since.is_none() || drained)
                }
                ReleasePolicy::DrainAndNoMiss => drained && !view.has_pending_l2_miss(t.thread),
                ReleasePolicy::DrainOnly => drained,
            };
            if acts_now {
                return Some(0);
            }
        }
        Some(
            self.candidates
                .iter()
                .map(|c| c.check_at)
                .min()
                .unwrap_or(Cycle::MAX),
        )
    }

    fn on_cycles_skipped(&mut self, skipped: u64) {
        // Mirrors the `held_cycles += 1` each skipped tick would have
        // executed while the tenure is held.
        if self.tenure.is_some() {
            self.stats.held_cycles += skipped;
        }
    }
}

impl TwoLevelRob {
    /// Due-candidate sweep, used by `tick` every cycle and by the
    /// reactive scheme immediately at miss-detection time. Evaluation
    /// may re-insert a deferred candidate, so the due set is staged
    /// through the reusable scratch buffer first.
    fn tick_candidates_now(&mut self, view: &dyn RobQuery, now: Cycle) {
        let mut due = std::mem::take(&mut self.scratch_due);
        due.clear();
        due.extend(
            self.candidates
                .iter()
                .copied()
                .filter(|c| c.check_at <= now),
        );
        if !due.is_empty() {
            self.candidates.retain(|c| c.check_at > now);
            for &c in &due {
                let (_done, keep) = self.evaluate(c, view, now);
                if let Some(k) = keep {
                    self.candidates.push(k);
                }
            }
        }
        self.scratch_due = due;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scripted RobQuery for unit-testing the allocator state machine
    /// without a pipeline.
    struct FakeView {
        occupancy: Vec<usize>,
        oldest: Vec<Option<u64>>,
        counts: Vec<u32>,
        in_flight: Vec<Vec<u64>>,
        pending_miss: Vec<bool>,
    }

    impl FakeView {
        fn new(threads: usize) -> Self {
            FakeView {
                occupancy: vec![0; threads],
                oldest: vec![None; threads],
                counts: vec![0; threads],
                in_flight: vec![Vec::new(); threads],
                pending_miss: vec![false; threads],
            }
        }
    }

    impl RobQuery for FakeView {
        fn num_threads(&self) -> usize {
            self.occupancy.len()
        }
        fn occupancy(&self, t: ThreadId) -> usize {
            self.occupancy[t]
        }
        fn oldest_tag(&self, t: ThreadId) -> Option<u64> {
            self.oldest[t]
        }
        fn in_flight(&self, t: ThreadId, tag: u64) -> bool {
            self.in_flight[t].contains(&tag)
        }
        fn count_unexecuted_younger(&self, t: ThreadId, tag: u64, _w: usize) -> Option<u32> {
            self.in_flight(t, tag).then_some(self.counts[t])
        }
        fn has_pending_l2_miss(&self, t: ThreadId) -> bool {
            self.pending_miss[t]
        }
    }

    fn miss(thread: ThreadId, tag: u64) -> MissEvent {
        MissEvent {
            thread,
            tag,
            pc: 0x1000 + tag * 4,
            hist: 0,
            wrong_path: false,
        }
    }

    #[test]
    fn reactive_allocates_when_all_conditions_met() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let mut v = FakeView::new(4);
        v.in_flight[1] = vec![7];
        v.oldest[1] = Some(7);
        v.occupancy[1] = 32;
        v.counts[1] = 5;
        a.on_l2_miss(&v, miss(1, 7), 100);
        assert_eq!(a.owner(), Some(1));
        assert_eq!(a.capacity(1), 32 + 384);
        assert_eq!(a.capacity(0), 32);
        assert_eq!(a.stats().allocations, 1);
    }

    #[test]
    fn reactive_rejects_high_dod() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let mut v = FakeView::new(4);
        v.in_flight[1] = vec![7];
        v.oldest[1] = Some(7);
        v.occupancy[1] = 32;
        v.counts[1] = 16; // == threshold ⇒ not below ⇒ reject
        a.on_l2_miss(&v, miss(1, 7), 100);
        assert_eq!(a.owner(), None);
        assert_eq!(a.stats().rejected_dod, 1);
    }

    #[test]
    fn reactive_waits_for_full_and_oldest_then_rechecks() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let mut v = FakeView::new(4);
        v.in_flight[1] = vec![7];
        v.oldest[1] = Some(3); // not oldest yet
        v.occupancy[1] = 32;
        v.counts[1] = 2;
        a.on_l2_miss(&v, miss(1, 7), 100);
        assert_eq!(a.owner(), None);
        // Conditions met later; recheck fires at +10.
        v.oldest[1] = Some(7);
        a.tick(&v, 105);
        assert_eq!(a.owner(), None, "recheck not due yet");
        a.tick(&v, 110);
        assert_eq!(a.owner(), Some(1));
    }

    #[test]
    fn relaxed_ignores_full_condition() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[2] = vec![9];
        v.oldest[2] = Some(9);
        v.occupancy[2] = 4; // far from full
        v.counts[2] = 3;
        v.pending_miss[2] = true;
        a.on_l2_miss(&v, miss(2, 9), 50);
        assert_eq!(a.owner(), Some(2), "allocated the cycle the miss is seen");
        a.tick(&v, 50);
        assert_eq!(a.owner(), Some(2), "held while the miss is outstanding");
    }

    #[test]
    fn cdr_counts_after_delay() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::cdr_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[0] = vec![5];
        v.counts[0] = 20; // high at detection...
        a.on_l2_miss(&v, miss(0, 5), 200);
        a.tick(&v, 210);
        assert_eq!(a.owner(), None, "count not taken before the delay");
        v.counts[0] = 4; // ...but low at snapshot time
        a.tick(&v, 232);
        assert_eq!(a.owner(), Some(0));
    }

    #[test]
    fn partition_is_exclusive_and_waiters_get_it_on_release() {
        let mut cfg = TwoLevelConfig::relaxed_r_rob(15);
        cfg.release = ReleasePolicy::DrainAndNoMiss;
        let mut a = TwoLevelRob::new(cfg);
        let mut v = FakeView::new(4);
        for t in [0usize, 1] {
            v.in_flight[t] = vec![1];
            v.oldest[t] = Some(1);
            v.occupancy[t] = 33;
            v.counts[t] = 1;
        }
        a.on_l2_miss(&v, miss(0, 1), 10);
        assert_eq!(a.owner(), Some(0));
        a.on_l2_miss(&v, miss(1, 1), 11);
        assert_eq!(a.owner(), Some(0), "partition is exclusive");
        assert!(a.stats().rejected_busy >= 1);
        // Thread 0 drains and its miss clears: release, and thread 1's
        // waiting candidacy wins the partition in the same tick.
        v.occupancy[0] = 10;
        v.pending_miss[0] = false;
        v.pending_miss[1] = true;
        a.tick(&v, 21);
        assert_eq!(a.owner(), Some(1));
        assert_eq!(a.stats().releases, 1);
        assert_eq!(a.stats().allocations, 2);
    }

    #[test]
    fn release_waits_for_drain_and_miss() {
        let mut cfg = TwoLevelConfig::r_rob(16);
        cfg.release = ReleasePolicy::DrainAndNoMiss;
        let mut a = TwoLevelRob::new(cfg);
        let mut v = FakeView::new(4);
        v.in_flight[1] = vec![7];
        v.oldest[1] = Some(7);
        v.occupancy[1] = 32;
        v.counts[1] = 0;
        a.on_l2_miss(&v, miss(1, 7), 0);
        assert_eq!(a.owner(), Some(1));
        // Still above L1 occupancy: hold.
        v.occupancy[1] = 100;
        v.pending_miss[1] = true;
        a.tick(&v, 1);
        assert_eq!(a.owner(), Some(1));
        // Drained but another miss pending: hold (MLP chaining).
        v.occupancy[1] = 20;
        a.tick(&v, 2);
        assert_eq!(a.owner(), Some(1));
        // Drained and clear: release.
        v.pending_miss[1] = false;
        a.tick(&v, 3);
        assert_eq!(a.owner(), None);
        assert!(a.stats().held_cycles >= 3);
    }

    #[test]
    fn trigger_serviced_tenure_rotates() {
        // Default policy: tenure ends when the triggering load fills,
        // capacity reverts immediately, and the partition is handed
        // over once the extension drains.
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[0] = vec![1];
        v.oldest[0] = Some(1);
        v.occupancy[0] = 33;
        v.counts[0] = 1;
        v.pending_miss[0] = true;
        a.on_l2_miss(&v, miss(0, 1), 10);
        assert_eq!(a.owner(), Some(0));
        assert_eq!(a.capacity(0), 32 + 384);
        // The trigger fills: holder stops extending at once.
        a.on_l2_fill(&v, miss(0, 1), 2, 540);
        assert_eq!(a.owner(), Some(0), "still occupied until drained");
        assert_eq!(a.capacity(0), 32, "extension stops when trigger serviced");
        // Another back-to-back miss does NOT prolong the tenure.
        v.in_flight[0] = vec![2];
        a.on_l2_miss(&v, miss(0, 2), 545);
        assert_eq!(a.capacity(0), 32);
        // Drain completes: released; the waiting candidate re-competes.
        v.occupancy[0] = 12;
        a.tick(&v, 560);
        assert_eq!(a.owner(), None);
        assert_eq!(a.stats().releases, 1);
    }

    #[test]
    fn trigger_leaving_flight_ends_tenure() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(2);
        v.in_flight[0] = vec![1];
        v.oldest[0] = Some(1);
        v.occupancy[0] = 40;
        a.on_l2_miss(&v, miss(0, 1), 10);
        assert_eq!(a.owner(), Some(0));
        // Trigger commits/squashes without a fill callback.
        v.in_flight[0] = vec![];
        v.occupancy[0] = 8;
        a.tick(&v, 20);
        assert_eq!(a.owner(), None);
    }

    #[test]
    fn drain_only_release_policy() {
        let mut cfg = TwoLevelConfig::r_rob(16);
        cfg.release = ReleasePolicy::DrainOnly;
        let mut a = TwoLevelRob::new(cfg);
        let mut v = FakeView::new(4);
        v.in_flight[1] = vec![7];
        v.oldest[1] = Some(7);
        v.occupancy[1] = 32;
        a.on_l2_miss(&v, miss(1, 7), 0);
        v.occupancy[1] = 12;
        v.pending_miss[1] = true; // ignored by DrainOnly
        a.tick(&v, 1);
        assert_eq!(a.owner(), None);
    }

    #[test]
    fn predictive_cold_start_then_learns() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::p_rob(5));
        let mut v = FakeView::new(4);
        v.in_flight[3] = vec![11];
        // Cold predictor: no allocation.
        a.on_l2_miss(&v, miss(3, 11), 10);
        assert_eq!(a.owner(), None);
        assert_eq!(a.stats().pred_cold, 1);
        // Train with a small count at fill.
        a.on_l2_fill(&v, miss(3, 11), 2, 500);
        // Next instance of the same static load: predicted below.
        v.in_flight[3] = vec![12];
        a.on_l2_miss(&v, miss(3, 11), 600); // same pc (derived from tag)
        assert_eq!(a.owner(), Some(3));
        assert_eq!(a.stats().pred_hits, 1);
    }

    #[test]
    fn predictive_rejects_learned_high_dod() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::p_rob(3));
        let v = FakeView::new(4);
        a.on_l2_fill(&v, miss(0, 4), 30, 100);
        a.on_l2_miss(&v, miss(0, 4), 200);
        assert_eq!(a.owner(), None);
        assert_eq!(a.stats().rejected_dod, 1);
    }

    #[test]
    fn predictive_verification_scores_accuracy() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::p_rob(5));
        let v = FakeView::new(4);
        a.on_l2_fill(&v, miss(0, 4), 2, 100); // learn "below"
        a.on_l2_fill(&v, miss(0, 4), 2, 200); // verify: below == below ✓
        assert_eq!(a.stats().pred_verified, 1);
        assert_eq!(a.stats().pred_correct, 1);
        a.on_l2_fill(&v, miss(0, 4), 9, 300); // verify: predicted below, was above ✗
        assert_eq!(a.stats().pred_verified, 2);
        assert_eq!(a.stats().pred_correct, 1);
        assert!((a.stats().prediction_accuracy() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn squash_drops_candidates() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::cdr_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[0] = vec![5];
        a.on_l2_miss(&v, miss(0, 5), 0);
        a.on_squash(0, 3, 1);
        // Candidate gone: the delayed count never allocates.
        v.counts[0] = 0;
        a.tick(&v, 100);
        assert_eq!(a.owner(), None);
    }

    #[test]
    fn wrong_path_misses_ignored() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[0] = vec![5];
        v.oldest[0] = Some(5);
        let mut ev = miss(0, 5);
        ev.wrong_path = true;
        a.on_l2_miss(&v, ev, 0);
        a.tick(&v, 50);
        assert_eq!(a.owner(), None);
    }

    #[test]
    fn dead_candidates_are_dropped() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let mut v = FakeView::new(4);
        v.in_flight[0] = vec![5];
        v.oldest[0] = Some(3);
        v.occupancy[0] = 32;
        a.on_l2_miss(&v, miss(0, 5), 0);
        // Load leaves flight (filled + committed) before conditions met.
        v.in_flight[0] = vec![];
        a.tick(&v, 10);
        a.tick(&v, 20);
        assert_eq!(a.owner(), None);
    }

    #[test]
    fn names_match_paper() {
        assert_eq!(
            TwoLevelRob::new(TwoLevelConfig::r_rob(16)).name(),
            "2-Level R-ROB16"
        );
        assert_eq!(
            TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15)).name(),
            "2-Level Relaxed R-ROB15"
        );
        assert_eq!(
            TwoLevelRob::new(TwoLevelConfig::cdr_rob(15)).name(),
            "2-Level CDR-ROB15"
        );
        assert_eq!(
            TwoLevelRob::new(TwoLevelConfig::p_rob(3)).name(),
            "2-Level P-ROB3"
        );
        assert_eq!(
            TwoLevelRob::new(TwoLevelConfig::r_rob(16)).max_capacity(),
            416
        );
    }

    #[test]
    fn tenure_view_exposes_drain_timestamp() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(2);
        v.in_flight[0] = vec![1];
        v.oldest[0] = Some(1);
        v.occupancy[0] = 40;
        a.on_l2_miss(&v, miss(0, 1), 10);
        let t = a.tenure_view().expect("tenure live after allocation");
        assert_eq!((t.thread, t.trigger_tag, t.draining_since), (0, 1, None));
        // The squash of the trigger stamps the start of the drain.
        a.on_squash(0, 1, 25);
        assert_eq!(a.tenure_view().unwrap().draining_since, Some(25));
        v.occupancy[0] = 4;
        a.tick(&v, 30);
        assert_eq!(a.tenure_view(), None, "released after drain");
    }

    #[test]
    fn candidate_tags_are_sorted_and_tracked() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::cdr_rob(15));
        let mut v = FakeView::new(4);
        v.in_flight[2] = vec![9];
        v.in_flight[0] = vec![5];
        a.on_l2_miss(&v, miss(2, 9), 0);
        a.on_l2_miss(&v, miss(0, 5), 0);
        let mut tags = Vec::new();
        a.candidate_tags_into(&mut tags);
        assert_eq!(tags, vec![(0, 5), (2, 9)]);
        a.on_squash(0, 5, 1);
        a.candidate_tags_into(&mut tags);
        assert_eq!(tags, vec![(2, 9)]);
    }

    #[test]
    fn skip_quiesce_mirrors_tick_action_cycles() {
        // No tenure, no candidates: quiescent forever.
        let a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let v = FakeView::new(2);
        assert_eq!(a.skip_quiesce(&v), Some(Cycle::MAX));

        // A pending CDR candidate bounds the horizon at its check_at.
        let mut a = TwoLevelRob::new(TwoLevelConfig::cdr_rob(15));
        let mut v = FakeView::new(2);
        v.in_flight[0] = vec![5];
        a.on_l2_miss(&v, miss(0, 5), 100);
        assert_eq!(a.skip_quiesce(&v), Some(132), "check_at = now + delay");

        // A held tenure whose trigger is still in flight (not drained,
        // not serviced) only accumulates held_cycles: horizon open, and
        // on_cycles_skipped replicates the accumulator.
        let mut a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        let mut v = FakeView::new(2);
        v.in_flight[0] = vec![1];
        v.oldest[0] = Some(1);
        v.occupancy[0] = 40;
        a.on_l2_miss(&v, miss(0, 1), 10);
        assert_eq!(a.owner(), Some(0));
        assert_eq!(a.skip_quiesce(&v), Some(Cycle::MAX));
        let before = a.stats().held_cycles;
        a.on_cycles_skipped(7);
        assert_eq!(a.stats().held_cycles, before + 7);

        // Once the trigger leaves flight the very next tick stamps the
        // drain start: the allocator acts now, vetoing any skip.
        v.in_flight[0] = vec![];
        assert_eq!(a.skip_quiesce(&v), Some(0));
    }

    #[test]
    fn deny_reason_soundness_table() {
        let predictive = TwoLevelConfig::p_rob(5).scheme;
        let reactive = TwoLevelConfig::r_rob(16).scheme;
        let cdr = TwoLevelConfig::cdr_rob(15).scheme;
        for r in DenyReason::ALL {
            assert!(predictive.may_deny(r), "{r:?} reachable under P-ROB");
        }
        for s in [reactive, cdr] {
            assert!(s.may_deny(DenyReason::Busy));
            assert!(s.may_deny(DenyReason::HighDod));
            assert!(!s.may_deny(DenyReason::ColdPredictor));
        }
        assert_eq!(reactive.kind(), SchemeKind::Reactive);
        assert_eq!(cdr.kind(), SchemeKind::CountDelayed);
        assert_eq!(predictive.kind(), SchemeKind::Predictive);
    }

    #[test]
    fn conservation_bound_counts_shared_level_once() {
        let a = TwoLevelRob::new(TwoLevelConfig::r_rob(16));
        assert_eq!(a.conservation_bound(4), 4 * 32 + 384);
        assert_eq!(a.conservation_bound(1), 32 + 384);
    }

    #[test]
    fn audit_passes_consistent_states_and_catches_oversubscription() {
        let mut a = TwoLevelRob::new(TwoLevelConfig::relaxed_r_rob(15));
        let mut v = FakeView::new(2);
        assert_eq!(a.audit(&v), None, "idle allocator is consistent");
        v.in_flight[0] = vec![1];
        v.oldest[0] = Some(1);
        v.occupancy[0] = 30;
        a.on_l2_miss(&v, miss(0, 1), 10);
        assert_eq!(a.owner(), Some(0));
        v.occupancy[0] = 200; // holder may exceed its first level
        assert_eq!(a.audit(&v), None);
        // A non-owner beyond its private first level means dispatch is
        // consuming second-level entries the policy never granted.
        v.occupancy[1] = 40;
        let detail = a.audit(&v).expect("oversubscription must be caught");
        assert!(detail.contains("t1"), "{detail}");
    }

    #[test]
    fn path_and_bit_predictors_construct() {
        for kind in [DodPredictorKind::ThresholdBit, DodPredictorKind::Path] {
            let mut cfg = TwoLevelConfig::p_rob(5);
            cfg.scheme = Scheme::Predictive { predictor: kind };
            let mut a = TwoLevelRob::new(cfg);
            let v = FakeView::new(2);
            a.on_l2_fill(&v, miss(0, 1), 1, 10);
            a.on_l2_miss(&v, miss(0, 1), 20);
            assert_eq!(a.owner(), Some(0), "{kind:?}");
        }
    }
}
