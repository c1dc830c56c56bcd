//! Trace-conformance monitoring: is a concrete simulator trace a
//! behaviour the abstract protocol model accepts?
//!
//! The model is `smtsim-check`'s executable spec of the two-level
//! transfer protocol (DESIGN.md §14); the [`harness`](crate::harness)
//! judges every two-level trace it runs here, and `smtsim-check`'s
//! tests pin the monitor's rules to the model's.
//!
//! Two independent layers, both prefix-closed (a truncated stream that
//! has not violated anything yet passes):
//!
//! 1. **Stream monitor** ([`check_stream`]) — folds the raw
//!    `(cycle, TraceEvent)` stream through the global protocol state
//!    (partition owner, per-episode lifecycle), checking exclusivity,
//!    deny-reason soundness, release matching and occupancy bounds as
//!    each event arrives.
//! 2. **Episode paths** — reconstructs [`Episode`]s and replays each
//!    one's [`Episode::protocol_steps`] projection through the
//!    per-episode acceptance rules of the abstract model
//!    ([`check_episode_path`]).
//!
//! ## Intra-cycle event order
//!
//! The pipeline emits `Squash`/`L2MissDetected`/`L2Fill` (and
//! `RobOccupancy` samples) at the moment they happen, while the
//! allocator's decisions are buffered and folded in once per cycle
//! *afterwards* — so within one cycle, stream order is not decision
//! order. The monitor therefore (a) pre-scans each cycle to learn who
//! owns (or acquires) the partition that cycle before judging
//! occupancy samples, and (b) grants a same-cycle grace window where a
//! decision may race a squash/fill of the same episode. Across cycles
//! the checks are strict.
//!
//! ## Orphan fills
//!
//! A fill may legally arrive for a tag that was never detected:
//! store-to-load forwarding (or a squash/refetch race) resolves the
//! load before its detection event fires, so the core skips detection
//! — but the fill was queued at issue and still lands. The allocator
//! treats such a notification as a no-op, so the monitor accepts the
//! fill as noise while still refusing any allocator *decision* that
//! targets the undetected tag.

use smtsim_obs::{
    Cycle, DenyReason, DodSource, Episode, EpisodeReconstructor, ProtocolStep, ThreadId, TraceEvent,
};
use smtsim_rob2::{ReleasePolicy, SchemeKind, TwoLevelConfig};
use std::collections::BTreeMap;
use std::fmt;

/// A conformance violation: the concrete trace did something the
/// abstract model forbids.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Nonconformance {
    /// Cycle of the offending event (or episode step).
    pub cycle: Cycle,
    /// What rule was broken, with context.
    pub detail: String,
}

impl fmt::Display for Nonconformance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cycle {}: {}", self.cycle, self.detail)
    }
}

/// Summary of one conforming stream.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Conformance {
    /// Events folded.
    pub events: usize,
    /// Episodes reconstructed and path-checked.
    pub episodes: usize,
    /// Partition grants observed.
    pub grants: usize,
    /// Denials observed.
    pub denials: usize,
    /// Releases observed.
    pub releases: usize,
}

impl std::ops::AddAssign for Conformance {
    fn add_assign(&mut self, other: Conformance) {
        self.events += other.events;
        self.episodes += other.episodes;
        self.grants += other.grants;
        self.denials += other.denials;
        self.releases += other.releases;
    }
}

/// Per-episode bookkeeping for the stream pass.
#[derive(Clone, Copy, Debug, Default)]
struct EpState {
    wrong_path_at_detect: bool,
    terminal_denied: bool,
    granted: bool,
    filled_at: Option<Cycle>,
    squashed_at: Option<Cycle>,
    /// The fill arrived without a detection: store-to-load forwarding
    /// (or a squash/refetch race) resolved the load before its
    /// detection event fired, so the core skipped detection but the
    /// already-queued fill still lands. Legal noise — but the
    /// allocator never saw the miss, so any *decision* targeting the
    /// tag is a violation.
    orphan: bool,
}

/// The abstract state the stream monitor carries between events.
struct StreamMonitor<'a> {
    cfg: &'a TwoLevelConfig,
    kind: SchemeKind,
    owner: Option<(ThreadId, u64)>,
    eps: BTreeMap<(ThreadId, u64), EpState>,
    stats: Conformance,
}

impl StreamMonitor<'_> {
    fn fail<S: Into<String>>(&self, cycle: Cycle, detail: S) -> Nonconformance {
        Nonconformance {
            cycle,
            detail: detail.into(),
        }
    }

    /// The model's deny-soundness table (`smtsim_check::deny_sound`),
    /// evaluated on the monitor's view of the partition: the rule needs
    /// only the tenure, so it is inlined rather than run on a shim
    /// model state.
    fn deny_reason_ok(&self, reason: DenyReason) -> bool {
        match reason {
            DenyReason::Busy => self.owner.is_some(),
            DenyReason::HighDod => self.owner.is_none() || self.kind == SchemeKind::Predictive,
            DenyReason::ColdPredictor => self.kind == SchemeKind::Predictive,
        }
    }

    /// A decision (grant/deny) targeting `(thread, tag)` must hit a
    /// live, allocator-visible episode. Same-cycle squash/fill races
    /// are allowed (see the module docs); strictly-earlier ones are
    /// violations.
    fn decision_target(
        &self,
        cycle: Cycle,
        what: &str,
        thread: ThreadId,
        tag: u64,
    ) -> Result<EpState, Nonconformance> {
        let Some(ep) = self.eps.get(&(thread, tag)).copied() else {
            return Err(self.fail(
                cycle,
                format!("{what} for t{thread}/tag{tag} never detected"),
            ));
        };
        if ep.orphan {
            return Err(self.fail(
                cycle,
                format!(
                    "{what} for t{thread}/tag{tag}, whose detection was skipped \
                     (the allocator never saw the miss)"
                ),
            ));
        }
        if ep.wrong_path_at_detect {
            return Err(self.fail(
                cycle,
                format!(
                    "{what} for wrong-path miss t{thread}/tag{tag} (allocator must not see it)"
                ),
            ));
        }
        if ep.terminal_denied {
            return Err(self.fail(
                cycle,
                format!("{what} for t{thread}/tag{tag} after a terminal denial"),
            ));
        }
        if let Some(f) = ep.filled_at {
            if f < cycle {
                return Err(self.fail(
                    cycle,
                    format!("{what} for t{thread}/tag{tag} filled back at cycle {f}"),
                ));
            }
        }
        if let Some(s) = ep.squashed_at {
            if s < cycle {
                return Err(self.fail(
                    cycle,
                    format!("{what} for t{thread}/tag{tag} squashed back at cycle {s}"),
                ));
            }
        }
        Ok(ep)
    }

    fn feed(
        &mut self,
        cycle: Cycle,
        event: &TraceEvent,
        cycle_owners: &[ThreadId],
    ) -> Result<(), Nonconformance> {
        self.stats.events += 1;
        match *event {
            TraceEvent::L2MissDetected {
                thread,
                tag,
                wrong_path,
                ..
            } => {
                if self.eps.contains_key(&(thread, tag)) {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "duplicate miss detection for t{thread}/tag{tag} (tags are unique)"
                        ),
                    ));
                }
                self.eps.insert(
                    (thread, tag),
                    EpState {
                        wrong_path_at_detect: wrong_path,
                        ..EpState::default()
                    },
                );
            }
            TraceEvent::L2Fill { thread, tag, .. } => {
                // A fill for a tag that was never detected is an
                // *orphan*: forwarding (or a squash/refetch race)
                // resolved the load before its detection event fired,
                // so the core skipped detection — but the fill was
                // already queued at issue. The allocator treats the
                // notification as a no-op; the monitor records the tag
                // so a later decision targeting it is still refused.
                let ep = self.eps.entry((thread, tag)).or_insert(EpState {
                    orphan: true,
                    ..EpState::default()
                });
                if let Some(f) = ep.filled_at {
                    return Err(self.fail(
                        cycle,
                        format!("second fill for t{thread}/tag{tag} (first at cycle {f})"),
                    ));
                }
                if let Some(s) = ep.squashed_at {
                    if s < cycle {
                        return Err(self.fail(
                            cycle,
                            format!(
                                "fill for t{thread}/tag{tag} squashed back at cycle {s} \
                                 (squashed loads never fill)"
                            ),
                        ));
                    }
                }
                ep.filled_at = Some(cycle);
            }
            TraceEvent::DodSampled {
                thread,
                tag,
                value,
                source,
            } => {
                let predictive = self.kind == SchemeKind::Predictive;
                match source {
                    DodSource::Predictor => {
                        if !predictive {
                            return Err(self.fail(
                                cycle,
                                format!(
                                    "predictor DoD sample under {:?} (t{thread}/tag{tag})",
                                    self.kind
                                ),
                            ));
                        }
                        if value > 1 {
                            return Err(self.fail(
                                cycle,
                                format!("predictor verdict {value} ∉ {{0,1}} (t{thread}/tag{tag})"),
                            ));
                        }
                    }
                    DodSource::CounterAtDecision => {
                        if predictive {
                            return Err(self.fail(
                                cycle,
                                format!(
                                    "decision-time counter sample under the predictive scheme \
                                     (t{thread}/tag{tag})"
                                ),
                            ));
                        }
                    }
                    // Fill-time counter reads train predictors and
                    // close counting episodes — legal everywhere.
                    DodSource::CounterAtFill => {}
                }
                if source != DodSource::CounterAtFill {
                    // Decision samples target allocator-visible misses.
                    self.decision_target(cycle, "DoD decision sample", thread, tag)?;
                }
            }
            TraceEvent::L2RobAllocated { thread, tag } => {
                if let Some((ot, otag)) = self.owner {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "grant to t{thread}/tag{tag} while t{ot}/tag{otag} holds the \
                             partition (grant-while-full)"
                        ),
                    ));
                }
                let ep = self.decision_target(cycle, "grant", thread, tag)?;
                if ep.granted {
                    return Err(self.fail(
                        cycle,
                        format!("second grant to the same episode t{thread}/tag{tag}"),
                    ));
                }
                self.eps.get_mut(&(thread, tag)).expect("checked").granted = true;
                self.owner = Some((thread, tag));
                self.stats.grants += 1;
            }
            TraceEvent::L2RobDenied {
                thread,
                tag,
                reason,
            } => {
                self.decision_target(cycle, "denial", thread, tag)?;
                if !self.deny_reason_ok(reason) {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "deny-reason soundness: {} for t{thread}/tag{tag} under {:?} \
                             with owner {:?}",
                            reason.name(),
                            self.kind,
                            self.owner
                        ),
                    ));
                }
                if reason != DenyReason::Busy {
                    self.eps
                        .get_mut(&(thread, tag))
                        .expect("checked")
                        .terminal_denied = true;
                }
                self.stats.denials += 1;
            }
            TraceEvent::L2RobReleased {
                thread,
                trigger_tag,
            } => match self.owner {
                Some((ot, otag)) if (ot, otag) == (thread, trigger_tag) => {
                    self.owner = None;
                    self.stats.releases += 1;
                }
                Some((ot, otag)) => {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "release by t{thread}/tag{trigger_tag} but the tenure belongs \
                             to t{ot}/tag{otag}"
                        ),
                    ));
                }
                None => {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "release by t{thread}/tag{trigger_tag} with the partition \
                             already free (double release)"
                        ),
                    ));
                }
            },
            TraceEvent::Squash { thread, first_tag } => {
                for ((t, tag), ep) in self.eps.range_mut((thread, first_tag)..) {
                    if *t != thread {
                        break;
                    }
                    if *tag >= first_tag && ep.squashed_at.is_none() {
                        ep.squashed_at = Some(cycle);
                    }
                }
            }
            TraceEvent::RobOccupancy { thread, occupancy } => {
                let l1 = u32::try_from(self.cfg.l1_entries).unwrap_or(u32::MAX);
                let cap = l1.saturating_add(u32::try_from(self.cfg.l2_entries).unwrap_or(u32::MAX));
                if occupancy > cap {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "occupancy-conservation: t{thread} at {occupancy} entries, \
                             hard bound l1+l2 = {cap}"
                        ),
                    ));
                }
                if occupancy > l1 && !cycle_owners.contains(&thread) {
                    return Err(self.fail(
                        cycle,
                        format!(
                            "occupancy-conservation: t{thread} at {occupancy} > l1 = {l1} \
                             without holding the partition this cycle (owners: {cycle_owners:?})"
                        ),
                    ));
                }
            }
            TraceEvent::ThreadStall { .. }
            | TraceEvent::Commit { .. }
            | TraceEvent::MemFillScheduled { .. } => {}
        }
        Ok(())
    }
}

/// Checks a full `(cycle, TraceEvent)` stream (as produced by a traced
/// simulator run under two-level config `cfg`) against the abstract
/// protocol model: stream-level global checks, then per-episode path
/// acceptance.
///
/// # Errors
/// The first [`Nonconformance`] found.
pub fn check_stream(
    cfg: &TwoLevelConfig,
    events: &[(Cycle, TraceEvent)],
) -> Result<Conformance, Nonconformance> {
    let mut mon = StreamMonitor {
        cfg,
        kind: cfg.scheme.kind(),
        owner: None,
        eps: BTreeMap::new(),
        stats: Conformance::default(),
    };
    let mut i = 0;
    while i < events.len() {
        let cycle = events[i].0;
        let mut j = i;
        while j < events.len() && events[j].0 == cycle {
            j += 1;
        }
        // Pre-scan the cycle: who owns the partition at any point in
        // it? Occupancy samples are emitted before the allocator's
        // buffered grant events of the same cycle, so the owner set
        // must look ahead.
        let mut cycle_owners = Vec::new();
        if let Some((t, _)) = mon.owner {
            cycle_owners.push(t);
        }
        for (_, ev) in &events[i..j] {
            if let TraceEvent::L2RobAllocated { thread, .. } = ev {
                if !cycle_owners.contains(thread) {
                    cycle_owners.push(*thread);
                }
            }
        }
        for (c, ev) in &events[i..j] {
            mon.feed(*c, ev, &cycle_owners)?;
        }
        i = j;
    }

    // Layer 2: per-episode protocol paths.
    let episodes = EpisodeReconstructor::from_events(events);
    mon.stats.episodes = episodes.len();
    for ep in &episodes {
        check_episode_path(cfg.scheme.kind(), cfg.release, ep)?;
    }
    Ok(mon.stats)
}

/// Replays one reconstructed episode's protocol projection through the
/// abstract model's per-episode acceptance rules. The step stream is
/// cycle-sorted with protocol-rank tie-breaks
/// ([`Episode::protocol_steps`]), so same-cycle races arrive in legal
/// order when one exists.
///
/// # Errors
/// The first step the abstract episode machine rejects.
pub fn check_episode_path(
    kind: SchemeKind,
    release: ReleasePolicy,
    ep: &Episode,
) -> Result<(), Nonconformance> {
    let who = format!("t{}/tag{}", ep.thread, ep.tag);
    let steps = ep.protocol_steps();
    let reject = |cycle: Cycle, step: ProtocolStep, why: &str| {
        Err(Nonconformance {
            cycle,
            detail: format!("episode {who}: {} rejected — {why}", step.name()),
        })
    };
    let mut detected = false;
    let mut wrong_path = false;
    let mut terminal = false;
    let mut granted = false;
    let mut filled = false;
    let mut squashed = false;
    let mut released = false;
    for (idx, &(cycle, step)) in steps.iter().enumerate() {
        match step {
            ProtocolStep::Detected { wrong_path: wp } => {
                if idx != 0 {
                    return reject(cycle, step, "detection must open the episode");
                }
                detected = true;
                wrong_path = wp;
            }
            ProtocolStep::Denied(reason) => {
                if !detected || wrong_path {
                    return reject(cycle, step, "denial of an undetected or wrong-path miss");
                }
                if granted || terminal || filled || squashed || released {
                    return reject(cycle, step, "candidacy already over");
                }
                if reason == DenyReason::ColdPredictor && kind != SchemeKind::Predictive {
                    return reject(cycle, step, "cold-predictor denial without a predictor");
                }
                if reason != DenyReason::Busy {
                    terminal = true;
                }
            }
            ProtocolStep::Granted => {
                if !detected || wrong_path {
                    return reject(cycle, step, "grant of an undetected or wrong-path miss");
                }
                if terminal || granted || filled || squashed || released {
                    return reject(cycle, step, "candidacy already over");
                }
                granted = true;
            }
            ProtocolStep::Filled => {
                // A fill with no detection is an orphan (forwarding or
                // a squash/refetch race skipped the detection): legal
                // on its own, and every *decision* step for an
                // undetected episode is rejected by its own arm.
                if filled {
                    return reject(cycle, step, "second fill");
                }
                if squashed {
                    return reject(cycle, step, "squashed loads never fill");
                }
                filled = true;
            }
            ProtocolStep::Squashed => {
                if !detected {
                    return reject(cycle, step, "squash without detection");
                }
                if squashed {
                    return reject(cycle, step, "second squash of the same load");
                }
                squashed = true;
            }
            ProtocolStep::Released => {
                if !granted {
                    return reject(cycle, step, "release without a grant");
                }
                if released {
                    return reject(cycle, step, "double release");
                }
                // TriggerServiced and DrainAndNoMiss both require the
                // trigger itself to be out of flight; only DrainOnly
                // may hand the partition back under a live trigger.
                if release != ReleasePolicy::DrainOnly && !filled && !squashed {
                    return reject(cycle, step, "trigger still in flight at release");
                }
                released = true;
            }
        }
    }
    // An undetected episode may carry *only* orphan fills; anything
    // protocol-shaped (decisions, squashes, releases) needs detection.
    if !detected {
        if let Some(&(cycle, step)) = steps
            .iter()
            .find(|(_, s)| !matches!(s, ProtocolStep::Filled))
        {
            return reject(cycle, step, "episode never detected");
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn detect(thread: ThreadId, tag: u64) -> TraceEvent {
        TraceEvent::L2MissDetected {
            thread,
            tag,
            pc: 0x100,
            wrong_path: false,
        }
    }

    fn cfg() -> TwoLevelConfig {
        TwoLevelConfig::r_rob(16)
    }

    #[test]
    fn clean_grant_fill_release_stream_conforms() {
        let events = vec![
            (10, detect(0, 1)),
            (10, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
            (
                300,
                TraceEvent::L2Fill {
                    thread: 0,
                    tag: 1,
                    wrong_path: false,
                },
            ),
            (
                320,
                TraceEvent::L2RobReleased {
                    thread: 0,
                    trigger_tag: 1,
                },
            ),
        ];
        let stats = check_stream(&cfg(), &events).expect("conforms");
        assert_eq!((stats.grants, stats.releases, stats.episodes), (1, 1, 1));
    }

    #[test]
    fn grant_while_full_is_caught() {
        let events = vec![
            (10, detect(0, 1)),
            (10, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
            (20, detect(1, 9)),
            (20, TraceEvent::L2RobAllocated { thread: 1, tag: 9 }),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("grant-while-full"), "{err}");
    }

    #[test]
    fn double_release_is_caught() {
        let events = vec![
            (10, detect(0, 1)),
            (10, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
            (
                30,
                TraceEvent::L2RobReleased {
                    thread: 0,
                    trigger_tag: 1,
                },
            ),
            (
                31,
                TraceEvent::L2RobReleased {
                    thread: 0,
                    trigger_tag: 1,
                },
            ),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("double release"), "{err}");
    }

    #[test]
    fn busy_denial_with_free_partition_is_unsound() {
        let events = vec![
            (10, detect(0, 1)),
            (
                10,
                TraceEvent::L2RobDenied {
                    thread: 0,
                    tag: 1,
                    reason: DenyReason::Busy,
                },
            ),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("deny-reason soundness"), "{err}");
    }

    #[test]
    fn cold_predictor_denial_requires_the_predictive_scheme() {
        let events = vec![
            (10, detect(0, 1)),
            (
                10,
                TraceEvent::L2RobDenied {
                    thread: 0,
                    tag: 1,
                    reason: DenyReason::ColdPredictor,
                },
            ),
        ];
        assert!(check_stream(&cfg(), &events).is_err());
        assert!(check_stream(&TwoLevelConfig::p_rob(5), &events).is_ok());
    }

    #[test]
    fn grant_to_wrong_path_miss_is_caught() {
        let events = vec![
            (
                10,
                TraceEvent::L2MissDetected {
                    thread: 0,
                    tag: 1,
                    pc: 0x100,
                    wrong_path: true,
                },
            ),
            (12, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("wrong-path"), "{err}");
    }

    #[test]
    fn same_cycle_squash_race_is_tolerated_but_later_grant_is_not() {
        let squash = TraceEvent::Squash {
            thread: 0,
            first_tag: 1,
        };
        let grant = TraceEvent::L2RobAllocated { thread: 0, tag: 1 };
        // Same cycle: the allocator decided before it saw the squash.
        let racy = vec![(10, detect(0, 1)), (20, squash), (20, grant)];
        assert!(check_stream(&cfg(), &racy).is_ok());
        // Later cycle: the candidate must be gone.
        let stale = vec![(10, detect(0, 1)), (20, squash), (21, grant)];
        let err = check_stream(&cfg(), &stale).unwrap_err();
        assert!(err.detail.contains("squashed back"), "{err}");
    }

    #[test]
    fn occupancy_above_l1_requires_the_partition_even_before_the_grant_event() {
        let c = cfg();
        let l1 = u32::try_from(c.l1_entries).unwrap();
        // The occupancy sample lands in the stream before the same
        // cycle's buffered grant event: the lookahead owner set must
        // absorb it.
        let events = vec![
            (10, detect(0, 1)),
            (
                10,
                TraceEvent::RobOccupancy {
                    thread: 0,
                    occupancy: l1 + 1,
                },
            ),
            (10, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
        ];
        assert!(check_stream(&c, &events).is_ok());
        // Without any grant in the cycle it is a conservation breach.
        let events = vec![
            (10, detect(0, 1)),
            (
                10,
                TraceEvent::RobOccupancy {
                    thread: 0,
                    occupancy: l1 + 1,
                },
            ),
        ];
        let err = check_stream(&c, &events).unwrap_err();
        assert!(err.detail.contains("occupancy-conservation"), "{err}");
    }

    #[test]
    fn release_with_live_trigger_needs_drain_only() {
        let events = vec![
            (10, detect(0, 1)),
            (10, TraceEvent::L2RobAllocated { thread: 0, tag: 1 }),
            (
                40,
                TraceEvent::L2RobReleased {
                    thread: 0,
                    trigger_tag: 1,
                },
            ),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("still in flight"), "{err}");
        let mut drain_only = cfg();
        drain_only.release = ReleasePolicy::DrainOnly;
        assert!(check_stream(&drain_only, &events).is_ok());
    }

    #[test]
    fn fill_after_squash_is_caught_across_cycles() {
        let events = vec![
            (10, detect(0, 1)),
            (
                20,
                TraceEvent::Squash {
                    thread: 0,
                    first_tag: 1,
                },
            ),
            (
                30,
                TraceEvent::L2Fill {
                    thread: 0,
                    tag: 1,
                    wrong_path: false,
                },
            ),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("never fill"), "{err}");
    }

    #[test]
    fn orphan_fill_is_legal_noise() {
        // Forwarding resolved the load before its detection event
        // fired: the fill (and its fill-time DoD sample) arrive for a
        // tag that was never detected. Both are accepted.
        let events = vec![
            (10, detect(0, 1)),
            (
                12,
                TraceEvent::L2Fill {
                    thread: 0,
                    tag: 7,
                    wrong_path: false,
                },
            ),
            (
                12,
                TraceEvent::DodSampled {
                    thread: 0,
                    tag: 7,
                    value: 3,
                    source: DodSource::CounterAtFill,
                },
            ),
        ];
        let report = check_stream(&cfg(), &events).expect("orphan fill conforms");
        assert_eq!(report.episodes, 2);
    }

    #[test]
    fn decision_on_an_orphan_fill_is_refused() {
        // The allocator never saw the miss (detection was skipped), so
        // granting its tag the partition cannot happen.
        let events = vec![
            (
                12,
                TraceEvent::L2Fill {
                    thread: 0,
                    tag: 7,
                    wrong_path: false,
                },
            ),
            (14, TraceEvent::L2RobAllocated { thread: 0, tag: 7 }),
        ];
        let err = check_stream(&cfg(), &events).unwrap_err();
        assert!(err.detail.contains("detection was skipped"), "{err}");
    }
}
