//! The differential harness: every configuration the committed specs
//! render ([`smtsim_rob2::committed_variants`]) over one workload set,
//! all commit streams equal to the in-order reference.
//!
//! Beyond stream equality the harness enforces two timing-side
//! invariants that commit streams cannot observe (they are what make
//! the mutation self-test possible — a timing-only bug like an
//! off-by-one DoD scan window never corrupts architectural state):
//!
//! * every `DodSampled { source: CounterAtFill }` value is at most
//!   [`DOD_WINDOW`] — the counter scans the first-level window minus
//!   the load itself, so a larger value means the scan walked out of
//!   bounds;
//! * the static-DoD oracle records zero violations when bound tables
//!   are installed.
//!
//! Failures carry the first divergent commit and, where a thread/tag is
//! implicated, the enclosing L2-miss episode reconstructed from the
//! same trace ([`EpisodeReconstructor`]).

use crate::capture::{capture_streams, CaptureError};
use crate::record::CommitRecord;
use crate::reference::Reference;
use smtsim_obs::{episode_line, Cycle, DodSource, EpisodeReconstructor, TraceEvent, TraceLog};
use smtsim_pipeline::{DodBounds, MachineConfig, SimError, Simulator, StopCondition, DOD_WINDOW};
use smtsim_rob2::experiment::static_bounds;
use smtsim_rob2::{RobConfig, SpecVariant};
use smtsim_workload::Workload;
use std::fmt;
use std::sync::Arc;

/// A passing differential: how much evidence was accumulated.
#[derive(Clone, Debug)]
pub struct ConformReport {
    /// Matrix names of the configurations compared.
    pub configs: Vec<String>,
    /// Total commit records compared against the reference.
    pub commits_compared: u64,
}

/// Why the differential failed. Every variant names the configuration
/// whose run surfaced the defect; variants about a specific commit or
/// sample carry the enclosing L2-miss episode when one exists.
#[derive(Clone, Debug)]
pub enum ConformFailure {
    /// The simulator itself failed (deadlock, invariant violation, …).
    Sim {
        /// Matrix name of the configuration.
        config: String,
        /// Rendered simulator error.
        error: String,
    },
    /// The commit stream was structurally corrupt before comparison.
    StreamCorrupt {
        /// Matrix name of the configuration.
        config: String,
        /// The capture-layer defect.
        error: CaptureError,
        /// Enclosing episode (JSON line), if reconstructable.
        episode: Option<String>,
    },
    /// A fill-time DoD sample exceeded the first-level scan window.
    DodSampleOutOfRange {
        /// Matrix name of the configuration.
        config: String,
        /// Thread the sample belongs to.
        thread: usize,
        /// ROB tag of the triggering load.
        tag: u64,
        /// The out-of-range sampled value.
        value: u32,
        /// Cycle the sample was traced at.
        cycle: Cycle,
        /// Enclosing episode (JSON line), if reconstructable.
        episode: Option<String>,
    },
    /// The static-DoD oracle recorded violations.
    OracleViolations {
        /// Matrix name of the configuration.
        config: String,
        /// Number of violations recorded in `SimStats::dod_oracle`.
        violations: u64,
    },
    /// A committed record differed from the in-order reference.
    CommitDivergence {
        /// Matrix name of the configuration.
        config: String,
        /// Thread whose stream diverged.
        thread: usize,
        /// Index of the first divergent commit in the thread's stream.
        index: usize,
        /// What the reference executed at that index.
        expected: CommitRecord,
        /// What the pipeline committed at that index.
        actual: CommitRecord,
        /// ROB tag of the divergent commit.
        tag: u64,
        /// Enclosing episode (JSON line), if reconstructable.
        episode: Option<String>,
    },
}

impl fmt::Display for ConformFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let episode_suffix = |ep: &Option<String>| match ep {
            Some(line) => format!("\n  episode context: {line}"),
            None => "\n  episode context: none (no L2-miss episode on this thread)".to_owned(),
        };
        match self {
            ConformFailure::Sim { config, error } => {
                write!(f, "[{config}] simulator failed: {error}")
            }
            ConformFailure::StreamCorrupt {
                config,
                error,
                episode,
            } => {
                write!(f, "[{config}] {error}{}", episode_suffix(episode))
            }
            ConformFailure::DodSampleOutOfRange {
                config,
                thread,
                tag,
                value,
                cycle,
                episode,
            } => write!(
                f,
                "[{config}] fill-time DoD sample out of range: thread {thread} tag {tag} \
                 sampled {value} > window {DOD_WINDOW} at cycle {cycle}{}",
                episode_suffix(episode)
            ),
            ConformFailure::OracleViolations { config, violations } => write!(
                f,
                "[{config}] static-DoD oracle recorded {violations} violation(s)"
            ),
            ConformFailure::CommitDivergence {
                config,
                thread,
                index,
                expected,
                actual,
                tag,
                episode,
            } => write!(
                f,
                "[{config}] commit stream diverged from reference: thread {thread} \
                 commit #{index} (tag {tag})\n  expected: {expected:?}\n  actual:   {actual:?}{}",
                episode_suffix(episode)
            ),
        }
    }
}

/// The enclosing (or nearest preceding) L2-miss episode for a
/// thread/tag, rendered as its canonical JSON line.
fn episode_context(events: &[(Cycle, TraceEvent)], thread: usize, tag: u64) -> Option<String> {
    let episodes = EpisodeReconstructor::from_events(events);
    episodes
        .iter()
        .filter(|e| e.thread == thread && e.tag <= tag)
        .max_by_key(|e| e.tag)
        .or_else(|| {
            episodes
                .iter()
                .filter(|e| e.thread == thread)
                .min_by_key(|e| e.tag)
        })
        .map(episode_line)
}

/// One traced run of `rob` over `wls` on the paper machine sized to
/// the workload set, with the static DoD `bounds` installed: `warmup`
/// untraced functional instructions per thread, then timed cycles until
/// any thread commits `budget`. Every oracle (the differential, the
/// protocol-monitor replay, skip equivalence) runs configurations here.
///
/// # Errors
/// The [`SimError`] that stopped the build or the run.
pub fn traced_run(
    wls: &[Arc<Workload>],
    bounds: &[DodBounds],
    rob: &RobConfig,
    seed: u64,
    budget: u64,
    warmup: u64,
    cycle_skip: bool,
) -> Result<Simulator<TraceLog>, SimError> {
    let mut machine = MachineConfig::icpp08();
    machine.num_threads = wls.len();
    machine.fetch_threads = wls.len().min(2);
    let mut sim = Simulator::builder(machine, wls.to_vec(), rob.build(), seed)
        .dod_bounds(bounds.to_vec())
        .warmup(warmup)
        .cycle_skip(cycle_skip)
        .tracer(TraceLog::new())
        .build()?;
    sim.try_run(StopCondition::AnyThreadCommitted(budget))?;
    Ok(sim)
}

/// Runs the full differential over one workload set: every
/// configuration of `matrix` (normally
/// [`smtsim_rob2::committed_variants`]) on `wls`, all canonical commit
/// streams equal to the in-order reference, DoD samples in range, zero
/// oracle violations.
///
/// `seed` seeds the simulator (thread `t`'s executor derives
/// `seed + t`, and the reference mirrors that); `budget` is the
/// `AnyThreadCommitted` stop condition; `warmup` functional
/// instructions per thread run untraced before cycle 0.
///
/// # Errors
/// The first [`ConformFailure`] encountered, boxed (the variant is
/// large); configurations are checked in matrix order.
pub fn check_workloads(
    wls: &[Arc<Workload>],
    matrix: &[SpecVariant],
    seed: u64,
    budget: u64,
    warmup: u64,
) -> Result<ConformReport, Box<ConformFailure>> {
    let bounds: Vec<DodBounds> = wls.iter().map(|w| static_bounds(w)).collect();

    // Reference streams grow lazily to the longest stream any
    // configuration commits; records are position-stable so prefix
    // comparison against a longer reference is sound.
    let mut refs: Vec<Reference> = wls
        .iter()
        .enumerate()
        .map(|(t, w)| {
            let mut r = Reference::new(w.clone(), seed.wrapping_add(t as u64));
            r.skip(warmup);
            r
        })
        .collect();
    let mut ref_streams: Vec<Vec<CommitRecord>> = vec![Vec::new(); wls.len()];

    let mut report = ConformReport {
        configs: Vec::new(),
        commits_compared: 0,
    };

    for variant in matrix {
        let config = variant.name.clone();
        let sim =
            traced_run(wls, &bounds, &variant.config, seed, budget, warmup, true).map_err(|e| {
                ConformFailure::Sim {
                    config: config.clone(),
                    error: e.to_string(),
                }
            })?;
        let violations = sim.stats().dod_oracle.violations;
        let events = sim.into_tracer().into_events();

        // Timing-side invariant: fill-time DoD samples never exceed the
        // first-level scan window.
        for &(cycle, ev) in &events {
            if let TraceEvent::DodSampled {
                thread,
                tag,
                value,
                source: DodSource::CounterAtFill,
            } = ev
            {
                if value as usize > DOD_WINDOW {
                    let episode = episode_context(&events, thread, tag);
                    return Err(Box::new(ConformFailure::DodSampleOutOfRange {
                        config,
                        thread,
                        tag,
                        value,
                        cycle,
                        episode,
                    }));
                }
            }
        }
        if violations > 0 {
            return Err(Box::new(ConformFailure::OracleViolations {
                config,
                violations,
            }));
        }

        let streams = match capture_streams(&events, wls) {
            Ok(s) => s,
            Err(error) => {
                let episode = episode_context(&events, error.thread, error.tag);
                return Err(Box::new(ConformFailure::StreamCorrupt {
                    config,
                    error: *error,
                    episode,
                }));
            }
        };

        for (t, stream) in streams.iter().enumerate() {
            while ref_streams[t].len() < stream.records.len() {
                let r = refs[t].step();
                ref_streams[t].push(r);
            }
            for (i, (actual, expected)) in stream.records.iter().zip(&ref_streams[t]).enumerate() {
                if actual != expected {
                    let tag = stream.tags[i];
                    let episode = episode_context(&events, t, tag);
                    return Err(Box::new(ConformFailure::CommitDivergence {
                        config,
                        thread: t,
                        index: i,
                        expected: *expected,
                        actual: *actual,
                        tag,
                        episode,
                    }));
                }
            }
            report.commits_compared += stream.records.len() as u64;
        }
        report.configs.push(config);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::committed_variants;
    use smtsim_workload::{mix, Mix};

    fn mix_workloads(idx: usize, seed: u64) -> Vec<Arc<Workload>> {
        mix(idx)
            .instantiate(seed)
            .into_iter()
            .map(Arc::new)
            .collect()
    }

    #[test]
    fn differential_passes_on_a_memory_bound_mix() {
        // Mix 1 is the paper's most memory-bound pairing — the hardest
        // case for second-level tenure bookkeeping.
        let wls = mix_workloads(1, 42);
        let matrix = committed_variants().unwrap();
        let report = check_workloads(&wls, &matrix, 42, 2_000, 0).unwrap();
        assert_eq!(report.configs.len(), matrix.len());
        assert!(report.commits_compared > 0);
    }

    #[test]
    fn differential_covers_warmup() {
        let wls = mix_workloads(2, 7);
        check_workloads(&wls, &committed_variants().unwrap(), 7, 1_500, 5_000).unwrap();
    }

    #[test]
    fn thread_space_matches_mix_convention() {
        // The harness relies on per-thread disjoint address spaces the
        // same way `Mix::instantiate` lays them out.
        assert_eq!(Mix::THREAD_SPACE, 1 << 32);
    }
}
