//! Tests bridging the abstract model and `smtsim-conform`'s protocol
//! monitor: the two deny-reason tables agree, random walks through the
//! model's own transition relation, rendered as concrete `TraceEvent`
//! streams (with wrong-path and squash-censored noise the allocator
//! never sees), must always pass the monitor — and locally perturbed
//! streams must always fail it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use smtsim_check::{
    deny_sound, explore, successors, Action, Bounds, ModelConfig, Phase, State, Tenure,
};
use smtsim_conform::check_stream;
use smtsim_obs::{Cycle, DenyReason, TraceEvent};
use smtsim_rob2::{ReleasePolicy, SchemeKind, TwoLevelConfig};

const THREADS: usize = 3;
const MISSES: usize = 3;

fn model_config(kind: SchemeKind, release: ReleasePolicy) -> ModelConfig {
    ModelConfig {
        kind,
        release,
        bounds: Bounds {
            threads: THREADS,
            l2: 2,
            misses: MISSES,
        },
    }
}

/// The concrete paper configuration matching a model scheme family.
fn concrete_config(kind: SchemeKind, release: ReleasePolicy) -> TwoLevelConfig {
    let mut cfg = match kind {
        SchemeKind::Reactive => TwoLevelConfig::r_rob(16),
        SchemeKind::CountDelayed => TwoLevelConfig::cdr_rob(15),
        SchemeKind::Predictive => TwoLevelConfig::p_rob(5),
    };
    cfg.release = release;
    cfg
}

/// A wrong-path episode the allocator never sees: pure stream noise.
struct Noise {
    thread: usize,
    tag: u64,
    filled: bool,
    squashed: bool,
}

/// Renders a random walk through the abstract model as a concrete
/// event stream: model actions become protocol events with fresh
/// per-thread tags and (mostly) advancing cycles, interleaved with
/// wrong-path detect/fill noise that squashes can censor.
fn random_model_stream(cfg: &ModelConfig, seed: u64, steps: usize) -> Vec<(Cycle, TraceEvent)> {
    let mut rng = TestRng::with_seed(seed);
    let mut state = State::init();
    let mut cycle: Cycle = 10;
    let mut next_tag = [1u64; THREADS];
    let mut tag_of = [[None::<u64>; MISSES]; THREADS];
    let mut noise: Vec<Noise> = Vec::new();
    let mut events: Vec<(Cycle, TraceEvent)> = Vec::new();

    let emit = |cycle: &mut Cycle, rng: &mut TestRng, ev: TraceEvent, out: &mut Vec<_>| {
        // Mostly advance the clock; sometimes pile events on one cycle
        // to exercise the monitor's intra-cycle ordering rules.
        if rng.below(5) > 0 {
            *cycle += 1 + rng.below(6);
        }
        out.push((*cycle, ev));
    };

    for _ in 0..steps {
        // Wrong-path noise the abstract model has no alphabet for.
        if rng.below(6) == 0 {
            if rng.below(2) == 0 {
                let thread = rng.below(THREADS as u64) as usize;
                let tag = next_tag[thread];
                next_tag[thread] += 1;
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2MissDetected {
                        thread,
                        tag,
                        pc: 0x4000 + tag * 4,
                        wrong_path: true,
                    },
                    &mut events,
                );
                noise.push(Noise {
                    thread,
                    tag,
                    filled: false,
                    squashed: false,
                });
            } else if let Some(n) = noise.iter_mut().find(|n| !n.filled && !n.squashed) {
                n.filled = true;
                let (thread, tag) = (n.thread, n.tag);
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2Fill {
                        thread,
                        tag,
                        wrong_path: true,
                    },
                    &mut events,
                );
            }
        }

        let succ = successors(cfg, &state);
        if succ.is_empty() {
            break;
        }
        let (action, next) = succ[rng.below(succ.len() as u64) as usize];
        match action {
            Action::Detect { thread } => {
                let t = thread as usize;
                let e = (0..MISSES)
                    .find(|&e| tag_of[t][e].is_none())
                    .expect("model had a NotStarted episode");
                let tag = next_tag[t];
                next_tag[t] += 1;
                tag_of[t][e] = Some(tag);
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2MissDetected {
                        thread: t,
                        tag,
                        pc: 0x1000 + tag * 4,
                        wrong_path: false,
                    },
                    &mut events,
                );
            }
            Action::Deny {
                thread,
                episode,
                reason,
            } => {
                let t = thread as usize;
                let tag = tag_of[t][episode as usize].expect("denied episode has a tag");
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2RobDenied {
                        thread: t,
                        tag,
                        reason,
                    },
                    &mut events,
                );
            }
            Action::Grant { thread, episode } => {
                let t = thread as usize;
                let tag = tag_of[t][episode as usize].expect("granted episode has a tag");
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2RobAllocated { thread: t, tag },
                    &mut events,
                );
            }
            Action::Fill { thread, episode } => {
                let t = thread as usize;
                let tag = tag_of[t][episode as usize].expect("filled episode has a tag");
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2Fill {
                        thread: t,
                        tag,
                        wrong_path: false,
                    },
                    &mut events,
                );
            }
            Action::Squash { thread, from } => {
                let t = thread as usize;
                let first_tag = ((from as usize)..MISSES)
                    .filter(|&e| matches!(state.phases[t][e], Phase::Pending | Phase::Trigger))
                    .filter_map(|e| tag_of[t][e])
                    .min()
                    .expect("squash censors a live, detected episode");
                for n in noise.iter_mut().filter(|n| n.thread == t) {
                    if n.tag >= first_tag && !n.filled {
                        n.squashed = true;
                    }
                }
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::Squash {
                        thread: t,
                        first_tag,
                    },
                    &mut events,
                );
            }
            // Occupancy moves have no event vocabulary of their own.
            Action::Extend { .. } | Action::Drain { .. } => {}
            Action::Release { thread } => {
                let ten = state.tenure.expect("release implies a live tenure");
                let t = thread as usize;
                let trigger_tag =
                    tag_of[t][ten.episode as usize].expect("tenure episode has a tag");
                emit(
                    &mut cycle,
                    &mut rng,
                    TraceEvent::L2RobReleased {
                        thread: t,
                        trigger_tag,
                    },
                    &mut events,
                );
            }
        }
        state = next;
    }
    events
}

fn arb_kind() -> impl Strategy<Value = SchemeKind> {
    prop::sample::select(vec![
        SchemeKind::Reactive,
        SchemeKind::CountDelayed,
        SchemeKind::Predictive,
    ])
}

fn arb_release() -> impl Strategy<Value = ReleasePolicy> {
    prop::sample::select(vec![
        ReleasePolicy::TriggerServiced,
        ReleasePolicy::DrainAndNoMiss,
        ReleasePolicy::DrainOnly,
    ])
}

/// The monitor's deny-reason table agrees with the model's
/// [`deny_sound`]: one detect/[grant]/deny stream per scheme family ×
/// deny reason × free/held partition is accepted exactly when the
/// model calls the denial sound.
#[test]
fn monitor_and_model_deny_tables_agree() {
    let free = State::init();
    let mut held = State::init();
    held.phases[0][0] = Phase::Trigger;
    held.tenure = Some(Tenure {
        thread: 0,
        episode: 0,
        draining: false,
    });
    let detect = |thread, tag| TraceEvent::L2MissDetected {
        thread,
        tag,
        pc: 0x100,
        wrong_path: false,
    };
    let grant = TraceEvent::L2RobAllocated { thread: 0, tag: 1 };
    for kind in [
        SchemeKind::Reactive,
        SchemeKind::CountDelayed,
        SchemeKind::Predictive,
    ] {
        let release = ReleasePolicy::TriggerServiced;
        let (mcfg, ccfg) = (model_config(kind, release), concrete_config(kind, release));
        for reason in DenyReason::ALL {
            let deny = |thread| TraceEvent::L2RobDenied {
                thread,
                tag: 1,
                reason,
            };
            // Free: t0's miss is denied with nobody holding the
            // partition. Held: t0 holds it when t1's miss is denied.
            let on_free = vec![(10, detect(0, 1)), (11, deny(0))];
            let on_held = vec![
                (10, detect(0, 1)),
                (10, grant),
                (20, detect(1, 1)),
                (21, deny(1)),
            ];
            for (state, events, partition) in [(&free, on_free, "free"), (&held, on_held, "held")] {
                assert_eq!(
                    check_stream(&ccfg, &events).is_ok(),
                    deny_sound(&mcfg, state, reason),
                    "{kind:?}/{reason:?} on a {partition} partition"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn random_model_paths_always_conform(
        kind in arb_kind(),
        release in arb_release(),
        seed in 0u64..1u64 << 48,
        steps in 8usize..90,
    ) {
        let mcfg = model_config(kind, release);
        let events = random_model_stream(&mcfg, seed, steps);
        let ccfg = concrete_config(kind, release);
        match check_stream(&ccfg, &events) {
            Ok(_) => {}
            Err(v) => prop_assert!(
                false,
                "model-generated stream rejected ({kind:?}/{release:?}, seed {seed}): {v}\n\
                 stream: {events:?}"
            ),
        }
    }

    #[test]
    fn perturbed_streams_are_always_rejected(
        kind in arb_kind(),
        release in arb_release(),
        seed in 0u64..1u64 << 48,
        steps in 20usize..90,
    ) {
        let mcfg = model_config(kind, release);
        let events = random_model_stream(&mcfg, seed, steps);
        let ccfg = concrete_config(kind, release);
        prop_assert!(check_stream(&ccfg, &events).is_ok());
        let last_cycle = events.last().map_or(0, |&(c, _)| c);

        // Replay a past grant or release verbatim at the end of the
        // stream: a double release, a re-grant of a finished episode or
        // a grant-while-held — the monitor must reject every variant.
        let dup = events
            .iter()
            .rev()
            .map(|&(_, ev)| ev)
            .find(|ev| matches!(
                ev,
                TraceEvent::L2RobReleased { .. } | TraceEvent::L2RobAllocated { .. }
            ));
        if let Some(ev) = dup {
            let mut mutated = events.clone();
            mutated.push((last_cycle + 1, ev));
            prop_assert!(
                check_stream(&ccfg, &mutated).is_err(),
                "duplicated {ev:?} went unnoticed ({kind:?}/{release:?}, seed {seed})"
            );
        }

        // A fill for a load squashed on an earlier cycle must be
        // rejected (squashed loads never fill).
        let squashed = events.iter().find_map(|&(c, ev)| match ev {
            TraceEvent::Squash { thread, first_tag } => Some((c, thread, first_tag)),
            _ => None,
        });
        if let Some((c, thread, tag)) = squashed {
            // Only valid if the tag was actually detected and never
            // filled before the squash (otherwise the monitor may
            // reject for a different, equally sound reason — still an
            // error, so asserting is_err stays correct).
            let mut mutated = events.clone();
            mutated.retain(|&(ec, ev)| !(ec >= c && ev == TraceEvent::L2Fill {
                thread,
                tag,
                wrong_path: false,
            }));
            mutated.push((last_cycle + 2, TraceEvent::L2Fill {
                thread,
                tag,
                wrong_path: false,
            }));
            let already_filled = events
                .iter()
                .any(|&(ec, ev)| ec < c && ev == TraceEvent::L2Fill {
                    thread,
                    tag,
                    wrong_path: false,
                });
            let detected = events.iter().any(|&(_, ev)| matches!(
                ev,
                TraceEvent::L2MissDetected { thread: t, tag: g, .. } if t == thread && g == tag
            ));
            if detected && !already_filled {
                prop_assert!(
                    check_stream(&ccfg, &mutated).is_err(),
                    "fill-after-squash went unnoticed ({kind:?}/{release:?}, seed {seed})"
                );
            }
        }
    }

    #[test]
    fn exploration_is_deterministic(
        kind in arb_kind(),
        release in arb_release(),
    ) {
        let cfg = ModelConfig {
            kind,
            release,
            bounds: Bounds { threads: 2, l2: 2, misses: 2 },
        };
        let a = explore(&cfg).expect("valid bounds");
        let b = explore(&cfg).expect("valid bounds");
        prop_assert_eq!(a.states, b.states);
        prop_assert_eq!(a.transitions, b.transitions);
        prop_assert_eq!(a.depth, b.depth);
        prop_assert_eq!(a.violation.is_none(), b.violation.is_none());
    }
}
