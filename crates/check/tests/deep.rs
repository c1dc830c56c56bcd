//! Slow-tests sweep: larger exploration bounds and the full paper-mix
//! conformance matrix. The default `cargo test` covers the small
//! bounds; this target (gated behind `--features slow-tests`) pushes
//! the state space an order of magnitude further and replays every
//! mix of Table 2 through the live simulator.

#![cfg(not(feature = "seeded-release-bug"))]

use smtsim_check::{explore, replay_mix, Bounds, ModelConfig};
use smtsim_rob2::{committed_variants, ReleasePolicy, SchemeKind};

const KINDS: [SchemeKind; 3] = [
    SchemeKind::Reactive,
    SchemeKind::CountDelayed,
    SchemeKind::Predictive,
];

const RELEASES: [ReleasePolicy; 3] = [
    ReleasePolicy::TriggerServiced,
    ReleasePolicy::DrainAndNoMiss,
    ReleasePolicy::DrainOnly,
];

fn assert_clean(bounds: Bounds) {
    for kind in KINDS {
        for release in RELEASES {
            let report = explore(&ModelConfig {
                kind,
                release,
                bounds,
            })
            .expect("valid bounds");
            assert!(
                report.clean(),
                "{kind:?}/{release:?} at {bounds:?}:\n{}",
                report.violation.unwrap()
            );
        }
    }
}

#[test]
fn three_threads_full_misses_full_l2_is_clean() {
    // ~118k quotient states per scheme × policy.
    assert_clean(Bounds {
        threads: 3,
        l2: 4,
        misses: 3,
    });
}

#[test]
fn four_threads_two_misses_full_l2_is_clean() {
    // ~71k quotient states per scheme × policy; the 4-thread × 3-miss
    // product (~2.3M states, ~30 s release per combo) is exhaustive
    // too — run it by hand via `CHECK_THREADS=4` on the `check` bin.
    assert_clean(Bounds {
        threads: 4,
        l2: 4,
        misses: 2,
    });
}

#[test]
fn every_paper_mix_conforms() {
    let matrix = committed_variants().unwrap();
    for m in 1..=11 {
        let outcomes = replay_mix(m, &matrix, 42, 1_200, 1_000)
            .unwrap_or_else(|e| panic!("mix {m} failed conformance:\n{e}"));
        assert_eq!(outcomes.len(), 23, "mix {m}: two-level configs");
        assert!(
            outcomes.iter().any(|o| o.conformance.grants > 0),
            "mix {m}: no scheme ever granted a transfer — trace too short to check anything"
        );
    }
}
