//! Proves event-driven cycle skipping is *timing-transparent*: for
//! every configuration the committed specs render × workload set, a
//! run with skipping enabled and a run with it disabled finish at the
//! same cycle with byte-identical statistics and identical trace-event
//! streams.
//!
//! This is the behavioral half of the cycle-skip soundness argument
//! (DESIGN.md §15): the skip engine claims to replicate, in closed
//! form, exactly the accounting the skipped quiet cycles would have
//! performed — stall counters, occupancy sums, round-robin cursors,
//! synthesized stall/occupancy trace records — and to never skip a
//! cycle on which any stage would have acted. Equality of the full
//! event stream (not just the commit stream) over the paper mixes, the
//! committed fuzz corpus and fresh fuzz programs is the strongest
//! observable consequence of that claim.

use smtsim_conform::{case_workloads, committed_corpus, traced_run, CaseSpec};
use smtsim_pipeline::DodBounds;
use smtsim_rob2::committed_variants;
use smtsim_rob2::experiment::static_bounds;
use smtsim_workload::{mix, Workload};
use std::sync::Arc;

const SEED: u64 = 42;

/// Asserts skip-on ≡ skip-off over one workload set for every
/// configuration of the committed-spec matrix.
fn assert_equivalent(label: &str, wls: &[Arc<Workload>], budget: u64, warmup: u64) {
    let bounds: Vec<DodBounds> = wls.iter().map(|w| static_bounds(w)).collect();
    for variant in committed_variants().expect("committed specs load") {
        let config = &variant.name;
        let run = |skip| {
            let sim = traced_run(wls, &bounds, &variant.config, SEED, budget, warmup, skip)
                .unwrap_or_else(|e| panic!("{label} / {config}: run failed: {e}"));
            let end = (sim.cycle(), format!("{:?}", sim.stats()));
            (end, sim.into_tracer().into_events())
        };
        let (on, e_on) = run(true);
        let (off, e_off) = run(false);
        assert_eq!(
            on, off,
            "{label} / {config}: final cycle or statistics diverge with skipping on"
        );
        assert_eq!(
            e_on.len(),
            e_off.len(),
            "{label} / {config}: event-stream length diverges with skipping on"
        );
        for (i, (a, b)) in e_on.iter().zip(&e_off).enumerate() {
            assert_eq!(
                a, b,
                "{label} / {config}: event stream diverges at index {i}"
            );
        }
    }
}

#[test]
fn paper_mixes_are_skip_equivalent() {
    // The determinism gate's mix set: one from each contention class
    // exercised there (see xtask DETERMINISM_DEFAULTS).
    for idx in [1usize, 2, 9] {
        let wls: Vec<Arc<Workload>> = mix(idx)
            .instantiate(SEED)
            .into_iter()
            .map(Arc::new)
            .collect();
        assert_equivalent(&format!("mix {idx}"), &wls, 3_000, 1_000);
    }
}

#[test]
fn fuzz_corpus_is_skip_equivalent() {
    let corpus = committed_corpus().expect("the corpus directory is committed");
    assert!(!corpus.is_empty(), "no committed .case files");
    for (name, spec) in corpus {
        let spec = spec.unwrap_or_else(|e| panic!("{name}: {e}"));
        let wls =
            case_workloads(&spec).unwrap_or_else(|e| panic!("{name}: corpus case must build: {e}"));
        assert_equivalent(&name, &wls, 2_000, 0);
    }
}

#[test]
fn fresh_fuzz_is_skip_equivalent() {
    // Base 7 as in the fresh-fuzz smoke; lint-rejected programs never run.
    for i in 0..3 {
        let spec = CaseSpec::fresh(7, i);
        if let Ok(wls) = case_workloads(&spec) {
            assert_equivalent(&format!("fresh case {i}"), &wls, spec.budget, 0);
        }
    }
}
