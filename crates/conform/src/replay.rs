//! The protocol monitor on its own over whole paper mixes: every
//! two-level configuration of the committed matrix is traced and its
//! stream goes straight to [`check_stream`], without the differential's
//! checks that run before the monitor inside
//! [`check_workloads`](crate::check_workloads). A failure here is the
//! monitor's, whatever the commit streams do.

use crate::harness::traced_run;
use crate::monitor::{check_stream, Conformance};
use smtsim_pipeline::DodBounds;
use smtsim_rob2::experiment::static_bounds;
use smtsim_rob2::{committed_variants, RobConfig, SpecVariant};
use smtsim_workload::{mix, Workload};
use std::sync::Arc;

/// Judges the trace of every two-level configuration of
/// [`committed_variants`] on paper Mix `idx`; one tally per
/// configuration, in matrix order. Panics on the first failure,
/// naming the configuration.
fn replay_mix(idx: usize, seed: u64, budget: u64, warmup: u64) -> Vec<Conformance> {
    let wls: Vec<Arc<Workload>> = mix(idx)
        .instantiate(seed)
        .into_iter()
        .map(Arc::new)
        .collect();
    let bounds: Vec<DodBounds> = wls.iter().map(|w| static_bounds(w)).collect();
    let mut tallies = Vec::new();
    for variant in &committed_variants().unwrap() {
        let RobConfig::TwoLevel(cfg) = &variant.config else {
            continue;
        };
        let name = &variant.name;
        let sim = traced_run(&wls, &bounds, &variant.config, seed, budget, warmup, true)
            .unwrap_or_else(|e| panic!("[{name}] simulator failed: {e}"));
        let events = sim.into_tracer().into_events();
        tallies.push(check_stream(cfg, &events).unwrap_or_else(|v| panic!("[{name}] {v}")));
    }
    tallies
}

mod tests {
    use super::*;

    #[test]
    fn memory_bound_mix_conforms_across_the_matrix() {
        // Mix 1 is the most memory-bound pairing — the densest episode
        // traffic and the hardest test of the monitor's global checks.
        let matrix = committed_variants().unwrap();
        let tallies = replay_mix(1, 42, 2_000, 0);
        let two_level = |v: &&SpecVariant| matches!(v.config, RobConfig::TwoLevel(_));
        assert_eq!(tallies.len(), matrix.iter().filter(two_level).count());
        let grants: usize = tallies.iter().map(|t| t.grants).sum();
        assert!(grants > 0, "replay exercised the transfer protocol");
    }

    #[test]
    fn warmup_runs_conform_too() {
        // Warmup shifts cache/predictor state without emitting events;
        // the stream must still open every episode with its detect.
        assert!(!replay_mix(2, 7, 1_500, 2_000).is_empty());
    }
}
