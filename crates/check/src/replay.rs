//! Replaying real simulator traces through the conformance monitor.
//!
//! Runs the live, cycle-accurate simulator (traced, through
//! [`smtsim_conform::traced_run`]) on paper mixes or fuzz-corpus
//! workload sets under every two-level configuration of the matrix the
//! committed specs render ([`smtsim_rob2::committed_variants`]) and
//! checks each resulting event stream against the abstract protocol
//! model ([`crate::monitor::check_stream`]).

use crate::monitor::{check_stream, Conformance, Nonconformance};
use smtsim_conform::{case_workloads, traced_run, CaseSpec};
use smtsim_pipeline::DodBounds;
use smtsim_rob2::experiment::static_bounds;
use smtsim_rob2::{RobConfig, SpecVariant};
use smtsim_workload::{mix, Workload};
use std::fmt;
use std::sync::Arc;

/// One conforming replay: which configuration, how much evidence.
#[derive(Clone, Debug)]
pub struct ReplayOutcome {
    /// Matrix name of the configuration (e.g. `r-rob-16`).
    pub name: String,
    /// Monitor statistics for the stream.
    pub conformance: Conformance,
}

/// Why a replay failed.
#[derive(Clone, Debug)]
pub enum ReplayError {
    /// The simulator could not be built or died mid-run.
    Sim {
        /// Matrix name of the configuration.
        name: String,
        /// Rendered simulator error.
        error: String,
    },
    /// The trace did not conform to the abstract protocol model.
    Nonconform {
        /// Matrix name of the configuration.
        name: String,
        /// The violation.
        violation: Nonconformance,
    },
}

impl fmt::Display for ReplayError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReplayError::Sim { name, error } => {
                write!(f, "[{name}] simulator failed: {error}")
            }
            ReplayError::Nonconform { name, violation } => {
                write!(f, "[{name}] trace does not conform: {violation}")
            }
        }
    }
}

/// Runs every two-level configuration of `matrix` on `wls` (traced,
/// `warmup` functional instructions, stopping once any thread commits
/// `budget` instructions) and conformance-checks each trace. Baselines
/// have no protocol to check and are passed over.
///
/// # Errors
/// The first [`ReplayError`], in matrix order.
pub fn replay_workloads(
    wls: &[Arc<Workload>],
    matrix: &[SpecVariant],
    seed: u64,
    budget: u64,
    warmup: u64,
) -> Result<Vec<ReplayOutcome>, ReplayError> {
    let bounds: Vec<DodBounds> = wls.iter().map(|w| static_bounds(w)).collect();
    let mut outcomes = Vec::new();
    for variant in matrix {
        let RobConfig::TwoLevel(cfg) = variant.config else {
            continue;
        };
        let name = variant.name.clone();
        let events = match traced_run(wls, &bounds, &variant.config, seed, budget, warmup, true) {
            Ok(sim) => sim.into_tracer().into_events(),
            Err(e) => {
                let error = e.to_string();
                return Err(ReplayError::Sim { name, error });
            }
        };
        match check_stream(&cfg, &events) {
            Ok(conformance) => outcomes.push(ReplayOutcome { name, conformance }),
            Err(violation) => return Err(ReplayError::Nonconform { name, violation }),
        }
    }
    Ok(outcomes)
}

/// Replays one paper mix (Table 2 index) through the matrix.
///
/// # Errors
/// The first [`ReplayError`].
pub fn replay_mix(
    mix_index: usize,
    matrix: &[SpecVariant],
    seed: u64,
    budget: u64,
    warmup: u64,
) -> Result<Vec<ReplayOutcome>, ReplayError> {
    let wls: Vec<Arc<Workload>> = mix(mix_index)
        .instantiate(seed)
        .into_iter()
        .map(Arc::new)
        .collect();
    replay_workloads(&wls, matrix, seed, budget, warmup)
}

/// Replays one fuzz-corpus case through the matrix (its own seed and
/// budget, no warmup — matching how the conformance fuzzer runs it).
///
/// # Errors
/// A `Sim` error naming the case when its workloads cannot be built,
/// else the first [`ReplayError`] from the matrix.
pub fn replay_case(
    spec: &CaseSpec,
    matrix: &[SpecVariant],
) -> Result<Vec<ReplayOutcome>, ReplayError> {
    let wls = case_workloads(spec).map_err(|e| ReplayError::Sim {
        name: format!("case seed={}", spec.seed),
        error: e,
    })?;
    replay_workloads(&wls, matrix, spec.seed, spec.budget, 0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::committed_variants;

    #[test]
    fn memory_bound_mix_conforms_across_the_matrix() {
        // Mix 1 is the most memory-bound pairing — the densest episode
        // traffic and the hardest test of the monitor's global checks.
        let matrix = committed_variants().unwrap();
        let outcomes = replay_mix(1, &matrix, 42, 2_000, 0).expect("traces conform");
        let two_level = |v: &&SpecVariant| matches!(v.config, RobConfig::TwoLevel(_));
        assert_eq!(outcomes.len(), matrix.iter().filter(two_level).count());
        let grants: usize = outcomes.iter().map(|o| o.conformance.grants).sum();
        assert!(grants > 0, "replay exercised the transfer protocol");
    }

    #[test]
    fn warmup_runs_conform_too() {
        // Warmup shifts cache/predictor state without emitting events;
        // the stream must still open every episode with its detect.
        replay_mix(2, &committed_variants().unwrap(), 7, 1_500, 2_000).expect("traces conform");
    }
}
