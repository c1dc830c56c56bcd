//! Slow-tests-gated fresh-fuzz smoke: a handful of machine-generated
//! cases from a seed the committed corpus does not use must pass the
//! full differential, and the verdicts must be a pure function of the
//! base seed — identical at any worker count.
#![cfg(feature = "slow-tests")]

use smtsim_conform::{run_fresh_cases, CaseVerdict};
use smtsim_rob2::committed_variants;

const BASE: u64 = 7;
const CASES: u64 = 3;

#[test]
fn fresh_cases_pass_and_are_job_count_invariant() {
    let matrix = committed_variants().expect("committed specs load");
    let serial = run_fresh_cases(BASE, CASES, &matrix, 1);
    assert_eq!(serial.len(), CASES as usize);
    for (spec, verdict) in &serial {
        match verdict {
            CaseVerdict::Pass { report } => {
                assert!(
                    report.commits_compared > 0,
                    "case seed={} compared no commits",
                    spec.seed
                );
            }
            CaseVerdict::Skipped { reason } => {
                panic!("case seed={} skipped: {reason}", spec.seed);
            }
            CaseVerdict::Fail { failure, .. } => {
                panic!("case seed={} failed:\n{failure}", spec.seed);
            }
        }
    }
    let parallel = run_fresh_cases(BASE, CASES, &matrix, 2);
    assert_eq!(
        format!("{serial:?}"),
        format!("{parallel:?}"),
        "fuzz verdicts must not depend on the worker count"
    );
}
