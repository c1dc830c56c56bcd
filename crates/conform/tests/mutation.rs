//! Mutation self-test: proves the conformance oracle has teeth.
//!
//! The `seeded-dod-bug` feature plants an off-by-one in the pipeline's
//! DoD scan window (`cfg_dod_window` returns `DOD_WINDOW + 1`). The bug
//! is deliberately *timing-only* — commit streams stay architecturally
//! perfect — so only the harness's fill-sample bound can expose it.
//! With the feature enabled the differential must fail on that bound,
//! reporting the first offending sample with its episode context; with
//! the feature disabled the identical run must be clean.

use smtsim_conform::check_workloads;
use smtsim_rob2::committed_variants;
use smtsim_workload::{build, IlpClass, Workload, WorkloadProfile};
use std::sync::Arc;

/// Pinned triggering workload, crafted so a full scan window behind a
/// missing load holds *zero* executed entries at fill time:
///
/// * every missing load is a pointer chase with a dense dependence
///   shadow — the dependents cannot execute before the fill by
///   construction;
/// * misses are sparse (one load in five), so a single chase shadow
///   owns its window instead of colliding with the next serialized
///   chase;
/// * every independent filler is an unpipelined long-latency FP op
///   (`fp_frac`/`longlat_frac` at 1000), so fillers backlog behind the
///   scarce FP units for longer than the L2 miss and are still
///   unexecuted when the fill samples the counter.
///
/// With the correct window (31) the sample saturates at 31; the seeded
/// window of 32 then produces an impossible sample of 32, which the
/// harness bound rejects.
fn trigger_workloads() -> Vec<Arc<Workload>> {
    let profile = WorkloadProfile {
        name: "mutation-trigger",
        class: IlpClass::Low,
        load_frac_pm: 200,
        store_frac_pm: 0,
        branch_frac_pm: 0,
        fp_frac_pm: 1000,
        longlat_frac_pm: 1000,
        dod_mean: 40.0,
        dod_cap: 64,
        dense_frac_pm: 1000,
        dod_gap: 0.5,
        chain_frac_pm: 1000,
        miss_load_frac_pm: 200,
        chase_frac_pm: 1000,
        stream_frac_pm: 500,
        footprint: 1 << 26,
        hot_footprint: 8 << 10,
        branch_bias_pm: 900,
        avg_trip: 64,
        block_size: (80, 120),
        num_segments: 2,
    };
    vec![Arc::new(build(&profile, 42, 0x1_0000, 0x1000_0000))]
}

const TRIGGER_SEED: u64 = 42;
const TRIGGER_BUDGET: u64 = 4_000;

#[cfg(feature = "seeded-dod-bug")]
#[test]
fn seeded_bug_is_detected_with_episode_context() {
    use smtsim_conform::ConformFailure;
    use smtsim_pipeline::DOD_WINDOW;

    let (wls, matrix) = (trigger_workloads(), committed_variants().unwrap());
    let err = check_workloads(&wls, &matrix, TRIGGER_SEED, TRIGGER_BUDGET, 0)
        .expect_err("the seeded off-by-one must trip the fill-sample bound");
    match *err {
        ConformFailure::DodSampleOutOfRange {
            value, ref episode, ..
        } => {
            assert!(
                value as usize > DOD_WINDOW,
                "reported sample {value} must exceed the window {DOD_WINDOW}"
            );
            let context = episode.as_deref().unwrap_or_default();
            assert!(
                context.contains("\"tag\""),
                "failure must carry episode context, got: {context:?}"
            );
        }
        ref other => panic!("expected an out-of-range DoD sample, got: {other}"),
    }
}

#[cfg(not(feature = "seeded-dod-bug"))]
#[test]
fn harness_is_clean_without_the_seeded_bug() {
    // Identical workload/seed/budget as the detection test: the only
    // difference is the feature, so a pass here plus a failure there
    // isolates the planted bug as the cause.
    let (wls, matrix) = (trigger_workloads(), committed_variants().unwrap());
    let report = check_workloads(&wls, &matrix, TRIGGER_SEED, TRIGGER_BUDGET, 0)
        .expect("differential must be clean without the seeded bug");
    assert!(report.commits_compared > 0);
}
