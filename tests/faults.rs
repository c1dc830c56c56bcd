//! Fault-injection regression suite: every injected fault surfaces as
//! either graceful degradation or a typed [`SimError`] — never a
//! process abort. See DESIGN.md "Failure model & fault injection".

use smtsim_pipeline::{
    FaultPlan, FixedRob, MachineConfig, RobAllocator, SimError, Simulator, StopCondition,
};
use smtsim_rob2::{TwoLevelConfig, TwoLevelRob};
use smtsim_workload::mix;
use std::sync::Arc;

/// Four-thread Table 1 machine over memory-bound Mix 1 with the given
/// allocator, fault plan and integrity knobs.
fn faulted_sim(
    alloc: Box<dyn RobAllocator>,
    plan: FaultPlan,
    deadlock_cycles: u64,
    invariant_interval: u64,
) -> Simulator {
    let mut cfg = MachineConfig::icpp08();
    cfg.deadlock_cycles = deadlock_cycles;
    cfg.invariant_interval = invariant_interval;
    let wls = mix(1).instantiate(7).into_iter().map(Arc::new).collect();
    Simulator::builder(cfg, wls, alloc, 7)
        .fault_plan(plan)
        .build()
        .expect("Table 1 config is valid")
}

#[test]
fn starved_config_surfaces_deadlock_with_populated_snapshot() {
    // Total allocation starvation from cycle 0: dispatch sees zero ROB
    // capacity everywhere, so nothing ever commits.
    let plan = FaultPlan {
        capacity_zero_after: Some(0),
        ..FaultPlan::default()
    };
    let mut sim = faulted_sim(Box::new(FixedRob::new(32)), plan, 2_500, 0);
    let err = sim
        .try_run(StopCondition::AnyThreadCommitted(5_000))
        .expect_err("a fully starved machine must deadlock");
    let SimError::Deadlock { snapshot } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(snapshot.deadlock_cycles, 2_500);
    assert!(snapshot.now >= 2_500);
    assert_eq!(snapshot.threads.len(), 4);
    for (t, th) in snapshot.threads.iter().enumerate() {
        assert_eq!(th.rob_len, 0, "t{t} dispatched into a zero-capacity ROB");
    }
    let msg = snapshot.to_string();
    assert!(msg.contains("deadlock: no commit for 2500 cycles"), "{msg}");
}

#[test]
fn withheld_l2_release_is_caught_by_watchdog_as_typed_error() {
    // Drop every L2 fill: the miss data (and with it the release the
    // two-level allocator waits on) is withheld from the core forever.
    // The oldest load can never execute, commit stops machine-wide, and
    // the watchdog must turn that into a typed error — not an abort.
    let plan = FaultPlan {
        seed: 13,
        drop_fill: 1,
        ..FaultPlan::default()
    };
    let mut sim = faulted_sim(
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        plan,
        3_000,
        0,
    );
    let err = sim
        .try_run(StopCondition::AnyThreadCommitted(8_000))
        .expect_err("dropped fills starve every thread");
    assert_eq!(err.kind(), "deadlock");
    assert!(sim.fault_stats().dropped_fills > 0, "plan never fired");
    let SimError::Deadlock { snapshot } = err else {
        panic!("expected a deadlock, got {err}");
    };
    assert_eq!(snapshot.policy, "2-Level R-ROB16");
    assert!(
        snapshot.threads.iter().any(|t| t.pending_l2 > 0),
        "snapshot must show the unfilled misses"
    );
}

#[test]
fn withheld_allocator_notification_degrades_gracefully() {
    // Suppress every on_l2_fill upcall: the allocator never hears that
    // a trigger was serviced. TriggerServiced tenure must still rotate
    // via its in-flight fallback — the run completes and the second
    // level is not held captive.
    let plan = FaultPlan {
        seed: 17,
        withhold_release: 1,
        ..FaultPlan::default()
    };
    let mut sim = faulted_sim(
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        plan,
        50_000,
        500,
    );
    sim.try_run(StopCondition::AnyThreadCommitted(6_000))
        .expect("withheld notifications must be absorbed, not fatal");
    assert!(sim.fault_stats().withheld_releases > 0, "plan never fired");
    let tl = sim
        .allocator()
        .as_any()
        .downcast_ref::<TwoLevelRob>()
        .expect("two-level allocator")
        .stats();
    assert!(tl.allocations > 0, "memory-bound mix must allocate");
    assert!(
        tl.releases > 0,
        "tenure must rotate via the in-flight fallback"
    );
}

#[test]
fn capacity_lie_is_caught_by_the_invariant_checker() {
    // A stuck-at-maximum capacity grant: after the two-level policy
    // revokes the second level, dispatch keeps seeing the extended
    // grant and oversubscribes. The conservation check / policy audit
    // must catch it as a typed invariant violation.
    let plan = FaultPlan {
        seed: 23,
        capacity_latch: true,
        ..FaultPlan::default()
    };
    let mut sim = faulted_sim(
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        plan,
        200_000,
        100,
    );
    let err = sim
        .try_run(StopCondition::AnyThreadCommitted(60_000))
        .expect_err("the capacity lie must be detected");
    let SimError::InvariantViolation { cycle, detail } = err else {
        panic!("expected an invariant violation, got {err}");
    };
    assert!(cycle > 0);
    assert!(
        detail.contains("occupancy") || detail.contains("conservation"),
        "detail: {detail}"
    );
}

#[test]
fn corrupted_dod_counts_only_add_noise() {
    // Garbled DoD counts reach the predictor/policy: accuracy may
    // suffer but the run must stay healthy and deterministic.
    let plan = FaultPlan {
        seed: 29,
        corrupt_dod: 1,
        ..FaultPlan::default()
    };
    let run = || {
        let mut sim = faulted_sim(
            Box::new(TwoLevelRob::new(TwoLevelConfig::p_rob(5))),
            plan.clone(),
            50_000,
            0,
        );
        sim.try_run(StopCondition::AnyThreadCommitted(5_000))
            .expect("corrupted counts are noise, not failures");
        (
            sim.cycle(),
            sim.stats().total_committed(),
            sim.fault_stats(),
        )
    };
    let (cycles, committed, faults) = run();
    assert!(committed >= 5_000);
    assert!(faults.corrupted_dod > 0, "plan never fired");
    assert_eq!((cycles, committed, faults), run(), "noise must be seeded");
}

#[test]
fn invalid_workload_set_is_a_typed_config_error() {
    let cfg = MachineConfig::icpp08(); // expects 4 threads
    let wls = vec![Arc::new(smtsim_workload::Workload::spec(
        "art",
        1,
        0x1_0000,
        0x1000_0000,
    ))];
    let err = Simulator::builder(cfg, wls, Box::new(FixedRob::new(32)), 1)
        .build()
        .err()
        .expect("workload/thread mismatch must be rejected");
    assert_eq!(err.kind(), "invalid-config");
}
