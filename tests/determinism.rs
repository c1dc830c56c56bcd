//! Reproducibility: every simulation is a pure function of
//! `(configuration, workload seed)` — DESIGN.md §8.

use smtsim_pipeline::{FaultPlan, FixedRob, MachineConfig, SimError, Simulator, StopCondition};
use smtsim_rob2::{Lab, RobConfig, TwoLevelConfig};
use smtsim_workload::mix;
use std::sync::Arc;

/// A digest of everything observable about a run.
fn fingerprint(seed: u64, two_level: bool) -> Vec<u64> {
    let wls = mix(3).instantiate(seed).into_iter().map(Arc::new).collect();
    let alloc: Box<dyn smtsim_pipeline::RobAllocator> = if two_level {
        Box::new(smtsim_rob2::TwoLevelRob::new(TwoLevelConfig::cdr_rob(15)))
    } else {
        Box::new(FixedRob::new(32))
    };
    let mut sim = Simulator::builder(MachineConfig::icpp08(), wls, alloc, seed)
        .warmup(20_000)
        .build()
        .expect("Table 1 config is valid");
    sim.run(StopCondition::AnyThreadCommitted(8_000));
    let mut v = vec![sim.cycle()];
    for t in &sim.stats().threads {
        v.extend([
            t.committed,
            t.fetched,
            t.issued,
            t.squashed,
            t.mispredicts,
            t.l2_misses,
            t.forwarded_loads,
        ]);
    }
    v.push(sim.stats().iq_occupancy_sum);
    v.push(sim.stats().dod_at_fill.sum);
    v
}

#[test]
fn baseline_runs_are_bit_identical() {
    assert_eq!(fingerprint(42, false), fingerprint(42, false));
}

#[test]
fn two_level_runs_are_bit_identical() {
    assert_eq!(fingerprint(42, true), fingerprint(42, true));
}

#[test]
fn different_seeds_differ() {
    assert_ne!(fingerprint(1, false), fingerprint(2, false));
}

#[test]
fn sweep_is_byte_identical_at_any_job_count() {
    // The parallel sweep engine is defined to produce the serial
    // result: identical MixRun vectors (full-precision Debug digest)
    // and identical rendered figure text at every job count.
    let cells = [
        (2, RobConfig::Baseline(32)),
        (6, RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
        (2, RobConfig::TwoLevel(TwoLevelConfig::p_rob(5))),
    ];
    let run = |jobs: usize| {
        let mut lab = Lab::new(17)
            .with_budgets(6_000, 6_000)
            .with_warmup(10_000)
            .with_jobs(Some(jobs));
        let runs = format!("{:?}", lab.sweep_cells(&cells).results());
        let fig2 = smtsim_rob2::ExperimentSpec::load(&smtsim_rob2::spec_dir().join("fig2.toml"))
            .expect("fig2.toml parses");
        let fig = smtsim_rob2::figures::figure_for(&mut lab, &fig2, &[2, 6]);
        (runs, smtsim_rob2::report::render_figure(&fig))
    };
    let serial = run(1);
    assert_eq!(serial, run(2));
    assert_eq!(serial, run(4));
}

#[test]
fn lab_results_are_reproducible() {
    let run = || {
        let mut lab = Lab::new(17).with_budgets(6_000, 6_000).with_warmup(10_000);
        let r = lab.run_mix(6, RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)));
        (r.ft, r.ipc.clone(), r.twolevel.unwrap().allocations)
    };
    assert_eq!(run(), run());
}

/// Runs Mix 2 under `plan` and digests everything observable: the
/// typed outcome, the cycle count, per-thread stats and the fired-fault
/// counters.
fn faulted_fingerprint(
    plan: &FaultPlan,
) -> (
    Result<(), SimError>,
    u64,
    Vec<u64>,
    smtsim_pipeline::FaultStats,
) {
    let mut cfg = MachineConfig::icpp08();
    cfg.deadlock_cycles = 3_000;
    cfg.invariant_interval = 250;
    let wls = mix(2).instantiate(9).into_iter().map(Arc::new).collect();
    let mut sim = Simulator::builder(cfg, wls, Box::new(FixedRob::new(32)), 9)
        .fault_plan(plan.clone())
        .build()
        .expect("valid config");
    let res = sim
        .try_run(StopCondition::AnyThreadCommitted(5_000))
        .map(|_| ());
    let mut v = Vec::new();
    for t in &sim.stats().threads {
        v.extend([t.committed, t.fetched, t.issued, t.squashed, t.l2_misses]);
    }
    (res, sim.cycle(), v, sim.fault_stats())
}

#[test]
fn benign_fault_plans_reproduce_identical_stats() {
    let plan = FaultPlan {
        seed: 5,
        delay_fill: 2,
        delay_cycles: 350,
        corrupt_dod: 3,
        ..FaultPlan::default()
    };
    let a = faulted_fingerprint(&plan);
    assert!(a.0.is_ok(), "delays and noise must be absorbed: {:?}", a.0);
    assert!(a.3.total() > 0, "plan never fired");
    assert_eq!(a, faulted_fingerprint(&plan));
}

#[test]
fn fatal_fault_plans_reproduce_identical_errors() {
    let plan = FaultPlan {
        seed: 5,
        drop_fill: 1,
        ..FaultPlan::default()
    };
    let a = faulted_fingerprint(&plan);
    let b = faulted_fingerprint(&plan);
    // Same seed + same plan ⇒ the same typed error with the same
    // snapshot, at the same cycle, with identical statistics.
    assert!(matches!(a.0, Err(SimError::Deadlock { .. })), "{:?}", a.0);
    assert!(a.3.dropped_fills > 0, "plan never fired");
    assert_eq!(a, b);
}

#[test]
fn workload_generation_is_platform_independent_constants() {
    // Pin a few generator outputs: if these change, every recorded
    // experiment in EXPERIMENTS.md is invalidated, so fail loudly.
    let wl = smtsim_workload::Workload::spec("art", 42, 0x1_0000, 0x1000_0000);
    let a = (
        wl.program.num_insts(),
        wl.static_loads,
        wl.static_missing_loads,
    );
    let wl2 = smtsim_workload::Workload::spec("art", 42, 0x1_0000, 0x1000_0000);
    let b = (
        wl2.program.num_insts(),
        wl2.static_loads,
        wl2.static_missing_loads,
    );
    assert_eq!(a, b);
}
