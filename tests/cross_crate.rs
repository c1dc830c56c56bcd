//! Integration tests spanning the full crate stack: workload generation
//! → functional execution → pipeline → two-level ROB → metrics.

use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
use smtsim_rob2::{Lab, RobConfig, TwoLevelConfig, TwoLevelRob};
use smtsim_workload::{mix, paper_mixes, Workload};
use std::sync::Arc;

#[test]
fn every_table2_mix_runs_under_every_scheme() {
    // Smoke coverage of the full matrix at a small budget: all 11 mixes
    // × {baseline, one reactive, one predictive}.
    let mut lab = Lab::new(7).with_budgets(2_500, 2_500);
    lab.warmup = 5_000;
    for m in 1..=11 {
        for cfg in [
            RobConfig::Baseline(32),
            RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)),
            RobConfig::TwoLevel(TwoLevelConfig::p_rob(5)),
        ] {
            let r = lab.run_mix(m, cfg);
            assert!(r.ft > 0.0, "{} under {} yielded zero FT", r.mix, r.config);
            assert_eq!(r.ipc.len(), 4);
            assert!(
                r.stats.total_committed() >= 4 * 2_500 / 4,
                "{} {} barely committed",
                r.mix,
                r.config
            );
        }
    }
}

#[test]
fn two_level_allocator_observes_pipeline_reality() {
    // End-to-end: the allocator's statistics must be consistent with
    // the pipeline's (allocations only happen when misses exist; the
    // partition is held while allocated).
    let mut lab = Lab::new(11).with_budgets(15_000, 15_000);
    let r = lab.run_mix(1, RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)));
    let tl = r.twolevel.expect("two-level stats");
    let total_misses: u64 = r.stats.threads.iter().map(|t| t.l2_misses).sum();
    assert!(tl.allocations > 0, "memory-bound mix must allocate");
    assert!(
        tl.allocations <= total_misses,
        "cannot allocate more often than misses occur"
    );
    assert!(tl.held_cycles <= r.stats.cycles);
    assert!(tl.releases <= tl.allocations);
    assert!(tl.allocations <= tl.releases + 1, "at most one live tenure");
}

#[test]
fn single_threaded_two_level_machine_works() {
    // The allocator must also be sound with one hardware thread (the
    // normalization configuration).
    let cfg = MachineConfig::icpp08_single();
    let wl = Arc::new(mix(1).instantiate_single(1, 3));
    let mut sim = Simulator::builder(
        cfg,
        vec![wl],
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        3,
    )
    .warmup(20_000)
    .build()
    .expect("single-thread config is valid");
    let stats = sim.run(StopCondition::AnyThreadCommitted(10_000));
    assert!(stats.threads[0].committed >= 10_000);
}

#[test]
fn workload_statistics_flow_into_simulation() {
    // A workload that declares missing loads must actually produce L2
    // misses when simulated, and one that declares none must not
    // (beyond the cold/warm-up residue).
    let missing = Arc::new(Workload::spec("art", 5, 0x1_0000, 0x1000_0000));
    assert!(missing.static_missing_loads > 0);
    let clean = Arc::new(Workload::spec("swim", 5, 0x1_0000, 0x1000_0000));

    let run = |wl: Arc<Workload>| {
        let cfg = MachineConfig::icpp08_single();
        let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), 5)
            .warmup(40_000)
            .build()
            .expect("single-thread config is valid");
        sim.run(StopCondition::AnyThreadCommitted(20_000));
        sim.stats().threads[0].l2_misses
    };
    let art = run(missing);
    let swim = run(clean);
    assert!(art > 200, "art must miss heavily: {art}");
    assert!(
        swim < art / 5,
        "swim ({swim}) must miss far less than art ({art})"
    );
}

#[test]
fn mix_metadata_matches_workloads() {
    for m in paper_mixes() {
        let wls = m.instantiate(9);
        assert_eq!(wls.len(), 4);
        for (i, wl) in wls.iter().enumerate() {
            assert_eq!(wl.profile.name, m.benchmarks[i]);
        }
    }
}

#[test]
fn weighted_ipc_is_internally_consistent() {
    let mut lab = Lab::new(13).with_budgets(8_000, 8_000);
    let r = lab.run_mix(2, RobConfig::Baseline(32));
    for slot in 0..4 {
        let w = r.ipc[slot] / r.single_ipc[slot];
        assert!((w - r.weighted[slot]).abs() < 1e-9);
    }
    let hm = smtsim_rob2::harmonic_mean(&r.weighted);
    assert!((hm - r.ft).abs() < 1e-12);
}

#[test]
fn larger_lsq_machine_passes_the_deep_scan() {
    // A machine variant whose LSQ outgrows the 64-slot minimum ring:
    // each thread's ring is built for `lsq_size`, and the periodic deep
    // scan, which checks every LSQ against its ROB, stays clean. (At the
    // Table 1 size of 48 this run stalls threads on a full LSQ; at 96
    // none do.)
    let mut cfg = MachineConfig::icpp08();
    cfg.lsq_size = 96;
    cfg.invariant_interval = 100;
    let wls = mix(1).instantiate(7).into_iter().map(Arc::new).collect();
    let alloc = Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16)));
    let mut sim = Simulator::builder(cfg, wls, alloc, 7)
        .warmup(10_000)
        .build()
        .expect("valid config");
    let stats = sim
        .try_run(StopCondition::AnyThreadCommitted(20_000))
        .expect("the deep scan finds every LSQ in sync with its ROB");
    assert!(stats.threads.iter().any(|t| t.committed >= 20_000));
}

#[test]
fn static_bounds_cover_the_counted_window() {
    // The DoD oracle compares the pipeline's exact dependent count over
    // `DOD_WINDOW` entries against static bounds computed over
    // `L1_WINDOW` entries; the comparison is sound only if they agree.
    assert_eq!(smtsim_pipeline::DOD_WINDOW, smtsim_analysis::L1_WINDOW);
}
