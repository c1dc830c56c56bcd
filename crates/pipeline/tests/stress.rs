//! Stress tests: long mixed runs with per-interval invariant checking,
//! covering the squash-heavy paths (mispredict recovery, FLUSH replay)
//! and the commit-order integrity assertion.

use smtsim_pipeline::{DcraConfig, FetchPolicyKind, FixedRob, MachineConfig, Simulator};
use smtsim_workload::{mix, Workload};
use std::sync::Arc;

fn stressed(policy: FetchPolicyKind, mix_idx: usize, rob: usize, seed: u64) -> Simulator {
    let mut cfg = MachineConfig::icpp08();
    cfg.fetch_policy = policy;
    let wls = mix(mix_idx)
        .instantiate(seed)
        .into_iter()
        .map(Arc::new)
        .collect();
    Simulator::builder(cfg, wls, Box::new(FixedRob::new(rob)), seed)
        .build()
        .unwrap()
}

/// Steps `sim` for `cycles`, validating invariants every `interval`.
fn run_checked(sim: &mut Simulator, cycles: u64, interval: u64) {
    for c in 0..cycles {
        sim.step();
        if c % interval == 0 {
            if let Some(v) = sim.check_invariants() {
                panic!("invariant violated at cycle {}: {v}", sim.cycle());
            }
        }
    }
    if let Some(v) = sim.check_invariants() {
        panic!("invariant violated at end: {v}");
    }
}

#[test]
fn branchy_mix_under_icount_stays_consistent() {
    // parser/vpr/gzip mispredict constantly: the wrong-path fetch and
    // rename-rollback machinery gets a workout.
    let mut sim = stressed(FetchPolicyKind::Icount, 8, 32, 77);
    run_checked(&mut sim, 60_000, 97);
    let s = sim.stats();
    assert!(s.threads.iter().map(|t| t.mispredicts).sum::<u64>() > 100);
    assert!(s.total_committed() > 5_000);
}

#[test]
fn flush_policy_replay_preserves_the_trace() {
    // FLUSH squashes *correct-path* instructions and refetches them
    // from the replay queue; the commit-order debug assertion (active
    // in this build) proves no dynamic instance is lost or duplicated.
    let mut sim = stressed(FetchPolicyKind::Flush, 2, 32, 11);
    run_checked(&mut sim, 80_000, 101);
    let s = sim.stats();
    assert!(
        s.threads.iter().map(|t| t.squashed).sum::<u64>() > 100,
        "FLUSH must actually flush"
    );
    assert!(s.total_committed() > 3_000);
}

#[test]
fn stall_policy_stays_consistent() {
    let mut sim = stressed(FetchPolicyKind::Stall, 3, 32, 13);
    run_checked(&mut sim, 60_000, 103);
    assert!(sim.stats().total_committed() > 3_000);
}

#[test]
fn big_rob_under_dcra_stays_consistent() {
    let mut sim = stressed(FetchPolicyKind::Dcra(DcraConfig::default()), 1, 128, 17);
    run_checked(&mut sim, 60_000, 97);
    assert!(sim.stats().total_committed() > 3_000);
}

#[test]
fn tiny_structures_still_work() {
    // A deliberately starved machine: 1-wide-ish queues magnify every
    // structural-hazard path.
    let mut cfg = MachineConfig::icpp08();
    cfg.iq_size = 8;
    cfg.lsq_size = 4;
    cfg.fetch_queue = 4;
    cfg.int_regs = 144; // 16 renames per thread
    cfg.fp_regs = 144;
    let wls = mix(5).instantiate(23).into_iter().map(Arc::new).collect();
    let mut sim = Simulator::builder(cfg, wls, Box::new(FixedRob::new(16)), 23)
        .build()
        .unwrap();
    run_checked(&mut sim, 40_000, 53);
    assert!(sim.stats().total_committed() > 1_000);
}

#[test]
fn single_thread_with_warmup_stays_consistent() {
    let cfg = MachineConfig::icpp08_single();
    let wl = Arc::new(Workload::spec("mcf", 31, 0x1_0000, 0x1000_0000));
    let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), 31)
        .warmup(30_000)
        .build()
        .expect("single-thread config is valid");
    run_checked(&mut sim, 50_000, 89);
    assert!(sim.stats().threads[0].committed > 1_000);
}

#[test]
fn seed_sweep_never_violates_invariants() {
    // Cheap fuzz: many short runs across seeds and mixes.
    for seed in 0..6u64 {
        for mix_idx in [1usize, 6, 11] {
            let mut sim = stressed(FetchPolicyKind::Icount, mix_idx, 32, seed);
            run_checked(&mut sim, 8_000, 41);
        }
    }
}
