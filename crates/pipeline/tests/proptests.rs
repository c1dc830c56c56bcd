//! Property tests of the pipeline: accounting invariants and
//! determinism hold for arbitrary benchmark × seed × machine-shape
//! combinations.

use proptest::prelude::*;
use smtsim_pipeline::{FaultPlan, FixedRob, MachineConfig, Simulator, StopCondition};
use smtsim_workload::{spec, Workload};
use std::sync::Arc;

fn arb_bench() -> impl Strategy<Value = &'static str> {
    proptest::sample::select(spec::BENCHMARKS.to_vec())
}

fn run_one(bench: &str, seed: u64, rob: usize, cycles: u64) -> Simulator {
    let cfg = MachineConfig::icpp08_single();
    let wl = Arc::new(Workload::spec(bench, seed, 0x1_0000, 0x1000_0000));
    let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(rob)), seed)
        .build()
        .unwrap();
    sim.run(StopCondition::Cycles(cycles));
    sim
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn counting_invariants_hold(bench in arb_bench(), seed in 0u64..64, rob in prop::sample::select(vec![8usize, 32, 128])) {
        let sim = run_one(bench, seed, rob, 30_000);
        let t = &sim.stats().threads[0];
        // Conservation: everything fetched is dispatched, squashed
        // while fetched, or still in flight; dispatched ≥ issued ≥ 0;
        // committed ≤ dispatched.
        prop_assert!(t.dispatched <= t.fetched);
        prop_assert!(t.committed <= t.dispatched);
        prop_assert!(t.committed + t.squashed <= t.fetched);
        prop_assert!(t.issued <= t.dispatched);
        // Rate bounds.
        prop_assert!(t.committed <= 8 * 30_000, "cannot exceed commit width");
        prop_assert!(t.l2_misses <= t.loads + t.fetched, "misses bounded by memory ops");
        prop_assert!(t.mispredicts <= t.branches + 64, "mispredicts bounded by branches (+unconds in flight)");
    }

    #[test]
    fn four_thread_invariants_hold(mix_idx in 1usize..=11, seed in 0u64..16) {
        let cfg = MachineConfig::icpp08();
        let wls = smtsim_workload::mix(mix_idx)
            .instantiate(seed)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut sim = Simulator::builder(cfg, wls, Box::new(FixedRob::new(32)), seed).build().unwrap();
        sim.run(StopCondition::Cycles(15_000));
        let s = sim.stats();
        for t in &s.threads {
            prop_assert!(t.committed <= t.dispatched);
            prop_assert!(t.issued <= t.dispatched);
        }
        // The shared IQ can never exceed its size on average.
        prop_assert!(s.iq_occupancy_sum <= 64 * 15_000);
        // Progress: at least one thread must commit in 15k cycles.
        prop_assert!(s.total_committed() > 0, "machine must make progress");
    }

    #[test]
    fn simulation_is_deterministic(bench in arb_bench(), seed in 0u64..32) {
        let digest = |sim: &Simulator| {
            let t = &sim.stats().threads[0];
            (t.committed, t.fetched, t.squashed, t.l2_misses, t.mispredicts)
        };
        let a = run_one(bench, seed, 32, 10_000);
        let b = run_one(bench, seed, 32, 10_000);
        prop_assert_eq!(digest(&a), digest(&b));
    }

    #[test]
    fn warmup_commutes_with_budget(bench in arb_bench(), seed in 0u64..16, warm in prop::sample::select(vec![0u64, 5_000, 20_000])) {
        // Warm-up must never break the machine — the run still commits.
        let cfg = MachineConfig::icpp08_single();
        let wl = Arc::new(Workload::spec(bench, seed, 0x1_0000, 0x1000_0000));
        let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), seed)
            .warmup(warm)
            .build()
            .expect("single-thread config is valid");
        let stats = sim.run(StopCondition::AnyThreadCommitted(3_000));
        prop_assert!(stats.threads[0].committed >= 3_000);
    }

    #[test]
    fn rob_capacity_is_respected(bench in arb_bench(), rob in prop::sample::select(vec![4usize, 16, 48])) {
        let mut sim = {
            let cfg = MachineConfig::icpp08_single();
            let wl = Arc::new(Workload::spec(bench, 3, 0x1_0000, 0x1000_0000));
            Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(rob)), 3).build().unwrap()
        };
        sim.run(StopCondition::Cycles(20_000));
        let avg = sim.stats().threads[0].rob_occupancy_sum as f64 / 20_000.0;
        prop_assert!(avg <= rob as f64 + 1e-9, "avg occupancy {avg} exceeds capacity {rob}");
    }

    #[test]
    fn random_fault_plans_never_panic(
        mix_idx in 1usize..=11,
        seed in 0u64..8,
        fseed in 0u64..1024,
        drop in prop::sample::select(vec![0u32, 1, 7, 64]),
        delay in prop::sample::select(vec![0u32, 1, 5]),
        corrupt in prop::sample::select(vec![0u32, 1, 3]),
        withhold in prop::sample::select(vec![0u32, 1, 2]),
        latch in any::<bool>(),
        starve in any::<bool>(),
    ) {
        // Whatever the plan, the outcome is a clean run or a typed
        // SimError — never a panic or a hang past the watchdog.
        let plan = FaultPlan {
            seed: fseed,
            drop_fill: drop,
            delay_fill: delay,
            delay_cycles: 700,
            corrupt_dod: corrupt,
            withhold_release: withhold,
            capacity_latch: latch,
            capacity_zero_after: starve.then_some(2_000),
        };
        let mut cfg = MachineConfig::icpp08();
        cfg.deadlock_cycles = 3_000;
        cfg.invariant_interval = 256;
        let wls = smtsim_workload::mix(mix_idx)
            .instantiate(seed)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut sim = Simulator::builder(cfg, wls, Box::new(FixedRob::new(32)), seed)
            .fault_plan(plan)
            .build()
            .expect("Table 1 config is valid");
        match sim.try_run(StopCondition::Cycles(10_000)) {
            Ok(stats) => prop_assert!(stats.total_committed() > 0),
            Err(e) => prop_assert!(!e.kind().is_empty()),
        }
    }

    #[test]
    fn dod_histogram_counts_are_bounded(bench in prop::sample::select(vec!["art", "mcf", "parser", "ammp"]), seed in 0u64..16) {
        let sim = run_one(bench, seed, 32, 40_000);
        let h = &sim.stats().dod_at_fill;
        // 5-bit counter semantics: bins 0..=31 and sum consistent.
        prop_assert_eq!(h.bins().len(), 32);
        prop_assert_eq!(h.bins().iter().sum::<u64>(), h.samples);
        if h.samples > 0 {
            prop_assert!(h.mean() <= 31.0);
        }
    }
}
