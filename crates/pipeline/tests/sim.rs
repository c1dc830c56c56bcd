//! End-to-end tests of the SMT pipeline substrate.

use smtsim_pipeline::{
    DcraConfig, FetchPolicyKind, FixedRob, MachineConfig, Simulator, SimulatorBuilder,
    StopCondition,
};
use smtsim_workload::{mix, Workload};
use std::sync::Arc;

fn single_builder(bench: &str, seed: u64) -> SimulatorBuilder {
    let cfg = MachineConfig::icpp08_single();
    let wl = Arc::new(Workload::spec(bench, seed, 0x1_0000, 0x1000_0000));
    Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), seed)
}

fn single(bench: &str, seed: u64) -> Simulator {
    single_builder(bench, seed).build().unwrap()
}

fn quad(mix_idx: usize, rob: usize, policy: FetchPolicyKind, seed: u64) -> Simulator {
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

#[test]
fn single_thread_commits_and_makes_progress() {
    let mut sim = single("gzip", 1);
    let stats = sim.run(StopCondition::AnyThreadCommitted(20_000));
    assert!(stats.threads[0].committed >= 20_000);
    let ipc = stats.threads[0].ipc(stats.cycles);
    assert!(ipc > 0.3, "gzip IPC too low: {ipc}");
    assert!(ipc < 8.0, "IPC cannot exceed machine width: {ipc}");
}

#[test]
fn high_ilp_beats_memory_bound_single_thread() {
    let run = |b: &str| {
        let mut sim = single(b, 3);
        let s = sim.run(StopCondition::AnyThreadCommitted(30_000));
        s.threads[0].ipc(s.cycles)
    };
    let swim = run("swim");
    let mcf_like = run("art");
    assert!(
        swim > 2.0 * mcf_like,
        "execution-bound swim ({swim}) should far outrun memory-bound art ({mcf_like})"
    );
}

#[test]
fn memory_bound_thread_sees_l2_misses() {
    let mut sim = single("art", 5);
    let stats = sim.run(StopCondition::AnyThreadCommitted(30_000));
    let t = &stats.threads[0];
    assert!(
        t.l2_misses > 50,
        "art must miss the L2 ({} misses)",
        t.l2_misses
    );
    assert!(t.loads > 1_000);
    // Misses per kilo-instruction should be material for a Low-class
    // benchmark.
    let mpki = t.l2_misses as f64 * 1000.0 / t.committed as f64;
    assert!(mpki > 3.0, "art MPKI {mpki}");
}

#[test]
fn cache_friendly_thread_mostly_hits() {
    // Warm-up (code + hot regions) dominates short runs; at 100k
    // commits the residual rate must be far below the memory-bound
    // benchmarks' (compare `memory_bound_thread_sees_l2_misses`).
    let mut sim = single("bzip2", 5);
    let stats = sim.run(StopCondition::AnyThreadCommitted(100_000));
    let t = &stats.threads[0];
    let mpki = t.l2_misses as f64 * 1000.0 / t.committed as f64;
    assert!(mpki < 12.0, "bzip2 MPKI {mpki} too high");
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let mut sim = single("parser", 11);
        let s = sim.run(StopCondition::AnyThreadCommitted(10_000));
        (
            s.cycles,
            s.threads[0].committed,
            s.threads[0].mispredicts,
            s.threads[0].l2_misses,
            s.threads[0].squashed,
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn branch_predictor_learns_loops() {
    let mut sim = single("swim", 7);
    let stats = sim.run(StopCondition::AnyThreadCommitted(30_000));
    let acc = 1.0 - stats.threads[0].mispredict_rate();
    assert!(acc > 0.85, "loop-dominated swim should predict well: {acc}");
}

#[test]
fn mispredicts_occur_and_recover() {
    let mut sim = single("parser", 13);
    let stats = sim.run(StopCondition::AnyThreadCommitted(20_000));
    let t = &stats.threads[0];
    assert!(
        t.mispredicts > 10,
        "branchy parser must mispredict sometimes"
    );
    assert!(t.squashed > 0, "mispredicts must squash wrong-path work");
    assert!(
        t.wrong_path_fetched > 0,
        "wrong-path fetch must inject instructions"
    );
}

#[test]
fn four_thread_mix_runs_all_threads() {
    let mut sim = quad(1, 32, FetchPolicyKind::Icount, 21);
    let stats = sim.run(StopCondition::AnyThreadCommitted(10_000));
    for (i, t) in stats.threads.iter().enumerate() {
        assert!(t.committed > 500, "thread {i} starved: {}", t.committed);
    }
    assert!(stats.throughput_ipc() > 0.2);
}

#[test]
fn dcra_runs_mixes() {
    let mut sim = quad(9, 32, FetchPolicyKind::Dcra(DcraConfig::default()), 23);
    let stats = sim.run(StopCondition::AnyThreadCommitted(10_000));
    assert!(stats.total_committed() > 20_000);
}

#[test]
fn stall_and_flush_policies_run() {
    for p in [FetchPolicyKind::Stall, FetchPolicyKind::Flush] {
        let mut sim = quad(2, 32, p, 25);
        let stats = sim.run(StopCondition::AnyThreadCommitted(5_000));
        assert!(stats.total_committed() > 5_000, "{p:?}");
    }
}

#[test]
fn round_robin_policy_runs() {
    let mut sim = quad(10, 32, FetchPolicyKind::RoundRobin, 29);
    let stats = sim.run(StopCondition::AnyThreadCommitted(8_000));
    assert!(stats.total_committed() > 16_000);
}

#[test]
fn rob_capacity_bounds_occupancy() {
    let mut sim = single("art", 31);
    sim.run(StopCondition::Cycles(50_000));
    let s = sim.stats();
    // Average ROB occupancy can never exceed the 32-entry cap.
    let avg = s.threads[0].rob_occupancy_sum as f64 / 50_000.0;
    assert!(avg <= 32.0, "avg occupancy {avg}");
    assert!(avg > 5.0, "memory-bound thread should keep its ROB busy");
}

#[test]
fn memory_bound_thread_fills_its_rob() {
    // With a long-latency miss at the head, a 32-entry ROB should be
    // full much of the time (the paper's motivation for the second
    // level).
    let mut sim = single("art", 33);
    sim.run(StopCondition::Cycles(100_000));
    let s = sim.stats();
    assert!(
        s.threads[0].rob_stall_cycles > 10_000,
        "rob stalls: {}",
        s.threads[0].rob_stall_cycles
    );
}

#[test]
fn dod_histogram_sampled_at_fills() {
    let mut sim = single("ammp", 35);
    sim.run(StopCondition::AnyThreadCommitted(30_000));
    let h = &sim.stats().dod_at_fill;
    assert!(h.samples > 50, "expected many fill samples: {}", h.samples);
    // The paper's Figure 1: typical dependent counts are small.
    assert!(h.mean() < 16.0, "mean DoD {}", h.mean());
}

#[test]
fn stop_conditions_respected() {
    let mut sim = single("gzip", 37);
    sim.run(StopCondition::Cycles(1_000));
    assert_eq!(sim.cycle(), 1_000);

    let mut sim2 = single("gzip", 37);
    let s = sim2.run(StopCondition::TotalCommitted(2_000));
    assert!(s.total_committed() >= 2_000);
}

#[test]
fn larger_rob_helps_single_memory_bound_thread() {
    // Single-threaded: no shared-resource contention, so a bigger
    // window should exploit MLP in `art`'s independent-miss streams.
    let ipc = |rob: usize| {
        let cfg = MachineConfig::icpp08_single();
        let wl = Arc::new(Workload::spec("art", 41, 0x1_0000, 0x1000_0000));
        let mut sim = Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(rob)), 41)
            .build()
            .unwrap();
        let s = sim.run(StopCondition::AnyThreadCommitted(30_000));
        s.threads[0].ipc(s.cycles)
    };
    let small = ipc(32);
    let big = ipc(128);
    assert!(
        big > small * 1.1,
        "ROB 128 ({big}) should beat ROB 32 ({small}) for one thread"
    );
}

#[test]
fn store_forwarding_happens() {
    let mut sim = single("vortex", 45);
    let stats = sim.run(StopCondition::AnyThreadCommitted(30_000));
    assert!(
        stats.threads[0].forwarded_loads > 0,
        "hot-region loads should sometimes forward from stores"
    );
}

#[test]
fn iq_occupancy_tracked() {
    let mut sim = quad(1, 32, FetchPolicyKind::Icount, 47);
    sim.run(StopCondition::Cycles(50_000));
    let avg = sim.stats().avg_iq_occupancy();
    assert!(avg > 0.5 && avg <= 64.0, "avg IQ occupancy {avg}");
}

#[test]
fn cycle_budget_fires_as_cell_timeout_at_exact_cycle() {
    use smtsim_pipeline::{RunBudget, SimError};
    let mut sim = single_builder("mcf", 3)
        .run_budget(RunBudget::cycles(1_000))
        .build()
        .unwrap();
    match sim.try_run(StopCondition::AnyThreadCommitted(u64::MAX)) {
        Err(SimError::CellTimeout { cycle, detail }) => {
            assert_eq!(cycle, 1_000);
            assert!(detail.contains("cycle budget of 1000"));
        }
        other => panic!("expected CellTimeout, got {other:?}"),
    }
    // Stats stay coherent up to the firing cycle.
    assert_eq!(sim.stats().cycles, 1_000);
}

#[test]
fn cancel_token_terminates_run() {
    use smtsim_pipeline::{CancelToken, RunBudget, SimError};
    let token = CancelToken::new();
    token.cancel(); // pre-cancelled: fires at the first poll point
    let mut sim = single_builder("gzip", 5)
        .run_budget(RunBudget {
            token: Some(token),
            ..RunBudget::default()
        })
        .build()
        .unwrap();
    match sim.try_run(StopCondition::AnyThreadCommitted(u64::MAX)) {
        Err(SimError::CellTimeout { detail, .. }) => {
            assert!(detail.contains("cancelled"));
        }
        other => panic!("expected CellTimeout, got {other:?}"),
    }
}

#[test]
fn unlimited_budget_changes_nothing() {
    let mut a = single("gzip", 9);
    let mut b = single_builder("gzip", 9)
        .run_budget(smtsim_pipeline::RunBudget::unlimited())
        .build()
        .unwrap();
    let sa = a.run(StopCondition::AnyThreadCommitted(5_000)).clone();
    let sb = b.run(StopCondition::AnyThreadCommitted(5_000)).clone();
    assert_eq!(format!("{sa:?}"), format!("{sb:?}"));
}
