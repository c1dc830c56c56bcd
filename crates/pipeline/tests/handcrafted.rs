//! Handcrafted micro-programs: precise behavioural checks that the
//! synthetic workloads cannot pin down — mispredict recovery on a known
//! branch, store-to-load forwarding on a known pair, load serialization
//! behind unresolved stores, and NOP flow.

use smtsim_isa::{
    ArchReg, BasicBlock, BlockId, BranchBehavior, OpClass, Program, StaticInst, StreamId,
};
use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
use smtsim_workload::{StreamDesc, Workload, WorkloadProfile};
use std::sync::Arc;

/// Wraps a handcrafted program (plus stream table) into a Workload.
fn workload(program: Program, streams: Vec<StreamDesc>) -> Arc<Workload> {
    Arc::new(Workload {
        profile: WorkloadProfile::test_profile(),
        program,
        streams,
        static_missing_loads: 0,
        static_loads: 0,
        static_missing_dod: 0,
    })
}

fn machine(wl: Arc<Workload>, seed: u64) -> Simulator {
    let cfg = MachineConfig::icpp08_single();
    Simulator::builder(cfg, vec![wl], Box::new(FixedRob::new(32)), seed)
        .build()
        .unwrap()
}

/// A single hot-slot stream (stride 0) at `base`.
fn one_slot(base: u64) -> Vec<StreamDesc> {
    vec![StreamDesc::Hot {
        base,
        footprint: 8,
        stride: 0,
    }]
}

#[test]
fn pure_alu_loop_reaches_high_ipc() {
    // Independent single-cycle ALU ops in a tight predictable loop: the
    // machine should sustain several IPC (bounded by fetch group
    // breaks at the back edge).
    let r = |i: u8| ArchReg::int(i);
    let mut insts: Vec<StaticInst> = (1..=12)
        .map(|i| StaticInst::compute(OpClass::IntAlu, r(i), [None, None]))
        .collect();
    insts.push(StaticInst::branch(
        Some(r(1)),
        BranchBehavior::Loop { trip: 1 << 30 },
        BlockId(0),
    ));
    let p = Program::new(
        "alu-loop",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, vec![]), 1);
    let stats = sim.run(StopCondition::Cycles(10_000));
    let ipc = stats.threads[0].ipc(10_000);
    assert!(
        ipc > 2.0,
        "independent ALU loop should exceed 2 IPC, got {ipc}"
    );
}

#[test]
fn serial_dependency_chain_is_one_ipc_bound() {
    // r1 = alu(r1) chains serialize completely: IPC ≤ 1 regardless of
    // width.
    let r1 = ArchReg::int(1);
    let mut insts: Vec<StaticInst> = (0..12)
        .map(|_| StaticInst::compute(OpClass::IntAlu, r1, [Some(r1), None]))
        .collect();
    insts.push(StaticInst::branch(
        Some(r1),
        BranchBehavior::Loop { trip: 1 << 30 },
        BlockId(0),
    ));
    let p = Program::new(
        "chain-loop",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, vec![]), 1);
    let stats = sim.run(StopCondition::Cycles(10_000));
    let ipc = stats.threads[0].ipc(10_000);
    assert!(ipc <= 1.05, "serial chain cannot exceed 1 IPC, got {ipc}");
    assert!(ipc > 0.5, "chain should still retire steadily, got {ipc}");
}

#[test]
fn unbiased_branch_mispredicts_and_recovers() {
    // A 50/50 branch is unpredictable: mispredict rate near 50 %, with
    // squashes and full recovery (progress continues).
    // A real diamond: the 50/50 branch either skips block 1 (taken →
    // block 2) or falls into it, so direction changes the fetch path.
    let r1 = ArchReg::int(1);
    let b0 = BasicBlock::new(
        vec![
            StaticInst::compute(OpClass::IntAlu, r1, [None, None]),
            StaticInst::branch(
                Some(r1),
                BranchBehavior::Biased { taken_pm: 500 },
                BlockId(2),
            ),
        ],
        BlockId(1),
    );
    let b1 = BasicBlock::new(
        vec![StaticInst::nop(), StaticInst::nop(), StaticInst::nop()],
        BlockId(2),
    );
    let b2 = BasicBlock::new(
        vec![
            StaticInst::nop(),
            StaticInst::branch(None, BranchBehavior::Always, BlockId(0)),
        ],
        BlockId(0),
    );
    let p = Program::new("coinflip", vec![b0, b1, b2], BlockId(0), 0x1000);
    let mut sim = machine(workload(p, vec![]), 7);
    let stats = sim.run(StopCondition::AnyThreadCommitted(8_000));
    let t = &stats.threads[0];
    let rate = t.mispredict_rate();
    assert!(
        (0.25..=0.75).contains(&rate),
        "50/50 branch should mispredict ~half the time, got {rate}"
    );
    assert!(t.squashed > 100, "mispredicts must squash wrong-path work");
    assert!(t.committed >= 8_000, "machine must keep making progress");
    if let Some(v) = sim.check_invariants() {
        panic!("invariants violated after recovery storm: {v}");
    }
}

#[test]
fn store_load_pair_forwards() {
    // store [slot] ; load [slot] — every load forwards from the
    // in-flight store (same 8-byte chunk, stride-0 stream).
    let r = |i: u8| ArchReg::int(i);
    let insts = vec![
        StaticInst::compute(OpClass::IntAlu, r(2), [None, None]),
        StaticInst::store(Some(r(2)), Some(r(3)), StreamId(0)),
        StaticInst::load(r(4), Some(r(3)), StreamId(0)),
        StaticInst::compute(OpClass::IntAlu, r(5), [Some(r(4)), None]),
        StaticInst::branch(
            Some(r(5)),
            BranchBehavior::Loop { trip: 1 << 30 },
            BlockId(0),
        ),
    ];
    let p = Program::new(
        "fwd",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, one_slot(0x10_0000)), 3);
    let stats = sim.run(StopCondition::AnyThreadCommitted(5_000));
    let t = &stats.threads[0];
    assert!(t.loads > 500);
    assert!(
        t.forwarded_loads * 10 >= t.loads * 8,
        "most loads should forward: {} of {}",
        t.forwarded_loads,
        t.loads
    );
}

#[test]
fn loads_wait_for_older_store_addresses() {
    // A store whose address operand comes off a long-latency divide
    // delays the younger load (conservative disambiguation): IPC is
    // div-latency bound.
    let r = |i: u8| ArchReg::int(i);
    let insts = vec![
        StaticInst::compute(OpClass::IntDiv, r(2), [Some(r(2)), None]),
        StaticInst::store(Some(r(1)), Some(r(2)), StreamId(0)),
        StaticInst::load(r(4), Some(r(3)), StreamId(0)),
        StaticInst::branch(
            Some(r(4)),
            BranchBehavior::Loop { trip: 1 << 30 },
            BlockId(0),
        ),
    ];
    let p = Program::new(
        "disamb",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, one_slot(0x10_0000)), 3);
    let stats = sim.run(StopCondition::Cycles(20_000));
    // 4 instructions per ~20-cycle divide ⇒ IPC ≈ 0.2; anything near 1
    // would mean loads bypassed the unresolved store.
    let ipc = stats.threads[0].ipc(20_000);
    assert!(
        ipc < 0.45,
        "load must wait for the store's address: IPC {ipc}"
    );
}

#[test]
fn nops_commit_without_issue_resources() {
    let mut insts: Vec<StaticInst> = (0..10).map(|_| StaticInst::nop()).collect();
    insts.push(StaticInst::branch(
        None,
        BranchBehavior::Loop { trip: 1 << 30 },
        BlockId(0),
    ));
    let p = Program::new(
        "nops",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, vec![]), 1);
    let stats = sim.run(StopCondition::AnyThreadCommitted(5_000));
    let t = &stats.threads[0];
    assert!(t.committed >= 5_000);
    // Only the loop branches needed the IQ; issued counts them alone.
    assert!(
        t.issued < t.committed / 5,
        "NOPs must not issue: {}",
        t.issued
    );
}

#[test]
fn fp_divide_throughput_matches_unit_occupancy() {
    // Independent FP divides: 4 unpipelined units × 12-cycle occupancy
    // ⇒ at most one divide per 3 cycles.
    let f = |i: u8| ArchReg::fp(i);
    let mut insts: Vec<StaticInst> = (1..=8)
        .map(|i| StaticInst::compute(OpClass::FpDiv, f(i), [None, None]))
        .collect();
    insts.push(StaticInst::branch(
        Some(ArchReg::int(1)),
        BranchBehavior::Loop { trip: 1 << 30 },
        BlockId(0),
    ));
    let p = Program::new(
        "divs",
        vec![BasicBlock::new(insts, BlockId(0))],
        BlockId(0),
        0x1000,
    );
    let mut sim = machine(workload(p, vec![]), 1);
    let stats = sim.run(StopCondition::Cycles(12_000));
    let divides = stats.threads[0].committed as f64 * 8.0 / 9.0;
    let per_cycle = divides / 12_000.0;
    assert!(
        per_cycle < 4.0 / 12.0 * 1.15,
        "FP divide throughput {per_cycle:.3} exceeds 4 units / 12-cycle occupancy"
    );
}
