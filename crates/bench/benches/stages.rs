//! Per-stage microbenchmarks of the cycle kernel: each target runs a
//! faithful cycle loop through the `bench-internals` stage hooks
//! (`try_step` order) over the paper's Table 1 machine on Mix 1, but
//! accumulates wall time for *one* stage only — so a regression in,
//! say, the issue stage's select loop shows up in `stage_issue` without
//! being diluted by the memory system. `full_cycle` times the whole
//! loop for reference, and `dod_scan` isolates the masked-popcount DoD
//! kernel itself.
//!
//! Self-contained `harness = false` target (no Criterion; the
//! workspace builds offline). Same protocol as `benches/figures.rs`:
//! one warm-up pass then `BENCH_ITERS` timed passes, min/mean/max
//! reported, substring filter as the first non-flag argument.

use smtsim_pipeline::{MachineConfig, Simulator, DOD_WINDOW};
use smtsim_rob2::{TwoLevelConfig, TwoLevelRob};
use smtsim_workload::mix;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cycles per timed pass: long enough that every structure (ROB, IQ,
/// LSQ, fetch queues) reaches steady-state occupancy.
const CYCLES_PER_PASS: u64 = 20_000;

/// Which stage a pass accumulates time for.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Timed {
    Events,
    Commit,
    Issue,
    Dispatch,
    Fetch,
    DodScan,
    FullCycle,
}

fn make_sim() -> Simulator {
    let wls = mix(1).instantiate(42).into_iter().map(Arc::new).collect();
    Simulator::builder(
        MachineConfig::icpp08(),
        wls,
        Box::new(TwoLevelRob::new(TwoLevelConfig::r_rob(16))),
        42,
    )
    .warmup(10_000)
    .build()
    .expect("Table 1 machine on Mix 1 is a valid configuration")
}

/// Runs `f`, adding its wall time to `acc` when `on`.
fn timed_call(acc: &mut Duration, on: bool, f: impl FnOnce()) {
    if on {
        let t0 = Instant::now();
        f();
        *acc += t0.elapsed();
    } else {
        f();
    }
}

/// One pass: `CYCLES_PER_PASS` faithful cycles, returning the time
/// accumulated in the selected stage.
fn pass(sim: &mut Simulator, timed: Timed) -> Duration {
    let mut acc = Duration::ZERO;
    for _ in 0..CYCLES_PER_PASS {
        if timed == Timed::FullCycle {
            let t0 = Instant::now();
            sim.bench_process_events();
            sim.bench_commit_stage();
            sim.bench_issue_stage();
            sim.bench_dispatch_stage();
            sim.bench_fetch_stage();
            sim.bench_cycle_end();
            acc += t0.elapsed();
            continue;
        }
        timed_call(&mut acc, timed == Timed::Events, || {
            sim.bench_process_events();
        });
        timed_call(&mut acc, timed == Timed::Commit, || {
            sim.bench_commit_stage();
        });
        timed_call(&mut acc, timed == Timed::Issue, || sim.bench_issue_stage());
        timed_call(&mut acc, timed == Timed::Dispatch, || {
            sim.bench_dispatch_stage();
        });
        timed_call(&mut acc, timed == Timed::Fetch, || sim.bench_fetch_stage());
        if timed == Timed::DodScan {
            let t0 = Instant::now();
            black_box(sim.bench_dod_scan(DOD_WINDOW));
            acc += t0.elapsed();
        }
        sim.bench_cycle_end();
    }
    acc
}

fn bench(name: &str, filter: Option<&str>, timed: Timed) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    // One long-lived simulator per target: the warm-up pass brings the
    // machine to steady state, then each timed pass continues the same
    // simulation (cycle-loop behavior does not depend on wall time).
    let mut sim = make_sim();
    pass(&mut sim, timed); // warm-up
    let knobs =
        smtsim_rob2::Knobs::from_env().unwrap_or_else(|e| smtsim_bench::exit_bin(&e.into()));
    let n = knobs.get(smtsim_rob2::Knob::BenchIters) as u32;
    let mut times: Vec<Duration> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        times.push(pass(&mut sim, timed));
    }
    let total: Duration = times.iter().sum();
    let mean = total / n;
    let min = times.iter().min().copied().unwrap_or_default();
    let max = times.iter().max().copied().unwrap_or_default();
    println!(
        "{name:<34} min {min:>10.2?}  mean {mean:>10.2?}  max {max:>10.2?}  ({n} iters x {CYCLES_PER_PASS} cycles)"
    );
}

fn main() {
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let filter = filter.as_deref();

    bench("stage_events_writeback", filter, Timed::Events);
    bench("stage_commit", filter, Timed::Commit);
    bench("stage_issue_execute", filter, Timed::Issue);
    bench("stage_dispatch_rename", filter, Timed::Dispatch);
    bench("stage_fetch_predict", filter, Timed::Fetch);
    bench("dod_scan_masked_popcount", filter, Timed::DodScan);
    bench("full_cycle", filter, Timed::FullCycle);
}
