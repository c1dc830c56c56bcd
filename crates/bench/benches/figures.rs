//! Benches: one target per paper artifact, exercising the exact code
//! path that regenerates it (at reduced budgets — these measure
//! simulator performance and keep the figure pipelines continuously
//! exercised; the binaries produce the full-size data).
//!
//! Self-contained `harness = false` target: no Criterion dependency so
//! the workspace benches run offline. Each benchmark runs a warm-up
//! iteration followed by `BENCH_ITERS` timed iterations (override via
//! the environment) and reports min/mean/max wall time. Filter by
//! substring: `cargo bench -p smtsim-bench -- fig2`.

use smtsim_bench::bench_lab;
use smtsim_rob2::{figures, ReleasePolicy, RobConfig, TwoLevelConfig};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Two representative mixes: a memory-bound one (the paper's target
/// workloads) and an execution-bound one (the no-harm case).
const BENCH_MIXES: [usize; 2] = [1, 10];

fn iters() -> u32 {
    let knobs =
        smtsim_rob2::Knobs::from_env().unwrap_or_else(|e| smtsim_bench::exit_bin(&e.into()));
    knobs.get(smtsim_rob2::Knob::BenchIters) as u32
}

/// Times `f` over a warm-up pass plus `iters()` measured passes.
fn bench(name: &str, filter: Option<&str>, f: impl Fn()) {
    if let Some(pat) = filter {
        if !name.contains(pat) {
            return;
        }
    }
    f(); // warm-up
    let n = iters();
    let mut times: Vec<Duration> = Vec::with_capacity(n as usize);
    for _ in 0..n {
        let t0 = Instant::now();
        f();
        times.push(t0.elapsed());
    }
    let total: Duration = times.iter().sum();
    let mean = total / n;
    let min = times.iter().min().copied().unwrap_or_default();
    let max = times.iter().max().copied().unwrap_or_default();
    println!("{name:<34} min {min:>10.2?}  mean {mean:>10.2?}  max {max:>10.2?}  ({n} iters)");
}

fn main() {
    // Cargo passes `--bench`; the first non-flag argument filters by
    // substring, mirroring the Criterion CLI.
    let filter: Option<String> = std::env::args().skip(1).find(|a| !a.starts_with('-'));
    let filter = filter.as_deref();

    bench("fig1_dod_histogram_baseline", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig1(&mut lab, &BENCH_MIXES));
    });
    bench("fig2_ft_r_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig2(&mut lab, &BENCH_MIXES));
    });
    bench("fig3_dod_histogram_r_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig3(&mut lab, &BENCH_MIXES));
    });
    bench("fig4_ft_relaxed_r_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig4(&mut lab, &BENCH_MIXES));
    });
    bench("fig5_ft_cdr_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig5(&mut lab, &BENCH_MIXES));
    });
    bench("fig6_ft_p_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig6(&mut lab, &BENCH_MIXES));
    });
    bench("fig7_dod_histogram_p_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::fig7(&mut lab, &BENCH_MIXES));
    });
    bench("threshold_sweep_r_rob", filter, || {
        let mut lab = bench_lab(42);
        black_box(figures::threshold_sweep(&mut lab, &[1], &[4, 16]));
    });
    bench("ablation_release_policies", filter, || {
        let mut lab = bench_lab(42);
        let mut out = Vec::new();
        for policy in [
            ReleasePolicy::TriggerServiced,
            ReleasePolicy::DrainAndNoMiss,
            ReleasePolicy::DrainOnly,
        ] {
            let mut cfg = TwoLevelConfig::r_rob(16);
            cfg.release = policy;
            out.push(lab.run_mix(1, RobConfig::TwoLevel(cfg)).ft);
        }
        black_box(out);
    });
    // Raw simulator throughput: cycles per second of the Table 1
    // machine under the heaviest mix — the number that bounds every
    // experiment.
    bench("simulator_20k_cycles_mix1", filter, || {
        use smtsim_pipeline::{FixedRob, MachineConfig, Simulator, StopCondition};
        use std::sync::Arc;
        let wls = smtsim_workload::mix(1)
            .instantiate(42)
            .into_iter()
            .map(Arc::new)
            .collect();
        let mut sim = Simulator::new(
            MachineConfig::icpp08(),
            wls,
            Box::new(FixedRob::new(32)),
            42,
        );
        sim.run(StopCondition::Cycles(20_000));
        black_box(sim.stats().total_committed());
    });
}
