//! Runner for `kind = "check"`: bounded model checking of the
//! two-level transfer protocol (DESIGN.md §14) over every scheme family
//! × release policy. Bounds come pre-merged (spec `[knobs]` under
//! explicit env). Live traces are judged against the model by the
//! `conform` runner's harness.

use crate::BinError;
use smtsim_check::{explore, Bounds, ModelConfig};
use smtsim_rob2::{Knob, Knobs, ReleasePolicy, SchemeKind};

/// The outstanding-miss bound implied by the thread bound: the full
/// 3-miss product is cheap up to 3 threads; at 4 threads the state
/// space grows ~20× per extra miss, so CI drops to 2 (see
/// EXPERIMENTS.md).
fn misses_for(threads: usize) -> usize {
    if threads <= 3 {
        3
    } else {
        2
    }
}

pub(super) fn run(env: &Knobs) -> Result<(), BinError> {
    let mut failures = 0usize;

    // Both bounds are range-checked to 1..=4 by the knob table.
    let threads = env.get(Knob::CheckThreads) as usize;
    let bounds = Bounds {
        threads,
        l2: env.get(Knob::CheckL2) as u8,
        misses: misses_for(threads),
    };
    println!(
        "Bounded exploration (threads={}, l2={}, misses={})",
        bounds.threads, bounds.l2, bounds.misses
    );
    for kind in [
        SchemeKind::Reactive,
        SchemeKind::CountDelayed,
        SchemeKind::Predictive,
    ] {
        for release in [
            ReleasePolicy::TriggerServiced,
            ReleasePolicy::DrainAndNoMiss,
            ReleasePolicy::DrainOnly,
        ] {
            let cfg = ModelConfig {
                kind,
                release,
                bounds,
            };
            let report = explore(&cfg).map_err(|e| BinError::Config(format!("bad bounds: {e}")))?;
            let label = format!("{kind:?}/{release:?}");
            match &report.violation {
                None => println!(
                    "  {label:<34} clean ({} states, {} transitions, depth {})",
                    report.states, report.transitions, report.depth
                ),
                Some(v) => {
                    failures += 1;
                    println!("  {label:<34} VIOLATION\n{v}");
                }
            }
        }
    }

    if failures > 0 {
        println!("check: {failures} check(s) FAILED");
        return Err(BinError::Runtime(format!(
            "{failures} model check(s) failed"
        )));
    }
    println!("check: all checks passed");
    Ok(())
}
