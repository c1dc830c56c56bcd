//! Runner for `kind = "check"`: bounded model checking + trace
//! conformance for the two-level transfer protocol (DESIGN.md §14),
//! replaying every two-level configuration the committed specs render.
//! Bounds and budgets come pre-merged (spec `[knobs]` under explicit
//! env).

use super::corpus;
use crate::BinError;
use smtsim_check::{explore, replay_case, replay_mix, Bounds, ModelConfig, ReplayOutcome};
use smtsim_rob2::{committed_variants, Knob, Knobs, ReleasePolicy, SchemeKind};

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

fn print_outcomes(outcomes: &[ReplayOutcome]) {
    for o in outcomes {
        println!(
            "    {:<28} ok ({} events, {} episodes, {} grants, {} denials, {} releases)",
            o.name,
            o.conformance.events,
            o.conformance.episodes,
            o.conformance.grants,
            o.conformance.denials,
            o.conformance.releases
        );
    }
}

pub(super) fn run(env: &Knobs) -> Result<(), BinError> {
    let matrix = committed_variants()?;
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

    let (seed, budget, warmup) = (
        env.get(Knob::Seed),
        env.get(Knob::Budget),
        env.get(Knob::Warmup),
    );
    println!("Paper-mix conformance (seed={seed}, budget={budget}, warmup={warmup})");
    for &m in &env.mixes {
        match replay_mix(m, &matrix, seed, budget, warmup) {
            Ok(outcomes) => {
                println!("  mix {m:>2}:");
                print_outcomes(&outcomes);
            }
            Err(e) => {
                failures += 1;
                println!("  mix {m:>2}: FAIL\n{e}");
            }
        }
    }

    println!("Corpus conformance (tests/corpus)");
    for (name, spec) in corpus(&mut failures)? {
        match replay_case(&spec, &matrix) {
            Ok(outcomes) => {
                println!("  {name}:");
                print_outcomes(&outcomes);
            }
            Err(e) => {
                failures += 1;
                println!("  {name}: FAIL\n{e}");
            }
        }
    }

    if failures > 0 {
        println!("check: {failures} check(s) FAILED");
        return Err(BinError::Runtime(format!(
            "{failures} model/conformance check(s) failed"
        )));
    }
    println!("check: all checks passed");
    Ok(())
}
