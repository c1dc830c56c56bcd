//! Runner for `kind = "conform"`: the three-pass differential
//! conformance suite (committed mixes, corpus replay, fresh fuzz —
//! DESIGN.md §12) over every configuration the committed specs render.
//! Knobs come pre-merged (spec `[knobs]` under explicit env).

use super::corpus;
use crate::BinError;
use smtsim_conform::{check_workloads, run_fresh_cases, CaseVerdict};
use smtsim_rob2::{committed_variants, Knob, Knobs};
use smtsim_workload::mix;
use std::sync::Arc;

pub(super) fn run(env: &Knobs) -> Result<(), BinError> {
    let matrix = committed_variants()?;
    let mut failures = 0usize;
    let (seed, budget, warmup) = (
        env.get(Knob::Seed),
        env.get(Knob::Budget),
        env.get(Knob::Warmup),
    );

    let names: Vec<&str> = matrix.iter().map(|v| v.name.as_str()).collect();
    println!("Configurations ({}): {}", names.len(), names.join(", "));
    println!("Conformance differential (committed mixes)");
    for &m in &env.mixes {
        let wls: Vec<_> = mix(m).instantiate(seed).into_iter().map(Arc::new).collect();
        match check_workloads(&wls, &matrix, seed, budget, warmup) {
            Ok(report) => println!(
                "  mix {m:>2}: ok ({} commits compared, {} configs)",
                report.commits_compared,
                report.configs.len()
            ),
            Err(e) => {
                failures += 1;
                println!("  mix {m:>2}: FAIL\n{e}");
            }
        }
    }

    println!("Corpus replay (tests/corpus)");
    for (name, spec) in corpus(&mut failures)? {
        match smtsim_conform::run_case(&spec, &matrix) {
            CaseVerdict::Pass { commits } => println!("  {name}: pass ({commits} commits)"),
            CaseVerdict::Skipped { reason } => {
                failures += 1;
                println!("  {name}: FAIL (committed case skipped: {reason})");
            }
            CaseVerdict::Fail { failure, shrunk } => {
                failures += 1;
                println!("  {name}: FAIL (shrunk to {shrunk:?})\n{failure}");
            }
        }
    }

    let (fuzz_seed, fuzz_cases) = (env.get(Knob::FuzzSeed), env.get(Knob::FuzzCases));
    println!("Fresh fuzz (seed={fuzz_seed}, cases={fuzz_cases})");
    let jobs = env.lab().effective_jobs();
    for (i, (spec, verdict)) in run_fresh_cases(fuzz_seed, fuzz_cases, &matrix, jobs)
        .iter()
        .enumerate()
    {
        match verdict {
            CaseVerdict::Pass { commits } => {
                println!("  case {i} (seed={}): pass ({commits} commits)", spec.seed);
            }
            CaseVerdict::Skipped { reason } => {
                println!("  case {i} (seed={}): skipped ({reason})", spec.seed);
            }
            CaseVerdict::Fail { failure, shrunk } => {
                failures += 1;
                println!(
                    "  case {i} (seed={}): FAIL (shrunk to {shrunk:?})\n{failure}",
                    spec.seed
                );
            }
        }
    }

    if failures > 0 {
        println!("conform: {failures} check(s) FAILED");
        return Err(BinError::Runtime(format!(
            "{failures} conformance check(s) failed"
        )));
    }
    println!("conform: all checks passed");
    Ok(())
}
