//! Runner for `kind = "conform"`: the harness — the differential and
//! the protocol monitor (DESIGN.md §12, §14) — over every configuration
//! the committed specs render, in three passes: committed mixes, corpus
//! replay, fresh fuzz. Knobs come pre-merged (spec `[knobs]` under
//! explicit env).

use crate::BinError;
use smtsim_conform::{
    check_workloads, committed_corpus, run_case, run_fresh_cases, CaseSpec, CaseVerdict,
    ConformReport,
};
use smtsim_rob2::{committed_variants, Knob, Knobs};
use smtsim_workload::mix;
use std::sync::Arc;

/// What one workload set's harness run compared and judged.
fn evidence(r: &ConformReport) -> String {
    let p = &r.protocol;
    format!(
        "{} commits compared, {} configs; monitor: {} traces, {} episodes, {} grants, \
         {} denials, {} releases",
        r.commits_compared,
        r.configs.len(),
        r.traces_judged,
        p.episodes,
        p.grants,
        p.denials,
        p.releases
    )
}

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
    println!("Trace oracles (committed mixes)");
    for &m in &env.mixes {
        let wls: Vec<_> = mix(m).instantiate(seed).into_iter().map(Arc::new).collect();
        match check_workloads(&wls, &matrix, seed, budget, warmup) {
            Ok(report) => println!("  mix {m:>2}: ok ({})", evidence(&report)),
            Err(e) => {
                failures += 1;
                println!("  mix {m:>2}: FAIL\n{e}");
            }
        }
    }

    println!("Corpus replay (tests/corpus)");
    for (name, spec) in corpus(&mut failures)? {
        match run_case(&spec, &matrix) {
            CaseVerdict::Pass { report } => println!("  {name}: pass ({})", evidence(&report)),
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
            CaseVerdict::Pass { report } => {
                println!(
                    "  case {i} (seed={}): pass ({})",
                    spec.seed,
                    evidence(report)
                );
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

/// The committed conformance corpus ([`committed_corpus`]): each
/// readable case's file name and spec. An empty corpus and each
/// unreadable case print a `FAIL` line and count in `failures`; an
/// unreadable directory is a configuration error naming the path.
fn corpus(failures: &mut usize) -> Result<Vec<(String, CaseSpec)>, BinError> {
    let cases = committed_corpus().map_err(BinError::Config)?;
    if cases.is_empty() {
        *failures += 1;
        println!("  FAIL: no .case files in tests/corpus");
    }
    let mut readable = Vec::new();
    for (name, spec) in cases {
        match spec {
            Ok(spec) => readable.push((name, spec)),
            Err(e) => {
                *failures += 1;
                println!("  {name}: FAIL (unreadable: {e})");
            }
        }
    }
    Ok(readable)
}
