//! End-to-end proof for the `suite` runner (DESIGN.md §16): the `spec`
//! bin on `experiments/all_figures.toml` sweeps every artifact's cells
//! at once and runs each distinct cell once, yet every
//! `results/<id>.txt` it writes must equal what the `spec` bin prints
//! for `<id>.toml` alone, at job counts 1 and 4. The suite's work
//! counter line on stderr is asserted exactly. With a result cache
//! armed, each artifact's health footer counts only its own cells, and
//! a rerun on the same cache is byte-identical.
//!
//! All knobs reach the children through `Command::env`; nothing here
//! mutates this test process's environment.

use smtsim_rob2::{ExperimentSpec, SpecKind};
use std::path::{Path, PathBuf};
use std::process::Command;

const KNOBS: [(&str, &str); 3] = [("BUDGET", "2000"), ("WARMUP", "1000"), ("MIXES", "1,9")];

/// Mixes in `KNOBS`.
const MIXES: usize = 2;

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("smtsim-suite-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn spec_path(id: &str) -> PathBuf {
    smtsim_bench::spec_dir().join(format!("{id}.toml"))
}

/// The specs `all_figures` lists, parsed.
fn artifacts() -> Vec<ExperimentSpec> {
    let suite = ExperimentSpec::load(&spec_path("all_figures")).expect("all_figures.toml parses");
    suite
        .specs
        .iter()
        .map(|id| ExperimentSpec::load(&spec_path(id)).expect("suite entry parses"))
        .collect()
}

/// Runs the `spec` bin on `id` in `cwd` under the test knobs, `jobs`
/// workers and an optional result cache; returns stdout and stderr.
fn spec(id: &str, cwd: &Path, jobs: usize, cache: Option<&Path>) -> (String, String) {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_spec"));
    cmd.env_clear()
        .envs(KNOBS)
        .env("SMTSIM_JOBS", jobs.to_string())
        .env("SMTSIM_SPEC", spec_path(id))
        .current_dir(cwd);
    if let Some(cache) = cache {
        cmd.env("SMTSIM_JOURNAL", cache);
    }
    let out = cmd.output().expect("spec bin runs");
    let stderr = String::from_utf8(out.stderr).expect("stderr is UTF-8");
    assert!(out.status.success(), "spec {id} failed: {stderr}");
    (
        String::from_utf8(out.stdout).expect("stdout is UTF-8"),
        stderr,
    )
}

/// Runs `all_figures` in a fresh scratch CWD; returns every artifact's
/// `results/<id>.txt` (in suite order) and the suite's counter line.
fn suite(tag: &str, jobs: usize, cache: Option<&Path>) -> (Vec<(String, String)>, String) {
    let cwd = scratch(tag);
    let (_, stderr) = spec("all_figures", &cwd, jobs, cache);
    let counter = stderr
        .lines()
        .find(|l| l.starts_with("cells: "))
        .expect("the suite prints its work counter")
        .to_string();
    let files = artifacts()
        .into_iter()
        .map(|a| {
            let text = std::fs::read_to_string(cwd.join(format!("results/{}.txt", a.id)))
                .expect("the suite wrote the artifact");
            (a.id, text)
        })
        .collect();
    let _ = std::fs::remove_dir_all(&cwd);
    (files, counter)
}

/// 36 configurations over the artifacts plus fig3's and fig7's
/// Baseline_32 compare references, of which 24 are distinct: all
/// times two mixes. Mixes 1 and 9 share no program, so phase 1 runs
/// all eight of their slots alone.
const COUNTER_COLD: &str = "cells: 76 requested, 48 distinct, 0 from cache; 8 normalization runs";

#[test]
fn suite_files_equal_each_spec_alone_at_any_job_count() {
    let (serial, counter) = suite("jobs1", 1, None);
    assert_eq!(counter, COUNTER_COLD);
    let (parallel, counter) = suite("jobs4", 4, None);
    assert_eq!(counter, COUNTER_COLD);
    assert_eq!(serial, parallel, "job count changed the suite's files");
    let cwd = scratch("alone");
    for (id, text) in &serial {
        let (alone, _) = spec(id, &cwd, 2, None);
        assert_eq!(
            &alone, text,
            "results/{id}.txt differs from spec {id} alone"
        );
    }
    let _ = std::fs::remove_dir_all(&cwd);
}

#[test]
fn journaled_suite_footers_count_own_cells_and_rerun_is_identical() {
    let cache = scratch("cache");
    let (first, counter) = suite("cold", 4, Some(&cache));
    assert_eq!(counter, COUNTER_COLD);
    let fig2 = &first
        .iter()
        .find(|(id, _)| id == "fig2")
        .expect("fig2 in suite")
        .1;
    assert!(
        fig2.ends_with("sweep health: 6 ok (0 retried), 0 timed out, 0 failed\n"),
        "{fig2}"
    );
    for (spec, (id, text)) in artifacts().iter().zip(&first) {
        let footers: Vec<&str> = text
            .lines()
            .filter(|l| l.starts_with("sweep health"))
            .collect();
        if matches!(spec.kind, SpecKind::Table1 | SpecKind::Table2) {
            assert!(footers.is_empty(), "{id}: {text}");
        } else {
            // A histogram's compare cells are not its own.
            let own = spec.variants.len() * MIXES;
            let footer = format!("sweep health: {own} ok (0 retried), 0 timed out, 0 failed");
            assert_eq!(footers, [footer.as_str()], "{id}: {text}");
        }
    }

    let (rerun, counter) = suite("warm", 1, Some(&cache));
    // Every cell hits, so phase 1 normalizes no mix.
    assert_eq!(
        counter,
        "cells: 76 requested, 48 distinct, 48 from cache; 0 normalization runs"
    );
    assert_eq!(rerun, first, "a rerun on the same cache changed bytes");
    // Each spec alone on the same cache is served from it and prints
    // the suite's bytes, footer included.
    let cwd = scratch("alone-cached");
    for (id, text) in &first {
        let (alone, _) = spec(id, &cwd, 2, Some(&cache));
        assert_eq!(
            &alone, text,
            "results/{id}.txt differs from spec {id} alone"
        );
    }
    let _ = std::fs::remove_dir_all(&cwd);
    let _ = std::fs::remove_dir_all(&cache);
}
