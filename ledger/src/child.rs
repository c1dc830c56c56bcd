//! `ledger child …`: the processes the parent times. Each calls a
//! product entry point directly, so a run of this binary can never
//! time a stale `spec` or `serve` build. The parent starts every child
//! from an empty environment plus exactly the workload's knobs, which
//! the product's own `BenchEnv::from_env` then reads.
//!
//! * `spec <path>` — `smtsim_bench::run_spec`, as the `spec` bin;
//! * `setup <path>` — everything before the first simulated cycle:
//!   `BenchEnv::from_env`, `ExperimentSpec::load` (plus sibling specs),
//!   `with_spec` and `lab_for_spec`, then exit;
//! * `serve` — `serve_support::run_serve`, as the `serve` bin;
//! * `trace [--deep] --scratch <dir> <spec>…` — the traced pass
//!   ([`crate::replay`]), its report as one JSON line on stdout.
//!
//! `spec` and `serve` report the process's peak resident set
//! (`VmHWM`) on stderr as their last act, prefixed [`RSS_PREFIX`].

use crate::replay;
use smtsim_bench::{serve_support, BenchEnv, BinError};
use smtsim_rob2::ExperimentSpec;
use std::path::{Path, PathBuf};

/// Prefix of the stderr line carrying the child's peak RSS in kB.
pub const RSS_PREFIX: &str = "ledger-child vmhwm_kb=";

/// The process's peak resident set in kB, from `/proc/self/status`.
#[must_use]
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Maps a product result to an exit code the way `run_bin` does, after
/// reporting the peak RSS.
fn finish(r: Result<(), BinError>) -> i32 {
    if let Some(kb) = peak_rss_kb() {
        eprintln!("{RSS_PREFIX}{kb}");
    }
    match r {
        Ok(()) => 0,
        Err(e) => {
            eprintln!("error: {e}");
            e.exit_code()
        }
    }
}

fn setup(path: &Path) -> Result<(), BinError> {
    let env = BenchEnv::from_env()?;
    let spec = ExperimentSpec::load(path)?;
    let dir = path.parent().unwrap_or_else(|| Path::new("."));
    for id in &spec.specs {
        ExperimentSpec::load(&dir.join(format!("{id}.toml")))?;
    }
    let merged = env.with_spec(&spec);
    std::hint::black_box(merged.lab_for_spec(&spec));
    Ok(())
}

fn trace(args: &[String]) -> Result<(), BinError> {
    let mut deep = false;
    let mut scratch = None;
    let mut specs = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--deep" => deep = true,
            "--scratch" => scratch = it.next().map(PathBuf::from),
            _ => specs.push(PathBuf::from(a)),
        }
    }
    let scratch =
        scratch.ok_or_else(|| BinError::Config("child trace needs --scratch <dir>".into()))?;
    let report =
        replay::run(&specs, &replay::Options { deep, scratch }).map_err(BinError::Runtime)?;
    println!("{report}");
    Ok(())
}

/// Runs `ledger child <args>` and returns the process exit code.
#[must_use]
pub fn main(args: &[String]) -> i32 {
    match args.first().map(String::as_str) {
        Some("spec") if args.len() == 2 => finish(smtsim_bench::run_spec(Path::new(&args[1]))),
        Some("setup") if args.len() == 2 => match setup(Path::new(&args[1])) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                e.exit_code()
            }
        },
        Some("serve") if args.len() == 1 => finish(serve_support::run_serve()),
        Some("trace") => match trace(&args[1..]) {
            Ok(()) => 0,
            Err(e) => {
                eprintln!("error: {e}");
                e.exit_code()
            }
        },
        _ => {
            eprintln!("usage: ledger child spec|setup <spec> | serve | trace [--deep] --scratch <dir> <spec>...");
            2
        }
    }
}
