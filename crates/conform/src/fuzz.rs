//! Seeded program fuzzer: machine-generated multi-threaded workloads
//! for the differential harness.
//!
//! Each case derives four [`WorkloadProfile`]s (one per hardware
//! thread) from a pure hash of the case seed, drawn from four shape
//! families — pointer-chase, streaming, dense-shadow (high DoD) and
//! sparse (low-miss) — with every knob perturbed inside its valid
//! range, so generated profiles pass [`WorkloadProfile::validate`] by
//! construction. Built workloads are additionally filtered through the
//! `smtsim-analysis` well-formedness lints; a case whose program lints
//! with errors is *skipped* (a generator bug, not a pipeline one).
//!
//! Failures shrink by halving basic blocks (block-size range, segment
//! count, loop trip) while the failure reproduces, and the smallest
//! failing case is reported. Cases serialize to `key=value` text files
//! so a committed corpus under `tests/corpus/` replays fully offline —
//! same [`CaseSpec`] → byte-identical programs and verdicts.

use crate::harness::{check_workloads, ConformFailure, ConformReport};
use smtsim_analysis::{has_errors, lint_workload};
use smtsim_rob2::{fan_out, SpecVariant};
use smtsim_workload::rng::mix64;
use smtsim_workload::{build, IlpClass, Rng, Workload, WorkloadProfile};
use std::path::PathBuf;
use std::sync::Arc;

/// Hardware threads per fuzz case (the paper machine).
pub const FUZZ_THREADS: usize = 4;
/// Commit budget per configuration in a fuzz run (kept modest: each
/// case runs every configuration of the committed-spec matrix).
pub const FUZZ_BUDGET: u64 = 1_500;
/// Maximum shrink steps attempted on a failing case.
pub const MAX_SHRINK: u32 = 6;

/// Domain-separation salt for deriving case seeds.
const CASE_SALT: u64 = 0xF0CC_5EED_A5A5_5A5A;

/// One fuzz case, fully determined by its fields: the profiles, the
/// programs and the harness verdict are pure functions of a spec.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CaseSpec {
    /// Seed for profile generation, program build and the simulator.
    pub seed: u64,
    /// `AnyThreadCommitted` budget per configuration.
    pub budget: u64,
    /// Shrink steps applied (each halves block sizes, segment count and
    /// loop trip).
    pub shrink: u32,
}

impl CaseSpec {
    /// The `i`-th fresh case of a fuzz run seeded with `base`.
    #[must_use]
    pub fn fresh(base: u64, i: u64) -> Self {
        CaseSpec {
            seed: mix64(base ^ CASE_SALT, i),
            budget: FUZZ_BUDGET,
            shrink: 0,
        }
    }
}

/// Outcome of one fuzz case.
#[derive(Clone, Debug)]
pub enum CaseVerdict {
    /// The differential and the protocol monitor held over every
    /// configuration.
    Pass {
        /// What the harness compared and judged across the matrix.
        report: ConformReport,
    },
    /// The generated program failed the `smtsim-analysis` lints and was
    /// never simulated.
    Skipped {
        /// The first lint finding, rendered.
        reason: String,
    },
    /// The harness failed; `shrunk` is the smallest spec that still
    /// reproduces (its failure is the one carried here).
    Fail {
        /// The failure of the *shrunk* case.
        failure: Box<ConformFailure>,
        /// Smallest reproducing spec.
        shrunk: CaseSpec,
    },
}

/// Fixed shape-family names (profiles need `&'static str` names).
const SHAPE_NAMES: [&str; 4] = ["fuzz-chase", "fuzz-stream", "fuzz-dense", "fuzz-sparse"];

/// Derives one profile of shape family `shape` (0..4) from `r`. All
/// knobs stay inside [`WorkloadProfile::validate`]'s envelope.
fn gen_profile(shape: usize, r: &mut Rng) -> WorkloadProfile {
    let load_frac_pm = (150 + r.below(200)) as u16;
    let store_frac_pm = (50 + r.below(100)) as u16;
    let branch_frac_pm = (80 + r.below(80)) as u16;
    let lo = 3 + r.below(6) as usize;
    let hi = lo + r.below(10) as usize;
    WorkloadProfile {
        name: SHAPE_NAMES[shape],
        class: match shape {
            3 => IlpClass::High,
            2 => IlpClass::Mid,
            _ => IlpClass::Low,
        },
        load_frac_pm,
        store_frac_pm,
        branch_frac_pm,
        fp_frac_pm: r.below(500) as u16,
        longlat_frac_pm: r.below(150) as u16,
        dod_mean: 2.0 + r.below(10) as f64,
        dod_cap: 8 + r.below(24) as u32,
        dense_frac_pm: if shape == 2 {
            (400 + r.below(400)) as u16
        } else {
            r.below(300) as u16
        },
        dod_gap: 1.0 + r.below(8) as f64,
        chain_frac_pm: (200 + r.below(600)) as u16,
        miss_load_frac_pm: if shape == 3 {
            r.below(100) as u16
        } else {
            (150 + r.below(250)) as u16
        },
        chase_frac_pm: if shape == 0 {
            (600 + r.below(400)) as u16
        } else {
            r.below(200) as u16
        },
        stream_frac_pm: if shape == 1 {
            (600 + r.below(400)) as u16
        } else {
            r.below(400) as u16
        },
        footprint: 1u64 << (20 + r.below(4)),
        hot_footprint: 1u64 << (10 + r.below(4)),
        branch_bias_pm: (700 + r.below(300)) as u16,
        avg_trip: 4 + r.below(28) as u32,
        block_size: (lo, hi),
        num_segments: 2 + r.below(3) as usize,
    }
}

/// One shrink step: halve the program's basic-block structure.
#[must_use]
pub fn shrink_once(p: &WorkloadProfile) -> WorkloadProfile {
    let lo = (p.block_size.0 / 2).max(1);
    let hi = (p.block_size.1 / 2).max(lo);
    WorkloadProfile {
        block_size: (lo, hi),
        num_segments: (p.num_segments / 2).max(1),
        avg_trip: (p.avg_trip / 2).max(1),
        ..p.clone()
    }
}

/// The four per-thread profiles of a case, shrunk at most to the minimal shape.
#[must_use]
pub fn case_profiles(spec: &CaseSpec) -> Vec<WorkloadProfile> {
    let mut rng = Rng::new(mix64(spec.seed, 0x5EED));
    (0..FUZZ_THREADS)
        .map(|t| {
            let mut r = rng.split(t as u64);
            let shape = r.below(4) as usize;
            let mut p = gen_profile(shape, &mut r);
            for _ in 0..spec.shrink {
                let next = shrink_once(&p);
                if next == p {
                    break;
                }
                p = next;
            }
            p
        })
        .collect()
}

/// Builds the case's workloads with the `Mix::instantiate` address
/// layout (disjoint 4 GiB windows per thread). Returns the first lint
/// error instead when the generated program is malformed.
///
/// # Errors
/// The rendered first `Error`-severity lint finding.
pub fn case_workloads(spec: &CaseSpec) -> Result<Vec<Arc<Workload>>, String> {
    let profiles = case_profiles(spec);
    debug_assert!(profiles.iter().all(|p| p.validate().is_ok()));
    let mut wls = Vec::with_capacity(FUZZ_THREADS);
    for (t, p) in profiles.iter().enumerate() {
        let base = (t as u64) << 32;
        let wl = build(
            p,
            spec.seed.wrapping_add(t as u64),
            base + 0x1_0000,
            base + 0x1000_0000,
        );
        let findings = lint_workload(&wl);
        if has_errors(&findings) {
            let first = findings
                .iter()
                .map(|f| format!("{f:?}"))
                .next()
                .unwrap_or_default();
            return Err(format!("thread {t} program lints with errors: {first}"));
        }
        wls.push(Arc::new(wl));
    }
    Ok(wls)
}

/// Runs one case end to end over `matrix`: build, lint-filter, the
/// harness (differential and protocol monitor), and on failure shrink
/// while the failure reproduces.
#[must_use]
pub fn run_case(spec: &CaseSpec, matrix: &[SpecVariant]) -> CaseVerdict {
    let wls = match case_workloads(spec) {
        Ok(w) => w,
        Err(reason) => return CaseVerdict::Skipped { reason },
    };
    match check_workloads(&wls, matrix, spec.seed, spec.budget, 0) {
        Ok(report) => CaseVerdict::Pass { report },
        Err(mut failure) => {
            let mut smallest = *spec;
            for step in 1..=MAX_SHRINK {
                let Some(shrink) = spec.shrink.checked_add(step) else {
                    break;
                };
                let candidate = CaseSpec { shrink, ..*spec };
                let Ok(wls) = case_workloads(&candidate) else {
                    break; // shrinking linted the program away
                };
                match check_workloads(&wls, matrix, candidate.seed, candidate.budget, 0) {
                    Err(f) => {
                        failure = f;
                        smallest = candidate;
                    }
                    Ok(_) => break, // shrunk past the failure
                }
            }
            CaseVerdict::Fail {
                failure,
                shrunk: smallest,
            }
        }
    }
}

/// Runs `cases` fresh cases from `base` seed over `matrix` across
/// `jobs` worker threads ([`fan_out`]: 1 = serial). Results are merged
/// by case index, so the output is identical at any job count.
#[must_use]
pub fn run_fresh_cases(
    base: u64,
    cases: u64,
    matrix: &[SpecVariant],
    jobs: usize,
) -> Vec<(CaseSpec, CaseVerdict)> {
    let specs: Vec<CaseSpec> = (0..cases).map(|i| CaseSpec::fresh(base, i)).collect();
    let run = |i: usize| (specs[i], run_case(&specs[i], matrix));
    fan_out(jobs, specs.len(), run)
}

/// Serializes a spec as the corpus `key=value` format.
#[must_use]
pub fn render_case(spec: &CaseSpec) -> String {
    format!(
        "seed={}\nbudget={}\nshrink={}\n",
        spec.seed, spec.budget, spec.shrink
    )
}

/// Parses the corpus `key=value` format (`#` lines are comments).
///
/// # Errors
/// Describes the malformed, repeated, out-of-range or missing key.
pub fn parse_case(text: &str) -> Result<CaseSpec, String> {
    let (mut seed, mut budget, mut shrink) = (None, None, None);
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!("malformed corpus line: {line:?}"));
        };
        let key = key.trim();
        let value: u64 = value
            .trim()
            .parse()
            .map_err(|e| format!("bad value for {key}: {e}"))?;
        let slot = match key {
            "seed" => &mut seed,
            "budget" => &mut budget,
            "shrink" => &mut shrink,
            other => return Err(format!("unknown corpus key {other:?}")),
        };
        if slot.replace(value).is_some() {
            return Err(format!("duplicate corpus key `{key}`"));
        }
    }
    Ok(CaseSpec {
        seed: seed.ok_or("corpus case is missing `seed`")?,
        budget: budget.ok_or("corpus case is missing `budget`")?,
        shrink: u32::try_from(shrink.unwrap_or(0))
            .map_err(|e| format!("bad value for shrink: {e}"))?,
    })
}

/// One committed corpus case: its file name, and its spec or why the
/// file could not be read or parsed.
pub type CorpusCase = (String, Result<CaseSpec, String>);

/// The committed fuzz corpus (`tests/corpus/*.case` at the workspace
/// root, pinned to the source tree), in file-name order.
///
/// # Errors
/// The corpus directory cannot be read.
pub fn committed_corpus() -> Result<Vec<CorpusCase>, String> {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/corpus");
    let mut names: Vec<String> = std::fs::read_dir(&dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".case"))
        .collect();
    names.sort();
    let parsed = |name: &String| {
        let text = std::fs::read_to_string(dir.join(name)).map_err(|e| e.to_string())?;
        parse_case(&text)
    };
    Ok(names.into_iter().map(|n| (n.clone(), parsed(&n))).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use smtsim_rob2::{committed_variants, Knob, Knobs};

    #[test]
    fn generated_profiles_are_always_valid() {
        for i in 0..200 {
            let spec = CaseSpec::fresh(99, i);
            for p in case_profiles(&spec) {
                p.validate().unwrap();
            }
        }
    }

    #[test]
    fn case_generation_is_deterministic() {
        let a = case_profiles(&CaseSpec::fresh(5, 3));
        let b = case_profiles(&CaseSpec::fresh(5, 3));
        assert_eq!(a, b);
        let c = case_profiles(&CaseSpec::fresh(5, 4));
        assert_ne!(a, c);
    }

    #[test]
    fn shrink_halves_block_structure() {
        let p = WorkloadProfile::test_profile();
        let s = shrink_once(&p);
        assert_eq!(s.block_size, (3, 7));
        assert_eq!(s.num_segments, 1);
        assert_eq!(s.avg_trip, 8);
        // Repeated shrinking bottoms out at the minimum valid shape.
        let mut q = p;
        for _ in 0..10 {
            q = shrink_once(&q);
            q.validate().unwrap();
        }
        assert_eq!(q.block_size, (1, 1));
        // A case's profiles stop there, however deep its `shrink`.
        let mut s = CaseSpec::fresh(2026, 0);
        let minimal = case_profiles(&CaseSpec { shrink: 64, ..s });
        s.shrink = u32::MAX;
        assert_eq!(case_profiles(&s), minimal);
    }

    #[test]
    fn corpus_round_trips() {
        let spec = CaseSpec {
            seed: 0xDEAD_BEEF,
            budget: 1_234,
            shrink: 2,
        };
        assert_eq!(parse_case(&render_case(&spec)).unwrap(), spec);
        assert!(parse_case("seed=1\nbudget=x\n").is_err());
        assert!(parse_case("budget=5\n").is_err());
        let commented = "# a comment\nseed=7\nbudget=9\n";
        assert_eq!(
            parse_case(commented).unwrap(),
            CaseSpec {
                seed: 7,
                budget: 9,
                shrink: 0
            }
        );
        // Neither a wrapped `shrink` nor a repeated key may pass unseen.
        let max = parse_case("seed=1\nbudget=5\nshrink=4294967295\n").unwrap();
        assert_eq!(max.shrink, u32::MAX);
        let e = parse_case("seed=1\nbudget=5\nshrink=4294967296\n").unwrap_err();
        assert!(e.contains("shrink"), "{e}");
        for key in ["seed", "budget", "shrink"] {
            let e = parse_case(&format!("seed=1\nbudget=5\nshrink=1\n{key} = 2\n")).unwrap_err();
            assert!(e.contains(&format!("duplicate corpus key `{key}`")), "{e}");
        }
    }

    #[test]
    fn default_fresh_cases_are_new_programs() {
        // The committed corpus holds fresh cases of an earlier base: at
        // the default FUZZ_SEED and FUZZ_CASES none may come back.
        let knobs = Knobs::default();
        let base = knobs.get(Knob::FuzzSeed);
        let fresh: Vec<u64> = (0..knobs.get(Knob::FuzzCases))
            .map(|i| CaseSpec::fresh(base, i).seed)
            .collect();
        let corpus = committed_corpus().unwrap();
        assert!(!corpus.is_empty());
        for (name, spec) in corpus {
            let seed = spec.unwrap().seed;
            assert!(
                !fresh.contains(&seed),
                "{name} is a fresh case of base {base}"
            );
        }
    }

    #[test]
    fn fresh_cases_pass_the_differential() {
        // A tiny always-on smoke: two fresh cases, serial.
        let results = run_fresh_cases(42, 2, &committed_variants().unwrap(), 1);
        for (spec, verdict) in results {
            match verdict {
                CaseVerdict::Pass { report } => {
                    assert!(report.commits_compared > 0 && report.traces_judged > 0);
                }
                CaseVerdict::Skipped { .. } => {}
                CaseVerdict::Fail { failure, shrunk } => {
                    panic!("case {spec:?} failed (shrunk to {shrunk:?}): {failure}")
                }
            }
        }
    }

    #[test]
    fn parallel_and_serial_verdicts_agree() {
        let matrix = committed_variants().unwrap();
        let serial = run_fresh_cases(7, 3, &matrix, 1);
        let parallel = run_fresh_cases(7, 3, &matrix, 3);
        assert_eq!(serial.len(), parallel.len());
        for ((sa, va), (sb, vb)) in serial.iter().zip(&parallel) {
            assert_eq!(sa, sb);
            assert_eq!(format!("{va:?}"), format!("{vb:?}"));
        }
    }
}
