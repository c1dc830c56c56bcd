//! Property tests for the serve cache's content addressing
//! (DESIGN.md §17): any byte-affecting knob mutation must move a lab
//! into a *different* cache universe (so stale results can never be
//! served), while byte-irrelevant differences — job count, cycle
//! skipping, comment/whitespace edits to the spec TOML — must land in the
//! *same* universe with the same cell keys (so overlapping work is
//! actually shared).
//!
//! The knob properties enumerate the knob table itself (`KNOBS`), so a
//! new knob is covered the moment it gets a row, and a row marked
//! byte-irrelevant that does reach the cache key fails here.
//!
//! Runs against the vendored deterministic `proptest` shim: fixed
//! seeding, no shrinking, stable in CI.

use proptest::prelude::*;
use smtsim_rob2::journal::cell_key;
use smtsim_rob2::knobs::KnobRow;
use smtsim_rob2::{ExperimentSpec, Knobs, KNOBS};
use smtsim_serve::SpecLowering as _;
use std::collections::BTreeMap;

type Env = BTreeMap<&'static str, u64>;

/// The base every property starts from: defaults, except that every
/// fault category is on, so the fault seed and the delay length reach
/// the lab's fault plan.
fn base_env() -> Env {
    [
        ("FAULT_DROP_FILL", 1_000),
        ("FAULT_DELAY_FILL", 1_000),
        ("FAULT_CORRUPT_DOD", 1_000),
        ("FAULT_WITHHOLD_RELEASE", 1_000),
    ]
    .into_iter()
    .collect()
}

fn knobs(env: &Env) -> Knobs {
    Knobs::from_lookup(|name| env.get(name).map(u64::to_string)).expect("in-range knobs")
}

fn fig2() -> ExperimentSpec {
    ExperimentSpec::load(&smtsim_bench::spec_dir().join("fig2.toml")).expect("fig2.toml parses")
}

/// The universe the committed fig2 spec lowers to under `env`.
fn universe(env: &Env) -> String {
    let (lab, _) = knobs(env).lower(&fig2());
    lab.journal_universe()
}

/// `row`'s value in `env` moved by a `delta`-dependent step, staying
/// within the row's range.
fn perturbed(env: &Env, row: &KnobRow, delta: u64) -> Env {
    let v = knobs(env).get(row.knob);
    let hi = *row.range.end();
    let moved = if v < hi {
        v + 1 + (delta - 1) % (hi - v)
    } else {
        v - 1
    };
    let mut out = env.clone();
    out.insert(row.env, moved);
    out
}

/// A base env with each byte-affecting knob offset by `offsets[i]`
/// (every offset keeps the fault categories on).
fn offset_env(offsets: &[u64]) -> Env {
    let mut env = base_env();
    let base = knobs(&env);
    for (row, &off) in KNOBS.iter().filter(|r| r.byte_affecting).zip(offsets) {
        env.insert(row.env, base.get(row.knob) + off);
    }
    env
}

fn byte_affecting_rows() -> usize {
    KNOBS.iter().filter(|r| r.byte_affecting).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_affecting_knobs_shard_the_universe(
        a in prop::collection::vec(0u64..3, byte_affecting_rows()..byte_affecting_rows() + 1),
        b in prop::collection::vec(0u64..3, byte_affecting_rows()..byte_affecting_rows() + 1),
    ) {
        let (ua, ub) = (universe(&offset_env(&a)), universe(&offset_env(&b)));
        if a == b {
            prop_assert_eq!(ua, ub, "equal knobs must share a universe: {:?}", a);
        } else {
            prop_assert_ne!(ua, ub, "distinct knobs must not collide: {:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn single_knob_mutations_always_move_the_universe(delta in 1u64..10) {
        // Every row marked byte-affecting, perturbed alone within its
        // range, must move the universe.
        let base = base_env();
        let before = universe(&base);
        for row in KNOBS.iter().filter(|r| r.byte_affecting) {
            prop_assert_ne!(
                &universe(&perturbed(&base, row, delta)),
                &before,
                "{} moved by step {} must move the universe",
                row.env,
                delta
            );
        }
    }

    #[test]
    fn byte_irrelevant_state_shares_the_universe(delta in 1u64..10, jobs in 1usize..8) {
        // Every other row (job count, cycle skipping, the conform,
        // check, bench and serve knobs) shapes scheduling or other
        // outputs, never cell bytes.
        let base = base_env();
        let plain = universe(&base);
        for row in KNOBS.iter().filter(|r| !r.byte_affecting) {
            prop_assert_eq!(
                &universe(&perturbed(&base, row, delta)),
                &plain,
                "{} is marked byte-irrelevant but moved the universe",
                row.env
            );
        }
        let (lab, _) = knobs(&base).lower(&fig2());
        prop_assert_eq!(lab.with_jobs(Some(jobs)).journal_universe(), plain.clone());
        let (mut lab, _) = knobs(&base).lower(&fig2());
        lab.cycle_skip = jobs % 2 == 0;
        prop_assert_eq!(lab.journal_universe(), plain);
    }

    #[test]
    fn cosmetic_spec_edits_preserve_universe_and_cell_keys(
        positions in prop::collection::vec((0usize..8, 0usize..3), 1..6),
    ) {
        // Sprinkle comments, blank lines and trailing whitespace over
        // the committed fig2 spec: parse-equivalent text must yield
        // the same lowered universe and the same content-addressed
        // cell keys.
        let pristine = std::fs::read_to_string(
            smtsim_bench::spec_dir().join("fig2.toml"),
        ).expect("fig2.toml is committed");
        let mut lines: Vec<String> = pristine.lines().map(str::to_string).collect();
        for &(pos, kind) in &positions {
            let at = pos.min(lines.len());
            match kind {
                0 => lines.insert(at, "# a cosmetic comment".into()),
                1 => lines.insert(at, String::new()),
                _ => lines.push("# trailing note".into()),
            }
        }
        let edited = format!("{}\n", lines.join("\n"));
        prop_assume!(edited != pristine);

        let spec = ExperimentSpec::parse("fig2.toml", &pristine).unwrap();
        let same = ExperimentSpec::parse("fig2.toml", &edited)
            .expect("cosmetic edits must still parse");

        let lowering = Knobs::default();
        let (lab_a, mixes_a) = lowering.lower(&spec);
        let (lab_b, mixes_b) = lowering.lower(&same);
        prop_assert_eq!(lab_a.journal_universe(), lab_b.journal_universe());
        prop_assert_eq!(&mixes_a, &mixes_b);
        for (va, vb) in spec.variants.iter().zip(&same.variants) {
            for &mix in &mixes_a {
                prop_assert_eq!(
                    cell_key(mix, &va.config.fingerprint()),
                    cell_key(mix, &vb.config.fingerprint())
                );
            }
        }
    }

    #[test]
    fn spec_knob_edits_move_the_lowered_universe(extra in 1u64..500) {
        // A [knobs] edit that changes cell bytes must move the
        // universe the daemon caches under, even though the spec id is
        // unchanged.
        let spec_with = |budget: u64| -> ExperimentSpec {
            ExperimentSpec::parse(
                "t.toml",
                &format!(
                    "[experiment]\nid = \"t\"\ntitle = \"T\"\nkind = \"figure\"\n\
                     norm = \"baseline-32\"\nschemes = [\"baseline-32\"]\nmixes = [1]\n\n\
                     [knobs]\nbudget = {budget}\nwarmup = 500\n"
                ),
            )
            .unwrap()
        };
        let lowering = Knobs::default();
        let (lab_a, _) = lowering.lower(&spec_with(2_000));
        let (lab_b, _) = lowering.lower(&spec_with(2_000 + extra));
        prop_assert_ne!(lab_a.journal_universe(), lab_b.journal_universe());
    }
}
