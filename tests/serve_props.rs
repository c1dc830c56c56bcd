//! Property tests for the serve cache's content addressing
//! (DESIGN.md §17): any byte-affecting knob mutation must move a lab
//! into a *different* cache universe (so stale results can never be
//! served), while byte-irrelevant differences — job count, cycle
//! skipping, comment/whitespace edits to the spec TOML — must land in the
//! *same* universe with the same cell keys (so overlapping work is
//! actually shared).
//!
//! Runs against the vendored deterministic `proptest` shim: fixed
//! seeding, no shrinking, stable in CI.

use proptest::prelude::*;
use smtsim_bench::serve_support::EnvLowering;
use smtsim_bench::BenchEnv;
use smtsim_rob2::journal::cell_key;
use smtsim_rob2::{ExperimentSpec, Lab};
use smtsim_serve::SpecLowering as _;

/// The knobs [`Lab::journal_universe`] folds that these properties
/// drive directly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Knobs {
    seed: u64,
    mt_budget: u64,
    st_budget: u64,
    warmup: u64,
    retries: u32,
    cell_cycles: Option<u64>,
}

impl Knobs {
    fn lab(self) -> Lab {
        let mut lab = Lab::new(self.seed)
            .with_budgets(self.mt_budget, self.st_budget)
            .with_warmup(self.warmup);
        lab.retries = self.retries;
        lab.cell_cycle_budget = self.cell_cycles;
        lab
    }
}

fn knob_strategy() -> impl Strategy<Value = Knobs> {
    (
        1u64..20,
        1_000u64..5_000,
        1_000u64..5_000,
        0u64..3_000,
        0u32..3,
        0u64..4,
    )
        .prop_map(|(seed, mt, st, warmup, retries, cc)| Knobs {
            seed,
            mt_budget: mt,
            st_budget: st,
            warmup,
            retries,
            cell_cycles: (cc > 0).then_some(cc * 100_000),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn byte_affecting_knobs_shard_the_universe(a in knob_strategy(), b in knob_strategy()) {
        let (ua, ub) = (a.lab().journal_universe(), b.lab().journal_universe());
        if a == b {
            prop_assert_eq!(ua, ub, "equal knobs must share a universe: {:?}", a);
        } else {
            prop_assert_ne!(ua, ub, "distinct knobs must not collide: {:?} vs {:?}", a, b);
        }
    }

    #[test]
    fn single_knob_mutations_always_move_the_universe(
        base in knob_strategy(),
        which in 0usize..6,
        delta in 1u64..10,
    ) {
        let mut mutated = base;
        match which {
            0 => mutated.seed += delta,
            1 => mutated.mt_budget += delta,
            2 => mutated.st_budget += delta,
            3 => mutated.warmup += delta,
            4 => mutated.retries += delta as u32,
            _ => {
                mutated.cell_cycles =
                    Some(mutated.cell_cycles.unwrap_or(0) + delta * 100_000);
            }
        }
        prop_assert_ne!(
            base.lab().journal_universe(),
            mutated.lab().journal_universe(),
            "mutating knob #{} by {} must move the universe: {:?}",
            which, delta, base
        );
    }

    #[test]
    fn byte_irrelevant_state_shares_the_universe(base in knob_strategy(), jobs in 1usize..8) {
        // Job count and cycle skipping shape *scheduling*, not cell
        // bytes — both are deliberately outside the cache universe.
        let plain = base.lab().journal_universe();
        prop_assert_eq!(
            base.lab().with_jobs(Some(jobs)).journal_universe(),
            plain.clone()
        );
        prop_assert_eq!(
            base.lab().with_cycle_skip(jobs % 2 == 0).journal_universe(),
            plain
        );
    }

    #[test]
    fn cosmetic_spec_edits_preserve_universe_and_cell_keys(
        positions in prop::collection::vec((0usize..8, 0usize..3), 1..6),
    ) {
        // Sprinkle comments, blank lines and trailing whitespace over
        // the committed fig2 spec: parse-equivalent text must yield
        // the same spec fingerprint, the same lowered universe and the
        // same content-addressed cell keys.
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
        prop_assert_eq!(&same.fingerprint, &spec.fingerprint);

        let lowering = EnvLowering { env: BenchEnv::from_env().unwrap() };
        let (lab_a, mixes_a) = lowering.lower(&spec).unwrap();
        let (lab_b, mixes_b) = lowering.lower(&same).unwrap();
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
        let lowering = smtsim_serve::PlainLowering::default();
        let (lab_a, _) = lowering.lower(&spec_with(2_000)).unwrap();
        let (lab_b, _) = lowering.lower(&spec_with(2_000 + extra)).unwrap();
        prop_assert_ne!(lab_a.journal_universe(), lab_b.journal_universe());
    }
}
