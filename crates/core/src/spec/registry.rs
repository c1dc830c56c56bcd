//! The experiment registry: stable string ids → simulator objects.
//!
//! Every name an `experiments/*.toml` spec may reference resolves
//! here, in one place, so adding a machine, scheme family, fetch
//! policy, mix set or knob preset is a registry edit — not new figure
//! code. Ids are kebab-case and *stable*: they appear in
//! committed spec files, so renaming one is a breaking change.
//!
//! Namespaces:
//!
//! * **machines** — `icpp08` (the Table 1 SMT machine), `icpp08-single`
//!   (its single-threaded variant);
//! * **schemes** — `<family>-<threshold>` where the family is
//!   `baseline`, `r-rob`, `relaxed-r-rob`, `cdr-rob` or `p-rob` and
//!   the threshold is the ROB size (baseline) or DoD threshold
//!   (two-level), e.g. `baseline-32`, `r-rob-16`, `p-rob-5`;
//! * **fetch policies** — `dcra`, `icount`, `round-robin`, `stall`,
//!   `flush` ([`smtsim_pipeline::FetchPolicyKind`]);
//! * **mix sets** — `all` (the 11 paper mixes); individual mixes are
//!   written as integer arrays in the spec itself;
//! * **knob presets** — `paper` (the committed-`results/` scale) and
//!   `ci` (the `xtask determinism` scale).
//!
//! Resolution errors are bare messages; the spec layer attaches
//! file/line context from the referencing TOML item.

use crate::experiment::RobConfig;
use crate::knobs::Knob;
use crate::twolevel::TwoLevelConfig;
use smtsim_pipeline::{DcraConfig, FetchPolicyKind, MachineConfig};

/// The scheme families the registry can instantiate at any threshold.
const SCHEME_FAMILIES: &[&str] = &["baseline", "r-rob", "relaxed-r-rob", "cdr-rob", "p-rob"];

/// Resolves `id` to a machine configuration.
pub fn machine(id: &str) -> Result<MachineConfig, String> {
    match id {
        "icpp08" => Ok(MachineConfig::icpp08()),
        "icpp08-single" => Ok(MachineConfig::icpp08_single()),
        _ => Err(format!(
            "unknown machine id `{id}` (known: icpp08, icpp08-single)"
        )),
    }
}

/// Resolves `id` to a fetch policy.
pub fn fetch_policy(id: &str) -> Result<FetchPolicyKind, String> {
    match id {
        "dcra" => Ok(FetchPolicyKind::Dcra(DcraConfig::default())),
        "icount" => Ok(FetchPolicyKind::Icount),
        "round-robin" => Ok(FetchPolicyKind::RoundRobin),
        "stall" => Ok(FetchPolicyKind::Stall),
        "flush" => Ok(FetchPolicyKind::Flush),
        _ => Err(format!(
            "unknown fetch-policy id `{id}` (known: dcra, icount, round-robin, stall, flush)"
        )),
    }
}

/// Resolves a scheme id of the form `<family>-<threshold>` to a ROB
/// configuration (e.g. `baseline-32`, `r-rob-16`, `p-rob-5`).
pub fn rob_config(id: &str) -> Result<RobConfig, String> {
    let unknown = || {
        format!(
            "unknown scheme id `{id}` (expected `<family>-<n>` with family one of: {})",
            SCHEME_FAMILIES.join(", ")
        )
    };
    let dash = id.rfind('-').ok_or_else(unknown)?;
    let (family, digits) = (&id[..dash], &id[dash + 1..]);
    let n: u32 = digits.parse().map_err(|_| unknown())?;
    match family {
        "baseline" if n == 0 => Err(format!(
            "scheme id `{id}`: a baseline ROB needs at least one entry"
        )),
        "baseline" => Ok(RobConfig::Baseline(n as usize)),
        "r-rob" => Ok(RobConfig::TwoLevel(TwoLevelConfig::r_rob(n))),
        "relaxed-r-rob" => Ok(RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(n))),
        "cdr-rob" => Ok(RobConfig::TwoLevel(TwoLevelConfig::cdr_rob(n))),
        "p-rob" => Ok(RobConfig::TwoLevel(TwoLevelConfig::p_rob(n))),
        _ => Err(unknown()),
    }
}

/// Resolves a named mix set.
pub fn mix_set(id: &str) -> Result<Vec<usize>, String> {
    match id {
        "all" => Ok(crate::figures::ALL_MIXES.to_vec()),
        _ => Err(format!("unknown mix-set id `{id}` (known: all)")),
    }
}

/// Resolves a named knob preset to its `(knob, value)` rows.
pub fn knob_preset(id: &str) -> Result<&'static [(Knob, u64)], String> {
    match id {
        // The committed-`results/` scale: the documented defaults of
        // the BUDGET/WARMUP/SEED knobs.
        "paper" => Ok(&[
            (Knob::Budget, 40_000),
            (Knob::Warmup, 60_000),
            (Knob::Seed, 42),
        ]),
        // The `xtask determinism` CI scale (tests/golden/ is recorded
        // here).
        "ci" => Ok(&[
            (Knob::Budget, 8_000),
            (Knob::Warmup, 10_000),
            (Knob::Seed, 42),
        ]),
        _ => Err(format!("unknown knob-preset id `{id}` (known: paper, ci)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheme_ids_resolve_to_the_paper_configs() {
        // The registry must mint exactly the configurations the legacy
        // figure wiring used — fingerprints are the proof (they key
        // the normalization cache and the journal).
        for (id, legacy) in [
            ("baseline-32", RobConfig::Baseline(32)),
            ("baseline-128", RobConfig::Baseline(128)),
            ("r-rob-16", RobConfig::TwoLevel(TwoLevelConfig::r_rob(16))),
            (
                "relaxed-r-rob-15",
                RobConfig::TwoLevel(TwoLevelConfig::relaxed_r_rob(15)),
            ),
            (
                "cdr-rob-15",
                RobConfig::TwoLevel(TwoLevelConfig::cdr_rob(15)),
            ),
            ("p-rob-3", RobConfig::TwoLevel(TwoLevelConfig::p_rob(3))),
            ("p-rob-5", RobConfig::TwoLevel(TwoLevelConfig::p_rob(5))),
        ] {
            assert_eq!(
                rob_config(id).unwrap().fingerprint(),
                legacy.fingerprint(),
                "{id}"
            );
        }
    }

    #[test]
    fn unknown_ids_name_the_namespace() {
        assert!(machine("icpp09")
            .unwrap_err()
            .contains("unknown machine id"));
        assert!(rob_config("q-rob-16")
            .unwrap_err()
            .contains("unknown scheme id"));
        assert!(rob_config("r-rob")
            .unwrap_err()
            .contains("unknown scheme id"));
        assert!(rob_config("r-rob-x")
            .unwrap_err()
            .contains("unknown scheme id"));
        assert!(fetch_policy("lru")
            .unwrap_err()
            .contains("unknown fetch-policy id"));
        assert!(mix_set("some").unwrap_err().contains("unknown mix-set id"));
        assert!(knob_preset("huge")
            .unwrap_err()
            .contains("unknown knob-preset id"));
    }

    #[test]
    fn fetch_policies_cover_the_family() {
        assert!(matches!(
            fetch_policy("dcra").unwrap(),
            FetchPolicyKind::Dcra(_)
        ));
        assert!(matches!(
            fetch_policy("icount").unwrap(),
            FetchPolicyKind::Icount
        ));
        assert!(matches!(
            fetch_policy("flush").unwrap(),
            FetchPolicyKind::Flush
        ));
    }

    #[test]
    fn mix_set_all_is_the_paper_table() {
        assert_eq!(mix_set("all").unwrap(), crate::figures::ALL_MIXES.to_vec());
    }

    #[test]
    fn presets_carry_the_documented_scales() {
        let paper = knob_preset("paper").unwrap();
        assert!(paper.contains(&(Knob::Budget, 40_000)));
        assert!(paper.contains(&(Knob::Warmup, 60_000)));
        let ci = knob_preset("ci").unwrap();
        assert!(ci.contains(&(Knob::Budget, 8_000)));
        assert!(ci.contains(&(Knob::Warmup, 10_000)));
    }
}
