//! The seeded request plan of the `serve-miss` workload: single-cell
//! inline specs that the daemon has never computed.
//!
//! Candidates are every two-level scheme id `{r-rob, relaxed-r-rob,
//! cdr-rob, p-rob}-{1..24}` on one mix, minus the cells of Figure 2
//! (the `serve-hit` workload's cells). Each daemon rep asks for them in
//! its own seeded order, without replacement, so a daemon never sees a
//! cell twice. One mix keeps the latencies one population: across the
//! paper's mixes a cell costs from about 24 to 81 ms, and a median over
//! such clusters jumps between them from seed to seed.

/// The scheme families a miss may use.
pub const MISS_FAMILIES: [&str; 4] = ["r-rob", "relaxed-r-rob", "cdr-rob", "p-rob"];

/// Thresholds `1..=MAX_THRESHOLD` are drawn for every family.
pub const MAX_THRESHOLD: u32 = 24;

/// Scheme ids of Figure 2 — never drawn, so a miss is never a hit.
pub const FIG2_SCHEMES: [&str; 3] = ["baseline-32", "baseline-128", "r-rob-16"];

/// The mix every miss runs on: memory-bound, so the two-level schemes
/// differ from one another (Mix 5 is where Baseline_128 loses most to
/// Baseline_32 and R-ROB16 gains).
pub const MISS_MIX: usize = 5;

/// One planned miss: a registry scheme id on [`MISS_MIX`].
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct MissCell {
    /// Scheme id, e.g. `cdr-rob-7`.
    pub scheme: String,
}

impl MissCell {
    /// The spec id, unique per cell.
    #[must_use]
    pub fn id(&self) -> String {
        format!("miss-{}-mix{MISS_MIX}", self.scheme)
    }

    /// The inline single-cell figure spec the client submits.
    #[must_use]
    pub fn spec_toml(&self) -> String {
        format!(
            "[experiment]\nid = \"{}\"\ntitle = \"Ledger miss: {} on Mix {MISS_MIX}\"\n\
             kind = \"figure\"\nnorm = \"baseline-32\"\nschemes = [\"{}\"]\nmixes = [{MISS_MIX}]\n",
            self.id(),
            self.scheme,
            self.scheme,
        )
    }
}

/// SplitMix64: the plan's deterministic generator.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Every candidate scheme id, in a fixed order.
#[must_use]
pub fn candidate_schemes() -> Vec<String> {
    MISS_FAMILIES
        .iter()
        .flat_map(|f| (1..=MAX_THRESHOLD).map(move |t| format!("{f}-{t}")))
        .filter(|id| !FIG2_SCHEMES.contains(&id.as_str()))
        .collect()
}

/// Every candidate in the order daemon rep `rep` of a run with `seed`
/// asks for them.
#[must_use]
pub fn miss_plan(seed: u64, rep: usize) -> Vec<MissCell> {
    // "ledger" in ASCII, so seed 0 does not start from state 0.
    let mut state = seed ^ 0x6c65_6467_6572 ^ (rep as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut cells: Vec<MissCell> = candidate_schemes()
        .into_iter()
        .map(|scheme| MissCell { scheme })
        .collect();
    for i in (1..cells.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        cells.swap(i, j);
    }
    cells
}
