//! gshare conditional branch predictor (Table 1: 2K-entry, 2-bit
//! counters, 10-bit global history per thread, shared table).

/// Maximum hardware threads sharing the predictor.
const MAX_THREADS: usize = 8;

/// A gshare predictor with per-thread global history and a shared
/// pattern table.
///
/// History is updated *speculatively* at prediction time (standard
/// practice); on a misprediction the pipeline restores the history it
/// saved with the branch and shifts in the actual outcome via
/// [`Gshare::restore`].
#[derive(Clone, Debug)]
pub struct Gshare {
    table: Vec<u8>,
    hist: [u16; MAX_THREADS],
    hist_bits: u32,
    index_mask: u64,
}

impl Gshare {
    /// Creates a predictor with `entries` 2-bit counters (power of two)
    /// and `hist_bits` of global history per thread.
    pub fn new(entries: usize, hist_bits: u32) -> Self {
        assert!(entries.is_power_of_two() && entries > 0);
        assert!(hist_bits <= 16);
        Gshare {
            // Initialize to weakly taken: loops predict well from cold.
            table: vec![2u8; entries],
            hist: [0; MAX_THREADS],
            hist_bits,
            index_mask: entries as u64 - 1,
        }
    }

    /// The paper's Table 1 configuration.
    pub fn icpp08() -> Self {
        Gshare::new(2048, 10)
    }

    #[inline]
    fn index(&self, pc: u64, hist: u16) -> usize {
        (((pc >> 2) ^ hist as u64) & self.index_mask) as usize
    }

    /// Current global history of `thread` (exposed so the Degree-of-
    /// Dependence path-qualified predictor can share it, as §4.2
    /// suggests).
    pub fn history(&self, thread: usize) -> u16 {
        self.hist[thread]
    }

    /// Predicts the branch at `pc` for `thread`. Returns the direction
    /// and the history snapshot to carry with the branch for training
    /// and recovery.
    pub fn predict(&mut self, thread: usize, pc: u64) -> (bool, u16) {
        let hist = self.hist[thread];
        let taken = self.table[self.index(pc, hist)] >= 2;
        (taken, hist)
    }

    /// Speculatively shifts `predicted` into the thread's history
    /// (called at fetch, right after [`Gshare::predict`]).
    pub fn spec_update(&mut self, thread: usize, predicted: bool) {
        let mask = (1u32 << self.hist_bits) - 1;
        self.hist[thread] = (((self.hist[thread] as u32) << 1 | predicted as u32) & mask) as u16;
    }

    /// Trains the counter the prediction was made with.
    pub fn train(&mut self, pc: u64, hist: u16, taken: bool) {
        let idx = self.index(pc, hist);
        let c = &mut self.table[idx];
        if taken {
            *c = (*c + 1).min(3);
        } else {
            *c = c.saturating_sub(1);
        }
    }

    /// Repairs the thread's history after squashing a mispredicted
    /// branch: restores the pre-branch snapshot and shifts in the
    /// actual outcome.
    pub fn restore(&mut self, thread: usize, hist_at_branch: u16, actual: bool) {
        let mask = (1u32 << self.hist_bits) - 1;
        self.hist[thread] = (((hist_at_branch as u32) << 1 | actual as u32) & mask) as u16;
    }

    /// Overwrites the thread's history with a saved snapshot (used when
    /// squashing *correct-path* instructions, e.g. under the FLUSH
    /// policy, where the snapshot of the oldest squashed branch is the
    /// right state to refetch from).
    pub fn set_history(&mut self, thread: usize, hist: u16) {
        let mask = ((1u32 << self.hist_bits) - 1) as u16;
        self.hist[thread] = hist & mask;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn learns_always_taken() {
        let mut g = Gshare::icpp08();
        let pc = 0x4000;
        for _ in 0..8 {
            let (p, h) = g.predict(0, pc);
            g.spec_update(0, p);
            g.train(pc, h, true);
        }
        let (p, _) = g.predict(0, pc);
        assert!(p);
    }

    #[test]
    fn learns_alternating_pattern_with_history() {
        // T,N,T,N ... is perfectly predictable with 1+ history bits.
        let mut g = Gshare::new(1 << 12, 10);
        let pc = 0x1234_5678;
        let mut correct_tail = 0;
        for i in 0..600 {
            let taken = i % 2 == 0;
            let (p, h) = g.predict(0, pc);
            g.spec_update(0, p);
            // Simulate immediate resolution: repair history if wrong.
            if p != taken {
                g.restore(0, h, taken);
            }
            g.train(pc, h, taken);
            if i >= 500 && p == taken {
                correct_tail += 1;
            }
        }
        assert!(correct_tail >= 95, "tail accuracy {correct_tail}/100");
    }

    #[test]
    fn threads_have_separate_history() {
        let mut g = Gshare::icpp08();
        g.spec_update(0, true);
        g.spec_update(0, true);
        assert_eq!(g.history(0), 0b11);
        assert_eq!(g.history(1), 0);
    }

    #[test]
    fn history_wraps_at_hist_bits() {
        let mut g = Gshare::new(2048, 4);
        for _ in 0..16 {
            g.spec_update(0, true);
        }
        assert_eq!(g.history(0), 0xF);
    }

    #[test]
    fn restore_rewrites_history() {
        let mut g = Gshare::icpp08();
        g.spec_update(0, true); // hist = 1
        let (_, h) = g.predict(0, 0x100);
        g.spec_update(0, true); // speculative, wrong
        g.spec_update(0, false); // deeper speculation, all squashed
        g.restore(0, h, false);
        assert_eq!(g.history(0), 0b10);
    }

    #[test]
    fn accuracy_accounting() {
        // Without history shifts every lookup reads the same counter.
        let mut g = Gshare::icpp08();
        let (p, h) = g.predict(0, 0x10);
        assert!(p, "init weakly-taken ⇒ a taken outcome is predicted");
        g.train(0x10, h, true);
        let (p, h) = g.predict(0, 0x10);
        assert!(p, "strongly taken ⇒ a not-taken outcome is mispredicted");
        g.train(0x10, h, false);
        g.train(0x10, h, false);
        assert!(!g.predict(0, 0x10).0, "two not-taken outcomes flip it");
    }

    #[test]
    #[should_panic]
    fn non_pow2_rejected() {
        let _ = Gshare::new(1000, 10);
    }
}
