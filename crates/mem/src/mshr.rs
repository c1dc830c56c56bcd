//! Miss-status holding registers: track outstanding line fills so that
//! misses to the same line coalesce and memory-level parallelism is
//! bounded by the MSHR capacity.

use crate::Cycle;

/// One outstanding fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Entry {
    line_addr: u64,
    fill_done: Cycle,
}

/// A fixed-capacity set of outstanding line fills.
///
/// Entries whose fill time has passed are expired lazily; the structure
/// therefore needs no tick. Capacity limits the number of *concurrent*
/// fills — the knob that bounds exploitable MLP.
#[derive(Clone, Debug)]
pub struct Mshr {
    entries: Vec<Entry>,
    capacity: usize,
}

impl Mshr {
    /// Creates an MSHR file with `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0);
        Mshr {
            entries: Vec::with_capacity(capacity),
            capacity,
        }
    }

    /// Drops entries that completed at or before `now`.
    fn expire(&mut self, now: Cycle) {
        self.entries.retain(|e| e.fill_done > now);
    }

    /// If `line_addr` is already being fetched at `now`, returns its
    /// completion time (a secondary miss).
    pub fn lookup(&mut self, line_addr: u64, now: Cycle) -> Option<Cycle> {
        self.expire(now);
        self.entries
            .iter()
            .find(|e| e.line_addr == line_addr)
            .map(|e| e.fill_done)
    }

    /// Earliest time at or after `now` when a new entry can be
    /// allocated (immediately if below capacity, otherwise when the
    /// earliest outstanding fill retires).
    pub fn earliest_slot(&mut self, now: Cycle) -> Cycle {
        self.expire(now);
        if self.entries.len() < self.capacity {
            now
        } else {
            self.entries
                .iter()
                .map(|e| e.fill_done)
                .min()
                .expect("full implies non-empty")
        }
    }

    /// Registers a new outstanding fill completing at `fill_done`.
    ///
    /// # Panics
    /// Panics (debug) if called while at capacity; callers must use
    /// [`Mshr::earliest_slot`] to find an admissible start time first.
    pub fn insert(&mut self, line_addr: u64, fill_done: Cycle, now: Cycle) {
        self.expire(now);
        debug_assert!(self.entries.len() < self.capacity, "MSHR overflow");
        self.entries.push(Entry {
            line_addr,
            fill_done,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coalesces_same_line() {
        let mut m = Mshr::new(4);
        m.insert(0x100, 530, 0);
        assert_eq!(m.lookup(0x100, 10), Some(530));
        assert_eq!(m.lookup(0x200, 10), None);
        // The coalesced lookup took no entry: three more fills fit.
        for line in [0x200, 0x300, 0x400] {
            assert_eq!(m.earliest_slot(10), 10);
            m.insert(line, 600, 10);
        }
        assert_eq!(m.earliest_slot(10), 530, "full");
    }

    #[test]
    fn entries_expire() {
        let mut m = Mshr::new(2);
        m.insert(0x100, 100, 0);
        assert_eq!(m.lookup(0x100, 99), Some(100));
        assert_eq!(m.lookup(0x100, 100), None, "expired at fill time");
    }

    #[test]
    fn capacity_limits_and_frees() {
        let mut m = Mshr::new(2);
        m.insert(0x100, 500, 0);
        m.insert(0x200, 600, 0);
        assert_eq!(m.earliest_slot(10), 500, "must wait for earliest fill");
        assert_eq!(m.earliest_slot(500), 500, "slot free once expired");
        m.insert(0x300, 900, 500);
        assert_eq!(m.earliest_slot(500), 600, "full again");
    }

    #[test]
    fn occupancy_and_peak() {
        let mut m = Mshr::new(8);
        m.insert(0x0, 100, 0);
        m.insert(0x80, 120, 0);
        m.insert(0x100, 140, 0);
        let held = |m: &mut Mshr, now| {
            [0x0, 0x80, 0x100]
                .into_iter()
                .filter(|&line| m.lookup(line, now).is_some())
                .count()
        };
        assert_eq!(held(&mut m, 0), 3);
        assert_eq!(held(&mut m, 130), 1);
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = Mshr::new(0);
    }
}
