//! Branch target buffer (Table 1: 2048-entry, 2-way set-associative).

/// One BTB way.
#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    target: u64,
    valid: bool,
    stamp: u64,
}

/// A set-associative branch target buffer.
#[derive(Clone, Debug)]
pub struct Btb {
    ways: Vec<Way>,
    assoc: usize,
    set_mask: u64,
    clock: u64,
}

impl Btb {
    /// Creates a BTB with `entries` total entries and `assoc` ways.
    pub fn new(entries: usize, assoc: usize) -> Self {
        assert!(assoc > 0 && entries.is_multiple_of(assoc));
        let sets = entries / assoc;
        assert!(sets.is_power_of_two());
        Btb {
            ways: vec![Way::default(); entries],
            assoc,
            set_mask: sets as u64 - 1,
            clock: 0,
        }
    }

    /// The paper's Table 1 configuration.
    pub fn icpp08() -> Self {
        Btb::new(2048, 2)
    }

    #[inline]
    fn set_of(&self, pc: u64) -> usize {
        (((pc >> 2) & self.set_mask) as usize) * self.assoc
    }

    #[inline]
    fn tag_of(&self, pc: u64) -> u64 {
        (pc >> 2) >> self.set_mask.count_ones()
    }

    /// Looks up the predicted target for the branch at `pc`.
    pub fn predict(&mut self, pc: u64) -> Option<u64> {
        self.clock += 1;
        let base = self.set_of(pc);
        let tag = self.tag_of(pc);
        for w in &mut self.ways[base..base + self.assoc] {
            if w.valid && w.tag == tag {
                w.stamp = self.clock;
                return Some(w.target);
            }
        }
        None
    }

    /// Installs/updates the target of a taken branch.
    pub fn update(&mut self, pc: u64, target: u64) {
        self.clock += 1;
        let base = self.set_of(pc);
        let tag = self.tag_of(pc);
        let clock = self.clock;
        // Update in place if present.
        for w in &mut self.ways[base..base + self.assoc] {
            if w.valid && w.tag == tag {
                w.target = target;
                w.stamp = clock;
                return;
            }
        }
        // Fill a free way or evict LRU.
        let idx = (base..base + self.assoc)
            .find(|&i| !self.ways[i].valid)
            .unwrap_or_else(|| {
                (base..base + self.assoc)
                    .min_by_key(|&i| self.ways[i].stamp)
                    .expect("assoc > 0")
            });
        self.ways[idx] = Way {
            tag,
            target,
            valid: true,
            stamp: clock,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn miss_then_update_then_hit() {
        let mut b = Btb::icpp08();
        assert_eq!(b.predict(0x100), None);
        b.update(0x100, 0x400);
        assert_eq!(b.predict(0x100), Some(0x400));
    }

    #[test]
    fn update_in_place_changes_target() {
        let mut b = Btb::icpp08();
        b.update(0x100, 0x400);
        b.update(0x100, 0x800);
        assert_eq!(b.predict(0x100), Some(0x800));
    }

    #[test]
    fn lru_within_set() {
        let mut b = Btb::new(4, 2); // 2 sets
        let sets = 2u64;
        // Three PCs mapping to set 0: pc>>2 multiples of 2.
        let (p1, p2, p3) = (0x0, (4 * sets), (8 * sets));
        b.update(p1, 0xA);
        b.update(p2, 0xB);
        assert_eq!(b.predict(p1), Some(0xA)); // p1 MRU
        b.update(p3, 0xC); // evicts p2
        assert_eq!(b.predict(p2), None);
        assert_eq!(b.predict(p1), Some(0xA));
        assert_eq!(b.predict(p3), Some(0xC));
    }

    #[test]
    fn distinct_sets_no_conflict() {
        let mut b = Btb::new(4, 2);
        b.update(0x0, 0x1);
        b.update(0x4, 0x2); // different set (pc>>2 = 1)
        assert_eq!(b.predict(0x0), Some(0x1));
        assert_eq!(b.predict(0x4), Some(0x2));
    }

    #[test]
    fn hit_ratio_accounting() {
        // One miss, then one hit once the target is installed.
        let mut b = Btb::icpp08();
        assert_eq!(b.predict(0x10), None);
        b.update(0x10, 0x20);
        assert_eq!(b.predict(0x10), Some(0x20));
    }

    #[test]
    #[should_panic]
    fn bad_geometry_rejected() {
        let _ = Btb::new(6, 4);
    }
}
