//! Set-associative cache with true-LRU replacement.
//!
//! The cache stores *presence* only (tags + state bits); simulated
//! programs have no data values. Geometry is fully configurable; the
//! Table 1 geometries are provided by constructors on
//! [`CacheConfig`].

use crate::Cycle;

/// Geometry and latency of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: u64,
    /// Associativity (ways per set).
    pub assoc: usize,
    /// Line size in bytes (power of two).
    pub line: u64,
    /// Hit latency in cycles.
    pub hit_lat: Cycle,
}

impl CacheConfig {
    /// Table 1 L1 I-cache: 64 KB, 2-way, 64 B lines, 1-cycle hit.
    pub fn l1i_icpp08() -> Self {
        CacheConfig {
            size: 64 << 10,
            assoc: 2,
            line: 64,
            hit_lat: 1,
        }
    }

    /// Table 1 L1 D-cache: 32 KB, 4-way, 32 B lines, 1-cycle hit.
    pub fn l1d_icpp08() -> Self {
        CacheConfig {
            size: 32 << 10,
            assoc: 4,
            line: 32,
            hit_lat: 1,
        }
    }

    /// Table 1 unified L2: 2 MB, 8-way, 128 B lines, 10-cycle hit.
    pub fn l2_icpp08() -> Self {
        CacheConfig {
            size: 2 << 20,
            assoc: 8,
            line: 128,
            hit_lat: 10,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn num_sets(&self) -> usize {
        (self.size / self.line) as usize / self.assoc
    }

    /// Validates the geometry (power-of-two line and set count, nonzero
    /// associativity).
    pub fn validate(&self) -> Result<(), String> {
        if !self.line.is_power_of_two() {
            return Err("line size must be a power of two".into());
        }
        if self.assoc == 0 {
            return Err("associativity must be nonzero".into());
        }
        if !self.size.is_multiple_of(self.line * self.assoc as u64) {
            return Err("size must be a multiple of line*assoc".into());
        }
        let sets = self.num_sets();
        if sets == 0 || !sets.is_power_of_two() {
            return Err("set count must be a nonzero power of two".into());
        }
        Ok(())
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct Way {
    tag: u64,
    valid: bool,
    dirty: bool,
    /// Monotonic use stamp for true-LRU.
    stamp: u64,
}

/// Information about a line evicted by a fill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Evicted {
    /// First byte address of the evicted line.
    pub line_addr: u64,
    /// Whether the line was dirty (needs writeback bus traffic).
    pub dirty: bool,
}

/// A set-associative cache directory.
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    ways: Vec<Way>, // sets * assoc, row-major by set
    set_mask: u64,
    line_shift: u32,
    clock: u64,
}

impl Cache {
    /// Builds a cache; panics on invalid geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        cfg.validate().expect("invalid cache geometry");
        let sets = cfg.num_sets();
        Cache {
            ways: vec![Way::default(); sets * cfg.assoc],
            set_mask: sets as u64 - 1,
            line_shift: cfg.line.trailing_zeros(),
            clock: 0,
            cfg,
        }
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.cfg
    }

    /// First byte address of the line containing `addr`.
    #[inline]
    pub fn line_addr(&self, addr: u64) -> u64 {
        addr >> self.line_shift << self.line_shift
    }

    #[inline]
    fn set_of(&self, addr: u64) -> usize {
        (((addr >> self.line_shift) & self.set_mask) as usize) * self.cfg.assoc
    }

    #[inline]
    fn tag_of(&self, addr: u64) -> u64 {
        addr >> self.line_shift >> self.set_mask.count_ones()
    }

    /// Looks `addr` up; on hit, updates LRU and returns `true`.
    pub fn probe(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in &mut self.ways[base..base + self.cfg.assoc] {
            if w.valid && w.tag == tag {
                w.stamp = self.clock;
                return true;
            }
        }
        false
    }

    /// Looks `addr` up without disturbing LRU.
    pub fn peek(&self, addr: u64) -> bool {
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        self.ways[base..base + self.cfg.assoc]
            .iter()
            .any(|w| w.valid && w.tag == tag)
    }

    /// Installs the line containing `addr`, evicting the LRU way if the
    /// set is full. Returns the eviction victim, if any. If the line is
    /// already present this refreshes its LRU stamp instead.
    pub fn fill(&mut self, addr: u64) -> Option<Evicted> {
        self.clock += 1;
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        let assoc = self.cfg.assoc;
        // Already present?
        for w in &mut self.ways[base..base + assoc] {
            if w.valid && w.tag == tag {
                w.stamp = self.clock;
                return None;
            }
        }
        // Free way?
        let clock = self.clock;
        if let Some(w) = self.ways[base..base + assoc].iter_mut().find(|w| !w.valid) {
            *w = Way {
                tag,
                valid: true,
                dirty: false,
                stamp: clock,
            };
            return None;
        }
        // Evict LRU.
        let victim_idx = (base..base + assoc)
            .min_by_key(|&i| self.ways[i].stamp)
            .expect("assoc > 0");
        let victim = self.ways[victim_idx];
        let victim_set = (addr >> self.line_shift) & self.set_mask;
        let line_addr =
            ((victim.tag << self.set_mask.count_ones()) | victim_set) << self.line_shift;
        self.ways[victim_idx] = Way {
            tag,
            valid: true,
            dirty: false,
            stamp: clock,
        };
        Some(Evicted {
            line_addr,
            dirty: victim.dirty,
        })
    }

    /// Marks the line containing `addr` dirty, if present. Returns
    /// whether the line was found.
    pub fn mark_dirty(&mut self, addr: u64) -> bool {
        let base = self.set_of(addr);
        let tag = self.tag_of(addr);
        for w in &mut self.ways[base..base + self.cfg.assoc] {
            if w.valid && w.tag == tag {
                w.dirty = true;
                return true;
            }
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets, 2-way, 64B lines = 512B.
        Cache::new(CacheConfig {
            size: 512,
            assoc: 2,
            line: 64,
            hit_lat: 1,
        })
    }

    #[test]
    fn table1_geometries_validate() {
        for c in [
            CacheConfig::l1i_icpp08(),
            CacheConfig::l1d_icpp08(),
            CacheConfig::l2_icpp08(),
        ] {
            c.validate().unwrap();
        }
        assert_eq!(CacheConfig::l1d_icpp08().num_sets(), 256);
        assert_eq!(CacheConfig::l2_icpp08().num_sets(), 2048);
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = tiny();
        assert!(!c.probe(0x1000));
        assert_eq!(c.fill(0x1000), None);
        assert!(c.probe(0x1000));
        assert!(c.probe(0x1004)); // same line
        assert!(!c.probe(0x1040)); // next line
    }

    #[test]
    fn lru_eviction_order() {
        let mut c = tiny();
        // Three lines mapping to the same set (set stride = 4 sets * 64B).
        let (a, b, d) = (0x0000, 0x0100, 0x0200);
        c.fill(a);
        c.fill(b);
        c.probe(a); // a most-recent
        let ev = c.fill(d).expect("must evict");
        assert_eq!(ev.line_addr, b, "LRU way (b) must be evicted");
        assert!(c.peek(a) && c.peek(d) && !c.peek(b));
    }

    #[test]
    fn eviction_reports_dirty() {
        let mut c = tiny();
        c.fill(0x0000);
        assert!(c.mark_dirty(0x0000));
        c.fill(0x0100);
        let ev = c.fill(0x0200).unwrap();
        assert_eq!(ev.line_addr, 0x0000);
        assert!(ev.dirty);
    }

    #[test]
    fn refill_of_present_line_is_no_eviction() {
        let mut c = tiny();
        c.fill(0x0000);
        assert_eq!(c.fill(0x0000), None);
        // The refill took no second way: the set's other way is free.
        assert_eq!(c.fill(0x0100), None);
    }

    #[test]
    fn peek_does_not_touch_lru_or_stats() {
        let mut c = tiny();
        c.fill(0x0000);
        c.fill(0x0100);
        assert!(c.peek(0x0000));
        // Peek must not refresh LRU: 0x0000 is still LRU, so it gets
        // evicted next.
        let ev = c.fill(0x0200).unwrap();
        assert_eq!(ev.line_addr, 0x0000);
    }

    #[test]
    fn mark_dirty_missing_line() {
        let mut c = tiny();
        assert!(!c.mark_dirty(0x4000));
    }

    #[test]
    fn stats_accumulate() {
        // One miss, then one hit once the line is installed.
        let mut c = tiny();
        assert!(!c.probe(0x0));
        c.fill(0x0);
        assert!(c.probe(0x0));
    }

    #[test]
    fn line_addr_masks_offset() {
        let c = tiny();
        assert_eq!(c.line_addr(0x107f), 0x1040);
        assert_eq!(c.line_addr(0x1040), 0x1040);
    }

    #[test]
    fn distinct_sets_do_not_conflict() {
        let mut c = tiny();
        // 4 sets: addresses 0x00, 0x40, 0x80, 0xC0 map to different sets.
        for a in [0x00u64, 0x40, 0x80, 0xC0] {
            c.fill(a);
        }
        for a in [0x00u64, 0x40, 0x80, 0xC0] {
            assert!(c.peek(a));
        }
    }

    #[test]
    fn eviction_reconstructs_correct_address() {
        let mut c = tiny();
        let addr = 0xDEAD_C0C0u64 & !0x3F; // arbitrary line
        c.fill(addr);
        // Fill two more lines in the same set to force eviction of addr.
        let stride = 4 * 64; // sets * line
        c.fill(addr + stride);
        let ev = c.fill(addr + 2 * stride).unwrap();
        assert_eq!(ev.line_addr, addr);
    }
}
