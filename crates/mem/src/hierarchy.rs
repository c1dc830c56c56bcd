//! The full memory hierarchy of Table 1: split L1 I/D caches, a unified
//! L2, MSHRs, and a chunked memory bus.
//!
//! The model is *query-driven*: the pipeline calls
//! [`Hierarchy::load`] / [`Hierarchy::ifetch`] / [`Hierarchy::store_commit`]
//! with the current cycle and receives completion times. Lines are
//! installed eagerly while an MSHR entry marks them unavailable until
//! their fill completes, which preserves timing correctness without an
//! event queue. Bus contention serializes the data-transfer portion of
//! each fill; the DRAM-access portion (`first_chunk`) overlaps freely,
//! which is what lets multiple outstanding misses overlap — the
//! memory-level parallelism the paper's second-level ROB exploits.

use crate::cache::{Cache, CacheConfig};
use crate::mshr::Mshr;
use crate::Cycle;
use smtsim_obs::TraceEvent;

/// Main-memory and bus timing (Table 1: "64 bit wide, 500 cycle first
/// chunk access, 2 cycle interchunk access").
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemConfig {
    /// Cycles from request to the first chunk arriving.
    pub first_chunk: Cycle,
    /// Cycles between subsequent chunks.
    pub inter_chunk: Cycle,
    /// Bus width in bytes per chunk.
    pub bus_bytes: u64,
    /// Number of MSHR entries (outstanding L2 miss lines).
    pub mshr_entries: usize,
    /// Model writeback bus traffic for dirty evictions.
    pub model_writebacks: bool,
}

impl MemConfig {
    /// The paper's Table 1 configuration. The MSHR count is not given in
    /// the paper; 16 outstanding misses is the M-Sim-era default that
    /// comfortably exceeds what a 32-entry ROB can generate while
    /// bounding what a 416-entry window can.
    pub fn icpp08() -> Self {
        MemConfig {
            first_chunk: 500,
            inter_chunk: 2,
            bus_bytes: 8,
            mshr_entries: 16,
            model_writebacks: true,
        }
    }

    /// Bus occupancy of transferring one line of `line_bytes`.
    pub fn transfer_cycles(&self, line_bytes: u64) -> Cycle {
        line_bytes.div_ceil(self.bus_bytes) * self.inter_chunk
    }
}

/// Result of a load or instruction-fetch access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Cycle at which the data is available to dependents.
    pub complete_at: Cycle,
    /// The access missed in L1.
    pub l1_miss: bool,
    /// The access missed in the L2 (the paper's "last level cache
    /// miss" — the trigger for second-level ROB allocation).
    pub l2_miss: bool,
    /// Cycle at which the L2 miss is *detected* (known to the core);
    /// only meaningful when `l2_miss`.
    pub l2_miss_detected_at: Cycle,
}

/// Aggregate hierarchy statistics.
#[derive(Clone, Copy, Debug, Default)]
pub struct HierarchyStats {
    /// Demand loads issued.
    pub loads: u64,
    /// Committed stores.
    pub stores: u64,
    /// Instruction fetch accesses.
    pub ifetches: u64,
    /// Loads that missed the L2.
    pub load_l2_misses: u64,
    /// Total load-to-use latency accumulated (for averages).
    pub total_load_latency: u64,
    /// Cycles the memory bus spent transferring data.
    pub bus_busy_cycles: u64,
}

impl HierarchyStats {
    /// Average load latency in cycles.
    pub fn avg_load_latency(&self) -> f64 {
        if self.loads == 0 {
            0.0
        } else {
            self.total_load_latency as f64 / self.loads as f64
        }
    }
}

/// The Table 1 memory hierarchy.
#[derive(Clone, Debug)]
pub struct Hierarchy {
    l1i: Cache,
    l1d: Cache,
    l2: Cache,
    mshr: Mshr,
    mem: MemConfig,
    /// Earliest cycle the bus can start a new transfer.
    bus_free: Cycle,
    stats: HierarchyStats,
    /// When true, fills append [`TraceEvent`]s to `trace` (drained by
    /// the simulator once per cycle). Off by default: the tracing
    /// branch is a single predictable-false test on the fill path.
    tracing: bool,
    trace: Vec<(Cycle, TraceEvent)>,
}

impl Hierarchy {
    /// Builds a hierarchy from cache geometries and memory timing.
    pub fn new(l1i: CacheConfig, l1d: CacheConfig, l2: CacheConfig, mem: MemConfig) -> Self {
        Hierarchy {
            l1i: Cache::new(l1i),
            l1d: Cache::new(l1d),
            l2: Cache::new(l2),
            mshr: Mshr::new(mem.mshr_entries),
            mem,
            bus_free: 0,
            stats: HierarchyStats::default(),
            tracing: false,
            trace: Vec::new(),
        }
    }

    /// Enables or disables fill tracing (see [`Hierarchy::drain_trace`]).
    pub fn set_tracing(&mut self, enabled: bool) {
        self.tracing = enabled;
        if !enabled {
            self.trace.clear();
        }
    }

    /// Drains the buffered trace events accumulated since the last
    /// drain (always empty when tracing is disabled).
    pub fn drain_trace(&mut self) -> Vec<(Cycle, TraceEvent)> {
        std::mem::take(&mut self.trace)
    }

    /// The paper's full Table 1 hierarchy.
    pub fn icpp08() -> Self {
        Hierarchy::new(
            CacheConfig::l1i_icpp08(),
            CacheConfig::l1d_icpp08(),
            CacheConfig::l2_icpp08(),
            MemConfig::icpp08(),
        )
    }

    /// Statistics.
    pub fn stats(&self) -> HierarchyStats {
        self.stats
    }

    /// Outstanding L2 miss fills at `now`.
    pub fn outstanding_misses(&mut self, now: Cycle) -> usize {
        self.mshr.occupancy(now)
    }

    /// Peak outstanding L2 misses observed (realized MLP).
    pub fn peak_outstanding(&self) -> usize {
        self.mshr.peak()
    }

    /// Handles an L2 miss for the line containing `addr`, requested at
    /// `req_time`. Returns the fill completion time.
    fn memory_fill(&mut self, addr: u64, req_time: Cycle) -> Cycle {
        let line_addr = self.l2.line_addr(addr);
        // Coalesce with an outstanding fill of the same line.
        if let Some(done) = self.mshr.lookup(line_addr, req_time) {
            return done;
        }
        // Wait for an MSHR slot, then for the DRAM access, then for the
        // bus to transfer the line.
        let start = self.mshr.earliest_slot(req_time);
        let data_ready = start + self.mem.first_chunk;
        let transfer = self.mem.transfer_cycles(self.l2.config().line);
        let transfer_start = data_ready.max(self.bus_free);
        let fill_done = transfer_start + transfer;
        self.bus_free = fill_done;
        self.stats.bus_busy_cycles += transfer;
        if self.tracing {
            self.trace.push((
                req_time,
                TraceEvent::MemFillScheduled {
                    line_addr,
                    complete_at: fill_done,
                },
            ));
        }
        // `start` is when the MSHR slot frees; inserting "at" that time
        // keeps occupancy within capacity.
        self.mshr.insert(line_addr, fill_done, start);
        // Eager install: the MSHR entry keeps the line "not yet valid"
        // until fill_done, so intermediate accesses still see the miss.
        if let Some(ev) = self.l2.fill(addr) {
            if ev.dirty && self.mem.model_writebacks {
                let wb_start = self.bus_free;
                let wb = self.mem.transfer_cycles(self.l2.config().line);
                self.bus_free = wb_start + wb;
                self.stats.bus_busy_cycles += wb;
            }
        }
        fill_done
    }

    /// Common L1-miss path: probes L2 at `l2_time`, going to memory on a
    /// miss. Returns `(complete_at, l2_miss, l2_detect)`.
    fn l2_access(&mut self, addr: u64, l2_time: Cycle) -> (Cycle, bool, Cycle) {
        let l2_lat = self.l2.config().hit_lat;
        let detect = l2_time + l2_lat;
        let outstanding = self.mshr.lookup(self.l2.line_addr(addr), l2_time).is_some();
        if self.l2.probe(addr) && !outstanding {
            (detect, false, detect)
        } else {
            // Either a true miss or a line still in flight: both are
            // "L2 misses" from the core's perspective (data not there).
            let done = self.memory_fill(addr, detect);
            (done, true, detect)
        }
    }

    /// A demand load to `addr` issued at `now` (post address
    /// generation). Returns completion and miss information.
    pub fn load(&mut self, addr: u64, now: Cycle) -> AccessResult {
        self.stats.loads += 1;
        let l1_lat = self.l1d.config().hit_lat;
        // Lines are installed eagerly at miss time; an outstanding MSHR
        // entry means the data has not actually arrived yet, so the
        // access is a secondary miss regardless of what L1 says.
        if let Some(done) = self.mshr.lookup(self.l2.line_addr(addr), now) {
            self.stats.load_l2_misses += 1;
            self.stats.total_load_latency += done.max(now) - now;
            return AccessResult {
                complete_at: done,
                l1_miss: true,
                l2_miss: true,
                l2_miss_detected_at: now + l1_lat,
            };
        }
        if self.l1d.probe(addr) {
            let done = now + l1_lat;
            self.stats.total_load_latency += l1_lat;
            return AccessResult {
                complete_at: done,
                l1_miss: false,
                l2_miss: false,
                l2_miss_detected_at: done,
            };
        }
        let (complete_at, l2_miss, detect) = self.l2_access(addr, now + l1_lat);
        self.l1d.fill(addr);
        if l2_miss {
            self.stats.load_l2_misses += 1;
        }
        self.stats.total_load_latency += complete_at - now;
        AccessResult {
            complete_at,
            l1_miss: true,
            l2_miss,
            l2_miss_detected_at: detect,
        }
    }

    /// An instruction fetch of the line containing `pc` at `now`.
    pub fn ifetch(&mut self, pc: u64, now: Cycle) -> AccessResult {
        self.stats.ifetches += 1;
        let l1_lat = self.l1i.config().hit_lat;
        if let Some(done) = self.mshr.lookup(self.l2.line_addr(pc), now) {
            return AccessResult {
                complete_at: done,
                l1_miss: true,
                l2_miss: true,
                l2_miss_detected_at: now + l1_lat,
            };
        }
        if self.l1i.probe(pc) {
            return AccessResult {
                complete_at: now + l1_lat,
                l1_miss: false,
                l2_miss: false,
                l2_miss_detected_at: now + l1_lat,
            };
        }
        let (complete_at, l2_miss, detect) = self.l2_access(pc, now + l1_lat);
        self.l1i.fill(pc);
        AccessResult {
            complete_at,
            l1_miss: true,
            l2_miss,
            l2_miss_detected_at: detect,
        }
    }

    /// A store retiring from the store buffer at `now`. Write-allocate:
    /// a missing line is fetched (consuming MSHR/bus bandwidth) and
    /// marked dirty; nothing waits on the result.
    pub fn store_commit(&mut self, addr: u64, now: Cycle) {
        self.stats.stores += 1;
        if self.mshr.lookup(self.l2.line_addr(addr), now).is_some() {
            // Line already being fetched; the store buffer merges into
            // the arriving line. Mark it dirty for eviction modeling.
            self.l1d.mark_dirty(addr);
            return;
        }
        if self.l1d.probe(addr) {
            self.l1d.mark_dirty(addr);
            // Keep L2 coherent-ish for dirtiness on eviction modeling.
            return;
        }
        let l1_lat = self.l1d.config().hit_lat;
        let (_, _, _) = self.l2_access(addr, now + l1_lat);
        self.l1d.fill(addr);
        self.l1d.mark_dirty(addr);
    }

    /// Does a load of `addr` at `now` hit in the L1 D-cache? Pure
    /// (no state change); used by load-hit prediction verification.
    pub fn peek_l1d(&self, addr: u64) -> bool {
        self.l1d.peek(addr)
    }

    /// Functional warm-up access: installs the line in L1-D and L2
    /// without timing, MSHRs, bus traffic or statistics. Used to
    /// pre-warm caches before timed simulation, as SimPoint-style
    /// checkpoints would be.
    pub fn warm_data(&mut self, addr: u64, write: bool) {
        if !self.l2.peek(addr) {
            self.l2.fill(addr);
        }
        if !self.l1d.peek(addr) {
            self.l1d.fill(addr);
        }
        if write {
            self.l1d.mark_dirty(addr);
        }
    }

    /// Functional warm-up of the instruction path.
    pub fn warm_inst(&mut self, pc: u64) {
        if !self.l2.peek(pc) {
            self.l2.fill(pc);
        }
        if !self.l1i.peek(pc) {
            self.l1i.fill(pc);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn h() -> Hierarchy {
        Hierarchy::icpp08()
    }

    #[test]
    fn l1_hit_after_fill() {
        let mut m = h();
        let first = m.load(0x1000, 0);
        assert!(first.l1_miss && first.l2_miss);
        // Unloaded miss: 1 (L1) + 10 (L2) + 500 + 32 = 543.
        assert_eq!(first.complete_at, 543);
        assert_eq!(first.l2_miss_detected_at, 11);
        let again = m.load(0x1000, first.complete_at + 1);
        assert!(!again.l1_miss);
        assert_eq!(again.complete_at, first.complete_at + 2);
    }

    #[test]
    fn l2_hit_latency() {
        let mut m = h();
        let a = m.load(0x2000, 0);
        // Evict from L1 by filling conflicting lines (L1D: 256 sets,
        // 4-way, 32B lines → set stride 8 KiB).
        for i in 1..=4u64 {
            m.load(0x2000 + i * 8192, a.complete_at + i);
        }
        let t = 10_000;
        let r = m.load(0x2000, t);
        assert!(r.l1_miss && !r.l2_miss, "{r:?}");
        assert_eq!(r.complete_at, t + 1 + 10);
    }

    #[test]
    fn same_line_misses_coalesce() {
        let mut m = h();
        let a = m.load(0x4000, 0);
        let b = m.load(0x4004, 2); // same 128B L2 line, while in flight
        assert!(b.l2_miss, "line is not yet valid");
        assert_eq!(b.complete_at, a.complete_at, "secondary miss coalesces");
    }

    #[test]
    fn independent_misses_overlap() {
        let mut m = h();
        let a = m.load(0x10_0000, 0);
        let b = m.load(0x20_0000, 1);
        // Second miss completes ~one transfer later, not one full
        // memory latency later: MLP.
        assert!(b.complete_at < a.complete_at + 100, "{a:?} {b:?}");
        assert!(b.complete_at > a.complete_at, "bus serializes transfers");
    }

    #[test]
    fn mshr_capacity_serializes_excess() {
        let mut cfg = MemConfig::icpp08();
        cfg.mshr_entries = 2;
        let mut m = Hierarchy::new(
            CacheConfig::l1i_icpp08(),
            CacheConfig::l1d_icpp08(),
            CacheConfig::l2_icpp08(),
            cfg,
        );
        let a = m.load(0x10_0000, 0);
        let b = m.load(0x20_0000, 0);
        let c = m.load(0x30_0000, 0);
        assert!(b.complete_at < a.complete_at + 100);
        // Third miss had to wait for an MSHR slot.
        assert!(c.complete_at >= a.complete_at + 500, "{a:?} {b:?} {c:?}");
    }

    #[test]
    fn ifetch_uses_l1i() {
        let mut m = h();
        let a = m.ifetch(0x100, 0);
        assert!(a.l1_miss);
        let b = m.ifetch(0x104, a.complete_at + 1);
        assert!(!b.l1_miss, "same 64B line");
        assert_eq!(b.complete_at, a.complete_at + 2);
    }

    #[test]
    fn store_write_allocates_and_dirties() {
        let mut m = h();
        m.store_commit(0x9000, 0);
        assert!(m.peek_l1d(0x9000));
        let s = m.stats();
        assert_eq!(s.stores, 1);
    }

    #[test]
    fn load_after_fill_completes_is_hit() {
        let mut m = h();
        let a = m.load(0x5000, 0);
        let r = m.load(0x5008, a.complete_at);
        assert!(!r.l1_miss, "line valid at fill_done, same L1 line");
    }

    #[test]
    fn stats_track_misses() {
        let mut m = h();
        m.load(0x10_0000, 0);
        m.load(0x10_0000, 600);
        let s = m.stats();
        assert_eq!(s.loads, 2);
        assert_eq!(s.load_l2_misses, 1);
        assert!(s.avg_load_latency() > 1.0);
        assert!(s.bus_busy_cycles >= 32);
    }

    #[test]
    fn peak_outstanding_tracks_mlp() {
        let mut m = h();
        for i in 0..8u64 {
            m.load(0x100_0000 + i * 0x1_0000, i);
        }
        assert!(m.peak_outstanding() >= 8);
        assert_eq!(m.outstanding_misses(100_000), 0);
    }

    #[test]
    fn transfer_cycles_math() {
        let c = MemConfig::icpp08();
        assert_eq!(c.transfer_cycles(128), 32);
        assert_eq!(c.transfer_cycles(64), 16);
        assert_eq!(c.transfer_cycles(4), 2);
    }

    #[test]
    fn determinism() {
        let run = || {
            let mut m = h();
            let mut acc = 0u64;
            for i in 0..1000u64 {
                let r = m.load(0x100_0000 + (i * 7919) % (1 << 20), i * 3);
                acc = acc.wrapping_mul(31).wrapping_add(r.complete_at);
            }
            acc
        };
        assert_eq!(run(), run());
    }
}
