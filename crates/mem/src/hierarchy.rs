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
    /// Model writeback bus traffic for dirty L2 evictions. Stores mark
    /// only the L1-D copy dirty and L1-D victims are dropped, so no L2
    /// line is ever dirty and this adds no bus time in any machine
    /// (pinned by the `l2_victims_are_never_dirty` test).
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
                self.bus_free += transfer;
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
        let l1_lat = self.l1d.config().hit_lat;
        // Lines are installed eagerly at miss time; an outstanding MSHR
        // entry means the data has not actually arrived yet, so the
        // access is a secondary miss regardless of what L1 says.
        if let Some(done) = self.mshr.lookup(self.l2.line_addr(addr), now) {
            return AccessResult {
                complete_at: done,
                l1_miss: true,
                l2_miss: true,
                l2_miss_detected_at: now + l1_lat,
            };
        }
        if self.l1d.probe(addr) {
            let done = now + l1_lat;
            return AccessResult {
                complete_at: done,
                l1_miss: false,
                l2_miss: false,
                l2_miss_detected_at: done,
            };
        }
        let (complete_at, l2_miss, detect) = self.l2_access(addr, now + l1_lat);
        self.l1d.fill(addr);
        AccessResult {
            complete_at,
            l1_miss: true,
            l2_miss,
            l2_miss_detected_at: detect,
        }
    }

    /// An instruction fetch of the line containing `pc` at `now`.
    pub fn ifetch(&mut self, pc: u64, now: Cycle) -> AccessResult {
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
        if self.mshr.lookup(self.l2.line_addr(addr), now).is_some() {
            // Line already being fetched; the store buffer merges into
            // the arriving line. Mark it dirty for eviction modeling.
            self.l1d.mark_dirty(addr);
            return;
        }
        if self.l1d.probe(addr) {
            self.l1d.mark_dirty(addr);
            return;
        }
        let l1_lat = self.l1d.config().hit_lat;
        let (_, _, _) = self.l2_access(addr, now + l1_lat);
        self.l1d.fill(addr);
        self.l1d.mark_dirty(addr);
    }

    /// Functional warm-up access: installs the line in L1-D and L2
    /// without timing, MSHRs or bus traffic. Used to pre-warm caches
    /// before timed simulation, as SimPoint-style checkpoints would be.
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
        // The store's write-allocate fill is in flight: a load coalesces
        // with it, then hits L1-D once it lands. (The dirty bit is not
        // observable through timing; see `l2_victims_are_never_dirty`.)
        let mut m = h();
        m.store_commit(0x9000, 0);
        let r = m.load(0x9000, 1);
        assert!(r.l2_miss);
        assert_eq!(r.complete_at, 543);
        assert!(!m.load(0x9000, 543).l1_miss);
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
        // One L2 miss (L1 + L2 + memory + a 32-cycle bus transfer), then
        // one L1 hit.
        let mut m = h();
        let a = m.load(0x10_0000, 0);
        assert!(a.l2_miss);
        assert_eq!(a.complete_at, 1 + 10 + 500 + 32);
        let b = m.load(0x10_0000, 600);
        assert!(!b.l1_miss && !b.l2_miss);
        assert_eq!(b.complete_at, 601);
    }

    #[test]
    fn peak_outstanding_tracks_mlp() {
        // Eight independent misses issued together are all in flight at
        // once: each finishes one bus transfer after the previous one.
        // Long after, none is outstanding.
        let mut m = h();
        let line = |i: u64| 0x100_0000 + i * 0x1_0000;
        for i in 0..8u64 {
            let r = m.load(line(i), i);
            assert!(r.l2_miss);
            assert_eq!(r.complete_at, 543 + 32 * i, "miss {i}");
        }
        for i in 0..8u64 {
            assert!(!m.load(line(i), 100_000).l2_miss, "line {i}");
        }
    }

    #[test]
    fn l2_victims_are_never_dirty() {
        // Characterizes a fidelity gap: a store dirties only the L1-D
        // copy, so when its line leaves L2 no writeback takes the bus,
        // though `model_writebacks` is on. The miss after the eviction
        // finishes exactly as it does after evicting a clean line.
        let next_miss_after_eviction = |store: bool| {
            let mut m = h();
            let a = 0x40_0000;
            if store {
                m.store_commit(a, 0);
            } else {
                m.load(a, 0);
            }
            // Eight more lines in `a`'s L2 set (stride 256 KiB) evict it.
            for k in 1..=8u64 {
                assert!(m.load(a + k * (256 << 10), 1_000 + k).l2_miss);
            }
            let next = m.load(a + 0x80, 1_009).complete_at;
            assert!(m.load(a, 3_000).l2_miss, "evicted from L2");
            next
        };
        let clean = next_miss_after_eviction(false);
        assert_eq!(next_miss_after_eviction(true), clean);
        // One transfer after the eighth conflicting fill (1768).
        assert_eq!(clean, 1_800);
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
