//! Structure-of-arrays storage for the per-thread ROB/LSQ and the
//! shared IQ.
//!
//! The cycle kernel spends most of its time probing these structures:
//! the DoD counter walks the first-level window behind every filling
//! load, issue wakes and selects from the IQ, and memory
//! disambiguation scans the LSQ. With the former `VecDeque<InstState>`
//! layout each probe touched a ~140-byte entry to read one bit. Here
//! the hot columns live in their own arrays (and the IQ goes further —
//! an event-driven wakeup arena, [`IqSoa`], replaces per-cycle
//! readiness polling entirely):
//!
//! * `tags` — a dense ring of per-thread tags (strictly increasing,
//!   non-contiguous), checked at a cached physical slot or
//!   binary-searched for tag→index lookups;
//! * `issued`/`executed` (ROB) and `store`/`resolved` (LSQ) — bitsets
//!   indexed by *physical* ring slot, so the paper's DoD scan
//!   ("count the result-invalid entries in the 31-entry window behind
//!   the load") is a masked `count_ones` over at most two u64 words
//!   per wrapped segment instead of a pointer walk;
//! * everything else — the cold [`RobSlot`] payload, touched only when
//!   an instruction actually moves through a stage.
//!
//! The flag bits live *only* in the bitsets — [`RobSlot`] deliberately
//! has no `issued`/`executed` fields, so a stale duplicated flag is a
//! compile error, not a desync. [`InstState`] remains the exchange
//! format: `push_back` decomposes one, `pop_front`/`pop_back`
//! recompose it (reading the authoritative bits).

use crate::regfile::PhysReg;
use crate::types::{BranchState, InstState, LsqEntry, MemState};
use smtsim_isa::{DynInst, OpClass, ThreadId};

#[inline]
fn bit_get(words: &[u64], i: usize) -> bool {
    words[i >> 6] >> (i & 63) & 1 != 0
}

#[inline]
fn bit_set(words: &mut [u64], i: usize, v: bool) {
    let w = &mut words[i >> 6];
    let m = 1u64 << (i & 63);
    if v {
        *w |= m;
    } else {
        *w &= !m;
    }
}

/// Population count over the half-open *linear* (non-wrapping) bit
/// range `[from, to)`: masked `count_ones` on the first and last words,
/// whole words in between.
fn count_ones_range(words: &[u64], from: usize, to: usize) -> u32 {
    if from >= to {
        return 0;
    }
    let (fw, fb) = (from >> 6, from & 63);
    let (lw, lb) = ((to - 1) >> 6, (to - 1) & 63);
    let head_mask = u64::MAX << fb;
    let tail_mask = u64::MAX >> (63 - lb);
    if fw == lw {
        return (words[fw] & head_mask & tail_mask).count_ones();
    }
    let mut c = (words[fw] & head_mask).count_ones();
    for w in &words[fw + 1..lw] {
        c += w.count_ones();
    }
    c + (words[lw] & tail_mask).count_ones()
}

/// The cold per-entry ROB payload: [`InstState`] minus the `issued`/
/// `executed` flags (those live only in the [`RobSoa`] bitsets).
#[derive(Clone, Debug)]
pub(crate) struct RobSlot {
    pub tag: u64,
    pub di: DynInst,
    pub wrong_path: bool,
    pub dst_phys: Option<PhysReg>,
    pub old_phys: Option<PhysReg>,
    pub branch: Option<BranchState>,
    pub mem: Option<MemState>,
    pub dod_hist: u16,
}

fn placeholder_slot() -> RobSlot {
    RobSlot {
        tag: 0,
        di: DynInst {
            pc: 0,
            seq: 0,
            op: OpClass::Nop,
            dst: None,
            srcs: [None, None],
            mem_addr: 0,
            taken: false,
            next_pc: 0,
        },
        wrong_path: false,
        dst_phys: None,
        old_phys: None,
        branch: None,
        mem: None,
        dod_hist: 0,
    }
}

/// Structure-of-arrays reorder buffer: a power-of-two ring with stable
/// physical slots. Logical index 0 is the oldest entry; tag order and
/// logical order coincide (tags are strictly increasing).
pub(crate) struct RobSoa {
    /// Per-slot tags (hot: every tag→index lookup reads them).
    tags: Box<[u64]>,
    /// "Result valid" bits — the column the DoD scan popcounts.
    executed: Box<[u64]>,
    /// "Sent to a functional unit" bits.
    issued: Box<[u64]>,
    /// Cold payload, touched only when an entry moves through a stage.
    slots: Box<[RobSlot]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl RobSoa {
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(64);
        RobSoa {
            tags: vec![0; cap].into_boxed_slice(),
            executed: vec![0; cap / 64].into_boxed_slice(),
            issued: vec![0; cap / 64].into_boxed_slice(),
            slots: std::iter::repeat_with(placeholder_slot)
                .take(cap)
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn cap(&self) -> usize {
        self.mask + 1
    }

    /// Physical slot of logical index `idx`.
    #[inline]
    pub fn phys(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len);
        (self.head + idx) & self.mask
    }

    /// Doubles the ring. Cold: a ring starts at 64 slots, enough for
    /// every baseline-32 thread, and only larger configurations grow
    /// it, a few times per run (the paper machines top out at 416
    /// entries, 512 slots).
    #[cold]
    fn grow(&mut self) {
        let mut next = RobSoa::with_capacity(self.cap() * 2);
        for i in 0..self.len {
            let p = (self.head + i) & self.mask;
            next.tags[i] = self.tags[p];
            next.slots[i] = self.slots[p].clone();
            bit_set(&mut next.executed, i, bit_get(&self.executed, p));
            bit_set(&mut next.issued, i, bit_get(&self.issued, p));
        }
        next.len = self.len;
        *self = next;
    }

    pub fn push_back(&mut self, e: InstState) {
        if self.len == self.cap() {
            self.grow();
        }
        let p = (self.head + self.len) & self.mask;
        self.tags[p] = e.tag;
        bit_set(&mut self.executed, p, e.executed);
        bit_set(&mut self.issued, p, e.issued);
        self.slots[p] = RobSlot {
            tag: e.tag,
            di: e.di,
            wrong_path: e.wrong_path,
            dst_phys: e.dst_phys,
            old_phys: e.old_phys,
            branch: e.branch,
            mem: e.mem,
            dod_hist: e.dod_hist,
        };
        self.len += 1;
    }

    /// Recomposes the full [`InstState`] at physical slot `p` (flags
    /// read from the bitsets).
    fn compose(&self, p: usize) -> InstState {
        let s = &self.slots[p];
        InstState {
            tag: s.tag,
            di: s.di,
            wrong_path: s.wrong_path,
            dst_phys: s.dst_phys,
            old_phys: s.old_phys,
            issued: bit_get(&self.issued, p),
            executed: bit_get(&self.executed, p),
            branch: s.branch,
            mem: s.mem,
            dod_hist: s.dod_hist,
        }
    }

    /// Pops and recomposes the oldest entry. The production commit
    /// path reads in place and uses [`RobSoa::drop_front`] instead;
    /// this full-fat form remains for the unit tests' round-trip
    /// checks.
    #[cfg(test)]
    pub fn pop_front(&mut self) -> Option<InstState> {
        if self.len == 0 {
            return None;
        }
        let p = self.head;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(self.compose(p))
    }

    /// Discards the oldest entry without recomposing it — the commit
    /// fast path: the caller reads the handful of fields it needs via
    /// [`RobSoa::slot`]`(0)` first, then drops the entry in place.
    /// No-op on an empty ring.
    #[inline]
    pub fn drop_front(&mut self) {
        if self.len > 0 {
            self.head = (self.head + 1) & self.mask;
            self.len -= 1;
        }
    }

    pub fn pop_back(&mut self) -> Option<InstState> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.compose((self.head + self.len) & self.mask))
    }

    #[inline]
    pub fn front_tag(&self) -> Option<u64> {
        (self.len > 0).then(|| self.tags[self.head])
    }

    #[inline]
    pub fn back_tag(&self) -> Option<u64> {
        (self.len > 0).then(|| self.tags[(self.head + self.len - 1) & self.mask])
    }

    /// Is the oldest entry's result valid? (`false` when empty.)
    #[inline]
    pub fn front_executed(&self) -> bool {
        self.len > 0 && bit_get(&self.executed, self.head)
    }

    #[inline]
    pub fn tag_at(&self, idx: usize) -> u64 {
        self.tags[self.phys(idx)]
    }

    /// Logical index of `tag`, if in flight. Tags are strictly
    /// increasing but non-contiguous (squashes leave gaps), so this is
    /// a binary search over the ring.
    pub fn index_of(&self, tag: u64) -> Option<usize> {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.tags[(self.head + mid) & self.mask] < tag {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        (lo < self.len && self.tags[(self.head + lo) & self.mask] == tag).then_some(lo)
    }

    #[inline]
    pub fn slot(&self, idx: usize) -> &RobSlot {
        &self.slots[self.phys(idx)]
    }

    #[inline]
    pub fn slot_mut(&mut self, idx: usize) -> &mut RobSlot {
        let p = self.phys(idx);
        &mut self.slots[p]
    }

    #[inline]
    pub fn executed(&self, idx: usize) -> bool {
        bit_get(&self.executed, self.phys(idx))
    }

    #[inline]
    pub fn issued(&self, idx: usize) -> bool {
        bit_get(&self.issued, self.phys(idx))
    }

    /// Physical slot of the youngest entry (caller ensures non-empty) —
    /// recorded by dispatch so later per-cycle probes are O(1) instead
    /// of a binary search.
    #[inline]
    pub fn back_phys(&self) -> usize {
        debug_assert!(self.len > 0);
        (self.head + self.len - 1) & self.mask
    }

    /// Logical index of the live entry at physical slot `p`, if `p`
    /// currently holds `tag`: tags are never reused, so a tag match
    /// *inside the live window* is conclusive. (A popped entry's slot
    /// may still hold the matching tag bytes until reuse, hence the
    /// window test; `None` also covers slots relocated by a ring
    /// `grow`, where [`RobSoa::locate`] falls back to
    /// [`RobSoa::index_of`].)
    #[inline]
    pub fn live_at(&self, p: usize, tag: u64) -> Option<usize> {
        let idx = p.wrapping_sub(self.head) & self.mask;
        (idx < self.len && self.tags[p] == tag).then_some(idx)
    }

    /// Logical index of `tag`, given the physical slot `p` a caller
    /// cached for it ([`RobSoa::back_phys`] at dispatch,
    /// [`RobSoa::phys`] at issue): O(1) while the cache holds, a binary
    /// search after a ring `grow` relocated the entry or once the entry
    /// has left the ring (`None`).
    #[inline]
    pub fn locate(&self, p: usize, tag: u64) -> Option<usize> {
        self.live_at(p, tag).or_else(|| self.index_of(tag))
    }

    #[inline]
    pub fn set_executed(&mut self, idx: usize, v: bool) {
        let p = self.phys(idx);
        bit_set(&mut self.executed, p, v);
    }

    #[inline]
    pub fn set_issued(&mut self, idx: usize, v: bool) {
        let p = self.phys(idx);
        bit_set(&mut self.issued, p, v);
    }

    /// Number of *unexecuted* (result-invalid) entries among the
    /// `window` logical entries starting at `start` — the paper's DoD
    /// count as a masked popcount: the window maps to at most two
    /// linear bit ranges of the `executed` column (one when it does not
    /// wrap the ring).
    pub fn count_unexecuted(&self, start: usize, window: usize) -> u32 {
        let n = window.min(self.len.saturating_sub(start));
        if n == 0 {
            return 0;
        }
        let from = (self.head + start) & self.mask;
        let end = from + n;
        let ones = if end <= self.cap() {
            count_ones_range(&self.executed, from, end)
        } else {
            count_ones_range(&self.executed, from, self.cap())
                + count_ones_range(&self.executed, 0, end - self.cap())
        };
        n as u32 - ones
    }
}

/// Structure-of-arrays load/store queue: tags and addresses in dense
/// rings, `store`/`resolved` flags in bitsets, so "any older
/// unresolved store?" is a masked word test instead of an entry walk.
pub(crate) struct LsqSoa {
    tags: Box<[u64]>,
    addrs: Box<[u64]>,
    store: Box<[u64]>,
    resolved: Box<[u64]>,
    head: usize,
    len: usize,
    mask: usize,
}

impl LsqSoa {
    pub fn with_capacity(cap: usize) -> Self {
        let cap = cap.next_power_of_two().max(64);
        LsqSoa {
            tags: vec![0; cap].into_boxed_slice(),
            addrs: vec![0; cap].into_boxed_slice(),
            store: vec![0; cap / 64].into_boxed_slice(),
            resolved: vec![0; cap / 64].into_boxed_slice(),
            head: 0,
            len: 0,
            mask: cap - 1,
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    #[inline]
    fn cap(&self) -> usize {
        self.mask + 1
    }

    #[inline]
    fn phys(&self, idx: usize) -> usize {
        debug_assert!(idx < self.len);
        (self.head + idx) & self.mask
    }

    /// Appends `e`. The ring never grows: dispatch stalls a thread at
    /// `lsq_size`, the capacity the ring was built for.
    pub fn push_back(&mut self, e: LsqEntry) {
        assert!(self.len < self.cap(), "LSQ ring overflow");
        let p = (self.head + self.len) & self.mask;
        self.tags[p] = e.tag;
        self.addrs[p] = e.addr;
        bit_set(&mut self.store, p, e.is_store);
        bit_set(&mut self.resolved, p, e.resolved);
        self.len += 1;
    }

    fn compose(&self, p: usize) -> LsqEntry {
        LsqEntry {
            tag: self.tags[p],
            is_store: bit_get(&self.store, p),
            addr: self.addrs[p],
            resolved: bit_get(&self.resolved, p),
        }
    }

    pub fn pop_front(&mut self) -> Option<LsqEntry> {
        if self.len == 0 {
            return None;
        }
        let p = self.head;
        self.head = (self.head + 1) & self.mask;
        self.len -= 1;
        Some(self.compose(p))
    }

    /// Drops the youngest entry (squash path).
    pub fn pop_back(&mut self) -> Option<LsqEntry> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        Some(self.compose((self.head + self.len) & self.mask))
    }

    #[inline]
    pub fn back_tag(&self) -> Option<u64> {
        (self.len > 0).then(|| self.tags[(self.head + self.len - 1) & self.mask])
    }

    #[inline]
    pub fn tag_at(&self, idx: usize) -> u64 {
        self.tags[self.phys(idx)]
    }

    /// Logical index of the first entry with tag >= `tag` (== `len`
    /// when all entries are older). Tags are strictly increasing.
    pub fn lower_bound(&self, tag: u64) -> usize {
        let mut lo = 0usize;
        let mut hi = self.len;
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.tags[(self.head + mid) & self.mask] < tag {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }

    /// Logical index of `tag`, if present.
    pub fn index_of(&self, tag: u64) -> Option<usize> {
        let lo = self.lower_bound(tag);
        (lo < self.len && self.tags[(self.head + lo) & self.mask] == tag).then_some(lo)
    }

    #[inline]
    pub fn set_resolved(&mut self, idx: usize) {
        let p = self.phys(idx);
        bit_set(&mut self.resolved, p, true);
    }

    /// Is any entry in logical range `[0, bound)` an unresolved store?
    /// (Conservative memory disambiguation: a load may not issue while
    /// any older store's address is unknown.) Masked test over the
    /// `store & !resolved` words.
    pub fn unresolved_store_before(&self, bound: usize) -> bool {
        let n = bound.min(self.len);
        if n == 0 {
            return false;
        }
        let from = self.head;
        let end = from + n;
        let hit = |lo: usize, hi: usize| -> bool {
            // Word-wise masked scan of store & !resolved over [lo, hi).
            if lo >= hi {
                return false;
            }
            let (fw, fb) = (lo >> 6, lo & 63);
            let (lw, lb) = ((hi - 1) >> 6, (hi - 1) & 63);
            let head_mask = u64::MAX << fb;
            let tail_mask = u64::MAX >> (63 - lb);
            if fw == lw {
                return (self.store[fw] & !self.resolved[fw] & head_mask & tail_mask) != 0;
            }
            if (self.store[fw] & !self.resolved[fw] & head_mask) != 0 {
                return true;
            }
            for w in fw + 1..lw {
                if self.store[w] & !self.resolved[w] != 0 {
                    return true;
                }
            }
            (self.store[lw] & !self.resolved[lw] & tail_mask) != 0
        };
        if end <= self.cap() {
            hit(from, end)
        } else {
            hit(from, self.cap()) || hit(0, end - self.cap())
        }
    }

    /// Is the youngest store in logical range `[0, bound)` to the given
    /// 8-byte chunk present? (Store-to-load forwarding probe.) Walks
    /// the store bits youngest-first, skipping non-stores by bit test.
    pub fn forwarding_store_before(&self, bound: usize, chunk: u64) -> bool {
        let n = bound.min(self.len);
        for i in (0..n).rev() {
            let p = (self.head + i) & self.mask;
            if bit_get(&self.store, p) && (self.addrs[p] >> 3) == chunk {
                return true;
            }
        }
        false
    }
}

/// Event-driven shared issue queue: a stable-slot arena plus a wakeup
/// network, so a *blocked* entry costs nothing per cycle — the work is
/// proportional to the number of wakeups, not the queue depth.
///
/// Entries occupy fixed physical slots (capacity = the configured IQ
/// size; dispatch gates on [`IqSoa::len`], so allocation never fails).
/// An entry tracks only how many wait conditions remain:
///
/// * `waitn` — outstanding not-ready source registers (0–2), counted
///   once at dispatch (a store counts only its address operand).
///   Producers wake consumers through [`IqSoa::wake_reg`] at
///   writeback, draining the register's waiter list. Register
///   readiness is monotonic while a consumer sits in the IQ — a
///   source can only be reallocated (and marked un-ready) after its
///   last in-flight consumer leaves the machine — so a countdown,
///   with no re-check, is exact.
/// * `lsq_wait` — the load still has an older store with an
///   unresolved address (conservative disambiguation). The set of
///   older stores is fixed at dispatch and only shrinks as stores
///   resolve, so the masked `store & !resolved` test re-runs only
///   from [`IqSoa::wake_lsq`], on each store resolution in the load's
///   thread.
///
/// When both reach zero the entry enters the `ready` pool, which the
/// issue stage drains. All deferred references — waiter-list entries,
/// pool entries — are `(slot, seq)` pairs validated against the arena
/// before use: seqs are globally unique, so a squashed entry or a
/// reused slot never aliases, and squash can simply free slots and
/// let the stale references fall out at the next validation.
pub(crate) struct IqSoa {
    threads: Box<[u32]>,
    tags: Box<[u64]>,
    seqs: Box<[u64]>,
    /// Physical ROB slot, recorded at dispatch and validated with
    /// [`RobSoa::live_at`] before use (a ring `grow` relocates slots).
    robp: Box<[u32]>,
    /// Outstanding not-ready source registers (0–2).
    waitn: Box<[u8]>,
    /// Still blocked on older-store resolution (loads only).
    lsq_wait: Box<[bool]>,
    /// Occupancy bitmap over the arena slots.
    occupied: Box<[u64]>,
    /// Free-slot stack.
    free: Vec<u32>,
    len: usize,
    /// `reg_waiters[class][phys idx]` — consumers awaiting that
    /// register's value, as `(slot, seq)`.
    reg_waiters: [Vec<Vec<(u32, u64)>>; 2],
    /// Per-thread loads awaiting older-store resolution.
    lsq_waiters: Vec<Vec<(u32, u64)>>,
    /// Entries with no outstanding waits, pending issue.
    ready: Vec<(u32, u64)>,
}

/// Does `(slot, seq)` still name a live arena entry? (Free function so
/// destructured borrows can call it.)
#[inline]
fn iq_live(occupied: &[u64], seqs: &[u64], slot: u32, seq: u64) -> bool {
    bit_get(occupied, slot as usize) && seqs[slot as usize] == seq
}

impl IqSoa {
    /// Builds an arena of exactly `cap` slots. `reg_totals` sizes the
    /// per-register waiter table (one list per physical register, by
    /// class); `num_threads` sizes the per-thread disambiguation
    /// waiter lists.
    pub fn new(cap: usize, reg_totals: [usize; 2], num_threads: usize) -> Self {
        let column = |n: usize| -> Vec<Vec<(u32, u64)>> { vec![Vec::new(); n] };
        IqSoa {
            threads: vec![0; cap].into_boxed_slice(),
            tags: vec![0; cap].into_boxed_slice(),
            seqs: vec![0; cap].into_boxed_slice(),
            robp: vec![0; cap].into_boxed_slice(),
            waitn: vec![0; cap].into_boxed_slice(),
            lsq_wait: vec![false; cap].into_boxed_slice(),
            occupied: vec![0; cap.div_ceil(64)].into_boxed_slice(),
            free: (0..cap as u32).rev().collect(),
            len: 0,
            reg_waiters: [column(reg_totals[0]), column(reg_totals[1])],
            lsq_waiters: column(num_threads),
            ready: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Inserts a dispatched instruction. `srcs` are the registers the
    /// entry waits on (the caller already reduced a store to its
    /// address operand); `lsq_blocked` is the dispatch-time
    /// disambiguation verdict for loads. `reg_ready` probes current
    /// register readiness — sources already ready are never tracked.
    ///
    /// # Panics
    /// Panics if the arena is full; the dispatch gate checks
    /// [`IqSoa::len`] against the IQ size before every push.
    // One argument per identity/wait column — bundling them into a
    // struct would just move the field list one call frame up.
    #[allow(clippy::too_many_arguments)]
    pub fn push(
        &mut self,
        thread: ThreadId,
        tag: u64,
        seq: u64,
        robp: usize,
        srcs: [Option<PhysReg>; 2],
        lsq_blocked: bool,
        mut reg_ready: impl FnMut(PhysReg) -> bool,
    ) {
        #[allow(clippy::expect_used)]
        let slot = self
            .free
            .pop()
            .expect("IQ arena full: dispatch gate bypassed"); // xtask: allow-unwrap
        let s = slot as usize;
        self.threads[s] = thread as u32;
        self.tags[s] = tag;
        self.seqs[s] = seq;
        self.robp[s] = robp as u32;
        bit_set(&mut self.occupied, s, true);
        self.len += 1;
        let mut waitn = 0u8;
        for src in srcs.into_iter().flatten() {
            if !reg_ready(src) {
                // The same register twice registers twice — the wake
                // drains both and decrements `waitn` down to zero.
                self.reg_waiters[src.class.index()][src.idx as usize].push((slot, seq));
                waitn += 1;
            }
        }
        self.waitn[s] = waitn;
        self.lsq_wait[s] = lsq_blocked;
        if lsq_blocked {
            self.lsq_waiters[thread].push((slot, seq));
        }
        if waitn == 0 && !lsq_blocked {
            self.ready.push((slot, seq));
        }
    }

    /// Producer writeback: `r`'s value became available. Drains the
    /// register's waiter list, counting down each still-live consumer
    /// and pooling those with no waits left.
    pub fn wake_reg(&mut self, r: PhysReg) {
        let IqSoa {
            reg_waiters,
            waitn,
            lsq_wait,
            seqs,
            occupied,
            ready,
            ..
        } = self;
        let list = &mut reg_waiters[r.class.index()][r.idx as usize];
        for (slot, seq) in list.drain(..) {
            if !iq_live(occupied, seqs, slot, seq) {
                continue; // squashed or issued since registering
            }
            let s = slot as usize;
            waitn[s] -= 1;
            if waitn[s] == 0 && !lsq_wait[s] {
                ready.push((slot, seq));
            }
        }
    }

    /// A store in `thread` resolved its address: re-run the
    /// disambiguation test for that thread's blocked loads against the
    /// post-resolution `lsq`, releasing the ones now in the clear.
    pub fn wake_lsq(&mut self, thread: ThreadId, lsq: &LsqSoa) {
        let IqSoa {
            lsq_waiters,
            lsq_wait,
            waitn,
            seqs,
            tags,
            occupied,
            ready,
            ..
        } = self;
        lsq_waiters[thread].retain(|&(slot, seq)| {
            if !iq_live(occupied, seqs, slot, seq) {
                return false;
            }
            let s = slot as usize;
            if lsq.unresolved_store_before(lsq.lower_bound(tags[s])) {
                return true; // a different older store is still pending
            }
            lsq_wait[s] = false;
            if waitn[s] == 0 {
                ready.push((slot, seq));
            }
            false
        });
    }

    /// Moves the validated contents of the ready pool into `cands` as
    /// `(seq, slot)` (callers sort by seq — global age order). Entries
    /// whose slot was squashed or reused since pooling are dropped.
    pub fn drain_ready_into(&mut self, cands: &mut Vec<(u64, u32)>) {
        let IqSoa {
            ready,
            occupied,
            seqs,
            ..
        } = self;
        for (slot, seq) in ready.drain(..) {
            if iq_live(occupied, seqs, slot, seq) {
                cands.push((seq, slot));
            }
        }
    }

    /// Returns a still-ready entry to the pool (issue width exhausted
    /// or a structural FU hazard this cycle).
    #[inline]
    pub fn requeue_ready(&mut self, slot: u32, seq: u64) {
        self.ready.push((slot, seq));
    }

    /// Releases an issued entry's slot.
    pub fn free_slot(&mut self, slot: u32) {
        let s = slot as usize;
        debug_assert!(bit_get(&self.occupied, s));
        bit_set(&mut self.occupied, s, false);
        self.len -= 1;
        self.free.push(slot);
    }

    /// Drops every entry of `thread` with tag >= `from_tag`, invoking
    /// `on_remove` per removal (usage-counter bookkeeping at the call
    /// site). Stale waiter-list and pool references fall out at their
    /// next validation.
    pub fn squash(&mut self, thread: ThreadId, from_tag: u64, mut on_remove: impl FnMut()) {
        for w in 0..self.occupied.len() {
            let mut bits = self.occupied[w];
            while bits != 0 {
                let s = (w << 6) | bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if self.threads[s] as ThreadId == thread && self.tags[s] >= from_tag {
                    bit_set(&mut self.occupied, s, false);
                    self.len -= 1;
                    self.free.push(s as u32);
                    on_remove();
                }
            }
        }
    }

    #[inline]
    pub fn thread(&self, slot: u32) -> ThreadId {
        self.threads[slot as usize] as ThreadId
    }

    #[inline]
    pub fn tag(&self, slot: u32) -> u64 {
        self.tags[slot as usize]
    }

    #[inline]
    pub fn robp(&self, slot: u32) -> usize {
        self.robp[slot as usize] as usize
    }

    /// Iterates the live entries as `(thread, tag)`, in slot order
    /// (invariant checks; the hot paths never walk the arena).
    pub fn iter(&self) -> impl Iterator<Item = (ThreadId, u64)> + '_ {
        self.occupied
            .iter()
            .enumerate()
            .flat_map(move |(w, &word)| {
                let mut bits = word;
                std::iter::from_fn(move || {
                    (bits != 0).then(|| {
                        let s = (w << 6) | bits.trailing_zeros() as usize;
                        bits &= bits - 1;
                        (self.threads[s] as ThreadId, self.tags[s])
                    })
                })
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn inst(tag: u64, executed: bool, issued: bool) -> InstState {
        InstState {
            tag,
            di: DynInst {
                pc: 0x1000 + tag * 4,
                seq: tag,
                op: OpClass::IntAlu,
                dst: None,
                srcs: [None, None],
                mem_addr: 0,
                taken: false,
                next_pc: 0,
            },
            wrong_path: false,
            dst_phys: None,
            old_phys: None,
            issued,
            executed,
            branch: None,
            mem: None,
            dod_hist: 3,
        }
    }

    #[test]
    fn rob_roundtrips_inststate_through_bitsets() {
        let mut rob = RobSoa::with_capacity(4);
        rob.push_back(inst(10, true, true));
        rob.push_back(inst(12, false, true));
        assert_eq!(rob.len(), 2);
        assert!(rob.front_executed());
        let a = rob.pop_front().unwrap();
        assert!(a.executed && a.issued);
        assert_eq!(a.tag, 10);
        assert_eq!(a.dod_hist, 3);
        let b = rob.pop_back().unwrap();
        assert!(!b.executed && b.issued);
        assert_eq!(b.tag, 12);
        assert!(rob.is_empty());
        assert!(!rob.front_executed());
    }

    #[test]
    fn rob_index_of_handles_gaps_and_wraparound() {
        let mut rob = RobSoa::with_capacity(64);
        // Force the head off zero so the ring wraps.
        for t in 0..60 {
            rob.push_back(inst(t, true, true));
        }
        for _ in 0..60 {
            rob.pop_front();
        }
        // Sparse tags (squash gaps).
        for t in [100u64, 103, 104, 110, 200] {
            rob.push_back(inst(t, false, false));
        }
        assert_eq!(rob.index_of(100), Some(0));
        assert_eq!(rob.index_of(104), Some(2));
        assert_eq!(rob.index_of(200), Some(4));
        assert_eq!(rob.index_of(105), None);
        assert_eq!(rob.index_of(99), None);
        assert_eq!(rob.index_of(201), None);
        assert_eq!(rob.front_tag(), Some(100));
        assert_eq!(rob.back_tag(), Some(200));
    }

    #[test]
    fn rob_count_unexecuted_matches_naive_walk_across_wrap() {
        let mut rob = RobSoa::with_capacity(64);
        // Park the head near the end of the ring so windows wrap.
        for t in 0..50 {
            rob.push_back(inst(t, true, true));
        }
        for _ in 0..50 {
            rob.pop_front();
        }
        let mut flags = Vec::new();
        for t in 0..40u64 {
            let ex = (t * 7 + 3) % 3 == 0;
            flags.push(ex);
            rob.push_back(inst(100 + t, ex, ex));
        }
        for start in 0..40 {
            for window in [0usize, 1, 5, 31, 64, usize::MAX] {
                let naive = flags[start.min(flags.len())..]
                    .iter()
                    .take(window)
                    .filter(|&&e| !e)
                    .count() as u32;
                assert_eq!(
                    rob.count_unexecuted(start, window),
                    naive,
                    "start={start} window={window}"
                );
            }
        }
    }

    #[test]
    fn rob_set_flags_are_visible_to_count_and_compose() {
        let mut rob = RobSoa::with_capacity(8);
        for t in 0..5 {
            rob.push_back(inst(t, false, false));
        }
        assert_eq!(rob.count_unexecuted(0, usize::MAX), 5);
        rob.set_executed(2, true);
        rob.set_issued(2, true);
        assert_eq!(rob.count_unexecuted(0, usize::MAX), 4);
        assert!(rob.executed(2) && rob.issued(2));
        assert!(!rob.executed(1));
        // pop_front twice: index 2 becomes index 0.
        rob.pop_front();
        rob.pop_front();
        let e = rob.pop_front().unwrap();
        assert!(e.executed && e.issued);
    }

    #[test]
    fn rob_grows_preserving_order_and_flags() {
        let mut rob = RobSoa::with_capacity(64);
        // Wrap, then overflow the initial 64 slots.
        for t in 0..40 {
            rob.push_back(inst(t, false, false));
        }
        for _ in 0..40 {
            rob.pop_front();
        }
        for t in 0..200u64 {
            rob.push_back(inst(1000 + t, t % 2 == 0, t % 2 == 0));
        }
        assert_eq!(rob.len(), 200);
        for i in 0..200usize {
            assert_eq!(rob.tag_at(i), 1000 + i as u64);
            assert_eq!(rob.executed(i), i % 2 == 0);
        }
        assert_eq!(rob.count_unexecuted(0, usize::MAX), 100);
    }

    #[test]
    fn cached_slots_survive_grow_through_the_tag_fallback() {
        let mut rob = RobSoa::with_capacity(64);
        // Wrap the head, then cache each entry's physical slot the way
        // the IQ and the event queue do.
        for t in 0..50 {
            rob.push_back(inst(t, true, true));
        }
        for _ in 0..50 {
            rob.pop_front();
        }
        let mut cached = Vec::new();
        for t in 100..160u64 {
            rob.push_back(inst(t, false, false));
            cached.push((t, rob.back_phys()));
        }
        // Retire the oldest ten, then overflow the 64 slots: `grow`
        // relocates every live entry.
        for _ in 0..10 {
            rob.pop_front();
        }
        for t in 160..200u64 {
            rob.push_back(inst(t, false, false));
        }
        assert_eq!(rob.len(), 90);
        let mut fallbacks = 0;
        for &(tag, p) in &cached {
            let found = rob.locate(p, tag);
            if tag < 110 {
                assert_eq!(found, None, "popped tag {tag} found at cached slot {p}");
                continue;
            }
            let idx = found.unwrap_or_else(|| panic!("live tag {tag} lost after grow"));
            assert_eq!(rob.tag_at(idx), tag);
            assert_eq!(idx, (tag - 110) as usize);
            fallbacks += usize::from(rob.live_at(p, tag).is_none());
        }
        assert!(fallbacks > 0, "grow relocated no cached slot");
    }

    #[test]
    fn lsq_disambiguation_and_forwarding_probes() {
        let mut lsq = LsqSoa::with_capacity(8);
        lsq.push_back(LsqEntry {
            tag: 1,
            is_store: true,
            addr: 0x100,
            resolved: false,
        });
        lsq.push_back(LsqEntry {
            tag: 3,
            is_store: false,
            addr: 0x200,
            resolved: false,
        });
        lsq.push_back(LsqEntry {
            tag: 5,
            is_store: true,
            addr: 0x108,
            resolved: false,
        });
        // Load tag 3: store tag 1 unresolved.
        assert!(lsq.unresolved_store_before(lsq.lower_bound(3)));
        lsq.set_resolved(lsq.index_of(1).unwrap());
        assert!(!lsq.unresolved_store_before(lsq.lower_bound(3)));
        // Store tag 5 still unresolved for a hypothetical load tag 7.
        assert!(lsq.unresolved_store_before(lsq.lower_bound(7)));
        // Forwarding: older store to the same chunk.
        assert!(lsq.forwarding_store_before(lsq.lower_bound(3), 0x100 >> 3));
        assert!(!lsq.forwarding_store_before(lsq.lower_bound(3), 0x108 >> 3));
        // Tag 7 would see the chunk of store tag 5.
        assert!(lsq.forwarding_store_before(lsq.lower_bound(7), 0x108 >> 3));
    }

    #[test]
    fn lsq_ring_pops_and_wraps() {
        let mut lsq = LsqSoa::with_capacity(4);
        for round in 0..10u64 {
            for k in 0..3 {
                lsq.push_back(LsqEntry {
                    tag: round * 10 + k,
                    is_store: k == 1,
                    addr: k * 8,
                    resolved: false,
                });
            }
            assert_eq!(lsq.back_tag(), Some(round * 10 + 2));
            let front = lsq.pop_front().unwrap();
            assert_eq!(front.tag, round * 10);
            assert!(!front.is_store);
            let back = lsq.pop_back().unwrap();
            assert_eq!(back.tag, round * 10 + 2);
            let mid = lsq.pop_back().unwrap();
            assert!(mid.is_store);
            assert_eq!(lsq.len(), 0);
        }
    }

    #[test]
    fn lsq_ring_built_for_96_holds_96_in_order_across_a_wrap() {
        let entry = |tag: u64| LsqEntry {
            tag,
            is_store: tag.is_multiple_of(3),
            addr: tag * 8,
            resolved: tag.is_multiple_of(2),
        };
        let mut lsq = LsqSoa::with_capacity(96);
        // Move the head near the end of the (128-slot) ring so the 96
        // entries wrap around it.
        for tag in 0..100 {
            lsq.push_back(entry(tag));
            lsq.pop_front();
        }
        for tag in 0..96 {
            lsq.push_back(entry(tag));
        }
        assert_eq!(lsq.len(), 96);
        assert_eq!(lsq.back_tag(), Some(95));
        for tag in 0..96 {
            let e = lsq.pop_front().expect("96 entries held");
            let want = entry(tag);
            assert_eq!(
                (e.tag, e.is_store, e.addr, e.resolved),
                (want.tag, want.is_store, want.addr, want.resolved)
            );
        }
        assert_eq!(lsq.len(), 0);
    }

    #[test]
    fn iq_register_wakeups_count_down_to_ready() {
        use smtsim_isa::RegClass;
        let r = |idx: u16| PhysReg {
            class: RegClass::Int,
            idx,
        };
        let mut iq = IqSoa::new(4, [8, 8], 2);
        // Entry A: ready at dispatch. Entry B: waits on r3 twice (both
        // operands). Entry C: waits on r3 and r5.
        iq.push(0, 10, 100, 0, [None, None], false, |_| true);
        iq.push(1, 20, 101, 1, [Some(r(3)), Some(r(3))], false, |_| false);
        iq.push(0, 11, 102, 2, [Some(r(3)), Some(r(5))], false, |_| false);
        assert_eq!(iq.len(), 3);

        let mut cands = Vec::new();
        iq.drain_ready_into(&mut cands);
        assert_eq!(cands, vec![(100, 0)], "only A is ready at dispatch");

        // r3 resolves: B's double registration counts down 2 -> 0; C
        // still waits on r5.
        iq.wake_reg(r(3));
        cands.clear();
        iq.drain_ready_into(&mut cands);
        assert_eq!(cands, vec![(101, 1)]);
        iq.wake_reg(r(5));
        cands.clear();
        iq.drain_ready_into(&mut cands);
        assert_eq!(cands, vec![(102, 2)]);
        // Accessors address entries by arena slot.
        assert_eq!((iq.thread(2), iq.tag(2), iq.robp(2)), (0, 11, 2));
    }

    #[test]
    fn iq_lsq_wake_rechecks_disambiguation() {
        let mut lsq = LsqSoa::with_capacity(8);
        for (tag, is_store) in [(1u64, true), (3, true), (5, false)] {
            lsq.push_back(LsqEntry {
                tag,
                is_store,
                addr: 0x100 + tag * 8,
                resolved: false,
            });
        }
        let mut iq = IqSoa::new(4, [8, 8], 1);
        // The load (tag 5) is register-ready but blocked behind the
        // two unresolved stores.
        iq.push(0, 5, 100, 0, [None, None], true, |_| true);
        let mut cands = Vec::new();
        iq.drain_ready_into(&mut cands);
        assert!(cands.is_empty());
        // First store resolves: still blocked on the second.
        lsq.set_resolved(lsq.index_of(1).unwrap());
        iq.wake_lsq(0, &lsq);
        iq.drain_ready_into(&mut cands);
        assert!(cands.is_empty());
        // Second store resolves: the load is released.
        lsq.set_resolved(lsq.index_of(3).unwrap());
        iq.wake_lsq(0, &lsq);
        iq.drain_ready_into(&mut cands);
        assert_eq!(cands, vec![(100, 0)]);
    }

    #[test]
    fn iq_squash_invalidates_stale_references() {
        use smtsim_isa::RegClass;
        let r9 = PhysReg {
            class: RegClass::Int,
            idx: 9,
        };
        let mut iq = IqSoa::new(4, [16, 16], 2);
        iq.push(0, 10, 100, 0, [Some(r9), None], false, |_| false);
        iq.push(0, 11, 101, 1, [None, None], false, |_| true);
        iq.push(1, 11, 102, 2, [None, None], false, |_| true);
        let mut removed = 0;
        iq.squash(0, 11, || removed += 1);
        assert_eq!((removed, iq.len()), (1, 2));
        // Thread 1's tag-11 entry survives a thread-0 squash; thread
        // 0's tag-10 entry predates the squash point.
        let mut live: Vec<_> = iq.iter().collect();
        live.sort_unstable();
        assert_eq!(live, vec![(0, 10), (1, 11)]);
        // A new entry reuses the freed slot; the squashed entry's
        // stale waiter registration must not wake it (seq mismatch).
        iq.push(1, 30, 103, 3, [Some(r9), None], false, |_| false);
        iq.wake_reg(r9);
        let mut cands = Vec::new();
        iq.drain_ready_into(&mut cands);
        // The squashed entry contributes nothing: its slot-1 pool entry
        // fails the seq check. Everything live surfaces — the tag-10
        // waiter and the reused slot's new entry woken by r9, plus
        // thread 1's entry pooled at push.
        cands.sort_unstable();
        assert_eq!(cands, vec![(100, 0), (102, 2), (103, 1)]);
        // After the issued entries' slots are freed, pool leftovers
        // from before the free are dropped by validation.
        iq.requeue_ready(0, 100);
        iq.free_slot(0);
        cands.clear();
        iq.drain_ready_into(&mut cands);
        assert!(cands.is_empty());
        assert_eq!(iq.len(), 2);
    }
}
