//! Physical register files, free lists and per-thread rename tables.
//!
//! Table 1's 224 integer + 224 floating-point registers are the whole
//! core's (`MachineConfig::int_regs` / `fp_regs`). Each thread pins one
//! physical register per architectural register (32 per class), so the
//! Table 1 machine's four threads pin 128 of each class. By default
//! (`MachineConfig::shared_regs`) the remaining 96 per class form one
//! core-wide rename pool that every thread's in-flight register writers
//! draw from, which is what makes Baseline_128 collapse (DESIGN.md §3).
//! With `shared_regs = false` (the ablation) each thread renames from
//! its own partition of `int_regs / num_threads` registers instead.

use smtsim_isa::{ArchReg, RegClass, ThreadId};

/// A physical register name. The class is implied by which file the
/// register came from; we carry it for checking.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PhysReg {
    /// Register class.
    pub class: RegClass,
    /// Index within the class's file.
    pub idx: u16,
}

/// One class's physical register storage, `per_thread_total` registers
/// per thread, renamed from one shared free list or from per-thread
/// partitions (thread `t` owns indices `[t*per_thread, (t+1)*per_thread)`).
#[derive(Clone, Debug)]
struct File {
    ready: Vec<bool>,
    /// Free list per thread.
    free: Vec<Vec<u16>>,
    /// Rename allocations currently held per thread (statistics).
    per_thread: Vec<usize>,
    per_thread_total: usize,
}

impl File {
    fn new(per_thread_total: usize, threads: usize, shared: bool) -> Self {
        let free = if shared {
            // One pool: Table 1's register count covers the whole core.
            vec![(0..(per_thread_total * threads) as u16).rev().collect()]
        } else {
            (0..threads)
                .map(|t| {
                    let base = (t * per_thread_total) as u16;
                    (base..base + per_thread_total as u16).rev().collect()
                })
                .collect()
        };
        File {
            ready: vec![false; per_thread_total * threads],
            free,
            per_thread: vec![0; threads],
            per_thread_total,
        }
    }

    #[inline]
    fn pool_of(&self, thread: usize) -> usize {
        if self.free.len() == 1 {
            0
        } else {
            thread
        }
    }
}

/// Both register files plus per-thread rename map tables.
#[derive(Clone, Debug)]
pub struct RegFiles {
    files: [File; 2],
    /// `maps[t][arch.flat_index()]` = current physical mapping.
    maps: Vec<[PhysReg; ArchReg::FLAT_COUNT]>,
}

impl RegFiles {
    /// Builds the register files (`int_regs`/`fp_regs` per thread) and
    /// initializes each thread's map table with freshly pinned, ready
    /// physical registers. With `shared` (the Table 1 machine), the
    /// rename pools of all threads are merged into one core-wide pool
    /// of `int_regs × threads`; without it each thread keeps its own
    /// partition (the ablation).
    ///
    /// # Panics
    /// Panics if the files cannot cover the architectural state.
    pub fn new(int_regs: usize, fp_regs: usize, threads: usize, shared: bool) -> Self {
        let mut files = [
            File::new(int_regs, threads, shared),
            File::new(fp_regs, threads, shared),
        ];
        let mut maps = Vec::with_capacity(threads);
        for t in 0..threads {
            let mut map = [PhysReg {
                class: RegClass::Int,
                idx: 0,
            }; ArchReg::FLAT_COUNT];
            for class in RegClass::ALL {
                for a in 0..class.arch_count() {
                    let file = &mut files[class.index()];
                    let pool = file.pool_of(t);
                    // invariant: MachineConfig::validate guarantees the
                    // pool covers every thread's architectural state
                    // before a Simulator (and thus RegFiles) is built.
                    #[allow(clippy::expect_used)]
                    let idx = file.free[pool]
                        .pop() // xtask: allow-unwrap
                        .expect("register file too small for architectural state");
                    file.ready[idx as usize] = true;
                    let arch = match class {
                        RegClass::Int => ArchReg::int(a as u8),
                        RegClass::Fp => ArchReg::fp(a as u8),
                    };
                    map[arch.flat_index()] = PhysReg { class, idx };
                }
            }
            maps.push(map);
        }
        RegFiles { files, maps }
    }

    /// Free registers remaining in `thread`'s rename pool for `class`
    /// (the shared pool when built with `shared`).
    pub fn free_count(&self, thread: ThreadId, class: RegClass) -> usize {
        let f = &self.files[class.index()];
        f.free[f.pool_of(thread)].len()
    }

    /// Rename allocations currently held by `thread` in `class`.
    pub fn usage(&self, thread: ThreadId, class: RegClass) -> usize {
        self.files[class.index()].per_thread[thread]
    }

    /// Current mapping of an architectural register.
    #[inline]
    pub fn map(&self, thread: ThreadId, arch: ArchReg) -> PhysReg {
        self.maps[thread][arch.flat_index()]
    }

    /// Is the physical register's value available?
    #[inline]
    pub fn is_ready(&self, p: PhysReg) -> bool {
        self.files[p.class.index()].ready[p.idx as usize]
    }

    /// Marks a physical register ready (producer completed).
    #[inline]
    pub fn set_ready(&mut self, p: PhysReg, ready: bool) {
        self.files[p.class.index()].ready[p.idx as usize] = ready;
    }

    /// Renames a destination: allocates a new physical register, remaps
    /// the architectural register, and returns `(new, old)` — the old
    /// mapping is kept in the ROB entry for commit-time freeing or
    /// squash-time restoration. Returns `None` when the pool is empty
    /// (dispatch must stall).
    pub fn rename_dst(&mut self, thread: ThreadId, arch: ArchReg) -> Option<(PhysReg, PhysReg)> {
        let class = arch.class();
        let file = &mut self.files[class.index()];
        let pool = file.pool_of(thread);
        let idx = file.free[pool].pop()?;
        file.ready[idx as usize] = false;
        file.per_thread[thread] += 1;
        let new = PhysReg { class, idx };
        let old = self.maps[thread][arch.flat_index()];
        self.maps[thread][arch.flat_index()] = new;
        Some((new, old))
    }

    /// Commit-time release: the previous mapping of the committed
    /// instruction's destination becomes unreachable and returns to the
    /// pool. The committing thread's rename usage drops by one (its
    /// allocation is now the pinned architectural mapping).
    pub fn commit_release(&mut self, thread: ThreadId, old: PhysReg) {
        let file = &mut self.files[old.class.index()];
        file.ready[old.idx as usize] = false;
        let pool = file.pool_of(thread);
        file.free[pool].push(old.idx);
        debug_assert!(file.per_thread[thread] > 0);
        file.per_thread[thread] -= 1;
    }

    /// Squash-time undo: restores the architectural mapping to `old`
    /// and frees the squashed instruction's allocation `new`. Must be
    /// applied youngest-first.
    pub fn squash_undo(&mut self, thread: ThreadId, arch: ArchReg, new: PhysReg, old: PhysReg) {
        debug_assert_eq!(self.maps[thread][arch.flat_index()], new, "squash order");
        self.maps[thread][arch.flat_index()] = old;
        let file = &mut self.files[new.class.index()];
        file.ready[new.idx as usize] = false;
        let pool = file.pool_of(thread);
        file.free[pool].push(new.idx);
        debug_assert!(file.per_thread[thread] > 0);
        file.per_thread[thread] -= 1;
    }

    /// Total registers in `class` across all threads.
    pub fn total(&self, class: RegClass) -> usize {
        self.files[class.index()].ready.len()
    }

    /// Per-thread register count in `class`.
    pub fn per_thread(&self, class: RegClass) -> usize {
        self.files[class.index()].per_thread_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rf() -> RegFiles {
        RegFiles::new(224, 224, 4, false)
    }

    #[test]
    fn initial_state_pins_arch_regs() {
        let r = rf();
        // 224 - 32 = 192 free per thread per class.
        for t in 0..4 {
            assert_eq!(r.free_count(t, RegClass::Int), 192);
            assert_eq!(r.free_count(t, RegClass::Fp), 192);
            assert!(r.is_ready(r.map(t, ArchReg::int(5))));
            assert!(r.is_ready(r.map(t, ArchReg::fp(31))));
            assert_eq!(r.usage(t, RegClass::Int), 0);
        }
        assert_eq!(r.total(RegClass::Int), 4 * 224);
        assert_eq!(r.per_thread(RegClass::Int), 224);
    }

    #[test]
    fn threads_have_distinct_mappings() {
        let r = rf();
        let a = r.map(0, ArchReg::int(3));
        let b = r.map(1, ArchReg::int(3));
        assert_ne!(a, b);
    }

    #[test]
    fn rename_allocates_and_remaps() {
        let mut r = rf();
        let arch = ArchReg::int(7);
        let before = r.map(0, arch);
        let (new, old) = r.rename_dst(0, arch).unwrap();
        assert_eq!(old, before);
        assert_eq!(r.map(0, arch), new);
        assert!(!r.is_ready(new));
        assert_eq!(r.free_count(0, RegClass::Int), 191);
        assert_eq!(
            r.free_count(1, RegClass::Int),
            192,
            "other threads unaffected"
        );
        assert_eq!(r.usage(0, RegClass::Int), 1);
    }

    #[test]
    fn pool_exhaustion_returns_none() {
        let mut r = rf();
        for i in 0..192 {
            assert!(r.rename_dst(0, ArchReg::int((i % 20) as u8)).is_some());
        }
        assert!(r.rename_dst(0, ArchReg::int(1)).is_none());
        assert_eq!(r.usage(0, RegClass::Int), 192);
        // Other threads and the FP pool are unaffected.
        assert!(r.rename_dst(1, ArchReg::int(1)).is_some());
        assert!(r.rename_dst(0, ArchReg::fp(1)).is_some());
    }

    #[test]
    fn commit_release_returns_old_to_pool() {
        let mut r = rf();
        let arch = ArchReg::int(2);
        let (_, old) = r.rename_dst(0, arch).unwrap();
        assert_eq!(r.free_count(0, RegClass::Int), 191);
        r.commit_release(0, old);
        assert_eq!(r.free_count(0, RegClass::Int), 192);
        assert_eq!(r.usage(0, RegClass::Int), 0);
    }

    #[test]
    fn squash_undo_restores_mapping() {
        let mut r = rf();
        let arch = ArchReg::int(9);
        let before = r.map(0, arch);
        let (n1, o1) = r.rename_dst(0, arch).unwrap();
        let (n2, o2) = r.rename_dst(0, arch).unwrap();
        assert_eq!(o2, n1);
        // Undo youngest-first.
        r.squash_undo(0, arch, n2, o2);
        assert_eq!(r.map(0, arch), n1);
        r.squash_undo(0, arch, n1, o1);
        assert_eq!(r.map(0, arch), before);
        assert_eq!(r.free_count(0, RegClass::Int), 192);
        assert_eq!(r.usage(0, RegClass::Int), 0);
    }

    #[test]
    fn rename_commit_squash_roundtrip_preserves_invariants() {
        let mut r = rf();
        let arch = ArchReg::int(4);
        // Simulate: rename A, rename B, commit A, squash B.
        let (_na, oa) = r.rename_dst(0, arch).unwrap();
        let (nb, ob) = r.rename_dst(0, arch).unwrap();
        r.commit_release(0, oa);
        r.squash_undo(0, arch, nb, ob);
        assert_eq!(r.map(0, arch), ob);
        assert_eq!(r.free_count(0, RegClass::Int), 192);
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn undersized_file_panics() {
        let _ = RegFiles::new(20, 224, 4, false);
    }

    #[test]
    fn shared_pool_semantics() {
        let mut r = RegFiles::new(64, 64, 2, true);
        // 2*64 - 2*32 pinned = 64 shared free per class.
        assert_eq!(r.free_count(0, RegClass::Int), 64);
        assert_eq!(r.free_count(1, RegClass::Int), 64);
        let (_, old) = r.rename_dst(0, ArchReg::int(1)).unwrap();
        assert_eq!(r.free_count(1, RegClass::Int), 63, "pool is shared");
        r.commit_release(0, old);
        assert_eq!(r.free_count(1, RegClass::Int), 64);
    }

    #[test]
    fn ready_toggling() {
        let mut r = rf();
        let (new, _) = r.rename_dst(0, ArchReg::int(1)).unwrap();
        assert!(!r.is_ready(new));
        r.set_ready(new, true);
        assert!(r.is_ready(new));
    }
}
