//! Property tests for the memory hierarchy: timing sanity, coalescing,
//! LRU containment and determinism under arbitrary access patterns.

use proptest::prelude::*;
use smtsim_mem::{Cache, CacheConfig, Hierarchy, MemConfig, Mshr};

fn arb_geometry() -> impl Strategy<Value = CacheConfig> {
    (0u32..4, 1usize..5, 0u32..3).prop_map(|(sets_log, assoc, line_log)| {
        let line = 32u64 << line_log;
        let sets = 4usize << sets_log;
        CacheConfig {
            size: line * sets as u64 * assoc as u64,
            assoc,
            line,
            hit_lat: 1,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn fill_then_peek_always_hits(cfg in arb_geometry(), addrs in proptest::collection::vec(0u64..1 << 24, 1..64)) {
        let mut c = Cache::new(cfg);
        // The most recently filled line is always resident (LRU can
        // never evict the line just inserted).
        for &a in &addrs {
            c.fill(a);
            prop_assert!(c.peek(a), "just-filled {a:#x} must be resident");
        }
    }

    #[test]
    fn lru_set_never_overflows(cfg in arb_geometry(), addrs in proptest::collection::vec(0u64..1 << 20, 1..200)) {
        let mut c = Cache::new(cfg);
        let mut resident: Vec<u64> = Vec::new();
        for &a in &addrs {
            if c.fill(a).is_none() {
                // No eviction: either line already present or a free way.
            }
            let la = c.line_addr(a);
            if !resident.contains(&la) {
                resident.push(la);
            }
            resident.retain(|&l| c.peek(l));
            // Residency per set can never exceed associativity.
            let mut per_set = std::collections::HashMap::new();
            for &l in &resident {
                *per_set.entry((l / cfg.line) % (cfg.num_sets() as u64)).or_insert(0usize) += 1;
            }
            for (_, n) in per_set {
                prop_assert!(n <= cfg.assoc);
            }
        }
    }

    #[test]
    fn load_completion_is_after_request(addrs in proptest::collection::vec(0u64..1 << 26, 1..100)) {
        let mut h = Hierarchy::icpp08();
        let mut now = 0u64;
        for &a in &addrs {
            let r = h.load(a, now);
            prop_assert!(r.complete_at > now, "completion must be in the future");
            prop_assert!(r.l2_miss_detected_at <= r.complete_at || !r.l2_miss);
            if r.l2_miss {
                prop_assert!(r.l1_miss, "an L2 miss implies an L1 miss");
            }
            now += 3;
        }
    }

    #[test]
    fn same_line_requests_coalesce(base in 0u64..1 << 26, offsets in proptest::collection::vec(0u64..128, 2..8)) {
        let mut h = Hierarchy::icpp08();
        let line = base & !127;
        let first = h.load(line, 0);
        prop_assume!(first.l2_miss);
        for (i, &o) in offsets.iter().enumerate() {
            let r = h.load(line + o, 2 + i as u64);
            // Outstanding-line accesses complete exactly with the fill.
            prop_assert_eq!(r.complete_at, first.complete_at);
        }
    }

    #[test]
    fn hierarchy_is_deterministic(addrs in proptest::collection::vec(0u64..1 << 24, 1..100)) {
        let run = |addrs: &[u64]| {
            let mut h = Hierarchy::icpp08();
            addrs
                .iter()
                .enumerate()
                .map(|(i, &a)| h.load(a, i as u64 * 2).complete_at)
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(&addrs), run(&addrs));
    }

    #[test]
    fn mshr_occupancy_never_exceeds_capacity(cap in 1usize..16, reqs in proptest::collection::vec((0u64..1 << 16, 1u64..2000), 1..64)) {
        let mut m = Mshr::new(cap);
        let mut lines = std::collections::BTreeSet::new();
        let mut now = 0;
        for (line, dur) in reqs {
            let line = line << 7;
            if m.lookup(line, now).is_none() {
                let start = m.earliest_slot(now);
                m.insert(line, start + dur, start);
                lines.insert(line);
                // A line holds at most one entry, so the lines still in
                // flight at `start` count the occupied entries.
                let held = lines.iter().filter(|&&l| m.lookup(l, start).is_some()).count();
                prop_assert!(held <= cap);
            }
            now += 7;
        }
    }

    #[test]
    fn warm_data_makes_loads_hit(addrs in proptest::collection::vec(0u64..1 << 22, 1..64)) {
        let mut h = Hierarchy::icpp08();
        for &a in &addrs {
            h.warm_data(a, false);
        }
        // The most recently warmed line must hit (earlier ones may have
        // been evicted by conflicts).
        let last = *addrs.last().unwrap();
        let r = h.load(last, 0);
        prop_assert!(!r.l1_miss, "warmed {last:#x} must hit");
    }

    #[test]
    fn transfer_cycles_scale_with_line(line_log in 2u32..10) {
        let c = MemConfig::icpp08();
        let line = 1u64 << line_log;
        prop_assert_eq!(c.transfer_cycles(line), line.div_ceil(8) * 2);
    }
}
