//! Property tests for the predictors: table containment, history
//! masking, and training semantics under arbitrary stimulus.

use proptest::prelude::*;
use smtsim_predict::{Btb, DodPredictor, Gshare, LastValueDod, PathDod, ThresholdBitDod};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn gshare_history_stays_within_bits(bits in 1u32..16, updates in proptest::collection::vec(any::<bool>(), 0..100)) {
        let mut g = Gshare::new(1024, bits);
        for (i, &taken) in updates.iter().enumerate() {
            let t = i % 4;
            g.spec_update(t, taken);
            prop_assert!(g.history(t) < (1u16 << bits));
        }
    }

    #[test]
    fn gshare_restore_is_exact(bits in 2u32..12, pre in any::<u16>(), actual in any::<bool>()) {
        let mut g = Gshare::new(512, bits);
        let mask = (1u16 << bits) - 1;
        g.set_history(0, pre);
        let snapshot = g.history(0);
        // Arbitrary speculative pollution...
        for i in 0..17 {
            g.spec_update(0, i % 3 == 0);
        }
        // ...is fully repaired by restore.
        g.restore(0, snapshot, actual);
        prop_assert_eq!(g.history(0), ((snapshot << 1) | actual as u16) & mask);
    }

    #[test]
    fn gshare_training_saturates(pc in 0u64..1 << 30, n in 1usize..40) {
        let mut g = Gshare::new(2048, 10);
        for _ in 0..n {
            let (_, h) = g.predict(0, pc);
            g.train(pc, h, true);
        }
        let (pred, _) = g.predict(0, pc);
        prop_assert!(pred, "after consistent taken training, predict taken");
    }

    #[test]
    fn btb_remembers_last_target(pcs in proptest::collection::vec((0u64..1 << 20, 0u64..1 << 20), 1..64)) {
        let mut b = Btb::new(2048, 2);
        for &(pc, tgt) in &pcs {
            b.update(pc, tgt);
            prop_assert_eq!(b.predict(pc), Some(tgt), "just-updated entry must hit");
        }
    }

    #[test]
    fn last_value_round_trips_any_count(pc in 0u64..1 << 40, count in 0u32..256) {
        let mut p = LastValueDod::new(2048);
        p.update(pc, 0, count);
        prop_assert_eq!(p.lookup(pc & !3 | (pc & 3)), p.lookup(pc)); // stable
        prop_assert_eq!(p.lookup(pc), Some(count));
        for t in [1u32, 4, 16, 64, 255] {
            prop_assert_eq!(p.predict_below(pc, 0, t), Some(count < t));
        }
    }

    #[test]
    fn threshold_bit_agrees_with_direct_compare(thr in 1u32..32, counts in proptest::collection::vec((0u64..1 << 16, 0u32..64), 1..64)) {
        let mut p = ThresholdBitDod::new(4096, thr);
        for &(pcraw, c) in &counts {
            let pc = pcraw << 2;
            p.update(pc, 0, c);
            prop_assert_eq!(p.predict_below(pc, 0, thr), Some(c < thr));
            prop_assert_eq!(p.predict_below(pc, 0, thr + 1), None, "foreign threshold refused");
        }
    }

    #[test]
    fn path_dod_separates_histories(pc in 0u64..1 << 20, h1 in 0u16..1024, h2 in 0u16..1024, c1 in 0u32..32, c2 in 0u32..32) {
        prop_assume!(h1 != h2);
        let mut p = PathDod::new(4096);
        let pc = pc << 2;
        p.update(pc, h1, c1);
        p.update(pc, h2, c2);
        // Index collisions are possible (xor-indexed table); when the two
        // histories map to different slots both predictions must be
        // faithful to their own training.
        if (pc >> 2 ^ h1 as u64) & 4095 != (pc >> 2 ^ h2 as u64) & 4095 {
            prop_assert_eq!(p.predict_below(pc, h1, 16), Some(c1 < 16));
            prop_assert_eq!(p.predict_below(pc, h2, 16), Some(c2 < 16));
        }
    }
}
