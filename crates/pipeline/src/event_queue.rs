//! The cycle kernel's timed-event queue: a calendar of one-cycle
//! buckets with a small spill heap for the far future.
//!
//! Almost every event lands a few cycles out — functional-unit
//! completions (at most 24 cycles), L2-hit loads and miss detections —
//! so a ring of [`RING`] one-cycle buckets holds them with an O(1)
//! push. Only L2-miss fills (hundreds of cycles out) go to the spill
//! heap, and each migrates into the ring once, when its cycle comes
//! within reach. An occupancy bitmap over the buckets answers "when is
//! the next event?" for the cycle-skip engine in a couple of bit
//! operations.
//!
//! [`EventQueue::drain_due`] hands the kernel every event due by `now`
//! at once, sorted by [`Event`]'s `Ord` key. The event handlers never
//! schedule an event, so handling that batch in order is exactly the
//! pop loop of a min-heap over the same key: the two queues process
//! the same events in the same order (pinned by this module's tests
//! against a `BinaryHeap`).
//!
//! One case falls outside the ring's window: the issue stage runs
//! *after* the cycle's drain and may schedule an event at that
//! just-drained cycle (an L2-miss detection the hierarchy reports at
//! `now`). It goes into the next cycle's bucket with its real `at`, so
//! it still sorts ahead of everything due then — the heap would have
//! popped it first at the next drain too.

use crate::types::Event;
use smtsim_mem::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Buckets in the ring (one cycle each): covers every FU latency and
/// the L2-hit load path. One occupancy word tracks them all.
const RING: usize = 64;

const MASK: Cycle = RING as Cycle - 1;

/// A calendar queue of [`Event`]s (see the module docs).
pub(crate) struct EventQueue {
    /// `buckets[c & MASK]` holds the events due at cycle `c`, for `c`
    /// in `[base, base + RING)`; the bucket of `base` also holds any
    /// event scheduled at the just-drained cycle `base - 1`.
    buckets: [Vec<Event>; RING],
    /// Bit `i` set iff `buckets[i]` is non-empty.
    occupied: u64,
    /// Events due at or after `base + RING`.
    spill: BinaryHeap<Reverse<Event>>,
    /// The first cycle not yet drained.
    base: Cycle,
}

impl EventQueue {
    pub fn new() -> Self {
        EventQueue {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            spill: BinaryHeap::new(),
            base: 0,
        }
    }

    /// Schedules `ev`. Its `at` may be the just-drained cycle or any
    /// later one.
    pub fn push(&mut self, ev: Event) {
        debug_assert!(
            ev.at.saturating_add(1) >= self.base,
            "event at {} scheduled behind the drained cycle {}",
            ev.at,
            self.base.saturating_sub(1)
        );
        if ev.at >= self.base + RING as Cycle {
            self.spill.push(Reverse(ev));
        } else {
            self.bucket_push(ev.at.max(self.base), ev);
        }
    }

    #[inline]
    fn bucket_push(&mut self, cycle: Cycle, ev: Event) {
        let b = (cycle & MASK) as usize;
        self.buckets[b].push(ev);
        self.occupied |= 1 << b;
    }

    /// The earliest pending `at`, if any event is pending.
    pub fn next_at(&self) -> Option<Cycle> {
        if self.occupied == 0 {
            // The spill only holds cycles past the ring's window.
            return self.spill.peek().map(|Reverse(ev)| ev.at);
        }
        let start = (self.base & MASK) as u32;
        let offset = self.occupied.rotate_right(start).trailing_zeros();
        if offset > 0 {
            return Some(self.base + Cycle::from(offset));
        }
        // The bucket of `base` may also hold events of the drained
        // cycle before it.
        self.buckets[start as usize].iter().map(|ev| ev.at).min()
    }

    /// Replaces `out` with every event due at or before `now`, sorted
    /// by [`Event`]'s `Ord` key, and marks `now` drained. Cycles are
    /// drained in increasing order, each at most once; a drain may
    /// jump past any number of cycles (as after a cycle skip).
    pub fn drain_due(&mut self, now: Cycle, out: &mut Vec<Event>) {
        debug_assert!(now >= self.base, "cycle {now} drained twice");
        out.clear();
        let due = now - self.base + 1;
        let mut bits = if due >= RING as Cycle {
            self.occupied
        } else {
            self.occupied & ((1u64 << due) - 1).rotate_left((self.base & MASK) as u32)
        };
        self.occupied &= !bits;
        while bits != 0 {
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            // `append` keeps the bucket's buffer for reuse.
            out.append(&mut self.buckets[b]);
        }
        self.base = now + 1;
        // Spilled events now due, or now inside the ring's window.
        while let Some(&Reverse(ev)) = self.spill.peek() {
            if ev.at >= self.base + RING as Cycle {
                break;
            }
            self.spill.pop();
            if ev.at <= now {
                out.push(ev);
            } else {
                self.bucket_push(ev.at, ev);
            }
        }
        out.sort_unstable();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{EventKind, InstRef};

    /// SplitMix64: a self-contained deterministic script generator.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// A small key space, so same-cycle ties across threads, tags and
    /// kinds are common. The slot is a function of the instruction, as
    /// in the kernel, so events with equal keys are identical.
    fn event(rng: &mut Rng, at: Cycle) -> Event {
        let kind = match rng.below(3) {
            0 => EventKind::Complete,
            1 => EventKind::L2MissDetected,
            _ => EventKind::L2Fill,
        };
        let inst = InstRef {
            thread: rng.below(4) as usize,
            tag: rng.below(6),
        };
        Event {
            at,
            kind,
            inst,
            slot: (inst.thread * 8) as u32 + inst.tag as u32,
        }
    }

    /// Drives the calendar and a `BinaryHeap<Reverse<Event>>` — the
    /// queue the calendar replaces — with one random script: pushes
    /// into the ring, at the just-drained cycle and past the ring;
    /// drains one cycle ahead or jumping past the whole ring. Both
    /// must drain the same sequence and agree on the earliest pending
    /// cycle after every step.
    #[test]
    fn calendar_drains_exactly_as_a_binary_heap() {
        let mut rng = Rng(0x5EED);
        let mut cal = EventQueue::new();
        let mut heap: BinaryHeap<Reverse<Event>> = BinaryHeap::new();
        let mut batch = Vec::new();
        let mut drained = 0usize;
        let mut now: Cycle = 0;
        for step in 0..40_000 {
            match rng.below(10) {
                // Drain the next cycle, or jump ahead (past the whole
                // ring one time in six).
                0..=2 => {
                    now += match rng.below(6) {
                        0 => 2 + rng.below(RING as u64 - 2),
                        1 => RING as u64 + rng.below(4 * RING as u64),
                        _ => 1,
                    };
                    cal.drain_due(now, &mut batch);
                    let mut expect = Vec::new();
                    while heap.peek().is_some_and(|Reverse(ev)| ev.at <= now) {
                        let Some(Reverse(ev)) = heap.pop() else { break };
                        expect.push(ev);
                    }
                    assert_eq!(batch, expect, "step {step}: drain of cycle {now}");
                    // `Eq` ignores the slot; the drained events must
                    // carry theirs too.
                    let slots = |v: &[Event]| v.iter().map(|ev| ev.slot).collect::<Vec<_>>();
                    assert_eq!(slots(&batch), slots(&expect), "step {step}");
                    drained += batch.len();
                }
                // Schedule: at the just-drained cycle, inside the ring,
                // or past it (an L2 fill).
                _ => {
                    let at = match rng.below(8) {
                        0 => now,
                        1 => now + RING as u64 + rng.below(600),
                        _ => now + 1 + rng.below(24),
                    };
                    let ev = event(&mut rng, at);
                    cal.push(ev);
                    heap.push(Reverse(ev));
                }
            }
            assert_eq!(
                cal.next_at(),
                heap.peek().map(|Reverse(ev)| ev.at),
                "step {step}: earliest pending cycle"
            );
        }
        assert!(drained > 10_000, "the script drained only {drained} events");
    }

    #[test]
    fn just_drained_events_sort_first_in_the_next_cycle() {
        let ev = |at, tag| Event {
            at,
            kind: EventKind::Complete,
            inst: InstRef { thread: 0, tag },
            slot: 0,
        };
        let mut q = EventQueue::new();
        let mut batch = Vec::new();
        q.push(ev(6, 1));
        q.drain_due(5, &mut batch);
        assert!(batch.is_empty());
        // Scheduled at the drained cycle 5, with a larger tag than the
        // cycle-6 event: its earlier `at` still puts it first.
        q.push(ev(5, 9));
        assert_eq!(q.next_at(), Some(5));
        q.drain_due(6, &mut batch);
        assert_eq!(batch, vec![ev(5, 9), ev(6, 1)]);
        assert_eq!(q.next_at(), None);
    }
}
