//! The [`Tracer`] sink abstraction and its two canonical
//! implementations: the zero-cost [`NoopTracer`] and the collecting
//! [`TraceLog`].

use crate::event::TraceEvent;
use crate::Cycle;

/// A sink for [`TraceEvent`]s.
///
/// The simulator is generic over its tracer, so the disabled case
/// monomorphizes to nothing: every emission site is guarded by
/// `if T::ENABLED`, a compile-time constant, and [`NoopTracer::record`]
/// is an empty inline function — the optimizer removes both the branch
/// and the event construction. DESIGN.md §Observability documents how
/// this zero-overhead claim is checked (the `smtsim-ledger` benchmark's
/// trace-overhead row).
pub trait Tracer {
    /// Whether this tracer actually records anything. Emission sites
    /// check this constant so event construction itself is skipped for
    /// no-op tracers.
    const ENABLED: bool;

    /// Record `event` as having occurred at `cycle`.
    fn record(&mut self, cycle: Cycle, event: TraceEvent);
}

/// The default tracer: records nothing, occupies no space, and
/// compiles away entirely.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NoopTracer;

impl Tracer for NoopTracer {
    const ENABLED: bool = false;

    #[inline(always)]
    fn record(&mut self, _cycle: Cycle, _event: TraceEvent) {}
}

/// A tracer that collects every event, in emission order, into memory.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TraceLog {
    /// The recorded `(cycle, event)` stream, in emission order.
    pub events: Vec<(Cycle, TraceEvent)>,
}

impl TraceLog {
    /// An empty log.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of recorded events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether nothing has been recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Consume the log, yielding the event stream.
    #[must_use]
    pub fn into_events(self) -> Vec<(Cycle, TraceEvent)> {
        self.events
    }
}

impl Tracer for TraceLog {
    const ENABLED: bool = true;

    fn record(&mut self, cycle: Cycle, event: TraceEvent) {
        self.events.push((cycle, event));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::StallKind;

    #[test]
    fn noop_tracer_is_a_zst_and_disabled() {
        assert_eq!(std::mem::size_of::<NoopTracer>(), 0);
        // ENABLED = false is a compile-time constant; record() must
        // still be callable (and do nothing).
        let mut t = NoopTracer;
        t.record(
            1,
            TraceEvent::ThreadStall {
                thread: 0,
                kind: StallKind::RobFull,
            },
        );
    }

    #[test]
    fn trace_log_collects_in_order() {
        let mut log = TraceLog::new();
        assert!(log.is_empty());
        log.record(3, TraceEvent::L2RobAllocated { thread: 1, tag: 7 });
        log.record(
            5,
            TraceEvent::L2RobReleased {
                thread: 1,
                trigger_tag: 7,
            },
        );
        assert_eq!(log.len(), 2);
        assert_eq!(log.events[0].0, 3);
        assert_eq!(
            log.into_events()[1].1,
            TraceEvent::L2RobReleased {
                thread: 1,
                trigger_tag: 7
            }
        );
    }
}
