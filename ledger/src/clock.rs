//! The ledger's only wall-clock source. Every host-time reading in the
//! crate goes through [`Stamp`], so the one file carrying the
//! wall-clock allowance is the one file that reads the clock.

use std::time::Duration;
use std::time::Instant; // xtask: allow-wall-clock — the benchmark's clock

/// A point on the monotonic host clock.
#[derive(Clone, Copy, Debug)]
pub struct Stamp(Instant); // xtask: allow-wall-clock — the benchmark's clock

impl Stamp {
    /// The current instant.
    #[must_use]
    pub fn now() -> Stamp {
        Stamp(Instant::now()) // xtask: allow-wall-clock — the benchmark's clock
    }

    /// Time since this stamp.
    #[must_use]
    pub fn elapsed(self) -> Duration {
        self.0.elapsed()
    }

    /// Nanoseconds from `epoch` to this stamp (zero if `epoch` is
    /// later), saturating at `u64::MAX`.
    #[must_use]
    pub fn ns_since(self, epoch: Stamp) -> u64 {
        u64::try_from(self.0.saturating_duration_since(epoch.0).as_nanos()).unwrap_or(u64::MAX)
    }
}
