//! In-memory spans for the traced pass: one span per call into a
//! layer's public function, with its name, start, end and the span
//! that caused it. A span's *self time* is its duration minus the part
//! of its interval covered by its children (children may overlap each
//! other when they ran on parallel workers); a layer's self time is the
//! sum over the spans whose name starts with `<layer>.`.

use crate::clock::Stamp;
use std::collections::BTreeMap;

/// One recorded span. Times are nanoseconds since the recorder's epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `core.run_cell`.
    pub name: String,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the causing span, if any.
    pub parent: Option<usize>,
}

impl Span {
    /// The span's duration in ns.
    #[must_use]
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }

    /// The layer a span belongs to: its name up to the first `.`.
    #[must_use]
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or(&self.name)
    }
}

/// Collects spans, nesting each new span under the innermost open one.
#[derive(Debug)]
pub struct Recorder {
    epoch: Stamp,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder whose epoch is now.
    #[must_use]
    pub fn new() -> Recorder {
        Recorder {
            epoch: Stamp::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            start: Stamp::now().ns_since(self.epoch),
            end: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end = Stamp::now().ns_since(self.epoch);
        out
    }

    /// Adds a span measured elsewhere (a parallel worker) as a child of
    /// the innermost open span.
    pub fn add(&mut self, name: &str, start: Stamp, end: Stamp) {
        self.spans.push(Span {
            name: name.to_string(),
            start: start.ns_since(self.epoch),
            end: end.ns_since(self.epoch),
            parent: self.open.last().copied(),
        });
    }

    /// The recorded spans.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total duration of every span named `name`, in ns.
    #[must_use]
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi)`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in intervals {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span, in the order of `spans`.
#[must_use]
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, kids)| s.duration() - covered(kids, s.start, s.end))
        .collect()
}

/// Self time per layer, in ns.
#[must_use]
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.layer().to_string()).or_insert(0) += t;
    }
    out
}
