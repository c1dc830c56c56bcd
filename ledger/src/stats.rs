//! Order statistics for timing samples: median, quartiles (the same
//! "exclusive" method as Python's `statistics.quantiles(n=4)`), and the
//! tail percentile the ledger reports next to every median — the
//! highest percentile of a fixed ladder that still has at least
//! [`TAIL_BEYOND`] samples beyond it, picked by nearest rank.

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The percentiles a tail may be reported at, in tenths of a percent,
/// ascending (integers keep the nearest rank exact).
pub const TAIL_LADDER: [u32; 6] = [500, 750, 900, 950, 990, 999];

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// The median (mean of the two middle samples for an even count);
/// `NaN` for no samples.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartiles by the exclusive method (Python's default
/// for `statistics.quantiles`). A single sample is its own quartiles;
/// no samples give `NaN`s.
#[must_use]
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let m = n + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (q(1), q(3))
}

/// The highest percentile on [`TAIL_LADDER`] whose nearest-rank value
/// still has at least [`TAIL_BEYOND`] samples above its rank, as
/// `(percentile, value)`; `None` when even the median has fewer.
#[must_use]
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(xs);
    let n = v.len();
    TAIL_LADDER.iter().rev().find_map(|&p| {
        let rank = (p as usize * n).div_ceil(1000);
        (rank >= 1 && n - rank >= TAIL_BEYOND).then(|| (f64::from(p) / 10.0, v[rank - 1]))
    })
}

/// Median, quartiles, tail and sample count of one metric's samples.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Highest percentile with [`TAIL_BEYOND`] samples beyond it.
    pub tail: Option<(f64, f64)>,
}

impl Summary {
    /// Summarizes `xs`.
    #[must_use]
    pub fn of(xs: &[f64]) -> Summary {
        let (q1, q3) = quartiles(xs);
        Summary {
            n: xs.len(),
            median: median(xs),
            q1,
            q3,
            tail: tail(xs),
        }
    }
}
