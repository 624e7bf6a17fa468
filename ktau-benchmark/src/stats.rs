//! Order statistics for benchmark samples.
//!
//! Quantiles use the exclusive method of Python's `statistics.quantiles`
//! (rank `p·(n+1)`, linear interpolation, clamped to the sample range), so
//! the quartiles printed here match the ones a gate computes from the same
//! values.

/// A sample's median and quartiles, plus its 90th percentile when the
/// sample is large enough to have one (see [`tail_allowed`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// 90th percentile, `None` with fewer than 100 samples.
    pub p90: Option<f64>,
}

impl Summary {
    /// Summarizes `samples`; `None` when there are none.
    pub fn of(samples: &[f64]) -> Option<Summary> {
        if samples.is_empty() {
            return None;
        }
        let mut s = samples.to_vec();
        s.sort_by(f64::total_cmp);
        Some(Summary {
            n: s.len(),
            q1: quantile(&s, 0.25),
            median: quantile(&s, 0.5),
            q3: quantile(&s, 0.75),
            p90: tail_allowed(s.len(), 90).then(|| quantile(&s, 0.9)),
        })
    }

    /// Distance between the quartiles.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }
}

/// Quantile `p` (0..=1) of an ascending, non-empty sample.
pub fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "quantile of an empty sample");
    let h = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
    let lo = h.floor() as usize;
    let a = sorted[lo - 1];
    if lo == n {
        return a;
    }
    a + (h - lo as f64) * (sorted[lo] - a)
}

/// Median of a non-empty sample in any order.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

/// Whether a sample of `n` may report its `pct`-th percentile: a tail
/// percentile needs at least ten samples beyond it, so p90 needs 100
/// samples and p50 needs 20.
pub fn tail_allowed(n: usize, pct: u32) -> bool {
    assert!(pct < 100, "percentile must be below 100");
    n as u64 * u64::from(100 - pct) >= 10 * 100
}
