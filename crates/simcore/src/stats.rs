//! Online statistics used by the measurement harness.
//!
//! The paper reports means with standard deviations (Tables 1, 3, 4, 5) and
//! per-time-bin means with 95% confidence intervals across 15 runs
//! (Figure 2). [`Welford`] provides numerically stable single-pass
//! mean/variance; [`TimeBinned`] accumulates a value into fixed-width time
//! bins (the paper's 0.5 s bitrate bins); [`mean_ci95`] computes the
//! Student-t confidence half-width across runs.

use crate::time::{SimDuration, SimTime};

/// Numerically stable online mean and variance (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 if fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// The raw `(count, mean, m2)` state, for exact serialization
    /// (checkpoint manifests store `mean`/`m2` as IEEE-754 bit patterns so
    /// a resumed aggregate is bit-identical to the original).
    pub fn parts(&self) -> (u64, f64, f64) {
        (self.n, self.mean, self.m2)
    }

    /// Rebuild an accumulator from [`Welford::parts`] output.
    pub fn from_parts(n: u64, mean: f64, m2: f64) -> Self {
        Welford { n, mean, m2 }
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += d * other.n as f64 / n as f64;
        self.n = n;
    }
}

/// Two-sided Student-t critical value at 95% confidence for `df` degrees of
/// freedom. Table-driven for small df (the paper's 15 runs → df = 14 →
/// t = 2.145), asymptotic 1.96 for large df.
pub fn t_crit_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, // 1-10
        2.201, 2.179, 2.160, 2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, // 11-20
        2.080, 2.074, 2.069, 2.064, 2.060, 2.056, 2.052, 2.048, 2.045, 2.042, // 21-30
    ];
    match df {
        0 => f64::INFINITY,
        d if d <= 30 => TABLE[(d - 1) as usize],
        d if d <= 60 => 2.00,
        _ => 1.96,
    }
}

/// Median of an already-sorted slice; `None` when empty.
///
/// The checked sibling of the old ad-hoc `sorted[n/2 - 1]` benchmarks
/// helper, whose even branch underflowed on an empty slice. Shared by the
/// repo benchmark and the fleet sketches.
pub fn median_sorted(sorted: &[f64]) -> Option<f64> {
    percentile_sorted(sorted, 0.5)
}

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an already-sorted slice by linear
/// interpolation; `None` when empty.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(if lo == hi {
        sorted[lo]
    } else {
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    })
}

/// Mean and 95% confidence half-width of a sample.
///
/// Returns `(mean, half_width)`; the half-width is 0 for samples of size < 2.
pub fn mean_ci95(samples: &[f64]) -> (f64, f64) {
    let mut w = Welford::new();
    for &s in samples {
        w.add(s);
    }
    if w.count() < 2 {
        return (w.mean(), 0.0);
    }
    let se = w.stddev() / (w.count() as f64).sqrt();
    (w.mean(), t_crit_95(w.count() - 1) * se)
}

/// Accumulates a quantity (e.g. bytes delivered) into fixed-width time bins.
///
/// Bin `i` covers `[i*width, (i+1)*width)`. Used for the paper's 0.5 s
/// bitrate series (Figure 2).
#[derive(Clone, Debug)]
pub struct TimeBinned {
    width: SimDuration,
    bins: Vec<f64>,
    /// Start of the bin the last `add` landed in. Simulation time is nearly
    /// monotone, so almost every `add` hits the same bin as its predecessor
    /// and the range test below replaces a 64-bit division on a path that
    /// runs for every sent and delivered packet.
    cached_start: u64,
    cached_idx: usize,
}

impl TimeBinned {
    /// A new series with the given bin width.
    ///
    /// # Panics
    /// Panics if `width` is zero.
    pub fn new(width: SimDuration) -> Self {
        assert!(!width.is_zero(), "bin width must be positive");
        TimeBinned {
            width,
            bins: Vec::new(),
            cached_start: 0,
            cached_idx: 0,
        }
    }

    /// Bin width.
    pub fn width(&self) -> SimDuration {
        self.width
    }

    /// Add `amount` to the bin containing `at`.
    pub fn add(&mut self, at: SimTime, amount: f64) {
        let t = at.as_nanos();
        let w = self.width.as_nanos();
        // The cached bin covers `[cached_start, cached_start + width)`;
        // dividing only on a bin change keeps the result bit-identical.
        let idx = if t.wrapping_sub(self.cached_start) < w {
            self.cached_idx
        } else {
            let idx = (t / w) as usize;
            self.cached_start = idx as u64 * w;
            self.cached_idx = idx;
            idx
        };
        if idx >= self.bins.len() {
            self.bins.resize(idx + 1, 0.0);
        }
        self.bins[idx] += amount;
    }

    /// The accumulated bins (trailing bins that never received data are
    /// absent; use [`TimeBinned::bin_or_zero`] for uniform access).
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// Value of bin `idx`, zero if beyond the recorded range.
    pub fn bin_or_zero(&self, idx: usize) -> f64 {
        self.bins.get(idx).copied().unwrap_or(0.0)
    }

    /// Number of recorded bins.
    pub fn len(&self) -> usize {
        self.bins.len()
    }

    /// True if no data was recorded.
    pub fn is_empty(&self) -> bool {
        self.bins.is_empty()
    }

    /// Midpoint time of bin `idx` in seconds (for plotting).
    pub fn bin_mid_secs(&self, idx: usize) -> f64 {
        (idx as f64 + 0.5) * self.width.as_secs_f64()
    }

    /// Mean of the bins whose *midpoints* fall in `[from, to)`, after
    /// applying `scale` to each bin (e.g. bytes-per-bin → Mb/s).
    pub fn mean_over(&self, from: SimTime, to: SimTime, scale: f64) -> f64 {
        self.welford_over(from, to, scale).mean()
    }

    /// Full online statistics (count/mean/variance) over the bins whose
    /// midpoints fall in `[from, to)`, scaled. Borrows the series — the
    /// streaming-aggregation path (fleet campaigns) reads windowed stats
    /// per run without cloning any bin vector.
    pub fn welford_over(&self, from: SimTime, to: SimTime, scale: f64) -> Welford {
        let mut w = Welford::new();
        for idx in 0..self.len() {
            let mid = SimDuration::from_secs_f64(self.bin_mid_secs(idx));
            let mid_t = SimTime::ZERO + mid;
            if mid_t >= from && mid_t < to {
                w.add(self.bins[idx] * scale);
            }
        }
        w
    }
}

/// A reservoir of raw samples with summary helpers; used where the paper
/// reports mean (σ), e.g. RTT tables.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn add(&mut self, x: f64) {
        self.values.push(x);
    }

    /// All recorded values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Number of observations.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no observations were recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        let mut w = Welford::new();
        for &v in &self.values {
            w.add(v);
        }
        w.stddev()
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) by linear interpolation; 0 if empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let mut v = self.values.clone();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in samples"));
        percentile_sorted(&v, q).unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_naive() {
        let data = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Naive unbiased variance = 32/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let a_data = [1.0, 2.0, 3.0];
        let b_data = [10.0, 20.0, 30.0, 40.0];
        let mut a = Welford::new();
        let mut b = Welford::new();
        let mut all = Welford::new();
        for &x in &a_data {
            a.add(x);
            all.add(x);
        }
        for &x in &b_data {
            b.add(x);
            all.add(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert!((a.mean() - all.mean()).abs() < 1e-12);
        assert!((a.variance() - all.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Welford::new();
        a.add(1.0);
        a.add(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&Welford::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));

        let mut empty = Welford::new();
        let mut b = Welford::new();
        b.add(5.0);
        empty.merge(&b);
        assert_eq!(empty.count(), 1);
        assert_eq!(empty.mean(), 5.0);
    }

    #[test]
    fn t_table_values() {
        assert_eq!(t_crit_95(14), 2.145); // the paper's 15 runs
        assert_eq!(t_crit_95(1), 12.706);
        assert_eq!(t_crit_95(1_000), 1.96);
        assert!(t_crit_95(0).is_infinite());
    }

    #[test]
    fn checked_median_and_percentile() {
        // Empty: the old unchecked helper underflowed `n/2 - 1` here.
        assert_eq!(median_sorted(&[]), None);
        assert_eq!(percentile_sorted(&[], 0.5), None);
        // Single.
        assert_eq!(median_sorted(&[7.0]), Some(7.0));
        assert_eq!(percentile_sorted(&[7.0], 0.99), Some(7.0));
        // Even: mean of the middle pair.
        assert_eq!(median_sorted(&[1.0, 2.0, 3.0, 4.0]), Some(2.5));
        // Odd: the middle element.
        assert_eq!(median_sorted(&[1.0, 2.0, 4.0]), Some(2.0));
        // Percentile interpolates and clamps q.
        assert_eq!(percentile_sorted(&[0.0, 10.0], 0.25), Some(2.5));
        assert_eq!(percentile_sorted(&[0.0, 10.0], -1.0), Some(0.0));
        assert_eq!(percentile_sorted(&[0.0, 10.0], 2.0), Some(10.0));
    }

    #[test]
    fn welford_parts_round_trip() {
        let mut w = Welford::new();
        for x in [1.5, 2.5, -3.25] {
            w.add(x);
        }
        let (n, mean, m2) = w.parts();
        let back = Welford::from_parts(n, mean, m2);
        assert_eq!(back.count(), w.count());
        assert_eq!(back.mean().to_bits(), w.mean().to_bits());
        assert_eq!(back.variance().to_bits(), w.variance().to_bits());
    }

    #[test]
    fn welford_over_matches_mean_over() {
        let mut tb = TimeBinned::new(SimDuration::from_secs(1));
        for i in 0..10 {
            tb.add(SimTime::from_secs(i), (i + 1) as f64);
        }
        let w = tb.welford_over(SimTime::from_secs(2), SimTime::from_secs(5), 2.0);
        assert_eq!(w.count(), 3);
        assert_eq!(
            w.mean(),
            tb.mean_over(SimTime::from_secs(2), SimTime::from_secs(5), 2.0)
        );
        assert!(w.stddev() > 0.0);
    }

    #[test]
    fn ci_on_known_sample() {
        let s = [10.0, 12.0, 14.0, 16.0, 18.0];
        let (m, hw) = mean_ci95(&s);
        assert!((m - 14.0).abs() < 1e-12);
        // stddev = sqrt(10), se = sqrt(2), t(4) = 2.776
        assert!((hw - 2.776 * (2.0f64).sqrt()).abs() < 1e-9);
        assert_eq!(mean_ci95(&[5.0]), (5.0, 0.0));
        assert_eq!(mean_ci95(&[]), (0.0, 0.0));
    }

    #[test]
    fn time_binning() {
        let mut tb = TimeBinned::new(SimDuration::from_millis(500));
        tb.add(SimTime::from_millis(100), 10.0);
        tb.add(SimTime::from_millis(499), 5.0);
        tb.add(SimTime::from_millis(500), 2.0); // next bin
        tb.add(SimTime::from_millis(2600), 1.0); // bin 5
        assert_eq!(tb.len(), 6);
        assert_eq!(tb.bin_or_zero(0), 15.0);
        assert_eq!(tb.bin_or_zero(1), 2.0);
        assert_eq!(tb.bin_or_zero(2), 0.0);
        assert_eq!(tb.bin_or_zero(5), 1.0);
        assert_eq!(tb.bin_or_zero(99), 0.0);
        assert!((tb.bin_mid_secs(0) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn binned_mean_over_window() {
        let mut tb = TimeBinned::new(SimDuration::from_secs(1));
        for i in 0..10 {
            tb.add(SimTime::from_secs(i), (i + 1) as f64);
        }
        // Bins 2,3,4 have values 3,4,5 → mean 4; scale by 2 → 8.
        let m = tb.mean_over(SimTime::from_secs(2), SimTime::from_secs(5), 2.0);
        assert!((m - 8.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let mut s = Samples::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            s.add(v);
        }
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(0.5), 3.0);
        assert_eq!(s.quantile(1.0), 5.0);
        assert_eq!(s.quantile(0.25), 2.0);
        assert_eq!(s.mean(), 3.0);
        assert!(Samples::new().quantile(0.5) == 0.0);
    }

    #[test]
    fn zero_width_bins_panic() {
        let r = std::panic::catch_unwind(|| TimeBinned::new(SimDuration::ZERO));
        assert!(r.is_err());
    }
}
