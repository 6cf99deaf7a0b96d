//! Order statistics over small samples of host-time measurements.

use gsrepro_simcore::stats::median_sorted;

/// Ascending copy of `values` (total order; the benchmark never feeds NaN).
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    v
}

/// Median of an unsorted sample; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    median_sorted(&sorted(values))
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the "exclusive" method), because that is what the driver
/// that accepts or rejects this benchmark computes. `None` below two
/// samples, where Python raises.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(values);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Interquartile distance as a share of the median — the run-to-run spread
/// a bound is compared against. `None` below two samples or at median 0.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

/// Median, minimum, maximum and count of a sample, as per-run timings are
/// printed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub count: usize,
}

impl Summary {
    /// `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let v = sorted(values);
        Some(Summary {
            median: median_sorted(&v)?,
            min: v[0],
            max: v[v.len() - 1],
            count: v.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[2.0, 3.0, 1.0]), Some((1.0, 3.0)));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), Some((7.5, 22.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(spread(&ten), Some(5.5 / 5.5));
        assert_eq!(spread(&[0.0, 0.0, 0.0]), None);
        assert_eq!(spread(&[7.0]), None);
    }

    #[test]
    fn summary_reports_extremes_and_count() {
        let s = Summary::of(&[5.0, 1.0, 9.0]).unwrap();
        assert_eq!((s.median, s.min, s.max, s.count), (5.0, 1.0, 9.0, 3));
        assert!(Summary::of(&[]).is_none());
    }
}
