//! Windowed extremum over a sliding key window — the one filter behind
//! BBR's `btl_bw` (max of delivery-rate samples over ten round trips) and
//! `rt_prop` (min of RTT samples over ten seconds), in both `bbr` and
//! `bbr2`.
//!
//! A monotonic deque: a sample that a later one beats or ties can never be
//! the extremum again (the later one outlives it), so it is dropped on
//! push. What remains is ascending in key and strictly worsening in value
//! from front to back; the front *is* the extremum of every sample still in
//! the window. Push and evict are O(1) amortised and the answer is exact —
//! identical to keeping every sample and rescanning — **provided keys never
//! decrease**, which `push` asserts in debug builds.

use std::cmp::Ordering;
use std::collections::VecDeque;

/// Exact running max (or min) of `(key, value)` samples whose key is at or
/// above a moving lower bound.
pub(crate) struct WindowedExtremum<K, V> {
    samples: VecDeque<(K, V)>,
    /// How a surviving older sample compares to any newer one: `Greater`
    /// for a max filter, `Less` for a min filter.
    keep: Ordering,
}

impl<K: Copy + PartialOrd, V: Copy + Ord> WindowedExtremum<K, V> {
    /// A filter whose [`best`](Self::best) is the largest value in the window.
    pub(crate) fn max() -> Self {
        WindowedExtremum {
            samples: VecDeque::new(),
            keep: Ordering::Greater,
        }
    }

    /// A filter whose [`best`](Self::best) is the smallest value in the window.
    pub(crate) fn min() -> Self {
        WindowedExtremum {
            samples: VecDeque::new(),
            keep: Ordering::Less,
        }
    }

    /// Add a sample. `key` must not be below any key pushed since the last
    /// [`clear`](Self::clear).
    pub(crate) fn push(&mut self, key: K, value: V) {
        debug_assert!(
            self.samples.back().is_none_or(|&(k, _)| k <= key),
            "windowed-extremum keys must be non-decreasing"
        );
        while self
            .samples
            .back()
            .is_some_and(|&(_, v)| v.cmp(&value) != self.keep)
        {
            self.samples.pop_back();
        }
        self.samples.push_back((key, value));
    }

    /// Slide the window: forget every sample whose key is below `low`.
    pub(crate) fn evict_below(&mut self, low: K) {
        while self.samples.front().is_some_and(|&(k, _)| k < low) {
            self.samples.pop_front();
        }
    }

    /// The extremum of the samples in the window, `None` when it is empty.
    pub(crate) fn best(&self) -> Option<V> {
        self.samples.front().map(|&(_, v)| v)
    }

    /// Forget everything (the next push may restart the keys anywhere).
    pub(crate) fn clear(&mut self) {
        self.samples.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_simcore::rng::{for_each_case, Rng, SimRng};

    /// The filters this type replaced: keep every sample, `retain` the
    /// window, rescan for the extremum.
    struct BruteForce {
        samples: Vec<(u64, u64)>,
        want_max: bool,
    }

    impl BruteForce {
        fn step(&mut self, key: u64, value: Option<u64>, low: u64) -> Option<u64> {
            if let Some(v) = value {
                self.samples.push((key, v));
            }
            self.samples.retain(|&(k, _)| k >= low);
            let values = self.samples.iter().map(|&(_, v)| v);
            if self.want_max {
                values.max()
            } else {
                values.min()
            }
        }
    }

    /// Drive both with the same stream. Each step advances the key by
    /// `dk` (0 repeats it), offers `value` unless `skip` (BBR drops
    /// app-limited samples that would not raise the estimate, but still
    /// slides the window), and evicts below `key - window` exactly as
    /// `update_btl_bw` does.
    fn check(want_max: bool, window: u64, steps: &[(u64, u64, bool)]) {
        let mut fast = if want_max {
            WindowedExtremum::max()
        } else {
            WindowedExtremum::min()
        };
        let mut brute = BruteForce {
            samples: Vec::new(),
            want_max,
        };
        let mut key = 0u64;
        for &(dk, value, skip) in steps {
            key += dk;
            let low = key.saturating_sub(window);
            if !skip {
                fast.push(key, value);
            }
            fast.evict_below(low);
            let expect = brute.step(key, (!skip).then_some(value), low);
            assert_eq!(fast.best(), expect, "key {key} low {low}");
            // The point of the exercise: dominated samples are gone.
            assert!(fast.samples.len() <= brute.samples.len());
        }
    }

    /// Up to `len - 1` steps of `(dk < dk_end, value < value_end, skip)`,
    /// the count drawn first.
    fn steps(rng: &mut SimRng, dk_end: u64, value_end: u64, len: usize) -> Vec<(u64, u64, bool)> {
        let n = rng.gen_range(1..len);
        (0..n)
            .map(|_| {
                (
                    rng.gen_range(0..dk_end),
                    rng.gen_range(0..value_end),
                    rng.gen(),
                )
            })
            .collect()
    }

    /// Few distinct values and many zero key steps: ties, repeated
    /// keys and long dominated runs.
    #[test]
    fn matches_brute_force_max() {
        for_each_case("matches_brute_force_max", 256, |rng| {
            let window = rng.gen_range(0u64..12);
            let steps = steps(rng, 3, 8, 200);
            check(true, window, &steps);
        });
    }

    #[test]
    fn matches_brute_force_min() {
        for_each_case("matches_brute_force_min", 256, |rng| {
            let window = rng.gen_range(0u64..12);
            let steps = steps(rng, 3, 8, 200);
            check(false, window, &steps);
        });
    }

    /// Key jumps longer than the window empty it between samples.
    #[test]
    fn matches_brute_force_across_gaps() {
        for_each_case("matches_brute_force_across_gaps", 256, |rng| {
            let window = rng.gen_range(1u64..6);
            let steps = steps(rng, 20, 1_000, 100);
            check(true, window, &steps);
            check(false, window, &steps);
        });
    }

    #[test]
    fn eviction_boundary_is_inclusive() {
        // A sample exactly `window` keys old is still in the window (BBR:
        // `r >= round - 10`), one key older is not.
        let mut f = WindowedExtremum::max();
        f.push(5u64, 100u64);
        f.push(6, 50);
        f.evict_below(5);
        assert_eq!(f.best(), Some(100));
        f.evict_below(6);
        assert_eq!(f.best(), Some(50));
        f.evict_below(7);
        assert_eq!(f.best(), None);
    }

    #[test]
    fn a_tie_keeps_the_newer_sample() {
        // The newer of two equal values outlives the older one, so the
        // extremum must survive the older one's eviction.
        let mut f = WindowedExtremum::min();
        f.push(1u64, 7u64);
        f.push(2, 7);
        f.evict_below(2);
        assert_eq!(f.best(), Some(7));
    }

    #[test]
    fn clear_restarts_the_keys() {
        let mut f = WindowedExtremum::min();
        f.push(10u64, 3u64);
        f.clear();
        assert_eq!(f.best(), None);
        f.push(1, 9);
        assert_eq!(f.best(), Some(9));
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-decreasing")]
    fn a_decreasing_key_is_caught_in_debug_builds() {
        let mut f = WindowedExtremum::max();
        f.push(2u64, 1u64);
        f.push(1, 1);
    }
}
