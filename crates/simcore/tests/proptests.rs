//! Property-based tests for the DES engine's core invariants.

use gsrepro_simcore::stats::{mean_ci95, Samples, TimeBinned, Welford};
use gsrepro_simcore::{BitRate, Bytes, Engine, Scheduler, SimDuration, SimTime, World};
use proptest::prelude::*;

/// A world that records event delivery order.
struct Recorder {
    log: Vec<(u64, u32)>, // (time ns, tag)
}

impl World for Recorder {
    type Event = u32;
    fn handle(&mut self, event: u32, sched: &mut Scheduler<u32>) {
        self.log.push((sched.now().as_nanos(), event));
    }
}

proptest! {
    /// Events always fire in nondecreasing time order, and same-time
    /// events in scheduling order.
    #[test]
    fn engine_delivers_in_order(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler().schedule_at(SimTime::from_nanos(t), i as u32);
        }
        eng.run_to_completion(&mut w);
        prop_assert_eq!(w.log.len(), times.len());
        for pair in w.log.windows(2) {
            prop_assert!(pair[0].0 <= pair[1].0, "time went backwards");
            if pair[0].0 == pair[1].0 {
                prop_assert!(pair[0].1 < pair[1].1, "FIFO violated for same-time events");
            }
        }
    }

    /// run_until partitions time: no event at/after the boundary fires.
    #[test]
    fn run_until_half_open(times in prop::collection::vec(0u64..1000, 1..100), cut in 0u64..1000) {
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler().schedule_at(SimTime::from_nanos(t), i as u32);
        }
        eng.run_until(&mut w, SimTime::from_nanos(cut));
        let fired = w.log.len();
        let expected = times.iter().filter(|&&t| t < cut).count();
        prop_assert_eq!(fired, expected);
    }

    /// tx_time × rate round-trips to the byte count within rounding.
    #[test]
    fn tx_time_consistency(rate_kbps in 1u64..1_000_000, bytes in 1u64..100_000) {
        let r = BitRate::from_kbps(rate_kbps);
        let t = r.tx_time(Bytes(bytes));
        let back = r.bytes_in(t);
        // Rounding loses at most one byte plus 1ns worth of rate.
        let slack = 2 + rate_kbps / 8_000_000 + 1;
        prop_assert!(
            back.as_u64() <= bytes && bytes - back.as_u64() <= slack,
            "bytes {} -> {} (slack {})", bytes, back.as_u64(), slack
        );
    }

    /// BDP is monotonic in both rate and RTT.
    #[test]
    fn bdp_monotonic(r1 in 1u64..1_000, r2 in 1u64..1_000, ms in 1u64..1_000) {
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let d = SimDuration::from_millis(ms);
        prop_assert!(
            BitRate::from_mbps(lo).bdp(d) <= BitRate::from_mbps(hi).bdp(d)
        );
        prop_assert!(
            BitRate::from_mbps(lo).bdp(d) <= BitRate::from_mbps(lo).bdp(d * 2)
        );
    }

    /// Welford mean/σ agree with naive two-pass computation.
    #[test]
    fn welford_matches_naive(data in prop::collection::vec(-1e6f64..1e6, 2..200)) {
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        prop_assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert!((w.variance() - var).abs() < 1e-5 * (1.0 + var));
    }

    /// TimeBinned conserves mass: sum of bins = sum of inputs.
    #[test]
    fn binning_conserves_mass(
        points in prop::collection::vec((0u64..100_000u64, 0f64..1e6), 1..200)
    ) {
        let mut tb = TimeBinned::new(SimDuration::from_millis(500));
        let mut total = 0.0;
        for &(at_us, v) in &points {
            tb.add(SimTime::from_nanos(at_us * 1_000), v);
            total += v;
        }
        let binned: f64 = tb.bins().iter().sum();
        prop_assert!((binned - total).abs() < 1e-6 * (1.0 + total));
    }

    /// CI half-width shrinks (weakly) with more of the same data.
    #[test]
    fn ci_shrinks_with_n(base in prop::collection::vec(0f64..100.0, 4..20)) {
        let (_, hw1) = mean_ci95(&base);
        let mut doubled = base.clone();
        doubled.extend_from_slice(&base);
        let (_, hw2) = mean_ci95(&doubled);
        prop_assert!(hw2 <= hw1 + 1e-9, "CI grew: {} -> {}", hw1, hw2);
    }

    /// Quantile is within the sample range and monotone in q.
    #[test]
    fn samples_quantile_bounds(data in prop::collection::vec(-1e3f64..1e3, 1..100)) {
        let mut s = Samples::new();
        for &x in &data {
            s.add(x);
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let v = s.quantile(q);
            prop_assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        prop_assert!(s.quantile(0.2) <= s.quantile(0.8) + 1e-9);
    }
}
