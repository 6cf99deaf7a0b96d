//! Property-based tests for the DES engine's core invariants.

use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::stats::{mean_ci95, Samples, TimeBinned, Welford};
use gsrepro_simcore::{BitRate, Bytes, Engine, Scheduler, SimDuration, SimTime, World};

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

/// Events always fire in nondecreasing time order, and same-time
/// events in scheduling order.
#[test]
fn engine_delivers_in_order() {
    for_each_case("engine_delivers_in_order", 32, |rng| {
        let n = rng.gen_range(1..200usize);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1_000_000)).collect();
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler()
                .schedule_at(SimTime::from_nanos(t), i as u32);
        }
        eng.run_to_completion(&mut w);
        assert_eq!(w.log.len(), times.len());
        for pair in w.log.windows(2) {
            assert!(pair[0].0 <= pair[1].0, "time went backwards");
            if pair[0].0 == pair[1].0 {
                assert!(pair[0].1 < pair[1].1, "FIFO violated for same-time events");
            }
        }
    });
}

/// run_until partitions time: no event at/after the boundary fires.
#[test]
fn run_until_half_open() {
    for_each_case("run_until_half_open", 32, |rng| {
        let n = rng.gen_range(1..100usize);
        let times: Vec<u64> = (0..n).map(|_| rng.gen_range(0..1000)).collect();
        let cut = rng.gen_range(0u64..1000);
        let mut w = Recorder { log: vec![] };
        let mut eng = Engine::new();
        for (i, &t) in times.iter().enumerate() {
            eng.scheduler()
                .schedule_at(SimTime::from_nanos(t), i as u32);
        }
        eng.run_until(&mut w, SimTime::from_nanos(cut));
        let fired = w.log.len();
        let expected = times.iter().filter(|&&t| t < cut).count();
        assert_eq!(fired, expected);
    });
}

/// tx_time × rate round-trips to the byte count within rounding.
#[test]
fn tx_time_consistency() {
    for_each_case("tx_time_consistency", 32, |rng| {
        let rate_kbps = rng.gen_range(1u64..1_000_000);
        let bytes = rng.gen_range(1u64..100_000);
        let r = BitRate::from_kbps(rate_kbps);
        let t = r.tx_time(Bytes(bytes));
        let back = r.bytes_in(t);
        // Rounding loses at most one byte plus 1ns worth of rate.
        let slack = 2 + rate_kbps / 8_000_000 + 1;
        assert!(
            back.as_u64() <= bytes && bytes - back.as_u64() <= slack,
            "bytes {} -> {} (slack {})",
            bytes,
            back.as_u64(),
            slack
        );
    });
}

/// BDP is monotonic in both rate and RTT.
#[test]
fn bdp_monotonic() {
    for_each_case("bdp_monotonic", 32, |rng| {
        let r1 = rng.gen_range(1u64..1_000);
        let r2 = rng.gen_range(1u64..1_000);
        let ms = rng.gen_range(1u64..1_000);
        let (lo, hi) = (r1.min(r2), r1.max(r2));
        let d = SimDuration::from_millis(ms);
        assert!(BitRate::from_mbps(lo).bdp(d) <= BitRate::from_mbps(hi).bdp(d));
        assert!(BitRate::from_mbps(lo).bdp(d) <= BitRate::from_mbps(lo).bdp(d * 2));
    });
}

/// Welford mean/σ agree with naive two-pass computation.
#[test]
fn welford_matches_naive() {
    for_each_case("welford_matches_naive", 32, |rng| {
        let n = rng.gen_range(2..200usize);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e6..1e6)).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.add(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        assert!((w.variance() - var).abs() < 1e-5 * (1.0 + var));
    });
}

/// TimeBinned conserves mass: sum of bins = sum of inputs.
#[test]
fn binning_conserves_mass() {
    for_each_case("binning_conserves_mass", 32, |rng| {
        let n = rng.gen_range(1..200usize);
        let points: Vec<(u64, f64)> = (0..n)
            .map(|_| (rng.gen_range(0..100_000), rng.gen_range(0.0..1e6)))
            .collect();
        let mut tb = TimeBinned::new(SimDuration::from_millis(500));
        let mut total = 0.0;
        for &(at_us, v) in &points {
            tb.add(SimTime::from_nanos(at_us * 1_000), v);
            total += v;
        }
        let binned: f64 = tb.bins().iter().sum();
        assert!((binned - total).abs() < 1e-6 * (1.0 + total));
    });
}

/// CI half-width shrinks (weakly) with more of the same data.
#[test]
fn ci_shrinks_with_n() {
    for_each_case("ci_shrinks_with_n", 32, |rng| {
        let n = rng.gen_range(4..20usize);
        let base: Vec<f64> = (0..n).map(|_| rng.gen_range(0.0..100.0)).collect();
        let (_, hw1) = mean_ci95(&base);
        let mut doubled = base.clone();
        doubled.extend_from_slice(&base);
        let (_, hw2) = mean_ci95(&doubled);
        assert!(hw2 <= hw1 + 1e-9, "CI grew: {} -> {}", hw1, hw2);
    });
}

/// Quantile is within the sample range and monotone in q.
#[test]
fn samples_quantile_bounds() {
    for_each_case("samples_quantile_bounds", 32, |rng| {
        let n = rng.gen_range(1..100usize);
        let data: Vec<f64> = (0..n).map(|_| rng.gen_range(-1e3..1e3)).collect();
        let mut s = Samples::new();
        for &x in &data {
            s.add(x);
        }
        let lo = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        for q in [0.0, 0.1, 0.5, 0.9, 1.0] {
            let v = s.quantile(q);
            assert!(v >= lo - 1e-9 && v <= hi + 1e-9);
        }
        assert!(s.quantile(0.2) <= s.quantile(0.8) + 1e-9);
    });
}
