//! The paper's derived metrics: response time, recovery time,
//! adaptiveness, fairness — plus Jain's index and the harm metric from the
//! future-work discussion.
//!
//! Definitions follow §4.2 of the paper exactly:
//!
//! * **response time** *C*: seconds from the competing flow's arrival until
//!   the game bitrate is within one standard deviation of its *adjusted*
//!   level (measured over the last minute of the competing period);
//! * **recovery time** *E*: seconds from the competing flow's departure
//!   until the bitrate is within one standard deviation of its *original*
//!   level (measured over the minute before arrival);
//! * **adaptiveness** `A = ½(1 − C/Cmax) + ½(1 − E/Emax)`, normalized by
//!   the maxima observed across the compared systems;
//! * **fairness**: `(game − tcp) / capacity` over the stable competing
//!   window, in `[-1, 1]` with 0 = equal share.

use gsrepro_simcore::{SimDuration, SimTime};

use crate::config::{Condition, Timeline};
use crate::runner::{bin_window, RunResult};

/// Centered moving average over `window` bins (window forced odd).
pub fn smooth(bins: &[f64], window: usize) -> Vec<f64> {
    let w = window.max(1) | 1;
    let half = w / 2;
    (0..bins.len())
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(bins.len());
            bins[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Outcome of a response- or recovery-time measurement.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SettleTime {
    /// Seconds until settled (capped at the window length if never).
    pub secs: f64,
    /// True if the bitrate never settled within the window — the paper's
    /// "Stadia never responds or recovers" cases.
    pub never: bool,
}

/// Settling time of any uniformly binned series after a disturbance:
/// seconds from `scan_from` until the 5 s-smoothed series first comes
/// within tolerance of `target_mean`, scanning up to `scan_to`. The
/// tolerance is `target_sd`, floored at 10% of the target (tiny σ over a
/// stable window would otherwise make "settled" unreachable) and at an
/// absolute 0.25. This is the paper's response/recovery rule lifted off
/// the game-bitrate series so dynamic-path analyses can apply it to RTT
/// and frame-rate series too.
///
/// Contract: `secs` is always ≥ 0 and at most the scan-window length.
/// A degenerate window (`scan_to <= scan_from`, e.g. a disturbance at the
/// very end of a trace) contains no bins to settle in, so it returns
/// `never: true` with `secs: 0.0` — it used to leak the *negative*
/// window length instead, which poisoned downstream adaptiveness means.
/// A window narrower than one bin may likewise contain no bin midpoint
/// and then reports `never` with the (sub-bin) window length.
pub fn settle_after(
    bins: &[f64],
    bin_width: SimDuration,
    scan_from: SimTime,
    scan_to: SimTime,
    target_mean: f64,
    target_sd: f64,
) -> SettleTime {
    let (f, t) = (scan_from.as_secs_f64(), scan_to.as_secs_f64());
    if t <= f {
        return SettleTime {
            secs: 0.0,
            never: true,
        };
    }
    let w = bin_width.as_secs_f64();
    let smoothed = smooth(bins, (5.0 / w).round() as usize);
    let tol = target_sd.max(0.1 * target_mean.abs()).max(0.25);
    for (i, &v) in smoothed.iter().enumerate() {
        let mid = (i as f64 + 0.5) * w;
        if mid < f || mid >= t {
            continue;
        }
        if (v - target_mean).abs() <= tol {
            return SettleTime {
                secs: mid - f,
                never: false,
            };
        }
    }
    SettleTime {
        secs: t - f,
        never: true,
    }
}

/// Target mean and σ of a binned series over `[from, to)`.
fn window_target(bins: &[f64], width: SimDuration, from: SimTime, to: SimTime) -> (f64, f64) {
    let s = bin_window(bins, width, from, to);
    (s.mean(), s.stddev())
}

/// Response time *C* from a borrowed bitrate series (Mb/s per bin) — the
/// allocation-light form the fleet campaign sink uses; identical math to
/// [`response_time`].
pub fn response_time_bins(bins: &[f64], width: SimDuration, tl: &Timeline) -> SettleTime {
    let (mean, sd) = window_target(bins, width, tl.adjusted_window.0, tl.adjusted_window.1);
    settle_after(bins, width, tl.iperf_start, tl.iperf_stop, mean, sd)
}

/// Recovery time *E* from a borrowed bitrate series (Mb/s per bin).
pub fn recovery_time_bins(bins: &[f64], width: SimDuration, tl: &Timeline) -> SettleTime {
    let (mean, sd) = window_target(bins, width, tl.original_window.0, tl.original_window.1);
    settle_after(bins, width, tl.iperf_stop, tl.end, mean, sd)
}

/// Response time *C* for one run.
pub fn response_time(run: &RunResult, tl: &Timeline) -> SettleTime {
    response_time_bins(&run.game_bins_mbps, run.bin_width, tl)
}

/// Recovery time *E* for one run.
pub fn recovery_time(run: &RunResult, tl: &Timeline) -> SettleTime {
    recovery_time_bins(&run.game_bins_mbps, run.bin_width, tl)
}

/// Adaptiveness `A` from response/recovery times and their maxima.
pub fn adaptiveness(c: f64, c_max: f64, e: f64, e_max: f64) -> f64 {
    let part = |x: f64, max: f64| {
        if max <= 0.0 {
            1.0
        } else {
            1.0 - (x / max).clamp(0.0, 1.0)
        }
    };
    0.5 * part(c, c_max) + 0.5 * part(e, e_max)
}

/// Fairness for one run: `(game − tcp) / capacity` over the stable window.
pub fn fairness(run: &RunResult, cond: &Condition) -> f64 {
    let tl = &cond.timeline;
    let game = run
        .game_window(tl.fairness_window.0, tl.fairness_window.1)
        .mean();
    let tcp = run
        .iperf_window(tl.fairness_window.0, tl.fairness_window.1)
        .mean();
    ((game - tcp) / cond.capacity.as_mbps()).clamp(-1.0, 1.0)
}

/// Jain's fairness index over per-flow throughputs.
pub fn jains_index(throughputs: &[f64]) -> f64 {
    let n = throughputs.len();
    if n == 0 {
        return 1.0;
    }
    let sum: f64 = throughputs.iter().sum();
    let sumsq: f64 = throughputs.iter().map(|x| x * x).sum();
    if sumsq <= 0.0 {
        return 1.0;
    }
    sum * sum / (n as f64 * sumsq)
}

/// Harm (Ware et al., HotNets '19): how much the competitor degraded the
/// game stream relative to its solo performance. `solo` and `contested`
/// are the same metric measured without and with the competitor; for
/// "more is better" metrics (throughput) harm is `(solo − contested) /
/// solo`; pass `more_is_better = false` for delay-like metrics.
pub fn harm(solo: f64, contested: f64, more_is_better: bool) -> f64 {
    if solo <= 0.0 {
        return 0.0;
    }
    let h = if more_is_better {
        (solo - contested) / solo
    } else {
        (contested - solo) / solo.max(1e-9)
    };
    h.max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_simcore::SimDuration;

    fn fake_run(bins: Vec<f64>, iperf: Vec<f64>) -> RunResult {
        RunResult {
            label: "test".into(),
            iter: 0,
            bin_width: SimDuration::from_millis(500),
            game_bins_mbps: bins,
            iperf_bins_mbps: iperf,
            rtt: vec![],
            fps_bin_width: SimDuration::from_secs(1),
            fps_bins: vec![],
            game_sent_bins: vec![],
            game_dropped_bins: vec![],
            game_loss_rate: 0.0,
            tcp_retransmissions: 0,
            tcp_delivered_bytes: 0,
            tcp_ce_marked: 0,
            tcp_queue_drops: 0,
            encoder_rate_mean: 0.0,
            events_processed: 0,
            past_clamps: 0,
            sched: Default::default(),
            checks_performed: 0,
            wall_secs: 0.0,
        }
    }

    /// A synthetic timeline: competitor over [20 s, 40 s), trace to 60 s.
    fn tl() -> Timeline {
        let s = |x: u64| SimTime::from_secs(x);
        Timeline {
            iperf_start: s(20),
            iperf_stop: s(40),
            end: s(60),
            original_window: (s(10), s(20)),
            adjusted_window: (s(30), s(40)),
            fairness_window: (s(25), s(40)),
        }
    }

    /// Bitrate 20 before, drops linearly to 10 between 20 s and 20+lag,
    /// stays 10 until 40 s, then climbs back to 20 over `rec` seconds.
    fn synthetic(lag: f64, rec: f64) -> RunResult {
        let mut bins = vec![];
        for i in 0..120 {
            let t = (i as f64 + 0.5) * 0.5;
            let v = if t < 20.0 {
                20.0
            } else if t < 20.0 + lag {
                20.0 - 10.0 * (t - 20.0) / lag
            } else if t < 40.0 {
                10.0
            } else if t < 40.0 + rec {
                10.0 + 10.0 * (t - 40.0) / rec
            } else {
                20.0
            };
            bins.push(v);
        }
        fake_run(bins, vec![0.0; 120])
    }

    #[test]
    fn smooth_preserves_constants() {
        let s = smooth(&[5.0; 20], 9);
        assert!(s.iter().all(|&v| (v - 5.0).abs() < 1e-12));
        assert_eq!(smooth(&[], 5).len(), 0);
    }

    #[test]
    fn settle_after_works_on_arbitrary_series() {
        // 1 s bins: 100 until t = 10 s, linear down to 50 by t = 15 s,
        // flat after — e.g. an RTT series reacting to a rate step.
        let mut bins = vec![];
        for i in 0..40 {
            let t = i as f64 + 0.5;
            bins.push(if t < 10.0 {
                100.0
            } else if t < 15.0 {
                100.0 - 10.0 * (t - 10.0)
            } else {
                50.0
            });
        }
        let st = settle_after(
            &bins,
            SimDuration::from_secs(1),
            SimTime::from_secs(10),
            SimTime::from_secs(40),
            50.0,
            1.0,
        );
        assert!(!st.never);
        assert!(st.secs > 3.0 && st.secs < 10.0, "settle {}", st.secs);

        // A series that never reaches the target is flagged and capped at
        // the scan-window length.
        let st = settle_after(
            &[100.0; 40],
            SimDuration::from_secs(1),
            SimTime::from_secs(10),
            SimTime::from_secs(40),
            50.0,
            1.0,
        );
        assert!(st.never);
        assert!((st.secs - 30.0).abs() < 1e-9);
    }

    #[test]
    fn settle_after_clamps_inverted_windows() {
        let bins = vec![10.0; 40];
        // Inverted window (scan_to < scan_from): no time to settle in.
        // Pre-fix this returned secs = -20 with never = true.
        let st = settle_after(
            &bins,
            SimDuration::from_secs(1),
            SimTime::from_secs(30),
            SimTime::from_secs(10),
            10.0,
            1.0,
        );
        assert!(st.never);
        assert_eq!(st.secs, 0.0, "inverted window must clamp to zero");

        // Empty window (scan_to == scan_from) is equally degenerate.
        let st = settle_after(
            &bins,
            SimDuration::from_secs(1),
            SimTime::from_secs(10),
            SimTime::from_secs(10),
            10.0,
            1.0,
        );
        assert!(st.never && st.secs == 0.0);

        // Sub-bin-width window that straddles no bin midpoint: nothing to
        // scan, so it never settles, with the (tiny, positive) window
        // length as the cap.
        let st = settle_after(
            &bins,
            SimDuration::from_secs(1),
            SimTime::from_millis(10_600),
            SimTime::from_millis(10_900),
            10.0,
            1.0,
        );
        assert!(st.never);
        assert!((st.secs - 0.3).abs() < 1e-9 && st.secs >= 0.0);
    }

    #[test]
    fn bins_settle_helpers_match_run_result_path() {
        let run = synthetic(4.0, 6.0);
        let tl = tl();
        let c = response_time(&run, &tl);
        let cb = response_time_bins(&run.game_bins_mbps, run.bin_width, &tl);
        assert_eq!(c, cb);
        let e = recovery_time(&run, &tl);
        let eb = recovery_time_bins(&run.game_bins_mbps, run.bin_width, &tl);
        assert_eq!(e, eb);
    }

    #[test]
    fn response_time_tracks_lag() {
        let fast = response_time(&synthetic(2.0, 5.0), &tl());
        let slow = response_time(&synthetic(12.0, 5.0), &tl());
        assert!(!fast.never && !slow.never);
        assert!(
            slow.secs > fast.secs + 5.0,
            "slow {} vs fast {}",
            slow.secs,
            fast.secs
        );
    }

    #[test]
    fn recovery_time_tracks_ramp() {
        let fast = recovery_time(&synthetic(2.0, 3.0), &tl());
        let slow = recovery_time(&synthetic(2.0, 15.0), &tl());
        assert!(!fast.never && !slow.never);
        assert!(
            slow.secs > fast.secs + 4.0,
            "slow {} fast {}",
            slow.secs,
            fast.secs
        );
    }

    #[test]
    fn never_settling_is_flagged_and_capped() {
        // Bitrate never approaches the adjusted level: stays at 20
        // throughout while the adjusted target is ~10.
        let mut bins = vec![20.0; 120];
        // adjusted window 30-40 s must still read ~10 to make the target.
        for b in bins.iter_mut().take(80).skip(60) {
            *b = 10.0;
        }
        // ...but the scan window [20, 40) sees 20s until bin 60 (t=30).
        // Use a run where the drop happens exactly at 30 s: response = 10 s.
        let r = fake_run(bins, vec![0.0; 120]);
        let st = response_time(&r, &tl());
        assert!(!st.never);
        // The 5 s centered smoothing delays the detected crossing a bit
        // past the true 10 s step.
        assert!((st.secs - 10.0).abs() < 3.5, "settled at {}", st.secs);

        // Truly never: flat 20, adjusted target extracted from same flat
        // trace is also 20 → settles immediately instead. So force a
        // different shape: constant 20 but adjusted window replaced by 5.
        let mut bins2 = vec![20.0; 120];
        for b in bins2.iter_mut().take(80).skip(60) {
            *b = 5.0;
        }
        // scan [20,40): bins 40..60 are 20 (far from 5), bins 60..80 are 5
        // → settles at t = 30 s → 10 s. For a *never* case cut the trace
        // short so the scan window has no bins near the target.
        let bins3: Vec<f64> = (0..120)
            .map(|i| if (60..80).contains(&i) { 5.0 } else { 20.0 })
            .collect();
        let _ = bins3;
        // Simplest never-case: target mean 5 (adjusted window) but scan
        // values all 20 — make adjusted window outside the scan range.
        let tl2 = Timeline {
            adjusted_window: (SimTime::from_secs(50), SimTime::from_secs(55)),
            ..tl()
        };
        let mut bins4 = vec![20.0; 120];
        for b in bins4.iter_mut().take(110).skip(100) {
            *b = 5.0;
        }
        let r4 = fake_run(bins4, vec![0.0; 120]);
        let st4 = response_time(&r4, &tl2);
        assert!(st4.never);
        assert_eq!(st4.secs, 20.0); // capped at window length
    }

    #[test]
    fn adaptiveness_bounds() {
        assert_eq!(adaptiveness(0.0, 10.0, 0.0, 10.0), 1.0);
        assert_eq!(adaptiveness(10.0, 10.0, 10.0, 10.0), 0.0);
        let a = adaptiveness(5.0, 10.0, 0.0, 10.0);
        assert!((a - 0.75).abs() < 1e-12);
        // Degenerate maxima treated as instantly adaptive.
        assert_eq!(adaptiveness(1.0, 0.0, 1.0, 0.0), 1.0);
    }

    #[test]
    fn fairness_sign_convention() {
        use crate::config::Condition;
        use gsrepro_gamestream::SystemKind;
        use gsrepro_tcp::CcaKind;
        let mut cond = Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 20, 2.0);
        cond.timeline = tl();
        // Game 15, TCP 5 → (15-5)/20 = +0.5.
        let r = fake_run(vec![15.0; 120], vec![5.0; 120]);
        assert!((fairness(&r, &cond) - 0.5).abs() < 1e-9);
        // Reverse: −0.5.
        let r = fake_run(vec![5.0; 120], vec![15.0; 120]);
        assert!((fairness(&r, &cond) + 0.5).abs() < 1e-9);
    }

    #[test]
    fn jains_index_properties() {
        // Equal shares: perfectly fair regardless of scale.
        assert_eq!(jains_index(&[10.0, 10.0]), 1.0);
        assert_eq!(jains_index(&[3.5, 3.5, 3.5, 3.5]), 1.0);
        let skew = jains_index(&[19.0, 1.0]);
        assert!(skew < 0.6);
        // Empty input and all-zero input degenerate to fair.
        assert_eq!(jains_index(&[]), 1.0);
        assert_eq!(jains_index(&[0.0, 0.0]), 1.0);
    }

    #[test]
    fn jains_index_single_flow_dominant() {
        // One flow holding everything scores exactly 1/n.
        let j3 = jains_index(&[42.0, 0.0, 0.0]);
        assert!((j3 - 1.0 / 3.0).abs() < 1e-12, "got {j3}");
        let j2 = jains_index(&[0.0, 7.5]);
        assert!((j2 - 0.5).abs() < 1e-12, "got {j2}");
        // Near-total dominance approaches the same floor from above.
        let near = jains_index(&[100.0, 0.001, 0.001]);
        assert!(near > 1.0 / 3.0 && near < 0.34, "got {near}");
    }

    #[test]
    fn harm_directions() {
        // Throughput halved → harm 0.5.
        assert!((harm(20.0, 10.0, true) - 0.5).abs() < 1e-12);
        // Delay doubled → harm 1.0.
        assert!((harm(20.0, 40.0, false) - 1.0).abs() < 1e-12);
        // Improvement is not negative harm.
        assert_eq!(harm(20.0, 25.0, true), 0.0);
        assert_eq!(harm(0.0, 10.0, true), 0.0);
    }
}
