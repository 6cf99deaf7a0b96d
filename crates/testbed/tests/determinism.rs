//! Regression tests for the testbed's reproducibility guarantees: the same
//! (condition, iteration) seed must produce bit-identical results, and the
//! thread count used to execute a grid must never leak into the numbers.
//! These pin the invariants the scheduler fast lane and the packet pool
//! must preserve — any hidden ordering or shared-state dependency shows up
//! here as a diff.

use gsrepro_gamestream::SystemKind;
use gsrepro_simcore::{BitRate, SimTime};
use gsrepro_tcp::CcaKind;
use gsrepro_testbed::config::{Condition, PathScenario, Timeline};
use gsrepro_testbed::runner::{run_condition_with, run_many_full, RunResult};

fn quick_cond(system: SystemKind, cca: CcaKind) -> Condition {
    Condition::new(system, Some(cca), 15, 2.0).with_timeline(Timeline::scaled(0.06))
}

/// Compare every deterministic field of two runs. `wall_secs` is wall-clock
/// measurement and is deliberately excluded.
fn assert_runs_identical(a: &RunResult, b: &RunResult, what: &str) {
    assert_eq!(a.label, b.label, "{what}: label");
    assert_eq!(a.iter, b.iter, "{what}: iter");
    assert_eq!(a.game_bins_mbps, b.game_bins_mbps, "{what}: game bins");
    assert_eq!(a.iperf_bins_mbps, b.iperf_bins_mbps, "{what}: iperf bins");
    assert_eq!(a.rtt, b.rtt, "{what}: rtt samples");
    assert_eq!(a.fps_bins, b.fps_bins, "{what}: fps bins");
    assert_eq!(a.game_sent_bins, b.game_sent_bins, "{what}: sent bins");
    assert_eq!(
        a.game_dropped_bins, b.game_dropped_bins,
        "{what}: dropped bins"
    );
    assert_eq!(a.game_loss_rate, b.game_loss_rate, "{what}: loss rate");
    assert_eq!(
        a.tcp_retransmissions, b.tcp_retransmissions,
        "{what}: tcp retransmissions"
    );
    assert_eq!(
        a.tcp_delivered_bytes, b.tcp_delivered_bytes,
        "{what}: tcp delivered bytes"
    );
    assert_eq!(
        a.encoder_rate_mean, b.encoder_rate_mean,
        "{what}: encoder rate"
    );
    assert_eq!(
        a.events_processed, b.events_processed,
        "{what}: events processed"
    );
}

#[test]
fn same_seed_is_bit_identical() {
    let cond = quick_cond(SystemKind::Luna, CcaKind::Cubic);
    let a = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    let b = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    assert_runs_identical(&a, &b, "repeat run, iter 0");
    assert!(a.events_processed > 0, "run must process events");
    assert!(a.wall_secs > 0.0, "run must record wall time");
}

#[test]
fn thread_count_never_changes_results() {
    // A small mixed grid: two systems × two CCAs exercises both TCP paths
    // and both media envelopes through the parallel runner.
    let conditions = vec![
        quick_cond(SystemKind::Luna, CcaKind::Cubic),
        quick_cond(SystemKind::Stadia, CcaKind::Bbr),
    ];
    let serial = run_many_full(&conditions, 2, 1, None, false);
    let parallel = run_many_full(&conditions, 2, 4, None, false);
    assert_eq!(serial.len(), parallel.len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.condition.label(), p.condition.label());
        assert_eq!(s.runs.len(), p.runs.len());
        for (sr, pr) in s.runs.iter().zip(&p.runs) {
            let what = format!("{} iter {}", sr.label, sr.iter);
            assert_runs_identical(sr, pr, &what);
        }
    }
}

/// A scenario condition for the matrix below: Stadia vs BBR on a path
/// that steps down to 10 Mb/s across the middle of the (scaled) run.
fn scenario_cond() -> Condition {
    let tl = Timeline::scaled(0.06);
    let frac = |f: f64| SimTime::from_millis((tl.end.as_secs_f64() * f * 1000.0) as u64);
    Condition::new(SystemKind::Stadia, Some(CcaKind::Bbr), 25, 2.0)
        .with_timeline(tl)
        .with_scenario(PathScenario::RateStep {
            rate: BitRate::from_mbps(10),
            from: frac(0.35),
            to: frac(0.70),
        })
}

/// The full determinism matrix: {static, scenario} × {checks off, on} ×
/// {1, 4 worker threads}. The invariant oracles only observe — they
/// consume no randomness and schedule no events — so a checked run must
/// be bit-identical to an unchecked one; the only permitted difference
/// is the audit-evidence counter. Likewise the thread count used to
/// execute a grid must never leak into the numbers, with or without the
/// oracles watching.
#[test]
fn checks_and_threads_never_change_results() {
    // Per-run axis: checks on vs off, static and scenario paths.
    for cond in [
        quick_cond(SystemKind::Luna, CcaKind::Cubic),
        scenario_cond(),
    ] {
        let plain = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let checked = run_condition_with(&cond, 0, None, true, |v| v.to_result());
        let what = format!("{} checks on/off", cond.label());
        assert_runs_identical(&plain, &checked, &what);
        assert_eq!(
            plain.checks_performed, 0,
            "{what}: unchecked run must not audit"
        );
        assert!(
            checked.checks_performed > 0,
            "{what}: checked run gathered no audit evidence"
        );
    }

    // Grid axis: every (threads, checks) cell matches the serial
    // unchecked baseline, run for run.
    let conditions = vec![
        quick_cond(SystemKind::Luna, CcaKind::Cubic),
        scenario_cond(),
    ];
    let baseline = run_many_full(&conditions, 2, 1, None, false);
    for (threads, checks) in [(1, true), (4, false), (4, true)] {
        let cell = run_many_full(&conditions, 2, threads, None, checks);
        assert_eq!(baseline.len(), cell.len());
        for (b, o) in baseline.iter().zip(&cell) {
            assert_eq!(b.condition.label(), o.condition.label());
            for (br, or) in b.runs.iter().zip(&o.runs) {
                let what = format!(
                    "{} iter {} ({threads} threads, checks={checks})",
                    br.label, br.iter
                );
                assert_runs_identical(br, or, &what);
            }
        }
    }
}
