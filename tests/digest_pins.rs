//! Bit-identity pins: `chaos::digest` of four short runs — one Cubic and one
//! BBR contested cell, one solo cell, one jittered lossy AQM cell — so that
//! Tier-1 (`cargo test -q`) proves a speed-only change left simulated output
//! alone.
//! The contested values were recorded at commit 17802f1, before the TCP
//! sender's per-ack bookkeeping went O(1); the solo and AQM values at commit
//! 20b54c9, before netsim's unshaped hops stopped queueing. A deliberate
//! behaviour change re-records them and says so in CHANGES.md.
//!
//! Debug-profile runs also arm the sender's `debug_assert_eq!` cross-checks
//! of its maintained counters against a scan of the scoreboard, and
//! `checks = true` arms the netsim invariant oracles (their audit count is
//! in the digest).

use gsrepro_simcore::{SimDuration, SimTime};
use gsrepro_testbed::chaos::digest;
use gsrepro_testbed::config::{Aqm, Condition, PathScenario, Timeline};
use gsrepro_testbed::runner::run_condition_with;
use gsrepro_testbed::{CcaKind, SystemKind};

/// The x0.1 timeline, iteration 0, checks on.
fn digest_of(cond: Condition) -> u64 {
    let cond = cond.with_timeline(Timeline::scaled(0.1));
    run_condition_with(&cond, 0, None, true, digest)
}

fn pinned(system: SystemKind, cca: CcaKind, mbps: u64, queue_bdp: f64) -> u64 {
    digest_of(Condition::new(system, Some(cca), mbps, queue_bdp))
}

#[test]
fn cubic_contested_digest_is_pinned() {
    // The historical headline cell, luna-cubic-b25-q2.
    assert_eq!(
        pinned(SystemKind::Luna, CcaKind::Cubic, 25, 2.0),
        0xa9d9_4a6a_f0cd_2759,
        "luna-cubic-b25-q2 x0.1 digest moved: simulated output changed"
    );
}

#[test]
fn bbr_contested_digest_is_pinned() {
    // The slowest cell of the grid and the largest window, stadia-bbr-b35-q7.
    assert_eq!(
        pinned(SystemKind::Stadia, CcaKind::Bbr, 35, 7.0),
        0x0a8f_804f_6a45_f010,
        "stadia-bbr-b35-q7 x0.1 digest moved: simulated output changed"
    );
}

#[test]
fn solo_digest_is_pinned() {
    // No competitor: every packet crosses two unshaped hops and the
    // never-full drop-tail bottleneck.
    assert_eq!(
        digest_of(Condition::new(SystemKind::Stadia, None, 35, 2.0)),
        0x5ea8_6882_61ff_8fc8,
        "stadia-solo-b35-q2 x0.1 digest moved: simulated output changed"
    );
}

#[test]
fn jittered_lossy_aqm_digest_is_pinned() {
    // CoDel at the bottleneck, jitter draws on the unshaped WAN hop and a
    // loss window over the fairness period: every per-packet RNG draw of a
    // departure is live.
    let cond = Condition::new(SystemKind::Luna, Some(CcaKind::Bbr), 35, 0.5)
        .with_aqm(Aqm::CoDel)
        .with_wan_jitter(SimDuration::from_millis(2))
        .with_scenario(PathScenario::LossWindow {
            p: 0.02,
            from: SimTime::from_secs(22),
            to: SimTime::from_secs(34),
        });
    assert_eq!(
        digest_of(cond),
        0x0d2a_fd03_54f9_63ee,
        "luna-bbr-b35-q0.5 CoDel + jitter + loss window x0.1 digest moved: \
         simulated output changed"
    );
}
