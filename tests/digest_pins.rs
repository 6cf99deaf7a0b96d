//! Bit-identity pins: `chaos::digest` of one short Cubic and one short BBR
//! contested run, so that Tier-1 (`cargo test -q`) proves a speed-only
//! change left simulated output alone.
//! The values were recorded at commit 17802f1, before the TCP sender's
//! per-ack bookkeeping went O(1); a deliberate behaviour change re-records
//! them and says so in CHANGES.md.
//!
//! Debug-profile runs also arm the sender's `debug_assert_eq!` cross-checks
//! of its maintained counters against a scan of the scoreboard, and
//! `checks = true` arms the netsim invariant oracles (their audit count is
//! in the digest).

use gsrepro_testbed::chaos::digest;
use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::runner::run_condition_with;
use gsrepro_testbed::{CcaKind, SystemKind};

fn pinned(system: SystemKind, cca: CcaKind, mbps: u64, queue_bdp: f64) -> u64 {
    let cond =
        Condition::new(system, Some(cca), mbps, queue_bdp).with_timeline(Timeline::scaled(0.1));
    run_condition_with(&cond, 0, None, true, digest)
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
