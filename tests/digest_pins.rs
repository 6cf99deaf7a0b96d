//! Bit-identity pins: `chaos::digest` of five short runs — one Cubic, one
//! BBR and one BBRv2 contested cell, one solo cell, one jittered lossy AQM
//! cell — and the goodput bit patterns of the two off-grid dumbbells
//! (`model::run_bulk_cell`, `ablation::bbr_cwnd_gain`), so that Tier-1
//! (`cargo test -q`) proves a speed-only or structure-only change left
//! simulated output alone.
//! Scoreboard epoch: the TCP sender's scoreboard went sequence-ordered
//! (`tcp::scoreboard`), which defines the retransmission pick (lowest lost
//! sequence) and the rate sample's tie-break (most recently sent) by rule —
//! a deliberate behaviour change. The Cubic contested cell, the jittered
//! lossy AQM cell and both dumbbells were re-recorded with it (old → new in
//! CHANGES.md); the three that did not move keep their earlier values: the
//! BBR contested cell from commit 17802f1, before the sender's per-ack
//! bookkeeping went O(1); the solo cell from 20b54c9, before netsim's
//! unshaped hops stopped queueing; the BBRv2 cell from 5d2b4b7, before the
//! dumbbells were built by `NetworkBuilder::dumbbell` + `connect`. The next
//! deliberate behaviour change re-records them and says so in CHANGES.md.
//!
//! Hop epoch: counts only. The testbed's zero-delay client hops went (the
//! client agents live on the bottleneck's far node), so every testbed run
//! handles fewer events and its oracles audit fewer hops. The five testbed
//! pins were re-recorded for `events_processed` and `checks_performed`
//! alone: with those two masked out, each digest was what it was before on
//! the 90 conditions and the 200 chaos trials that CHANGES.md's hop-epoch
//! entry lists (old → new there too). The two dumbbell pins did not move.
//!
//! Debug-profile runs also arm the scoreboard's `debug_assert!` audit of
//! its order and maintained counters against a full scan, and
//! `checks = true` arms the netsim invariant oracles (their audit count is
//! in the digest).

use gsrepro_simcore::{SimDuration, SimTime};
use gsrepro_testbed::ablation::bbr_cwnd_gain;
use gsrepro_testbed::chaos::digest;
use gsrepro_testbed::config::{Aqm, Condition, PathScenario, Timeline};
use gsrepro_testbed::model::{run_bulk_cell, BulkCell};
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
        0x8ec5_ffe4_b550_4b64,
        "luna-cubic-b25-q2 x0.1 digest moved: simulated output changed"
    );
}

#[test]
fn bbr_contested_digest_is_pinned() {
    // The slowest cell of the grid and the largest window, stadia-bbr-b35-q7.
    assert_eq!(
        pinned(SystemKind::Stadia, CcaKind::Bbr, 35, 7.0),
        0x8eba_5775_1fc8_7ddb,
        "stadia-bbr-b35-q7 x0.1 digest moved: simulated output changed"
    );
}

#[test]
fn solo_digest_is_pinned() {
    // No competitor: media crosses one unshaped hop and the never-full
    // drop-tail bottleneck, cutting through it whenever the bucket covers
    // the packet.
    assert_eq!(
        digest_of(Condition::new(SystemKind::Stadia, None, 35, 2.0)),
        0xafcb_cdc1_1199_9633,
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
        0x9e70_69e6_085a_191d,
        "luna-bbr-b35-q0.5 CoDel + jitter + loss window x0.1 digest moved: \
         simulated output changed"
    );
}

#[test]
fn bbr2_ecn_digest_is_pinned() {
    // BBRv2 is the one ECN-capable CCA: over CoDel its packets are CE-marked
    // instead of dropped, so this cell runs `bbr2.rs` and its `on_ecn`.
    let cond = Condition::new(SystemKind::Luna, Some(CcaKind::Bbr2), 25, 2.0).with_aqm(Aqm::CoDel);
    assert_eq!(
        digest_of(cond),
        0x9404_0d8a_c8a0_4528,
        "luna-bbr2-b25-q2-codel x0.1 digest moved: simulated output changed"
    );
}

fn bits(xs: &[f64]) -> Vec<u64> {
    xs.iter().map(|x| x.to_bits()).collect()
}

#[test]
fn bulk_cell_goodputs_are_pinned() {
    // The model oracle's dumbbell: two Cubic flows against one BBR flow for
    // 20 s, checks on, with stock BBR and with the perturbed `cwnd_gain = 4`.
    let cell = BulkCell {
        capacity_mbps: 25,
        base_rtt: SimDuration::from_micros(16_500),
        queue_mult: 2.0,
        n_cubic: 2,
    };
    let goodputs =
        |gain| bits(&run_bulk_cell(&cell, SimDuration::from_secs(20), true, gain).goodputs_mbps);
    assert_eq!(
        goodputs(None),
        [
            0x4013_ab90_3c22_c5ff,
            0x4013_69bd_32fb_d5ce,
            0x402d_d7e4_5803_cd14
        ],
        "stock model/c25q2r16.5n2 goodputs moved: simulated output changed"
    );
    assert_eq!(
        goodputs(Some(4.0)),
        [
            0x3ff6_b8ec_4538_1874,
            0x3ff9_686b_fa24_1dec,
            0x4035_a8c9_b845_564d
        ],
        "cwnd_gain = 4 model/c25q2r16.5n2 goodputs moved: simulated output changed"
    );
}

#[test]
fn cwnd_gain_ablation_cell_is_pinned() {
    let cells = bbr_cwnd_gain(&[2.0], 7.0, 20, 5);
    assert_eq!(
        bits(&[cells[0].bbr_share, cells[0].rtt_ms]),
        [0x3fdb_39ff_9ed6_00f2, 0x4058_a45f_76ba_e737],
        "D3 ablation cell (gain 2, 7x BDP, 20 s, seed 5) moved: simulated output changed"
    );
}
