//! Cross-crate integration: the full testbed pipeline (gamestream + tcp +
//! netsim + testbed harness) on shortened timelines, checking the
//! qualitative structure every paper figure relies on.

use gsrepro_simcore::SimTime;
use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::{metrics, run_condition_with, CcaKind, SystemKind};

/// Shared short timeline: 54 s runs, competitor during the middle third.
fn tl() -> Timeline {
    Timeline::scaled(0.1)
}

#[test]
fn game_yields_when_tcp_arrives_and_recovers_after() {
    // Luna is the clear yielder-and-recoverer vs Cubic (Stadia, per the
    // paper and our Figure 3, barely yields at a 2x queue).
    let cond = Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0).with_timeline(tl());
    let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    let t = cond.timeline;

    let before = r
        .game_window(t.original_window.0, t.original_window.1)
        .mean();
    let during = r
        .game_window(t.adjusted_window.0, t.adjusted_window.1)
        .mean();
    let rec = t.recovery_window();
    let half = SimTime::from_nanos((rec.0.as_nanos() + rec.1.as_nanos()) / 2);
    let after = r.game_window(half, rec.1).mean();

    assert!(before > 20.0, "pre-competitor bitrate {before}");
    assert!(
        during < before - 5.0,
        "must yield to TCP: {during} !< {before}"
    );
    assert!(
        after > during + 3.0,
        "must recover afterwards: {after} !> {during}"
    );
}

#[test]
fn tcp_flow_gets_capacity_while_active_only() {
    let cond = Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0).with_timeline(tl());
    let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    let t = cond.timeline;

    let before = r
        .iperf_window(t.original_window.0, t.original_window.1)
        .mean();
    let during = r
        .iperf_window(t.fairness_window.0, t.fairness_window.1)
        .mean();
    let rec = t.recovery_window();
    let after = r.iperf_window(rec.0 + (rec.1 - rec.0) / 2, rec.1).mean();

    assert!(before < 0.1, "no TCP before start: {before}");
    assert!(during > 5.0, "TCP must get real throughput: {during}");
    assert!(after < 1.0, "TCP should drain after stop: {after}");
}

#[test]
fn link_is_never_overfilled() {
    // The sum of the two flows can never exceed the bottleneck capacity
    // (plus one bin of slack for burst alignment).
    for cca in [CcaKind::Cubic, CcaKind::Bbr] {
        let cond = Condition::new(SystemKind::Stadia, Some(cca), 15, 0.5).with_timeline(tl());
        let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        for i in 0..r.game_bins_mbps.len() {
            let total = r.game_bins_mbps[i] + r.iperf_bins_mbps.get(i).copied().unwrap_or(0.0);
            assert!(
                total < 15.0 * 1.15,
                "bin {i}: combined goodput {total} exceeds capacity ({cca})"
            );
        }
    }
}

#[test]
fn rtt_rises_under_cubic_competition_with_big_queue() {
    let cond =
        Condition::new(SystemKind::GeForce, Some(CcaKind::Cubic), 25, 7.0).with_timeline(tl());
    let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    let t = cond.timeline;
    let solo = r
        .rtt_window(t.original_window.0, t.original_window.1)
        .mean();
    let contested = r.rtt_window(t.iperf_start, t.iperf_stop).mean();
    assert!(solo < 30.0, "solo RTT {solo}");
    // 7x BDP at 25 Mb/s ≈ 115 ms of queueing when full: Cubic keeps it
    // high. Even in a shortened run it must be far above solo.
    assert!(
        contested > solo + 40.0,
        "cubic must bloat the queue: {contested} vs solo {solo}"
    );
}

#[test]
fn bbr_limits_queueing_relative_to_cubic_at_7x() {
    let mk = |cca| {
        let cond = Condition::new(SystemKind::GeForce, Some(cca), 25, 7.0).with_timeline(tl());
        let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let t = cond.timeline;
        r.rtt_window(t.iperf_start, t.iperf_stop).mean()
    };
    let cubic_rtt = mk(CcaKind::Cubic);
    let bbr_rtt = mk(CcaKind::Bbr);
    // Paper Table 4 at 7x: ≈110 ms vs ≈55 ms. Shape: BBR clearly lower.
    assert!(
        bbr_rtt < cubic_rtt * 0.75,
        "BBR's inflight cap must limit queueing: bbr {bbr_rtt} vs cubic {cubic_rtt}"
    );
}

#[test]
fn frame_rate_near_60_without_competition() {
    let cond = Condition::new(SystemKind::Luna, None, 35, 2.0).with_timeline(tl());
    let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
    let t = cond.timeline;
    let fps = r.fps_window(t.original_window.0, t.iperf_stop).mean();
    assert!(fps > 57.0, "uncontested fps {fps}");
}

#[test]
fn loss_near_zero_without_competition() {
    for sys in SystemKind::ALL {
        let cond = Condition::new(sys, None, 25, 2.0).with_timeline(tl());
        let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        // Paper: "loss rates are near 0 when there is no competing TCP
        // flow" (after stream settles to the constraint).
        let t = cond.timeline;
        let loss = r.game_loss_window(t.original_window.0, t.end);
        assert!(loss < 0.01, "{sys}: solo loss {loss}");
    }
}

#[test]
fn fairness_signs_match_paper_at_small_queue() {
    // 0.5x BDP, 25 Mb/s: paper Figure 3's starkest column.
    let fair = |sys, cca| {
        let cond = Condition::new(sys, Some(cca), 25, 0.5).with_timeline(tl());
        let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        metrics::fairness(&r, &cond)
    };
    // vs Cubic: Stadia takes more than fair; GeForce much less.
    let stadia = fair(SystemKind::Stadia, CcaKind::Cubic);
    let geforce = fair(SystemKind::GeForce, CcaKind::Cubic);
    assert!(
        stadia > 0.1,
        "stadia vs cubic at 0.5x should be warm: {stadia}"
    );
    assert!(geforce < -0.1, "geforce must defer to cubic: {geforce}");
    // vs BBR every system is at or below fair.
    for sys in SystemKind::ALL {
        let f = fair(sys, CcaKind::Bbr);
        assert!(f < 0.15, "{sys} vs bbr at 0.5x should not be warm: {f}");
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let cond = Condition::new(SystemKind::Stadia, Some(CcaKind::Bbr), 35, 7.0)
        .with_timeline(Timeline::scaled(0.05));
    let a = run_condition_with(&cond, 3, None, false, |v| v.to_result());
    let b = run_condition_with(&cond, 3, None, false, |v| v.to_result());
    assert_eq!(a.game_bins_mbps, b.game_bins_mbps);
    assert_eq!(a.iperf_bins_mbps, b.iperf_bins_mbps);
    assert_eq!(a.rtt, b.rtt);
    assert_eq!(a.fps_bins, b.fps_bins);
    assert_eq!(a.tcp_retransmissions, b.tcp_retransmissions);
}

#[test]
fn connected_pairs_deliver_whatever_was_added_before_them() {
    // A peer's id depends on how many agents the builder already holds.
    // With an unrelated agent first, neither pair starts at id 0; a pair
    // wired to ids counted by hand would address the sink instead.
    use gsrepro_gamestream::{StreamClient, StreamServer};
    use gsrepro_netsim::apps::SinkAgent;
    use gsrepro_netsim::{LinkSpec, NetworkBuilder};
    use gsrepro_simcore::rng::stream_id;
    use gsrepro_simcore::{BitRate, Bytes, SimDuration};
    use gsrepro_tcp::{TcpReceiver, TcpSender};

    let down = LinkSpec::bottleneck(
        BitRate::from_mbps(50),
        Bytes(200_000),
        SimDuration::from_millis(5),
    );
    let (mut b, server, client) = NetworkBuilder::dumbbell(3, down);
    let sink = b.add_agent(client, Box::new(SinkAgent::new()));
    let (media, feedback) = (b.flow("media"), b.flow("feedback"));
    let (data, acks) = (b.flow("data"), b.flow("acks"));
    let profile = SystemKind::Luna.profile();
    let (viewer, game) = gsrepro_gamestream::connect(&mut b, client, server, feedback, |viewer| {
        StreamServer::new(
            media,
            client,
            viewer,
            profile.build_source(3, stream_id("frames")),
            profile.build_controller(),
        )
    });
    let (tx, rx) = gsrepro_tcp::connect(
        &mut b,
        server,
        client,
        data,
        acks,
        CcaKind::Cubic,
        TcpSender::new,
    );
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(5));

    let sink: &SinkAgent = sim.net.agent(sink);
    assert_eq!(sink.received_pkts(), 0, "nothing is addressed to the sink");
    let viewer: &StreamClient = sim.net.agent(viewer);
    assert!(viewer.displayed_frames() > 200, "media reaches its client");
    let game: &StreamServer = sim.net.agent(game);
    assert!(game.rate_trace().len() > 20, "reports reach their server");
    let (tx, rx): (&TcpSender, &TcpReceiver) = (sim.net.agent(tx), sim.net.agent(rx));
    assert!(rx.bytes_received() > 1_000_000, "data reaches its receiver");
    assert!(tx.delivered_bytes() > 1_000_000, "acks reach their sender");
}
