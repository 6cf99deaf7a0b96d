//! Scenario and property tests for the TCP stack: reliability under
//! arbitrary loss, congestion-control comparisons, and endpoint behaviour
//! the unit tests don't cover.

use gsrepro_netsim::link::{LinkId, LinkSpec};
use gsrepro_netsim::net::{AgentId, NetworkBuilder, Sim};
use gsrepro_netsim::wire::{FlowId, TCP_MSS};
use gsrepro_netsim::ScenarioSpec;
use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
use gsrepro_tcp::{connect, Bbr, CcaKind, TcpReceiver, TcpSender};

struct Built {
    sim: Sim,
    data: FlowId,
    sender: AgentId,
    recv: AgentId,
}

fn build(
    cca: CcaKind,
    rate_mbps: u64,
    queue_bytes: u64,
    owd_ms: u64,
    loss: f64,
    seed: u64,
) -> Built {
    let down = LinkSpec::bottleneck(
        BitRate::from_mbps(rate_mbps),
        Bytes(queue_bytes),
        SimDuration::from_millis(owd_ms),
    )
    .with_loss(loss);
    let (mut b, s, c) = NetworkBuilder::dumbbell(seed, down);
    let data = b.flow("data");
    let acks = b.flow("acks");
    let (sender, recv) = connect(&mut b, s, c, data, acks, cca, TcpSender::new);
    Built {
        sim: b.build(),
        data,
        sender,
        recv,
    }
}

/// Reliability: whatever the loss rate and queue size, the receiver's
/// in-order byte count equals the sender's delivered counter within
/// one window, and both make progress.
#[test]
fn reliable_delivery_under_random_loss() {
    for_each_case("reliable_delivery_under_random_loss", 12, |rng| {
        let loss = rng.gen_range(0.0f64..0.12);
        let queue = rng.gen_range(8_000u64..120_000);
        let rate = rng.gen_range(5u64..30);
        let seed = rng.gen_range(0u64..500);
        let mut tb = build(CcaKind::Cubic, rate, queue, 8, loss, seed);
        tb.sim.run_until(SimTime::from_secs(20));
        let s: &TcpSender = tb.sim.net.agent(tb.sender);
        let r: &TcpReceiver = tb.sim.net.agent(tb.recv);
        assert!(
            r.bytes_received() > 100_000,
            "no progress: {}",
            r.bytes_received()
        );
        let gap = s.delivered_bytes() as i64 - r.bytes_received() as i64;
        assert!(
            gap.abs() < 2_000_000,
            "sender delivered {} vs receiver {}",
            s.delivered_bytes(),
            r.bytes_received()
        );
        // Receiver never sees a byte twice in-order: rcv_nxt equals the
        // in-order count exactly (stream starts at 0).
        assert_eq!(r.rcv_nxt(), r.bytes_received());
    });
}

/// Goodput never exceeds the link under any CCA.
#[test]
fn goodput_bounded() {
    for_each_case("goodput_bounded", 12, |rng| {
        let cca_idx = rng.gen_range(0usize..4);
        let rate = rng.gen_range(5u64..40);
        let seed = rng.gen_range(0u64..100);
        let cca = [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas][cca_idx];
        let mut tb = build(cca, rate, 60_000, 8, 0.0, seed);
        tb.sim.run_until(SimTime::from_secs(15));
        let gp = tb
            .sim
            .goodput_mbps(tb.data, SimTime::from_secs(2), SimTime::from_secs(15));
        assert!(
            gp <= rate as f64 * 1.03 + 0.3,
            "{cca:?} goodput {gp} > {rate}"
        );
    });
}

#[test]
fn vegas_and_bbr_keep_queues_shorter_than_cubic() {
    // At a bloated queue, the delay-aware controllers must hold OWD far
    // below Cubic's.
    let owd = |cca| {
        let mut tb = build(cca, 20, 300_000, 8, 0.0, 42);
        tb.sim.run_until(SimTime::from_secs(30));
        tb.sim.net.monitor().stats(tb.data).owd.mean()
    };
    let cubic = owd(CcaKind::Cubic);
    let vegas = owd(CcaKind::Vegas);
    let bbr = owd(CcaKind::Bbr);
    assert!(cubic > 60.0, "cubic should bloat: {cubic}");
    assert!(vegas < cubic / 3.0, "vegas {vegas} vs cubic {cubic}");
    assert!(bbr < cubic * 0.8, "bbr {bbr} vs cubic {cubic}");
}

#[test]
fn all_ccas_survive_a_capacity_drop() {
    // Run 10 s at 20 Mb/s... then the "path" changes by re-running at
    // 4 Mb/s with the same CCA: every controller must still converge (no
    // deadlock, no collapse) — exercised as separate runs because links
    // are static in this simulator.
    for cca in [CcaKind::Reno, CcaKind::Cubic, CcaKind::Bbr, CcaKind::Vegas] {
        for rate in [20, 4] {
            let mut tb = build(cca, rate, 40_000, 10, 0.0, 7);
            tb.sim.run_until(SimTime::from_secs(15));
            let gp = tb
                .sim
                .goodput_mbps(tb.data, SimTime::from_secs(5), SimTime::from_secs(15));
            assert!(
                gp > rate as f64 * 0.6,
                "{cca:?} at {rate} Mb/s achieved only {gp}"
            );
        }
    }
}

#[test]
fn bbr_cwnd_gain_knob_scales_queueing() {
    // D3 ablation support: a larger PROBE_BW cwnd gain holds more in
    // flight and thus more standing queue (higher OWD) on a solo path.
    let owd_for = |gain: f64| {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(20),
            Bytes(400_000),
            SimDuration::from_millis(10),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(9, down);
        let data = b.flow("d");
        let acks = b.flow("a");
        connect(&mut b, s, c, data, acks, CcaKind::Bbr, |cfg| {
            let bbr = Bbr::with_cwnd_gain(TCP_MSS.as_u64(), gain);
            TcpSender::with_controller(cfg, Box::new(bbr))
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        sim.net.monitor().stats(data).owd.mean()
    };
    let low = owd_for(1.25);
    let high = owd_for(4.0);
    // Solo, steady-state pacing (1× btl_bw) bounds in-flight, so the cwnd
    // cap only binds during probe transients — the effect is directional
    // but small here. (In competition the cap binds hard; the D3 ablation
    // binary measures that case.)
    assert!(
        high > low + 1.0,
        "gain 4 should queue measurably more than 1.25: {high} vs {low}"
    );
}

#[test]
fn sack_recovery_beats_rto_only_behaviour() {
    // With 3% loss, SACK-based fast recovery must keep retransmissions a
    // small multiple of the actual losses (no spurious storms) and RTO
    // events rare relative to fast retransmits.
    let mut tb = build(CcaKind::Cubic, 15, 50_000, 10, 0.03, 21);
    tb.sim.run_until(SimTime::from_secs(30));
    let s: &TcpSender = tb.sim.net.agent(tb.sender);
    let st = tb.sim.net.monitor().stats(tb.data);
    let losses = st.dropped_pkts();
    assert!(losses > 50, "loss injection inactive? {losses}");
    assert!(
        s.retransmissions() < losses * 2,
        "retransmissions {} should be within 2x of losses {}",
        s.retransmissions(),
        losses
    );
    assert!(
        s.fast_retransmit_events() > s.rto_events(),
        "fast recovery ({}) should dominate RTOs ({})",
        s.fast_retransmit_events(),
        s.rto_events()
    );
}

#[test]
fn receiver_acks_every_data_segment() {
    let down = LinkSpec::bottleneck(
        BitRate::from_mbps(20),
        Bytes(80_000),
        SimDuration::from_millis(8),
    );
    let (mut b, s, c) = NetworkBuilder::dumbbell(55, down);
    let data = b.flow("d");
    let acks = b.flow("a");
    connect(&mut b, s, c, data, acks, CcaKind::Cubic, TcpSender::new);
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(20));
    let ack_pkts = sim.net.monitor().stats(acks).sent_pkts;
    let data_pkts = sim.net.monitor().stats(data).sent_pkts;
    let ratio = ack_pkts as f64 / data_pkts as f64;
    assert!(ratio > 0.95, "one ack per segment, got {ratio}");
}

#[test]
fn two_bbr_flows_converge_to_fair_share() {
    let down = LinkSpec::bottleneck(
        BitRate::from_mbps(24),
        Bytes(100_000),
        SimDuration::from_millis(8),
    );
    let (mut b, s, c) = NetworkBuilder::dumbbell(77, down);
    let mut flows = vec![];
    for i in 0..2u32 {
        let data = b.flow(format!("d{i}"));
        let acks = b.flow(format!("a{i}"));
        connect(&mut b, s, c, data, acks, CcaKind::Bbr, TcpSender::new);
        flows.push(data);
    }
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(60));
    let g1 = sim.goodput_mbps(flows[0], SimTime::from_secs(20), SimTime::from_secs(60));
    let g2 = sim.goodput_mbps(flows[1], SimTime::from_secs(20), SimTime::from_secs(60));
    let jfi = (g1 + g2).powi(2) / (2.0 * (g1 * g1 + g2 * g2));
    assert!(jfi > 0.9, "BBR intra-fairness JFI {jfi} ({g1} vs {g2})");
    assert!(g1 + g2 > 20.0, "utilization {g1}+{g2}");
}

#[test]
fn every_recovery_path_drains_the_scoreboard() {
    // One run through everything that mutates the sender's scoreboard:
    // slow-start overflow of a small queue (burst loss, SACK recovery), a
    // heavy loss window (holes that outlive several acks, lost
    // retransmissions), a duplication window (old and duplicate acks), an
    // outage that also empties the queue (RTO blackout, everything marked
    // lost, go-back retransmission), and the end of the active window
    // (idle sender, last holes repaired). Under the test profile every
    // step cross-checks the maintained `pipe` counter and oldest-`sent_at`
    // multiset against a scan of the scoreboard; the assertions below say
    // each path was really taken. Cubic is ack-clocked, BBR adds the pace
    // timer.
    let stop = SimTime::from_secs(6);
    for cca in [CcaKind::Cubic, CcaKind::Bbr] {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(30_000),
            SimDuration::from_millis(10),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(63, down);
        let fwd = LinkId(0); // the dumbbell's down link
        let data = b.flow("d");
        let acks = b.flow("a");
        let (sender, recv) = connect(&mut b, s, c, data, acks, cca, |cfg| {
            TcpSender::new(cfg.active_during(SimTime::ZERO, stop))
        });
        let mut sim = b.build();
        let ms = SimTime::from_millis;
        sim.apply_scenario(
            &ScenarioSpec::new()
                .loss_window(ms(1_000), ms(1_500), fwd, 0.3)
                .duplication_window(ms(2_000), ms(2_500), fwd, 0.5)
                .outage(ms(3_000), ms(4_500), fwd)
                .queue_limit(ms(3_050), fwd, Bytes(0))
                .queue_limit(ms(4_500), fwd, Bytes(30_000)),
        );
        sim.run_until(SimTime::from_secs(30));

        let s: &TcpSender = sim.net.agent(sender);
        let r: &TcpReceiver = sim.net.agent(recv);
        assert!(s.delivered_bytes() > 0, "{cca:?}");
        assert_eq!(s.delivered_bytes(), r.bytes_received(), "{cca:?}");
        assert_eq!(s.tracked_segments(), 0, "{cca:?}: scoreboard must drain");
        assert!(
            s.fast_retransmit_events() > 0,
            "{cca:?}: no SACK/dupack recovery"
        );
        assert!(s.rto_events() > 0, "{cca:?}: the outage must time out");
        assert!(s.retransmissions() > 0, "{cca:?}");
    }
}
