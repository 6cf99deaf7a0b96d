//! Packet-conservation and invariant checks across the whole stack,
//! including property-based exploration of topology parameters.
//!
//! The core invariant: every packet handed to the network is exactly one
//! of {delivered, dropped, still inside the network} — no duplication, no
//! disappearance. Violations would silently corrupt every bitrate and loss
//! number in the reproduction, so these tests sweep a broad parameter
//! space.

use gsrepro_netsim::apps::{CbrSource, SinkAgent};
use gsrepro_netsim::net::NetworkBuilder;
use gsrepro_netsim::LinkSpec;
use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

/// Build a two-hop network with a shaped middle link, run `secs`, and
/// return (sent, delivered, dropped, backlog) packet counts.
fn run_cbr(
    rate_mbps: u64,
    cbr_mbps: u64,
    queue_bytes: u64,
    pkt_size: u64,
    loss_prob: f64,
    secs: u64,
    seed: u64,
) -> (u64, u64, u64, u64) {
    let mut b = NetworkBuilder::new(seed);
    let s = b.add_node("src");
    let r = b.add_node("router");
    let d = b.add_node("dst");
    b.link(s, r, LinkSpec::lan(SimDuration::from_millis(1)));
    b.link(
        r,
        d,
        LinkSpec::bottleneck(
            BitRate::from_mbps(rate_mbps),
            Bytes(queue_bytes),
            SimDuration::from_millis(3),
        )
        .with_loss(loss_prob),
    );
    b.link(d, r, LinkSpec::lan(SimDuration::from_millis(1)));
    b.link(r, s, LinkSpec::lan(SimDuration::from_millis(1)));
    let f = b.flow("cbr");
    let sink = b.add_agent(d, Box::new(SinkAgent::new()));
    b.add_agent(
        s,
        Box::new(CbrSource::new(
            f,
            d,
            sink,
            BitRate::from_mbps(cbr_mbps),
            Bytes(pkt_size),
        )),
    );
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(secs));
    let st = sim.net.monitor().stats(f);
    let sink_agent: &SinkAgent = sim.net.agent(sink);
    assert_eq!(
        sink_agent.received_pkts(),
        st.delivered_pkts,
        "sink and monitor must agree"
    );
    (
        st.sent_pkts,
        st.delivered_pkts,
        st.dropped_pkts(),
        st.sent_pkts - st.delivered_pkts - st.dropped_pkts(),
    )
}

#[test]
fn conservation_under_overload() {
    let (sent, delivered, dropped, in_flight) = run_cbr(10, 30, 20_000, 1000, 0.0, 20, 1);
    assert!(sent > 0 && delivered > 0 && dropped > 0);
    // Whatever is neither delivered nor dropped must fit inside the
    // network: the 20 kB queue (20 pkts) plus packets in propagation
    // (30 Mb/s of 1000-B packets over 5 ms of links ≈ 19).
    assert!(in_flight <= 45, "unaccounted packets: {in_flight}");
}

#[test]
fn conservation_with_random_loss() {
    let (sent, delivered, dropped, in_flight) = run_cbr(50, 10, 100_000, 1200, 0.2, 20, 2);
    assert!(dropped > 0);
    assert!(delivered > 0);
    assert!(in_flight <= 10);
    // Loss rate ≈ 20%.
    let lr = dropped as f64 / sent as f64;
    assert!((lr - 0.2).abs() < 0.03, "loss {lr}");
}

/// Conservation holds across arbitrary rates, queue sizes, packet
/// sizes, and loss probabilities.
fn check_conserved(rate: u64, cbr: u64, queue: u64, pkt: u64, loss: f64, seed: u64) {
    let (sent, delivered, dropped, in_flight) = run_cbr(rate, cbr, queue, pkt, loss, 5, seed);
    assert!(sent >= delivered + dropped);
    // In-network residue is bounded by queue capacity plus packets in
    // propagation across the 5 ms of link delay at the offered rate.
    let pps = cbr as f64 * 1e6 / 8.0 / pkt as f64;
    let max_resident = queue / pkt + (pps * 0.005) as u64 + 10;
    assert!(
        in_flight <= max_resident,
        "residue {} exceeds bound {}",
        in_flight,
        max_resident
    );
    assert!(delivered > 0);
}

#[test]
fn packets_are_conserved() {
    // A case once recorded as failing: the slowest link, the smallest
    // queue and packets, 20x overload.
    check_conserved(1, 20, 3000, 200, 0.0, 0);
    for_each_case("packets_are_conserved", 24, |rng| {
        let rate = rng.gen_range(1u64..60);
        let cbr = rng.gen_range(1u64..60);
        let queue = rng.gen_range(3_000u64..200_000);
        let pkt = rng.gen_range(200u64..1500);
        let loss = rng.gen_range(0.0..0.3);
        let seed = rng.gen_range(0u64..1000);
        check_conserved(rate, cbr, queue, pkt, loss, seed);
    });
}

/// Goodput never exceeds the shaped rate (within one bin of burst).
#[test]
fn goodput_bounded_by_capacity() {
    for_each_case("goodput_bounded_by_capacity", 24, |rng| {
        let rate = rng.gen_range(2u64..50);
        let cbr = rng.gen_range(2u64..80);
        let seed = rng.gen_range(0u64..100);
        let mut b = NetworkBuilder::new(seed);
        let s = b.add_node("s");
        let d = b.add_node("d");
        b.duplex(
            s,
            d,
            LinkSpec::bottleneck(
                BitRate::from_mbps(rate),
                Bytes(60_000),
                SimDuration::from_millis(5),
            ),
        );
        let f = b.flow("x");
        let sink = b.add_agent(d, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                d,
                sink,
                BitRate::from_mbps(cbr),
                Bytes(1200),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(10));
        let gp = sim.goodput_mbps(f, SimTime::from_secs(1), SimTime::from_secs(10));
        assert!(
            gp <= rate as f64 * 1.05 + 0.5,
            "goodput {} > capacity {}",
            gp,
            rate
        );
    });
}
