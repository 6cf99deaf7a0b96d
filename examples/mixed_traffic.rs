//! The paper's other future-work scenario: a game stream competing with a
//! *mixture* of traffic rather than a single bulk download — here, one TCP
//! Cubic flow plus one TCP BBR flow plus an on/off CBR stream standing in
//! for ABR video. This example composes the topology directly from the
//! library crates, showing the public API beneath the testbed harness.
//!
//! ```sh
//! cargo run --release --example mixed_traffic
//! ```

use gsrepro_gamestream::{self as gamestream, StreamServer, SystemKind};
use gsrepro_netsim::apps::{CbrSource, SinkAgent};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{self as tcp, CcaKind, TcpSender};

fn main() {
    let capacity = BitRate::from_mbps(35);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(2.0);

    let mut b = NetworkBuilder::new(2024);
    let servers = b.add_node("servers");
    let router = b.add_node("router");
    let client = b.add_node("client");
    b.duplex(servers, router, LinkSpec::lan(SimDuration::from_millis(4)));
    let half = SimDuration::from_micros(4_250);
    b.link(router, client, LinkSpec::bottleneck(capacity, queue, half));
    b.link(client, router, LinkSpec::lan(half));

    let game = b.flow("luna-media");
    let feedback = b.flow("feedback");
    let cubic_f = b.flow("cubic");
    let cubic_ack = b.flow("cubic-ack");
    let bbr_f = b.flow("bbr");
    let bbr_ack = b.flow("bbr-ack");
    let video = b.flow("abr-video");

    let profile = SystemKind::Luna.profile();
    gamestream::connect(&mut b, client, servers, feedback, |gclient| {
        StreamServer::new(
            game,
            client,
            gclient,
            profile.build_source(2024, stream_id("frames")),
            profile.build_controller(),
        )
    });

    // Two TCP flows arriving at different times.
    let secs = SimTime::from_secs;
    tcp::connect(
        &mut b,
        servers,
        client,
        cubic_f,
        cubic_ack,
        CcaKind::Cubic,
        |cfg| TcpSender::new(cfg.active_during(secs(30), secs(150))),
    );
    tcp::connect(
        &mut b,
        servers,
        client,
        bbr_f,
        bbr_ack,
        CcaKind::Bbr,
        |cfg| TcpSender::new(cfg.active_during(secs(60), secs(120))),
    );

    // ABR-video-ish cross traffic: 6 Mb/s on/off bursts from 90 s.
    let vsink = b.add_agent(client, Box::new(SinkAgent::new()));
    b.add_agent(
        servers,
        Box::new(
            CbrSource::new(
                video,
                client,
                vsink,
                BitRate::from_mbps(6),
                gsrepro_simcore::Bytes(1200),
            )
            .active_during(SimTime::from_secs(90), SimTime::from_secs(180)),
        ),
    );

    let mut sim = b.build();
    let end = SimTime::from_secs(180);
    sim.run_until(end);

    println!("Luna vs mixed traffic on a 35 Mb/s bottleneck (2x BDP queue)\n");
    println!("phase                          game   cubic  bbr    video  (Mb/s)");
    let phases = [
        ("0-30 s   game alone        ", 0, 30),
        ("30-60 s  + cubic           ", 30, 60),
        ("60-90 s  + cubic + bbr     ", 60, 90),
        ("90-120 s + all three       ", 90, 120),
        ("120-150 s cubic + video    ", 120, 150),
        ("150-180 s video only       ", 150, 180),
    ];
    for (label, a, z) in phases {
        let w = |f| {
            sim.net
                .monitor()
                .stats(f)
                .mean_goodput_mbps(SimTime::from_secs(a), SimTime::from_secs(z))
        };
        println!(
            "{label}  {:5.1}  {:5.1}  {:5.1}  {:5.1}",
            w(game),
            w(cubic_f),
            w(bbr_f),
            w(video)
        );
    }
    let st = sim.net.monitor().stats(game);
    println!(
        "\ngame media loss over the run: {:.2}%",
        st.loss_rate() * 100.0
    );
}
