//! The paper's most-requested future-work scenario: a cloud game stream
//! sharing a last-mile link with HTTP adaptive video ("e.g., Netflix").
//! DASH traffic is ON/OFF — bursts of segment fetches separated by idle
//! buffer-full periods — which stresses the game systems very differently
//! from iperf's constant pressure.
//!
//! ```sh
//! cargo run --release --example netflix_competition [stadia|geforce|luna]
//! ```

use gsrepro_gamestream::{self as gamestream, StreamClient, StreamServer, SystemKind};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{self as tcp, CcaKind, DashConfig, DashServer};

fn main() {
    let system = match std::env::args().nth(1).as_deref() {
        Some("geforce") => SystemKind::GeForce,
        Some("luna") => SystemKind::Luna,
        _ => SystemKind::Stadia,
    };

    // A 25 Mb/s "home connection" with a 2x-BDP queue.
    let capacity = BitRate::from_mbps(25);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(2.0);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (mut b, servers, home) = NetworkBuilder::dumbbell(404, down);

    let media = b.flow(format!("{}-media", system.label()));
    let feedback = b.flow("feedback");
    let dash_data = b.flow("dash-video");
    let dash_ack = b.flow("dash-ack");

    let profile = system.profile();
    let (gclient, _) = gamestream::connect(&mut b, home, servers, feedback, |gclient| {
        StreamServer::new(
            media,
            home,
            gclient,
            profile.build_source(404, stream_id("frames")),
            profile.build_controller(),
        )
    });

    // The DASH session starts at t = 60 s and binge-watches to the end.
    let (dash, _) = tcp::connect(
        &mut b,
        servers,
        home,
        dash_data,
        dash_ack,
        CcaKind::Cubic,
        |cfg| {
            let cfg = cfg.active_during(SimTime::from_secs(60), SimTime::from_secs(300));
            DashServer::new(cfg, DashConfig::default())
        },
    );

    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(300));

    println!("{system} vs DASH video on a 25 Mb/s home link (video joins at 60 s)\n");
    println!("{:<22}{:>10}{:>10}", "window", "game Mb/s", "video Mb/s");
    for (label, a, z) in [
        ("0-60 s   game alone", 0u64, 60u64),
        ("60-120 s video joins", 60, 120),
        ("120-300 s steady    ", 120, 300),
    ] {
        let g = sim.goodput_mbps(media, SimTime::from_secs(a), SimTime::from_secs(z));
        let v = sim.goodput_mbps(dash_data, SimTime::from_secs(a), SimTime::from_secs(z));
        println!("{label:<22}{g:>10.1}{v:>10.1}");
    }

    let d: &DashServer = sim.net.agent(dash);
    println!("\nDASH session: {} segments fetched", d.segments_fetched());
    println!(
        "ladder picks (0 = 1.5 Mb/s ... 3 = 12 Mb/s): {:?}",
        d.level_history()
    );
    println!("player stalls: {}", d.stall_time());

    let c: &StreamClient = sim.net.agent(gclient);
    let fps = c.mean_fps(SimTime::from_secs(120), SimTime::from_secs(300));
    println!("\ngame frame rate while sharing: {fps:.1} f/s");
    println!(
        "game media loss overall: {:.2}%",
        sim.net.monitor().stats(media).loss_rate() * 100.0
    );
    println!("\nunlike iperf, DASH leaves idle gaps: the game keeps most of its bitrate");
    println!("and the video still reaches a sustainable rung — the coexistence the");
    println!("paper's future-work section asks about.");
}
