//! The last of the paper's future-work competitor mixes: live video
//! conferencing. A conferencing flow is itself a GCC-controlled real-time
//! stream (WebRTC), just with a much lower ceiling (~3.5 Mb/s) — so this
//! example pits two delay-sensitive real-time flows against each other,
//! rather than real-time vs bulk.
//!
//! ```sh
//! cargo run --release --example videoconference_competition [stadia|geforce|luna]
//! ```

use gsrepro_gamestream::controller::gcc::{GccConfig, GccController};
use gsrepro_gamestream::frame::{FrameSource, FrameSourceConfig};
use gsrepro_gamestream::{self as gamestream, StreamClient, StreamServer, SystemKind};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};

fn main() {
    let system = match std::env::args().nth(1).as_deref() {
        Some("geforce") => SystemKind::GeForce,
        Some("luna") => SystemKind::Luna,
        _ => SystemKind::Stadia,
    };

    // A tighter home link: 15 Mb/s, 2x BDP.
    let capacity = BitRate::from_mbps(15);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(2.0);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (mut b, servers, home) = NetworkBuilder::dumbbell(505, down);

    let game_flow = b.flow(format!("{}-media", system.label()));
    let game_fb = b.flow("game-feedback");
    let conf_flow = b.flow("conference");
    let conf_fb = b.flow("conf-feedback");

    let profile = system.profile();
    let (gclient, _) = gamestream::connect(&mut b, home, servers, game_fb, |gclient| {
        StreamServer::new(
            game_flow,
            home,
            gclient,
            profile.build_source(505, stream_id("frames")),
            profile.build_controller(),
        )
    });

    // Conference stream: GCC at a 3.5 Mb/s ceiling, 30 f/s camera, running
    // alongside for the whole session.
    let conf_cfg = GccConfig {
        min_rate: BitRate::from_kbps(300),
        max_rate: BitRate::from_mbps_f64(3.5),
        ..GccConfig::default()
    };
    let conf_frames = FrameSourceConfig {
        fps: 30,
        ..FrameSourceConfig::default()
    };
    let (cclient, _) = gamestream::connect(&mut b, home, servers, conf_fb, |cclient| {
        StreamServer::new(
            conf_flow,
            home,
            cclient,
            FrameSource::new(conf_frames, 505, stream_id("conf-frames")),
            Box::new(GccController::new(conf_cfg)),
        )
    });

    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(180));

    println!("{system} vs a 3.5 Mb/s video conference on a 15 Mb/s link\n");
    println!("{:<18}{:>11}{:>11}", "window", "game Mb/s", "conf Mb/s");
    for (label, a, z) in [
        ("0-60 s", 0u64, 60u64),
        ("60-120 s", 60, 120),
        ("120-180 s", 120, 180),
    ] {
        let g = sim.goodput_mbps(game_flow, SimTime::from_secs(a), SimTime::from_secs(z));
        let c = sim.goodput_mbps(conf_flow, SimTime::from_secs(a), SimTime::from_secs(z));
        println!("{label:<18}{g:>11.1}{c:>11.1}");
    }
    let gc: &StreamClient = sim.net.agent(gclient);
    let cc: &StreamClient = sim.net.agent(cclient);
    println!(
        "\ngame fps (steady) {:.1}, conference fps {:.1}",
        gc.mean_fps(SimTime::from_secs(120), SimTime::from_secs(180)),
        cc.mean_fps(SimTime::from_secs(120), SimTime::from_secs(180)),
    );
    println!("\ntwo real-time flows coexist far more gently than game-vs-iperf: the");
    println!("conference takes only its ceiling and the game cedes just that much.");
}
