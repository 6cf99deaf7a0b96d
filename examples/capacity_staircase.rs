//! Reproduces the related-work methodology of Carrascosa & Bellalta
//! ("Cloud-gaming: Analysis of Google Stadia traffic", 2022): limit a live
//! game stream's link in a staircase of capacities and watch the system
//! adapt its bitrate — and recover when the cap lifts.
//!
//! ```sh
//! cargo run --release --example capacity_staircase [stadia|geforce|luna]
//! ```

use gsrepro_gamestream::{self as gamestream, StreamClient, StreamServer, SystemKind};
use gsrepro_netsim::{LinkId, LinkSpec, NetworkBuilder, ScenarioAction};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};

fn main() {
    let system = match std::env::args().nth(1).as_deref() {
        Some("geforce") => SystemKind::GeForce,
        Some("luna") => SystemKind::Luna,
        _ => SystemKind::Stadia,
    };

    let rtt = SimDuration::from_micros(16_500);
    // Start wide open; the staircase narrows and reopens.
    let stair: &[(u64, u64)] = &[
        // (time s, capacity Mb/s)
        (30, 20),
        (60, 12),
        (90, 6),
        (120, 12),
        (150, 20),
        (180, 40),
    ];

    // Fixed 2x-BDP-at-25 queue, as a home router would have.
    let down = LinkSpec::bottleneck(
        BitRate::from_mbps(40),
        BitRate::from_mbps(25).bdp(rtt).mul_f64(2.0),
        SimDuration::from_micros(8_250),
    );
    let (mut b, server_node, client_node) = NetworkBuilder::dumbbell(31, down);
    let bottleneck = LinkId(0); // the dumbbell's down link

    let media = b.flow("media");
    let feedback = b.flow("feedback");
    let profile = system.profile();
    let (client, _) = gamestream::connect(&mut b, client_node, server_node, feedback, |client| {
        StreamServer::with_fps_policy(
            media,
            client_node,
            client,
            profile.build_source(31, stream_id("frames")),
            profile.build_controller(),
            profile.fps_policy,
        )
    });

    let mut sim = b.build();
    for &(at, cap) in stair {
        sim.schedule_scenario_action(
            bottleneck,
            ScenarioAction::Rate(Some(BitRate::from_mbps(cap))),
            SimTime::from_secs(at),
        );
    }
    sim.run_until(SimTime::from_secs(210));

    println!("{system} under a capacity staircase (Carrascosa & Bellalta methodology)\n");
    println!(
        "{:<14}{:>10}{:>12}{:>10}{:>9}",
        "window", "cap Mb/s", "game Mb/s", "fps", "loss %"
    );
    let st = sim.net.monitor().stats(media);
    let c: &StreamClient = sim.net.agent(client);
    let mut caps = vec![40u64];
    caps.extend(stair.iter().map(|&(_, c)| c));
    let mut bounds: Vec<u64> = vec![0];
    bounds.extend(stair.iter().map(|&(t, _)| t));
    bounds.push(210);
    for (i, pair) in bounds.windows(2).enumerate() {
        let (a, z) = (pair[0], pair[1]);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(a + 5), SimTime::from_secs(z));
        let fps = c.mean_fps(SimTime::from_secs(a + 5), SimTime::from_secs(z));
        let loss = st.loss_rate_over(SimTime::from_secs(a + 5), SimTime::from_secs(z)) * 100.0;
        println!(
            "{:<14}{:>10}{:>12.1}{:>10.1}{:>9.2}",
            format!("{a}-{z} s"),
            caps[i],
            gp,
            fps,
            loss
        );
    }
    println!("\nexpectation (per Carrascosa & Bellalta): the stream tracks each capacity");
    println!("step downward within seconds, and recovers its bitrate when the cap lifts.");
}
