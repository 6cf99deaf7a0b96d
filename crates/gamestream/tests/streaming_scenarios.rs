//! End-to-end scenarios for the streaming stack over the simulator:
//! each profile solo at each constraint, controller behaviours through the
//! full server→client→feedback loop, and property tests over capacities.

use gsrepro_gamestream::profile::ControllerKind;
use gsrepro_gamestream::{connect, StreamClient, StreamServer, SystemKind};
use gsrepro_netsim::link::LinkSpec;
use gsrepro_netsim::net::{AgentId, NetworkBuilder, Sim};
use gsrepro_netsim::wire::FlowId;
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use proptest::prelude::*;

struct Built {
    sim: Sim,
    media: FlowId,
    client: AgentId,
    server: AgentId,
}

fn build_stream(
    kind: SystemKind,
    controller: Option<ControllerKind>,
    capacity_mbps: u64,
    queue_mult: f64,
    seed: u64,
) -> Built {
    let capacity = BitRate::from_mbps(capacity_mbps);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(queue_mult);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (mut b, s, c) = NetworkBuilder::dumbbell(seed, down);

    let media = b.flow("media");
    let feedback = b.flow("feedback");
    let mut profile = kind.profile();
    if let Some(ctrl) = controller {
        profile.controller = ctrl;
    }
    let (client, server) = connect(&mut b, c, s, feedback, |client| {
        StreamServer::new(
            media,
            c,
            client,
            profile.build_source(seed, stream_id("frames")),
            profile.build_controller(),
        )
    });
    Built {
        sim: b.build(),
        media,
        client,
        server,
    }
}

#[test]
fn every_profile_settles_under_every_constraint() {
    for kind in SystemKind::ALL {
        for cap in [15u64, 25, 35] {
            let mut tb = build_stream(kind, None, cap, 2.0, 3);
            tb.sim.run_until(SimTime::from_secs(30));
            let st = tb.sim.net.monitor().stats(tb.media);
            let gp = st.mean_goodput_mbps(SimTime::from_secs(15), SimTime::from_secs(30));
            let target = (kind.profile().max_rate.as_mbps() * 1.023).min(cap as f64);
            assert!(
                gp > target * 0.75 && gp < target * 1.08,
                "{kind} at {cap} Mb/s settled at {gp}, target ≈ {target}"
            );
            // Settled streams lose almost nothing (paper's solo loss tables).
            let loss = st.loss_rate_over(SimTime::from_secs(15), SimTime::from_secs(30));
            assert!(loss < 0.015, "{kind} at {cap}: steady loss {loss}");
        }
    }
}

#[test]
fn frame_rate_tracks_delivery_health() {
    // Unconstrained: ~60 f/s displayed.
    let mut tb = build_stream(SystemKind::GeForce, None, 35, 2.0, 5);
    tb.sim.run_until(SimTime::from_secs(20));
    let client: &StreamClient = tb.sim.net.agent(tb.client);
    let fps = client.mean_fps(SimTime::from_secs(5), SimTime::from_secs(20));
    assert!(fps > 57.0, "healthy stream fps {fps}");
    assert!(client.skipped_frames() < client.displayed_frames() / 20);
}

#[test]
fn server_rate_trace_reflects_adaptation() {
    // At 15 Mb/s the encoder must adapt below its 23-27 Mb/s ceiling.
    let mut tb = build_stream(SystemKind::Stadia, None, 15, 2.0, 9);
    tb.sim.run_until(SimTime::from_secs(20));
    let server: &StreamServer = tb.sim.net.agent(tb.server);
    assert!(server.frames_sent() > 1_000);
    // The instantaneous rate may sit mid-probe above the cap at any given
    // snapshot; judge adaptation on the smoothed tail of the trace.
    let trace = server.rate_trace();
    assert!(trace.len() > 100, "feedback loop must be active");
    let tail = &trace.values()[trace.len().saturating_sub(50)..];
    let rate = tail.iter().sum::<f64>() / tail.len() as f64;
    assert!(
        rate < 15.5,
        "encoder must adapt under the 15 Mb/s cap: {rate}"
    );
    assert!(rate > 5.0, "encoder should not collapse: {rate}");
}

#[test]
fn client_owd_min_learns_base_delay() {
    let mut tb = build_stream(SystemKind::Luna, None, 25, 2.0, 11);
    tb.sim.run_until(SimTime::from_secs(10));
    let client: &StreamClient = tb.sim.net.agent(tb.client);
    let base = client.owd_min().as_millis_f64();
    // One-way base path = 8.25 ms + one chunk of serialization.
    assert!(base > 8.0 && base < 10.5, "owd_min {base}");
}

#[test]
fn controller_override_changes_behaviour() {
    // The same Stadia envelope driven by the delay-conservative controller
    // must end lower under a self-congesting constraint than with GCC
    // (the conservative law backs off on its own queueing).
    let gp = |ctrl| {
        let mut tb = build_stream(SystemKind::Stadia, Some(ctrl), 25, 7.0, 13);
        tb.sim.run_until(SimTime::from_secs(30));
        tb.sim
            .net
            .monitor()
            .stats(tb.media)
            .mean_goodput_mbps(SimTime::from_secs(15), SimTime::from_secs(30))
    };
    let gcc = gp(ControllerKind::Gcc);
    let cons = gp(ControllerKind::DelayConservative);
    assert!(
        cons < gcc + 1.0,
        "delay-conservative ({cons}) should not out-send GCC ({gcc}) at a constraint"
    );
}

#[test]
fn fec_recovers_frames_under_random_loss() {
    // 3% random wire loss on an otherwise clean link: without FEC most
    // multi-chunk frames lose a packet; with 10% FEC nearly all recover.
    let fps_with = |fec: Option<gsrepro_gamestream::server::FecConfig>| {
        let capacity = BitRate::from_mbps(40);
        let down = LinkSpec::bottleneck(
            capacity,
            capacity.bdp(SimDuration::from_micros(16_500)).mul_f64(2.0),
            SimDuration::from_micros(8_250),
        )
        .with_loss(0.03);
        let (mut b, s, c) = NetworkBuilder::dumbbell(71, down);
        let media = b.flow("media");
        let feedback = b.flow("feedback");
        let profile = SystemKind::Luna.profile();
        let (client, _) = connect(&mut b, c, s, feedback, |client| {
            let server = StreamServer::new(
                media,
                c,
                client,
                profile.build_source(71, stream_id("frames")),
                profile.build_controller(),
            );
            match fec {
                Some(f) => server.with_fec(f),
                None => server,
            }
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        let cl: &StreamClient = sim.net.agent(client);
        cl.mean_fps(SimTime::from_secs(5), SimTime::from_secs(20))
    };
    let plain = fps_with(None);
    let fec = fps_with(Some(gsrepro_gamestream::server::FecConfig {
        data_per_parity: 10,
    }));
    // (The unprotected stream also adapts its bitrate down under loss,
    // which partially masks the frame damage — hence "visibly below 60"
    // rather than a collapse.)
    assert!(
        plain < 55.0,
        "3% loss should visibly hurt un-protected fps: {plain}"
    );
    assert!(
        fec > plain + 5.0,
        "FEC must recover frames: {fec} vs {plain}"
    );
    assert!(
        fec > 55.0,
        "FEC-protected stream should stay near 60: {fec}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Whatever the capacity and queue, a solo stream never exceeds the
    /// link and the client's loss estimate stays consistent with the
    /// monitor's ground truth.
    #[test]
    fn solo_stream_invariants(
        cap in 8u64..40,
        qmult_pct in 50u64..700,
        seed in 0u64..200,
    ) {
        let qmult = qmult_pct as f64 / 100.0;
        let mut tb = build_stream(SystemKind::Luna, None, cap, qmult, seed);
        tb.sim.run_until(SimTime::from_secs(12));
        let st = tb.sim.net.monitor().stats(tb.media);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(2), SimTime::from_secs(12));
        prop_assert!(gp <= cap as f64 * 1.05 + 0.3, "goodput {} > cap {}", gp, cap);
        // Client packet count equals monitor delivered count.
        let client: &StreamClient = tb.sim.net.agent(tb.client);
        prop_assert_eq!(client.total_packets(), st.delivered_pkts);
        // Displayed + skipped ≈ frames whose chunks were all sent.
        prop_assert!(client.displayed_frames() > 0);
    }
}
