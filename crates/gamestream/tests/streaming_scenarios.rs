//! End-to-end scenarios for the streaming stack over the simulator:
//! each profile solo at each constraint, controller behaviours through the
//! full server→client→feedback loop, and property tests over capacities.

use gsrepro_gamestream::profile::ControllerKind;
use gsrepro_gamestream::{connect, StreamClient, StreamServer, SystemKind};
use gsrepro_netsim::link::LinkSpec;
use gsrepro_netsim::net::{AgentId, NetworkBuilder, Sim};
use gsrepro_netsim::wire::FlowId;
use gsrepro_simcore::rng::{for_each_case, stream_id, Rng};
use gsrepro_simcore::{BitRate, SimDuration, SimTime};

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

/// Luna alone on a 200 Mb/s link that duplicates each media packet with
/// probability `dup`: `(displayed, skipped, sent, mean fps over 5-20 s)`.
fn duplicated_stream(dup: f64) -> (u64, u64, u64, f64) {
    let capacity = BitRate::from_mbps(200);
    let down = LinkSpec::bottleneck(
        capacity,
        capacity.bdp(SimDuration::from_micros(16_500)).mul_f64(2.0),
        SimDuration::from_micros(8_250),
    )
    .with_duplication(dup);
    let (mut b, s, c) = NetworkBuilder::dumbbell(71, down);
    let media = b.flow("media");
    let feedback = b.flow("feedback");
    let profile = SystemKind::Luna.profile();
    let (client, server) = connect(&mut b, c, s, feedback, |client| {
        StreamServer::new(
            media,
            c,
            client,
            profile.build_source(71, stream_id("frames")),
            profile.build_controller(),
        )
    });
    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(20));
    let cl: &StreamClient = sim.net.agent(client);
    let sv: &StreamServer = sim.net.agent(server);
    let fps = cl.mean_fps(SimTime::from_secs(5), SimTime::from_secs(20));
    (
        cl.displayed_frames(),
        cl.skipped_frames(),
        sv.frames_sent(),
        fps,
    )
}

#[test]
fn every_chunk_duplicated_still_displays_each_frame_once() {
    let (displayed, skipped, sent, fps) = duplicated_stream(1.0);
    assert!(
        displayed + skipped <= sent,
        "{displayed} + {skipped} > {sent}"
    );
    assert!(fps <= 60.5 && fps > 57.0, "fps {fps}");
}

#[test]
fn sparse_duplicates_never_decide_a_frame_twice() {
    let (displayed, skipped, sent, fps) = duplicated_stream(0.05);
    assert!(
        displayed + skipped <= sent,
        "{displayed} + {skipped} > {sent}"
    );
    assert!(fps <= 60.5 && fps > 57.0, "fps {fps}");
}

/// Whatever the capacity and queue, a solo stream never exceeds the
/// link and the client's loss estimate stays consistent with the
/// monitor's ground truth.
#[test]
fn solo_stream_invariants() {
    for_each_case("solo_stream_invariants", 8, |rng| {
        let cap = rng.gen_range(8u64..40);
        let qmult_pct = rng.gen_range(50u64..700);
        let seed = rng.gen_range(0u64..200);
        let qmult = qmult_pct as f64 / 100.0;
        let mut tb = build_stream(SystemKind::Luna, None, cap, qmult, seed);
        tb.sim.run_until(SimTime::from_secs(12));
        let st = tb.sim.net.monitor().stats(tb.media);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(2), SimTime::from_secs(12));
        assert!(
            gp <= cap as f64 * 1.05 + 0.3,
            "goodput {} > cap {}",
            gp,
            cap
        );
        // Client packet count equals monitor delivered count.
        let client: &StreamClient = tb.sim.net.agent(tb.client);
        assert_eq!(client.total_packets(), st.delivered_pkts);
        // Displayed + skipped ≈ frames whose chunks were all sent.
        assert!(client.displayed_frames() > 0);
    });
}
