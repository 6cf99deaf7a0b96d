//! Builds the simulated testbed for one experimental condition.
//!
//! The paper's physical layout (Figure 1): game client and iperf client on
//! a 1 Gb/s LAN behind a Raspberry Pi router; the router's downstream link
//! carries the `tbf` rate limit + byte-limited queue and `netem` delay;
//! game and iperf servers sit across the campus network/Internet, with
//! per-path `netem` padding so every flow sees ≈16.5 ms RTT.
//!
//! Simulated equivalent:
//!
//! ```text
//!  game_server ──4ms──▸ router ══bottleneck (rate, queue, 4.25ms)══▸ switch ──0──▸ game_client
//!  iperf_server ─4ms──▸ router                                        switch ──0──▸ iperf_client
//!  (upstream links are unshaped with matching delays: RTT = 16.5 ms)
//! ```
//!
//! The downstream bottleneck is the only shaped link, shared by both
//! flows — exactly the contended resource of the paper's experiments.

use gsrepro_gamestream::{self as gamestream, StreamServer};
use gsrepro_netsim::apps::{EchoTo, PingAgent};
use gsrepro_netsim::link::LinkId;
use gsrepro_netsim::net::{AgentId, NetworkBuilder, Sim};
use gsrepro_netsim::queue::QueueSpec;
use gsrepro_netsim::wire::FlowId;
use gsrepro_netsim::LinkSpec;
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{SimDuration, TelemetryConfig};
use gsrepro_tcp::{self as tcp, TcpSender};

use crate::config::{Aqm, Condition};

/// Handles into a built testbed, used to extract results after the run.
pub struct Testbed {
    /// The simulation itself.
    pub sim: Sim,
    /// Game media flow (downstream).
    pub game_flow: FlowId,
    /// Game feedback flow (upstream).
    pub feedback_flow: FlowId,
    /// iperf data flow (downstream); absent for solo conditions.
    pub iperf_flow: Option<FlowId>,
    /// Ping flow.
    pub ping_flow: FlowId,
    /// The streaming server agent.
    pub server: AgentId,
    /// The streaming client agent.
    pub client: AgentId,
    /// The TCP sender agent, if a competitor is configured.
    pub tcp_sender: Option<AgentId>,
    /// The ping agent at the game client.
    pub ping: AgentId,
    /// The bottleneck link id (for backlog inspection).
    pub bottleneck: LinkId,
}

/// Ping cadence. The testbed scripts ran the stock `ping` (1 s); we probe
/// 5× faster for tighter per-window statistics, which adds only ~420 b/s.
pub const PING_INTERVAL: SimDuration = SimDuration::from_millis(200);

/// The game-server → router WAN link, fixed by construction order (it is
/// the first link the builder creates; asserted in [`build_full`]). The
/// chaos campaign disturbs it as the "Internet weather" leg.
pub const WAN_GAME_LINK: LinkId = LinkId(0);

/// The shaped bottleneck link, fixed by construction order (two WAN
/// duplexes = links 0–3, then the bottleneck; asserted in [`build_full`]).
pub const BOTTLENECK_LINK: LinkId = LinkId(4);

/// Build the testbed network for `cond`, seeded for iteration `iter`,
/// optionally with an enabled telemetry recorder and runtime invariant
/// oracles. Both only observe (they consume no randomness and schedule
/// nothing), so a traced or checked run is bit-identical to a plain one —
/// a checked run just panics with a structured report if a conservation
/// law breaks mid-run.
pub fn build_full(
    cond: &Condition,
    iter: u32,
    telemetry: Option<TelemetryConfig>,
    checks: bool,
) -> Testbed {
    let seed = cond.seed(iter);
    let mut b = NetworkBuilder::new(seed).checks(checks);
    if let Some(cfg) = telemetry {
        b = b.telemetry(cfg);
    }

    let game_server = b.add_node("game-server");
    let iperf_server = b.add_node("iperf-server");
    let router = b.add_node("router");
    let switch = b.add_node("switch");
    let game_client = b.add_node("game-client");
    let iperf_client = b.add_node("iperf-client");

    // Server-side paths: 4 ms each way (campus/Internet padding), with
    // optional jitter standing in for Internet weather.
    let wan = SimDuration::from_millis(4);
    let wan_spec = LinkSpec::lan(wan).with_jitter(cond.wan_jitter);
    b.duplex(game_server, router, wan_spec.clone());
    b.duplex(iperf_server, router, wan_spec);

    // The bottleneck: shaped downstream, unshaped upstream; 4.25 ms each
    // way completes the 16.5 ms RTT budget.
    let half = SimDuration::from_micros(4_250);
    let queue = match cond.aqm {
        Aqm::DropTail => QueueSpec::DropTail {
            limit: cond.queue_bytes(),
        },
        Aqm::CoDel => QueueSpec::codel_default(cond.queue_bytes()),
        Aqm::FqCoDel => QueueSpec::fq_codel_default(cond.queue_bytes()),
    };
    let bottleneck = b.link(
        router,
        switch,
        LinkSpec {
            queue,
            ..LinkSpec::bottleneck(cond.capacity, cond.queue_bytes(), half)
        },
    );
    b.link(switch, router, LinkSpec::lan(half));
    assert_eq!(
        bottleneck, BOTTLENECK_LINK,
        "link wiring changed: update the id map"
    );

    // LAN segments to the clients: negligible delay, never the bottleneck.
    b.duplex(switch, game_client, LinkSpec::lan(SimDuration::ZERO));
    b.duplex(switch, iperf_client, LinkSpec::lan(SimDuration::ZERO));

    // Flows.
    let game_flow = b.flow(format!("{}-media", cond.system.label()));
    let feedback_flow = b.flow("feedback");
    let ping_flow = b.flow("ping");
    let (iperf_flow, ack_flow) = match cond.cca {
        Some(cca) => (
            Some(b.flow(format!("iperf-{}", cca.label()))),
            Some(b.flow("iperf-ack")),
        ),
        None => (None, None),
    };

    let mut profile = cond.system.profile();
    if let Some(ctrl) = cond.controller_override {
        profile.controller = ctrl;
    }
    let (client, server) =
        gamestream::connect(&mut b, game_client, game_server, feedback_flow, |c| {
            StreamServer::new(
                game_flow,
                game_client,
                c,
                profile.build_source(seed, stream_id("frames")),
                profile.build_controller(),
            )
        });

    // The paper pings the game server from the game client.
    let (ping, _) = b.add_pair(game_client, game_server, |ping, echo| {
        (
            Box::new(PingAgent::new(ping_flow, game_server, echo, PING_INTERVAL)),
            Box::new(EchoTo::new(ping_flow, ping)),
        )
    });

    // The TCP pair, when competing.
    let tcp_sender = match (cond.cca, iperf_flow, ack_flow) {
        (Some(cca), Some(data), Some(acks)) => {
            let tl = &cond.timeline;
            let (sender, _) =
                tcp::connect(&mut b, iperf_server, iperf_client, data, acks, cca, |cfg| {
                    TcpSender::new(cfg.active_during(tl.iperf_start, tl.iperf_stop))
                });
            Some(sender)
        }
        _ => None,
    };

    // Lower the condition's path scenario onto the bottleneck. Steps ride
    // the ordinary event queue, so a scenario run is as deterministic (and
    // as trace-transparent) as a static one.
    let mut sim = b.build();
    sim.apply_scenario(
        &cond
            .scenario
            .spec(bottleneck, cond.capacity, cond.queue_bytes()),
    );

    Testbed {
        sim,
        game_flow,
        feedback_flow,
        iperf_flow,
        ping_flow,
        server,
        client,
        tcp_sender,
        ping,
        bottleneck,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Timeline;
    use gsrepro_gamestream::{StreamClient, SystemKind};
    use gsrepro_simcore::SimTime;
    use gsrepro_tcp::CcaKind;

    #[test]
    fn rtt_is_equalized_at_16_5_ms() {
        // Solo run: ping should report ~16.5 ms when the queue is empty.
        let cond = super::super::config::Condition::new(SystemKind::Luna, None, 35, 2.0)
            .with_timeline(Timeline::scaled(0.05));
        let mut tb = build_full(&cond, 0, None, false);
        tb.sim.run_until(SimTime::from_secs(10));
        let ping: &PingAgent = tb.sim.net.agent(tb.ping);
        let mean = ping.rtt_samples().mean();
        assert!(
            (mean - 16.5).abs() < 3.0,
            "equalized RTT should be ≈16.5 ms, got {mean}"
        );
    }

    #[test]
    fn solo_condition_has_no_tcp_agents() {
        let cond = super::super::config::Condition::new(SystemKind::Stadia, None, 25, 2.0)
            .with_timeline(Timeline::scaled(0.05));
        let tb = build_full(&cond, 0, None, false);
        assert!(tb.tcp_sender.is_none());
        assert!(tb.iperf_flow.is_none());
    }

    #[test]
    fn competing_condition_wires_tcp() {
        let cond =
            super::super::config::Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0)
                .with_timeline(Timeline::scaled(0.05));
        let tb = build_full(&cond, 0, None, false);
        assert!(tb.tcp_sender.is_some());
        assert!(tb.iperf_flow.is_some());
    }

    #[test]
    fn game_stream_flows_end_to_end() {
        let cond = super::super::config::Condition::new(SystemKind::GeForce, None, 35, 2.0)
            .with_timeline(Timeline::scaled(0.05));
        let mut tb = build_full(&cond, 0, None, false);
        tb.sim.run_until(SimTime::from_secs(5));
        let st = tb.sim.net.monitor().stats(tb.game_flow);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(2), SimTime::from_secs(5));
        assert!(
            (gp - 24.5).abs() < 3.0,
            "unconstrained GeForce should stream ≈24.5 Mb/s, got {gp}"
        );
        let client: &StreamClient = tb.sim.net.agent(tb.client);
        let fps = client.mean_fps(SimTime::from_secs(2), SimTime::from_secs(5));
        assert!(fps > 55.0, "uncongested fps {fps}");
    }
}
