//! Future-work experiment: a game system against *multiple* competing TCP
//! flows (the paper only tests one). For N ∈ {1, 2, 3, 4} Cubic flows at
//! 25 Mb/s / 2×-BDP, reports the game's share vs its N-flow fair share
//! capacity/(N+1).

use gsrepro_gamestream::client::{StreamClient, StreamClientConfig};
use gsrepro_gamestream::server::StreamServer;
use gsrepro_gamestream::SystemKind;
use gsrepro_netsim::net::{AgentId, NetworkBuilder};
use gsrepro_netsim::queue::QueueSpec;
use gsrepro_netsim::{LinkSpec, Shaper};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{CcaKind, TcpReceiver, TcpSender, TcpSenderConfig};
use gsrepro_testbed::metrics::jains_index;
use gsrepro_testbed::report::TextTable;

use crate::cli::{experiment_opts, Args};

/// Returns (game goodput, total TCP goodput, Jain's index over the
/// game + per-TCP-flow goodputs).
fn run(system: SystemKind, n_flows: u32, secs: u64, seed: u64) -> (f64, f64, f64) {
    let capacity = BitRate::from_mbps(25);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(2.0);

    let mut b = NetworkBuilder::new(seed);
    let servers = b.add_node("servers");
    let client = b.add_node("client");
    b.link(
        servers,
        client,
        LinkSpec {
            shaper: Shaper::rate(capacity),
            delay: SimDuration::from_micros(8_250),
            queue: QueueSpec::DropTail { limit: queue },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        },
    );
    b.link(
        client,
        servers,
        LinkSpec::lan(SimDuration::from_micros(8_250)),
    );

    let media = b.flow("media");
    let feedback = b.flow("feedback");
    let profile = system.profile();
    let gclient = b.add_agent(
        client,
        Box::new(StreamClient::new(StreamClientConfig::new(
            feedback,
            servers,
            AgentId(1),
        ))),
    );
    b.add_agent(
        servers,
        Box::new(StreamServer::new(
            media,
            client,
            gclient,
            profile.build_source(seed, stream_id("frames")),
            profile.build_controller(),
        )),
    );

    let mut tcp_flows = Vec::new();
    for i in 0..n_flows {
        let data = b.flow(format!("cubic{i}"));
        let acks = b.flow(format!("ack{i}"));
        let recv_id = AgentId(2 + i * 2 + 1);
        // Stagger starts slightly, as real flows would.
        let start = SimTime::from_secs(30 + i as u64 * 2);
        let cfg = TcpSenderConfig::new(data, client, recv_id, CcaKind::Cubic)
            .active_during(start, SimTime::from_secs(secs));
        let s = b.add_agent(servers, Box::new(TcpSender::new(cfg)));
        b.add_agent(client, Box::new(TcpReceiver::new(acks, servers, s)));
        tcp_flows.push(data);
    }

    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(secs));
    let from = SimTime::from_secs(60);
    let to = SimTime::from_secs(secs);
    let game = sim.goodput_mbps(media, from, to);
    let per_flow: Vec<f64> = tcp_flows
        .iter()
        .map(|&f| sim.goodput_mbps(f, from, to))
        .collect();
    let tcp_total: f64 = per_flow.iter().sum();
    let mut all = vec![game];
    all.extend(per_flow);
    (game, tcp_total, jains_index(&all))
}

pub fn multiflow(args: Args) {
    let (opts, _) = experiment_opts(args);
    let secs = (opts.timeline.end.as_secs_f64() / 2.0).max(120.0) as u64;
    println!("game share vs number of competing Cubic flows (25 Mb/s, 2x BDP)\n");
    let mut t = TextTable::new(vec![
        "system",
        "N",
        "game Mb/s",
        "TCP total",
        "fair share",
        "game/fair",
        "jain",
    ]);
    for sys in SystemKind::ALL {
        for n in 1..=4u32 {
            let (game, tcp, jain) = run(sys, n, secs, 1000 + n as u64);
            let fair = 25.0 / (n + 1) as f64;
            t.row(vec![
                sys.label().to_string(),
                n.to_string(),
                format!("{game:.1}"),
                format!("{tcp:.1}"),
                format!("{fair:.1}"),
                format!("{:.2}", game / fair),
                format!("{jain:.3}"),
            ]);
        }
    }
    println!("{}", t.render());
    println!("reading: a ratio > 1 means the game defends more than its N-flow fair");
    println!("share; the paper predicts Stadia > 1, Luna ≈ 1, GeForce < 1 vs Cubic.");
    println!("jain is Jain's fairness index over the game + per-TCP-flow goodputs");
    println!("(1 = perfectly even split across the N+1 flows).");
}
