//! Future-work experiment: a game system against *multiple* competing TCP
//! flows (the paper only tests one). For N ∈ {1, 2, 3, 4} Cubic flows at
//! 25 Mb/s / 2×-BDP, reports the game's share vs its N-flow fair share
//! capacity/(N+1).

use gsrepro_gamestream::{self as gamestream, StreamServer, SystemKind};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{self as tcp, CcaKind, TcpSender};
use gsrepro_testbed::experiments::ExperimentOpts;
use gsrepro_testbed::metrics::jains_index;
use gsrepro_testbed::report::TextTable;

use crate::cli::Args;

/// Returns (game goodput, total TCP goodput, Jain's index over the
/// game + per-TCP-flow goodputs).
fn run(system: SystemKind, n_flows: u32, secs: u64, seed: u64) -> (f64, f64, f64) {
    let capacity = BitRate::from_mbps(25);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(2.0);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (mut b, servers, client) = NetworkBuilder::dumbbell(seed, down);

    let media = b.flow("media");
    let feedback = b.flow("feedback");
    let profile = system.profile();
    gamestream::connect(&mut b, client, servers, feedback, |gclient| {
        StreamServer::new(
            media,
            client,
            gclient,
            profile.build_source(seed, stream_id("frames")),
            profile.build_controller(),
        )
    });

    let mut tcp_flows = Vec::new();
    for i in 0..n_flows {
        let data = b.flow(format!("cubic{i}"));
        let acks = b.flow(format!("ack{i}"));
        // Stagger starts slightly, as real flows would.
        let start = SimTime::from_secs(30 + i as u64 * 2);
        tcp::connect(&mut b, servers, client, data, acks, CcaKind::Cubic, |cfg| {
            TcpSender::new(cfg.active_during(start, SimTime::from_secs(secs)))
        });
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
    let timeline = if args.flag("--smoke") {
        ExperimentOpts::smoke().timeline
    } else {
        ExperimentOpts::quick().timeline
    };
    let secs = (timeline.end.as_secs_f64() / 2.0).max(120.0) as u64;
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
