//! Pure-TCP dynamics on the testbed bottleneck — the related-work
//! behaviours the game-stream results build on (paper §2.2):
//!
//! 1. two Cubic flows share fairly (intra-protocol balance),
//! 2. two BBR flows share fairly,
//! 3. Cubic vs BBR is imbalanced and the imbalance depends on queue size
//!    (Miyazawa et al.; Claypool et al.; Ware et al.),
//! 4. Cubic fills large queues (RTT → queue limit) while BBR's 2×BDP
//!    in-flight cap keeps RTT near 1 BDP of queueing.
//!
//! ```sh
//! cargo run --release --example tcp_dynamics
//! ```

use gsrepro_netsim::apps::{EchoTo, PingAgent};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{connect, CcaKind, TcpSender};

struct Outcome {
    g1: f64,
    g2: f64,
    rtt: f64,
}

fn duel(cca1: CcaKind, cca2: CcaKind, queue_mult: f64, seed: u64) -> Outcome {
    let capacity = BitRate::from_mbps(25);
    let rtt = SimDuration::from_micros(16_500);
    let queue = capacity.bdp(rtt).mul_f64(queue_mult);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (mut b, server, client) = NetworkBuilder::dumbbell(seed, down);

    let mut flows = vec![];
    for (i, cca) in [cca1, cca2].into_iter().enumerate() {
        let data = b.flow(format!("f{i}"));
        let acks = b.flow(format!("a{i}"));
        connect(&mut b, server, client, data, acks, cca, TcpSender::new);
        flows.push(data);
    }
    // Ping alongside, as the testbed does.
    let ping_flow = b.flow("ping");
    let (ping, _) = b.add_pair(client, server, |ping, echo| {
        let interval = SimDuration::from_millis(200);
        (
            Box::new(PingAgent::new(ping_flow, server, echo, interval)),
            Box::new(EchoTo::new(ping_flow, ping)),
        )
    });

    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(60));
    let w = |f| sim.goodput_mbps(f, SimTime::from_secs(20), SimTime::from_secs(60));
    let p: &PingAgent = sim.net.agent(ping);
    Outcome {
        g1: w(flows[0]),
        g2: w(flows[1]),
        rtt: p.rtt_samples().mean(),
    }
}

fn main() {
    println!("25 Mb/s bottleneck, 16.5 ms base RTT, 60 s runs, throughput over [20,60) s\n");
    println!(
        "{:<22}{:>8}{:>8}{:>10}",
        "pairing", "flow1", "flow2", "RTT ms"
    );
    for (label, c1, c2, q) in [
        ("cubic vs cubic @2x", CcaKind::Cubic, CcaKind::Cubic, 2.0),
        ("bbr   vs bbr   @2x", CcaKind::Bbr, CcaKind::Bbr, 2.0),
        ("cubic vs bbr   @0.5x", CcaKind::Cubic, CcaKind::Bbr, 0.5),
        ("cubic vs bbr   @2x", CcaKind::Cubic, CcaKind::Bbr, 2.0),
        ("cubic vs bbr   @7x", CcaKind::Cubic, CcaKind::Bbr, 7.0),
        ("cubic solo     @7x", CcaKind::Cubic, CcaKind::Cubic, 7.0),
    ] {
        let o = duel(c1, c2, q, 99);
        println!("{:<22}{:>8.1}{:>8.1}{:>10.1}", label, o.g1, o.g2, o.rtt);
    }
    println!("\nexpectations: intra-protocol pairs split ~12.5/12.5; cubic-vs-bbr is");
    println!("imbalanced with the winner depending on queue size (BBR wins small queues,");
    println!("Cubic wins bloated ones); RTT at 7x is queue-limited when Cubic is present.");
}
