//! The flight recorder up close. Runs a few seconds of a Stadia-vs-Cubic
//! contest with telemetry enabled and prints the last events around the
//! bottleneck, plus a per-flow breakdown and the CSV export.
//!
//! ```sh
//! cargo run --release --example trace_dump
//! ```

use gsrepro_gamestream::{self as gamestream, StreamServer, SystemKind};
use gsrepro_netsim::{LinkSpec, NetworkBuilder};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::telemetry::{EventKind, TelemetryConfig};
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::{self as tcp, CcaKind, TcpSender};

fn main() {
    let capacity = BitRate::from_mbps(25);
    let queue = capacity.bdp(SimDuration::from_micros(16_500)).mul_f64(0.5);

    let down = LinkSpec::bottleneck(capacity, queue, SimDuration::from_micros(8_250));
    let (b, servers, client) = NetworkBuilder::dumbbell(7, down);
    let mut b = b.telemetry(TelemetryConfig::default());

    let media = b.flow("stadia-media");
    let feedback = b.flow("feedback");
    let tcp_data = b.flow("cubic");
    let tcp_ack = b.flow("cubic-ack");

    let profile = SystemKind::Stadia.profile();
    gamestream::connect(&mut b, client, servers, feedback, |gclient| {
        StreamServer::new(
            media,
            client,
            gclient,
            profile.build_source(7, stream_id("frames")),
            profile.build_controller(),
        )
    });
    tcp::connect(
        &mut b,
        servers,
        client,
        tcp_data,
        tcp_ack,
        CcaKind::Cubic,
        |cfg| TcpSender::new(cfg.active_during(SimTime::from_secs(2), SimTime::from_secs(10))),
    );

    let mut sim = b.build();
    sim.run_until(SimTime::from_secs(10));

    let trace = sim.net.telemetry().telemetry().expect("telemetry enabled");
    let counters = trace.counters();
    let events = trace.events();
    println!(
        "captured {} events ({} more throttled by the sample interval)",
        counters.recorded, counters.throttled
    );

    println!("\nper-flow event counts:");
    for (flow, label) in [
        (media, "stadia-media"),
        (tcp_data, "cubic"),
        (feedback, "feedback"),
    ] {
        let drops = events
            .iter()
            .filter(|e| e.flow == flow.0)
            .filter(|e| matches!(e.kind, EventKind::QueueDrop | EventKind::LinkDrop))
            .count();
        println!(
            "  {label:<14} {:>6} events, {:>4} drops",
            trace.flow_len(flow.0),
            drops
        );
    }

    let csv = trace.to_csv();
    let lines: Vec<&str> = csv.lines().collect();
    println!("\nfirst CSV lines:");
    for line in &lines[..lines.len().min(5)] {
        println!("  {line}");
    }
    println!("\nlast 20 events:");
    for line in &lines[lines.len().saturating_sub(20)..] {
        println!("  {line}");
    }
}
