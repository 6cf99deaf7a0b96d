//! Quickstart: one run of one condition — Stadia competing with a TCP
//! Cubic flow at the paper's "normal" 25 Mb/s constraint with a 2×-BDP
//! router queue — on a shortened timeline, printing the key observables.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::{metrics, run_condition_with, CcaKind, SystemKind};

fn main() {
    // A 1/4-length timeline keeps this example under a few seconds while
    // preserving the arrive→compete→depart structure (competitor active
    // for the middle third).
    let timeline = Timeline::scaled(0.25);
    let cond =
        Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0).with_timeline(timeline);

    println!("condition: {}", cond.label());
    println!(
        "bottleneck: {} with a {}-byte drop-tail queue ({}x BDP)",
        cond.capacity,
        cond.queue_bytes().as_u64(),
        cond.queue_mult
    );

    // No trace, no invariant oracles; keep the whole run as a `RunResult`.
    let run = run_condition_with(&cond, 0, None, false, |v| v.to_result());

    let tl = &cond.timeline;
    let before = run.game_window(tl.original_window.0, tl.original_window.1);
    let during = run.game_window(tl.fairness_window.0, tl.fairness_window.1);
    let tcp = run.iperf_window(tl.fairness_window.0, tl.fairness_window.1);
    println!(
        "\ngame bitrate before competitor : {:6.1} Mb/s",
        before.mean()
    );
    println!(
        "game bitrate during competitor : {:6.1} Mb/s",
        during.mean()
    );
    println!("tcp  bitrate during competitor : {:6.1} Mb/s", tcp.mean());
    println!(
        "fair share                     : {:6.1} Mb/s",
        cond.fair_share_mbps()
    );

    let fairness = metrics::fairness(&run, &cond);
    let resp = metrics::response_time(&run, tl);
    let rec = metrics::recovery_time(&run, tl);
    println!("\nfairness  (game−tcp)/capacity  : {fairness:+.2}");
    println!(
        "response time                  : {:.1} s{}",
        resp.secs,
        if resp.never { " (never settled)" } else { "" }
    );
    println!(
        "recovery time                  : {:.1} s{}",
        rec.secs,
        if rec.never { " (never recovered)" } else { "" }
    );

    let rtt_before = run.rtt_window(tl.original_window.0, tl.original_window.1);
    let rtt_during = run.rtt_window(tl.iperf_start, tl.iperf_stop);
    println!(
        "\nping RTT before competitor     : {:6.1} ms",
        rtt_before.mean()
    );
    println!(
        "ping RTT during competitor     : {:6.1} ms",
        rtt_during.mean()
    );

    let fps = run.fps_window(tl.iperf_start, tl.iperf_stop);
    println!("frame rate during competitor   : {:6.1} f/s", fps.mean());
    println!(
        "media loss during competitor   : {:6.2} %",
        run.game_loss_window(tl.iperf_start, tl.iperf_stop) * 100.0
    );
}
