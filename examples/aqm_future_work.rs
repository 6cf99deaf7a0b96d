//! The paper's future-work question: what if the bottleneck ran Active
//! Queue Management instead of drop-tail? This example repeats the
//! bloated-queue (7x BDP) condition — where drop-tail hurts most — under
//! drop-tail, CoDel, and FQ-CoDel, and compares RTT and fairness.
//!
//! ```sh
//! cargo run --release --example aqm_future_work
//! ```

use gsrepro_testbed::config::{Aqm, Condition, Timeline};
use gsrepro_testbed::report::{mean_sd, TextTable};
use gsrepro_testbed::{run_many, CcaKind, SystemKind};

fn main() {
    let timeline = Timeline::scaled(0.35);

    let mut conditions = Vec::new();
    for aqm in [Aqm::DropTail, Aqm::CoDel, Aqm::FqCoDel] {
        for &sys in &SystemKind::ALL {
            conditions.push(
                Condition::new(sys, Some(CcaKind::Cubic), 25, 7.0)
                    .with_aqm(aqm)
                    .with_timeline(timeline),
            );
        }
    }

    eprintln!("running {} conditions × 2 iterations...", conditions.len());
    let results = run_many(&conditions, 2, gsrepro_testbed::runner::default_threads());

    println!("\nGame system vs TCP Cubic, 25 Mb/s, 7x-BDP (bloated) queue");
    let mut t = TextTable::new(vec![
        "qdisc",
        "system",
        "RTT during competition (ms)",
        "fairness (game-tcp)/cap",
        "frame rate (f/s)",
    ]);
    // One row per condition, in the (qdisc, system) order they were built in.
    for cr in &results {
        let rtt = cr.rtt_pooled();
        t.row(vec![
            cr.condition.aqm.label().to_string(),
            cr.condition.system.label().to_string(),
            mean_sd(rtt.mean(), rtt.stddev()),
            format!("{:+.2}", cr.fairness_mean()),
            format!("{:.1}", cr.fps_pooled().mean()),
        ]);
    }
    println!("{}", t.render());
    println!("expectation: CoDel/FQ-CoDel cut the bloated-queue RTT from ~110 ms toward");
    println!("~20-30 ms, and FQ-CoDel's per-flow scheduling pushes fairness toward 0.");
}
