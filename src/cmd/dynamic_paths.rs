//! Settling-time report for dynamic-path scenarios: how fast each system's
//! encoder rate, RTT, and frame rate re-settle after a bottleneck rate
//! step. The paper measures steady paths; this command drives the scenario
//! engine the same way its testbed scripts would have reconfigured `tbf`
//! mid-run.
//!
//! Scenario: each system streams solo on a 25 Mb/s, 2×BDP-queue path that
//! steps down to 10 Mb/s at ~100 s and back to 25 Mb/s at ~200 s (times
//! scale with the timeline, so `--smoke` keeps the same shape). For every
//! disturbance, the settling time of each series is the time until its
//! 5 s-smoothed value first reaches the stable tail of that segment
//! (see `metrics::settle_after`).
//!
//! Usage: `cargo run --release -- dynamic_paths [--smoke] [--iters N]
//! [--csv PATH] [--trace DIR]`.

use gsrepro_gamestream::SystemKind;
use gsrepro_simcore::stats::Samples;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_testbed::config::{Condition, PathScenario};
use gsrepro_testbed::metrics::{settle_after, SettleTime};
use gsrepro_testbed::report::{Csv, TextTable};
use gsrepro_testbed::runner::{bin_window, RunResult};

use crate::cli::{experiment_opts, write_csv, Args};

/// RTT samples arrive every 200 ms; rebin to a uniform 1 s series so the
/// settling scan can treat it like the bitrate bins. Empty bins inherit
/// the previous value (a gap is "no news", not "RTT zero").
fn bin_rtt(rtt: &[(f64, f64)], end_s: f64) -> Vec<f64> {
    let n = end_s.ceil() as usize;
    let mut sums = vec![0.0; n];
    let mut counts = vec![0u32; n];
    for &(t, v) in rtt {
        let i = t as usize;
        if i < n {
            sums[i] += v;
            counts[i] += 1;
        }
    }
    let mut out = vec![0.0; n];
    let mut last = rtt.first().map(|s| s.1).unwrap_or(0.0);
    for i in 0..n {
        if counts[i] > 0 {
            last = sums[i] / counts[i] as f64;
        }
        out[i] = last;
    }
    out
}

/// Settle a series after a disturbance at `from`, scanning to `to`. The
/// target is the stable tail of the segment itself: mean ± sd over its
/// last 40% (by then every system has reached its new operating point).
fn settle(bins: &[f64], width: SimDuration, from: SimTime, to: SimTime) -> SettleTime {
    let tail = bin_window(bins, width, from + (to - from).mul_f64(0.6), to);
    settle_after(bins, width, from, to, tail.mean(), tail.stddev())
}

/// Per-series settling for one run and one disturbance window.
fn run_settles(run: &RunResult, from: SimTime, to: SimTime) -> [SettleTime; 3] {
    let rtt_bins = bin_rtt(&run.rtt, to.as_secs_f64());
    [
        settle(&run.game_bins_mbps, run.bin_width, from, to),
        settle(&rtt_bins, SimDuration::from_secs(1), from, to),
        settle(&run.fps_bins, run.fps_bin_width, from, to),
    ]
}

pub fn dynamic_paths(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let end = opts.timeline.end;
    // The paper timeline is 540 s; place the step at the 100 s / 200 s
    // marks and scale them with `--smoke`'s shorter timeline.
    let frac = |f: f64| SimTime::from_millis((end.as_secs_f64() * f * 1000.0) as u64);
    let (step_down, step_up) = (frac(100.0 / 540.0), frac(200.0 / 540.0));
    let scenario = PathScenario::RateStep {
        rate: BitRate::from_mbps(10),
        from: step_down,
        to: step_up,
    };

    let systems = [SystemKind::Stadia, SystemKind::Luna, SystemKind::GeForce];
    let conditions: Vec<Condition> = systems
        .iter()
        .map(|&sys| {
            Condition::new(sys, None, 25, 2.0)
                .with_timeline(opts.timeline)
                .with_scenario(scenario)
        })
        .collect();
    let results = opts.run(&conditions);

    // Disturbance windows: each scan runs to the next disturbance (or the
    // timeline end for the last one).
    let disturbances = [
        ("25→10 Mb/s", step_down, step_up),
        ("10→25 Mb/s", step_up, end),
    ];

    let mut table = TextTable::new(vec![
        "system",
        "disturbance",
        "at (s)",
        "bitrate settle (s)",
        "rtt settle (s)",
        "fps settle (s)",
    ]);
    let mut out = Csv::new(&[
        "system",
        "disturbance",
        "at_s",
        "bitrate_settle_s",
        "bitrate_never",
        "rtt_settle_s",
        "rtt_never",
        "fps_settle_s",
        "fps_never",
    ]);

    for (sys, cr) in systems.iter().zip(&results) {
        for &(what, from, to) in &disturbances {
            // Mean settling across iterations; count the never-settled runs.
            let mut means = [Samples::new(), Samples::new(), Samples::new()];
            let mut nevers = [0u32; 3];
            for run in &cr.runs {
                for (i, st) in run_settles(run, from, to).iter().enumerate() {
                    means[i].add(st.secs);
                    nevers[i] += st.never as u32;
                }
            }
            let cell = |i: usize| {
                if nevers[i] as usize == cr.runs.len() {
                    "never".to_string()
                } else {
                    format!("{:.1}", means[i].mean())
                }
            };
            table.row(vec![
                sys.label().to_string(),
                what.to_string(),
                format!("{:.0}", from.as_secs_f64()),
                cell(0),
                cell(1),
                cell(2),
            ]);
            out.row(&[
                sys.label().to_string(),
                what.to_string(),
                format!("{:.1}", from.as_secs_f64()),
                format!("{:.2}", means[0].mean()),
                nevers[0].to_string(),
                format!("{:.2}", means[1].mean()),
                nevers[1].to_string(),
                format!("{:.2}", means[2].mean()),
                nevers[2].to_string(),
            ]);
        }
    }

    println!("Dynamic paths: settling time after bottleneck rate steps");
    println!(
        "(solo stream, 25 Mb/s path, 2×BDP queue; step to 10 Mb/s over [{:.0} s, {:.0} s))",
        step_down.as_secs_f64(),
        step_up.as_secs_f64()
    );
    println!("{}", table.render());
    write_csv(&csv, &out.finish());
}
