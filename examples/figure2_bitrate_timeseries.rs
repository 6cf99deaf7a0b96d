//! Figure 2, one panel, as an ASCII time-series: the game system's bitrate
//! before, during, and after a competing TCP flow, one row per queue size.
//!
//! ```sh
//! cargo run --release --example figure2_bitrate_timeseries [stadia|geforce|luna] [cubic|bbr]
//! ```

use gsrepro_testbed::config::{Condition, Timeline, QUEUE_MULTS};
use gsrepro_testbed::{run_many, CcaKind, SystemKind};

fn sparkline(series: &[f64], max: f64) -> String {
    const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    series
        .iter()
        .map(|&v| {
            let idx = ((v / max).clamp(0.0, 1.0) * 7.0).round() as usize;
            GLYPHS[idx]
        })
        .collect()
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let system = match args.get(1).map(|s| s.as_str()) {
        Some("geforce") => SystemKind::GeForce,
        Some("luna") => SystemKind::Luna,
        _ => SystemKind::Stadia,
    };
    let cca = match args.get(2).map(|s| s.as_str()) {
        Some("bbr") => CcaKind::Bbr,
        _ => CcaKind::Cubic,
    };

    // Half-length timeline: competitor active for the middle third.
    let timeline = Timeline::scaled(0.5);
    let conditions: Vec<Condition> = QUEUE_MULTS
        .iter()
        .map(|&q| Condition::new(system, Some(cca), 25, q).with_timeline(timeline))
        .collect();

    eprintln!("running 3 conditions × 3 iterations (a minute or two)...");
    let results = run_many(&conditions, 3, gsrepro_testbed::runner::default_threads());

    println!(
        "\n[{} vs {}] 25 Mb/s; competitor active {:.0}-{:.0} s; fair share = 12.5 Mb/s",
        system,
        cca,
        timeline.iperf_start.as_secs_f64(),
        timeline.iperf_stop.as_secs_f64()
    );
    for cr in &results {
        let series = cr.game_series_ci();
        // Downsample to ~100 columns.
        let step = (series.len() / 100).max(1);
        let vals: Vec<f64> = series
            .chunks(step)
            .map(|c| c.iter().map(|&(_, m, _)| m).sum::<f64>() / c.len() as f64)
            .collect();
        println!(
            "\nqueue {:>4}x BDP  0..{:.0}s, y-max 25 Mb/s",
            cr.condition.queue_mult,
            timeline.end.as_secs_f64()
        );
        println!("  {}", sparkline(&vals, 25.0));
        let tl = &cr.condition.timeline;
        println!(
            "  before {:.1} Mb/s   during {:.1} Mb/s   tcp during {:.1} Mb/s",
            cr.game_mean(tl.original_window),
            cr.game_mean(tl.fairness_window),
            cr.iperf_mean(tl.fairness_window),
        );
    }
}
