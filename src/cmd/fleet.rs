//! Fleet-scale campaign: sweep ≥ 100k seeded streaming sessions
//! through the simulator with flat memory, streaming every session into
//! bounded per-condition percentile sketches, and checkpointing shard
//! progress to a resumable manifest.
//!
//! The sweep covers the paper's central contested bottleneck (25 Mb/s,
//! 2× BDP queue) for all three systems against both competitor CCAs —
//! 6 conditions, `sessions / 6` seeded iterations each — on a scaled
//! timeline so a single machine can push through fleet-sized session
//! counts. Emits schema-versioned `BENCH_fleet.json` with per-condition
//! mean/σ/p50/p95/p99 for encoder rate, goodput, RTT, fps, loss and
//! settle times, plus the `sessions_per_sec` headline `ci.sh`'s fleet
//! gate tracks, and prints an `aggregate digest` line the resume gate
//! compares across kill/resume splits.
//!
//! Usage: `cargo run --release -- fleet
//!   [--sessions N] [--smoke] [--scale F] [--shard-size N] [--threads N]
//!   [--manifest PATH] [--halt-after-shards K] [--checks] [--csv PATH]`
//!
//! `--manifest` enables checkpoint/resume: re-running the same command
//! after a kill continues where the sweep stopped and produces aggregates
//! bit-identical to an uninterrupted run. `--halt-after-shards` stops
//! early on purpose (CI uses it to force a resume). `--csv` overrides the
//! JSON output path.

use std::path::PathBuf;

use gsrepro_gamestream::SystemKind;
use gsrepro_tcp::CcaKind;
use gsrepro_testbed::campaign::{run_campaign, CampaignSpec, CondAggregate, METRICS};
use gsrepro_testbed::config::{Condition, Timeline};
use gsrepro_testbed::report::percentile_table;

use crate::cli::{write_csv, Args};

/// Bump when the JSON layout changes shape (consumers: ci.sh).
const SCHEMA: u32 = 1;

/// The competitors each system meets; the sweep is `SystemKind::ALL` × these.
const CCAS: [CcaKind; 2] = [CcaKind::Cubic, CcaKind::Bbr];

/// Seeded iterations of each condition: `sessions` split over the sweep's
/// conditions, rounded up; `None` when that does not fit the run index.
fn per_condition(sessions: u64) -> Option<u32> {
    u32::try_from(sessions.div_ceil((SystemKind::ALL.len() * CCAS.len()) as u64)).ok()
}

/// What the command line asked for.
pub struct FleetArgs {
    pub sessions: u64,
    pub scale: f64,
    pub shard_size: u32,
    pub threads: usize,
    pub manifest: Option<PathBuf>,
    pub halt_after_shards: Option<usize>,
    pub checks: bool,
    pub csv: Option<String>,
}

impl FleetArgs {
    pub fn parse(args: Args) -> FleetArgs {
        // `--smoke` only picks the defaults; explicit flags win.
        let (sessions, shard_size) = if args.flag("--smoke") {
            (60, 4)
        } else {
            (100_002, 64) // divisible by the 6 conditions
        };
        let sessions = args.positive("--sessions").unwrap_or(sessions);
        if per_condition(sessions).is_none() {
            args.usage_error(format_args!(
                "--sessions {sessions}: over {} sessions per condition",
                u32::MAX
            ));
        }
        FleetArgs {
            sessions,
            scale: args.scale("--scale").unwrap_or(0.02),
            shard_size: args.positive("--shard-size").unwrap_or(shard_size),
            threads: args
                .positive("--threads")
                .unwrap_or_else(gsrepro_testbed::runner::default_threads),
            manifest: args.value("--manifest"),
            halt_after_shards: args.value("--halt-after-shards"),
            checks: args.flag("--checks"),
            csv: args.csv(),
        }
    }
}

fn json_metric(agg: &CondAggregate, i: usize) -> String {
    let s = agg.metric(i);
    format!(
        "\"{}\": {{ \"n\": {}, \"mean\": {:.4}, \"sd\": {:.4}, \
         \"p50\": {:.4}, \"p95\": {:.4}, \"p99\": {:.4}, \"min\": {:.4}, \"max\": {:.4} }}",
        METRICS[i],
        s.count(),
        s.mean(),
        s.stddev(),
        s.quantile(0.50),
        s.quantile(0.95),
        s.quantile(0.99),
        s.min(),
        s.max(),
    )
}

fn json_condition(label: &str, agg: &CondAggregate) -> String {
    let metrics: Vec<String> = (0..METRICS.len()).map(|i| json_metric(agg, i)).collect();
    let frac = |n: u64| {
        if agg.runs == 0 {
            0.0
        } else {
            n as f64 / agg.runs as f64
        }
    };
    format!(
        "    {{\n      \"condition\": \"{label}\",\n      \"sessions\": {},\n      \
         \"never_response_frac\": {:.4},\n      \"never_recovery_frac\": {:.4},\n      {}\n    }}",
        agg.runs,
        frac(agg.never_response),
        frac(agg.never_recovery),
        metrics.join(",\n      "),
    )
}

pub fn fleet(args: Args) {
    let fa = FleetArgs::parse(args);

    // The paper's central contested bottleneck, all systems × both CCAs.
    let tl = Timeline::scaled(fa.scale);
    let conditions: Vec<Condition> = SystemKind::ALL
        .into_iter()
        .flat_map(|sys| CCAS.map(|cca| Condition::new(sys, Some(cca), 25, 2.0).with_timeline(tl)))
        .collect();
    let iterations = per_condition(fa.sessions).expect("FleetArgs::parse bounds --sessions");

    let mut spec = CampaignSpec::new(conditions, iterations);
    spec.shard_size = fa.shard_size;
    spec.threads = fa.threads;
    spec.checks = fa.checks;
    spec.manifest = fa.manifest.clone();
    spec.halt_after_shards = fa.halt_after_shards;

    eprintln!(
        "fleet: {} conditions × {} sessions (scale {}, shards of {}, {} thread(s))",
        spec.conditions.len(),
        iterations,
        fa.scale,
        spec.shard_size,
        spec.threads,
    );

    let result = match run_campaign(&spec) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };

    if let Some(note) = &result.torn_tail {
        eprintln!("fleet: {note}");
    }
    eprintln!(
        "fleet: {} sessions this run ({} resumed shard(s), {} pending) in {:.1} s — {:.1} sessions/s",
        result.sessions_this_run,
        result.resumed_shards,
        result.pending_shards,
        result.wall_secs,
        result.sessions_per_sec(),
    );

    // Percentile tables for the metrics the paper discusses most.
    for (i, &name) in METRICS.iter().enumerate() {
        if !matches!(name, "encoder_rate_mbps" | "rtt_ms" | "response_s") {
            continue;
        }
        let rows: Vec<(String, &gsrepro_testbed::MetricSketch)> = result
            .conditions
            .iter()
            .map(|(c, a)| (c.label(), a.metric(i)))
            .collect();
        println!("{}", percentile_table(name, &rows));
    }
    println!("aggregate digest: {:016x}", result.digest());

    let body: Vec<String> = result
        .conditions
        .iter()
        .map(|(c, a)| json_condition(&c.label(), a))
        .collect();
    let json = format!(
        "{{\n  \"schema\": {SCHEMA},\n  \
         \"sessions_total\": {},\n  \
         \"sessions_this_run\": {},\n  \
         \"complete\": {},\n  \
         \"scale\": {},\n  \
         \"shard_size\": {},\n  \
         \"resumed_shards\": {},\n  \
         \"sessions_per_sec\": {:.2},\n  \
         \"wall_secs\": {:.1},\n  \
         \"digest\": \"{:016x}\",\n  \
         \"conditions\": [\n{}\n  ]\n}}\n",
        result.sessions_total(),
        result.sessions_this_run,
        result.complete(),
        fa.scale,
        spec.shard_size,
        result.resumed_shards,
        result.sessions_per_sec(),
        result.wall_secs,
        result.digest(),
        body.join(",\n"),
    );

    let path = fa.csv.unwrap_or_else(|| "BENCH_fleet.json".to_string());
    write_csv(&Some(path), &json);

    if !result.complete() {
        // Deliberate halts (CI's forced-resume gate) exit non-zero so a
        // truncated sweep can't be mistaken for a finished one.
        std::process::exit(3);
    }
}
