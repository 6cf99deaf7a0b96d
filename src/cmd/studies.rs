//! Studies beyond the paper's artifacts: the DESIGN.md ablations, the
//! WAN-jitter sensitivity sweep, and the Ware model oracle.

use gsrepro_simcore::SimDuration;
use gsrepro_testbed::config::Condition;
use gsrepro_testbed::experiments::find_cell;
use gsrepro_testbed::model::{self, OracleSpec};
use gsrepro_testbed::report::TextTable;
use gsrepro_testbed::{ablation as abl, CcaKind, SystemKind};

use crate::cli::{sweep_opts, write_csv, Args};

/// The three DESIGN.md ablations:
///
/// * D2 — controller-archetype swap across system profiles,
/// * D3 — BBR PROBE_BW cwnd-gain sweep vs Cubic at a bloated queue,
/// * D1 — queue-discipline sweep (drop-tail / CoDel / FQ-CoDel).
pub fn ablation(args: Args) {
    let opts = sweep_opts(&args);

    eprintln!("[1/3] D2 controller swap (18 conditions)...");
    let swap = abl::controller_swap(&opts);
    println!("{swap}");

    eprintln!("[2/3] D3 BBR cwnd-gain sweep...");
    let cells = abl::bbr_cwnd_gain(&[1.0, 1.5, 2.0, 3.0, 4.0], 7.0, 90, 11);
    println!("\nD3 ablation — BBR cwnd_gain vs Cubic, 25 Mb/s, 7x BDP (paper: the 2x cap");
    println!("is why RTT halves vs the Cubic-only column)\n");
    let mut t = TextTable::new(vec!["cwnd_gain", "BBR share", "RTT (ms)"]);
    for c in &cells {
        t.row(vec![
            format!("{:.1}", c.gain),
            format!("{:.2}", c.bbr_share),
            format!("{:.1}", c.rtt_ms),
        ]);
    }
    println!("{}", t.render());

    eprintln!("[3/3] D1 AQM sweep (9 conditions)...");
    let aqm = abl::aqm_sweep(&opts);
    println!("\nD1 ablation — queue discipline at 25 Mb/s, 7x BDP, vs Cubic\n");
    let mut t = TextTable::new(vec!["qdisc", "system", "fairness", "RTT (ms)"]);
    for c in &aqm {
        t.row(vec![
            c.aqm.label().to_string(),
            c.system.label().to_string(),
            format!("{:+.2}", c.fairness),
            format!("{:.1}", c.rtt_ms),
        ]);
    }
    println!("{}", t.render());
}

/// Do the headline fairness signs survive Internet weather? Re-runs a
/// representative slice of Figure 3 with increasing WAN jitter (the noise
/// the simulator's clean paths lack relative to the paper's
/// campus-to-cloud testbed).
pub fn sensitivity(args: Args) {
    let opts = sweep_opts(&args);
    let jitters_ms = [0u64, 2, 5];
    let slice = [
        (SystemKind::Stadia, CcaKind::Cubic, 2.0),
        (SystemKind::GeForce, CcaKind::Cubic, 2.0),
        (SystemKind::Luna, CcaKind::Cubic, 2.0),
        (SystemKind::Stadia, CcaKind::Bbr, 0.5),
        (SystemKind::Luna, CcaKind::Bbr, 0.5),
    ];

    let mut conditions = Vec::new();
    for &j in &jitters_ms {
        for &(sys, cca, q) in &slice {
            conditions.push(
                Condition::new(sys, Some(cca), 25, q)
                    .with_wan_jitter(SimDuration::from_millis(j))
                    .with_timeline(opts.timeline),
            );
        }
    }
    eprintln!(
        "running {} conditions × {} iterations...",
        conditions.len(),
        opts.iterations
    );
    let results = opts.run(&conditions);

    println!("fairness vs WAN jitter (25 Mb/s slice of Figure 3)\n");
    let mut t = TextTable::new(vec!["condition", "0 ms", "2 ms", "5 ms"]);
    for &(sys, cca, q) in &slice {
        let mut row = vec![format!("{sys} vs {cca} @{q}x")];
        // `results` holds the slice once per jitter, in `jitters_ms` order.
        for at_jitter in results.chunks(slice.len()) {
            let cr = find_cell(at_jitter, sys, Some(cca), 25, q).expect("condition present");
            row.push(format!("{:+.2}", cr.fairness_mean()));
        }
        t.row(row);
    }
    println!("{}", t.render());
    println!("the reproduction's conclusions should not depend on perfectly clean paths:");
    println!("signs (who wins) are expected to be stable across the jitter sweep.");
}

/// Bulk-Cubic-vs-bulk-BBR cells measured on the simulator and graded
/// against the Ware BBRv1 inflight-cap model's closed-form convergence
/// shares (see `testbed::model` and EXPERIMENTS.md "Model oracle").
///
/// Exits non-zero if any model-applicable cell diverges, so CI can gate on
/// it directly. `--smoke` runs the CI-sized grid, `--checks` audits every
/// cell with the invariant oracles, `--csv` dumps the table.
pub fn model_oracle(args: Args) {
    let mut spec = if args.flag("--smoke") {
        OracleSpec::smoke()
    } else {
        OracleSpec::paper()
    };
    spec.checks = args.flag("--checks");
    if let Some(n) = args.positive("--threads") {
        spec.threads = n;
    }
    let csv = args.csv();

    let report = model::run_model_oracle(&spec);
    let sc = model::model_scorecard(&report);

    println!(
        "model oracle — Ware inflight-cap stable root p* = (1 - 1/X)/2 vs measured Cubic share"
    );
    println!(
        "({} cells, {:.0} s each, tolerance ±{}, checks {})\n",
        report.cells.len(),
        spec.duration.as_secs_f64(),
        model::MODEL_TOLERANCE,
        if spec.checks { "on" } else { "off" }
    );
    println!("{}", report.table().render());
    println!("{sc}");

    if spec.checks {
        let audited: u64 = report
            .cells
            .iter()
            .map(|c| c.measured.checks_performed)
            .sum();
        println!("invariant oracle evaluations across the grid: {audited}");
    }

    write_csv(&csv, &report.csv());

    let diverged = report.diverged();
    if diverged > 0 {
        eprintln!("error: {diverged} model-applicable cell(s) diverged from the Ware prediction");
        std::process::exit(1);
    }
}
