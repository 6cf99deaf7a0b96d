//! The paper's artifacts: Tables 1–5, Figures 2–4, the loss tables, and
//! the views derived from the same solo and competing grids (response and
//! recovery times, harm, the scorecards, the one-shot full reproduction).

use gsrepro_testbed::experiments as ex;
use gsrepro_testbed::{report, scorecard as sc, Grid};

use crate::cli::{experiment_opts, traced_opts, write_csv, Args};

pub fn table1(args: Args) {
    let t1 = ex::table1(traced_opts(&args));
    println!("Table 1 — game system bitrates, unconstrained (paper: Stadia 27.5 (2.3), GeForce 24.5 (1.8), Luna 23.7 (0.9))\n");
    println!("{t1}");
}

pub fn table2(_: Args) {
    println!("{}", ex::table2_text());
}

pub fn table3(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let t = ex::table3(&ex::run_solo_grid(opts));
    println!("{t}");
    write_csv(&csv, &t.csv());
}

pub fn table4(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let t = ex::table4(&ex::run_full_grid(opts));
    println!("{t}");
    write_csv(&csv, &t.csv());
}

pub fn table5(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let t = ex::table5(&ex::run_full_grid(opts));
    println!("{t}");
    write_csv(&csv, &t.csv());
}

pub fn figure2(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let results = opts.run(&Grid::figure2(opts.timeline));
    let fig = ex::figure2(&ex::GridResults { results, opts });
    println!("{fig}");
    write_csv(&csv, &fig.csv());
    if let Some(path) = &csv {
        // Companion gnuplot script for visual inspection.
        let gp = report::gnuplot_figure2(
            path,
            fig.timeline.iperf_start.as_secs_f64(),
            fig.timeline.iperf_stop.as_secs_f64(),
        );
        write_csv(&Some(format!("{path}.gp")), &gp);
    }
}

pub fn figure3(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let fig = ex::figure3(&ex::run_full_grid(opts));
    println!("{fig}");
    write_csv(&csv, &fig.csv());
}

pub fn figure4(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let fig = ex::figure4(&ex::run_full_grid(opts));
    println!("{fig}");
    write_csv(&csv, &fig.csv());
}

pub fn loss_tables(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let solo = ex::run_solo_grid(opts.clone());
    let grid = ex::run_full_grid(opts);
    let (a, b) = ex::loss_tables(&solo, &grid);
    println!("{a}\n{b}");
    write_csv(&csv, &(a.csv() + &b.csv()));
}

pub fn response_recovery(args: Args) {
    let (opts, csv) = experiment_opts(args);
    let t = ex::response_recovery(&ex::run_full_grid(opts));
    println!("{t}");
    write_csv(&csv, &t.csv());
}

pub fn harm(args: Args) {
    let (opts, csv) = experiment_opts(args);
    eprintln!("running solo grid...");
    let solo = ex::run_solo_grid(opts.clone());
    eprintln!("running competing grid...");
    let grid = ex::run_full_grid(opts);
    let harm = ex::harm_table(&solo, &grid);
    println!("{harm}");
    write_csv(&csv, &harm.csv());
}

pub fn scorecard(args: Args) {
    let opts = traced_opts(&args);
    eprintln!("running solo grid...");
    let solo = ex::run_solo_grid(opts.clone());
    eprintln!("running competing grid...");
    let grid = ex::run_full_grid(opts);
    println!("{}", sc::scorecard(&solo, &grid));
}

pub fn scorecard3d(args: Args) {
    let (opts, csv) = experiment_opts(args);
    eprintln!("running 3-D AQM grid (27 cells)...");
    let grid = ex::run_aqm3d_grid(opts);
    let table = ex::aqm3d(&grid);
    println!("{table}");
    println!("{}", sc::aqm_scorecard(&grid));
    write_csv(&csv, &table.csv());
}

pub fn full_reproduction(args: Args) {
    let opts = traced_opts(&args);
    eprintln!(
        "full reproduction: {} iterations/condition, {} threads (paper: 15 iterations)",
        opts.iterations, opts.threads
    );

    println!("{}", ex::table2_text());

    eprintln!("[1/3] Table 1 (unconstrained bitrates)...");
    println!("\n{}", ex::table1(opts.clone()));

    eprintln!("[2/3] solo grid (Table 3, solo loss)...");
    let solo = ex::run_solo_grid(opts.clone());
    eprintln!("[3/3] full competing grid (Figures 2-4, Tables 4-5)...");
    let grid = ex::run_full_grid(opts);

    println!("\n{}", ex::table3(&solo));
    println!("\n{}", ex::table4(&grid));
    println!("\n{}", ex::table5(&grid));
    let (l1, l2) = ex::loss_tables(&solo, &grid);
    println!("\n{l1}\n{l2}");
    println!("\n{}", ex::figure3(&grid));
    println!("\n{}", ex::figure4(&grid));
    // Figure 2 is the full grid's 25 Mb/s slice: reduced, not re-run.
    println!("\n{}", ex::figure2(&grid));
}
