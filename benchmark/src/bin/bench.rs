//! End-to-end numbers, tracing off, system allocator. Also hosts the two
//! subcommands that read result files back: `compare` and `check`.

use std::time::Instant;

use gsrepro_benchmark::{cli, compare, e2e};

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("compare") => compare::compare_main(&argv[1..]),
        Some("check") => compare::check_main(&argv[1..]),
        _ => cli::main_with(&argv, |args| {
            let (w, seed, sizing, dir) = (args.workload, args.seed, args.sizing, &args.out_dir);
            if args.trace {
                eprintln!("bench measures with tracing off; bench-layers takes --trace 1");
                2
            } else if args.setup_only {
                e2e::setup_only(w, seed, sizing, dir, started)
            } else {
                cli::finish(&e2e::run(w, seed, sizing, dir, started), args)
            }
        }),
    };
    std::process::exit(code);
}
