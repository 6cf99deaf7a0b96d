//! Per-layer numbers from the traced pass, under the counting allocator.
//! End-to-end numbers never come from this binary.

use std::time::Instant;

use gsrepro_benchmark::alloc::Counting;
use gsrepro_benchmark::{cli, layers};

#[global_allocator]
static ALLOC: Counting = Counting;

fn main() {
    let started = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = cli::main_with(&argv, |args| {
        let report = layers::run(
            args.workload,
            args.seed,
            args.sizing,
            &args.out_dir,
            started,
        );
        cli::finish(&report, args)
    });
    std::process::exit(code);
}
