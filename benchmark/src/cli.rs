//! Argument parsing and result output shared by `bench` and `bench-layers`.

use std::path::PathBuf;

use crate::record::Report;
use crate::workload::{Sizing, Workload};

pub const USAGE: &str = "\
usage: bench        --workload NAME [--seed N] [--seconds N] [--trace 0] [--smoke] [--out FILE] [--out-dir DIR] [--setup-only]
       bench-layers --workload NAME [--seed N] [--seconds N] [--trace 1] [--smoke] [--out FILE] [--out-dir DIR]
       bench compare [--same-code] A.json B.json
       bench check BENCHMARK.json RESULTS.json
workloads: solo contested aqm-dynamic fleet-short repro-grid";

#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub trace: bool,
    /// Set up, report how long it took, and exit (`bench` runs itself this
    /// way to sample set-up time in fresh processes).
    pub setup_only: bool,
    pub sizing: Sizing,
    /// Where the full record goes, if anywhere.
    pub out: Option<PathBuf>,
    /// Scratch files and traces; inside the checkout.
    pub out_dir: PathBuf,
}

pub fn parse(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = 0;
    let mut seconds = 10.0;
    let mut trace = None;
    let mut smoke = false;
    let mut setup_only = false;
    let mut out = None;
    let mut out_dir = PathBuf::from("benchmark/out");
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                workload = Some(Workload::parse(name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&seconds) {
                    return Err(format!("--seconds {seconds} out of range"));
                }
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            "--setup-only" => setup_only = true,
            "--out" => out = Some(PathBuf::from(value()?)),
            "--out-dir" => out_dir = PathBuf::from(value()?),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        trace: trace.unwrap_or(false),
        setup_only,
        // A smoke run times one round whatever --seconds says.
        sizing: Sizing {
            smoke,
            seconds: if smoke { 0.0 } else { seconds },
        },
        out,
        out_dir,
    })
}

/// The skeleton both binaries share: parse the arguments, make the scratch
/// directory, hand over to `run`; returns the exit code.
pub fn main_with(argv: &[String], run: impl FnOnce(&Args) -> i32) -> i32 {
    match parse(argv) {
        Ok(args) => match std::fs::create_dir_all(&args.out_dir) {
            Ok(()) => run(&args),
            Err(e) => {
                eprintln!("cannot create {}: {e}", args.out_dir.display());
                1
            }
        },
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            2
        }
    }
}

/// Print the table, write the record, print the driver's line last; the
/// exit code says whether every output check passed.
pub fn finish(report: &Report, args: &Args) -> i32 {
    report.print_table();
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, report.to_json().render() + "\n") {
            eprintln!("cannot write {}: {e}", path.display());
            return 1;
        }
    }
    println!("{}", report.driver_line());
    i32::from(!report.ops.correct())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_driver_invocation() {
        let a = parse(&argv(
            "--workload fleet-short --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload, Workload::FleetShort);
        assert_eq!((a.seed, a.trace, a.sizing.seconds), (7, true, 12.0));
        assert!(!a.sizing.smoke);
    }

    #[test]
    fn smoke_times_a_single_round() {
        let a = parse(&argv("--workload solo --smoke --seconds 30")).unwrap();
        assert!(a.sizing.smoke);
        assert_eq!(a.sizing.seconds, 0.0);
    }

    #[test]
    fn rejects_bad_input() {
        for bad in [
            "",
            "--workload nope",
            "--workload solo --seed x",
            "--workload solo --trace 2",
            "--workload solo --seconds -1",
            "--workload solo --seed",
            "--workload solo --frobnicate",
        ] {
            assert!(parse(&argv(bad)).is_err(), "{bad:?} accepted");
        }
    }
}
