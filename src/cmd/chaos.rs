//! Chaos campaign driver: thousands of seeded adversarial trials against
//! the full testbed — random conditions × random disturbance schedules —
//! with every invariant oracle armed, a watchdog bounding each run, and a
//! bit-identity rerun as a determinism oracle. Failures are shrunk to
//! minimal repro files that `--replay` re-executes deterministically.
//!
//! Usage: `cargo run --release -- chaos
//!   [--trials N] [--seed N] [--threads N] [--scale F] [--max-steps N]
//!   [--perturb KNOB] [--shrink-limit N] [--emit-repro PATH]
//!   [--replay FILE]`
//!
//! `KNOB` ∈ {`none`, `seed-skew-on-outage`, `queue-skew-on-shrink`,
//! `tiny-budget=N`}: each plants one bug class the campaign must catch
//! and shrink (the campaign validating itself). Exit status: with
//! `--perturb none`, non-zero iff any verdict is non-clean; with a knob,
//! non-zero iff the planted bug was *not* caught. `--replay` re-runs one
//! repro file and prints a deterministic verdict line (byte-identical
//! across invocations — `ci.sh` pins this).

use gsrepro_testbed::chaos::{run_trial, ChaosSpec, ChaosVerdict, Perturbation, Trial};

use crate::cli::Args;

fn describe(v: &ChaosVerdict) -> String {
    match v {
        ChaosVerdict::Clean => "clean".into(),
        ChaosVerdict::OracleViolation { report } => {
            format!(
                "oracle-violation ({})",
                report.lines().next().unwrap_or("").trim()
            )
        }
        ChaosVerdict::Nondeterminism { digest_a, digest_b } => {
            format!("nondeterminism (digests {digest_a:016x} / {digest_b:016x})")
        }
        ChaosVerdict::Panic { message } => {
            format!("panic ({})", message.lines().next().unwrap_or("").trim())
        }
        ChaosVerdict::Timeout { error } => format!("timeout ({error})"),
    }
}

pub fn chaos(args: Args) {
    let d = ChaosSpec::default();
    let spec = ChaosSpec {
        trials: args.positive("--trials").unwrap_or(d.trials),
        seed: args.value("--seed").unwrap_or(d.seed),
        threads: args.positive("--threads").unwrap_or(d.threads),
        scale: args.scale("--scale").unwrap_or(d.scale),
        max_disturbances: args.positive("--max-steps").unwrap_or(d.max_disturbances),
        perturb: match args.value::<String>("--perturb") {
            Some(knob) => Perturbation::parse(&knob).unwrap_or_else(|e| args.usage_error(e)),
            None => d.perturb,
        },
        shrink_limit: args.value("--shrink-limit").unwrap_or(d.shrink_limit),
        ..d
    };
    let emit_repro: Option<String> = args.value("--emit-repro");
    let replay: Option<String> = args.value("--replay");

    // Oracle violations panic by design and are caught + classified per
    // leg; keep their backtrace spew out of campaign output. Anything
    // else still prints (it is a real, unclassified bug surfacing).
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let text = payload
            .downcast_ref::<&str>()
            .map(|s| s.to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        if !text.starts_with("invariant violation") {
            default_hook(info);
        }
    }));

    if let Some(path) = replay {
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| {
            eprintln!("error: reading repro {path}: {e}");
            std::process::exit(2);
        });
        let trial = Trial::parse(&text).unwrap_or_else(|e| {
            eprintln!("error: parsing repro {path}: {e}");
            std::process::exit(2);
        });
        // Deterministic output: same repro file → byte-identical lines.
        println!(
            "chaos replay: {} steps, perturb {}",
            trial.schedule.steps.len(),
            trial.perturb.label()
        );
        let verdict = run_trial(&trial);
        println!("verdict: {}", describe(&verdict));
        return;
    }

    println!(
        "chaos: {} trials, seed {}, scale {}, max-steps {}, perturb {}, {} threads",
        spec.trials,
        spec.seed,
        spec.scale,
        spec.max_disturbances,
        spec.perturb.label(),
        spec.threads
    );
    let started = std::time::Instant::now();
    let report = gsrepro_testbed::chaos::run_chaos(&spec);
    let hist = report
        .histogram()
        .iter()
        .map(|(tag, n)| format!("{tag} {n}"))
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "verdicts: {hist} ({} trials in {:.1} s)",
        report.trials,
        started.elapsed().as_secs_f64()
    );

    let mut emitted = false;
    for f in &report.failures {
        println!("trial {}: {}", f.trial, describe(&f.verdict));
        if let Some((min, stats)) = &f.shrunk {
            println!(
                "  shrunk: {} -> {} steps, scale {} -> {}, links {} -> {}, {} candidate runs",
                stats.steps_before,
                stats.steps_after,
                stats.scale_before,
                stats.scale_after,
                stats.links_before,
                stats.links_after,
                stats.tests
            );
            if let (Some(path), false) = (&emit_repro, emitted) {
                std::fs::write(path, min.serialize()).unwrap_or_else(|e| {
                    eprintln!("error: writing repro {path}: {e}");
                    std::process::exit(2);
                });
                println!("  repro written: {path}");
                emitted = true;
            }
        }
    }
    if report.shrink_tests > 0 {
        println!(
            "shrinker: {} failures minimized with {} candidate runs",
            report
                .failures
                .iter()
                .filter(|f| f.shrunk.is_some())
                .count(),
            report.shrink_tests
        );
    }

    // Self-validating exit status: a clean fuzz must be clean; a planted
    // bug must be caught.
    let caught = report.trials - report.counts[0];
    match spec.perturb {
        Perturbation::None => {
            if caught > 0 {
                eprintln!("chaos: {caught} non-clean verdicts (expected none)");
                std::process::exit(1);
            }
        }
        _ => {
            if caught == 0 {
                eprintln!("chaos: planted perturbation was never caught");
                std::process::exit(1);
            }
        }
    }
}
