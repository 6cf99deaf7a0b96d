//! The two verification tools CI calls between experiment runs: the CCA
//! conformance kit and the exported-trace validator.

use std::path::{Path, PathBuf};
use std::process::exit;

use gsrepro_simcore::telemetry::{parse_csv, validate_events, EventKind, TelemetryEvent};
use gsrepro_tcp::conformance::{check_fixture, ALL_KINDS};

use crate::cli::Args;

/// Run the CCA conformance kit against the committed golden fixtures.
///
/// Drives every congestion controller (Reno, Cubic, BBR v1, BBR v2, Vegas)
/// through its standard scripted-ack step-response and diffs the
/// trajectory against the fixture under `crates/tcp/tests/fixtures/cca/`.
/// Exits non-zero on the first divergence — CI runs this as the "are the
/// control laws still the control laws" gate. With `--bless`, rewrites the
/// fixtures from the current implementation instead (review the diff
/// before committing).
pub fn conformance(args: Args) {
    let bless = args.flag("--bless");

    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates/tcp/tests/fixtures/cca");
    for kind in ALL_KINDS {
        match check_fixture(kind, &dir, bless) {
            Ok(()) if bless => println!("conformance: {kind} fixture blessed"),
            Ok(()) => println!("conformance: {kind} OK"),
            Err(e) => {
                eprintln!("conformance: {kind} FAILED\n{e}");
                exit(1);
            }
        }
    }
    println!(
        "conformance: {} controllers match their golden fixtures",
        ALL_KINDS.len()
    );
}

fn fail(msg: String) -> ! {
    eprintln!("validate_trace: {msg}");
    exit(1);
}

fn load(path: &Path) -> Vec<TelemetryEvent> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| fail(format!("reading {}: {e}", path.display())));
    let events = parse_csv(&text).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    validate_events(&events).unwrap_or_else(|e| fail(format!("{}: {e}", path.display())));
    events
}

/// Kinds that every traced paper condition must have produced. Cwnd is
/// only demanded of competing runs — solo conditions (label `*-solo-*`)
/// have no TCP flow to produce it.
const REQUIRED: [EventKind; 2] = [EventKind::QueueDepth, EventKind::EncoderRate];

/// Validate exported flight-recorder traces against the telemetry schema.
///
/// Parses every `.csv` in the directory with the simcore telemetry codec,
/// checks the event stream invariants (non-empty, timestamps
/// non-decreasing), and requires the decision-grade series a paper
/// condition must produce (cwnd, queue_depth, enc_rate). With
/// `--require-scenario`, every run must additionally carry at least one
/// `link_scenario` event — proof the scheduled path disturbances actually
/// executed. Exits non-zero on the first violation — CI runs this after a
/// traced smoke grid.
pub fn validate_trace(args: Args) {
    let require_scenario = args.flag("--require-scenario");
    let dir = args.positional();

    let entries = std::fs::read_dir(&dir).unwrap_or_else(|e| fail(format!("reading {dir}: {e}")));
    let mut traces: Vec<PathBuf> = entries
        .map(|entry| {
            entry
                .unwrap_or_else(|e| fail(format!("reading {dir}: {e}")))
                .path()
        })
        .filter(|path| path.extension().is_some_and(|ext| ext == "csv"))
        .collect();
    if traces.is_empty() {
        fail(format!("no .csv traces found in {dir}"));
    }
    traces.sort();

    let mut events = 0usize;
    for path in &traces {
        let stem = path.file_stem().unwrap_or_default().to_string_lossy();
        let run = load(path);
        for kind in REQUIRED {
            if !run.iter().any(|e| e.kind == kind) {
                fail(format!("{stem}: no {} events in trace", kind.name()));
            }
        }
        if !stem.contains("-solo-") && !run.iter().any(|e| e.kind == EventKind::Cwnd) {
            fail(format!("{stem}: no cwnd events in competing-run trace"));
        }
        if require_scenario && !run.iter().any(|e| e.kind == EventKind::LinkScenario) {
            fail(format!(
                "{stem}: --require-scenario set but no link_scenario events in trace"
            ));
        }
        events += run.len();
    }
    println!("validate_trace: {} runs OK ({events} events)", traces.len());
}
