//! The `gsrepro` command line: one dispatch table, one argument parser.
//!
//! Every paper artifact and every inspection tool is a subcommand
//! (`gsrepro table3 --smoke`, `gsrepro chaos --replay F`, …). [`COMMANDS`]
//! is the whole surface: `gsrepro --help` prints it, `gsrepro <command>
//! --help` prints that command's flags, and an unknown command or flag
//! exits 2 with the same text on stderr.
//!
//! A command declares its flags once, in [`COMMANDS`]. `Args::parse`
//! walks the command line left to right against that declaration (a flag
//! that takes a value binds the next token, whatever it looks like) and
//! rejects everything else; the command then reads what was given by name.
//! Flag order therefore never matters — `--smoke` only selects defaults
//! and an explicit `--iters`/`--threads`/`--sessions` wins wherever it
//! stands.

use std::fmt::Display;
use std::str::FromStr;

use gsrepro_testbed::experiments::ExperimentOpts;
use gsrepro_testbed::runner::TraceSpec;

use crate::cmd::{chaos, dynamic_paths, fleet, multiflow, paper, studies, verify};

/// One subcommand: its name, a one-line description, what it accepts and
/// the function that runs it. In `flags`, `"--iters N"` takes a value,
/// `"--smoke"` is a switch and `"<dir>"` is a required positional; both
/// the parser and the usage text are driven by this list.
pub struct Command {
    pub name: &'static str,
    pub about: &'static str,
    flags: &'static [&'static str],
    run: fn(Args),
}

/// Flags of a command that sizes a sweep of runs (see [`sweep_opts`]).
const SWEEP: &[&str] = &["--full", "--smoke", "--iters N", "--threads N", "--quiet"];

/// [`SWEEP`] plus the per-run instruments, for a command whose runs go
/// through [`ExperimentOpts::run`] (see [`traced_opts`]).
const TRACED: &[&str] = &[
    "--full",
    "--smoke",
    "--iters N",
    "--threads N",
    "--trace DIR",
    "--checks",
    "--quiet",
];

/// [`TRACED`] plus `--csv`, for a grid command with a table or series to
/// dump (see [`experiment_opts`]).
const GRID: &[&str] = &[
    "--full",
    "--smoke",
    "--iters N",
    "--threads N",
    "--csv PATH",
    "--trace DIR",
    "--checks",
    "--quiet",
];

const fn grid(name: &'static str, about: &'static str, run: fn(Args)) -> Command {
    Command {
        name,
        about,
        flags: GRID,
        run,
    }
}

/// The dispatch table, in `--help` order.
pub const COMMANDS: &[Command] = &[
    Command {
        name: "table1",
        about: "Table 1: unconstrained steady-state bitrates",
        flags: TRACED,
        run: paper::table1,
    },
    Command {
        name: "table2",
        about: "Table 2: the experimental parameters (no simulation)",
        flags: &[],
        run: paper::table2,
    },
    grid(
        "table3",
        "Table 3: RTT without a competing flow",
        paper::table3,
    ),
    grid(
        "table4",
        "Table 4: RTT with a competing flow",
        paper::table4,
    ),
    grid(
        "table5",
        "Table 5: frame rate with a competing flow",
        paper::table5,
    ),
    grid(
        "figure2",
        "Figure 2: bitrate vs time at 25 Mb/s, all queues and CCAs",
        paper::figure2,
    ),
    grid(
        "figure3",
        "Figure 3: normalized bitrate-difference heatmaps",
        paper::figure3,
    ),
    grid(
        "figure4",
        "Figure 4: adaptiveness vs fairness",
        paper::figure4,
    ),
    grid(
        "loss_tables",
        "the technical report's loss-rate tables",
        paper::loss_tables,
    ),
    grid(
        "response_recovery",
        "per-condition response/recovery times behind Figure 4",
        paper::response_recovery,
    ),
    grid(
        "harm",
        "throughput, delay and frame-rate harm vs the solo run (Ware et al.)",
        paper::harm,
    ),
    Command {
        name: "scorecard",
        about: "PASS/PARTIAL/FAIL verdict for every encoded paper claim",
        flags: TRACED,
        run: paper::scorecard,
    },
    grid(
        "scorecard3d",
        "system x CCA x qdisc QoE table and the graded AQM claims",
        paper::scorecard3d,
    ),
    Command {
        name: "full_reproduction",
        about: "every table and figure, sharing the expensive grids",
        flags: TRACED,
        run: paper::full_reproduction,
    },
    Command {
        name: "ablation",
        about: "DESIGN.md ablations: controller swap, BBR cwnd gain, qdisc sweep",
        flags: SWEEP,
        run: studies::ablation,
    },
    Command {
        name: "sensitivity",
        about: "Figure 3 fairness signs under increasing WAN jitter",
        flags: SWEEP,
        run: studies::sensitivity,
    },
    Command {
        name: "model_oracle",
        about: "Cubic-vs-BBR shares graded against the Ware inflight-cap model",
        flags: &[
            "--smoke",
            "--threads N",
            "--csv PATH",
            "--checks",
            "--quiet",
        ],
        run: studies::model_oracle,
    },
    Command {
        name: "multiflow",
        about: "a game stream against 1-4 competing Cubic flows",
        flags: &["--smoke"],
        run: multiflow::multiflow,
    },
    grid(
        "dynamic_paths",
        "settling time after bottleneck rate steps",
        dynamic_paths::dynamic_paths,
    ),
    Command {
        name: "fleet",
        about: "fleet-scale session sweep with checkpoint/resume",
        flags: &[
            "--sessions N",
            "--smoke",
            "--scale F",
            "--shard-size N",
            "--threads N",
            "--manifest PATH",
            "--halt-after-shards K",
            "--checks",
            "--csv PATH",
        ],
        run: fleet::fleet,
    },
    Command {
        name: "chaos",
        about: "seeded adversarial trials under every oracle; replays repro files",
        flags: &[
            "--trials N",
            "--seed N",
            "--threads N",
            "--scale F",
            "--max-steps N",
            "--perturb KNOB",
            "--shrink-limit N",
            "--emit-repro PATH",
            "--replay FILE",
        ],
        run: chaos::chaos,
    },
    Command {
        name: "conformance",
        about: "diff every CCA against its golden step-response fixture",
        flags: &["--bless"],
        run: verify::conformance,
    },
    Command {
        name: "validate_trace",
        about: "check exported flight-recorder traces against the telemetry schema",
        flags: &["<dir>", "--require-scenario"],
        run: verify::validate_trace,
    },
];

/// The text of `gsrepro --help`.
fn usage() -> String {
    let mut out = String::from("usage: gsrepro <command> [flags]\n\ncommands:\n");
    for c in COMMANDS {
        out.push_str(&format!("  {:<18} {}\n", c.name, c.about));
    }
    out.push_str("\n`gsrepro <command> --help` lists that command's flags.\n");
    out
}

impl Command {
    fn usage(&self) -> String {
        let mut out = format!("usage: gsrepro {}", self.name);
        for f in self.flags {
            if f.starts_with('<') {
                out.push_str(&format!(" {f}"));
            } else {
                out.push_str(&format!(" [{f}]"));
            }
        }
        format!("{out}\n{}\n", self.about)
    }

    /// The declaration of the flag `name`, if the command has one.
    fn flag_spec(&self, name: &str) -> Option<&'static str> {
        self.flags
            .iter()
            .copied()
            .find(|f| f.starts_with('-') && f.split(' ').next() == Some(name))
    }

    /// Report a bad invocation: the message and the command's usage on
    /// stderr, exit status 2.
    fn usage_error(&self, msg: impl Display) -> ! {
        eprint!("error: {msg}\n{}", self.usage());
        std::process::exit(2);
    }
}

fn is_help(arg: &str) -> bool {
    arg == "--help" || arg == "-h"
}

/// Run the command named by the process arguments.
pub fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(name) = argv.next() else {
        eprint!("{}", usage());
        std::process::exit(2);
    };
    if is_help(&name) {
        print!("{}", usage());
        return;
    }
    let Some(cmd) = COMMANDS.iter().find(|c| c.name == name) else {
        eprint!("error: unknown command {name}\n{}", usage());
        std::process::exit(2);
    };
    (cmd.run)(Args::parse(cmd, argv));
}

/// The arguments of one subcommand, already checked against its
/// [`Command::flags`].
pub(crate) struct Args {
    cmd: &'static Command,
    /// `(flag, value)` in command-line order; a switch has an empty value.
    given: Vec<(&'static str, String)>,
    positional: Option<String>,
}

impl Args {
    /// Bind `argv` to the flags `cmd` declares. `--help` where a flag may
    /// stand prints the command's usage and exits 0; an undeclared or
    /// incomplete argument is a usage error.
    pub fn parse(cmd: &'static Command, argv: impl IntoIterator<Item = String>) -> Self {
        let mut args = Args {
            cmd,
            given: Vec::new(),
            positional: None,
        };
        let wants_positional = cmd.flags.iter().find(|f| f.starts_with('<'));
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if is_help(&arg) {
                print!("{}", cmd.usage());
                std::process::exit(0);
            }
            if !arg.starts_with('-') && wants_positional.is_some() && args.positional.is_none() {
                args.positional = Some(arg);
                continue;
            }
            let Some(spec) = cmd.flag_spec(&arg) else {
                cmd.usage_error(format_args!("unexpected argument {arg}"));
            };
            match spec.split_once(' ') {
                None => args.given.push((spec, String::new())),
                Some((name, _)) => match argv.next() {
                    Some(value) => args.given.push((name, value)),
                    None => cmd.usage_error(format_args!("{name} needs a value")),
                },
            }
        }
        if let (Some(f), None) = (wants_positional, &args.positional) {
            cmd.usage_error(format_args!("missing {f}"));
        }
        args
    }

    pub fn usage_error(&self, msg: impl Display) -> ! {
        self.cmd.usage_error(msg)
    }

    /// What was given for `name`, last occurrence first. Asking for a
    /// flag the command does not declare is a bug in the command.
    fn occurrences<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> {
        assert!(
            self.cmd.flag_spec(name).is_some(),
            "{} does not declare {name}",
            self.cmd.name
        );
        self.given
            .iter()
            .rev()
            .filter(move |(n, _)| *n == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the switch `name` was given.
    pub fn flag(&self, name: &str) -> bool {
        self.occurrences(name).next().is_some()
    }

    /// The parsed value of `name VALUE`; the last occurrence wins.
    pub fn value<T: FromStr>(&self, name: &str) -> Option<T> {
        let raw = self.occurrences(name).next()?;
        Some(
            raw.parse()
                .unwrap_or_else(|_| self.usage_error(format_args!("{name}: invalid value {raw}"))),
        )
    }

    /// [`Args::value`] for a count that must be at least 1.
    pub fn positive<T: FromStr + Default + PartialEq>(&self, name: &str) -> Option<T> {
        let v = self.value::<T>(name);
        if v.as_ref() == Some(&T::default()) {
            self.usage_error(format_args!("{name} must be at least 1"));
        }
        v
    }

    /// [`Args::value`] for a timeline scale, which must lie in (0, 1].
    pub fn scale(&self, name: &str) -> Option<f64> {
        let v = self.value::<f64>(name);
        if v.is_some_and(|s| !(s > 0.0 && s <= 1.0)) {
            self.usage_error(format_args!("{name} must be in (0, 1]"));
        }
        v
    }

    /// The `--csv PATH`. The path is validated (created empty) up front:
    /// failing *after* a long grid run would throw the results away.
    pub fn csv(&self) -> Option<String> {
        let path: String = self.value("--csv")?;
        if let Err(e) = std::fs::write(&path, "") {
            self.usage_error(format_args!("cannot write --csv path {path}: {e}"));
        }
        Some(path)
    }

    /// The command's positional argument (`<dir>`).
    pub fn positional(self) -> String {
        self.positional
            .unwrap_or_else(|| panic!("{} declares no positional", self.cmd.name))
    }
}

/// Read the [`SWEEP`] flags: timeline, iterations and threads.
pub(crate) fn sweep_opts(args: &Args) -> ExperimentOpts {
    let mut opts = if args.flag("--smoke") {
        ExperimentOpts::smoke()
    } else {
        ExperimentOpts::quick()
    };
    if args.flag("--full") {
        opts.iterations = 15;
    }
    if let Some(n) = args.positive("--iters") {
        opts.iterations = n;
    }
    if let Some(n) = args.value("--threads") {
        opts.threads = n;
    }
    // The CLI keeps the per-grid throughput line on stderr; library users
    // (tests, the fleet engine) default to silence.
    gsrepro_testbed::runner::set_grid_log(!args.flag("--quiet"));
    opts
}

/// Read the [`TRACED`] flags: [`sweep_opts`] plus `--trace` and `--checks`.
pub(crate) fn traced_opts(args: &Args) -> ExperimentOpts {
    let mut opts = sweep_opts(args);
    if let Some(dir) = args.value::<String>("--trace") {
        // Create (and thereby validate) the directory up front, for the
        // same reason as --csv.
        if let Err(e) = std::fs::create_dir_all(&dir) {
            args.usage_error(format_args!("cannot create --trace dir {dir}: {e}"));
        }
        opts.trace = Some(TraceSpec::new(dir));
    }
    opts.checks = args.flag("--checks");
    opts
}

/// Read the [`GRID`] flags: [`traced_opts`] and the `--csv` path.
pub(crate) fn experiment_opts(args: Args) -> (ExperimentOpts, Option<String>) {
    (traced_opts(&args), args.csv())
}

/// Write `contents` to the `--csv` path, if one was given.
pub(crate) fn write_csv(path: &Option<String>, contents: &str) {
    if let Some(p) = path {
        if let Err(e) = std::fs::write(p, contents) {
            eprintln!("error: failed to write {p}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {p}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(name: &str, line: &str) -> Args {
        let cmd = COMMANDS.iter().find(|c| c.name == name).unwrap();
        Args::parse(cmd, line.split_whitespace().map(String::from))
    }

    #[test]
    fn explicit_flags_win_over_smoke_in_either_order() {
        for line in [
            "--threads 3 --iters 7 --smoke",
            "--smoke --iters 7 --threads 3",
        ] {
            let (opts, _) = experiment_opts(args("table3", line));
            assert_eq!((opts.threads, opts.iterations), (3, 7), "{line}");
            assert_eq!(opts.timeline, ExperimentOpts::smoke().timeline, "{line}");
        }
        for line in ["--sessions 12 --smoke", "--smoke --sessions 12"] {
            let fa = fleet::FleetArgs::parse(args("fleet", line));
            assert_eq!((fa.sessions, fa.shard_size), (12, 4), "{line}");
        }
    }

    #[test]
    fn smoke_alone_selects_the_smoke_defaults() {
        let (opts, csv) = experiment_opts(args("table3", "--smoke --checks"));
        let smoke = ExperimentOpts::smoke();
        assert_eq!(
            (opts.iterations, opts.timeline),
            (smoke.iterations, smoke.timeline)
        );
        assert!(opts.checks && csv.is_none());
        let fa = fleet::FleetArgs::parse(args("fleet", "--smoke"));
        assert_eq!((fa.sessions, fa.shard_size), (60, 4));
    }

    #[test]
    fn a_value_binds_the_next_token_whatever_it_looks_like() {
        let a = args("chaos", "--seed 1 --replay --seed --seed 2");
        assert_eq!(a.value::<u64>("--seed"), Some(2), "last occurrence wins");
        assert_eq!(a.value::<String>("--replay").as_deref(), Some("--seed"));
        assert_eq!(a.value::<String>("--emit-repro"), None);
        let a = args("fleet", "--csv --smoke");
        assert!(!a.flag("--smoke"));
        assert_eq!(a.value::<String>("--csv").as_deref(), Some("--smoke"));
        let a = args("validate_trace", "--require-scenario dir");
        assert!(a.flag("--require-scenario"));
        assert_eq!(a.positional(), "dir");
    }

    #[test]
    fn usage_is_derived_from_the_declared_flags() {
        let cmd = COMMANDS
            .iter()
            .find(|c| c.name == "validate_trace")
            .unwrap();
        assert!(cmd
            .usage()
            .starts_with("usage: gsrepro validate_trace <dir> [--require-scenario]\n"));
    }
}
