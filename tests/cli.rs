//! The `gsrepro` binary from the outside: help, bad invocations, and the
//! subcommands cheap enough to run under `cargo test`.

use std::process::{Command, Output};

use gsrepro::cli::COMMANDS;

fn gsrepro(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_gsrepro"))
        .args(args)
        .output()
        .expect("gsrepro runs")
}

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("utf-8 output")
}

#[test]
fn help_lists_every_command() {
    let out = gsrepro(&["--help"]);
    assert!(out.status.success());
    let help = text(&out.stdout);
    for c in COMMANDS {
        assert!(
            help.lines()
                .any(|l| l.split_whitespace().next() == Some(c.name)),
            "{} missing from --help:\n{help}",
            c.name
        );
    }
}

#[test]
fn bad_invocations_exit_2_with_usage() {
    for args in [
        &["no_such_command"][..],
        &["table3", "--no-such-flag"],
        &["table2", "stray"],
        &["fleet", "--sessions"],
        &["chaos", "--trials", "0"],
        &["ablation", "--checks"],
        &["multiflow", "--iters", "1"],
        &["model_oracle", "--full"],
        &[],
    ] {
        let out = gsrepro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(text(&out.stderr).contains("usage: gsrepro"), "{args:?}");
    }
}

#[test]
fn a_flag_the_command_never_reads_is_rejected_before_it_can_clobber() {
    // `--csv` used to be accepted by every grid command and validated by
    // truncating the file, including on commands that write no CSV.
    let path = std::env::temp_dir().join(format!("gsrepro-cli-keep-{}.csv", std::process::id()));
    std::fs::write(&path, "keep\n").unwrap();
    let out = gsrepro(&["table1", "--csv", path.to_str().unwrap()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
    assert!(text(&out.stderr).contains("usage: gsrepro table1"));
    assert_eq!(std::fs::read_to_string(&path).unwrap(), "keep\n");
    std::fs::remove_file(&path).unwrap();
}

#[test]
fn every_command_accepts_every_flag_its_usage_declares() {
    for c in COMMANDS {
        let usage = gsrepro(&[c.name, "--help"]);
        assert!(usage.status.success(), "{}", c.name);
        let first = text(&usage.stdout).lines().next().unwrap().to_string();
        let declared = first
            .strip_prefix(&format!("usage: gsrepro {}", c.name))
            .unwrap_or_else(|| panic!("{first}"));
        // `[--iters N]` takes a value, `[--smoke]` is a switch, `<dir>` is
        // a positional; a trailing `--help` stops before anything runs.
        let mut line: Vec<&str> = declared
            .split([' ', '[', ']'])
            .filter(|tok| !tok.is_empty())
            .collect();
        line.insert(0, c.name);
        line.push("--help");
        let out = gsrepro(&line);
        assert!(out.status.success(), "{line:?}: {}", text(&out.stderr));
        assert_eq!(out.stdout, usage.stdout, "{line:?}");
    }
}

#[test]
fn table2_prints_the_library_text() {
    let out = gsrepro(&["table2"]);
    assert!(out.status.success());
    assert_eq!(
        text(&out.stdout),
        format!("{}\n", gsrepro::testbed::experiments::table2_text())
    );
}

#[test]
fn conformance_passes_on_the_committed_fixtures() {
    let out = gsrepro(&["conformance"]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(text(&out.stdout).contains("controllers match their golden fixtures"));
}

#[test]
fn validate_trace_checks_each_csv_on_its_own() {
    const RUN: &str = "luna-cubic-b25-q2-i0.csv";
    const HEADER: &str = "t_s,flow,kind,a,b\n";
    let competing = format!(
        "{HEADER}0.000000000,4294967295,queue_depth,1500,2\n\
         0.010000000,0,enc_rate,25000000,0\n\
         0.020000000,4,cwnd,14480,18446744073709551615\n"
    );
    let regressing = format!(
        "{HEADER}0.020000000,4294967295,queue_depth,1500,2\n\
         0.010000000,0,enc_rate,25000000,0\n\
         0.030000000,4,cwnd,14480,0\n"
    );
    let unknown_kind = competing.replace("cwnd", "warp");
    // (trace written into a fresh dir, extra argument, expected exit code,
    // expected stdout, text the stderr must contain)
    let cases = [
        (
            Some(&competing),
            None,
            0,
            "validate_trace: 1 runs OK (3 events)\n",
            "",
        ),
        (Some(&regressing), None, 1, "", RUN),
        (Some(&unknown_kind), None, 1, "", RUN),
        (None, None, 1, "", "no .csv traces"),
        (
            Some(&competing),
            Some("--require-scenario"),
            1,
            "",
            "link_scenario",
        ),
    ];
    for (i, (trace, extra, code, stdout, stderr)) in cases.into_iter().enumerate() {
        let dir =
            std::env::temp_dir().join(format!("gsrepro-cli-trace-{}-{i}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        if let Some(trace) = trace {
            std::fs::write(dir.join(RUN), trace).unwrap();
        }
        let mut args = vec!["validate_trace", dir.to_str().unwrap()];
        args.extend(extra);
        let out = gsrepro(&args);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(
            out.status.code(),
            Some(code),
            "case {i}: {}",
            text(&out.stderr)
        );
        assert_eq!(text(&out.stdout), stdout, "case {i}");
        assert!(
            text(&out.stderr).contains(stderr),
            "case {i}: {}",
            text(&out.stderr)
        );
    }
}
