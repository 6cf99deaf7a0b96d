//! The `gsrepro` binary from the outside: help, bad invocations, and the
//! two subcommands cheap enough to run under `cargo test`.

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
        &[],
    ] {
        let out = gsrepro(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(text(&out.stderr).contains("usage: gsrepro"), "{args:?}");
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
