//! # gsrepro
//!
//! Reproduction of Xu & Claypool (IMC '22): cloud game streaming against a
//! competing TCP Cubic or BBR flow, on a simulated testbed. This package is
//! the front door: the `gsrepro` binary regenerates every table and figure
//! and hosts every inspection tool as a subcommand: `cargo run --release
//! -- table3 --smoke`, `... -- full_reproduction`, and so on. `gsrepro
//! --help` lists the commands and `gsrepro <command> --help` a command's
//! flags; README.md maps each paper artifact to its command.
//!
//! The simulator itself is the five library crates under `crates/`;
//! [`testbed`] is the one experiment code starts from.

pub mod cli;
mod cmd;

pub use gsrepro_testbed as testbed;
