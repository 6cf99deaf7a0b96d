//! The repo benchmark: five workloads, simulated seconds per host second
//! end to end, and a per-layer ledger timed from outside through the public
//! functions of `simcore`, `netsim`, `tcp`, `gamestream` and `testbed`.
//! See `README.md` for the metric glossary and how to read the output.

pub mod alloc;
pub mod check;
pub mod cli;
pub mod compare;
pub mod e2e;
pub mod iso;
pub mod json;
pub mod layers;
pub mod metrics;
pub mod record;
pub mod span;
pub mod stats;
pub mod workload;
