//! # gsrepro-testbed
//!
//! The experiment harness that reproduces every table and figure of
//! Xu & Claypool, *"Measurement of Cloud-based Game Streaming System
//! Response to Competing TCP Cubic or TCP BBR Flows"* (IMC '22), on the
//! simulated testbed.
//!
//! * [`config`] — experimental conditions (Table 2): capacity ∈ {15, 25,
//!   35} Mb/s, queue ∈ {0.5×, 2×, 7×} BDP, competitor ∈ {Cubic, BBR},
//!   system ∈ {Stadia, GeForce, Luna}, and the 9-minute timeline with the
//!   competing flow in the middle third;
//! * [`topology`] — builds the testbed network for one condition (game
//!   server, iperf server, router with the shaped bottleneck, clients,
//!   RTT equalized at 16.5 ms as in the paper);
//! * [`runner`] — runs one seeded iteration of a condition
//!   ([`runner::run_condition_with`]) or a whole grid of them in parallel
//!   across OS threads ([`runner::run_many_full`]), collecting per-run
//!   series;
//! * [`metrics`] — response time, recovery time, adaptiveness *A*,
//!   fairness (normalized bitrate difference), plus the harm metric from
//!   the paper's future-work section;
//! * [`experiments`] — [`ExperimentOpts::run`](experiments::ExperimentOpts::run),
//!   the sized grid run every CLI sweep goes through, and one entry point
//!   per table/figure (Table 1, Figure 2, Figure 3, Figure 4, Tables 3-5,
//!   the tech-report loss tables);
//! * [`ablation`] — the DESIGN.md ablations: controller-archetype swap,
//!   BBR in-flight-cap sweep, AQM sweep;
//! * [`report`] — ASCII tables/heatmaps and CSV emission;
//! * [`model`] — the Ware BBRv1 inflight-cap fairness model and the
//!   model oracle: closed-form Cubic-vs-BBR convergence shares, with
//!   validity preconditions, graded against measured bulk-flow grids;
//! * [`sketch`] — bounded log-linear percentile sketches for streaming
//!   aggregation;
//! * [`campaign`] — the fleet engine: shard 100k-session sweeps across
//!   cores, stream metrics into sketches (flat memory), and checkpoint
//!   shards to a resumable manifest with bit-identical aggregates;
//! * [`chaos`] — adversarial trial campaigns: random conditions ×
//!   random disturbance schedules under full oracles, a watchdog and a
//!   determinism oracle, with delta-debugging shrinking to minimal,
//!   replayable repro files.

pub mod ablation;
pub mod campaign;
pub mod chaos;
pub mod config;
pub mod experiments;
pub mod metrics;
pub mod model;
pub mod report;
pub mod runner;
pub mod scorecard;
pub mod sketch;
pub mod topology;

pub use campaign::{run_campaign, CampaignResult, CampaignSpec, CondAggregate, FleetSample};
pub use chaos::{run_chaos, ChaosReport, ChaosSpec, ChaosVerdict, Perturbation, Trial};
pub use config::{Aqm, Condition, Grid, Timeline};
pub use gsrepro_gamestream::SystemKind;
pub use gsrepro_tcp::CcaKind;
pub use model::{model_scorecard, run_model_oracle, CellVerdict, OracleReport, OracleSpec};
pub use runner::{run_condition_with, run_many_full, ConditionResult, RunResult};
pub use sketch::MetricSketch;
