//! # gsrepro-simcore
//!
//! A small, deterministic discrete-event simulation (DES) engine.
//!
//! This crate is the foundation of the testbed that reproduces
//! *"Measurement of Cloud-based Game Streaming System Response to Competing
//! TCP Cubic or TCP BBR Flows"* (Xu & Claypool, IMC '22). It knows nothing
//! about networks; it provides:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time,
//! * [`Scheduler`] / [`Engine`] — an event queue with deterministic
//!   tie-breaking and a run loop generic over a user-defined [`World`],
//! * [`units`] — byte counts and bit rates with transmission-time and
//!   bandwidth-delay-product arithmetic,
//! * [`rng`] — seed derivation so every simulated entity gets an independent,
//!   reproducible random stream,
//! * [`stats`] — online mean/variance, confidence intervals, time-binned
//!   series,
//! * [`telemetry`] — a flight-recorder trace bus: typed per-flow events,
//!   bounded rings, counters, CSV export; a no-op when disabled,
//! * [`checks`] — runtime invariant oracles behind the same
//!   zero-cost-when-disabled discipline; an enabled run panics with a
//!   structured report on the first violated conservation law.
//!
//! Determinism is a hard requirement: two runs with the same seed must
//! produce bit-identical results. Events scheduled for the same instant are
//! executed in scheduling order (FIFO), never in allocation or hash order.

pub mod checks;
pub mod engine;
pub mod rng;
pub mod stats;
pub mod telemetry;
pub mod time;
pub mod units;
pub mod watchdog;

pub use checks::{Checks, Violation};
pub use engine::{Engine, SchedStats, Scheduler, TimerHandle, World};
pub use rng::{derive_seed, SimRng};
pub use telemetry::{Recorder, TelemetryConfig, TelemetryEvent};
pub use time::{SimDuration, SimTime};
pub use units::{BitRate, Bytes};
pub use watchdog::{SimError, Watchdog};
