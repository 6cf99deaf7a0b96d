//! Run watchdog: bounded-resource guards for adversarial simulations.
//!
//! Chaos campaigns feed the engine schedules no curated grid would pick,
//! so a single runaway trial (an event storm from a pathological
//! re-rate cascade, or a livelock where handlers keep rescheduling at
//! the same instant) must not hang the whole fleet. The [`Watchdog`]
//! carries two budgets; [`crate::Engine::run_until_guarded`] checks them
//! inside the engine's one event loop and aborts *gracefully* into a
//! structured [`SimError`] instead of spinning forever. Every run is
//! guarded: [`crate::Engine::run_until`] is that loop under
//! [`Watchdog::default`], panicking with the error text on a trip. The
//! checks observe counters the engine already maintains and consume no
//! randomness, so a run that stays inside the budgets is unchanged by them.

use crate::time::SimTime;

/// Budgets for one guarded run. Both are counted per
/// [`crate::Engine::run_until_guarded`] call, not per engine lifetime, so
/// a watchdogged sim can be driven in segments.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Watchdog {
    /// Maximum events one guarded run may deliver before it is declared
    /// runaway. The paper-scale testbed run (540 sim-seconds) handles
    /// ~7M events, so the default leaves an order of magnitude of head
    /// room while still bounding a trial to seconds of wall clock.
    pub event_budget: u64,
    /// Maximum consecutive events delivered *without simulated time
    /// advancing* before the run is declared livelocked. Same-instant
    /// bursts are normal (the scheduler has a FIFO fast lane for them);
    /// a million of them means a handler is rescheduling itself at
    /// `now` forever.
    pub livelock_window: u64,
}

impl Watchdog {
    /// Default event budget: ~10× a paper-scale run.
    pub const DEFAULT_EVENT_BUDGET: u64 = 100_000_000;
    /// Default livelock window.
    pub const DEFAULT_LIVELOCK_WINDOW: u64 = 1_000_000;

    /// A watchdog with explicit budgets.
    pub fn new(event_budget: u64, livelock_window: u64) -> Self {
        Watchdog {
            event_budget,
            livelock_window,
        }
    }
}

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog {
            event_budget: Self::DEFAULT_EVENT_BUDGET,
            livelock_window: Self::DEFAULT_LIVELOCK_WINDOW,
        }
    }
}

/// Structured failure of a guarded simulation run.
///
/// Unlike an invariant-oracle [`crate::Violation`] (which panics, because
/// a broken conservation law means the simulation state itself is
/// untrustworthy), a `SimError` is a *recoverable* verdict: the run was
/// abandoned but the process is fine, so a fleet can record the failure
/// and move to the next trial.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The run delivered more events than the watchdog's budget.
    EventBudgetExceeded {
        /// The budget that was exhausted.
        budget: u64,
        /// Simulated time at which the run was abandoned.
        at: SimTime,
    },
    /// The run delivered `window` consecutive events without simulated
    /// time advancing.
    Livelock {
        /// The livelock window that was exhausted.
        window: u64,
        /// The instant the clock was stuck at.
        at: SimTime,
    },
    /// A configuration or scenario was rejected before (or instead of)
    /// tripping an assertion deep inside the simulator.
    InvalidScenario {
        /// Human-readable description of the rejected input.
        detail: String,
    },
}

impl SimError {
    /// Short stable tag for histograms and repro files
    /// (`event-budget` / `livelock` / `invalid-scenario`).
    pub fn tag(&self) -> &'static str {
        match self {
            SimError::EventBudgetExceeded { .. } => "event-budget",
            SimError::Livelock { .. } => "livelock",
            SimError::InvalidScenario { .. } => "invalid-scenario",
        }
    }
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventBudgetExceeded { budget, at } => write!(
                f,
                "sim aborted: event budget {budget} exhausted at t={}ns",
                at.as_nanos()
            ),
            SimError::Livelock { window, at } => write!(
                f,
                "sim aborted: {window} events without time advancing at t={}ns",
                at.as_nanos()
            ),
            SimError::InvalidScenario { detail } => {
                write!(f, "invalid scenario: {detail}")
            }
        }
    }
}

impl std::error::Error for SimError {}
