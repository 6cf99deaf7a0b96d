//! Declarative time-varying link scenarios.
//!
//! A [`ScenarioSpec`] is a schedule of per-link disturbances — rate steps,
//! delay steps, loss/duplication-probability windows, full outages, and
//! queue-limit changes — each at an absolute simulation time. The engine
//! applies steps through ordinary scheduled events
//! ([`crate::net::NetEvent::Scenario`]), so traced and untraced runs stay
//! bit-identical and any run reproduces from (condition, seed) alone.
//! Every application is recorded as a `link_scenario` telemetry event, so
//! an exported trace proves each disturbance actually happened.
//!
//! Real paths disturb streams by changing themselves, not only by adding
//! competitors: GeForce NOW sessions observed in the wild ride through
//! rate renegotiations and outages, and physical testbeds induce the same
//! with `tc qdisc change`. This module is the simulator's equivalent of
//! running `tc` against a live router mid-experiment.

//! ## Edge-case semantics
//!
//! * **Steps scheduled in the past** (before the sim's clock when the
//!   scenario is applied) are clamped to "now" by the scheduler and
//!   counted in `past_clamps`; a spec applied before the run starts can
//!   therefore use any time ≥ 0. This is deliberate: a schedule is a
//!   *declaration*, and applying it late means "as of now".
//! * **Zero-duration windows** (`from == to`) are a documented no-op:
//!   the open and the close land at the same instant and apply in FIFO
//!   order, so the probability (or outage) is set and immediately reset
//!   before any packet can observe it.
//! * **Overlapping windows** on one link are last-writer-wins: every
//!   step *sets* an absolute value, so the first window's close resets
//!   the probability to zero even if a second window is still "open".
//!   Inverted windows (`to < from`) are rejected at build time.
//! * [`ScenarioSpec::validate`] rejects the inputs that would otherwise
//!   trip an assertion deep inside the link layer mid-run — a
//!   probability outside `[0, 1]` (or NaN) and a zero shaping rate —
//!   converting those panics into a structured
//!   [`SimError::InvalidScenario`]; [`crate::Sim::try_apply_scenario`]
//!   also rejects a step on a link the network lacks.

use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimError, SimRng, SimTime};

use crate::link::LinkId;

/// One live reconfiguration of a link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ScenarioAction {
    /// Change the shaping rate (`None` removes the limit). Token-bucket
    /// credit is conserved across the change — no burst is forged and no
    /// banked tokens are destroyed.
    Rate(Option<BitRate>),
    /// Change the one-way propagation delay. Packets already propagating
    /// keep the delay in force at their send time.
    Delay(SimDuration),
    /// Change the independent per-packet drop probability.
    Loss(f64),
    /// Change the independent per-packet duplication probability.
    Duplication(f64),
    /// Take the link down (`false`) or bring it back up (`true`). While
    /// down, arrivals are dropped at the link and queued packets park.
    Up(bool),
    /// Change the queue's byte limit. A shrink evicts newest-first.
    QueueLimit(Bytes),
}

impl ScenarioAction {
    /// Stable wire code carried in the `link_scenario` telemetry event's
    /// `b` payload word.
    pub fn wire_code(&self) -> u64 {
        match self {
            ScenarioAction::Rate(_) => 0,
            ScenarioAction::Delay(_) => 1,
            ScenarioAction::Loss(_) => 2,
            ScenarioAction::Duplication(_) => 3,
            ScenarioAction::Up(_) => 4,
            ScenarioAction::QueueLimit(_) => 5,
        }
    }
}

/// One scheduled disturbance: apply `action` to `link` at `at`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ScenarioStep {
    /// Absolute simulation time of the change.
    pub at: SimTime,
    /// The link to reconfigure.
    pub link: LinkId,
    /// What changes.
    pub action: ScenarioAction,
}

/// A declarative per-link disturbance schedule. Build one with the fluent
/// helpers, then hand it to [`crate::net::Sim::apply_scenario`] before
/// (or during) a run.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ScenarioSpec {
    /// The schedule, in insertion order (the engine orders by time).
    pub steps: Vec<ScenarioStep>,
}

impl ScenarioSpec {
    /// An empty schedule.
    pub fn new() -> Self {
        ScenarioSpec::default()
    }

    /// Append an arbitrary step.
    pub fn step(mut self, at: SimTime, link: LinkId, action: ScenarioAction) -> Self {
        self.steps.push(ScenarioStep { at, link, action });
        self
    }

    /// Step the shaping rate at `at`.
    pub fn rate(self, at: SimTime, link: LinkId, rate: BitRate) -> Self {
        self.step(at, link, ScenarioAction::Rate(Some(rate)))
    }

    /// Step the one-way propagation delay at `at`.
    pub fn delay(self, at: SimTime, link: LinkId, delay: SimDuration) -> Self {
        self.step(at, link, ScenarioAction::Delay(delay))
    }

    /// Open a random-loss window: probability `p` from `from` to `to`.
    /// Zero-duration windows (`from == to`) are a documented no-op;
    /// inverted windows are rejected.
    pub fn loss_window(self, from: SimTime, to: SimTime, link: LinkId, p: f64) -> Self {
        assert!(from <= to, "loss window ends before it starts");
        self.step(from, link, ScenarioAction::Loss(p))
            .step(to, link, ScenarioAction::Loss(0.0))
    }

    /// Open a duplication window: probability `p` from `from` to `to`.
    /// Zero-duration windows (`from == to`) are a documented no-op;
    /// inverted windows are rejected.
    pub fn duplication_window(self, from: SimTime, to: SimTime, link: LinkId, p: f64) -> Self {
        assert!(from <= to, "duplication window ends before it starts");
        self.step(from, link, ScenarioAction::Duplication(p)).step(
            to,
            link,
            ScenarioAction::Duplication(0.0),
        )
    }

    /// Full outage from `from` to `to`. Zero-duration outages
    /// (`from == to`) are a documented no-op (down and up apply
    /// back-to-back at the same instant); inverted windows are rejected.
    pub fn outage(self, from: SimTime, to: SimTime, link: LinkId) -> Self {
        assert!(from <= to, "outage ends before it starts");
        self.step(from, link, ScenarioAction::Up(false))
            .step(to, link, ScenarioAction::Up(true))
    }

    /// Change the queue byte limit at `at`.
    pub fn queue_limit(self, at: SimTime, link: LinkId, limit: Bytes) -> Self {
        self.step(at, link, ScenarioAction::QueueLimit(limit))
    }

    /// Reject steps that would trip an assertion deep inside the link
    /// layer mid-run: probabilities outside `[0, 1]` (or NaN) and zero
    /// shaping rates. Everything else — past times, zero-duration
    /// windows, overlapping windows, zero queue limits — has documented
    /// semantics (see the module docs) and passes.
    pub fn validate(&self) -> Result<(), SimError> {
        self.validate_for(usize::MAX)
    }

    /// [`Self::validate`] for a network of `links` links: a step naming a
    /// link the network lacks is rejected too.
    pub(crate) fn validate_for(&self, links: usize) -> Result<(), SimError> {
        for (i, st) in self.steps.iter().enumerate() {
            let reject = |what: String| {
                Err(SimError::InvalidScenario {
                    detail: format!(
                        "step {i} (link {} at t={}ns): {what}",
                        st.link.0,
                        st.at.as_nanos()
                    ),
                })
            };
            if st.link.0 as usize >= links {
                return reject(format!("no such link (the network has {links})"));
            }
            match st.action {
                ScenarioAction::Loss(p) if !(0.0..=1.0).contains(&p) => {
                    return reject(format!("loss probability {p} outside [0, 1]"));
                }
                ScenarioAction::Duplication(p) if !(0.0..=1.0).contains(&p) => {
                    return reject(format!("duplication probability {p} outside [0, 1]"));
                }
                ScenarioAction::Rate(Some(r)) if r.as_bps() == 0 => {
                    return reject("shaped rate of 0 b/s (use an outage instead)".to_string());
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// What the chaos generator may do to one link.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LinkProfile {
    /// The link to disturb.
    pub link: LinkId,
    /// Nominal shaped rate, if the link is shaped. Rate crashes restore
    /// to this; unshaped links (`None`) only get loss/dup/delay/outage
    /// disturbances.
    pub capacity: Option<BitRate>,
    /// Nominal queue byte limit, if the link is shaped. Queue shrinks
    /// restore to this.
    pub queue_bytes: Option<Bytes>,
}

impl LinkProfile {
    /// A shaped link (rate crashes and queue shrinks allowed).
    pub fn shaped(link: LinkId, capacity: BitRate, queue_bytes: Bytes) -> Self {
        LinkProfile {
            link,
            capacity: Some(capacity),
            queue_bytes: Some(queue_bytes),
        }
    }

    /// An unshaped link (loss/dup/delay/outage only).
    pub fn plain(link: LinkId) -> Self {
        LinkProfile {
            link,
            capacity: None,
            queue_bytes: None,
        }
    }
}

/// Scheduler tick width (2^16 ns): the timing wheel's quantum, and the
/// boundary the chaos generator deliberately aims step times at.
const TICK_NS: u64 = 1 << 16;

/// Seeded adversarial schedule generator: samples [`ScenarioSpec`]s no
/// curated grid would pick — stacked rate crashes, outages, loss and
/// duplication windows, queue shrinks, multi-link combinations, and
/// pathological step timings at tick and horizon boundaries. Every
/// sampled spec passes [`ScenarioSpec::validate`] by construction (a
/// property test pins this).
///
/// Distributions (documented in DESIGN.md §11): disturbance count is
/// uniform in `1..=max_disturbances`; each disturbance picks a link
/// uniformly and a kind uniformly from the kinds the link supports;
/// times are a 3:1 mixture of uniform-over-horizon and "pathological"
/// instants (0, tick multiples ±1 ns, the last tick before the
/// horizon); window durations are log-uniform from 1 µs to horizon/4,
/// with a 1-in-8 chance of a zero-duration window; rate crashes divide
/// capacity by 2..=64; queue shrinks divide the limit by 2..=64 with a
/// 1-in-16 chance of a 1-byte limit; loss/dup probabilities are uniform
/// in (0, 0.3] with a 1-in-10 chance of a total-loss window (p = 1).
#[derive(Clone, Debug)]
pub struct ScenarioGen {
    /// End of the schedule: no step is generated at or beyond this.
    pub horizon: SimTime,
    /// Upper bound on generated disturbances (a window counts as one
    /// disturbance but contributes two steps).
    pub max_disturbances: usize,
    /// The links the generator may disturb.
    pub links: Vec<LinkProfile>,
}

impl ScenarioGen {
    /// Sample one adversarial schedule. Consumes only `rng`, so equal
    /// seeds reproduce equal schedules.
    pub fn sample(&self, rng: &mut SimRng) -> ScenarioSpec {
        use rand::Rng;
        assert!(!self.links.is_empty(), "generator needs at least one link");
        assert!(self.max_disturbances > 0, "max_disturbances must be ≥ 1");
        let horizon_ns = self.horizon.as_nanos().max(TICK_NS * 2);
        let n = rng.gen_range(1..=self.max_disturbances);
        let mut spec = ScenarioSpec::new();
        for _ in 0..n {
            let lp = self.links[rng.gen_range(0..self.links.len())];
            let from = self.sample_time(rng, horizon_ns);
            // Kind codes: 0 rate crash, 1 queue shrink (shaped only),
            // 2 outage, 3 loss window, 4 dup window, 5 delay step.
            let kind = if lp.capacity.is_some() {
                rng.gen_range(0..6u32)
            } else {
                rng.gen_range(2..6u32)
            };
            spec = match kind {
                0 => {
                    let cap = lp.capacity.expect("shaped-only kind");
                    let crashed = BitRate::from_bps(
                        (cap.as_bps() / (1u64 << rng.gen_range(1..=6u32))).max(1_000),
                    );
                    let to = self.window_end(rng, from, horizon_ns);
                    spec.rate(from, lp.link, crashed).rate(to, lp.link, cap)
                }
                1 => {
                    let q = lp.queue_bytes.expect("shaped-only kind");
                    let shrunk = if rng.gen_range(0..16u32) == 0 {
                        Bytes(1)
                    } else {
                        Bytes((q.as_u64() / (1u64 << rng.gen_range(1..=6u32))).max(1))
                    };
                    let to = self.window_end(rng, from, horizon_ns);
                    spec.queue_limit(from, lp.link, shrunk)
                        .queue_limit(to, lp.link, q)
                }
                2 => {
                    let to = self.window_end(rng, from, horizon_ns);
                    spec.outage(from, to, lp.link)
                }
                3 => {
                    let p = if rng.gen_range(0..10u32) == 0 {
                        1.0
                    } else {
                        rng.gen_range(0.0..0.3f64).max(1e-6)
                    };
                    let to = self.window_end(rng, from, horizon_ns);
                    spec.loss_window(from, to, lp.link, p)
                }
                4 => {
                    let p = rng.gen_range(0.0..0.3f64).max(1e-6);
                    let to = self.window_end(rng, from, horizon_ns);
                    spec.duplication_window(from, to, lp.link, p)
                }
                _ => {
                    // Log-uniform delay in [0, 100 ms]: exponent-first.
                    let exp = rng.gen_range(0..=7u32); // 10^0..10^7 ns
                    let d = rng.gen_range(1..10u64) * 10u64.pow(exp);
                    spec.delay(from, lp.link, SimDuration::from_nanos(d))
                }
            };
        }
        spec
    }

    /// Step instant: 3:1 uniform vs pathological (tick/horizon aligned).
    fn sample_time(&self, rng: &mut SimRng, horizon_ns: u64) -> SimTime {
        use rand::Rng;
        let ns = if rng.gen_range(0..4u32) == 0 {
            let last_tick = (horizon_ns - 1) / TICK_NS;
            let tick = rng.gen_range(0..=last_tick) * TICK_NS;
            match rng.gen_range(0..3u32) {
                0 => tick,
                1 => tick.saturating_sub(1),
                _ => (tick + 1).min(horizon_ns - 1),
            }
        } else {
            rng.gen_range(0..horizon_ns)
        };
        SimTime::from_nanos(ns)
    }

    /// Window close: zero-duration 1-in-8, else log-uniform duration
    /// from 1 µs up to a quarter horizon, clamped to the horizon.
    fn window_end(&self, rng: &mut SimRng, from: SimTime, horizon_ns: u64) -> SimTime {
        use rand::Rng;
        if rng.gen_range(0..8u32) == 0 {
            return from;
        }
        let max_exp = (horizon_ns / 4).max(2_000).ilog10();
        let exp = rng.gen_range(3..=max_exp);
        let dur = rng.gen_range(1..10u64) * 10u64.pow(exp);
        SimTime::from_nanos((from.as_nanos() + dur).min(horizon_ns - 1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_accumulate_steps_in_order() {
        let l = LinkId(3);
        let s = ScenarioSpec::new()
            .rate(SimTime::from_secs(100), l, BitRate::from_mbps(10))
            .outage(SimTime::from_secs(150), SimTime::from_secs(152), l)
            .loss_window(SimTime::from_secs(200), SimTime::from_secs(210), l, 0.05)
            .queue_limit(SimTime::from_secs(250), l, Bytes(10_000));
        assert_eq!(s.steps.len(), 6);
        assert_eq!(
            s.steps[0].action,
            ScenarioAction::Rate(Some(BitRate::from_mbps(10)))
        );
        assert_eq!(s.steps[1].action, ScenarioAction::Up(false));
        assert_eq!(s.steps[2].action, ScenarioAction::Up(true));
        assert_eq!(s.steps[5].action, ScenarioAction::QueueLimit(Bytes(10_000)));
        assert!(s.steps.windows(2).all(|w| w[0].at <= w[1].at));
        assert_eq!(s.steps[0].at, SimTime::from_secs(100));
    }

    #[test]
    fn wire_codes_are_stable_and_distinct() {
        let codes = [
            ScenarioAction::Rate(None).wire_code(),
            ScenarioAction::Delay(SimDuration::ZERO).wire_code(),
            ScenarioAction::Loss(0.0).wire_code(),
            ScenarioAction::Duplication(0.0).wire_code(),
            ScenarioAction::Up(true).wire_code(),
            ScenarioAction::QueueLimit(Bytes::ZERO).wire_code(),
        ];
        assert_eq!(codes, [0, 1, 2, 3, 4, 5]);
    }
}
