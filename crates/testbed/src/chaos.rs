//! Chaos campaigns: seeded adversarial trials against the whole testbed.
//!
//! A trial samples a random experimental condition *and* a random
//! adversarial disturbance schedule ([`gsrepro_netsim::ScenarioGen`]),
//! then runs it twice with every invariant oracle armed and a
//! [`Watchdog`] bounding the event count:
//!
//! * **leg A** establishes the verdict: an oracle violation panics with a
//!   structured report, a runaway or livelocked run comes back as a
//!   structured [`SimError`], and anything else must complete;
//! * **leg B** re-executes the identical trial and the two result digests
//!   are compared bit-for-bit — the *determinism oracle*. Any divergence
//!   (a [`ChaosVerdict::Nondeterminism`]) means a run can no longer be
//!   reproduced from `(condition, seed)` alone, which this repo treats as
//!   a first-class bug.
//!
//! Failures are minimized by a delta-debugging shrinker (fewest schedule
//! steps, then shortest horizon, then a single disturbed link) and
//! serialized to a small text repro (`gsrepro-chaos-repro v1`) that
//! [`Trial::parse`] reads back exactly — f64 fields travel as bit
//! patterns, so a replay is the same simulation to the last bit.
//!
//! The campaign validates *itself* with perturbation knobs
//! ([`Perturbation`]): each knob plants one bug class (a seed skew, a
//! config skew, a starved budget) and the campaign must catch it and
//! shrink it to a minimal repro. `cargo run --release -- chaos`
//! drives all of this from the command line.

use std::panic::{catch_unwind, AssertUnwindSafe};

use gsrepro_gamestream::SystemKind;
use gsrepro_netsim::link::LinkId;
use gsrepro_netsim::{LinkProfile, ScenarioAction, ScenarioGen, ScenarioSpec, ScenarioStep};
use gsrepro_simcore::rng::{fnv1a, rng_for, FNV_OFFSET};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimError, SimTime, Watchdog};
use gsrepro_tcp::conformance::ALL_KINDS;
use gsrepro_tcp::CcaKind;

use crate::config::{Aqm, Condition, Timeline, AQMS};
use crate::runner::{default_threads, panic_message, run_condition_core, run_jobs, RunView};
use crate::topology::{BOTTLENECK_LINK, WAN_GAME_LINK};

/// How one chaos trial ended.
#[derive(Clone, Debug, PartialEq)]
pub enum ChaosVerdict {
    /// Both legs completed, digests agree, no oracle fired.
    Clean,
    /// A runtime invariant oracle fired (structured panic report).
    OracleViolation {
        /// The oracle's report, starting with `invariant violation:`.
        report: String,
    },
    /// The two legs completed but their result digests differ.
    Nondeterminism {
        /// Digest of leg A.
        digest_a: u64,
        /// Digest of leg B.
        digest_b: u64,
    },
    /// The run panicked outside the oracle framework (an internal bug),
    /// or a schedule the generator guarantees valid was rejected.
    Panic {
        /// The panic payload (or rejection), stringified.
        message: String,
    },
    /// The watchdog aborted the run: event budget exhausted or livelock.
    Timeout {
        /// The structured [`SimError`], stringified.
        error: String,
    },
}

impl ChaosVerdict {
    /// Every verdict tag, in histogram order.
    pub const TAGS: [&'static str; 5] = [
        "clean",
        "oracle-violation",
        "nondeterminism",
        "panic",
        "timeout",
    ];

    /// Stable short tag (also the histogram key).
    pub fn tag(&self) -> &'static str {
        Self::TAGS[self.tag_index()]
    }

    /// Index into [`ChaosVerdict::TAGS`].
    pub fn tag_index(&self) -> usize {
        match self {
            ChaosVerdict::Clean => 0,
            ChaosVerdict::OracleViolation { .. } => 1,
            ChaosVerdict::Nondeterminism { .. } => 2,
            ChaosVerdict::Panic { .. } => 3,
            ChaosVerdict::Timeout { .. } => 4,
        }
    }

    /// `true` for [`ChaosVerdict::Clean`].
    pub fn is_clean(&self) -> bool {
        matches!(self, ChaosVerdict::Clean)
    }
}

/// A deliberately planted bug class, used to validate that the campaign
/// catches what it claims to catch (and that the shrinker converges).
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Perturbation {
    /// No planted bug: every verdict should be clean.
    None,
    /// If the schedule contains an outage, leg B runs with the *next*
    /// iteration's seed — a stand-in for "some code path consumed
    /// randomness it shouldn't have". Caught as nondeterminism; shrinks
    /// to a single outage.
    SeedSkewOnOutage,
    /// If the schedule contains a queue-limit step, leg B runs with the
    /// queue multiplier skewed by 1% — a stand-in for "a config knob
    /// leaked between runs". The label (and therefore the seed) shifts,
    /// so this is caught as nondeterminism; shrinks to a single
    /// queue-limit step.
    QueueSkewOnShrink,
    /// Run both legs under an event budget of `n` — a stand-in for a
    /// runaway simulation. Caught as a timeout on every trial.
    TinyBudget(u64),
}

impl Perturbation {
    /// Stable label, also the repro-file field value.
    pub fn label(&self) -> String {
        match self {
            Perturbation::None => "none".into(),
            Perturbation::SeedSkewOnOutage => "seed-skew-on-outage".into(),
            Perturbation::QueueSkewOnShrink => "queue-skew-on-shrink".into(),
            Perturbation::TinyBudget(n) => format!("tiny-budget {n}"),
        }
    }

    /// Parse a [`Perturbation::label`] back (also accepts
    /// `tiny-budget=N` for the command line).
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        match s {
            "none" => Ok(Perturbation::None),
            "seed-skew-on-outage" => Ok(Perturbation::SeedSkewOnOutage),
            "queue-skew-on-shrink" => Ok(Perturbation::QueueSkewOnShrink),
            _ => {
                let rest = s
                    .strip_prefix("tiny-budget=")
                    .or_else(|| s.strip_prefix("tiny-budget "))
                    .ok_or_else(|| format!("unknown perturbation {s:?}"))?;
                let n: u64 = rest
                    .trim()
                    .parse()
                    .map_err(|e| format!("tiny-budget wants an event count: {e}"))?;
                Ok(Perturbation::TinyBudget(n))
            }
        }
    }
}

/// One fully-specified chaos trial: everything needed to re-execute it
/// bit-identically. This is also exactly what a repro file stores.
#[derive(Clone, Debug, PartialEq)]
pub struct Trial {
    /// Which game system streams.
    pub system: SystemKind,
    /// Competing TCP congestion control (`None` = solo).
    pub cca: Option<CcaKind>,
    /// Bottleneck capacity, Mb/s.
    pub capacity_mbps: u64,
    /// Bottleneck queue size in BDP multiples.
    pub queue_mult: f64,
    /// Queue discipline at the bottleneck.
    pub aqm: Aqm,
    /// Uniform per-packet WAN jitter.
    pub wan_jitter: SimDuration,
    /// Timeline scale (1.0 = the paper's 9 minutes).
    pub scale: f64,
    /// Iteration index (selects the seed together with the label).
    pub iter: u32,
    /// Watchdog bounds for both legs.
    pub watchdog: Watchdog,
    /// Planted bug class (normally [`Perturbation::None`]).
    pub perturb: Perturbation,
    /// The adversarial disturbance schedule.
    pub schedule: ScenarioSpec,
}

impl Trial {
    /// The trial's experimental condition. The schedule is *not* part of
    /// the condition (and so not part of the seed): shrinking the
    /// schedule never changes which simulation it perturbs.
    pub fn condition(&self) -> Condition {
        Condition::new(self.system, self.cca, self.capacity_mbps, self.queue_mult)
            .with_aqm(self.aqm)
            .with_wan_jitter(self.wan_jitter)
            .with_timeline(Timeline::scaled(self.scale))
    }

    /// Serialize to the `gsrepro-chaos-repro v1` text format. Floats are
    /// stored as bit patterns, so parse∘serialize is the identity.
    pub fn serialize(&self) -> String {
        let mut out = String::from("gsrepro-chaos-repro v1\n");
        out.push_str(&format!("system {}\n", self.system.label()));
        out.push_str(&format!(
            "cca {}\n",
            self.cca.map(|c| c.label()).unwrap_or("solo")
        ));
        out.push_str(&format!("capacity_mbps {}\n", self.capacity_mbps));
        out.push_str(&format!("queue_mult {:016x}\n", self.queue_mult.to_bits()));
        out.push_str(&format!("aqm {}\n", self.aqm.label()));
        out.push_str(&format!("wan_jitter_ns {}\n", self.wan_jitter.as_nanos()));
        out.push_str(&format!("scale {:016x}\n", self.scale.to_bits()));
        out.push_str(&format!("iter {}\n", self.iter));
        out.push_str(&format!("event_budget {}\n", self.watchdog.event_budget));
        out.push_str(&format!(
            "livelock_window {}\n",
            self.watchdog.livelock_window
        ));
        out.push_str(&format!("perturb {}\n", self.perturb.label()));
        out.push_str(&format!("steps {}\n", self.schedule.steps.len()));
        for st in &self.schedule.steps {
            let action = match st.action {
                ScenarioAction::Rate(Some(r)) => format!("rate {}", r.as_bps()),
                ScenarioAction::Rate(None) => "rate none".to_string(),
                ScenarioAction::Delay(d) => format!("delay {}", d.as_nanos()),
                ScenarioAction::Loss(p) => format!("loss {:016x}", p.to_bits()),
                ScenarioAction::Duplication(p) => format!("dup {:016x}", p.to_bits()),
                ScenarioAction::Up(up) => format!("up {}", u8::from(up)),
                ScenarioAction::QueueLimit(b) => format!("queue {}", b.as_u64()),
            };
            out.push_str(&format!(
                "step {} {} {}\n",
                st.at.as_nanos(),
                st.link.0,
                action
            ));
        }
        out
    }

    /// Parse a `gsrepro-chaos-repro v1` file.
    pub fn parse(text: &str) -> Result<Trial, String> {
        let header = text.lines().next().unwrap_or("").trim();
        if header != "gsrepro-chaos-repro v1" {
            return Err(format!(
                "not a chaos repro: first line is {header:?}, want \"gsrepro-chaos-repro v1\""
            ));
        }
        let mut lines = text.lines().enumerate().skip(1);
        let mut field = |want: &str| -> Result<String, String> {
            for (i, line) in lines.by_ref() {
                let line = line.trim();
                if line.is_empty() || line.starts_with('#') {
                    continue;
                }
                let (key, val) = line
                    .split_once(' ')
                    .ok_or_else(|| format!("line {}: expected `{want} <value>`", i + 1))?;
                if key != want {
                    return Err(format!("line {}: expected field {want}, got {key}", i + 1));
                }
                return Ok(val.trim().to_string());
            }
            Err(format!("missing field {want}"))
        };

        let parse_u64 = |what: &str, v: &str| -> Result<u64, String> {
            v.parse::<u64>().map_err(|e| format!("{what} {v:?}: {e}"))
        };
        let parse_u32 = |what: &str, v: &str| -> Result<u32, String> {
            u32::try_from(parse_u64(what, v)?).map_err(|e| format!("{what} {v:?}: {e}"))
        };
        let parse_bits = |what: &str, v: &str| -> Result<f64, String> {
            u64::from_str_radix(v, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("{what} {v:?}: want f64 bits as 16 hex digits: {e}"))
        };

        // A label names the variant whose own `label()` prints it, so
        // `parse` reads back whatever `serialize` can write.
        fn by_label<T: Copy>(
            what: &str,
            all: &[T],
            label: fn(T) -> &'static str,
            text: &str,
        ) -> Result<T, String> {
            let found = all.iter().copied().find(|&v| label(v) == text);
            found.ok_or_else(|| format!("unknown {what} {text:?}"))
        }

        let system = by_label(
            "system",
            &SystemKind::ALL,
            SystemKind::label,
            &field("system")?,
        )?;
        let cca = match field("cca")?.as_str() {
            "solo" => None,
            other => Some(by_label("cca", &ALL_KINDS, CcaKind::label, other)?),
        };
        let capacity_mbps = parse_u64("capacity_mbps", &field("capacity_mbps")?)?;
        let queue_mult = parse_bits("queue_mult", &field("queue_mult")?)?;
        let aqm = by_label("aqm", &AQMS, Aqm::label, &field("aqm")?)?;
        let wan_jitter =
            SimDuration::from_nanos(parse_u64("wan_jitter_ns", &field("wan_jitter_ns")?)?);
        let scale = parse_bits("scale", &field("scale")?)?;
        let iter = parse_u32("iter", &field("iter")?)?;
        let event_budget = parse_u64("event_budget", &field("event_budget")?)?;
        let livelock_window = parse_u64("livelock_window", &field("livelock_window")?)?;
        let perturb = Perturbation::parse(&field("perturb")?)?;
        let n_steps = parse_u64("steps", &field("steps")?)?;

        // Not preallocated from the header: a corrupt count must fail on
        // its first missing step line, not abort on allocation.
        let mut steps = Vec::new();
        for _ in 0..n_steps {
            let line = field("step")?;
            let mut tok = line.split_whitespace();
            let mut next = |what: &str| {
                tok.next()
                    .map(str::to_string)
                    .ok_or_else(|| format!("step line {line:?}: missing {what}"))
            };
            let at = SimTime::from_nanos(parse_u64("step time", &next("time")?)?);
            let link = LinkId(parse_u32("step link", &next("link")?)?);
            let kind = next("action")?;
            let action = match kind.as_str() {
                "rate" => {
                    let v = next("rate")?;
                    if v == "none" {
                        ScenarioAction::Rate(None)
                    } else {
                        ScenarioAction::Rate(Some(BitRate::from_bps(parse_u64("rate", &v)?)))
                    }
                }
                "delay" => ScenarioAction::Delay(SimDuration::from_nanos(parse_u64(
                    "delay",
                    &next("delay")?,
                )?)),
                "loss" => ScenarioAction::Loss(parse_bits("loss", &next("loss")?)?),
                "dup" => ScenarioAction::Duplication(parse_bits("dup", &next("dup")?)?),
                "up" => ScenarioAction::Up(parse_u64("up", &next("up")?)? != 0),
                "queue" => ScenarioAction::QueueLimit(Bytes(parse_u64("queue", &next("queue")?)?)),
                other => return Err(format!("unknown step action {other:?}")),
            };
            steps.push(ScenarioStep { at, link, action });
        }

        Ok(Trial {
            system,
            cca,
            capacity_mbps,
            queue_mult,
            aqm,
            wan_jitter,
            scale,
            iter,
            watchdog: Watchdog::new(event_budget, livelock_window),
            perturb,
            schedule: ScenarioSpec { steps },
        })
    }
}

/// Campaign parameters.
#[derive(Clone, Debug)]
pub struct ChaosSpec {
    /// Base seed: trial `i` samples from RNG stream `(seed, i)`.
    pub seed: u64,
    /// Number of trials.
    pub trials: u32,
    /// OS threads for the trial fan-out.
    pub threads: usize,
    /// Timeline scale of every trial (1.0 = the paper's 9 minutes;
    /// campaigns default to 0.05 ≈ 27 s per leg).
    pub scale: f64,
    /// Upper bound on disturbances per schedule.
    pub max_disturbances: usize,
    /// Watchdog bounds for every leg.
    pub watchdog: Watchdog,
    /// Planted bug class (normally [`Perturbation::None`]).
    pub perturb: Perturbation,
    /// Shrink at most this many failures (serially, after the fan-out).
    pub shrink_limit: usize,
}

impl Default for ChaosSpec {
    fn default() -> Self {
        ChaosSpec {
            seed: 0xC4A0,
            trials: 1_000,
            threads: default_threads(),
            scale: 0.05,
            max_disturbances: 6,
            watchdog: Watchdog::default(),
            perturb: Perturbation::None,
            shrink_limit: 3,
        }
    }
}

impl ChaosSpec {
    /// Sample trial `index` — condition and schedule together, from one
    /// seeded stream, so the whole campaign reproduces from `seed` alone.
    pub fn sample_trial(&self, index: u32) -> Trial {
        use rand::Rng;
        let mut rng = rng_for(self.seed, index as u64);
        let system = SystemKind::ALL[rng.gen_range(0..SystemKind::ALL.len())];
        let cca = match rng.gen_range(0..6u32) {
            0 => None,
            1 => Some(CcaKind::Reno),
            2 => Some(CcaKind::Cubic),
            3 => Some(CcaKind::Bbr),
            4 => Some(CcaKind::Bbr2),
            _ => Some(CcaKind::Vegas),
        };
        let capacity_mbps = rng.gen_range(5..=40u64);
        let queue_mult = rng.gen_range(0.3..8.0f64);
        let aqm = [Aqm::DropTail, Aqm::CoDel, Aqm::FqCoDel][rng.gen_range(0..3usize)];
        let wan_jitter = if rng.gen_range(0..4u32) == 0 {
            SimDuration::from_micros(rng.gen_range(50..2_000u64))
        } else {
            SimDuration::ZERO
        };

        let cond = Condition::new(system, cca, capacity_mbps, queue_mult);
        let gen = ScenarioGen {
            horizon: Timeline::scaled(self.scale).end,
            max_disturbances: self.max_disturbances,
            links: vec![
                LinkProfile::shaped(BOTTLENECK_LINK, cond.capacity, cond.queue_bytes()),
                LinkProfile::plain(WAN_GAME_LINK),
            ],
        };
        let schedule = gen.sample(&mut rng);

        Trial {
            system,
            cca,
            capacity_mbps,
            queue_mult,
            aqm,
            wan_jitter,
            scale: self.scale,
            iter: index,
            watchdog: self.watchdog,
            perturb: self.perturb,
            schedule,
        }
    }
}

fn fnv_u64(h: &mut u64, v: u64) {
    *h = fnv1a(*h, &v.to_le_bytes());
}

fn fnv_f64(h: &mut u64, v: f64) {
    fnv_u64(h, v.to_bits());
}

/// FNV-1a digest over everything deterministic a run produces: event and
/// oracle counters, the game flow's packet/byte totals and delivery bins,
/// the competing flow's totals, RTT samples, fps bins and TCP counters —
/// exactly the surfaces the determinism-matrix tests compare, folded to
/// one u64 so two legs compare in O(1) memory.
pub fn digest(view: &RunView) -> u64 {
    let mut h = FNV_OFFSET;
    fnv_u64(&mut h, view.events_processed);
    fnv_u64(&mut h, view.past_clamps);
    fnv_u64(&mut h, view.checks_performed);

    let g = view.game_stats();
    for v in [
        g.sent_pkts,
        g.delivered_pkts,
        g.queue_drop_pkts,
        g.link_drop_pkts,
        g.ce_marked_pkts,
        g.sent_bytes.as_u64(),
        g.delivered_bytes.as_u64(),
    ] {
        fnv_u64(&mut h, v);
    }
    for &b in g.delivered_bins.bins() {
        fnv_f64(&mut h, b);
    }
    if let Some(s) = view.iperf_stats() {
        for v in [
            s.sent_pkts,
            s.delivered_pkts,
            s.queue_drop_pkts,
            s.link_drop_pkts,
            s.ce_marked_pkts,
        ] {
            fnv_u64(&mut h, v);
        }
    }
    for &v in view.ping().rtt_samples().values() {
        fnv_f64(&mut h, v);
    }
    for &v in view.fps_bins().bins() {
        fnv_f64(&mut h, v);
    }
    let (retx, bytes) = view.tcp_counters();
    fnv_u64(&mut h, retx);
    fnv_u64(&mut h, bytes);
    h
}

/// Run one leg under full oracles + watchdog; classify every way it can
/// end. `Ok` carries the result digest.
fn run_leg(
    cond: &Condition,
    iter: u32,
    schedule: &ScenarioSpec,
    dog: &Watchdog,
) -> Result<u64, ChaosVerdict> {
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_condition_core(cond, iter, None, true, schedule, dog, digest)
    }));
    match caught {
        Ok(Ok(d)) => Ok(d),
        Ok(Err(e)) => match e {
            SimError::EventBudgetExceeded { .. } | SimError::Livelock { .. } => {
                Err(ChaosVerdict::Timeout {
                    error: e.to_string(),
                })
            }
            // The generator guarantees valid schedules; a rejection here
            // is a bug in the campaign itself, not a sim timeout.
            SimError::InvalidScenario { .. } => Err(ChaosVerdict::Panic {
                message: format!("generated schedule rejected: {e}"),
            }),
        },
        Err(p) => {
            let message = panic_message(p.as_ref());
            if message.starts_with("invariant violation") {
                Err(ChaosVerdict::OracleViolation { report: message })
            } else {
                Err(ChaosVerdict::Panic { message })
            }
        }
    }
}

/// Execute one trial: leg A for the verdict, leg B for the determinism
/// oracle. Perturbation knobs skew leg B (or the shared watchdog) to
/// plant the bug class they model.
pub fn run_trial(t: &Trial) -> ChaosVerdict {
    let dog = match t.perturb {
        Perturbation::TinyBudget(n) => Watchdog::new(n, t.watchdog.livelock_window),
        _ => t.watchdog,
    };
    let cond = t.condition();
    let digest_a = match run_leg(&cond, t.iter, &t.schedule, &dog) {
        Ok(d) => d,
        Err(verdict) => return verdict,
    };

    let has_outage = t
        .schedule
        .steps
        .iter()
        .any(|s| s.action == ScenarioAction::Up(false));
    let has_shrink = t
        .schedule
        .steps
        .iter()
        .any(|s| matches!(s.action, ScenarioAction::QueueLimit(_)));
    let (cond_b, iter_b) = match t.perturb {
        Perturbation::SeedSkewOnOutage if has_outage => (cond, t.iter.wrapping_add(1)),
        Perturbation::QueueSkewOnShrink if has_shrink => {
            let mut skewed = t.clone();
            skewed.queue_mult *= 1.01;
            (skewed.condition(), t.iter)
        }
        _ => (cond, t.iter),
    };
    let digest_b = match run_leg(&cond_b, iter_b, &t.schedule, &dog) {
        Ok(d) => d,
        Err(verdict) => return verdict,
    };

    if digest_a != digest_b {
        ChaosVerdict::Nondeterminism { digest_a, digest_b }
    } else {
        ChaosVerdict::Clean
    }
}

/// What the shrinker did to one failure.
#[derive(Clone, Copy, Debug, Default)]
pub struct ShrinkStats {
    /// Candidate trials executed while shrinking.
    pub tests: u32,
    /// Schedule steps before shrinking.
    pub steps_before: usize,
    /// Schedule steps after shrinking.
    pub steps_after: usize,
    /// Timeline scale before shrinking.
    pub scale_before: f64,
    /// Timeline scale after shrinking.
    pub scale_after: f64,
    /// Distinct disturbed links before → after.
    pub links_before: usize,
    /// Distinct disturbed links after shrinking.
    pub links_after: usize,
}

fn distinct_links(spec: &ScenarioSpec) -> usize {
    let mut links: Vec<u32> = spec.steps.iter().map(|s| s.link.0).collect();
    links.sort_unstable();
    links.dedup();
    links.len()
}

/// Minimize a failing trial while preserving its verdict tag: ddmin over
/// schedule steps (fewest steps), then horizon halving (shortest run),
/// then a single-link remap. Returns the minimized trial and stats; the
/// minimized trial is guaranteed to still fail with the same tag.
pub fn shrink(t: &Trial, verdict: &ChaosVerdict) -> (Trial, ShrinkStats) {
    let target = verdict.tag();
    let mut stats = ShrinkStats {
        steps_before: t.schedule.steps.len(),
        scale_before: t.scale,
        links_before: distinct_links(&t.schedule),
        ..ShrinkStats::default()
    };
    let fails = |cand: &Trial, stats: &mut ShrinkStats| {
        stats.tests += 1;
        run_trial(cand).tag() == target
    };
    let with_steps = |base: &Trial, steps: Vec<ScenarioStep>| {
        let mut c = base.clone();
        c.schedule = ScenarioSpec { steps };
        c
    };

    let mut cur = t.clone();

    // Fast path: if the failure needs no schedule at all (a starved
    // budget, a seedless bug), the empty schedule is the minimum.
    let empty = with_steps(&cur, Vec::new());
    if fails(&empty, &mut stats) {
        cur = empty;
    } else {
        // ddmin over steps: repeatedly try dropping chunks (complements),
        // refining the partition when nothing can be dropped.
        let mut n = 2usize;
        while cur.schedule.steps.len() >= 2 {
            let len = cur.schedule.steps.len();
            let n_eff = n.min(len);
            let chunk = len.div_ceil(n_eff);
            let mut reduced = None;
            for i in 0..n_eff {
                let lo = i * chunk;
                let hi = ((i + 1) * chunk).min(len);
                if lo >= hi {
                    continue;
                }
                let mut steps = cur.schedule.steps.clone();
                steps.drain(lo..hi);
                let cand = with_steps(&cur, steps);
                if fails(&cand, &mut stats) {
                    reduced = Some(cand);
                    break;
                }
            }
            match reduced {
                Some(c) => {
                    cur = c;
                    n = 2;
                }
                None if n_eff >= len => break,
                None => n *= 2,
            }
        }
    }

    // Horizon halving: shorter timelines, step times scaled down with
    // them (a step beyond the horizon would never fire). The floor keeps
    // the run long enough to stream at all.
    for _ in 0..6 {
        let next = cur.scale / 2.0;
        if next < 0.01 {
            break;
        }
        let mut cand = cur.clone();
        cand.scale = next;
        for st in &mut cand.schedule.steps {
            st.at = SimTime::from_nanos(st.at.as_nanos() / 2);
        }
        if fails(&cand, &mut stats) {
            cur = cand;
        } else {
            break;
        }
    }

    // Single-link remap: if the minimized schedule still spans several
    // links, try folding everything onto the bottleneck.
    if distinct_links(&cur.schedule) > 1 {
        let mut cand = cur.clone();
        for st in &mut cand.schedule.steps {
            st.link = BOTTLENECK_LINK;
        }
        if fails(&cand, &mut stats) {
            cur = cand;
        }
    }

    stats.steps_after = cur.schedule.steps.len();
    stats.scale_after = cur.scale;
    stats.links_after = distinct_links(&cur.schedule);
    (cur, stats)
}

/// One non-clean trial, with its minimized repro when shrinking ran.
#[derive(Clone, Debug)]
pub struct ChaosFailure {
    /// Trial index within the campaign.
    pub trial: u32,
    /// How it failed.
    pub verdict: ChaosVerdict,
    /// The trial as sampled (replayable as-is).
    pub repro: Trial,
    /// The minimized trial and shrink stats, for the first
    /// [`ChaosSpec::shrink_limit`] failures.
    pub shrunk: Option<(Trial, ShrinkStats)>,
}

/// Campaign outcome: the verdict histogram and every failure.
#[derive(Clone, Debug, Default)]
pub struct ChaosReport {
    /// Trials executed.
    pub trials: u32,
    /// Verdict counts, indexed like [`ChaosVerdict::TAGS`].
    pub counts: [u32; 5],
    /// Every non-clean trial, in trial order.
    pub failures: Vec<ChaosFailure>,
    /// Candidate trials executed by the shrinker, total.
    pub shrink_tests: u32,
}

impl ChaosReport {
    /// `tag count` pairs with non-zero counts, histogram order.
    pub fn histogram(&self) -> Vec<(&'static str, u32)> {
        ChaosVerdict::TAGS
            .iter()
            .zip(self.counts)
            .filter(|&(_, c)| c > 0)
            .map(|(&t, c)| (t, c))
            .collect()
    }
}

/// Run a whole campaign: fan the trials across threads (each trial is
/// already panic-isolated inside [`run_trial`]), tally verdicts, then
/// shrink the first [`ChaosSpec::shrink_limit`] failures serially.
pub fn run_chaos(spec: &ChaosSpec) -> ChaosReport {
    let outcomes = run_jobs(
        spec.trials as usize,
        spec.threads,
        |i| {
            let t = spec.sample_trial(i as u32);
            let verdict = run_trial(&t);
            (t, verdict)
        },
        |i| format!("chaos trial {i}"),
    )
    .unwrap_or_else(|failures| {
        // run_trial catches every panic a leg can raise; reaching this
        // means the campaign scaffolding itself is broken.
        panic!(
            "chaos campaign scaffolding panicked: {}",
            failures
                .first()
                .map(|f| f.to_string())
                .unwrap_or_else(|| "no failure detail".into())
        )
    });

    let mut report = ChaosReport {
        trials: spec.trials,
        ..ChaosReport::default()
    };
    for (i, (t, verdict)) in outcomes.into_iter().enumerate() {
        report.counts[verdict.tag_index()] += 1;
        if !verdict.is_clean() {
            report.failures.push(ChaosFailure {
                trial: i as u32,
                verdict,
                repro: t,
                shrunk: None,
            });
        }
    }
    for f in report.failures.iter_mut().take(spec.shrink_limit) {
        let (min, stats) = shrink(&f.repro, &f.verdict);
        report.shrink_tests += stats.tests;
        f.shrunk = Some((min, stats));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_spec() -> ChaosSpec {
        ChaosSpec {
            seed: 7,
            trials: 4,
            threads: 2,
            scale: 0.02, // ≈ 11 s legs
            max_disturbances: 4,
            ..ChaosSpec::default()
        }
    }

    #[test]
    fn sampling_is_deterministic_and_varied() {
        let spec = quick_spec();
        let a = spec.sample_trial(3);
        let b = spec.sample_trial(3);
        assert_eq!(a, b, "same (seed, index) must sample the same trial");
        // Across a few hundred samples the campaign must actually cover
        // the grid: several systems, solo and competing, several kinds.
        let mut systems = std::collections::HashSet::new();
        let mut solos = 0;
        let mut outages = 0;
        for i in 0..200 {
            let t = spec.sample_trial(i);
            systems.insert(t.system.label());
            solos += usize::from(t.cca.is_none());
            outages += usize::from(
                t.schedule
                    .steps
                    .iter()
                    .any(|s| s.action == ScenarioAction::Up(false)),
            );
            assert!(t.schedule.validate().is_ok(), "trial {i} invalid");
        }
        assert_eq!(systems.len(), 3);
        assert!(solos > 0, "no solo conditions sampled");
        assert!(outages > 0, "no outages sampled");
    }

    #[test]
    fn repro_codec_round_trips_exactly() {
        let spec = quick_spec();
        for i in 0..50 {
            let t = spec.sample_trial(i);
            let text = t.serialize();
            let back = Trial::parse(&text).unwrap_or_else(|e| panic!("trial {i}: {e}"));
            assert_eq!(back, t, "trial {i} did not round-trip");
            // And the serialized form itself is a fixed point.
            assert_eq!(back.serialize(), text);
        }
    }

    #[test]
    fn repro_codec_round_trips_every_label() {
        // The sampler draws from the paper's grids; the codec must also
        // carry every variant `label()` can print (Reno, Vegas, ...).
        let base = quick_spec().sample_trial(0);
        let ccas = ALL_KINDS.iter().map(|&c| Some(c)).chain([None]);
        for cca in ccas {
            for system in SystemKind::ALL {
                for aqm in AQMS {
                    let t = Trial {
                        system,
                        cca,
                        aqm,
                        ..base.clone()
                    };
                    let back = Trial::parse(&t.serialize()).unwrap_or_else(|e| panic!("{e}"));
                    assert_eq!(back, t);
                }
            }
        }
        let unknown = base.serialize().replace("\ncca ", "\ncca new");
        let err = Trial::parse(&unknown).unwrap_err();
        assert!(err.starts_with("unknown cca \"new"), "{err}");
    }

    #[test]
    fn repro_parse_rejects_garbage_with_context() {
        let err = Trial::parse("not a repro\n").unwrap_err();
        assert!(err.contains("not a chaos repro"), "{err}");
        let spec = quick_spec();
        let good = spec.sample_trial(0).serialize();
        let truncated: String = good.lines().take(6).collect::<Vec<_>>().join("\n");
        assert!(Trial::parse(&truncated).is_err());
        let corrupt = good.replace("aqm", "qam");
        let err = Trial::parse(&corrupt).unwrap_err();
        assert!(err.contains("expected field aqm"), "{err}");
    }

    /// The pinned repro with one line replaced.
    fn pinned_repro_with(line: &str, replacement: &str) -> String {
        let pinned = include_str!("../tests/fixtures/chaos_pinned.repro");
        assert!(pinned.contains(line), "the pinned repro has no {line:?}");
        pinned.replace(line, replacement)
    }

    #[test]
    fn repro_step_count_past_memory_is_an_error_not_an_abort() {
        let text = pinned_repro_with("steps 1\n", "steps 18446744073709551615\n");
        let err = Trial::parse(&text).unwrap_err();
        assert_eq!(err, "missing field step");
    }

    #[test]
    fn repro_iter_and_link_past_u32_are_errors_not_truncations() {
        // 4294967307 = 2^32 + 11: truncated, it would replay iter 11.
        let text = pinned_repro_with("iter 11\n", "iter 4294967307\n");
        let err = Trial::parse(&text).unwrap_err();
        assert!(err.starts_with("iter \"4294967307\": "), "{err}");
        let text = pinned_repro_with(" 4 queue ", " 4294967300 queue ");
        let err = Trial::parse(&text).unwrap_err();
        assert!(err.starts_with("step link \"4294967300\": "), "{err}");
    }

    #[test]
    fn clean_trial_is_clean() {
        let spec = quick_spec();
        let t = spec.sample_trial(0);
        assert_eq!(run_trial(&t), ChaosVerdict::Clean);
    }

    #[test]
    fn tiny_budget_is_caught_as_timeout_and_shrinks_to_nothing() {
        let mut t = quick_spec().sample_trial(1);
        t.perturb = Perturbation::TinyBudget(5_000);
        let verdict = run_trial(&t);
        assert_eq!(verdict.tag(), "timeout", "got {verdict:?}");
        // The failure needs no schedule at all, so the shrinker's fast
        // path should reach the empty schedule in one probe.
        let (min, stats) = shrink(&t, &verdict);
        assert_eq!(min.schedule.steps.len(), 0);
        assert!(stats.tests >= 1);
        assert!(min.scale < t.scale, "horizon shrink should also bite");
    }

    #[test]
    fn seed_skew_is_caught_as_nondeterminism_and_shrinks_small() {
        // Find a sampled trial whose schedule contains an outage — the
        // knob only fires there, modelling a bug on that code path.
        let spec = ChaosSpec {
            perturb: Perturbation::SeedSkewOnOutage,
            ..quick_spec()
        };
        let t = (0..500)
            .map(|i| spec.sample_trial(i))
            .find(|t| {
                t.schedule
                    .steps
                    .iter()
                    .any(|s| s.action == ScenarioAction::Up(false))
            })
            .expect("an outage within 500 samples");
        let verdict = run_trial(&t);
        assert_eq!(verdict.tag(), "nondeterminism", "got {verdict:?}");

        let (min, stats) = shrink(&t, &verdict);
        assert!(
            min.schedule.steps.len() <= 3,
            "shrunk to {} steps, want ≤ 3: {:?}",
            min.schedule.steps.len(),
            min.schedule
        );
        // The surviving steps must include the outage that arms the bug.
        assert!(min
            .schedule
            .steps
            .iter()
            .any(|s| s.action == ScenarioAction::Up(false)));
        assert_eq!(stats.steps_after, min.schedule.steps.len());
        // The minimized repro still fails, through the codec round-trip.
        let replayed = Trial::parse(&min.serialize()).unwrap();
        assert_eq!(run_trial(&replayed).tag(), "nondeterminism");
    }

    #[test]
    fn formerly_livelocked_trials_stay_clean() {
        // The first 50-trial campaign (`chaos --trials 50 --seed 42`)
        // caught a real TCP livelock: once a lost segment's
        // retransmission stayed pacing-blocked past MAX_RTO, the RTO
        // deadline re-armed from the stale `sent_at` to an instant
        // already in the past, and the timer fired at the same sim time
        // forever. Fixed by flooring the re-arm anchor at the last
        // expiry (`rto_fired_at` in gsrepro-tcp's endpoint). Keep the
        // two trials that exposed it pinned clean; the labels guard
        // against the sampler drifting underneath the pin.
        let spec = ChaosSpec {
            seed: 42,
            ..ChaosSpec::default()
        };
        for (idx, label) in [
            (36, "stadia-cubic-b7-q5.256697980278779-fqcodel-j764us"),
            (46, "stadia-bbr2-b5-q0.5191966052921324-codel"),
        ] {
            let t = spec.sample_trial(idx);
            assert_eq!(
                t.condition().label(),
                label,
                "sampler drifted; trial {idx} no longer reproduces the pinned condition"
            );
            let verdict = run_trial(&t);
            assert!(verdict.is_clean(), "trial {idx} regressed: {verdict:?}");
        }
    }

    #[test]
    fn small_campaign_is_all_clean_with_histogram() {
        let spec = ChaosSpec {
            trials: 6,
            threads: 3,
            ..quick_spec()
        };
        let report = run_chaos(&spec);
        assert_eq!(report.trials, 6);
        assert_eq!(report.histogram(), vec![("clean", 6)]);
    }
}
