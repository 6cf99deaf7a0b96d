//! CCA conformance kit: scripted-ack step responses against golden
//! fixtures.
//!
//! A congestion controller is a pure state machine over the ack stream, so
//! its behaviour can be pinned exactly: feed it a canned sequence of acks,
//! losses and timeouts ([`AckScript`]), sample the window trajectory
//! ([`TracePoint`]), and diff the result against a committed fixture file.
//! The fixtures under `crates/tcp/tests/fixtures/cca/` are the expected
//! step responses:
//!
//! * **Cubic** — slow start, one loss epoch, then the RFC 8312 cubic
//!   recovery curve through and past the inflection point `K`,
//! * **BBR v1** — STARTUP → DRAIN → PROBE_BW with the 8-phase gain cycle
//!   visible in the pacing column, then a stale-floor leg that must enter
//!   PROBE_RTT (cwnd pinned to 4 segments) and exit back to PROBE_BW,
//! * **BBR v2** — STARTUP → DRAIN → the PROBE_BW cruise/refractory/up
//!   cycle, a loss episode that cuts `inflight_lo` by β = 0.7 and latches
//!   `inflight_hi`, a pair of back-to-back ECN echoes (the second must be
//!   a no-op under the per-round gate), and a PROBE_RTT dwell at half-BDP,
//! * **Reno** — slow-start doubling, the β = 0.5 halving, and the
//!   1-MSS-per-RTT AIMD slope,
//! * **Vegas** — base-RTT acquisition, slow-start exit on queue build-up,
//!   and ±1-segment corrections around the (α, β) occupancy band.
//!
//! Comparison is tolerance-based ([`REL_TOL`]) so the fixtures survive
//! last-bit libm differences across platforms, but tight enough that a
//! one-line bug — a wrong Cubic β, a skipped PROBE_RTT floor, a shifted
//! Vegas band — produces a diff. The kit proves that by construction: the
//! conformance tests run each controller with a perturbed constant
//! ([`Cubic::with_beta`](crate::Cubic::with_beta),
//! [`Reno::with_beta`](crate::Reno::with_beta),
//! [`Vegas::with_band`](crate::Vegas::with_band),
//! [`Bbr::with_cwnd_gain`](crate::Bbr::with_cwnd_gain),
//! [`Bbr2::with_beta`](crate::Bbr2::with_beta)) and assert the fixture
//! check *fails*.
//!
//! Regenerate fixtures with `GSREPRO_BLESS=1 cargo test -p gsrepro-tcp
//! --test conformance`, then review the diff like any other code change.

use std::fmt::Write as _;
use std::path::Path;

use gsrepro_simcore::{BitRate, SimDuration, SimTime};

use crate::cca::{AckInfo, CcaKind, CongestionControl};

/// MSS used by every standard script (the testbed's Ethernet MSS).
pub const STANDARD_MSS: u64 = 1448;

/// Relative tolerance for window/pacing comparison: loose enough for
/// cross-platform float noise, tight enough to catch any constant that is
/// actually wrong (the smallest perturbation the kit must detect shifts
/// trajectories by whole segments).
pub const REL_TOL: f64 = 1e-3;

/// Environment variable that switches fixture checks into bless mode.
pub const BLESS_ENV: &str = "GSREPRO_BLESS";

/// How a scripted run reports bytes in flight to the controller.
#[derive(Clone, Copy, Debug)]
pub enum InFlight {
    /// `cwnd − MSS`, as an ack-clocked sender that keeps the window full
    /// would report. The default.
    Tracked,
    /// A fixed value — used to steer BBR's DRAIN exit and PROBE_RTT dwell,
    /// which key on in-flight relative to BDP and the 4-segment floor.
    Fixed(u64),
}

/// One homogeneous stretch of acks: `acks` acknowledgments of one MSS
/// each, grouped into rounds of `acks_per_round`, with the clock advancing
/// by `rtt` at each round start.
#[derive(Clone, Copy, Debug)]
pub struct AckRun {
    /// Total acks in this run.
    pub acks: u64,
    /// Acks per round trip (the window in segments, roughly).
    pub acks_per_round: u64,
    /// RTT sample carried by every ack (also srtt and the per-round clock
    /// step).
    pub rtt: SimDuration,
    /// Delivery-rate sample carried by every ack.
    pub rate: BitRate,
    /// In-flight reporting policy.
    pub in_flight: InFlight,
    /// Sample the trace every this many rounds (≥ 1). The last round of
    /// the run is always sampled.
    pub sample_every: u64,
}

impl AckRun {
    /// A run with tracked in-flight, sampled every round.
    pub fn new(acks: u64, acks_per_round: u64, rtt: SimDuration, rate: BitRate) -> Self {
        AckRun {
            acks,
            acks_per_round,
            rtt,
            rate,
            in_flight: InFlight::Tracked,
            sample_every: 1,
        }
    }

    /// Report a fixed in-flight instead of tracking the window.
    pub fn with_in_flight(mut self, bytes: u64) -> Self {
        self.in_flight = InFlight::Fixed(bytes);
        self
    }

    /// Thin the trace to one sample per `rounds` rounds.
    pub fn with_sampling(mut self, rounds: u64) -> Self {
        self.sample_every = rounds.max(1);
        self
    }
}

/// One step of a script.
#[derive(Clone, Copy, Debug)]
enum Step {
    Run(AckRun),
    /// A fast-retransmit congestion episode (`on_congestion_event`).
    Loss,
    /// A retransmission timeout (`on_rto`).
    Rto,
    /// An ECE-bearing ack (`on_ecn`) reporting `in_flight` bytes.
    Ecn(u64),
}

/// A deterministic scripted-ack drive for a [`CongestionControl`].
///
/// The script owns the sender-side bookkeeping a controller expects —
/// monotonic time, round counting, cumulative delivered bytes — so two
/// runs of the same script are bit-identical inputs.
#[derive(Clone, Debug)]
pub struct AckScript {
    mss: u64,
    steps: Vec<Step>,
}

impl AckScript {
    /// Empty script for a controller using `mss`-byte segments.
    pub fn new(mss: u64) -> Self {
        AckScript {
            mss,
            steps: Vec::new(),
        }
    }

    /// Append a stretch of acks.
    pub fn run(mut self, run: AckRun) -> Self {
        self.steps.push(Step::Run(run));
        self
    }

    /// Append a loss episode (fast retransmit).
    pub fn loss(mut self) -> Self {
        self.steps.push(Step::Loss);
        self
    }

    /// Append a retransmission timeout.
    pub fn rto(mut self) -> Self {
        self.steps.push(Step::Rto);
        self
    }

    /// Append an ECN congestion echo reporting `in_flight` bytes.
    pub fn ecn(mut self, in_flight: u64) -> Self {
        self.steps.push(Step::Ecn(in_flight));
        self
    }

    /// Drive `cca` through the script and return the sampled trajectory.
    pub fn drive(&self, cca: &mut dyn CongestionControl) -> Vec<TracePoint> {
        let mut now = SimTime::ZERO;
        let mut round: u64 = 0;
        let mut delivered: u64 = 0;
        let mut trace = vec![TracePoint::sample(now, "init", cca)];
        for step in &self.steps {
            match *step {
                Step::Loss => {
                    cca.on_congestion_event(now, cca.cwnd());
                    trace.push(TracePoint::sample(now, "loss", cca));
                }
                Step::Rto => {
                    cca.on_rto(now);
                    trace.push(TracePoint::sample(now, "rto", cca));
                }
                Step::Ecn(in_flight) => {
                    cca.on_ecn(now, in_flight);
                    trace.push(TracePoint::sample(now, "ecn", cca));
                }
                Step::Run(r) => {
                    let per_round = r.acks_per_round.max(1);
                    let mut rounds_done: u64 = 0;
                    let mut sampled_round = false;
                    for i in 0..r.acks {
                        let round_start = i % per_round == 0;
                        if round_start {
                            round += 1;
                            now += r.rtt;
                            rounds_done += 1;
                            sampled_round = false;
                        }
                        delivered += self.mss;
                        let in_flight = match r.in_flight {
                            InFlight::Tracked => cca.cwnd().saturating_sub(self.mss),
                            InFlight::Fixed(b) => b,
                        };
                        cca.on_ack(&AckInfo {
                            now,
                            bytes_acked: self.mss,
                            rtt: Some(r.rtt),
                            srtt: r.rtt,
                            min_rtt: r.rtt,
                            delivered,
                            delivery_rate: Some(r.rate),
                            in_flight,
                            round_start,
                            round,
                            app_limited: false,
                        });
                        let round_complete = (i + 1) % per_round == 0 || i + 1 == r.acks;
                        if round_complete
                            && !sampled_round
                            && (rounds_done.is_multiple_of(r.sample_every) || i + 1 == r.acks)
                        {
                            trace.push(TracePoint::sample(now, "round", cca));
                            sampled_round = true;
                        }
                    }
                }
            }
        }
        trace
    }
}

/// One sampled point of a controller's trajectory.
#[derive(Clone, Debug, PartialEq)]
pub struct TracePoint {
    /// Simulated time of the sample, in seconds.
    pub t_secs: f64,
    /// What produced the sample: `init`, `round`, `loss`, or `rto`.
    pub event: String,
    /// Congestion window, bytes.
    pub cwnd: u64,
    /// Slow-start threshold, bytes (`u64::MAX` = not yet set).
    pub ssthresh: u64,
    /// Pacing rate, bits/s, for controllers that pace.
    pub pacing_bps: Option<u64>,
    /// The controller's slow-start flag.
    pub slow_start: bool,
}

impl TracePoint {
    fn sample(now: SimTime, event: &str, cca: &dyn CongestionControl) -> Self {
        TracePoint {
            t_secs: now.as_secs_f64(),
            event: event.to_string(),
            cwnd: cca.cwnd(),
            ssthresh: cca.ssthresh(),
            pacing_bps: cca.pacing_rate().map(|r| r.as_bps()),
            slow_start: cca.in_slow_start(),
        }
    }
}

/// Render a trace as the diffable fixture text.
pub fn render(name: &str, mss: u64, trace: &[TracePoint]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "# conformance trace: {name}");
    let _ = writeln!(out, "# mss: {mss}");
    let _ = writeln!(out, "# columns: t_s event cwnd ssthresh pacing_bps ss");
    for p in trace {
        let ssthresh = if p.ssthresh == u64::MAX {
            "max".to_string()
        } else {
            p.ssthresh.to_string()
        };
        let pacing = match p.pacing_bps {
            Some(bps) => bps.to_string(),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "{:.6} {} {} {} {} {}",
            p.t_secs,
            p.event,
            p.cwnd,
            ssthresh,
            pacing,
            u8::from(p.slow_start),
        );
    }
    out
}

/// Parse fixture text back into a trace.
pub fn parse(text: &str) -> Result<Vec<TracePoint>, String> {
    let mut trace = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        if fields.len() != 6 {
            return Err(format!(
                "fixture line {}: expected 6 fields, got {}: {line:?}",
                lineno + 1,
                fields.len()
            ));
        }
        let bad = |what: &str| format!("fixture line {}: bad {what}: {line:?}", lineno + 1);
        trace.push(TracePoint {
            t_secs: fields[0].parse().map_err(|_| bad("time"))?,
            event: fields[1].to_string(),
            cwnd: fields[2].parse().map_err(|_| bad("cwnd"))?,
            ssthresh: if fields[3] == "max" {
                u64::MAX
            } else {
                fields[3].parse().map_err(|_| bad("ssthresh"))?
            },
            pacing_bps: if fields[4] == "-" {
                None
            } else {
                Some(fields[4].parse().map_err(|_| bad("pacing"))?)
            },
            slow_start: match fields[5] {
                "0" => false,
                "1" => true,
                _ => return Err(bad("slow-start flag")),
            },
        });
    }
    Ok(trace)
}

fn within_tol(expected: u64, actual: u64, rel_tol: f64) -> bool {
    if expected == actual {
        return true;
    }
    // `max` sentinels only match exactly.
    if expected == u64::MAX || actual == u64::MAX {
        return false;
    }
    let diff = expected.abs_diff(actual) as f64;
    diff <= rel_tol * (expected.max(actual) as f64)
}

/// Compare an actual trace against the expected one, within `rel_tol` on
/// cwnd/ssthresh/pacing. Returns a description of the first mismatch.
pub fn compare(expected: &[TracePoint], actual: &[TracePoint], rel_tol: f64) -> Result<(), String> {
    if expected.len() != actual.len() {
        return Err(format!(
            "trace length mismatch: expected {} points, got {}",
            expected.len(),
            actual.len()
        ));
    }
    for (i, (e, a)) in expected.iter().zip(actual).enumerate() {
        let mismatch = |what: &str| {
            Err(format!(
                "trace point {i} (t = {:.6} s, event {}): {what} mismatch\n  expected: {e:?}\n  actual  : {a:?}",
                e.t_secs, e.event
            ))
        };
        if (e.t_secs - a.t_secs).abs() > 1e-9 {
            return mismatch("time");
        }
        if e.event != a.event {
            return mismatch("event");
        }
        if !within_tol(e.cwnd, a.cwnd, rel_tol) {
            return mismatch("cwnd");
        }
        if !within_tol(e.ssthresh, a.ssthresh, rel_tol) {
            return mismatch("ssthresh");
        }
        match (e.pacing_bps, a.pacing_bps) {
            (None, None) => {}
            (Some(ep), Some(ap)) if within_tol(ep, ap, rel_tol) => {}
            _ => return mismatch("pacing"),
        }
        if e.slow_start != a.slow_start {
            return mismatch("slow-start");
        }
    }
    Ok(())
}

/// The committed step-response script for one controller.
///
/// These are the scripts the golden fixtures were blessed from; changing
/// one invalidates the fixture (the length check fails loudly).
pub fn standard_script(kind: CcaKind) -> AckScript {
    let mss = STANDARD_MSS;
    let rtt = SimDuration::from_millis(20);
    let rate = BitRate::from_mbps(10);
    match kind {
        CcaKind::Reno => AckScript::new(mss)
            // Slow-start doubling from IW10.
            .run(AckRun::new(100, 16, rtt, rate))
            .loss()
            // The 1-MSS-per-RTT AIMD slope.
            .run(AckRun::new(1_600, 32, rtt, rate).with_sampling(5))
            .rto()
            // Slow-start again up to the halved ssthresh.
            .run(AckRun::new(200, 16, rtt, rate).with_sampling(2)),
        CcaKind::Cubic => AckScript::new(mss)
            // Slow start, then one loss opens the cubic epoch.
            .run(AckRun::new(200, 16, rtt, rate))
            .loss()
            // The RFC 8312 recovery curve: concave toward W_max (≈ K s),
            // plateau, then the convex probe beyond it.
            .run(AckRun::new(4_000, 16, rtt, rate).with_sampling(10))
            .rto()
            .run(AckRun::new(200, 16, rtt, rate).with_sampling(2)),
        CcaKind::Bbr => AckScript::new(mss)
            // STARTUP until the bandwidth plateaus, DRAIN to BDP (in-flight
            // reported just under the 25 kB BDP), into PROBE_BW.
            .run(AckRun::new(400, 16, rtt, rate).with_in_flight(24_000))
            // Gain cycling: pacing must visit 1.25×, 0.75× and 1× phases.
            .run(AckRun::new(400, 16, rtt, rate).with_in_flight(50_000))
            // Stale floor: every RTT sample sits 1 ms above the 20 ms
            // minimum, so the near-floor timestamp goes stale. This leg
            // stops just short of the 10 s staleness window (450 rounds
            // at 21 ms = 9.45 s), sampled coarsely.
            .run(
                AckRun::new(900, 2, SimDuration::from_millis(21), rate)
                    .with_in_flight(4 * mss)
                    .with_sampling(25),
            )
            // The window lapses in here: PROBE_RTT entry, the 4-segment
            // cwnd floor through the 200 ms dwell (in-flight already at
            // the floor lets it start immediately), and the exit that
            // restores the pre-probe window — sampled every round so the
            // floor is pinned in the fixture.
            .run(AckRun::new(120, 2, SimDuration::from_millis(21), rate).with_in_flight(4 * mss)),
        CcaKind::Bbr2 => AckScript::new(mss)
            // STARTUP until the bandwidth plateaus, DRAIN to BDP, into the
            // PROBE_BW cruise (in-flight just under the 25 kB BDP).
            .run(AckRun::new(400, 16, rtt, rate).with_in_flight(24_000))
            // Through CRUISE (2 s hold), REFRACTORY (inflight_lo reset)
            // and PROBE_UP (inflight_hi growth while in-flight rides near
            // the ceiling).
            .run(AckRun::new(400, 16, rtt, rate).with_in_flight(30_000))
            // A loss episode: inflight_lo cut to β × in-flight and
            // inflight_hi latched — the new cap shows in the cwnd column.
            .loss()
            .run(AckRun::new(100, 16, rtt, rate).with_in_flight(20_000))
            // An ECN echo takes the same β cut through the ECN path; the
            // immediate second echo lands inside the per-round gate and
            // must leave the window untouched.
            .ecn(24_000)
            .ecn(10_000)
            .run(AckRun::new(100, 16, rtt, rate).with_in_flight(20_000))
            // Stale floor: 21 ms samples let the 20 ms rt_prop floor age
            // out (stops just short of the 10 s window), then the lapse…
            .run(
                AckRun::new(900, 2, SimDuration::from_millis(21), rate)
                    .with_in_flight(4 * mss)
                    .with_sampling(25),
            )
            // …drives PROBE_RTT: a half-BDP dwell (v2, not v1's 4-segment
            // floor) and the exit restore, sampled every round.
            .run(AckRun::new(120, 2, SimDuration::from_millis(21), rate).with_in_flight(4 * mss)),
        CcaKind::Vegas => AckScript::new(mss)
            // Acquire base_rtt = 20 ms and grow through slow start.
            .run(AckRun::new(60, 10, rtt, rate))
            // Queue builds (30 ms): slow-start exit and correction.
            .run(AckRun::new(40, 10, SimDuration::from_millis(30), rate))
            // Heavy queue (50 ms): −1 MSS per round toward the band.
            .run(AckRun::new(150, 10, SimDuration::from_millis(50), rate).with_sampling(2))
            // Queue gone (20 ms = base): +1 MSS per round.
            .run(AckRun::new(100, 10, rtt, rate).with_sampling(2))
            .loss()
            .rto()
            .run(AckRun::new(60, 10, rtt, rate).with_sampling(2))
            // Mild queue (26 ms): diff sits around 2 segments — inside the
            // standard (α=2, β=4) hold band but above a mis-shifted one,
            // so only here does a wrong band change the trajectory.
            .run(AckRun::new(80, 10, SimDuration::from_millis(26), rate).with_sampling(2)),
    }
}

/// Run `kind`'s standard script on a freshly built controller.
pub fn run_standard(kind: CcaKind) -> Vec<TracePoint> {
    let mut cca = kind.build(STANDARD_MSS);
    standard_script(kind).drive(cca.as_mut())
}

/// Check one controller's trace against its fixture file; in bless mode
/// (re)write the fixture instead.
pub fn check_trace_against_fixture(
    kind: CcaKind,
    trace: &[TracePoint],
    fixture: &Path,
    bless: bool,
) -> Result<(), String> {
    if bless {
        if let Some(dir) = fixture.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        }
        std::fs::write(fixture, render(kind.label(), STANDARD_MSS, trace))
            .map_err(|e| format!("writing {}: {e}", fixture.display()))?;
        return Ok(());
    }
    let text = std::fs::read_to_string(fixture).map_err(|e| {
        format!(
            "reading {}: {e} (bless fixtures with {BLESS_ENV}=1)",
            fixture.display()
        )
    })?;
    let expected = parse(&text)?;
    compare(&expected, trace, REL_TOL)
}

/// Run `kind`'s standard script and check (or bless) its fixture in
/// `fixture_dir` (`<dir>/<label>.txt`).
pub fn check_fixture(kind: CcaKind, fixture_dir: &Path, bless: bool) -> Result<(), String> {
    let trace = run_standard(kind);
    let fixture = fixture_dir.join(format!("{}.txt", kind.label()));
    check_trace_against_fixture(kind, &trace, &fixture, bless)
}

/// Whether the bless environment variable is set (to anything non-empty
/// other than `0`).
pub fn bless_requested() -> bool {
    std::env::var(BLESS_ENV).is_ok_and(|v| !v.is_empty() && v != "0")
}

/// All five controllers, in fixture order.
pub const ALL_KINDS: [CcaKind; 5] = [
    CcaKind::Reno,
    CcaKind::Cubic,
    CcaKind::Bbr,
    CcaKind::Bbr2,
    CcaKind::Vegas,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn script_drive_is_deterministic() {
        let a = run_standard(CcaKind::Cubic);
        let b = run_standard(CcaKind::Cubic);
        assert_eq!(a, b);
    }

    #[test]
    fn render_parse_roundtrip() {
        for kind in ALL_KINDS {
            let trace = run_standard(kind);
            let text = render(kind.label(), STANDARD_MSS, &trace);
            let back = parse(&text).expect("rendered fixture must parse");
            compare(&trace, &back, 0.0).expect("roundtrip must be exact");
        }
    }

    #[test]
    fn compare_flags_cwnd_drift_beyond_tolerance() {
        let trace = run_standard(CcaKind::Reno);
        let mut bumped = trace.clone();
        let last = bumped.last_mut().unwrap();
        last.cwnd += (last.cwnd / 100).max(2); // +1 %, well past 0.1 %
        let err = compare(&trace, &bumped, REL_TOL).unwrap_err();
        assert!(err.contains("cwnd"), "got: {err}");
    }

    #[test]
    fn compare_accepts_sub_tolerance_noise() {
        let trace = run_standard(CcaKind::Bbr);
        let mut nudged = trace.clone();
        for p in &mut nudged {
            if p.cwnd > 10_000 {
                p.cwnd += 1; // last-bit float noise scale
            }
        }
        compare(&trace, &nudged, REL_TOL).expect("1-byte drift is within tolerance");
    }

    #[test]
    fn compare_flags_length_mismatch() {
        let trace = run_standard(CcaKind::Vegas);
        let short = &trace[..trace.len() - 1];
        assert!(compare(&trace, short, REL_TOL).is_err());
    }

    #[test]
    fn parse_rejects_malformed_lines() {
        assert!(parse("0.1 round 100").is_err());
        assert!(parse("x round 100 max - 1").is_err());
        assert!(parse("0.1 round 100 max - 2").is_err());
    }

    #[test]
    fn bbr_standard_script_reaches_probe_rtt_floor() {
        // The script must actually exercise the PROBE_RTT cwnd floor —
        // otherwise the fixture can't catch a skipped floor.
        let trace = run_standard(CcaKind::Bbr);
        let floor = 4 * STANDARD_MSS;
        assert!(
            trace.iter().any(|p| p.cwnd == floor),
            "no sample at the 4-segment PROBE_RTT floor"
        );
        // And it must exit the probe: the last sample is back above it.
        assert!(trace.last().unwrap().cwnd > floor);
    }

    #[test]
    fn bbr2_standard_script_gates_back_to_back_ecn() {
        let trace = run_standard(CcaKind::Bbr2);
        let ecns: Vec<usize> = trace
            .iter()
            .enumerate()
            .filter_map(|(i, p)| (p.event == "ecn").then_some(i))
            .collect();
        assert_eq!(ecns.len(), 2, "script has two ECN steps");
        // The first echo cuts the window…
        assert!(
            trace[ecns[0]].cwnd < trace[ecns[0] - 1].cwnd,
            "first ECN echo must cut cwnd"
        );
        // …the immediate second echo sits inside the per-round gate.
        assert_eq!(
            trace[ecns[1]].cwnd, trace[ecns[0]].cwnd,
            "gated second echo must be a no-op"
        );
    }

    #[test]
    fn bbr2_standard_script_dwells_at_half_bdp() {
        // PROBE_RTT in v2 parks at bdp/2 (12.5 kB at 10 Mb/s × 20 ms),
        // not v1's 4-segment floor.
        let trace = run_standard(CcaKind::Bbr2);
        let half_bdp = 12_500;
        assert!(
            trace
                .iter()
                .any(|p| p.cwnd.abs_diff(half_bdp) <= STANDARD_MSS),
            "no sample near the half-BDP PROBE_RTT dwell"
        );
        assert!(trace.last().unwrap().cwnd > half_bdp + STANDARD_MSS);
    }

    #[test]
    fn cubic_standard_script_shows_loss_epoch() {
        let trace = run_standard(CcaKind::Cubic);
        let loss = trace
            .iter()
            .position(|p| p.event == "loss")
            .expect("script has a loss step");
        let before = trace[loss - 1].cwnd;
        let at = trace[loss].cwnd;
        // β = 0.7 drop at the event, then recovery back toward W_max.
        assert_eq!(at, (before as f64 * 0.7) as u64);
        assert!(trace.iter().skip(loss).any(|p| p.cwnd >= before * 9 / 10));
    }
}
