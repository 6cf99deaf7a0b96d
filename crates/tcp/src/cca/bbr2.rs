//! BBR v2-style congestion control — the "modern bottleneck" sender the
//! paper's 2022 measurements predate.
//!
//! Same model core as [`super::bbr`] (windowed-max bandwidth, windowed-min
//! propagation delay, STARTUP → DRAIN → steady state), plus the three v2
//! mechanisms that change behaviour against AQMs:
//!
//! * **Inflight bounds.** `inflight_hi` is a robust long-term ceiling
//!   learned in PROBE_UP (raised while probing draws no loss/ECN, latched
//!   at the level where trouble appeared); `inflight_lo` is a cautious
//!   short-term cap cut multiplicatively on each loss or ECN round and
//!   reset at the start of every probe cycle. Outside active probing the
//!   window keeps `HEADROOM` under `inflight_hi`, which is what keeps a
//!   CoDel standing queue shallow.
//! * **Loss and ECN as signals.** Unlike v1, `on_congestion_event` cuts
//!   `inflight_lo` by `BETA` and latches `inflight_hi`; `on_ecn` (the
//!   RFC 3168 ECE echo, at most one cut per propagation delay) does the
//!   same without waiting for a drop, so against a marking AQM the sender
//!   yields *before* the queue overflows.
//! * **PROBE_UP / DOWN / CRUISE / REFRACTORY cycling** replaces the v1
//!   eight-phase gain cycle: drain below target (DOWN at gain 0.9), cruise
//!   with headroom (CRUISE at 1.0 for `CRUISE_WAIT`), refill the pipe
//!   with bounds relaxed (REFRACTORY for one `rt_prop`), then probe above
//!   the ceiling (UP at 1.25).
//!
//! The reference shapes are Linux `tcp_bbr2.c` and the s2n-quic BBRv2
//! recovery module; this is a deterministic simulator-grade distillation
//! (no per-packet ECN alpha EWMA, fixed probe interval instead of a
//! randomized 2–3 s), with every simplification documented where it lives.

use gsrepro_simcore::{BitRate, SimDuration, SimTime};

use super::path_model::{PathModel, HIGH_GAIN};
use super::{AckInfo, CongestionControl, INITIAL_WINDOW_SEGMENTS};

/// Multiplicative decrease applied to `inflight_lo` on loss or ECN
/// (Linux `BBR_BETA` ≈ 0.7).
const BETA: f64 = 0.7;
/// Fraction of `inflight_hi` usable outside PROBE_UP/REFRACTORY, leaving
/// space for other flows and keeping the AQM below its drop point.
const HEADROOM: f64 = 0.85;
/// PROBE_UP pacing gain.
const UP_GAIN: f64 = 1.25;
/// PROBE_DOWN pacing gain (v2 drains gently at 0.9, not v1's 0.75).
const DOWN_GAIN: f64 = 0.9;
/// How long CRUISE holds before the next bandwidth probe. Real BBRv2
/// randomizes 2–3 s; the simulator needs determinism, so the low edge is
/// used verbatim.
const CRUISE_WAIT: SimDuration = SimDuration::from_secs(2);

/// PROBE_BW sub-phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// Drain the probe's queue contribution: pacing gain 0.9 until
    /// in-flight falls to the BDP target.
    Down,
    /// Steady cruise at gain 1.0, window held [`HEADROOM`] under
    /// `inflight_hi`.
    Cruise,
    /// One `rt_prop` of refill with `inflight_lo` reset and full
    /// `inflight_hi` available, so the coming probe starts from a full
    /// pipe rather than a headroom deficit.
    Refractory,
    /// Probe above the ceiling at gain 1.25, raising `inflight_hi` while
    /// the path absorbs it without loss or ECN.
    Up,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw(Phase),
    ProbeRtt,
}

/// BBR v2-style congestion control.
pub struct Bbr2 {
    mode: Mode,
    /// Bandwidth, propagation delay, pipe-full detection and PROBE_RTT
    /// bookkeeping — the model v1 runs on.
    path: PathModel,

    pacing_gain: f64,
    cwnd_gain: f64,
    /// When the current PROBE_BW phase began.
    phase_stamp: SimTime,

    /// Long-term inflight ceiling; `u64::MAX` until first learned.
    inflight_hi: u64,
    /// Short-term inflight cap after loss/ECN; `u64::MAX` when relaxed.
    inflight_lo: u64,
    /// Last time an ECN cut was applied (one cut per `rt_prop`).
    last_ecn_cut: SimTime,
    /// Lifetime count of ECN-driven cuts (diagnostics / telemetry).
    ecn_cuts: u64,
    /// Lifetime count of loss-driven cuts (diagnostics).
    loss_cuts: u64,

    cwnd: u64,
    pacing_rate: Option<BitRate>,
    /// Multiplicative-decrease factor (standard [`BETA`]). See
    /// [`Bbr2::with_beta`].
    beta: f64,
}

impl Bbr2 {
    /// New controller with the Linux initial window and the standard
    /// `beta = 0.7` decrease.
    pub fn new(mss: u64) -> Self {
        Self::with_beta(mss, BETA)
    }

    /// New controller with a custom loss/ECN decrease factor — the
    /// conformance kit's perturbation knob: a one-line "bug" (say 0.9
    /// instead of 0.7) must fail the golden step-response diff.
    pub fn with_beta(mss: u64, beta: f64) -> Self {
        Bbr2 {
            mode: Mode::Startup,
            path: PathModel::new(mss),
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            phase_stamp: SimTime::ZERO,
            inflight_hi: u64::MAX,
            inflight_lo: u64::MAX,
            last_ecn_cut: SimTime::ZERO,
            ecn_cuts: 0,
            loss_cuts: 0,
            cwnd: INITIAL_WINDOW_SEGMENTS * mss,
            pacing_rate: None,
            beta,
        }
    }

    /// Current state name (diagnostics).
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeBw(Phase::Down) => "probe_down",
            Mode::ProbeBw(Phase::Cruise) => "cruise",
            Mode::ProbeBw(Phase::Refractory) => "refractory",
            Mode::ProbeBw(Phase::Up) => "probe_up",
            Mode::ProbeRtt => "probe_rtt",
        }
    }

    /// Current bottleneck-bandwidth estimate.
    pub fn btl_bw(&self) -> BitRate {
        self.path.btl_bw
    }

    /// Current propagation-delay estimate.
    pub fn rt_prop(&self) -> SimDuration {
        self.path.rt_prop
    }

    /// Long-term inflight ceiling (`u64::MAX` until first learned).
    pub fn inflight_hi(&self) -> u64 {
        self.inflight_hi
    }

    /// Short-term inflight cap (`u64::MAX` when relaxed).
    pub fn inflight_lo(&self) -> u64 {
        self.inflight_lo
    }

    /// ECN-driven cuts applied so far.
    pub fn ecn_cuts(&self) -> u64 {
        self.ecn_cuts
    }

    /// The inflight cap in force right now: the short-term `inflight_lo`
    /// and the long-term `inflight_hi`, the latter discounted by
    /// [`HEADROOM`] except while actively refilling or probing.
    fn inflight_cap(&self) -> u64 {
        let hi = if self.inflight_hi == u64::MAX {
            u64::MAX
        } else {
            match self.mode {
                Mode::ProbeBw(Phase::Up) | Mode::ProbeBw(Phase::Refractory) => self.inflight_hi,
                _ => (self.inflight_hi as f64 * HEADROOM) as u64,
            }
        };
        self.inflight_lo.min(hi)
    }

    /// Shared loss/ECN reaction: cut the short-term cap by `beta` of the
    /// current in-flight and latch the long-term ceiling at the level
    /// where the signal appeared; an active probe ends immediately.
    fn cut_bounds(&mut self, now: SimTime, in_flight: u64) {
        let cut = ((in_flight as f64 * self.beta) as u64).max(self.path.min_cwnd());
        self.inflight_lo = self.inflight_lo.min(cut);
        let latch = in_flight.max(self.path.min_cwnd());
        self.inflight_hi = self.inflight_hi.min(latch);
        if let Mode::ProbeBw(Phase::Up) = self.mode {
            self.enter_phase(Phase::Down, now);
        }
        // v2 exits STARTUP on congestion: the pipe is demonstrably full.
        if self.mode == Mode::Startup {
            self.path.filled_pipe = true;
        }
    }

    fn enter_phase(&mut self, phase: Phase, now: SimTime) {
        self.mode = Mode::ProbeBw(phase);
        self.phase_stamp = now;
        self.cwnd_gain = 2.0;
        self.pacing_gain = match phase {
            Phase::Down => DOWN_GAIN,
            Phase::Cruise | Phase::Refractory => 1.0,
            Phase::Up => UP_GAIN,
        };
        if phase == Phase::Refractory {
            // Fresh probe cycle: the short-term caution from the previous
            // cycle's losses/marks has served its purpose.
            self.inflight_lo = u64::MAX;
        }
    }

    fn advance_probe(&mut self, ack: &AckInfo) {
        let Mode::ProbeBw(phase) = self.mode else {
            return;
        };
        let elapsed = ack.now.saturating_since(self.phase_stamp);
        let rt = if self.path.rt_prop == SimDuration::MAX {
            SimDuration::from_millis(100)
        } else {
            self.path.rt_prop
        };
        match phase {
            Phase::Down => {
                if ack.in_flight <= self.path.bdp_bytes() || elapsed > rt * 2 {
                    self.enter_phase(Phase::Cruise, ack.now);
                }
            }
            Phase::Cruise => {
                if elapsed > CRUISE_WAIT {
                    self.enter_phase(Phase::Refractory, ack.now);
                }
            }
            Phase::Refractory => {
                if elapsed > rt {
                    self.enter_phase(Phase::Up, ack.now);
                }
            }
            Phase::Up => {
                // Raise the ceiling while probing fills it without
                // triggering loss/ECN (which would end the phase via
                // `cut_bounds`).
                if self.inflight_hi != u64::MAX
                    && ack.in_flight >= (self.inflight_hi as f64 * 0.9) as u64
                {
                    self.inflight_hi = self.inflight_hi.saturating_add(ack.bytes_acked);
                }
                let target = (self.path.bdp_bytes() as f64 * UP_GAIN) as u64;
                if elapsed > rt && ack.in_flight >= target {
                    self.enter_phase(Phase::Down, ack.now);
                }
            }
        }
    }

    /// v2 dwells at half a BDP (not v1's 4 segments): enough drain to
    /// expose the floor without fully stalling the flow.
    fn probe_rtt_cwnd(&self) -> u64 {
        (self.path.bdp_bytes() / 2).max(self.path.min_cwnd())
    }
}

impl CongestionControl for Bbr2 {
    fn on_ack(&mut self, ack: &AckInfo) {
        let was_probe_rtt = self.mode == Mode::ProbeRtt;
        self.path.on_ack(ack, was_probe_rtt);

        match self.mode {
            Mode::Startup => {
                if self.path.filled_pipe {
                    self.mode = Mode::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
            Mode::Drain => {
                if ack.in_flight <= self.path.bdp_bytes() {
                    self.enter_phase(Phase::Cruise, ack.now);
                }
            }
            Mode::ProbeBw(_) => self.advance_probe(ack),
            Mode::ProbeRtt => {}
        }

        if self.mode != Mode::ProbeRtt && self.path.probe_rtt_due(ack.now) {
            self.mode = Mode::ProbeRtt;
            self.path.enter_probe_rtt(self.cwnd);
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
        }
        if self.mode == Mode::ProbeRtt {
            if let Some(restored) = self.path.probe_rtt_ack(ack, self.probe_rtt_cwnd()) {
                self.cwnd = restored;
                if self.path.filled_pipe {
                    self.enter_phase(Phase::Down, ack.now);
                } else {
                    self.mode = Mode::Startup;
                    self.pacing_gain = HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
        }

        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.probe_rtt_cwnd();
        } else {
            let target = (self.cwnd_gain * self.path.bdp_bytes() as f64) as u64;
            let mut next = target.min(self.inflight_cap()).max(self.path.min_cwnd());
            if was_probe_rtt {
                // Honor the restored pre-probe window on the exit ack, as
                // in v1; the model retakes control from the next ack.
                next = next.max(self.cwnd);
            }
            self.cwnd = next;
        }
        if self.path.btl_bw > BitRate::ZERO {
            self.pacing_rate = Some(self.path.btl_bw.mul_f64(self.pacing_gain));
        }
    }

    fn on_congestion_event(&mut self, now: SimTime, in_flight: u64) {
        self.loss_cuts += 1;
        self.cut_bounds(now, in_flight);
        self.cwnd = self.cwnd.min(self.inflight_cap()).max(self.path.min_cwnd());
    }

    fn on_rto(&mut self, now: SimTime) {
        // Conservation on timeout, as in v1: collapse and let the model
        // rebuild.
        self.path
            .save_cwnd_on_rto(self.cwnd, self.mode == Mode::ProbeRtt);
        self.loss_cuts += 1;
        self.cut_bounds(now, self.cwnd);
        self.cwnd = self.path.mss;
    }

    fn on_ecn(&mut self, now: SimTime, in_flight: u64) {
        // One multiplicative cut per propagation delay: a whole ack train
        // carrying ECE reports one congested round, not N events (the
        // per-round gating Linux implements via its ECN alpha round).
        let gate = if self.path.rt_prop == SimDuration::MAX {
            SimDuration::from_millis(1)
        } else {
            self.path.rt_prop
        };
        if self.ecn_cuts > 0 && now.saturating_since(self.last_ecn_cut) < gate {
            return;
        }
        self.last_ecn_cut = now;
        self.ecn_cuts += 1;
        self.cut_bounds(now, in_flight);
        self.cwnd = self.cwnd.min(self.inflight_cap()).max(self.path.min_cwnd());
    }

    fn ecn_capable(&self) -> bool {
        true
    }

    fn cwnd(&self) -> u64 {
        self.cwnd
    }

    fn pacing_rate(&self) -> Option<BitRate> {
        self.pacing_rate
    }

    fn in_slow_start(&self) -> bool {
        self.mode == Mode::Startup
    }

    fn name(&self) -> &'static str {
        "bbr2"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;

    fn ack_at(
        now: SimTime,
        rtt_ms: u64,
        rate: BitRate,
        in_flight: u64,
        round: u64,
        round_start: bool,
        delivered: u64,
    ) -> AckInfo {
        AckInfo {
            now,
            bytes_acked: MSS,
            rtt: Some(SimDuration::from_millis(rtt_ms)),
            srtt: SimDuration::from_millis(rtt_ms),
            min_rtt: SimDuration::from_millis(rtt_ms),
            delivered,
            delivery_rate: Some(rate),
            in_flight,
            round_start,
            round,
            app_limited: false,
        }
    }

    /// Drive to a steady 10 Mb/s, 20 ms path (BDP = 25 kB). Returns
    /// (time, round).
    fn warm_up(b: &mut Bbr2) -> (SimTime, u64) {
        let rate = BitRate::from_mbps(10);
        let mut now = SimTime::ZERO;
        let mut round = 0;
        let mut delivered = 0;
        for i in 0..400u64 {
            let round_start = i % 16 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(20);
            }
            delivered += MSS;
            b.on_ack(&ack_at(
                now,
                20,
                rate,
                24_000,
                round,
                round_start,
                delivered,
            ));
        }
        (now, round)
    }

    #[test]
    fn startup_exits_and_estimates_converge() {
        let mut b = Bbr2::new(MSS);
        assert_eq!(b.mode_name(), "startup");
        warm_up(&mut b);
        assert!(b.path.filled_pipe);
        assert_ne!(b.mode_name(), "startup");
        assert_eq!(b.rt_prop(), SimDuration::from_millis(20));
        assert_eq!(b.btl_bw(), BitRate::from_mbps(10));
    }

    #[test]
    fn loss_cuts_inflight_lo_by_beta_and_latches_hi() {
        let mut b = Bbr2::new(MSS);
        warm_up(&mut b);
        assert_eq!(b.inflight_lo(), u64::MAX);
        let in_flight = 40_000;
        b.on_congestion_event(SimTime::from_secs(10), in_flight);
        assert_eq!(b.inflight_lo(), (in_flight as f64 * BETA) as u64);
        assert_eq!(b.inflight_hi(), in_flight);
        assert!(b.cwnd() <= b.inflight_lo());
    }

    #[test]
    fn ecn_cuts_like_loss_but_gated_per_round() {
        let mut b = Bbr2::new(MSS);
        warm_up(&mut b);
        let t = SimTime::from_secs(10);
        b.on_ecn(t, 40_000);
        assert_eq!(b.ecn_cuts(), 1);
        let lo_after_first = b.inflight_lo();
        assert_eq!(lo_after_first, 28_000);
        // A second ECE within the same rt_prop is the same congested
        // round: no further cut.
        b.on_ecn(t + SimDuration::from_millis(5), 20_000);
        assert_eq!(b.ecn_cuts(), 1);
        assert_eq!(b.inflight_lo(), lo_after_first);
        // After a full rt_prop the next ECE counts again.
        b.on_ecn(t + SimDuration::from_millis(25), 20_000);
        assert_eq!(b.ecn_cuts(), 2);
        assert_eq!(b.inflight_lo(), 14_000);
    }

    #[test]
    fn ecn_during_startup_declares_pipe_full() {
        let mut b = Bbr2::new(MSS);
        assert_eq!(b.mode_name(), "startup");
        b.on_ecn(SimTime::from_millis(50), 20_000);
        assert!(b.path.filled_pipe, "ECN in startup must end the search");
    }

    #[test]
    fn beta_knob_discriminates() {
        // The conformance kit's perturbation: beta 0.9 instead of 0.7
        // must leave a measurably larger short-term cap.
        let mut std = Bbr2::new(MSS);
        let mut loose = Bbr2::with_beta(MSS, 0.9);
        warm_up(&mut std);
        warm_up(&mut loose);
        std.on_congestion_event(SimTime::from_secs(10), 40_000);
        loose.on_congestion_event(SimTime::from_secs(10), 40_000);
        assert!(loose.inflight_lo() > std.inflight_lo());
    }

    #[test]
    fn probe_cycle_visits_all_phases_and_refractory_resets_lo() {
        let mut b = Bbr2::new(MSS);
        let (mut now, mut round) = warm_up(&mut b);
        // Plant a short-term cap to watch Refractory clear it.
        b.on_congestion_event(now, 40_000);
        assert_ne!(b.inflight_lo(), u64::MAX);
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        let mut seen = std::collections::BTreeSet::new();
        for i in 0..2_000u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(20);
            }
            delivered += MSS;
            // Keep in-flight near the cap so UP's exit condition can fire.
            let inflight = b.cwnd();
            b.on_ack(&ack_at(
                now,
                20,
                rate,
                inflight,
                round,
                round_start,
                delivered,
            ));
            seen.insert(b.mode_name());
            if b.mode_name() == "refractory" {
                assert_eq!(b.inflight_lo(), u64::MAX, "refractory must relax lo");
            }
        }
        for phase in ["probe_down", "cruise", "refractory", "probe_up"] {
            assert!(seen.contains(phase), "never visited {phase}; saw {seen:?}");
        }
    }

    #[test]
    fn cruise_keeps_headroom_under_inflight_hi() {
        let mut b = Bbr2::new(MSS);
        let (mut now, mut round) = warm_up(&mut b);
        b.on_congestion_event(now, 40_000); // inflight_hi = 40 000
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        // Walk until CRUISE and check the cap there.
        for i in 0..400u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(20);
            }
            delivered += MSS;
            b.on_ack(&ack_at(
                now,
                20,
                rate,
                20_000,
                round,
                round_start,
                delivered,
            ));
            if b.mode_name() == "cruise" {
                assert!(
                    b.cwnd() <= (40_000f64 * HEADROOM) as u64,
                    "cruise cwnd {} must stay under {:.0}% of inflight_hi",
                    b.cwnd(),
                    HEADROOM * 100.0
                );
                return;
            }
        }
        panic!("never reached cruise");
    }

    #[test]
    fn probe_up_raises_inflight_hi_without_signals() {
        let mut b = Bbr2::new(MSS);
        let (mut now, mut round) = warm_up(&mut b);
        b.on_congestion_event(now, 30_000);
        let hi0 = b.inflight_hi();
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        for i in 0..2_000u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(20);
            }
            delivered += MSS;
            // Report in-flight pressed against the ceiling while probing.
            let inflight = b.inflight_hi().min(60_000);
            b.on_ack(&ack_at(
                now,
                20,
                rate,
                inflight,
                round,
                round_start,
                delivered,
            ));
        }
        assert!(
            b.inflight_hi() > hi0,
            "clean probes must raise hi: {} -> {}",
            hi0,
            b.inflight_hi()
        );
    }

    #[test]
    fn rto_collapses_then_model_rebuilds_within_bounds() {
        let mut b = Bbr2::new(MSS);
        let (now, round) = warm_up(&mut b);
        let pre = b.cwnd();
        b.on_rto(now);
        assert_eq!(b.cwnd(), MSS);
        b.on_ack(&ack_at(
            now + SimDuration::from_millis(20),
            20,
            BitRate::from_mbps(10),
            MSS,
            round + 1,
            true,
            2_000_000,
        ));
        assert!(b.cwnd() > 4 * MSS, "model must rebuild");
        assert!(
            b.cwnd() <= (pre as f64 * BETA) as u64 + MSS,
            "rebuild {} must respect the post-RTO cap (pre {pre})",
            b.cwnd()
        );
    }

    #[test]
    fn probe_rtt_dwells_at_half_bdp() {
        let mut b = Bbr2::new(MSS);
        let (t0, mut round) = warm_up(&mut b);
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        let mut now = t0;
        let mut saw = false;
        let mut min_seen = u64::MAX;
        for i in 0..2_000u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(21);
            }
            delivered += MSS;
            b.on_ack(&ack_at(
                now,
                21,
                rate,
                4 * MSS,
                round,
                round_start,
                delivered,
            ));
            if b.mode_name() == "probe_rtt" {
                saw = true;
                min_seen = min_seen.min(b.cwnd());
            }
        }
        assert!(saw, "PROBE_RTT must trigger after the window lapses");
        // Half of the ~26 kB BDP (21 ms floor), not v1's 4-segment floor.
        assert!(
            min_seen > 4 * MSS && min_seen <= 16_000,
            "dwell cwnd {min_seen}"
        );
        assert_ne!(b.mode_name(), "probe_rtt", "must exit afterwards");
    }

    #[test]
    fn ecn_capable_and_named() {
        let b = Bbr2::new(MSS);
        assert!(b.ecn_capable());
        assert_eq!(b.name(), "bbr2");
        assert!(b.in_slow_start());
    }
}
