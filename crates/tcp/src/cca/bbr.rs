//! TCP BBR v1 (Cardwell et al., CACM 2017) — the second competitor in the
//! paper's experiments, as shipped in Linux 4.9–5.4.
//!
//! BBR models the path with two estimates — bottleneck bandwidth (`btl_bw`,
//! a windowed max of delivery-rate samples over 10 round trips) and
//! round-trip propagation time (`rt_prop`, a windowed min over 10 seconds) —
//! and sets:
//!
//! * pacing rate = `pacing_gain × btl_bw`,
//! * cwnd = `cwnd_gain × BDP`, with `cwnd_gain = 2` — **the in-flight cap
//!   the paper leans on** to explain why competing BBR keeps 7x-BDP queues
//!   only ~1 BDP full (Section 4.3, Table 4: ≈55 ms vs ≈110 ms RTTs).
//!
//! The four-state machine is implemented as published: STARTUP (gain
//! 2/ln 2 ≈ 2.885 until bandwidth plateaus for three rounds), DRAIN
//! (inverse gain until in-flight ≤ BDP), PROBE_BW (eight-phase gain cycle
//! `[1.25, 0.75, 1, 1, 1, 1, 1, 1]`, one phase per `rt_prop`), and
//! PROBE_RTT (cwnd = 4 segments for 200 ms every 10 s).
//!
//! Loss is *not* a congestion signal for BBR v1 — `on_congestion_event` is
//! a no-op — which is precisely why the paper finds game systems lose more
//! capacity to BBR than to Cubic.

use gsrepro_simcore::{BitRate, SimDuration, SimTime};

use super::path_model::{PathModel, HIGH_GAIN};
use super::{AckInfo, CongestionControl, INITIAL_WINDOW_SEGMENTS};

/// PROBE_BW pacing-gain cycle.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// TCP BBR v1 congestion control.
pub struct Bbr {
    mode: Mode,
    path: PathModel,

    pacing_gain: f64,
    cwnd_gain: f64,
    cycle_index: usize,
    cycle_stamp: SimTime,

    cwnd: u64,
    pacing_rate: Option<BitRate>,
    /// cwnd gain used in PROBE_BW (standard: 2.0). See `with_cwnd_gain`.
    probe_bw_cwnd_gain: f64,
}

impl Bbr {
    /// New controller with the Linux initial window and the standard
    /// `cwnd_gain = 2` in-flight cap.
    pub fn new(mss: u64) -> Self {
        Self::with_cwnd_gain(mss, 2.0)
    }

    /// New controller with a custom PROBE_BW `cwnd_gain` — the DESIGN.md
    /// D3 ablation knob. The paper attributes BBR's bounded queueing at
    /// bloated buffers (Table 4's ≈55 ms vs ≈110 ms RTTs) to the 2×BDP
    /// in-flight cap; varying the gain tests that attribution.
    pub fn with_cwnd_gain(mss: u64, probe_bw_cwnd_gain: f64) -> Self {
        Bbr {
            probe_bw_cwnd_gain,
            mode: Mode::Startup,
            path: PathModel::new(mss),
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            cwnd: INITIAL_WINDOW_SEGMENTS * mss,
            pacing_rate: None,
        }
    }

    /// Current state name (diagnostics).
    pub fn mode_name(&self) -> &'static str {
        match self.mode {
            Mode::Startup => "startup",
            Mode::Drain => "drain",
            Mode::ProbeBw => "probe_bw",
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

    fn advance_cycle(&mut self, now: SimTime, in_flight: u64) {
        let elapsed = now.saturating_since(self.cycle_stamp);
        let gain = CYCLE[self.cycle_index];
        let (rt_prop, bdp) = (self.path.rt_prop, self.path.bdp_bytes());
        let mut advance = elapsed > rt_prop;
        // Leaving the 0.75 phase early once the queue is drained, and the
        // 1.25 phase only after it had a chance to fill — per the BBR draft.
        if gain == 0.75 && in_flight <= bdp {
            advance = true;
        }
        if gain == 1.25 && elapsed > rt_prop && in_flight < (bdp as f64 * 1.25) as u64 {
            // Wait for inflight to reach the probe target unless time's up.
            advance = elapsed > rt_prop * 2;
        }
        if advance {
            self.cycle_index = (self.cycle_index + 1) % CYCLE.len();
            self.cycle_stamp = now;
        }
        self.pacing_gain = CYCLE[self.cycle_index];
    }

    fn enter_probe_bw(&mut self, now: SimTime) {
        self.mode = Mode::ProbeBw;
        self.cwnd_gain = self.probe_bw_cwnd_gain;
        // Start in a random-ish phase in real BBR; deterministic here:
        // begin at the neutral phase after the probe pair.
        self.cycle_index = 2;
        self.cycle_stamp = now;
        self.pacing_gain = CYCLE[self.cycle_index];
    }
}

impl CongestionControl for Bbr {
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
                    self.enter_probe_bw(ack.now);
                }
            }
            Mode::ProbeBw => {
                self.advance_cycle(ack.now, ack.in_flight);
            }
            Mode::ProbeRtt => {}
        }

        if self.mode != Mode::ProbeRtt && self.path.probe_rtt_due(ack.now) {
            self.mode = Mode::ProbeRtt;
            self.path.enter_probe_rtt(self.cwnd);
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
        }
        // v1 dwells at the 4-segment floor.
        if self.mode == Mode::ProbeRtt {
            if let Some(restored) = self.path.probe_rtt_ack(ack, self.path.min_cwnd()) {
                self.cwnd = restored;
                if self.path.filled_pipe {
                    self.enter_probe_bw(ack.now);
                } else {
                    self.mode = Mode::Startup;
                    self.pacing_gain = HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
        }

        // Set cwnd and pacing rate from the model.
        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.path.min_cwnd();
        } else {
            let target = (self.cwnd_gain * self.path.bdp_bytes() as f64) as u64;
            let mut next = target.max(self.path.min_cwnd());
            if was_probe_rtt {
                // This ack just exited PROBE_RTT and `self.cwnd` holds the
                // restored pre-probe window. Honor the restore even when
                // the bandwidth model deflated during the probe (e.g. an
                // in-probe timeout collapsed delivery); the model target
                // takes back over from the next ack on.
                next = next.max(self.cwnd);
            }
            self.cwnd = next;
        }
        if self.path.btl_bw > BitRate::ZERO {
            self.pacing_rate = Some(self.path.btl_bw.mul_f64(self.pacing_gain));
        }
    }

    fn on_congestion_event(&mut self, _now: SimTime, _in_flight: u64) {
        // BBR v1 does not react to packet loss.
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Conservation on timeout: collapse to one segment; the model
        // rebuilds the window on the next acks.
        self.path
            .save_cwnd_on_rto(self.cwnd, self.mode == Mode::ProbeRtt);
        self.cwnd = self.path.mss;
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
        "bbr"
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::super::path_model::BW_WINDOW_ROUNDS;
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

    /// Drive BBR to a steady 10 Mb/s, 20 ms path. Returns (time, round).
    fn warm_up(b: &mut Bbr) -> (SimTime, u64) {
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
            // Report an in-flight just below the 25 kB BDP so DRAIN can
            // complete once the pipe-full check fires.
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
    fn startup_exits_on_bandwidth_plateau() {
        let mut b = Bbr::new(MSS);
        assert_eq!(b.mode_name(), "startup");
        warm_up(&mut b);
        assert_ne!(b.mode_name(), "startup", "plateaued bw must exit startup");
        assert!(b.path.filled_pipe);
    }

    #[test]
    fn estimates_converge_to_path() {
        let mut b = Bbr::new(MSS);
        warm_up(&mut b);
        assert_eq!(b.rt_prop(), SimDuration::from_millis(20));
        assert_eq!(b.btl_bw(), BitRate::from_mbps(10));
    }

    #[test]
    fn cwnd_is_capped_at_twice_bdp_in_probe_bw() {
        let mut b = Bbr::new(MSS);
        warm_up(&mut b);
        assert_eq!(b.mode_name(), "probe_bw");
        // BDP = 10 Mb/s * 20 ms = 25 000 B; cwnd_gain = 2.
        let bdp = 25_000u64;
        assert!(
            b.cwnd() <= 2 * bdp + MSS && b.cwnd() >= 2 * bdp - MSS,
            "cwnd {} should be ≈ 2×BDP {}",
            b.cwnd(),
            2 * bdp
        );
    }

    #[test]
    fn loss_is_ignored() {
        let mut b = Bbr::new(MSS);
        warm_up(&mut b);
        let before = b.cwnd();
        b.on_congestion_event(SimTime::from_secs(10), before / 2);
        assert_eq!(b.cwnd(), before, "BBRv1 must not reduce cwnd on loss");
    }

    #[test]
    fn pacing_cycles_through_gains() {
        let mut b = Bbr::new(MSS);
        let (mut now, mut round) = warm_up(&mut b);
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        let mut gains = std::collections::BTreeSet::new();
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
                50_000,
                round,
                round_start,
                delivered,
            ));
            let p = b.pacing_rate().unwrap().as_bps() as f64 / rate.as_bps() as f64;
            gains.insert((p * 100.0).round() as i64);
        }
        assert!(gains.contains(&125), "must probe at 1.25x, saw {gains:?}");
        assert!(gains.contains(&75), "must drain at 0.75x, saw {gains:?}");
        assert!(gains.contains(&100), "must cruise at 1x, saw {gains:?}");
    }

    #[test]
    fn probe_rtt_fires_after_ten_seconds() {
        let mut b = Bbr::new(MSS);
        let (t0, mut round) = warm_up(&mut b);
        let rate = BitRate::from_mbps(10);
        let mut delivered = 1_000_000;
        let mut saw_probe_rtt = false;
        let mut min_cwnd_seen = u64::MAX;
        // >20 simulated seconds with RTT stuck at 21 ms (> rt_prop, so the
        // min filter never refreshes and must go stale).
        let mut now = t0;
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
                saw_probe_rtt = true;
                min_cwnd_seen = min_cwnd_seen.min(b.cwnd());
            }
        }
        assert!(saw_probe_rtt, "PROBE_RTT must trigger after 10 s");
        assert_eq!(min_cwnd_seen, 4 * MSS);
        // And it must leave PROBE_RTT afterwards.
        assert_eq!(b.mode_name(), "probe_bw");
    }

    #[test]
    fn rto_inside_probe_rtt_keeps_prior_cwnd() {
        // Regression: `on_rto` used to unconditionally save the operating
        // cwnd into `prior_cwnd`. Inside PROBE_RTT the operating cwnd is
        // the pinned 4-segment floor, so a timeout there overwrote the
        // saved pre-probe window; the probe exit then "restored" the floor
        // instead of the real window (Linux guards `bbr_save_cwnd` against
        // exactly this).
        let mut b = Bbr::new(MSS);
        let (t0, mut round) = warm_up(&mut b);
        let mut now = t0;
        let mut delivered = 1_000_000;
        let rate_full = BitRate::from_mbps(10);
        // Starve the rt_prop floor (21 ms > the 20 ms min) until the
        // 10 s window lapses and PROBE_RTT engages.
        let mut pre_probe = 0;
        for i in 0..2_000u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(21);
            }
            delivered += MSS;
            let before = b.cwnd();
            b.on_ack(&ack_at(
                now,
                21,
                rate_full,
                50_000,
                round,
                round_start,
                delivered,
            ));
            if b.mode_name() == "probe_rtt" {
                pre_probe = before;
                break;
            }
        }
        assert_eq!(b.mode_name(), "probe_rtt");
        assert!(pre_probe > 30_000, "pre-probe cwnd {pre_probe}");

        // While the pipe drains, an RTO strikes and delivery collapses to
        // 1 Mb/s; enough rounds pass to flush every 10 Mb/s sample out of
        // the bandwidth window, so the model alone can no longer justify
        // the old window.
        let rate_low = BitRate::from_mbps(1);
        b.on_rto(now);
        for i in 0..2 * (BW_WINDOW_ROUNDS + 2) {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(21);
            }
            delivered += MSS;
            b.on_ack(&ack_at(
                now,
                20,
                rate_low,
                50_000,
                round,
                round_start,
                delivered,
            ));
        }
        assert_eq!(b.mode_name(), "probe_rtt");
        assert!(b.btl_bw() <= rate_low, "bw window must have flushed");

        // Drain in-flight to the floor so the 200 ms dwell can elapse and
        // the probe exits.
        let mut exited = false;
        for i in 0..40u64 {
            let round_start = i % 2 == 0;
            if round_start {
                round += 1;
                now += SimDuration::from_millis(21);
            }
            delivered += MSS;
            b.on_ack(&ack_at(
                now,
                20,
                rate_low,
                4 * MSS,
                round,
                round_start,
                delivered,
            ));
            if b.mode_name() != "probe_rtt" {
                exited = true;
                break;
            }
        }
        assert!(exited, "PROBE_RTT must complete");
        // The exit must restore the pre-probe window, not the probe floor.
        assert!(
            b.cwnd() >= pre_probe,
            "exit cwnd {} must restore pre-probe cwnd {pre_probe}",
            b.cwnd()
        );
    }

    #[test]
    fn rto_collapses_then_model_rebuilds() {
        let mut b = Bbr::new(MSS);
        let (now, round) = warm_up(&mut b);
        b.on_rto(now);
        assert_eq!(b.cwnd(), MSS);
        // One ack later the model-based cwnd is restored.
        b.on_ack(&ack_at(
            now + SimDuration::from_millis(20),
            20,
            BitRate::from_mbps(10),
            MSS,
            round + 1,
            true,
            2_000_000,
        ));
        assert!(b.cwnd() > 10 * MSS);
    }

    #[test]
    fn rt_prop_windowed_min_inflates_with_standing_queue() {
        // C1 (DESIGN.md): when every RTT sample for > 10 s includes a
        // competitor's standing queue, the windowed min must rise to it —
        // the Hock et al. RTT-inflation behaviour — instead of staying
        // anchored at the long-gone empty-path minimum.
        let mut b = Bbr::new(MSS);
        warm_up(&mut b); // rt_prop = 20 ms
        assert_eq!(b.rt_prop(), SimDuration::from_millis(20));
        let rate = BitRate::from_mbps(10);
        let mut now = SimTime::from_secs(30);
        let mut delivered = 2_000_000;
        let mut round = 200;
        // 15 s of RTT stuck at 45 ms (standing queue), feeding an inflight
        // high enough that PROBE_RTT never completes its drain.
        for i in 0..1_500u64 {
            if i % 2 == 0 {
                round += 1;
                now += SimDuration::from_millis(20);
            }
            delivered += MSS;
            b.on_ack(&ack_at(now, 45, rate, 60_000, round, i % 2 == 0, delivered));
        }
        assert!(
            b.rt_prop() >= SimDuration::from_millis(40),
            "windowed min must inflate to the standing level, got {:?}",
            b.rt_prop()
        );
        // Let the (synthetic) PROBE_RTT drain complete, then the cwnd
        // target reflects the inflated BDP.
        for _ in 0..40u64 {
            now += SimDuration::from_millis(20);
            round += 1;
            delivered += MSS;
            b.on_ack(&ack_at(now, 45, rate, 2 * MSS, round, true, delivered));
        }
        assert!(
            b.cwnd() > 2 * 24_000,
            "cwnd {} should track the inflated BDP",
            b.cwnd()
        );
    }

    #[test]
    fn custom_cwnd_gain_scales_target() {
        let mut a = Bbr::with_cwnd_gain(MSS, 2.0);
        let mut b = Bbr::with_cwnd_gain(MSS, 4.0);
        warm_up(&mut a);
        warm_up(&mut b);
        assert_eq!(a.mode_name(), "probe_bw");
        assert_eq!(b.mode_name(), "probe_bw");
        assert!(
            b.cwnd() > a.cwnd() * 3 / 2,
            "gain 4 target {} should far exceed gain 2 target {}",
            b.cwnd(),
            a.cwnd()
        );
    }

    #[test]
    fn bw_filter_forgets_old_samples() {
        let mut b = Bbr::new(MSS);
        warm_up(&mut b); // 10 Mb/s history
                         // Path slows to 2 Mb/s: after > 10 rounds the estimate must drop.
        let rate = BitRate::from_mbps(2);
        let mut now = SimTime::from_secs(60);
        let mut delivered = 2_000_000;
        for r in 0..15u64 {
            now += SimDuration::from_millis(20);
            delivered += MSS;
            b.on_ack(&ack_at(now, 20, rate, 20_000, 100 + r, true, delivered));
        }
        assert_eq!(b.btl_bw(), BitRate::from_mbps(2));
    }
}
