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

use super::filter::WindowedExtremum;
use super::{AckInfo, CongestionControl, INITIAL_WINDOW_SEGMENTS};

/// STARTUP/DRAIN gain: 2/ln2.
const HIGH_GAIN: f64 = 2.885;
/// PROBE_BW pacing-gain cycle.
const CYCLE: [f64; 8] = [1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0];
/// Rounds of bandwidth plateau before declaring the pipe full.
const FULL_BW_ROUNDS: u32 = 3;
/// btl_bw max-filter window, in round trips.
const BW_WINDOW_ROUNDS: u64 = 10;
/// rt_prop min-filter window.
const RTPROP_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Time spent at minimal cwnd in PROBE_RTT.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Mode {
    Startup,
    Drain,
    ProbeBw,
    ProbeRtt,
}

/// TCP BBR v1 congestion control.
pub struct Bbr {
    mss: u64,
    mode: Mode,

    /// Windowed-max filter for btl_bw, keyed by round.
    bw_filter: WindowedExtremum<u64, BitRate>,
    btl_bw: BitRate,

    /// Windowed-min filter for rt_prop, keyed by ack time, over the last
    /// [`RTPROP_WINDOW`]. Using a *windowed* min
    /// (per the BBR paper) rather than a sticky lifetime min matters
    /// enormously in competition: when another flow holds a standing queue
    /// that never drains, the windowed min *inflates* to include that
    /// queue, the 2×BDP in-flight cap grows with it, and BBR presses the
    /// queue — the standing-queue/RTT-inflation behaviour Hock et al.
    /// measured for real BBRv1 and the reason the paper's game systems
    /// lose capacity to BBR.
    rt_filter: WindowedExtremum<SimTime, SimDuration>,
    rt_prop: SimDuration,
    /// Lifetime minimum RTT — the "true" propagation floor.
    true_min: SimDuration,
    /// Last time a sample touched the floor; staleness beyond the window
    /// triggers PROBE_RTT.
    last_near_min: SimTime,

    pacing_gain: f64,
    cwnd_gain: f64,
    cycle_index: usize,
    cycle_stamp: SimTime,

    full_bw: BitRate,
    full_bw_count: u32,
    filled_pipe: bool,

    probe_rtt_done_stamp: Option<SimTime>,
    /// Minimum RTT observed while in PROBE_RTT; becomes the new rt_prop.
    probe_min: SimDuration,
    prior_cwnd: u64,

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
            mss,
            mode: Mode::Startup,
            bw_filter: WindowedExtremum::max(),
            btl_bw: BitRate::ZERO,
            rt_filter: WindowedExtremum::min(),
            rt_prop: SimDuration::MAX,
            true_min: SimDuration::MAX,
            last_near_min: SimTime::ZERO,
            pacing_gain: HIGH_GAIN,
            cwnd_gain: HIGH_GAIN,
            cycle_index: 0,
            cycle_stamp: SimTime::ZERO,
            full_bw: BitRate::ZERO,
            full_bw_count: 0,
            filled_pipe: false,
            probe_rtt_done_stamp: None,
            probe_min: SimDuration::MAX,
            prior_cwnd: INITIAL_WINDOW_SEGMENTS * mss,
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
        self.btl_bw
    }

    /// Current propagation-delay estimate.
    pub fn rt_prop(&self) -> SimDuration {
        self.rt_prop
    }

    fn bdp_bytes(&self) -> u64 {
        if self.rt_prop == SimDuration::MAX {
            return INITIAL_WINDOW_SEGMENTS * self.mss;
        }
        self.btl_bw.bdp(self.rt_prop).as_u64().max(self.mss)
    }

    fn min_cwnd(&self) -> u64 {
        4 * self.mss
    }

    fn update_btl_bw(&mut self, ack: &AckInfo) {
        if let Some(rate) = ack.delivery_rate {
            // App-limited samples can only raise the estimate.
            if !ack.app_limited || rate > self.btl_bw {
                self.bw_filter.push(ack.round, rate);
            }
        }
        self.bw_filter
            .evict_below(ack.round.saturating_sub(BW_WINDOW_ROUNDS));
        self.btl_bw = self.bw_filter.best().unwrap_or(BitRate::ZERO);
    }

    fn check_full_pipe(&mut self, ack: &AckInfo) {
        if self.filled_pipe || !ack.round_start || ack.app_limited {
            return;
        }
        // Still growing ≥ 25%?
        if self.btl_bw.as_bps() as f64 >= self.full_bw.as_bps() as f64 * 1.25 {
            self.full_bw = self.btl_bw;
            self.full_bw_count = 0;
            return;
        }
        self.full_bw_count += 1;
        if self.full_bw_count >= FULL_BW_ROUNDS {
            self.filled_pipe = true;
        }
    }

    fn advance_cycle(&mut self, now: SimTime, in_flight: u64) {
        let elapsed = now.saturating_since(self.cycle_stamp);
        let gain = CYCLE[self.cycle_index];
        let mut advance = elapsed > self.rt_prop;
        // Leaving the 0.75 phase early once the queue is drained, and the
        // 1.25 phase only after it had a chance to fill — per the BBR draft.
        if gain == 0.75 && in_flight <= self.bdp_bytes() {
            advance = true;
        }
        if gain == 1.25
            && elapsed > self.rt_prop
            && in_flight < (self.bdp_bytes() as f64 * 1.25) as u64
        {
            // Wait for inflight to reach the probe target unless time's up.
            advance = elapsed > self.rt_prop * 2;
        }
        if advance {
            self.cycle_index = (self.cycle_index + 1) % CYCLE.len();
            self.cycle_stamp = now;
        }
        self.pacing_gain = CYCLE[self.cycle_index];
    }

    fn handle_probe_rtt(&mut self, ack: &AckInfo) {
        match self.probe_rtt_done_stamp {
            None => {
                if ack.in_flight <= self.min_cwnd() {
                    self.probe_rtt_done_stamp = Some(ack.now + PROBE_RTT_DURATION);
                }
            }
            Some(done) => {
                if ack.now >= done {
                    // Adopt the delay measured with a drained pipe and
                    // reset the windowed filter around it.
                    if self.probe_min < SimDuration::MAX {
                        self.rt_prop = self.probe_min;
                        self.true_min = self.true_min.min(self.probe_min);
                        self.rt_filter.clear();
                        self.rt_filter.push(ack.now, self.probe_min);
                    }
                    // Whatever we measured counts as a fresh floor probe.
                    self.last_near_min = ack.now;
                    self.cwnd = self.prior_cwnd.max(self.min_cwnd());
                    self.mode = if self.filled_pipe {
                        self.enter_probe_bw(ack.now);
                        Mode::ProbeBw
                    } else {
                        self.pacing_gain = HIGH_GAIN;
                        self.cwnd_gain = HIGH_GAIN;
                        Mode::Startup
                    };
                    self.probe_rtt_done_stamp = None;
                }
            }
        }
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
        if let Some(rtt) = ack.rtt {
            self.rt_filter.push(ack.now, rtt);
            self.rt_filter.evict_below(ack.now - RTPROP_WINDOW);
            self.rt_prop = self.rt_filter.best().unwrap_or(rtt);
            if rtt < self.true_min {
                self.true_min = rtt;
            }
            // Floor refresh: only a sample at (or below) the lifetime
            // minimum proves the queue drained; anything above it leaves
            // the PROBE_RTT countdown running (Linux: `rtt <= min_rtt`).
            if rtt <= self.true_min {
                self.last_near_min = ack.now;
            }
            if self.mode == Mode::ProbeRtt {
                self.probe_min = self.probe_min.min(rtt);
            }
        }

        self.update_btl_bw(ack);
        self.check_full_pipe(ack);

        match self.mode {
            Mode::Startup => {
                if self.filled_pipe {
                    self.mode = Mode::Drain;
                    self.pacing_gain = 1.0 / HIGH_GAIN;
                    self.cwnd_gain = HIGH_GAIN;
                }
            }
            Mode::Drain => {
                if ack.in_flight <= self.bdp_bytes() {
                    self.enter_probe_bw(ack.now);
                }
            }
            Mode::ProbeBw => {
                self.advance_cycle(ack.now, ack.in_flight);
            }
            Mode::ProbeRtt => {}
        }

        // Enter PROBE_RTT when no near-floor sample has been seen for a
        // whole window: the pipe needs draining to re-measure.
        if self.mode != Mode::ProbeRtt
            && ack.now.saturating_since(self.last_near_min) > RTPROP_WINDOW
        {
            self.mode = Mode::ProbeRtt;
            self.prior_cwnd = self.cwnd;
            self.pacing_gain = 1.0;
            self.cwnd_gain = 1.0;
            self.probe_rtt_done_stamp = None;
            self.probe_min = SimDuration::MAX;
        }
        if self.mode == Mode::ProbeRtt {
            self.handle_probe_rtt(ack);
        }

        // Set cwnd and pacing rate from the model.
        if self.mode == Mode::ProbeRtt {
            self.cwnd = self.min_cwnd();
        } else {
            let target = (self.cwnd_gain * self.bdp_bytes() as f64) as u64;
            let mut next = target.max(self.min_cwnd());
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
        if self.btl_bw > BitRate::ZERO {
            self.pacing_rate = Some(self.btl_bw.mul_f64(self.pacing_gain));
        }
    }

    fn on_congestion_event(&mut self, _now: SimTime, _in_flight: u64) {
        // BBR v1 does not react to packet loss.
    }

    fn on_rto(&mut self, _now: SimTime) {
        // Conservation on timeout: collapse to one segment; the model
        // rebuilds the window on the next acks. During PROBE_RTT the
        // operating cwnd is the pinned 4-segment floor, and `prior_cwnd`
        // already holds the pre-probe window that the probe exit must
        // restore — overwriting it here would make a timeout inside a
        // probe permanently forget the real window (Linux guards its
        // `bbr_save_cwnd` the same way).
        if self.mode != Mode::ProbeRtt {
            self.prior_cwnd = self.cwnd;
        }
        self.cwnd = self.mss;
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
        assert!(b.filled_pipe);
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
