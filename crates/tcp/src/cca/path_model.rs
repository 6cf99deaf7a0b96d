//! The path model BBR v1 and v2 share: the two estimates (bottleneck
//! bandwidth, round-trip propagation time), the pipe-full detector that ends
//! STARTUP, and the PROBE_RTT bookkeeping that re-measures the floor.
//!
//! What each controller does *with* the model — gain cycling, inflight
//! bounds, which state follows a probe — lives in [`super::bbr`] and
//! [`super::bbr2`]; they tell the model whether they are in PROBE_RTT.

use gsrepro_simcore::{BitRate, SimDuration, SimTime};

use super::filter::WindowedExtremum;
use super::{AckInfo, INITIAL_WINDOW_SEGMENTS};

/// STARTUP/DRAIN gain: 2/ln2.
pub(super) const HIGH_GAIN: f64 = 2.885;
/// Rounds of bandwidth plateau before declaring the pipe full.
const FULL_BW_ROUNDS: u32 = 3;
/// btl_bw max-filter window, in round trips.
pub(super) const BW_WINDOW_ROUNDS: u64 = 10;
/// rt_prop min-filter window.
const RTPROP_WINDOW: SimDuration = SimDuration::from_secs(10);
/// Time spent at the reduced window in PROBE_RTT.
const PROBE_RTT_DURATION: SimDuration = SimDuration::from_millis(200);

pub(super) struct PathModel {
    pub(super) mss: u64,

    /// Windowed-max filter for btl_bw, keyed by round.
    bw_filter: WindowedExtremum<u64, BitRate>,
    pub(super) btl_bw: BitRate,

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
    pub(super) rt_prop: SimDuration,
    /// Lifetime minimum RTT — the "true" propagation floor.
    true_min: SimDuration,
    /// Last time a sample touched the floor; staleness beyond the window
    /// triggers PROBE_RTT.
    last_near_min: SimTime,

    full_bw: BitRate,
    full_bw_count: u32,
    pub(super) filled_pipe: bool,

    probe_rtt_done_stamp: Option<SimTime>,
    /// Minimum RTT observed while in PROBE_RTT; becomes the new rt_prop.
    probe_min: SimDuration,
    prior_cwnd: u64,
}

impl PathModel {
    pub(super) fn new(mss: u64) -> Self {
        PathModel {
            mss,
            bw_filter: WindowedExtremum::max(),
            btl_bw: BitRate::ZERO,
            rt_filter: WindowedExtremum::min(),
            rt_prop: SimDuration::MAX,
            true_min: SimDuration::MAX,
            last_near_min: SimTime::ZERO,
            full_bw: BitRate::ZERO,
            full_bw_count: 0,
            filled_pipe: false,
            probe_rtt_done_stamp: None,
            probe_min: SimDuration::MAX,
            prior_cwnd: INITIAL_WINDOW_SEGMENTS * mss,
        }
    }

    pub(super) fn bdp_bytes(&self) -> u64 {
        if self.rt_prop == SimDuration::MAX {
            return INITIAL_WINDOW_SEGMENTS * self.mss;
        }
        self.btl_bw.bdp(self.rt_prop).as_u64().max(self.mss)
    }

    pub(super) fn min_cwnd(&self) -> u64 {
        4 * self.mss
    }

    /// Fold one ack into both estimates and the pipe-full detector.
    pub(super) fn on_ack(&mut self, ack: &AckInfo, in_probe_rtt: bool) {
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
            if in_probe_rtt {
                self.probe_min = self.probe_min.min(rtt);
            }
        }
        self.update_btl_bw(ack);
        self.check_full_pipe(ack);
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

    /// No near-floor sample has been seen for a whole window: the pipe
    /// needs draining to re-measure.
    pub(super) fn probe_rtt_due(&self, now: SimTime) -> bool {
        now.saturating_since(self.last_near_min) > RTPROP_WINDOW
    }

    /// Start a PROBE_RTT, remembering the window to restore at its end.
    pub(super) fn enter_probe_rtt(&mut self, cwnd: u64) {
        self.prior_cwnd = cwnd;
        self.probe_rtt_done_stamp = None;
        self.probe_min = SimDuration::MAX;
    }

    /// One ack inside PROBE_RTT. The dwell clock starts once in-flight has
    /// drained to `dwell_cwnd`; when it runs out the probe is over and the
    /// window to restore is returned.
    pub(super) fn probe_rtt_ack(&mut self, ack: &AckInfo, dwell_cwnd: u64) -> Option<u64> {
        let Some(done) = self.probe_rtt_done_stamp else {
            if ack.in_flight <= dwell_cwnd {
                self.probe_rtt_done_stamp = Some(ack.now + PROBE_RTT_DURATION);
            }
            return None;
        };
        if ack.now < done {
            return None;
        }
        // Adopt the delay measured with a drained pipe and reset the
        // windowed filter around it.
        if self.probe_min < SimDuration::MAX {
            self.rt_prop = self.probe_min;
            self.true_min = self.true_min.min(self.probe_min);
            self.rt_filter.clear();
            self.rt_filter.push(ack.now, self.probe_min);
        }
        // Whatever we measured counts as a fresh floor probe.
        self.last_near_min = ack.now;
        self.probe_rtt_done_stamp = None;
        Some(self.prior_cwnd.max(self.min_cwnd()))
    }

    /// A timeout is about to collapse `cwnd`: remember it for the model to
    /// rebuild from. During PROBE_RTT the operating cwnd is the pinned
    /// probe floor, and `prior_cwnd` already holds the pre-probe window
    /// that the probe exit must restore — overwriting it here would make a
    /// timeout inside a probe permanently forget the real window (Linux
    /// guards its `bbr_save_cwnd` the same way).
    pub(super) fn save_cwnd_on_rto(&mut self, cwnd: u64, in_probe_rtt: bool) {
        if !in_probe_rtt {
            self.prior_cwnd = cwnd;
        }
    }
}
