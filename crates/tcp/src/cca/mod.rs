//! The congestion-control interface and its implementations.
//!
//! A [`CongestionControl`] consumes per-ack information ([`AckInfo`]) and
//! congestion notifications, and exposes a congestion window plus an
//! optional pacing rate. The sender machinery in
//! [`crate::endpoint::TcpSender`] is identical for every algorithm, so
//! differences in behaviour between, say, Cubic and BBR are attributable to
//! the control law alone — the property the paper's comparison rests on.

pub mod bbr;
pub mod bbr2;
pub mod cubic;
mod filter;
mod path_model;
pub mod reno;
pub mod vegas;

use gsrepro_simcore::{BitRate, SimDuration, SimTime};

/// Everything a controller may want to know about one acknowledgment.
#[derive(Clone, Copy, Debug)]
pub struct AckInfo {
    /// Arrival time of the ack.
    pub now: SimTime,
    /// Bytes newly acknowledged (cumulatively or via SACK) by this ack.
    pub bytes_acked: u64,
    /// RTT sample from the timestamp echo, when available.
    pub rtt: Option<SimDuration>,
    /// Smoothed RTT maintained by the sender.
    pub srtt: SimDuration,
    /// Minimum RTT observed over the connection's lifetime.
    pub min_rtt: SimDuration,
    /// Total bytes delivered (cum-acked + SACKed) so far.
    pub delivered: u64,
    /// Delivery-rate sample for the acked segment, if computable.
    pub delivery_rate: Option<BitRate>,
    /// Bytes estimated in flight *after* processing this ack.
    pub in_flight: u64,
    /// True when this ack starts a new round trip (the first packet sent
    /// after the previous round's `delivered` milestone has been acked).
    pub round_start: bool,
    /// Monotonic round-trip counter.
    pub round: u64,
    /// True if the sender had no data to send when the acked segment was
    /// transmitted (rate samples taken then should not lower bw estimates).
    /// The bulk sender is never app-limited and always passes `false`; the
    /// field stays for the controllers' own tests and the repo benchmark.
    pub app_limited: bool,
}

/// A congestion-control algorithm.
pub trait CongestionControl: Send {
    /// Process one acknowledgment (new data was acked or SACKed).
    fn on_ack(&mut self, ack: &AckInfo);

    /// A loss-based congestion event: fast retransmit has fired for a new
    /// recovery episode. Called once per episode, not per lost segment.
    fn on_congestion_event(&mut self, now: SimTime, in_flight: u64);

    /// The retransmission timer fired — the most severe congestion signal.
    fn on_rto(&mut self, now: SimTime);

    /// An ack carried an ECE echo: the path CE-marked at least one of this
    /// flow's packets since the last clean ack (RFC 3168 § 6.1). Called on
    /// every ECE-bearing ack; controllers that react once per round (BBRv2)
    /// gate internally. Default no-op so loss-based controllers that never
    /// negotiate ECN (Reno/Cubic/Vegas here) are untouched.
    fn on_ecn(&mut self, _now: SimTime, _in_flight: u64) {}

    /// True if this controller wants its data packets sent ECT so AQMs
    /// mark instead of drop. Only controllers that implement [`on_ecn`]
    /// should opt in.
    ///
    /// [`on_ecn`]: CongestionControl::on_ecn
    fn ecn_capable(&self) -> bool {
        false
    }

    /// Current congestion window in bytes.
    fn cwnd(&self) -> u64;

    /// Slow-start threshold in bytes, for telemetry. `u64::MAX` means "no
    /// threshold yet"; controllers without one (BBR) keep the default.
    fn ssthresh(&self) -> u64 {
        u64::MAX
    }

    /// Pacing rate, if this controller paces (BBR does; loss-based
    /// controllers here are ack-clocked and return `None`).
    fn pacing_rate(&self) -> Option<BitRate>;

    /// True while in slow start (diagnostics only).
    fn in_slow_start(&self) -> bool;

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;

    /// Downcast support for diagnostics and tests.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// Selector for constructing controllers from experiment configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum CcaKind {
    /// Classic NewReno AIMD.
    Reno,
    /// TCP Cubic (Linux default since 2.6.19).
    Cubic,
    /// TCP BBR v1 (as deployed circa Linux 4.9-5.4).
    Bbr,
    /// BBR v2-style: inflight bounds with loss- and ECN-driven reductions.
    Bbr2,
    /// TCP Vegas (delay-based baseline).
    Vegas,
}

impl CcaKind {
    /// Instantiate the controller with the given MSS.
    pub fn build(self, mss: u64) -> Box<dyn CongestionControl> {
        match self {
            CcaKind::Reno => Box::new(reno::Reno::new(mss)),
            CcaKind::Cubic => Box::new(cubic::Cubic::new(mss)),
            CcaKind::Bbr => Box::new(bbr::Bbr::new(mss)),
            CcaKind::Bbr2 => Box::new(bbr2::Bbr2::new(mss)),
            CcaKind::Vegas => Box::new(vegas::Vegas::new(mss)),
        }
    }

    /// Name used in condition labels ("cubic", "bbr", ...).
    pub fn label(self) -> &'static str {
        match self {
            CcaKind::Reno => "reno",
            CcaKind::Cubic => "cubic",
            CcaKind::Bbr => "bbr",
            CcaKind::Bbr2 => "bbr2",
            CcaKind::Vegas => "vegas",
        }
    }
}

impl std::fmt::Display for CcaKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Linux's initial congestion window (RFC 6928): 10 segments.
pub const INITIAL_WINDOW_SEGMENTS: u64 = 10;

#[cfg(test)]
pub(crate) mod testutil {
    //! Shared helpers for driving a controller through synthetic acks.
    use super::*;

    /// Feed `n` acks of one MSS each, grouped into rounds of
    /// `acks_per_round`; the clock advances by `rtt` at each round start.
    /// Returns the final (time, round).
    #[allow(clippy::too_many_arguments)]
    pub fn drive_acks(
        cca: &mut dyn CongestionControl,
        mss: u64,
        n: u64,
        acks_per_round: u64,
        rtt: SimDuration,
        rate: BitRate,
        mut now: SimTime,
        round0: u64,
        delivered0: u64,
    ) -> (SimTime, u64) {
        let per_round = acks_per_round.max(1);
        let mut delivered = delivered0;
        let mut round = round0;
        for i in 0..n {
            delivered += mss;
            let round_start = i % per_round == 0;
            if round_start {
                round += 1;
                now += rtt;
            }
            cca.on_ack(&AckInfo {
                now,
                bytes_acked: mss,
                rtt: Some(rtt),
                srtt: rtt,
                min_rtt: rtt,
                delivered,
                delivery_rate: Some(rate),
                in_flight: cca.cwnd().saturating_sub(mss),
                round_start,
                round,
                app_limited: false,
            });
        }
        (now, round)
    }
}
