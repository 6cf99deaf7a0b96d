//! Per-flow measurement — the simulator's Wireshark.
//!
//! The paper computes per-flow bitrates in 0.5 s bins from packet traces
//! ([Figure 2]), loss rates from sent-vs-captured counts, and queueing delay
//! from ping. [`Monitor`] keeps exactly those observables per [`FlowId`]:
//! sent/delivered/dropped counters, a [`TimeBinned`] series of delivered
//! bytes, and an online one-way-delay accumulator.

use gsrepro_simcore::stats::{TimeBinned, Welford};
use gsrepro_simcore::{Bytes, SimDuration, SimTime};

use crate::wire::FlowId;

/// Where a packet was lost, for drop accounting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DropKind {
    /// Tail-drop or AQM drop at a queue.
    Queue,
    /// Random loss injected by a link (fault injection).
    Link,
}

/// Accumulated statistics for one flow.
pub struct FlowStats {
    /// Human-readable label ("stadia-video", "iperf-cubic", ...).
    pub label: String,
    /// Packets handed to the network by the sender.
    pub sent_pkts: u64,
    /// Bytes handed to the network by the sender.
    pub sent_bytes: Bytes,
    /// Packets that reached their destination node.
    pub delivered_pkts: u64,
    /// Bytes that reached their destination node.
    pub delivered_bytes: Bytes,
    /// Packets dropped at queues.
    pub queue_drop_pkts: u64,
    /// Packets dropped by link fault injection.
    pub link_drop_pkts: u64,
    /// ECN-capable packets CE-marked by an AQM instead of dropped
    /// (RFC 3168 § 5). Marked packets still deliver, so this is
    /// informational: it does not enter the loss rate.
    pub ce_marked_pkts: u64,
    /// Delivered bytes binned by arrival time (0.5 s bins by default).
    pub delivered_bins: TimeBinned,
    /// Sent packets binned by send time (for windowed loss rates).
    pub sent_bins: TimeBinned,
    /// Dropped packets binned by drop time (for windowed loss rates).
    pub dropped_bins: TimeBinned,
    /// One-way delay of delivered packets.
    pub owd: Welford,
}

impl FlowStats {
    fn new(label: String, bin: SimDuration) -> Self {
        FlowStats {
            label,
            sent_pkts: 0,
            sent_bytes: Bytes::ZERO,
            delivered_pkts: 0,
            delivered_bytes: Bytes::ZERO,
            queue_drop_pkts: 0,
            link_drop_pkts: 0,
            ce_marked_pkts: 0,
            delivered_bins: TimeBinned::new(bin),
            sent_bins: TimeBinned::new(bin),
            dropped_bins: TimeBinned::new(bin),
            owd: Welford::new(),
        }
    }

    /// Total drops from any cause.
    pub fn dropped_pkts(&self) -> u64 {
        self.queue_drop_pkts + self.link_drop_pkts
    }

    /// Fraction of sent packets that were dropped (0 if nothing sent).
    pub fn loss_rate(&self) -> f64 {
        if self.sent_pkts == 0 {
            0.0
        } else {
            self.dropped_pkts() as f64 / self.sent_pkts as f64
        }
    }

    /// Packet loss rate over `[from, to)` from the windowed bins.
    pub fn loss_rate_over(&self, from: SimTime, to: SimTime) -> f64 {
        let sum = |tb: &TimeBinned| {
            let mut acc = 0.0;
            for i in 0..tb.len() {
                let mid = SimTime::ZERO + SimDuration::from_secs_f64(tb.bin_mid_secs(i));
                if mid >= from && mid < to {
                    acc += tb.bin_or_zero(i);
                }
            }
            acc
        };
        let sent = sum(&self.sent_bins);
        if sent <= 0.0 {
            0.0
        } else {
            (sum(&self.dropped_bins) / sent).clamp(0.0, 1.0)
        }
    }

    /// Mean goodput over `[from, to)` in Mb/s, from the delivered-byte bins.
    pub fn mean_goodput_mbps(&self, from: SimTime, to: SimTime) -> f64 {
        let scale = 8.0 / self.delivered_bins.width().as_secs_f64() / 1e6;
        self.delivered_bins.mean_over(from, to, scale)
    }
}

/// Registry of flows and their statistics.
pub struct Monitor {
    flows: Vec<FlowStats>,
    bin: SimDuration,
}

impl Monitor {
    /// New monitor with the given bitrate bin width (the paper uses 0.5 s).
    pub fn new(bin: SimDuration) -> Self {
        Monitor {
            flows: Vec::new(),
            bin,
        }
    }

    /// Register a flow and get its id.
    pub fn register(&mut self, label: impl Into<String>) -> FlowId {
        let id = FlowId(self.flows.len() as u32);
        self.flows.push(FlowStats::new(label.into(), self.bin));
        id
    }

    /// Statistics for `flow`.
    pub fn stats(&self, flow: FlowId) -> &FlowStats {
        &self.flows[flow.0 as usize]
    }

    /// All registered flows.
    pub fn flows(&self) -> impl Iterator<Item = (FlowId, &FlowStats)> {
        self.flows
            .iter()
            .enumerate()
            .map(|(i, s)| (FlowId(i as u32), s))
    }

    /// Number of registered flows.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True if no flows are registered.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    pub(crate) fn on_sent(&mut self, flow: FlowId, size: Bytes, now: SimTime) {
        let s = &mut self.flows[flow.0 as usize];
        s.sent_pkts += 1;
        s.sent_bytes += size;
        s.sent_bins.add(now, 1.0);
    }

    pub(crate) fn on_delivered(
        &mut self,
        flow: FlowId,
        size: Bytes,
        owd: SimDuration,
        now: SimTime,
    ) {
        let s = &mut self.flows[flow.0 as usize];
        s.delivered_pkts += 1;
        s.delivered_bytes += size;
        s.delivered_bins.add(now, size.as_u64() as f64);
        s.owd.add(owd.as_millis_f64());
    }

    pub(crate) fn on_marked(&mut self, flow: FlowId) {
        self.flows[flow.0 as usize].ce_marked_pkts += 1;
    }

    pub(crate) fn on_dropped(&mut self, flow: FlowId, kind: DropKind, now: SimTime) {
        let s = &mut self.flows[flow.0 as usize];
        match kind {
            DropKind::Queue => s.queue_drop_pkts += 1,
            DropKind::Link => s.link_drop_pkts += 1,
        }
        s.dropped_bins.add(now, 1.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_count() {
        let mut m = Monitor::new(SimDuration::from_millis(500));
        let f = m.register("game");
        let g = m.register("iperf");
        assert_ne!(f, g);
        assert_eq!(m.len(), 2);

        m.on_sent(f, Bytes(1000), SimTime::ZERO);
        m.on_sent(f, Bytes(1000), SimTime::ZERO);
        m.on_delivered(
            f,
            Bytes(1000),
            SimDuration::from_millis(10),
            SimTime::from_millis(100),
        );
        m.on_dropped(f, DropKind::Queue, SimTime::ZERO);

        let s = m.stats(f);
        assert_eq!(s.sent_pkts, 2);
        assert_eq!(s.delivered_pkts, 1);
        assert_eq!(s.queue_drop_pkts, 1);
        assert_eq!(s.loss_rate(), 0.5);
        assert_eq!(m.stats(g).sent_pkts, 0);
    }

    #[test]
    fn goodput_binning() {
        let mut m = Monitor::new(SimDuration::from_millis(500));
        let f = m.register("x");
        // 625,000 bytes delivered within one 0.5 s bin = 10 Mb/s.
        for i in 0..625 {
            m.on_delivered(
                f,
                Bytes(1000),
                SimDuration::from_millis(5),
                SimTime::from_nanos(i * 100_000),
            );
        }
        let s = m.stats(f);
        let mean = s.mean_goodput_mbps(SimTime::ZERO, SimTime::from_millis(500));
        assert!((mean - 10.0).abs() < 1e-9);
    }

    #[test]
    fn loss_rate_zero_when_nothing_sent() {
        let mut m = Monitor::new(SimDuration::from_secs(1));
        let f = m.register("idle");
        assert_eq!(m.stats(f).loss_rate(), 0.0);
    }

    #[test]
    fn owd_accumulates() {
        let mut m = Monitor::new(SimDuration::from_secs(1));
        let f = m.register("x");
        m.on_delivered(f, Bytes(1), SimDuration::from_millis(10), SimTime::ZERO);
        m.on_delivered(f, Bytes(1), SimDuration::from_millis(20), SimTime::ZERO);
        assert!((m.stats(f).owd.mean() - 15.0).abs() < 1e-12);
    }
}
