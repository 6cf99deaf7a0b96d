//! Unidirectional links: token-bucket shaping, propagation delay, fault
//! injection.
//!
//! The paper's bottleneck was created with
//! `tc qdisc ... tbf rate 15mbit burst 1mbit limit 510kbit` layered under a
//! `netem delay`. A [`LinkSpec`] mirrors exactly those knobs: a token-bucket
//! [`Shaper`] (rate + burst), a [`QueueSpec`] (the `limit`), and a one-way
//! propagation `delay` (the `netem` half). Optional random loss and jitter
//! provide the fault injection the smoltcp examples recommend for testing.
//!
//! Token-bucket arithmetic is exact integer math in units of
//! *bit-nanoseconds* (1 byte = 8×10⁹ bit-ns): refills never accumulate
//! rounding drift, so long runs stay deterministic to the nanosecond.

use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

use crate::net::NodeId;
use crate::queue::{Discipline, QueueSpec, QueuedPkt};

/// Identifies a link within a [`crate::net::Network`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub u32);

/// Rate-limiting policy for a link.
#[derive(Clone, Copy, Debug)]
pub enum Shaper {
    /// No rate limit (packets depart as soon as they are queued). Used for
    /// the testbed's 1 Gb/s LAN segments, which the paper verified are never
    /// the bottleneck.
    Unshaped,
    /// Token bucket: tokens accrue at `rate` up to `burst`; a packet departs
    /// when the bucket holds its full size (`tc tbf` semantics).
    TokenBucket {
        /// Token accrual rate — the link capacity.
        rate: BitRate,
        /// Bucket depth. Must be at least one MTU or large packets would
        /// stall forever; the builder enforces a 2 kB floor.
        burst: Bytes,
    },
}

impl Shaper {
    /// Convenience: a token bucket with a single-MTU burst, i.e. plain
    /// serialization at `rate`.
    pub fn rate(rate: BitRate) -> Self {
        Shaper::TokenBucket {
            rate,
            burst: Bytes(2_000),
        }
    }
}

/// Declarative link configuration.
#[derive(Clone, Debug)]
pub struct LinkSpec {
    /// Rate limit.
    pub shaper: Shaper,
    /// One-way propagation delay (the `netem delay` half).
    pub delay: SimDuration,
    /// Buffering policy in front of the shaper.
    pub queue: QueueSpec,
    /// Uniform random extra delay in `[0, jitter]` applied per packet.
    pub jitter: SimDuration,
    /// Independent per-packet drop probability (fault injection).
    pub loss_prob: f64,
    /// Independent per-packet duplication probability (`netem duplicate`);
    /// the copy is delivered back-to-back with the original.
    pub dup_prob: f64,
}

impl LinkSpec {
    /// An unshaped link with the given propagation delay and an effectively
    /// unlimited buffer — a LAN segment.
    pub fn lan(delay: SimDuration) -> Self {
        LinkSpec {
            shaper: Shaper::Unshaped,
            delay,
            queue: QueueSpec::DropTail {
                limit: Bytes(u64::MAX / 2),
            },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// A shaped bottleneck: `rate` capacity, `limit`-byte drop-tail queue,
    /// `delay` one-way propagation — the paper's router configuration.
    pub fn bottleneck(rate: BitRate, limit: Bytes, delay: SimDuration) -> Self {
        LinkSpec {
            shaper: Shaper::rate(rate),
            delay,
            queue: QueueSpec::DropTail { limit },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
    }

    /// Add uniform jitter.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Add independent random loss.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_prob = p;
        self
    }

    /// Add independent random duplication.
    pub fn with_duplication(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability out of range"
        );
        self.dup_prob = p;
        self
    }

    /// Build a standalone [`Link`]. [`crate::net::NetworkBuilder`] calls
    /// this for every topology edge; benches call it directly to measure
    /// the shaper without a network around it.
    pub fn build(&self, id: LinkId, from: NodeId, to: NodeId) -> Link {
        let (rate, burst) = match self.shaper {
            Shaper::Unshaped => (None, Bytes::ZERO),
            Shaper::TokenBucket { rate, burst } => {
                assert!(rate.as_bps() > 0, "shaped link must have a positive rate");
                (Some(rate), Bytes(burst.as_u64().max(2_000)))
            }
        };
        Link {
            id,
            from,
            to,
            rate,
            burst_bitns: bitns(burst),
            tokens_bitns: bitns(burst), // start with a full bucket
            last_refill: SimTime::ZERO,
            delay: self.delay,
            jitter: self.jitter,
            loss_prob: self.loss_prob,
            dup_prob: self.dup_prob,
            queue: self.queue.build(),
            wakeup_scheduled: false,
            last_arrival: SimTime::ZERO,
            up: true,
            delivered_pkts: 0,
            delivered_bytes: Bytes::ZERO,
        }
    }
}

#[inline]
fn bitns(b: Bytes) -> u128 {
    b.bits() as u128 * 1_000_000_000u128
}

/// A built link, created from a [`LinkSpec`] inside
/// [`crate::net::NetworkBuilder`].
pub struct Link {
    pub(crate) id: LinkId,
    pub(crate) from: NodeId,
    pub(crate) to: NodeId,
    rate: Option<BitRate>,
    burst_bitns: u128,
    tokens_bitns: u128,
    last_refill: SimTime,
    pub(crate) delay: SimDuration,
    pub(crate) jitter: SimDuration,
    pub(crate) loss_prob: f64,
    pub(crate) dup_prob: f64,
    pub(crate) queue: Discipline,
    /// True while a `LinkWakeup` event is in flight, to avoid duplicates.
    pub(crate) wakeup_scheduled: bool,
    /// Latest scheduled arrival time, so jitter never reorders a flow:
    /// real path jitter is queue-induced and FIFO-preserving, and TCP
    /// reacts badly (spurious loss detection) to artificial reordering.
    pub(crate) last_arrival: SimTime,
    /// False while an injected outage is in force (see [`Link::set_up`]).
    up: bool,
    delivered_pkts: u64,
    delivered_bytes: Bytes,
}

impl Link {
    /// This link's id.
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// Change the shaping rate at runtime (emulating `tc qdisc change`).
    /// `None` removes the limit. Tokens are conserved across the change:
    /// the bucket is first settled at the *old* rate up to `now`, then the
    /// new rate takes over, with the balance clamped to the burst depth.
    /// No credit is forged (a rate raise cannot mint a burst out of thin
    /// air) and none is destroyed (a cut keeps legitimately banked tokens,
    /// exactly as a real `tc qdisc change` leaves the bucket alone).
    pub(crate) fn set_rate(&mut self, rate: Option<BitRate>, now: SimTime) {
        // Settle the bucket at the rate in force until now. No-op when the
        // link was unshaped (an unshaped link has no meaningful balance).
        self.refill(now);
        if let Some(r) = rate {
            assert!(r.as_bps() > 0, "shaped link must have a positive rate");
            if self.burst_bitns == 0 {
                // Was unshaped: give it the default single-MTU burst.
                self.burst_bitns = bitns(Bytes(2_000));
            }
        }
        self.rate = rate;
        self.last_refill = now;
        self.tokens_bitns = self.tokens_bitns.min(self.burst_bitns);
    }

    /// Change the one-way propagation delay at runtime. Packets already on
    /// the wire keep the delay in force at their send time (their arrival
    /// events are already scheduled); only future departures see the new
    /// value.
    pub(crate) fn set_delay(&mut self, delay: SimDuration) {
        self.delay = delay;
    }

    /// Change the independent per-packet drop probability at runtime.
    pub(crate) fn set_loss_prob(&mut self, p: f64) {
        assert!((0.0..=1.0).contains(&p), "loss probability out of range");
        self.loss_prob = p;
    }

    /// Change the independent per-packet duplication probability at runtime.
    pub(crate) fn set_dup_prob(&mut self, p: f64) {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplication probability out of range"
        );
        self.dup_prob = p;
    }

    /// Take the link down or bring it back up. While down, new offers are
    /// rejected (the caller accounts them as queue drops) and nothing is
    /// serviced; packets already queued stay parked and resume, in order,
    /// when the link comes back. Packets already propagating are unaffected
    /// (they left before the cut). Deterministic: consumes no randomness.
    pub(crate) fn set_up(&mut self, up: bool, now: SimTime) {
        if !up && self.up {
            // Settle the bucket at the cut: tokens accrued while carrying
            // traffic are banked, but the dark period must earn nothing.
            self.refill(now);
        }
        if up && !self.up {
            // Resume accrual from now — downtime contributed no tokens.
            self.last_refill = now;
        }
        self.up = up;
    }

    /// Whether the link is currently up (outages are injected by
    /// `Link::set_up`).
    pub fn is_up(&self) -> bool {
        self.up
    }

    /// Change the queue's byte limit at runtime. Packets evicted by a
    /// shrink are appended to `dropped`; the caller owns their pool slots
    /// and accounts them as queue drops.
    pub(crate) fn set_queue_limit(&mut self, limit: Bytes, dropped: &mut Vec<QueuedPkt>) {
        self.queue.set_byte_limit(limit, dropped);
    }

    /// Source node.
    pub fn from(&self) -> NodeId {
        self.from
    }

    /// Destination node.
    pub fn to(&self) -> NodeId {
        self.to
    }

    /// One-way propagation delay.
    pub fn delay(&self) -> SimDuration {
        self.delay
    }

    /// Configured rate, if shaped.
    pub fn rate(&self) -> Option<BitRate> {
        self.rate
    }

    /// Current queue occupancy in bytes.
    pub fn backlog(&self) -> Bytes {
        self.queue.len_bytes()
    }

    /// Packets delivered onto the wire so far.
    pub fn delivered_pkts(&self) -> u64 {
        self.delivered_pkts
    }

    /// Bytes delivered onto the wire so far.
    pub fn delivered_bytes(&self) -> Bytes {
        self.delivered_bytes
    }

    /// Token-bucket balance in bit-nanoseconds (oracle input; 0 when
    /// unshaped).
    pub(crate) fn tokens_bitns(&self) -> u128 {
        self.tokens_bitns
    }

    /// Token-bucket depth in bit-nanoseconds (oracle input; 0 when
    /// unshaped).
    pub(crate) fn burst_bitns(&self) -> u128 {
        self.burst_bitns
    }

    /// Offer a pooled packet to the link's queue. `Err` is a queue drop;
    /// the caller still owns the entry's pool slot and must release it.
    pub fn offer(&mut self, item: QueuedPkt, now: SimTime) -> Result<(), QueuedPkt> {
        if !self.up {
            return Err(item);
        }
        self.queue.enqueue(item, now)
    }

    /// Cut-through for a hop that cannot queue. When the link is unshaped,
    /// up, and its discipline is a drop-tail holding nothing, an offered
    /// packet would be enqueued and dequeued in the same activation;
    /// this answers the drop-tail admission test for `size` directly
    /// (`Some(false)` is a queue drop) and counts an admitted packet as
    /// delivered, without touching the queue. `None` — shaped, down, an
    /// AQM, or a backlog — means the caller must [`Link::offer`].
    ///
    /// Sound because an unshaped link's queue is empty at every offer:
    /// `service_batch` drains it within the activation that filled it, and
    /// `offer` rejects while the link is down. The one exception is a link
    /// unshaped mid-run while a `LinkWakeup` was pending — offers queue
    /// unpumped until it fires — so a pending wakeup also declines.
    #[inline]
    pub(crate) fn cut_through(&mut self, size: Bytes) -> Option<bool> {
        if self.rate.is_some() || !self.up || self.wakeup_scheduled {
            return None;
        }
        debug_assert_eq!(
            self.queue.len_pkts(),
            0,
            "unshaped link {} holds a backlog between activations",
            self.id.0
        );
        let admit = self.queue.empty_droptail_admits(size)?;
        if admit {
            self.delivered_pkts += 1;
            self.delivered_bytes += size;
        }
        Some(admit)
    }

    fn refill(&mut self, now: SimTime) {
        let Some(rate) = self.rate else { return };
        let dt = now.saturating_since(self.last_refill);
        self.last_refill = now;
        self.tokens_bitns = (self.tokens_bitns + rate.as_bps() as u128 * dt.as_nanos() as u128)
            .min(self.burst_bitns);
    }

    /// Release every packet the bank covers (up to `max`) in one activation.
    ///
    /// Delivered packets are appended to `out`; AQM drops encountered along
    /// the way go to `dropped` (caller owns both sets' pool slots). One
    /// token refill settles the bucket for the whole batch — arithmetically
    /// identical to refilling per packet at a fixed `now`, since the
    /// intra-batch elapsed time is zero.
    ///
    /// Returns `Some(t)` when a head packet remains and the earliest it can
    /// depart is `t` (`t == now` only when `max` capped the drain with
    /// tokens still banked); `None` when the queue drained, the link is
    /// down, or the link is unshaped (an unshaped head never waits).
    pub fn service_batch(
        &mut self,
        now: SimTime,
        max: usize,
        out: &mut Vec<QueuedPkt>,
        dropped: &mut Vec<QueuedPkt>,
    ) -> Option<SimTime> {
        if !self.up || max == 0 {
            // Down: queued packets stay parked until the link returns.
            return None;
        }
        let Some(rate) = self.rate else {
            // Unshaped: everything queued departs immediately.
            let mut n = 0;
            while n < max {
                match self.queue.dequeue(now, dropped) {
                    Some(p) => {
                        self.delivered_pkts += 1;
                        self.delivered_bytes += p.size;
                        out.push(p);
                        n += 1;
                    }
                    None => break,
                }
            }
            return None;
        };

        self.refill(now);
        let mut n = 0;
        loop {
            let head = self.queue.peek_size()?;
            let need = bitns(head);
            if self.tokens_bitns < need {
                let deficit = need - self.tokens_bitns;
                let ns = deficit.div_ceil(rate.as_bps() as u128);
                return Some(now + SimDuration::from_nanos(ns.min(u64::MAX as u128) as u64));
            }
            if n >= max {
                // Capped with tokens still banked: ready again immediately.
                return Some(now);
            }
            match self.queue.dequeue(now, dropped) {
                Some(p) => {
                    // AQM may have dropped the peeked head and returned a
                    // different (possibly larger) packet; charge actual size.
                    let actual = bitns(p.size);
                    self.tokens_bitns = self.tokens_bitns.saturating_sub(actual);
                    self.delivered_pkts += 1;
                    self.delivered_bytes += p.size;
                    out.push(p);
                    n += 1;
                }
                None => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Ecn, FlowId, PktRef};

    /// One-packet view of [`Link::service_batch`], so the pacing tests can
    /// still observe each departure/wait decision individually.
    #[derive(Debug)]
    enum Service {
        Deliver(QueuedPkt),
        Wait(SimTime),
        Idle,
    }

    fn service(l: &mut Link, now: SimTime, dropped: &mut Vec<QueuedPkt>) -> Service {
        let mut out = Vec::new();
        let wait = l.service_batch(now, 1, &mut out, dropped);
        if let Some(p) = out.pop() {
            return Service::Deliver(p);
        }
        match wait {
            Some(t) => Service::Wait(t),
            None => Service::Idle,
        }
    }

    fn pkt(size: u64) -> QueuedPkt {
        QueuedPkt {
            pkt: PktRef(0),
            flow: FlowId(1),
            size: Bytes(size),
            ecn: Ecn::NotEct,
            enqueued_at: SimTime::ZERO,
        }
    }

    fn shaped_link(rate_mbps: u64, burst: u64, limit: u64) -> Link {
        LinkSpec {
            shaper: Shaper::TokenBucket {
                rate: BitRate::from_mbps(rate_mbps),
                burst: Bytes(burst),
            },
            delay: SimDuration::from_millis(1),
            queue: QueueSpec::DropTail {
                limit: Bytes(limit),
            },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
        .build(LinkId(0), NodeId(0), NodeId(1))
    }

    #[test]
    fn unshaped_link_releases_immediately() {
        let mut l =
            LinkSpec::lan(SimDuration::from_millis(2)).build(LinkId(0), NodeId(0), NodeId(1));
        l.offer(pkt(1500), SimTime::ZERO).unwrap();
        let mut dropped = vec![];
        match service(&mut l, SimTime::ZERO, &mut dropped) {
            Service::Deliver(p) => assert_eq!(p.size, Bytes(1500)),
            other => panic!("expected Deliver, got {other:?}"),
        }
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Idle
        ));
    }

    fn lan_with(queue: QueueSpec) -> Link {
        LinkSpec {
            queue,
            ..LinkSpec::lan(SimDuration::from_millis(2))
        }
        .build(LinkId(0), NodeId(0), NodeId(1))
    }

    #[test]
    fn cut_through_applies_drop_tail_admission_without_queueing() {
        let mut l = lan_with(QueueSpec::DropTail {
            limit: Bytes(1_000),
        });
        assert_eq!(l.cut_through(Bytes(1_000)), Some(true));
        assert_eq!(l.cut_through(Bytes(1_001)), Some(false), "over the limit");
        // Only the admitted packet counts as delivered; the queue never saw
        // either.
        assert_eq!(l.delivered_pkts(), 1);
        assert_eq!(l.delivered_bytes(), Bytes(1_000));
        assert_eq!(l.backlog(), Bytes::ZERO);
        let mut none = lan_with(QueueSpec::DropTailPkts { limit: 0 });
        assert_eq!(none.cut_through(Bytes(100)), Some(false), "no packet fits");
        assert_eq!(none.delivered_pkts(), 0);
    }

    #[test]
    fn cut_through_declines_every_state_that_can_queue() {
        // Shaped.
        let mut shaped = shaped_link(10, 2_000, 100_000);
        assert_eq!(shaped.cut_through(Bytes(1_000)), None);
        // Down: the offer itself is then refused.
        let mut down = lan_with(QueueSpec::DropTail {
            limit: Bytes(100_000),
        });
        down.set_up(false, SimTime::ZERO);
        assert_eq!(down.cut_through(Bytes(1_000)), None);
        assert!(down.offer(pkt(1_000), SimTime::ZERO).is_err());
        // An AQM, even idle and unshaped, keeps its dequeue-time control law.
        let mut codel = lan_with(QueueSpec::codel_default(Bytes(100_000)));
        assert_eq!(codel.cut_through(Bytes(1_000)), None);
        codel.offer(pkt(1_000), SimTime::ZERO).unwrap();
        let mut dropped = vec![];
        assert!(matches!(
            service(&mut codel, SimTime::ZERO, &mut dropped),
            Service::Deliver(_)
        ));
        // Unshaped mid-run with a wakeup still pending: offers queue unpumped
        // until it fires, so the next packet must queue behind them.
        let mut pending = shaped_link(10, 2_000, 100_000);
        pending.wakeup_scheduled = true;
        pending.set_rate(None, SimTime::ZERO);
        assert_eq!(pending.cut_through(Bytes(1_000)), None);
        pending.wakeup_scheduled = false;
        assert_eq!(pending.cut_through(Bytes(1_000)), Some(true));
        // A declined offer counts nothing.
        assert_eq!(pending.delivered_pkts(), 1);
        assert_eq!(shaped.delivered_pkts() + down.delivered_pkts(), 0);
    }

    #[test]
    fn token_bucket_paces_at_configured_rate() {
        // 12 Mb/s, minimal burst: after the initial bucket is spent, packets
        // must depart 1 ms apart (1500 B = 12 kbit at 12 Mb/s).
        let mut l = shaped_link(12, 2_000, 1_000_000);
        let mut dropped = vec![];
        for _ in 0..10 {
            l.offer(pkt(1500), SimTime::ZERO).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut departures = vec![];
        loop {
            match service(&mut l, now, &mut dropped) {
                Service::Deliver(_) => departures.push(now),
                Service::Wait(t) => now = t,
                Service::Idle => break,
            }
        }
        assert_eq!(departures.len(), 10);
        // First departs at t=0 from the initial full bucket (2000 B > 1500 B).
        assert_eq!(departures[0], SimTime::ZERO);
        // Steady state: inter-departure 1 ms.
        for w in departures.windows(2).skip(1) {
            let gap = w[1] - w[0];
            assert_eq!(gap, SimDuration::from_millis(1), "gap was {gap:?}");
        }
    }

    #[test]
    fn throughput_matches_rate_over_long_run() {
        let mut l = shaped_link(25, 2_000, 10_000_000);
        let mut dropped = vec![];
        let n = 5_000u64;
        for _ in 0..n {
            l.offer(pkt(1250), SimTime::ZERO).unwrap();
        }
        let mut now = SimTime::ZERO;
        let mut last = SimTime::ZERO;
        let mut count = 0u64;
        loop {
            match service(&mut l, now, &mut dropped) {
                Service::Deliver(_) => {
                    count += 1;
                    last = now;
                }
                Service::Wait(t) => now = t,
                Service::Idle => break,
            }
        }
        assert_eq!(count, n);
        // n packets of 1250 B = 10 kbit each at 25 Mb/s → 0.4 ms each; the
        // initial 2 kB bucket gives the train up to one burst of head start.
        let expect = SimDuration::from_secs_f64((n - 1) as f64 * 0.0004);
        let err = expect.as_secs_f64() - last.as_secs_f64();
        assert!(
            (0.0..0.00065).contains(&err),
            "finished at {last}, expected ~{expect}"
        );
    }

    #[test]
    fn burst_allows_back_to_back_departures() {
        // 10 kB burst lets ~6 MTU packets leave instantly.
        let mut l = shaped_link(10, 10_000, 1_000_000);
        let mut dropped = vec![];
        for _ in 0..6 {
            l.offer(pkt(1500), SimTime::ZERO).unwrap();
        }
        let mut instant = 0;
        while let Service::Deliver(_) = service(&mut l, SimTime::ZERO, &mut dropped) {
            instant += 1;
        }
        assert_eq!(instant, 6);
    }

    #[test]
    fn queue_overflow_drops() {
        let mut l = shaped_link(1, 2_000, 3_000);
        assert!(l.offer(pkt(1500), SimTime::ZERO).is_ok());
        assert!(l.offer(pkt(1500), SimTime::ZERO).is_ok());
        assert!(l.offer(pkt(1500), SimTime::ZERO).is_err());
        assert_eq!(l.backlog(), Bytes(3_000));
    }

    #[test]
    fn tokens_cap_at_burst() {
        let mut l = shaped_link(10, 2_000, 100_000);
        let mut dropped = vec![];
        // Drain the initial bucket.
        l.offer(pkt(2000), SimTime::ZERO).unwrap();
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Deliver(_)
        ));
        // Wait a long time: bucket refills but caps at burst, so only one
        // 2000-B packet can leave instantly.
        let later = SimTime::from_secs(100);
        l.offer(pkt(2000), later).unwrap();
        l.offer(pkt(2000), later).unwrap();
        assert!(matches!(
            service(&mut l, later, &mut dropped),
            Service::Deliver(_)
        ));
        match service(&mut l, later, &mut dropped) {
            Service::Wait(t) => {
                // 2000 B = 16 kbit at 10 Mb/s = 1.6 ms.
                assert_eq!(t - later, SimDuration::from_micros(1600));
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn burst_floor_prevents_stalls() {
        // A burst below one MTU would deadlock; the builder clamps it.
        let l = LinkSpec {
            shaper: Shaper::TokenBucket {
                rate: BitRate::from_mbps(1),
                burst: Bytes(10),
            },
            delay: SimDuration::ZERO,
            queue: QueueSpec::DropTail {
                limit: Bytes(10_000),
            },
            jitter: SimDuration::ZERO,
            loss_prob: 0.0,
            dup_prob: 0.0,
        }
        .build(LinkId(0), NodeId(0), NodeId(1));
        // Clamped to 2 kB: a 1500-B packet can depart.
        assert_eq!(l.burst_bitns, 2_000 * 8 * 1_000_000_000);
    }

    #[test]
    fn re_rate_conserves_tokens() {
        // 10 Mb/s, 2 kB burst. Spend the whole initial bucket at t=0, then
        // let 800 us of credit accrue (10 Mb/s x 800 us = 1000 B) before
        // stepping the rate to 20 Mb/s.
        let mut l = shaped_link(10, 2_000, 100_000);
        let mut dropped = vec![];
        l.offer(pkt(2000), SimTime::ZERO).unwrap();
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Deliver(_)
        ));
        let step = SimTime::from_nanos(800_000);
        l.set_rate(Some(BitRate::from_mbps(20)), step);
        l.offer(pkt(1500), step).unwrap();
        match service(&mut l, step, &mut dropped) {
            Service::Wait(t) => {
                // 1500 B needs 12000 bits; 8000 were banked at the old rate
                // and must survive the change; the 4000-bit deficit at the
                // new 20 Mb/s rate is exactly 200 us. A zeroed bucket would
                // wait 600 us; a forged full burst would deliver instantly.
                assert_eq!(t - step, SimDuration::from_micros(200));
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn re_rate_does_not_forge_burst() {
        let mut l = shaped_link(10, 2_000, 100_000);
        let mut dropped = vec![];
        l.offer(pkt(2000), SimTime::ZERO).unwrap();
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Deliver(_)
        ));
        // Bucket is empty; raising the rate at the same instant must not
        // mint credit out of thin air.
        l.set_rate(Some(BitRate::from_mbps(100)), SimTime::ZERO);
        l.offer(pkt(1500), SimTime::ZERO).unwrap();
        match service(&mut l, SimTime::ZERO, &mut dropped) {
            Service::Wait(t) => {
                // 12000 bits at 100 Mb/s = 120 us from an empty bucket.
                assert_eq!(t.as_nanos(), 120_000);
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn re_rate_clamps_banked_tokens_to_new_burst() {
        // Bank a full 10 kB bucket, then shrink burst via a fresh spec?
        // Burst is fixed per link; instead check the Unshaped->shaped path:
        // the bucket starts empty (nothing banked while unshaped), so the
        // first packet after shaping begins must wait for serialization.
        let mut l =
            LinkSpec::lan(SimDuration::from_millis(1)).build(LinkId(0), NodeId(0), NodeId(1));
        let now = SimTime::from_secs(5);
        l.set_rate(Some(BitRate::from_mbps(10)), now);
        l.offer(pkt(1500), now).unwrap();
        let mut dropped = vec![];
        match service(&mut l, now, &mut dropped) {
            Service::Wait(t) => assert_eq!(t - now, SimDuration::from_micros(1200)),
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn outage_parks_queue_and_rejects_offers() {
        let mut l = shaped_link(10, 2_000, 100_000);
        let mut dropped = vec![];
        l.offer(pkt(1000), SimTime::ZERO).unwrap();
        l.set_up(false, SimTime::ZERO);
        assert!(!l.is_up());
        // New arrivals bounce; the parked packet stays put.
        assert!(l.offer(pkt(500), SimTime::ZERO).is_err());
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Idle
        ));
        assert_eq!(l.backlog(), Bytes(1000));
        // Downtime earns no tokens: after 10 s dark, the parked packet
        // still departs on the pre-outage balance (full initial bucket),
        // but nothing beyond the burst is available.
        let later = SimTime::from_secs(10);
        l.set_up(true, later);
        assert!(l.is_up());
        match service(&mut l, later, &mut dropped) {
            Service::Deliver(p) => assert_eq!(p.size, Bytes(1000)),
            other => panic!("expected Deliver, got {other:?}"),
        }
        // 2000 B burst minus the 1000 B just spent leaves 1000 B: a
        // 1500-B packet must wait 500 B x 8 / 10 Mb/s = 400 us.
        l.offer(pkt(1500), later).unwrap();
        match service(&mut l, later, &mut dropped) {
            Service::Wait(t) => assert_eq!(t - later, SimDuration::from_micros(400)),
            other => panic!("expected Wait, got {other:?}"),
        }
    }

    #[test]
    fn wait_time_is_exact() {
        let mut l = shaped_link(15, 2_000, 100_000);
        let mut dropped = vec![];
        l.offer(pkt(2000), SimTime::ZERO).unwrap();
        assert!(matches!(
            service(&mut l, SimTime::ZERO, &mut dropped),
            Service::Deliver(_)
        ));
        l.offer(pkt(1500), SimTime::ZERO).unwrap();
        match service(&mut l, SimTime::ZERO, &mut dropped) {
            Service::Wait(t) => {
                // Need 1500*8 = 12000 bits at 15 Mb/s = 800 us exactly.
                assert_eq!(t.as_nanos(), 800_000);
                // Serving again at exactly t must deliver.
                assert!(matches!(
                    service(&mut l, t, &mut dropped),
                    Service::Deliver(_)
                ));
            }
            other => panic!("expected Wait, got {other:?}"),
        }
    }
}
