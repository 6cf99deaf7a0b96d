//! Bottleneck queue disciplines.
//!
//! The paper's router ran a byte-limited drop-tail queue (`tc tbf ... limit
//! <bytes>`), sized at 0.5x, 2x, or 7x the bandwidth-delay product
//! ([`DropTailQueue`]). The paper's future-work section asks how the systems
//! would behave under Active Queue Management; [`CoDelQueue`] (RFC 8289) and
//! [`FqCoDelQueue`] (RFC 8290) answer that in `gsrepro ablation`'s AQM
//! sweep and the 3-D AQM scorecard.
//!
//! Queues never see full [`crate::wire::Packet`]s: packet storage lives in
//! the network's [`crate::wire::PacketPool`] and disciplines shuffle
//! [`QueuedPkt`] entries — the pool handle plus the few header fields a
//! discipline actually consults (size, flow, enqueue time, ECN codepoint).
//! That keeps every enqueue/dequeue a 32-byte move on the simulator's
//! hottest path.

use gsrepro_simcore::{Bytes, SimDuration, SimTime};
use std::collections::VecDeque;

use crate::wire::{Ecn, FlowId, PktRef};

/// What a queue holds per packet: the pool handle and the header fields
/// disciplines inspect. `Copy`, 32 bytes — moving one is four registers.
#[derive(Clone, Copy, Debug)]
pub struct QueuedPkt {
    /// Handle to the full packet in the network's pool.
    pub pkt: PktRef,
    /// Wire size (for byte limits and token accounting).
    pub size: Bytes,
    /// Flow (for FQ hashing and drop accounting).
    pub flow: FlowId,
    /// ECN codepoint, copied from the packet at enqueue. An AQM that
    /// decides to drop an [`Ecn::Ect`] entry rewrites this to [`Ecn::Ce`]
    /// and delivers it instead (RFC 3168 § 5); the network propagates the
    /// mark back into the pooled packet and accounts it.
    pub ecn: Ecn,
    /// Time this entry entered the queue it currently occupies; set by the
    /// discipline on enqueue, read by CoDel as the sojourn clock.
    pub enqueued_at: SimTime,
}

/// Declarative queue configuration, used by topology builders.
#[derive(Clone, Debug)]
pub enum QueueSpec {
    /// Byte-limited FIFO tail-drop — the paper's router configuration.
    DropTail {
        /// Maximum queued bytes (the `tbf limit`).
        limit: Bytes,
    },
    /// CoDel (RFC 8289) with a byte-limited backstop and the RFC's
    /// parameters.
    CoDel {
        /// Hard byte limit (CoDel still needs a finite buffer).
        limit: Bytes,
    },
    /// FQ-CoDel (RFC 8290): per-flow queues with DRR and CoDel each, with
    /// the RFC's parameters.
    FqCoDel {
        /// Hard byte limit across all flow queues.
        limit: Bytes,
    },
}

/// CoDel sojourn-time target (RFC 8289 default).
const TARGET: SimDuration = SimDuration::from_millis(5);
/// CoDel sliding interval (RFC 8289 default).
const INTERVAL: SimDuration = SimDuration::from_millis(100);
/// CoDel's below-target backlog guard, "one maximum packet's worth"
/// (RFC 8289 § 4.2): a full Ethernet frame, matching the testbed's
/// 1500-byte paths.
const MTU: Bytes = Bytes(1514);
/// FQ-CoDel's DRR quantum (RFC 8290 default).
const QUANTUM: Bytes = Bytes(1514);

impl QueueSpec {
    /// CoDel with a `limit`-byte backstop.
    pub fn codel_default(limit: Bytes) -> Self {
        QueueSpec::CoDel { limit }
    }

    /// FQ-CoDel with a shared `limit`-byte backstop.
    pub fn fq_codel_default(limit: Bytes) -> Self {
        QueueSpec::FqCoDel { limit }
    }

    /// Instantiate the queue.
    pub fn build(&self) -> Discipline {
        match *self {
            QueueSpec::DropTail { limit } => Discipline::DropTail(DropTailQueue::bytes(limit)),
            QueueSpec::CoDel { limit } => Discipline::CoDel(CoDelQueue::new(limit)),
            QueueSpec::FqCoDel { limit } => Discipline::FqCoDel(FqCoDelQueue::new(limit)),
        }
    }
}

/// A buffering/drop policy for a link: one of the concrete disciplines,
/// dispatched by `match` instead of vtable.
///
/// Queues never shape traffic — rate limiting is the link's token bucket —
/// they only decide what to hold and what to drop. Entries dropped at
/// enqueue are returned in `Err`; entries dropped at *dequeue* time (CoDel
/// does this) are pushed into `dropped`. The caller owns drop accounting
/// and must release each dropped entry's pool slot.
///
/// Links hold this enum rather than a boxed trait object: every packet pays
/// the enqueue/dequeue call, and with a closed set of disciplines a direct
/// branch (almost always predicted — a link's discipline never changes)
/// beats an indirect call the CPU cannot see through.
pub enum Discipline {
    /// Byte-limited FIFO tail-drop.
    DropTail(DropTailQueue),
    /// CoDel (RFC 8289).
    CoDel(CoDelQueue),
    /// FQ-CoDel (RFC 8290).
    FqCoDel(FqCoDelQueue),
}

macro_rules! dispatch {
    ($self:ident, $q:ident => $body:expr) => {
        match $self {
            Discipline::DropTail($q) => $body,
            Discipline::CoDel($q) => $body,
            Discipline::FqCoDel($q) => $body,
        }
    };
}

impl Discipline {
    /// Offer an entry. `Err(item)` means it was dropped (tail drop or
    /// overflow). The discipline stamps `enqueued_at = now` on acceptance.
    #[inline]
    pub fn enqueue(&mut self, item: QueuedPkt, now: SimTime) -> Result<(), QueuedPkt> {
        dispatch!(self, q => q.enqueue(item, now))
    }

    /// Take the next entry to transmit. AQM disciplines may drop entries
    /// here; they are appended to `dropped`.
    #[inline]
    pub fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<QueuedPkt>) -> Option<QueuedPkt> {
        dispatch!(self, q => q.dequeue(now, dropped))
    }

    /// Wire size of the entry `dequeue` would return, without removing it.
    /// AQM head drops may make this an over-estimate; the link only uses it
    /// to size token-bucket waits, and re-checks after the actual dequeue.
    #[inline]
    pub fn peek_size(&self) -> Option<Bytes> {
        dispatch!(self, q => q.peek_size())
    }

    /// Current occupancy in bytes.
    #[inline]
    pub fn len_bytes(&self) -> Bytes {
        dispatch!(self, q => q.len_bytes())
    }

    /// Current occupancy in packets.
    #[inline]
    pub fn len_pkts(&self) -> usize {
        dispatch!(self, q => q.len_pkts())
    }

    /// Configured capacity in bytes. Every discipline is byte-limited, so
    /// this is always `Some`; the repo benchmark reads the `Option`.
    #[inline]
    pub fn capacity_bytes(&self) -> Option<Bytes> {
        dispatch!(self, q => q.capacity_bytes())
    }

    /// Change the byte limit at runtime (emulating `tc qdisc change ...
    /// limit`). Overflow policy on a shrink: most-recently-queued entries
    /// are evicted first (tail drop — the packets a smaller buffer would
    /// never have admitted) until the backlog fits; evictions are appended
    /// to `dropped` and the caller owns their pool slots.
    pub fn set_byte_limit(&mut self, limit: Bytes, dropped: &mut Vec<QueuedPkt>) {
        dispatch!(self, q => q.set_byte_limit(limit, dropped))
    }

    /// For the link's cut-through: when this is a drop-tail holding
    /// nothing, whether [`Discipline::enqueue`] would admit a `size`-byte
    /// packet; `None` for an AQM or any backlog.
    #[inline]
    pub(crate) fn empty_droptail_admits(&self, size: Bytes) -> Option<bool> {
        match self {
            Discipline::DropTail(q) if q.q.is_empty() => Some(size <= q.byte_limit),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Drop-tail
// ---------------------------------------------------------------------------

/// FIFO tail-drop queue, limited by bytes (like `tbf limit`).
pub struct DropTailQueue {
    q: VecDeque<QueuedPkt>,
    bytes: Bytes,
    byte_limit: Bytes,
}

impl DropTailQueue {
    /// Byte-limited drop-tail. A packet is accepted only if it fits entirely
    /// within `limit` — matching `tbf`, which drops when the backlog would
    /// exceed the configured limit.
    pub fn bytes(limit: Bytes) -> Self {
        DropTailQueue {
            q: VecDeque::new(),
            bytes: Bytes::ZERO,
            byte_limit: limit,
        }
    }

    fn enqueue(&mut self, mut item: QueuedPkt, now: SimTime) -> Result<(), QueuedPkt> {
        if self.bytes + item.size > self.byte_limit {
            return Err(item);
        }
        item.enqueued_at = now;
        self.bytes += item.size;
        self.q.push_back(item);
        Ok(())
    }

    fn dequeue(&mut self, _now: SimTime, _dropped: &mut Vec<QueuedPkt>) -> Option<QueuedPkt> {
        let item = self.q.pop_front()?;
        self.bytes -= item.size;
        Some(item)
    }

    fn peek_size(&self) -> Option<Bytes> {
        self.q.front().map(|p| p.size)
    }

    fn len_bytes(&self) -> Bytes {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.q.len()
    }

    fn capacity_bytes(&self) -> Option<Bytes> {
        Some(self.byte_limit)
    }

    fn set_byte_limit(&mut self, limit: Bytes, dropped: &mut Vec<QueuedPkt>) {
        self.byte_limit = limit;
        while self.bytes > limit {
            let item = self.q.pop_back().expect("backlog implies entries");
            self.bytes -= item.size;
            dropped.push(item);
        }
    }
}

// ---------------------------------------------------------------------------
// CoDel (RFC 8289)
// ---------------------------------------------------------------------------

/// Controlled-delay AQM (RFC 8289).
///
/// Tracks packet sojourn time; once sojourn exceeds the 5 ms target
/// continuously for the 100 ms interval, CoDel enters the dropping state and
/// drops head packets at intervals shrinking with the square root of the
/// drop count. ECN-capable packets ([`Ecn::Ect`]) are CE-marked and
/// delivered instead of dropped, with the control law advancing exactly as
/// if they had been dropped (RFC 8289 § 4.1, as in Linux `codel_impl.h`).
pub struct CoDelQueue {
    q: VecDeque<QueuedPkt>,
    bytes: Bytes,
    limit: Bytes,

    // Control-law state, names per RFC 8289 pseudocode.
    first_above_time: Option<SimTime>,
    drop_next: SimTime,
    count: u32,
    last_count: u32,
    dropping: bool,
}

impl CoDelQueue {
    /// New CoDel queue with a hard byte limit.
    pub fn new(limit: Bytes) -> Self {
        CoDelQueue {
            q: VecDeque::new(),
            bytes: Bytes::ZERO,
            limit,
            first_above_time: None,
            drop_next: SimTime::ZERO,
            count: 0,
            last_count: 0,
            dropping: false,
        }
    }

    fn control_law(&self, t: SimTime) -> SimTime {
        // interval / sqrt(count)
        let denom = (self.count.max(1) as f64).sqrt();
        t + SimDuration::from_secs_f64(INTERVAL.as_secs_f64() / denom)
    }

    /// Pop the head and decide whether it should be dropped (sojourn above
    /// target). Returns `(entry, ok_to_deliver)`.
    fn do_dequeue(&mut self, now: SimTime) -> Option<(QueuedPkt, bool)> {
        let item = self.q.pop_front()?;
        self.bytes -= item.size;
        let sojourn = now.saturating_since(item.enqueued_at);
        if sojourn < TARGET || self.bytes < MTU {
            // Went below target (or queue nearly empty): reset the clock.
            self.first_above_time = None;
            Some((item, true))
        } else {
            let fat = *self.first_above_time.get_or_insert(now + INTERVAL);
            Some((item, now < fat))
        }
    }

    fn enqueue(&mut self, mut item: QueuedPkt, now: SimTime) -> Result<(), QueuedPkt> {
        if self.bytes + item.size > self.limit {
            return Err(item);
        }
        item.enqueued_at = now;
        self.bytes += item.size;
        self.q.push_back(item);
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<QueuedPkt>) -> Option<QueuedPkt> {
        let (mut item, mut ok) = self.do_dequeue(now)?;

        if self.dropping {
            if ok {
                self.dropping = false;
            } else {
                while self.dropping && now >= self.drop_next {
                    self.count += 1;
                    if item.ecn == Ecn::Ect {
                        // ECN-capable: mark CE and deliver; the control law
                        // advances exactly as for a drop, so marked and
                        // dropped trajectories share the same schedule.
                        item.ecn = Ecn::Ce;
                        self.drop_next = self.control_law(self.drop_next);
                        return Some(item);
                    }
                    dropped.push(item);
                    match self.do_dequeue(now) {
                        Some((p, k)) => {
                            item = p;
                            ok = k;
                            if ok {
                                self.dropping = false;
                            } else {
                                self.drop_next = self.control_law(self.drop_next);
                            }
                        }
                        None => {
                            self.dropping = false;
                            return None;
                        }
                    }
                }
            }
        } else if !ok {
            // Enter dropping state: drop (or CE-mark) this packet.
            self.dropping = true;
            // RFC: if we recently dropped, resume from a higher count.
            let delta = self.count.saturating_sub(self.last_count);
            self.count = if delta > 1 && now.saturating_since(self.drop_next) < INTERVAL * 16 {
                delta
            } else {
                1
            };
            self.drop_next = self.control_law(now);
            self.last_count = self.count;
            if item.ecn == Ecn::Ect {
                item.ecn = Ecn::Ce;
            } else {
                dropped.push(item);
                let (p, _) = self.do_dequeue(now)?;
                item = p;
            }
        }
        Some(item)
    }

    fn peek_size(&self) -> Option<Bytes> {
        self.q.front().map(|p| p.size)
    }

    fn len_bytes(&self) -> Bytes {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.q.len()
    }

    fn capacity_bytes(&self) -> Option<Bytes> {
        Some(self.limit)
    }

    fn set_byte_limit(&mut self, limit: Bytes, dropped: &mut Vec<QueuedPkt>) {
        self.limit = limit;
        while self.bytes > limit {
            let item = self.q.pop_back().expect("backlog implies entries");
            self.bytes -= item.size;
            dropped.push(item);
        }
    }
}

// ---------------------------------------------------------------------------
// FQ-CoDel (RFC 8290)
// ---------------------------------------------------------------------------

const FQ_BUCKETS: usize = 64;

struct FqFlow {
    codel: CoDelQueue,
    deficit: i64,
}

/// Bit `b` set ⇔ bucket `b` is on the corresponding DRR list. With exactly
/// 64 buckets the membership test the dequeue loop runs per packet is one
/// AND against a register instead of two `Vec<bool>` loads.
type BucketMask = u64;

/// Flow-queuing CoDel (RFC 8290): packets are hashed by flow into one of 64
/// sub-queues, serviced by deficit round-robin with new flows prioritized,
/// each sub-queue running its own CoDel.
pub struct FqCoDelQueue {
    flows: Vec<FqFlow>,
    new_flows: VecDeque<usize>,
    old_flows: VecDeque<usize>,
    in_new: BucketMask,
    in_old: BucketMask,
    bytes: Bytes,
    limit: Bytes,
    pkts: usize,
}

impl FqCoDelQueue {
    /// New FQ-CoDel queue. The shared byte limit is enforced here at
    /// admission; sub-queue CoDels get an unlimited backstop so no
    /// per-flow copy of the shared limit can drift out of sync with it
    /// (per-flow byte accounting stays purely aggregate).
    pub fn new(limit: Bytes) -> Self {
        let flows = (0..FQ_BUCKETS)
            .map(|_| FqFlow {
                codel: CoDelQueue::new(Bytes(u64::MAX)),
                deficit: 0,
            })
            .collect();
        FqCoDelQueue {
            flows,
            new_flows: VecDeque::new(),
            old_flows: VecDeque::new(),
            in_new: 0,
            in_old: 0,
            bytes: Bytes::ZERO,
            limit,
            pkts: 0,
        }
    }

    fn bucket(flow: FlowId) -> usize {
        // Multiplicative hash; flows in the testbed are few, collisions are
        // acceptable (RFC 8290 uses a similar stochastic hash).
        (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) as usize % FQ_BUCKETS
    }

    fn enqueue(&mut self, item: QueuedPkt, now: SimTime) -> Result<(), QueuedPkt> {
        if self.bytes + item.size > self.limit {
            return Err(item);
        }
        let b = Self::bucket(item.flow);
        let size = item.size;
        self.flows[b].codel.enqueue(item, now)?;
        self.bytes += size;
        self.pkts += 1;
        if (self.in_new | self.in_old) & (1 << b) == 0 {
            self.in_new |= 1 << b;
            self.flows[b].deficit = QUANTUM.as_u64() as i64;
            self.new_flows.push_back(b);
        }
        Ok(())
    }

    fn dequeue(&mut self, now: SimTime, dropped: &mut Vec<QueuedPkt>) -> Option<QueuedPkt> {
        loop {
            // Pick the next flow: new list first, then old list.
            let (b, from_new) = if let Some(&b) = self.new_flows.front() {
                (b, true)
            } else if let Some(&b) = self.old_flows.front() {
                (b, false)
            } else {
                return None;
            };

            if self.flows[b].deficit <= 0 {
                // Refill and rotate to the old list.
                self.flows[b].deficit += QUANTUM.as_u64() as i64;
                if from_new {
                    self.new_flows.pop_front();
                    self.in_new &= !(1 << b);
                } else {
                    self.old_flows.pop_front();
                    self.in_old &= !(1 << b);
                }
                self.old_flows.push_back(b);
                self.in_old |= 1 << b;
                continue;
            }

            let before = dropped.len();
            match self.flows[b].codel.dequeue(now, dropped) {
                Some(item) => {
                    // Account for CoDel's internal drops.
                    for d in &dropped[before..] {
                        self.bytes -= d.size;
                        self.pkts -= 1;
                    }
                    self.bytes -= item.size;
                    self.pkts -= 1;
                    self.flows[b].deficit -= item.size.as_u64() as i64;
                    return Some(item);
                }
                None => {
                    for d in &dropped[before..] {
                        self.bytes -= d.size;
                        self.pkts -= 1;
                    }
                    // Queue empty: remove from its list. A new flow that
                    // empties leaves the lists entirely (RFC: becomes old,
                    // but with no backlog removal is the common shortcut).
                    if from_new {
                        self.new_flows.pop_front();
                        self.in_new &= !(1 << b);
                    } else {
                        self.old_flows.pop_front();
                        self.in_old &= !(1 << b);
                    }
                }
            }
        }
    }

    fn peek_size(&self) -> Option<Bytes> {
        // Exact peek across DRR is intrusive; report the head of the next
        // non-empty candidate list. Links use this only to size token waits.
        for &b in self.new_flows.iter().chain(self.old_flows.iter()) {
            if let Some(s) = self.flows[b].codel.peek_size() {
                return Some(s);
            }
        }
        None
    }

    fn len_bytes(&self) -> Bytes {
        self.bytes
    }

    fn len_pkts(&self) -> usize {
        self.pkts
    }

    fn capacity_bytes(&self) -> Option<Bytes> {
        Some(self.limit)
    }

    fn set_byte_limit(&mut self, limit: Bytes, dropped: &mut Vec<QueuedPkt>) {
        // The shared limit lives only here: handing every sub-flow CoDel a
        // full copy of it (the old behaviour) let per-flow backstops shadow
        // the aggregate and drift from it across scenario steps. Admission
        // is the aggregate check in `enqueue`; sub-queues stay unlimited.
        self.limit = limit;
        while self.bytes > limit {
            // Evict from the tail of the fattest flow (RFC 8290 §4.1.2
            // drops from the biggest queue; tail-first matches the other
            // disciplines' shrink policy).
            let b = self
                .flows
                .iter()
                .enumerate()
                .max_by_key(|(_, f)| f.codel.bytes.as_u64())
                .map(|(i, _)| i)
                .expect("FQ_BUCKETS > 0");
            let item = self.flows[b]
                .codel
                .q
                .pop_back()
                .expect("fattest flow has entries while backlog > 0");
            self.flows[b].codel.bytes -= item.size;
            self.bytes -= item.size;
            self.pkts -= 1;
            dropped.push(item);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pkt(flow: u32, size: u64) -> QueuedPkt {
        qpkt(0, flow, size)
    }

    /// `id` goes into the pool handle, which queues carry opaquely —
    /// handy as an identity check in FIFO tests.
    fn qpkt(id: u32, flow: u32, size: u64) -> QueuedPkt {
        QueuedPkt {
            pkt: PktRef(id),
            flow: FlowId(flow),
            size: Bytes(size),
            ecn: Ecn::NotEct,
            enqueued_at: SimTime::ZERO,
        }
    }

    fn ect_pkt(flow: u32, size: u64) -> QueuedPkt {
        QueuedPkt {
            ecn: Ecn::Ect,
            ..pkt(flow, size)
        }
    }

    #[test]
    fn drop_tail_respects_byte_limit() {
        let mut q = DropTailQueue::bytes(Bytes(3000));
        let now = SimTime::ZERO;
        assert!(q.enqueue(pkt(1, 1500), now).is_ok());
        assert!(q.enqueue(pkt(1, 1500), now).is_ok());
        // Third packet would exceed 3000 bytes.
        assert!(q.enqueue(pkt(1, 1500), now).is_err());
        assert_eq!(q.len_bytes(), Bytes(3000));
        assert_eq!(q.len_pkts(), 2);
        // Small packet still refused (3000 + 1 > 3000).
        assert!(q.enqueue(pkt(1, 1), now).is_err());
        let mut dropped = vec![];
        q.dequeue(now, &mut dropped);
        assert!(q.enqueue(pkt(1, 1500), now).is_ok());
        assert!(dropped.is_empty());
    }

    #[test]
    fn drop_tail_is_fifo() {
        let mut q = DropTailQueue::bytes(Bytes(10_000));
        for i in 0..5u32 {
            q.enqueue(qpkt(i, 1, 100), SimTime::ZERO).unwrap();
        }
        let mut dropped = vec![];
        for i in 0..5u32 {
            assert_eq!(
                q.dequeue(SimTime::ZERO, &mut dropped).unwrap().pkt,
                PktRef(i)
            );
        }
        assert!(q.dequeue(SimTime::ZERO, &mut dropped).is_none());
    }

    #[test]
    fn enqueue_stamps_sojourn_clock() {
        let mut q = DropTailQueue::bytes(Bytes(10_000));
        let mut item = pkt(1, 100);
        item.enqueued_at = SimTime::from_secs(99); // stale value must be overwritten
        q.enqueue(item, SimTime::from_millis(3)).unwrap();
        let mut dropped = vec![];
        let out = q.dequeue(SimTime::from_millis(3), &mut dropped).unwrap();
        assert_eq!(out.enqueued_at, SimTime::from_millis(3));
    }

    #[test]
    fn codel_passes_packets_below_target() {
        let mut q = CoDelQueue::new(Bytes(100_000));
        let mut dropped = vec![];
        // Packets that sit for < 5 ms are never dropped.
        for i in 0..100 {
            let now = SimTime::from_millis(i * 10);
            q.enqueue(pkt(1, 1000), now).unwrap();
            let out = q.dequeue(now + SimDuration::from_millis(1), &mut dropped);
            assert!(out.is_some());
        }
        assert!(dropped.is_empty());
    }

    #[test]
    fn codel_drops_under_persistent_delay() {
        let mut q = CoDelQueue::new(Bytes(1_000_000));
        let mut dropped = vec![];
        // Fill a standing queue, then dequeue slowly so sojourn stays high.
        let mut now;
        let mut delivered = 0;
        for step in 0..2_000u64 {
            now = SimTime::from_millis(step);
            q.enqueue(pkt(1, 1000), now).unwrap();
            if step % 2 == 0 {
                // Drain at half the arrival rate → persistent backlog.
                if q.dequeue(now, &mut dropped).is_some() {
                    delivered += 1;
                }
            }
        }
        assert!(delivered > 0);
        assert!(
            !dropped.is_empty(),
            "CoDel must drop under persistent standing queue"
        );
    }

    /// Drive a CoDel through a persistent standing queue of `size`-byte
    /// packets (arrivals at twice the drain rate), returning
    /// `(delivered, dropped, ce_marked)`.
    fn run_standing_queue(mut q: CoDelQueue, size: u64, ecn: Ecn) -> (u64, usize, u64) {
        let mut dropped = vec![];
        let mut delivered = 0u64;
        let mut marked = 0u64;
        for step in 0..2_000u64 {
            let now = SimTime::from_millis(step);
            let mut item = pkt(1, size);
            item.ecn = ecn;
            q.enqueue(item, now).unwrap();
            if step % 2 == 0 {
                if let Some(out) = q.dequeue(now, &mut dropped) {
                    delivered += 1;
                    if out.ecn == Ecn::Ce {
                        marked += 1;
                    }
                }
            }
        }
        (delivered, dropped.len(), marked)
    }

    #[test]
    fn codel_marks_ect_instead_of_dropping() {
        let mk = || CoDelQueue::new(Bytes(1_000_000));
        let (_, drops, marks) = run_standing_queue(mk(), 1000, Ecn::NotEct);
        assert!(drops > 0, "non-ECT traffic must be dropped");
        assert_eq!(marks, 0);
        let (_, e_drops, e_marks) = run_standing_queue(mk(), 1000, Ecn::Ect);
        assert_eq!(e_drops, 0, "ECT traffic is never dropped by the AQM");
        assert!(e_marks > 0, "ECT traffic is CE-marked instead");
        // Mark-instead-of-drop keeps the control-law schedule: the signal
        // count is the same order as the drop count (marked packets are
        // delivered, so the drain pattern differs slightly).
        assert!(
            e_marks as usize >= drops / 2,
            "marks {e_marks} vs drops {drops}"
        );
    }

    #[test]
    fn codel_mtu_guard_gates_dropping_at_small_mtus() {
        // A standing queue of 300-byte packets that never exceeds ~1200 B
        // backlog: sojourn sits far above target, but the 1514-byte guard
        // reads the queue as "nearly empty" and dropping never engages.
        let mut q = CoDelQueue::new(Bytes(100_000));
        let mut dropped = vec![];
        // Prime a 3-packet backlog, then 1-in-1-out forever: each packet
        // waits ~3 service intervals (30 ms >> 5 ms target).
        for _ in 0..3 {
            q.enqueue(pkt(1, 300), SimTime::ZERO).unwrap();
        }
        for step in 0..300u64 {
            let now = SimTime::from_millis(step * 10);
            q.enqueue(pkt(1, 300), now).unwrap();
            q.dequeue(now, &mut dropped);
        }
        assert_eq!(
            dropped.len(),
            0,
            "Ethernet-MTU guard treats a sub-1514 B backlog as empty"
        );
    }

    #[test]
    fn fq_codel_isolates_flows() {
        let mut q = FqCoDelQueue::new(Bytes(1_000_000));
        let now = SimTime::ZERO;
        // Flow 1 floods; flow 2 sends one packet.
        for _ in 0..50 {
            q.enqueue(pkt(1, 1000), now).unwrap();
        }
        q.enqueue(pkt(2, 1000), now).unwrap();
        let mut dropped = vec![];
        // Flow 2's packet must come out within the first few dequeues
        // (DRR round-robin), not after all 50 of flow 1's.
        let mut seen_flow2_at = None;
        for i in 0..51 {
            let p = q.dequeue(now, &mut dropped).unwrap();
            if p.flow == FlowId(2) {
                seen_flow2_at = Some(i);
                break;
            }
        }
        let pos = seen_flow2_at.expect("flow 2 packet never dequeued");
        assert!(pos <= 2, "flow 2 should be scheduled early, was at {pos}");
    }

    #[test]
    fn fq_codel_byte_accounting_with_drops() {
        let mut q = FqCoDelQueue::new(Bytes(1_000_000));
        let mut dropped = vec![];
        let mut now = SimTime::ZERO;
        for step in 0..1_000u64 {
            now = SimTime::from_millis(step);
            q.enqueue(pkt(1, 1000), now).unwrap();
            if step % 3 == 0 {
                q.dequeue(now, &mut dropped);
            }
        }
        // Drain fully; accounting must come back to exactly zero.
        while q.dequeue(now, &mut dropped).is_some() {}
        assert_eq!(q.len_bytes(), Bytes::ZERO);
        assert_eq!(q.len_pkts(), 0);
    }

    #[test]
    fn fq_codel_marks_ect_instead_of_dropping() {
        let mut q = FqCoDelQueue::new(Bytes(1_000_000));
        let mut dropped = vec![];
        let mut marked = 0u64;
        let mut now = SimTime::ZERO;
        for step in 0..1_000u64 {
            now = SimTime::from_millis(step);
            q.enqueue(ect_pkt(1, 1000), now).unwrap();
            if step % 3 == 0 {
                if let Some(out) = q.dequeue(now, &mut dropped) {
                    if out.ecn == Ecn::Ce {
                        marked += 1;
                    }
                }
            }
        }
        while let Some(out) = q.dequeue(now, &mut dropped) {
            if out.ecn == Ecn::Ce {
                marked += 1;
            }
        }
        assert_eq!(dropped.len(), 0, "ECT flood must not be AQM-dropped");
        assert!(marked > 0, "persistent delay must CE-mark ECT packets");
        assert_eq!(q.len_bytes(), Bytes::ZERO);
        assert_eq!(q.len_pkts(), 0);
    }

    #[test]
    fn fq_codel_shrink_keeps_shared_limit_aggregate() {
        // Regression for set_byte_limit handing every sub-flow the full
        // shared limit: the shared limit must live only at the aggregate,
        // shrink evictions must come from the fattest flow, and per-bucket
        // accounting must stay exact so admission after the step is still
        // governed purely by the shared limit.
        let mut q = FqCoDelQueue::new(Bytes(100_000));
        // Flow 1 queues 8 kB, flow 2 queues 2 kB (distinct buckets).
        for i in 0..8u32 {
            q.enqueue(qpkt(i, 1, 1000), SimTime::ZERO).unwrap();
        }
        for i in 8..10u32 {
            q.enqueue(qpkt(i, 2, 1000), SimTime::ZERO).unwrap();
        }
        let mut dropped = vec![];
        q.set_byte_limit(Bytes(6000), &mut dropped);
        assert_eq!(q.capacity_bytes(), Some(Bytes(6000)));
        assert_eq!(q.len_bytes(), Bytes(6000));
        assert_eq!(q.len_pkts(), 6);
        // All four evictions come from flow 1 — the fattest — tail first.
        let evicted: Vec<u32> = dropped.iter().map(|p| p.pkt.0).collect();
        assert_eq!(evicted, vec![7, 6, 5, 4]);
        assert!(dropped.iter().all(|p| p.flow == FlowId(1)));
        // Admission headroom is the shared limit, not a per-flow copy of
        // it: flow 2 can immediately use bytes freed by flow 1's eviction
        // once the aggregate has room.
        assert!(q.enqueue(qpkt(90, 2, 1000), SimTime::ZERO).is_err());
        while q.dequeue(SimTime::ZERO, &mut dropped).is_some() {
            if q.len_bytes() + Bytes(1000) <= Bytes(6000) {
                break;
            }
        }
        assert!(q.enqueue(qpkt(91, 2, 1000), SimTime::ZERO).is_ok());
        // Aggregate accounting is exact after the step + churn.
        let mut n = q.len_pkts();
        while q.dequeue(SimTime::ZERO, &mut dropped).is_some() {
            n -= 1;
        }
        assert_eq!(n, 0);
        assert_eq!(q.len_bytes(), Bytes::ZERO);
    }

    #[test]
    fn shrink_evicts_tail_first_across_disciplines() {
        let specs = [
            QueueSpec::DropTail { limit: Bytes(5000) },
            QueueSpec::codel_default(Bytes(5000)),
            QueueSpec::fq_codel_default(Bytes(5000)),
        ];
        for spec in &specs {
            let mut q = spec.build();
            for i in 0..5u32 {
                q.enqueue(qpkt(i, 1, 1000), SimTime::ZERO).unwrap();
            }
            let mut dropped = vec![];
            q.set_byte_limit(Bytes(2500), &mut dropped);
            // 2 packets fit; the 3 most recent are evicted, newest first.
            assert_eq!(q.len_bytes(), Bytes(2000), "{spec:?}");
            assert_eq!(q.len_pkts(), 2, "{spec:?}");
            let ids: Vec<u32> = dropped.iter().map(|p| p.pkt.0).collect();
            assert_eq!(ids, vec![4, 3, 2], "{spec:?}");
            // Oldest entries survive in FIFO order.
            let out = q.dequeue(SimTime::ZERO, &mut dropped).unwrap();
            assert_eq!(out.pkt, PktRef(0), "{spec:?}");
            // A grow is drop-free and admits traffic again.
            q.set_byte_limit(Bytes(10_000), &mut dropped);
            assert!(q.enqueue(qpkt(9, 1, 4000), SimTime::ZERO).is_ok());
        }
    }

    #[test]
    fn queue_spec_builds_each_variant() {
        let specs = [
            QueueSpec::DropTail { limit: Bytes(1000) },
            QueueSpec::codel_default(Bytes(1000)),
            QueueSpec::fq_codel_default(Bytes(1000)),
        ];
        for spec in &specs {
            let mut q = spec.build();
            assert!(q.enqueue(pkt(1, 500), SimTime::ZERO).is_ok());
            assert_eq!(q.len_pkts(), 1);
            assert_eq!(q.peek_size(), Some(Bytes(500)));
        }
    }
}
