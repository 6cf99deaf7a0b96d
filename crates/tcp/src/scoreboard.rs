//! The sender's retransmission scoreboard, in sequence order.
//!
//! [`Scoreboard`] tracks every transmission that is neither cumulatively
//! acked nor SACKed, ascending by `seq` and non-overlapping: new data is
//! pushed at the back, a cumulative ack pops the front, and a SACK block
//! covers one contiguous run found by binary search. SACKed segments are
//! removed at once (simulated receivers never renege, so the sender will
//! never need to retransmit them), which keeps the tracked set bounded by
//! the in-flight window even when a hole stalls the cumulative ack.
//!
//! The type owns the counters derived from that set — bytes in flight
//! ([`pipe`](Scoreboard::pipe)), the number of segments marked lost, and
//! the oldest outstanding transmission instant that anchors the RTO — so
//! each is adjusted in exactly one place per operation, and debug builds
//! re-derive all of them, and the ordering, by full scan on every read.
//!
//! Cost, with `n` segments tracked: a push and the counter reads are O(1);
//! a cumulative ack is O(segments acked); a SACK block is O(log n +
//! segments covered) plus the `VecDeque` closing the gap from its nearer
//! end; loss marking walks only the holes below the highest SACK and stops;
//! the pick skips the repaired holes in front of the first lost one, and
//! is O(1) when nothing is lost; an RTO marks all `n`.
//!
//! Two sender decisions are defined by rule here, not by storage order:
//!
//! * the retransmission pick ([`next_lost`](Scoreboard::next_lost)) is the
//!   *lowest* lost sequence — RFC 6675 `NextSeg()` rule 1;
//! * the rate sample's "newest acked segment" ([`Acked::newest`]) is the
//!   lexicographic maximum of `(delivered_at_send, sent_at, seq)`: among
//!   segments sent at the same delivered count the most recently sent wins,
//!   as in Linux `tcp_rate_skb_delivered`.

use std::collections::VecDeque;

use gsrepro_simcore::{SimDuration, SimTime};

/// One tracked transmission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SentSeg {
    /// First payload byte.
    pub seq: u64,
    /// Payload bytes.
    pub len: u64,
    /// Instant of the latest (re)transmission.
    pub sent_at: SimTime,
    /// The sender's delivered count at that instant.
    pub delivered_at_send: u64,
    /// Marked lost and not yet retransmitted: out of `pipe`.
    pub lost: bool,
    /// Times retransmitted.
    pub retx: u32,
}

/// What one ack's cumulative point and SACK blocks removed, accumulated
/// across [`Scoreboard::cum_ack`] and [`Scoreboard::sack`] calls.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Acked {
    /// Payload bytes newly delivered.
    pub bytes: u64,
    /// The newest segment removed, by the rule in the module doc, as it
    /// was when it left; `None` when nothing was removed.
    pub newest: Option<SentSeg>,
}

/// Sequence-ordered set of outstanding transmissions; see the module doc.
#[derive(Default)]
pub struct Scoreboard {
    segs: VecDeque<SentSeg>,
    lost_count: usize,
    /// Summed `len` of the segments not marked lost.
    pipe: u64,
    /// The `sent_at` of every tracked segment as a run-length multiset,
    /// `(instant, segments)` ascending by instant — `sent_at` is only ever
    /// assigned `now`, so insertion is a push at the back. A run emptied
    /// from the middle stays as a zero until it reaches the front.
    sent_times: VecDeque<(SimTime, u32)>,
}

impl Scoreboard {
    /// Tracked segments.
    pub fn len(&self) -> usize {
        self.segs.len()
    }

    /// Nothing is outstanding.
    pub fn is_empty(&self) -> bool {
        self.segs.is_empty()
    }

    /// The tracked segments, ascending by `seq`.
    pub fn iter(&self) -> impl Iterator<Item = &SentSeg> {
        self.segs.iter()
    }

    /// Bytes in flight: tracked and not marked lost.
    pub fn pipe(&self) -> u64 {
        debug_assert!(self.audit());
        self.pipe
    }

    /// The oldest outstanding transmission instant.
    pub fn oldest_sent_at(&self) -> Option<SimTime> {
        debug_assert!(self.audit());
        self.sent_times.front().map(|&(t, _)| t)
    }

    /// The order and every maintained counter, re-derived (debug builds).
    fn audit(&self) -> bool {
        let segs = || self.segs.iter();
        let ordered = |(a, b): (&SentSeg, &SentSeg)| a.len > 0 && a.seq + a.len <= b.seq;
        assert!(segs().zip(segs().skip(1)).all(ordered), "out of order");
        let live = segs().filter(|s| !s.lost);
        let counters = (live.clone().map(|s| s.len).sum(), self.len() - live.count());
        assert_eq!((self.pipe, self.lost_count), counters, "counters drifted");
        let oldest = self.sent_times.front().map(|&(t, _)| t);
        assert_eq!(oldest, segs().map(|s| s.sent_at).min(), "multiset drifted");
        true
    }

    fn note_sent(&mut self, now: SimTime) {
        match self.sent_times.back_mut() {
            Some((t, n)) if *t == now => *n += 1,
            _ => self.sent_times.push_back((now, 1)),
        }
    }

    fn forget_sent(&mut self, sent_at: SimTime) {
        let i = match self.sent_times.front() {
            Some(&(t, _)) if t == sent_at => 0,
            _ => self
                .sent_times
                .binary_search_by_key(&sent_at, |&(t, _)| t)
                .expect("every tracked sent_at is in the multiset"),
        };
        self.sent_times[i].1 -= 1;
        while self.sent_times.front().is_some_and(|&(_, n)| n == 0) {
            self.sent_times.pop_front();
        }
    }

    /// Account one segment leaving the set (acked or SACKed) and fold it
    /// into `acked`.
    fn untrack(&mut self, s: SentSeg, acked: &mut Acked) {
        if s.lost {
            self.lost_count -= 1;
        } else {
            self.pipe -= s.len;
        }
        self.forget_sent(s.sent_at);
        let key = |s: &SentSeg| (s.delivered_at_send, s.sent_at, s.seq);
        acked.bytes += s.len;
        if acked.newest.is_none_or(|n| key(&s) > key(&n)) {
            acked.newest = Some(s);
        }
    }

    /// Track new data `[seq, seq + len)` sent at `now`; `seq` must lie at
    /// or above everything ever pushed.
    pub fn push(&mut self, seq: u64, len: u64, now: SimTime, delivered: u64) {
        debug_assert!(self.segs.back().is_none_or(|b| b.seq + b.len <= seq) && len > 0);
        self.segs.push_back(SentSeg {
            seq,
            len,
            sent_at: now,
            delivered_at_send: delivered,
            lost: false,
            retx: 0,
        });
        self.pipe += len;
        self.note_sent(now);
    }

    /// Cumulative ack: drop every segment that ends at or below `ack`. A
    /// segment `ack` cuts through stays whole.
    pub fn cum_ack(&mut self, ack: u64, acked: &mut Acked) {
        while let Some(&s) = self.segs.front().filter(|s| s.seq + s.len <= ack) {
            self.segs.pop_front();
            self.untrack(s, acked);
        }
    }

    /// SACK block `[start, end)`: drop every segment it covers whole. A
    /// re-advertised block finds nothing and costs one binary search.
    pub fn sack(&mut self, start: u64, end: u64, acked: &mut Acked) {
        let lo = self.segs.partition_point(|s| s.seq < start);
        let covered = self.segs.range(lo..).take_while(|s| s.seq + s.len <= end);
        let hi = lo + covered.count();
        for i in lo..hi {
            self.untrack(self.segs[i], acked);
        }
        self.segs.drain(lo..hi);
    }

    /// Loss detection. A segment is marked lost when `highest_sacked`
    /// reaches `reorder` bytes past its end (≈ RFC 6675 DupThresh), or when
    /// it starts at `dup_una` — the caller passes `snd_una` once three
    /// duplicate acks are in. One that was already retransmitted is only
    /// re-marked once `rtt_gate` has passed since (a RACK-style reordering
    /// window); otherwise the stale SACK hole above it would re-mark it on
    /// every ack. Ends ascend, so only a prefix can qualify, and only the
    /// front can start at `snd_una`. Returns whether anything was marked.
    pub fn mark_lost(
        &mut self,
        highest_sacked: u64,
        reorder: u64,
        dup_una: Option<u64>,
        now: SimTime,
        rtt_gate: SimDuration,
    ) -> bool {
        let mut newly_lost = false;
        for s in self.segs.iter_mut() {
            let sack_hole = highest_sacked >= s.seq + s.len + reorder;
            if !sack_hole && dup_una != Some(s.seq) {
                break;
            }
            if !s.lost && (s.retx == 0 || now.saturating_since(s.sent_at) >= rtt_gate) {
                s.lost = true;
                self.lost_count += 1;
                self.pipe -= s.len;
                newly_lost = true;
            }
        }
        newly_lost
    }

    /// Retransmission timeout: everything outstanding is presumed lost.
    pub fn mark_all_lost(&mut self) {
        self.segs.iter_mut().for_each(|s| s.lost = true);
        self.lost_count = self.segs.len();
        self.pipe = 0;
    }

    /// The lowest lost sequence (RFC 6675 `NextSeg()` rule 1).
    pub fn next_lost(&self) -> Option<&SentSeg> {
        if self.lost_count == 0 {
            return None;
        }
        self.segs.iter().find(|s| s.lost)
    }

    /// Put the lost segment starting at `seq` (from
    /// [`next_lost`](Self::next_lost)) back in flight as sent at `now`.
    pub fn retransmit(&mut self, seq: u64, now: SimTime, delivered: u64) {
        let i = self.segs.partition_point(|s| s.seq < seq);
        let s = &mut self.segs[i];
        debug_assert!(s.seq == seq && s.lost, "retransmit of a segment not lost");
        self.pipe += s.len;
        self.lost_count -= 1;
        let prev_sent_at = s.sent_at;
        (s.lost, s.retx, s.sent_at, s.delivered_at_send) = (false, s.retx + 1, now, delivered);
        self.forget_sent(prev_sent_at);
        self.note_sent(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const MSS: u64 = 1448;
    const GATE: SimDuration = SimDuration::from_millis(20);

    fn ms(t: u64) -> SimTime {
        SimTime::from_millis(t)
    }

    /// `n` full segments from sequence 0, all sent at `now`.
    fn board_of(n: u64, now: SimTime) -> Scoreboard {
        let mut b = Scoreboard::default();
        for i in 0..n {
            b.push(i * MSS, MSS, now, 0);
        }
        b
    }

    fn seqs(b: &Scoreboard) -> Vec<u64> {
        b.iter().map(|s| s.seq / MSS).collect()
    }

    #[test]
    fn retransmits_lowest_lost_sequence_first() {
        // Holes at segments 0 and 2. Segment 0 is dupack-marked and
        // retransmitted first, so when the SACKs arrive its reordering gate
        // is closed and only the *higher* hole is marked; the lower one is
        // re-marked after the gate opens. The pick must still be the lower.
        let mut b = board_of(6, ms(0));
        assert!(b.mark_lost(0, 2 * MSS, Some(0), ms(0), GATE));
        assert_eq!(b.next_lost().map(|s| s.seq), Some(0));
        b.retransmit(0, ms(1), 0);
        let mut acked = Acked::default();
        b.sack(MSS, 2 * MSS, &mut acked);
        b.sack(3 * MSS, 6 * MSS, &mut acked);
        assert_eq!(seqs(&b), [0, 2]);
        assert!(b.mark_lost(6 * MSS, 2 * MSS, None, ms(2), GATE));
        assert_eq!(b.next_lost().map(|s| s.seq), Some(2 * MSS));
        assert!(b.mark_lost(6 * MSS, 2 * MSS, None, ms(30), GATE));
        assert_eq!(b.pipe(), 0);
        // Both lost, the higher marked first: lowest sequence goes first,
        // and the higher only once no lower lost sequence waits.
        assert_eq!(b.next_lost().map(|s| s.seq), Some(0));
        b.retransmit(0, ms(30), 0);
        assert_eq!(b.next_lost().map(|s| s.seq), Some(2 * MSS));
        b.retransmit(2 * MSS, ms(30), 0);
        assert_eq!(b.next_lost(), None);
        assert_eq!(b.pipe(), 2 * MSS);
    }

    #[test]
    fn rate_sample_tie_is_most_recently_sent() {
        // Three segments sent at one delivered count. Segment 0 is lost and
        // retransmitted later, still at that count: the most recently sent.
        let mut b = board_of(3, ms(0));
        b.mark_all_lost();
        b.retransmit(0, ms(5), 0);
        let mut acked = Acked::default();
        b.cum_ack(3 * MSS, &mut acked);
        assert_eq!(acked.bytes, 3 * MSS);
        let n = acked.newest.expect("three segments were acked");
        assert_eq!((n.seq, n.sent_at, n.retx), (0, ms(5), 1));

        // Same count and same instant: the higher sequence left last.
        let mut b = board_of(3, ms(0));
        let mut acked = Acked::default();
        b.sack(MSS, 3 * MSS, &mut acked);
        b.cum_ack(MSS, &mut acked);
        assert_eq!(acked.newest.map(|n| n.seq), Some(2 * MSS));

        // A later delivered count outranks a later instant.
        let mut b = board_of(1, ms(9));
        b.push(MSS, MSS, ms(9), 7);
        b.mark_all_lost();
        b.retransmit(0, ms(10), 0);
        let mut acked = Acked::default();
        b.cum_ack(2 * MSS, &mut acked);
        assert_eq!(acked.newest.map(|n| n.seq), Some(MSS));
    }

    #[test]
    fn sack_covers_whole_segments_only() {
        let mut b = board_of(5, ms(0));
        let mut acked = Acked::default();
        // Cuts segment 1 at its start and segment 3 at its end: only
        // segment 2 is covered.
        b.sack(MSS + 1, 4 * MSS - 1, &mut acked);
        assert_eq!((seqs(&b), acked.bytes), (vec![0, 1, 3, 4], MSS));
        // Exact edges cover; re-advertising finds nothing.
        b.sack(3 * MSS, 4 * MSS, &mut acked);
        b.sack(3 * MSS, 4 * MSS, &mut acked);
        b.sack(MSS + 1, 4 * MSS - 1, &mut acked);
        assert_eq!((seqs(&b), acked.bytes), (vec![0, 1, 4], 2 * MSS));
        // A block over a gap left by earlier SACKs takes both sides of it;
        // one below and one above everything tracked take nothing.
        b.sack(MSS, 5 * MSS, &mut acked);
        b.sack(0, 0, &mut acked);
        b.sack(9 * MSS, 12 * MSS, &mut acked);
        assert_eq!((seqs(&b), acked.bytes), (vec![0], 4 * MSS));
        assert_eq!(b.pipe(), MSS);
    }

    #[test]
    fn cum_ack_keeps_a_segment_it_cuts() {
        let mut b = board_of(3, ms(0));
        let mut acked = Acked::default();
        b.cum_ack(2 * MSS - 1, &mut acked);
        assert_eq!((seqs(&b), acked.bytes), (vec![1, 2], MSS));
        b.cum_ack(2 * MSS, &mut acked);
        assert_eq!((seqs(&b), acked.bytes), (vec![2], 2 * MSS));
    }

    #[test]
    fn loss_marking_stops_where_the_sack_distance_ends() {
        let mut b = board_of(6, ms(0));
        // highest_sacked = 5 MSS reaches 2 MSS past the ends of segments
        // 0..=2 exactly; one byte less and segment 2 is spared.
        assert!(b.mark_lost(5 * MSS - 1, 2 * MSS, None, ms(0), GATE));
        assert_eq!(b.iter().filter(|s| s.lost).count(), 2);
        assert!(b.mark_lost(5 * MSS, 2 * MSS, None, ms(0), GATE));
        assert_eq!(b.iter().filter(|s| s.lost).count(), 3);
        assert!(!b.mark_lost(5 * MSS, 2 * MSS, None, ms(0), GATE));
        // Three dupacks name only a front segment that starts at snd_una.
        let mut b = board_of(3, ms(0));
        assert!(!b.mark_lost(0, 2 * MSS, Some(MSS), ms(0), GATE));
        assert!(b.mark_lost(0, 2 * MSS, Some(0), ms(0), GATE));
        assert_eq!((b.pipe(), b.next_lost().map(|s| s.seq)), (2 * MSS, Some(0)));
    }
}
