//! Differential test: the sequence-ordered [`Scoreboard`] against a
//! reference model that keeps a plain sorted `Vec` and answers every
//! question by full scan.
//!
//! The scoreboard earns its speed from three shortcuts — a cumulative ack
//! only pops the front, a SACK block is one binary search and one
//! contiguous drain, loss marking stops at the first segment the SACK
//! distance does not reach — and from counters (`pipe`, the lost count,
//! the `sent_at` multiset) it adjusts instead of re-deriving. The model
//! has none of that: every operation is a `retain` or an `iter` over the
//! whole set with the rule written out per segment. Any op stream must
//! leave both with the same segments, the same acked bytes and rate-sample
//! anchor, the same lost marks and retransmission order, the same `pipe`
//! and the same oldest `sent_at`, after every step.
//!
//! Op streams mix new data (full segments and runts), clock advances
//! (including none, so transmissions share an instant), cumulative acks
//! (whole, partial — cutting a segment — and stretch), one to three SACK
//! blocks (segment-aligned, cutting a segment at either edge, below
//! `snd_una`, re-advertised), SACK- and dupack-triggered loss marking,
//! retransmissions and RTOs.

use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::{SimDuration, SimTime};
use gsrepro_tcp::scoreboard::{Acked, Scoreboard, SentSeg};

const MSS: u64 = 1448;
const RTT_GATE: SimDuration = SimDuration::from_millis(20);

/// The scoreboard's contract, restated with no shortcut.
#[derive(Default)]
struct ScanModel {
    segs: Vec<SentSeg>,
}

impl ScanModel {
    fn push(&mut self, seq: u64, len: u64, now: SimTime, delivered: u64) {
        self.segs.push(SentSeg {
            seq,
            len,
            sent_at: now,
            delivered_at_send: delivered,
            lost: false,
            retx: 0,
        });
        self.segs.sort_by_key(|s| s.seq);
    }

    /// Remove every segment `gone` selects and fold it into `acked`.
    fn remove(&mut self, gone: impl Fn(&SentSeg) -> bool, acked: &mut Acked) {
        for s in self.segs.iter().filter(|s| gone(s)) {
            acked.bytes += s.len;
            let key = |s: &SentSeg| (s.delivered_at_send, s.sent_at, s.seq);
            acked.newest = acked.newest.into_iter().chain([*s]).max_by_key(key);
        }
        self.segs.retain(|s| !gone(s));
    }

    fn cum_ack(&mut self, ack: u64, acked: &mut Acked) {
        self.remove(|s| s.seq + s.len <= ack, acked);
    }

    fn sack(&mut self, start: u64, end: u64, acked: &mut Acked) {
        self.remove(|s| s.seq >= start && s.seq + s.len <= end, acked);
    }

    fn mark_lost(&mut self, highest_sacked: u64, dup_una: Option<u64>, now: SimTime) -> bool {
        let mut newly_lost = false;
        for s in self.segs.iter_mut().filter(|s| !s.lost) {
            let sack_hole = highest_sacked >= s.seq + s.len + 2 * MSS;
            let dup_trigger = dup_una == Some(s.seq);
            let gate_open = s.retx == 0 || now.saturating_since(s.sent_at) >= RTT_GATE;
            if (sack_hole || dup_trigger) && gate_open {
                s.lost = true;
                newly_lost = true;
            }
        }
        newly_lost
    }

    fn next_lost(&self) -> Option<SentSeg> {
        self.segs
            .iter()
            .filter(|s| s.lost)
            .min_by_key(|s| s.seq)
            .copied()
    }

    fn retransmit(&mut self, seq: u64, now: SimTime, delivered: u64) {
        let s = self.segs.iter_mut().find(|s| s.seq == seq).unwrap();
        s.lost = false;
        s.retx += 1;
        s.sent_at = now;
        s.delivered_at_send = delivered;
    }

    fn pipe(&self) -> u64 {
        self.segs.iter().filter(|s| !s.lost).map(|s| s.len).sum()
    }
}

/// One step of the random workload; `a` and `b` are raw draws each op
/// decodes for itself.
#[derive(Clone, Copy, Debug)]
enum Op {
    Push { a: u64 },
    Advance { a: u64 },
    CumAck { a: u64 },
    Sack { a: u64, b: u64 },
    Resack,
    MarkLost { dup: bool },
    Retransmit,
    Rto,
}

fn decode_op(sel: u8, a: u64, b: u64) -> Op {
    match sel {
        0..=5 => Op::Push { a },
        6..=7 => Op::Advance { a },
        8..=9 => Op::CumAck { a },
        10..=12 => Op::Sack { a, b },
        13 => Op::Resack,
        14..=15 => Op::MarkLost {
            dup: a.is_multiple_of(3),
        },
        16..=18 => Op::Retransmit,
        _ => Op::Rto,
    }
}

/// A sequence number in `[lo, hi]`: on a segment boundary three times in
/// four, anywhere (cutting a segment) otherwise.
fn pick_seq(raw: u64, lo: u64, hi: u64, bounds: &[u64]) -> u64 {
    let inside: Vec<u64> = bounds
        .iter()
        .copied()
        .filter(|&x| lo <= x && x <= hi)
        .collect();
    if !raw.is_multiple_of(4) && !inside.is_empty() {
        inside[(raw / 4) as usize % inside.len()]
    } else {
        lo + (raw / 4) % (hi - lo + 1)
    }
}

fn run_differential(ops: &[Op]) {
    let mut board = Scoreboard::default();
    let mut model = ScanModel::default();
    let mut now = SimTime::ZERO;
    let (mut next_seq, mut snd_una, mut delivered, mut highest_sacked) = (0u64, 0u64, 0u64, 0u64);
    // Every boundary a segment was ever sent on, for `pick_seq`.
    let mut bounds = vec![0u64];
    let mut last_blocks: Vec<(u64, u64)> = Vec::new();

    for (step, op) in ops.iter().enumerate() {
        let (mut got, mut want) = (Acked::default(), Acked::default());
        match *op {
            Op::Push { a } => {
                let len = if a.is_multiple_of(5) {
                    1 + (a / 5) % (MSS - 1)
                } else {
                    MSS
                };
                board.push(next_seq, len, now, delivered);
                model.push(next_seq, len, now, delivered);
                next_seq += len;
                bounds.push(next_seq);
            }
            Op::Advance { a } => {
                let dt = [0, 1, 1_000, 5_000_000, 40_000_000][(a % 5) as usize];
                now += SimDuration::from_nanos(dt);
            }
            Op::CumAck { a } => {
                if snd_una == next_seq {
                    continue;
                }
                let ack = pick_seq(a, snd_una + 1, next_seq, &bounds);
                board.cum_ack(ack, &mut got);
                model.cum_ack(ack, &mut want);
                snd_una = ack;
            }
            Op::Sack { a, b } => {
                // Blocks may start below snd_una (a stale ack) and may
                // overlap each other.
                last_blocks.clear();
                for k in 0..1 + a % 3 {
                    let (a, b) = (a.rotate_left(17 * k as u32), b.rotate_left(23 * k as u32));
                    let start = pick_seq(a, snd_una.saturating_sub(2 * MSS), next_seq, &bounds);
                    let end = pick_seq(b, start, next_seq, &bounds);
                    last_blocks.push((start, end));
                }
                for &(start, end) in &last_blocks {
                    highest_sacked = highest_sacked.max(end);
                    board.sack(start, end, &mut got);
                    model.sack(start, end, &mut want);
                }
            }
            Op::Resack => {
                for &(start, end) in &last_blocks {
                    board.sack(start, end, &mut got);
                    model.sack(start, end, &mut want);
                }
            }
            Op::MarkLost { dup } => {
                let dup_una = dup.then_some(snd_una);
                let got = board.mark_lost(highest_sacked, 2 * MSS, dup_una, now, RTT_GATE);
                let want = model.mark_lost(highest_sacked, dup_una, now);
                assert_eq!(got, want, "step {step}: newly-lost verdict diverged");
            }
            Op::Retransmit => {
                let pick = board.next_lost().copied();
                assert_eq!(pick, model.next_lost(), "step {step}: retransmission pick");
                if let Some(s) = pick {
                    board.retransmit(s.seq, now, delivered);
                    model.retransmit(s.seq, now, delivered);
                }
            }
            Op::Rto => {
                board.mark_all_lost();
                model.segs.iter_mut().for_each(|s| s.lost = true);
            }
        }
        assert_eq!(got, want, "step {step} {op:?}: acked bytes / rate anchor");
        delivered += got.bytes;
        assert!(
            board.iter().eq(model.segs.iter()),
            "step {step} {op:?}: segments diverged\n board {:?}\n model {:?}",
            board.iter().collect::<Vec<_>>(),
            model.segs
        );
        assert_eq!(board.len(), model.segs.len());
        assert_eq!(board.pipe(), model.pipe(), "step {step}: pipe");
        assert_eq!(
            board.oldest_sent_at(),
            model.segs.iter().map(|s| s.sent_at).min(),
            "step {step}: oldest sent_at"
        );
        assert_eq!(board.next_lost().copied(), model.next_lost());
    }
}

#[test]
fn scoreboard_matches_full_scan_reference() {
    for_each_case("scoreboard_matches_full_scan_reference", 256, |rng| {
        let n = rng.gen_range(1..300usize);
        let raw_ops: Vec<(u8, u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(0..20), rng.gen(), rng.gen()))
            .collect();
        let ops: Vec<Op> = raw_ops
            .iter()
            .map(|&(sel, a, b)| decode_op(sel, a, b))
            .collect();
        run_differential(&ops);
    });
}

/// The shapes the shortcuts could get wrong, as a fixed case: a SACK that
/// cuts a segment at each edge and covers a runt, a cumulative ack that
/// cuts a segment, a re-advertised block, and a dupack mark on a front
/// segment that starts exactly at `snd_una`.
#[test]
fn boundary_shapes_match_the_reference() {
    run_differential(&[
        Op::Push { a: 1 },
        Op::Push { a: 1 },
        Op::Push { a: 5 * 700 }, // a 701-byte runt
        Op::Push { a: 1 },
        Op::Push { a: 1 },
        Op::Advance { a: 3 },
        Op::Sack { a: 0, b: 0 },
        Op::Sack {
            a: 4 * 2000,
            b: 4 * 3000,
        }, // cuts at both edges
        Op::Resack,
        Op::CumAck { a: 4 * 700 }, // partial: cuts the first segment
        Op::CumAck { a: 1 },
        Op::MarkLost { dup: true },
        Op::Retransmit,
        Op::MarkLost { dup: false },
        Op::Rto,
        Op::Retransmit,
        Op::Retransmit,
        Op::Advance { a: 4 },
        Op::MarkLost { dup: true },
    ]);
}
