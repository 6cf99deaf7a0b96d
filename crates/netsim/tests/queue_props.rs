//! Property-based tests for the queue disciplines and the token-bucket
//! shaper: FIFO order, byte accounting, capacity respect, and AQM
//! invariants across randomized workloads.

use gsrepro_netsim::queue::{Discipline, DropTailQueue, QueueSpec, QueuedPkt};
use gsrepro_netsim::wire::{Ecn, FlowId, PktRef};
use gsrepro_simcore::{Bytes, SimTime};
use proptest::prelude::*;

/// Queues carry pool handles, not packets; the `id` doubles as the handle
/// so FIFO order can be asserted on what comes out.
fn pkt(id: u64, flow: u32, size: u64) -> QueuedPkt {
    QueuedPkt {
        pkt: PktRef(id as u32),
        flow: FlowId(flow),
        size: Bytes(size),
        ecn: Ecn::NotEct,
        enqueued_at: SimTime::ZERO,
    }
}

/// A randomized enqueue/dequeue schedule applied to any discipline.
/// Returns (accepted, delivered + queued + aqm-dropped, aqm-dropped,
/// delivered ids): the first two must match for a conserving queue.
fn churn(
    q: &mut Discipline,
    ops: &[(bool, u16, u64)], // (enqueue?, flow, size 64..1500)
) -> (u64, u64, u64, Vec<u64>) {
    let mut accepted = 0u64;
    let mut delivered = 0u64;
    let mut aqm_dropped = 0u64;
    let mut out_ids = Vec::new();
    let mut scratch = Vec::new();
    let mut id = 0u64;
    for (i, &(is_enq, flow, size)) in ops.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        if is_enq {
            let p = pkt(id, flow as u32 % 8, 64 + size % 1437);
            id += 1;
            if q.enqueue(p, now).is_ok() {
                accepted += 1;
            }
        } else {
            scratch.clear();
            if let Some(p) = q.dequeue(now, &mut scratch) {
                delivered += 1;
                out_ids.push(p.pkt.0 as u64);
            }
            aqm_dropped += scratch.len() as u64;
        }
    }
    let accounted = delivered + q.len_pkts() as u64 + aqm_dropped;
    (accepted, accounted, aqm_dropped, out_ids)
}

/// Like [`churn`], but every packet is ECN-capable (ECT). Returns
/// (accepted, accounted, aqm-dropped, CE-marked deliveries, delivered ids).
/// A conforming AQM CE-marks ECT packets instead of dropping them, so the
/// conservation identity must close with `aqm_dropped == 0` and every
/// would-be drop surfacing as a delivered CE-marked packet.
fn churn_ect(q: &mut Discipline, ops: &[(bool, u16, u64)]) -> (u64, u64, u64, u64, Vec<u64>) {
    let mut accepted = 0u64;
    let mut delivered = 0u64;
    let mut aqm_dropped = 0u64;
    let mut marked = 0u64;
    let mut out_ids = Vec::new();
    let mut scratch = Vec::new();
    let mut id = 0u64;
    for (i, &(is_enq, flow, size)) in ops.iter().enumerate() {
        let now = SimTime::from_millis(i as u64);
        if is_enq {
            let p = QueuedPkt {
                ecn: Ecn::Ect,
                ..pkt(id, flow as u32 % 8, 64 + size % 1437)
            };
            id += 1;
            if q.enqueue(p, now).is_ok() {
                accepted += 1;
            }
        } else {
            scratch.clear();
            if let Some(p) = q.dequeue(now, &mut scratch) {
                delivered += 1;
                if p.ecn == Ecn::Ce {
                    marked += 1;
                }
                out_ids.push(p.pkt.0 as u64);
            }
            aqm_dropped += scratch.len() as u64;
        }
    }
    let accounted = delivered + q.len_pkts() as u64 + aqm_dropped;
    (accepted, accounted, aqm_dropped, marked, out_ids)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drop-tail preserves FIFO order and conserves packets.
    #[test]
    fn drop_tail_fifo_and_conservation(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..2000), 1..500),
        limit in 2_000u64..100_000,
    ) {
        let mut q = Discipline::DropTail(DropTailQueue::bytes(Bytes(limit)));
        let (accepted, accounted, _dropped, out_ids) = churn(&mut q, &ops);
        // Every accepted packet is either delivered or still queued.
        prop_assert_eq!(accepted, accounted);
        // FIFO: output ids strictly increasing.
        prop_assert!(out_ids.windows(2).all(|w| w[0] < w[1]));
        // Byte limit never exceeded.
        prop_assert!(q.len_bytes().as_u64() <= limit);
    }

    /// CoDel conserves packets (delivered + dropped + queued = accepted)
    /// and respects its byte limit.
    #[test]
    fn codel_conservation(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..2000), 1..500),
    ) {
        let spec = QueueSpec::codel_default(Bytes(30_000));
        let mut q = spec.build();
        let (accepted, accounted, _, out_ids) = churn(&mut q, &ops);
        prop_assert_eq!(accepted, accounted);
        prop_assert!(q.len_bytes().as_u64() <= 30_000);
        prop_assert!(out_ids.windows(2).all(|w| w[0] < w[1]), "CoDel must stay FIFO");
    }

    /// FQ-CoDel conserves packets and bytes across random multi-flow churn.
    #[test]
    fn fq_codel_conservation(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..2000), 1..500),
    ) {
        let spec = QueueSpec::fq_codel_default(Bytes(50_000));
        let mut q = spec.build();
        let (accepted, accounted, _, _) = churn(&mut q, &ops);
        prop_assert_eq!(accepted, accounted);
        prop_assert!(q.len_bytes().as_u64() <= 50_000);
        // Draining fully zeroes the accounting.
        let mut scratch = Vec::new();
        while q.dequeue(SimTime::from_secs(10_000), &mut scratch).is_some() {}
        prop_assert_eq!(q.len_pkts(), 0);
        prop_assert_eq!(q.len_bytes().as_u64(), 0);
    }

    /// With all-ECT traffic CoDel never drops on dequeue: the conservation
    /// identity closes with zero AQM drops, every would-be drop arriving as
    /// a delivered CE-marked packet, and FIFO order intact.
    #[test]
    fn codel_ecn_marks_conserve(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..2000), 1..500),
    ) {
        let spec = QueueSpec::codel_default(Bytes(30_000));
        let mut q = spec.build();
        let (accepted, accounted, aqm_dropped, _marked, out_ids) = churn_ect(&mut q, &ops);
        prop_assert_eq!(accepted, accounted);
        prop_assert_eq!(aqm_dropped, 0, "ECT traffic must be marked, not dropped");
        prop_assert!(out_ids.windows(2).all(|w| w[0] < w[1]), "marking must stay FIFO");
        prop_assert!(q.len_bytes().as_u64() <= 30_000);
    }

    /// FQ-CoDel under all-ECT traffic: no AQM drops, conservation closes,
    /// and a full drain zeroes the aggregate accounting.
    #[test]
    fn fq_codel_ecn_marks_conserve(
        ops in prop::collection::vec((any::<bool>(), any::<u16>(), 0u64..2000), 1..500),
    ) {
        let spec = QueueSpec::fq_codel_default(Bytes(50_000));
        let mut q = spec.build();
        let (accepted, accounted, aqm_dropped, _marked, _) = churn_ect(&mut q, &ops);
        prop_assert_eq!(accepted, accounted);
        prop_assert_eq!(aqm_dropped, 0, "ECT traffic must be marked, not dropped");
        prop_assert!(q.len_bytes().as_u64() <= 50_000);
        let mut scratch = Vec::new();
        while q.dequeue(SimTime::from_secs(10_000), &mut scratch).is_some() {}
        prop_assert_eq!(q.len_pkts(), 0);
        prop_assert_eq!(q.len_bytes().as_u64(), 0);
    }

    /// FQ-CoDel delivers every flow that has backlog within a bounded
    /// number of dequeues (no starvation).
    #[test]
    fn fq_codel_no_starvation(heavy in 10u64..60, flows in 2u32..6) {
        let spec = QueueSpec::fq_codel_default(Bytes(1_000_000));
        let mut q = spec.build();
        let now = SimTime::ZERO;
        let mut id = 0;
        // One heavy flow, plus (flows-1) light flows with one packet each.
        for _ in 0..heavy {
            q.enqueue(pkt(id, 0, 1000), now).expect("fits");
            id += 1;
        }
        for fl in 1..flows {
            q.enqueue(pkt(id, fl, 1000), now).expect("fits");
            id += 1;
        }
        let mut scratch = Vec::new();
        let mut seen = std::collections::HashSet::new();
        // Within flows × 3 dequeues every flow must appear at least once.
        for _ in 0..(flows as usize * 3) {
            if let Some(p) = q.dequeue(now, &mut scratch) {
                seen.insert(p.flow.0);
            }
        }
        for fl in 0..flows {
            prop_assert!(seen.contains(&fl), "flow {} starved (saw {:?})", fl, seen);
        }
    }
}
