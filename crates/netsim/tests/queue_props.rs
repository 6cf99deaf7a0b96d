//! Property-based tests for the queue disciplines and the token-bucket
//! shaper: FIFO order, byte accounting, capacity respect, and AQM
//! invariants across randomized workloads.

use gsrepro_netsim::queue::{Discipline, DropTailQueue, QueueSpec, QueuedPkt};
use gsrepro_netsim::wire::{Ecn, FlowId, PktRef};
use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::{Bytes, SimRng, SimTime};

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

/// An `ops` list once recorded as a failing case of these properties: each
/// of the four that take only `ops` runs it before its random cases.
const RECORDED_OPS: &[(bool, u16, u64)] = &[
    (true, 9130, 203),
    (true, 15716, 877),
    (true, 60586, 1170),
    (true, 9290, 14),
    (true, 36391, 1966),
    (true, 51882, 177),
    (true, 19881, 440),
    (false, 59093, 1677),
    (true, 23226, 1411),
    (true, 37587, 287),
    (false, 33497, 659),
    (false, 57320, 1691),
    (false, 24995, 1829),
    (false, 8980, 1008),
    (false, 58100, 938),
    (true, 63085, 1641),
    (false, 57901, 1639),
    (true, 61062, 554),
    (true, 9684, 1672),
    (false, 41112, 478),
    (true, 60565, 1385),
    (true, 7832, 1106),
    (false, 56479, 1244),
    (false, 52787, 1369),
    (true, 20561, 1362),
    (true, 65451, 885),
    (false, 34234, 267),
    (true, 62761, 827),
    (true, 29298, 1120),
    (true, 5472, 1167),
    (true, 43104, 309),
    (false, 65008, 259),
    (true, 33994, 245),
    (false, 6306, 525),
    (true, 40421, 1221),
    (true, 37948, 934),
    (true, 11217, 1804),
    (false, 37586, 1350),
    (false, 28408, 1458),
    (false, 29621, 1443),
    (false, 59301, 1477),
    (true, 32077, 641),
    (false, 42054, 1909),
    (true, 52051, 154),
    (false, 34654, 1550),
    (true, 46862, 218),
    (true, 52052, 233),
    (true, 8589, 1613),
    (true, 19486, 983),
    (true, 59680, 393),
    (false, 1904, 382),
    (true, 36114, 1804),
    (true, 10255, 274),
    (true, 13908, 1353),
    (false, 27815, 885),
    (false, 19086, 253),
    (true, 1999, 304),
    (false, 57823, 1671),
    (false, 33425, 742),
    (true, 30554, 1173),
    (true, 48611, 216),
    (true, 55060, 254),
    (false, 60265, 664),
    (true, 60399, 1784),
    (false, 29913, 895),
    (false, 59525, 755),
    (false, 27446, 1019),
    (false, 8344, 1333),
    (true, 26601, 589),
    (true, 39355, 758),
    (true, 58869, 1646),
    (true, 39332, 1238),
    (false, 4263, 200),
    (false, 17387, 1643),
    (true, 62116, 1069),
    (false, 40361, 972),
    (true, 48843, 523),
    (true, 63518, 1191),
    (false, 33943, 3),
    (false, 14738, 1241),
    (true, 14447, 453),
    (false, 41317, 1391),
    (true, 23210, 554),
    (false, 12115, 148),
    (false, 63105, 1264),
    (true, 27093, 630),
    (true, 11785, 1667),
    (true, 852, 1353),
    (false, 4512, 941),
    (false, 35342, 667),
    (false, 28808, 22),
    (true, 48935, 497),
    (true, 6125, 48),
    (false, 56195, 1804),
    (false, 26966, 70),
    (true, 50775, 79),
    (true, 59817, 429),
    (false, 42593, 1159),
    (false, 60536, 649),
    (true, 28795, 1526),
    (true, 41748, 1106),
    (false, 19978, 726),
    (true, 24625, 1353),
    (true, 39748, 1091),
    (false, 57455, 450),
    (true, 15556, 433),
    (true, 22514, 1371),
    (false, 51708, 869),
    (true, 47728, 862),
    (true, 33929, 20),
    (true, 36087, 1004),
    (true, 65439, 1085),
    (true, 57446, 29),
    (true, 29274, 351),
];

/// `(enqueue?, flow, size)` ops for [`churn`], the count drawn first. The
/// flow is a draw's low 16 bits.
fn ops(rng: &mut SimRng) -> Vec<(bool, u16, u64)> {
    let n = rng.gen_range(1..500usize);
    (0..n)
        .map(|_| (rng.gen(), rng.gen::<u64>() as u16, rng.gen_range(0..2000)))
        .collect()
}

/// Drop-tail preserves FIFO order and conserves packets.
#[test]
fn drop_tail_fifo_and_conservation() {
    for_each_case("drop_tail_fifo_and_conservation", 64, |rng| {
        let ops = ops(rng);
        let limit = rng.gen_range(2_000u64..100_000);
        let mut q = Discipline::DropTail(DropTailQueue::bytes(Bytes(limit)));
        let (accepted, accounted, _dropped, out_ids) = churn(&mut q, &ops);
        // Every accepted packet is either delivered or still queued.
        assert_eq!(accepted, accounted);
        // FIFO: output ids strictly increasing.
        assert!(out_ids.windows(2).all(|w| w[0] < w[1]));
        // Byte limit never exceeded.
        assert!(q.len_bytes().as_u64() <= limit);
    });
}

/// CoDel conserves packets (delivered + dropped + queued = accepted)
/// and respects its byte limit.
fn codel_conserves(ops: &[(bool, u16, u64)]) {
    let spec = QueueSpec::codel_default(Bytes(30_000));
    let mut q = spec.build();
    let (accepted, accounted, _, out_ids) = churn(&mut q, ops);
    assert_eq!(accepted, accounted);
    assert!(q.len_bytes().as_u64() <= 30_000);
    assert!(
        out_ids.windows(2).all(|w| w[0] < w[1]),
        "CoDel must stay FIFO"
    );
}

/// FQ-CoDel conserves packets and bytes across random multi-flow churn.
fn fq_codel_conserves(ops: &[(bool, u16, u64)]) {
    let spec = QueueSpec::fq_codel_default(Bytes(50_000));
    let mut q = spec.build();
    let (accepted, accounted, _, _) = churn(&mut q, ops);
    assert_eq!(accepted, accounted);
    assert!(q.len_bytes().as_u64() <= 50_000);
    // Draining fully zeroes the accounting.
    let mut scratch = Vec::new();
    while q
        .dequeue(SimTime::from_secs(10_000), &mut scratch)
        .is_some()
    {}
    assert_eq!(q.len_pkts(), 0);
    assert_eq!(q.len_bytes().as_u64(), 0);
}

/// With all-ECT traffic CoDel never drops on dequeue: the conservation
/// identity closes with zero AQM drops, every would-be drop arriving as
/// a delivered CE-marked packet, and FIFO order intact.
fn codel_ecn_marks_conserves(ops: &[(bool, u16, u64)]) {
    let spec = QueueSpec::codel_default(Bytes(30_000));
    let mut q = spec.build();
    let (accepted, accounted, aqm_dropped, _marked, out_ids) = churn_ect(&mut q, ops);
    assert_eq!(accepted, accounted);
    assert_eq!(aqm_dropped, 0, "ECT traffic must be marked, not dropped");
    assert!(
        out_ids.windows(2).all(|w| w[0] < w[1]),
        "marking must stay FIFO"
    );
    assert!(q.len_bytes().as_u64() <= 30_000);
}

/// FQ-CoDel under all-ECT traffic: no AQM drops, conservation closes,
/// and a full drain zeroes the aggregate accounting.
fn fq_codel_ecn_marks_conserves(ops: &[(bool, u16, u64)]) {
    let spec = QueueSpec::fq_codel_default(Bytes(50_000));
    let mut q = spec.build();
    let (accepted, accounted, aqm_dropped, _marked, _) = churn_ect(&mut q, ops);
    assert_eq!(accepted, accounted);
    assert_eq!(aqm_dropped, 0, "ECT traffic must be marked, not dropped");
    assert!(q.len_bytes().as_u64() <= 50_000);
    let mut scratch = Vec::new();
    while q
        .dequeue(SimTime::from_secs(10_000), &mut scratch)
        .is_some()
    {}
    assert_eq!(q.len_pkts(), 0);
    assert_eq!(q.len_bytes().as_u64(), 0);
}

#[test]
fn codel_conservation() {
    codel_conserves(RECORDED_OPS);
    for_each_case("codel_conservation", 64, |rng| codel_conserves(&ops(rng)));
}

#[test]
fn fq_codel_conservation() {
    fq_codel_conserves(RECORDED_OPS);
    for_each_case("fq_codel_conservation", 64, |rng| {
        fq_codel_conserves(&ops(rng))
    });
}

#[test]
fn codel_ecn_marks_conserve() {
    codel_ecn_marks_conserves(RECORDED_OPS);
    for_each_case("codel_ecn_marks_conserve", 64, |rng| {
        codel_ecn_marks_conserves(&ops(rng))
    });
}

#[test]
fn fq_codel_ecn_marks_conserve() {
    fq_codel_ecn_marks_conserves(RECORDED_OPS);
    for_each_case("fq_codel_ecn_marks_conserve", 64, |rng| {
        fq_codel_ecn_marks_conserves(&ops(rng))
    });
}

/// FQ-CoDel delivers every flow that has backlog within a bounded
/// number of dequeues (no starvation).
#[test]
fn fq_codel_no_starvation() {
    for_each_case("fq_codel_no_starvation", 64, |rng| {
        let heavy = rng.gen_range(10u64..60);
        let flows = rng.gen_range(2u32..6);
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
            assert!(seen.contains(&fl), "flow {} starved (saw {:?})", fl, seen);
        }
    });
}
