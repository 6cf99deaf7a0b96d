//! Each layer alone, driven through its public functions with synthetic
//! input: host nanoseconds per operation. These do not depend on the
//! workload; they say what one operation costs, and the per-workload counts
//! in [`crate::layers`] say how many of them a workload performs.

use std::hint::black_box;
use std::time::Instant;

use gsrepro_gamestream::profile::ControllerKind;
use gsrepro_gamestream::{FeedbackSnapshot, SystemKind, SystemProfile};
use gsrepro_netsim::apps::{CbrSource, SinkAgent};
use gsrepro_netsim::queue::{QueueSpec, QueuedPkt};
use gsrepro_netsim::wire::{Ecn, FlowId, PktRef};
use gsrepro_netsim::{AgentId, LinkSpec, NetworkBuilder};
use gsrepro_simcore::engine::{Engine, Scheduler, World};
use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
use gsrepro_tcp::{AckInfo, CcaKind, TcpReceiver, TcpSender, TcpSenderConfig};
use gsrepro_testbed::config::EQUALIZED_RTT;
use gsrepro_testbed::runner::run_jobs;
use gsrepro_testbed::MetricSketch;

use crate::stats::median;

/// How hard each microbenchmark works: the median of `reps` repetitions of
/// `ops` operations (or `sim_secs` simulated seconds) is reported.
#[derive(Clone, Copy, Debug)]
pub struct Effort {
    pub reps: usize,
    pub ops: u64,
    pub sim_secs: u64,
}

impl Effort {
    pub fn new(smoke: bool) -> Effort {
        if smoke {
            Effort {
                reps: 1,
                ops: 50_000,
                sim_secs: 3,
            }
        } else {
            Effort {
                reps: 3,
                ops: 1_000_000,
                sim_secs: 60,
            }
        }
    }
}

fn median_ns_per_op(reps: usize, ops: u64, mut rep: impl FnMut()) -> f64 {
    let ns: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            rep();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&ns).expect("at least one repetition")
}

/// xorshift64*: spreads synthetic timestamps and sizes, nothing more.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// The delay mix of a paper run, as `sched_bench` draws it: same-instant
    /// loopbacks, sub-millisecond shaper wake-ups, propagation delays, and
    /// RTO-scale timers.
    fn delay(&mut self) -> SimDuration {
        let r = self.next();
        SimDuration::from_nanos(match r % 100 {
            0..=9 => 0,
            10..=29 => 1_000 + r % 1_000_000,
            30..=84 => 5_000_000 + r % 25_000_000,
            _ => 200_000_000 + r % 800_000_000,
        })
    }
}

/// A world whose events do nothing, so the scheduler is all that runs.
struct Idle;

impl World for Idle {
    type Event = u64;
    fn handle(&mut self, _event: u64, _sched: &mut Scheduler<u64>) {}
}

/// Events pending in the steady state. The slab high-water mark of the
/// paper conditions is 31-91, so 64, not `sched_bench`'s 600.
const BACKLOG: u64 = 64;

/// One pop and one schedule at a standing backlog.
pub fn schedule_pop_ns(e: Effort) -> f64 {
    median_ns_per_op(e.reps, e.ops, || {
        let mut eng: Engine<Idle> = Engine::new();
        let mut mix = Mix(7);
        for i in 0..BACKLOG {
            eng.scheduler().schedule_in(mix.delay(), i);
        }
        for i in 0..e.ops {
            eng.step(&mut Idle);
            eng.scheduler().schedule_in(mix.delay(), i);
        }
        black_box(eng.events_processed());
    })
}

/// Arm an RTO-scale timer and cancel it at once.
pub fn cancel_ns(e: Effort) -> f64 {
    median_ns_per_op(e.reps, e.ops, || {
        let mut eng: Engine<Idle> = Engine::new();
        let mut mix = Mix(11);
        for i in 0..e.ops {
            let d = SimDuration::from_nanos(200_000_000 + mix.next() % 800_000_000);
            let h = eng.scheduler().schedule_cancellable_in(d, i);
            black_box(eng.scheduler().cancel(h));
        }
    })
}

const RATE: BitRate = BitRate::from_mbps(25);
const PKT: Bytes = Bytes(1200);

fn two_bdp() -> Bytes {
    RATE.bdp(EQUALIZED_RTT).mul_f64(2.0)
}

/// One enqueue and its share of dequeues at a standing queue of twice the
/// BDP in 1200 B packets of two flows, the clock advancing by one
/// transmission time per dequeue. CoDel and FQ-CoDel see a sojourn far over
/// target and drop; the queue is topped up again, so drops are part of the
/// cost, as they are on a loaded link.
pub fn queue_enq_deq_ns(spec: &QueueSpec, e: Effort) -> f64 {
    median_ns_per_op(e.reps, e.ops, || {
        let mut q = spec.build();
        let mut dropped = Vec::new();
        let standing = two_bdp();
        let step = RATE.tx_time(PKT);
        let mut now = SimTime::from_secs(1);
        let mut sent = 0u64;
        while sent < e.ops {
            while q.len_bytes() < standing && sent < e.ops {
                let item = QueuedPkt {
                    pkt: PktRef(sent as u32),
                    size: PKT,
                    flow: FlowId((sent % 2) as u32),
                    ecn: Ecn::NotEct,
                    enqueued_at: now,
                };
                black_box(q.enqueue(item, now).is_ok());
                sent += 1;
            }
            now += step;
            black_box(q.dequeue(now, &mut dropped));
            dropped.clear();
        }
    })
}

/// The queue a condition of that discipline gets at 25 Mb/s: room for the
/// standing load and as much again.
pub fn queue_specs() -> [(&'static str, QueueSpec); 3] {
    let limit = two_bdp().mul_f64(2.0);
    [
        ("droptail", QueueSpec::DropTail { limit }),
        ("codel", QueueSpec::codel_default(limit)),
        ("fqcodel", QueueSpec::fq_codel_default(limit)),
    ]
}

fn bottleneck_pair(b: &mut NetworkBuilder) -> (gsrepro_netsim::NodeId, gsrepro_netsim::NodeId) {
    let src = b.add_node("src");
    let dst = b.add_node("dst");
    let half = EQUALIZED_RTT / 2;
    b.link(src, dst, LinkSpec::bottleneck(RATE, two_bdp(), half));
    b.link(dst, src, LinkSpec::lan(half));
    (src, dst)
}

/// A constant-bit-rate source just under capacity through the shaped link
/// into a sink: host time per delivered packet.
pub fn cbr_ns_per_pkt(e: Effort) -> f64 {
    let mut delivered = 0;
    let total_ns = median_ns_per_op(e.reps, 1, || {
        let mut b = NetworkBuilder::new(1);
        let (src, dst) = bottleneck_pair(&mut b);
        let flow = b.flow("cbr");
        let sink = b.add_agent(dst, Box::new(SinkAgent::new()));
        let rate = RATE.mul_f64(0.96);
        b.add_agent(src, Box::new(CbrSource::new(flow, dst, sink, rate, PKT)));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(e.sim_secs));
        delivered = sim.net.agent::<SinkAgent>(sink).received_pkts();
    });
    total_ns / delivered as f64
}

/// One Cubic bulk flow alone on 25 Mb/s and twice the BDP: host time per
/// engine event of the TCP endpoints and the link.
pub fn tcp_bulk_ns_per_event(e: Effort) -> f64 {
    let mut events = 0;
    let total_ns = median_ns_per_op(e.reps, 1, || {
        let mut b = NetworkBuilder::new(2);
        let (src, dst) = bottleneck_pair(&mut b);
        let data = b.flow("bulk");
        let acks = b.flow("bulk-ack");
        // Ids follow insertion order: the sender is agent 0, its peer 1.
        let cfg = TcpSenderConfig::new(data, dst, AgentId(1), CcaKind::Cubic);
        let sender = b.add_agent(src, Box::new(TcpSender::new(cfg)));
        b.add_agent(dst, Box::new(TcpReceiver::new(acks, src, sender)));
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(e.sim_secs));
        events = sim.events_processed();
        black_box(sim.net.agent::<TcpSender>(sender).delivered_bytes());
    });
    total_ns / events as f64
}

pub const CCAS: [CcaKind; 5] = [
    CcaKind::Reno,
    CcaKind::Cubic,
    CcaKind::Bbr,
    CcaKind::Bbr2,
    CcaKind::Vegas,
];

/// `on_ack` in steady state: one MSS per ack, a round of one window, a
/// congestion event every 1000 acks.
pub fn cca_on_ack_ns(kind: CcaKind, e: Effort) -> f64 {
    const MSS: u64 = 1448;
    median_ns_per_op(e.reps, e.ops, || {
        let mut cca = kind.build(MSS);
        let rtt = EQUALIZED_RTT;
        let (mut now, mut round, mut delivered, mut left_in_round) =
            (SimTime::ZERO, 0u64, 0u64, 0u64);
        for i in 0..e.ops {
            let round_start = left_in_round == 0;
            if round_start {
                round += 1;
                now += rtt;
                left_in_round = (cca.cwnd() / MSS).max(1);
            }
            left_in_round -= 1;
            delivered += MSS;
            let in_flight = cca.cwnd().saturating_sub(MSS);
            cca.on_ack(&AckInfo {
                now,
                bytes_acked: MSS,
                rtt: Some(rtt),
                srtt: rtt,
                min_rtt: rtt,
                delivered,
                delivery_rate: Some(RATE),
                in_flight,
                round_start,
                round,
                app_limited: false,
            });
            if i % 1000 == 999 {
                cca.on_congestion_event(now, in_flight);
            }
        }
        black_box(cca.cwnd());
    })
}

pub const CONTROLLERS: [(&str, ControllerKind); 3] = [
    ("gcc", ControllerKind::Gcc),
    ("delay", ControllerKind::DelayConservative),
    ("tfrc", ControllerKind::Tfrc),
];

/// `on_feedback` fed a sawtooth: the queue builds for 40 reports, the
/// 41st carries loss, then it drains — so every controller both climbs and
/// backs off.
pub fn controller_on_feedback_ns(kind: ControllerKind, e: Effort) -> f64 {
    median_ns_per_op(e.reps, e.ops, || {
        let mut ctrl = SystemProfile::new(SystemKind::Stadia)
            .with_controller(kind)
            .build_controller();
        let base = EQUALIZED_RTT / 2;
        let mut now = SimTime::ZERO;
        for i in 0..e.ops {
            let tooth = i % 50;
            let queue_ms = if tooth <= 40 { tooth / 2 } else { 0 };
            now += SimDuration::from_millis(100);
            let owd = base + SimDuration::from_millis(queue_ms);
            black_box(ctrl.on_feedback(
                &FeedbackSnapshot {
                    recv_rate: ctrl.current(),
                    loss: if tooth == 41 { 0.05 } else { 0.0 },
                    owd,
                    owd_min: base,
                    trend_ms_per_s: if tooth <= 40 { 5.0 } else { -20.0 },
                    rtt: owd + base,
                },
                now,
            ));
            while ctrl.poll_event().is_some() {}
        }
    })
}

/// `next_frame` of Stadia's frame source at a fixed target rate.
pub fn next_frame_ns(e: Effort) -> f64 {
    median_ns_per_op(e.reps, e.ops, || {
        let mut src = SystemProfile::new(SystemKind::Stadia).build_source(3, stream_id("frames"));
        let target = BitRate::from_mbps(20);
        for _ in 0..e.ops {
            black_box(src.next_frame(target));
        }
    })
}

/// The percentile sketch: `(add ns, merge µs, quantile ns, serialize µs)`.
pub fn sketch_costs(e: Effort) -> (f64, f64, f64, f64) {
    // A merge or a serialisation walks every bucket, so they get fewer
    // repetitions than a single add.
    let (adds, quantiles, merges) = (e.ops, e.ops / 5, e.ops / 500);
    let filled = || {
        let (mut s, mut mix) = (MetricSketch::new(), Mix(5));
        for _ in 0..10_000 {
            s.add((mix.next() % 30_000) as f64 / 1000.0);
        }
        s
    };
    let add = median_ns_per_op(e.reps, adds, || {
        let (mut s, mut mix) = (MetricSketch::new(), Mix(5));
        for _ in 0..adds {
            s.add((mix.next() % 30_000) as f64 / 1000.0);
        }
        black_box(s.count());
    });
    let part = filled();
    let merge = median_ns_per_op(e.reps, merges, || {
        let mut total = MetricSketch::new();
        for _ in 0..merges {
            total.merge(&part);
        }
        black_box(total.count());
    });
    let quantile = median_ns_per_op(e.reps, quantiles, || {
        for i in 0..quantiles {
            black_box(part.quantile((i % 100) as f64 / 100.0));
        }
    });
    let serialize = median_ns_per_op(e.reps, merges, || {
        for _ in 0..merges {
            black_box(part.serialize());
        }
    });
    (add, merge / 1e3, quantile, serialize / 1e3)
}

/// `run_jobs` over 10 000 empty jobs on two threads: what the work-stealing
/// scheduler itself costs, in microseconds for the lot.
pub fn jobs_overhead_us(e: Effort) -> f64 {
    median_ns_per_op(e.reps, 1, || {
        let out = run_jobs(10_000, 2, |j| j, |_| String::new());
        black_box(out.map_or(0, |v| v.len()));
    }) / 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delay_mix_covers_lane_wheel_and_timer_ranges() {
        let mut mix = Mix(7);
        let d: Vec<u64> = (0..1000).map(|_| mix.delay().as_nanos()).collect();
        assert!(d.contains(&0));
        assert!(d.iter().any(|&n| (1_000..1_001_000).contains(&n)));
        assert!(d.iter().any(|&n| n >= 200_000_000));
    }

    #[test]
    fn standing_queue_is_twice_the_bdp_and_fits_every_discipline() {
        assert_eq!(two_bdp(), Bytes(103_124));
        for (_, spec) in queue_specs() {
            let q = spec.build();
            assert!(q.capacity_bytes().unwrap() >= two_bdp());
        }
    }
}
