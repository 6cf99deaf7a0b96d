//! Property-based conservation tests: randomized scenario schedules run
//! against a checks-enabled sim, so the runtime invariant oracles — token
//! conservation across re-rates, queue byte accounting across limit
//! changes, packet conservation end to end — are exercised on inputs no
//! hand-written fixture would pick. A violated oracle panics mid-run, so
//! each property's "assertion" is mostly that the run completes at all;
//! the explicit asserts then confirm the oracles actually gathered
//! evidence and the endpoint accounting closes.

use gsrepro_netsim::apps::{CbrSource, SinkAgent};
use gsrepro_netsim::{FlowId, LinkSpec, NetworkBuilder, ScenarioSpec, Sim};
use gsrepro_simcore::rng::{for_each_case, Rng};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

const QUEUE_LIMIT: u64 = 50_000;

/// An overloaded two-node bottleneck (12 Mb/s offered into 10 Mb/s
/// shaped) with the invariant oracles armed — every scenario step lands
/// on a link with banked tokens and standing queue.
fn checked_sim(seed: u64, scenario: &ScenarioSpec) -> (Sim, FlowId) {
    let mut b = NetworkBuilder::new(seed).checks(true);
    let s = b.add_node("s");
    let c = b.add_node("c");
    let l = b.link(
        s,
        c,
        LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(QUEUE_LIMIT),
            SimDuration::from_millis(2),
        ),
    );
    b.link(c, s, LinkSpec::lan(SimDuration::from_millis(2)));
    let f = b.flow("x");
    let sink = b.add_agent(c, Box::new(SinkAgent::new()));
    b.add_agent(
        s,
        Box::new(CbrSource::new(
            f,
            c,
            sink,
            BitRate::from_mbps(12),
            Bytes(1200),
        )),
    );
    // The builder hands out LinkId(0) for the first link; rebuild the
    // scenario against it rather than threading the id out of the closure.
    let mut sim = b.build();
    let spec = ScenarioSpec {
        steps: scenario
            .steps
            .iter()
            .map(|st| gsrepro_netsim::ScenarioStep { link: l, ..*st })
            .collect(),
    };
    sim.apply_scenario(&spec);
    (sim, f)
}

/// Run to 10 s and return the endpoint digest used by the properties.
fn digest(seed: u64, scenario: &ScenarioSpec) -> (u64, u64, u64, u64, u64) {
    let (mut sim, f) = checked_sim(seed, scenario);
    sim.run_until(SimTime::from_secs(10));
    let st = sim.net.monitor().stats(f);
    let performed = sim.net.checks().performed();
    (
        st.sent_pkts,
        st.delivered_pkts,
        st.dropped_pkts(),
        sim.events_processed(),
        performed,
    )
}

/// Token-bucket credit is conserved across arbitrary rate re-shapes:
/// a random schedule of rate steps (including repeats at the same
/// instant) never forges or destroys tokens — the token-conservation
/// oracle audits every step and panics on the first discrepancy.
#[test]
fn rate_steps_conserve_tokens() {
    for_each_case("rate_steps_conserve_tokens", 32, |rng| {
        let n = rng.gen_range(1..8usize);
        let steps: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(100..9_000), rng.gen_range(1..30)))
            .collect();
        let seed = rng.gen_range(0u64..1_000);
        let mut spec = ScenarioSpec::new();
        for &(at_ms, mbps) in &steps {
            spec = spec.rate(
                SimTime::from_millis(at_ms),
                gsrepro_netsim::LinkId(0),
                BitRate::from_mbps(mbps),
            );
        }
        let (sent, delivered, dropped, events, performed) = digest(seed, &spec);
        // The oracles ran (clock checks alone are ~1/event) and the run
        // did real work through every re-rate.
        assert!(performed > 1_000, "only {performed} checks ran");
        assert!(events > 0);
        assert!(delivered > 0, "no packets survived the schedule");
        // Endpoint conservation: nothing materializes from nowhere. The
        // strict identity (with in-flight) is the oracle's job per event;
        // at the endpoint the inequality must close without duplication.
        assert!(
            delivered + dropped <= sent,
            "delivered {delivered} + dropped {dropped} > sent {sent}"
        );
        // Determinism: the same schedule and seed replays bit-identically.
        assert_eq!(
            digest(seed, &spec),
            (sent, delivered, dropped, events, performed)
        );
    });
}

/// Queue-limit shrinks evict newest-first without losing track of a
/// byte: random shrink/restore schedules keep the queue-bound oracle
/// (len_bytes ≤ limit, per event) and the packet-conservation oracle
/// (evictions counted as queue drops) satisfied throughout.
#[test]
fn queue_limit_steps_conserve_bytes() {
    for_each_case("queue_limit_steps_conserve_bytes", 32, |rng| {
        let n = rng.gen_range(1..8usize);
        let steps: Vec<(u64, u64)> = (0..n)
            .map(|_| (rng.gen_range(100..9_000), rng.gen_range(2_000..60_000)))
            .collect();
        let seed = rng.gen_range(0u64..1_000);
        let mut spec = ScenarioSpec::new();
        for &(at_ms, limit) in &steps {
            spec = spec.queue_limit(
                SimTime::from_millis(at_ms),
                gsrepro_netsim::LinkId(0),
                Bytes(limit),
            );
        }
        let (sent, delivered, dropped, _events, performed) = digest(seed, &spec);
        assert!(performed > 1_000, "only {performed} checks ran");
        // 12 Mb/s into 10 Mb/s keeps a standing queue, so shrinks below
        // the standing depth evict and overload drops occur regardless.
        assert!(dropped > 0, "overloaded bottleneck never dropped");
        assert!(
            delivered + dropped <= sent,
            "delivered {delivered} + dropped {dropped} > sent {sent}"
        );
    });
}

/// End-to-end regression for the FQ-CoDel `set_byte_limit` aggregate fix:
/// a scenario queue-limit shrink on a multi-flow FQ-CoDel bottleneck runs
/// with the oracles armed. The queue-bound oracle audits
/// `len_bytes ≤ limit` on every event, so a discipline that hands each
/// sub-flow the full shared limit (the old bug: two flows could hold
/// 2 × limit in aggregate after a shrink) panics mid-run instead of
/// silently over-buffering.
#[test]
fn fq_codel_scenario_queue_limit_shrink_stays_checked() {
    let mut b = NetworkBuilder::new(11).checks(true);
    let s = b.add_node("s");
    let c = b.add_node("c");
    let mut spec = LinkSpec::bottleneck(
        BitRate::from_mbps(10),
        Bytes(QUEUE_LIMIT),
        SimDuration::from_millis(2),
    );
    spec.queue = gsrepro_netsim::QueueSpec::fq_codel_default(Bytes(QUEUE_LIMIT));
    let l = b.link(s, c, spec);
    b.link(c, s, LinkSpec::lan(SimDuration::from_millis(2)));
    // Two competing flows so the shared limit is genuinely split across
    // sub-queues when the shrink lands.
    let sink = b.add_agent(c, Box::new(SinkAgent::new()));
    let f1 = b.flow("a");
    let f2 = b.flow("b");
    b.add_agent(
        s,
        Box::new(CbrSource::new(
            f1,
            c,
            sink,
            BitRate::from_mbps(7),
            Bytes(1200),
        )),
    );
    b.add_agent(
        s,
        Box::new(CbrSource::new(
            f2,
            c,
            sink,
            BitRate::from_mbps(7),
            Bytes(1200),
        )),
    );
    let mut sim = b.build();
    // Shrink far below the standing backlog mid-run, then restore: the
    // shrink must evict down to the new aggregate and admission must obey
    // it until the restore.
    sim.apply_scenario(
        &ScenarioSpec::new()
            .queue_limit(SimTime::from_secs(3), l, Bytes(4_000))
            .queue_limit(SimTime::from_secs(6), l, Bytes(QUEUE_LIMIT)),
    );
    sim.run_until(SimTime::from_secs(10));
    let performed = sim.net.checks().performed();
    assert!(performed > 1_000, "only {performed} checks ran");
    let (s1, s2) = (sim.net.monitor().stats(f1), sim.net.monitor().stats(f2));
    assert!(s1.delivered_pkts > 0 && s2.delivered_pkts > 0);
    // 14 Mb/s into 10 Mb/s with a 4 kB dip guarantees queue drops — the
    // conservation oracle has real evictions to account for.
    assert!(s1.queue_drop_pkts + s2.queue_drop_pkts > 0);
    for st in [&s1, &s2] {
        assert!(
            st.delivered_pkts + st.dropped_pkts() <= st.sent_pkts,
            "endpoint conservation must close"
        );
    }
}
