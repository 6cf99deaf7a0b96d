//! Edge-case semantics of [`ScenarioSpec`] (documented in the module
//! docs of `scenario.rs`) and validity of chaos-generated schedules.
//!
//! Three edge cases get pinned semantics: zero-duration windows are
//! no-ops, overlapping windows are last-writer-wins (the first close
//! resets the value), and steps scheduled in the past clamp to "now".
//! Inputs with *no* sane semantics — probabilities outside [0, 1], a
//! zero shaped rate — are rejected as structured errors before anything
//! is scheduled, instead of tripping a link-layer assertion mid-run.

use gsrepro_netsim::apps::{CbrSource, SinkAgent};
use gsrepro_netsim::{
    FlowId, LinkId, LinkProfile, LinkSpec, NetworkBuilder, ScenarioGen, ScenarioSpec, Sim,
};
use gsrepro_simcore::rng::{for_each_case, rng_for, Rng};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimError, SimTime};

/// 12 Mb/s CBR into a 10 Mb/s bottleneck: a standing queue and steady
/// deliveries, so every disturbance has traffic to act on.
fn overloaded_sim(seed: u64) -> (Sim, FlowId, LinkId) {
    let mut b = NetworkBuilder::new(seed);
    let s = b.add_node("s");
    let c = b.add_node("c");
    let l = b.link(
        s,
        c,
        LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(50_000),
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
    (b.build(), f, l)
}

#[test]
fn zero_duration_outage_is_a_no_op() {
    let (mut plain, f, _) = overloaded_sim(7);
    plain.run_until(SimTime::from_secs(5));
    let baseline = plain.net.monitor().stats(f).delivered_pkts;

    let (mut sim, f, l) = overloaded_sim(7);
    sim.apply_scenario(&ScenarioSpec::new().outage(
        SimTime::from_secs(2),
        SimTime::from_secs(2),
        l,
    ));
    sim.run_until(SimTime::from_secs(5));
    let st = sim.net.monitor().stats(f);
    // Down and up apply back-to-back at the same instant, in FIFO order:
    // no packet can observe the outage, so deliveries are unchanged.
    assert_eq!(st.delivered_pkts, baseline);
    assert_eq!(st.link_drop_pkts, 0, "zero-duration outage dropped packets");
}

#[test]
fn overlapping_loss_windows_are_last_writer_wins() {
    // Windows [1 s, 3 s] and [2 s, 5 s], both total loss. Every step sets
    // an absolute probability, so the first window's close (p = 0 at 3 s)
    // wins even though the second window claims to be open until 5 s.
    let (mut sim, f, l) = overloaded_sim(11);
    sim.apply_scenario(
        &ScenarioSpec::new()
            .loss_window(SimTime::from_secs(1), SimTime::from_secs(3), l, 1.0)
            .loss_window(SimTime::from_secs(2), SimTime::from_secs(5), l, 1.0),
    );
    sim.run_until(SimTime::from_secs(6));
    let st = sim.net.monitor().stats(f);
    // Inside the union of the opens (past the in-flight edge bin),
    // everything is lost...
    let lost_window = st.delivered_bins.mean_over(
        SimTime::from_millis(1_500),
        SimTime::from_millis(2_900),
        1.0,
    );
    assert_eq!(lost_window, 0.0, "total-loss window leaked deliveries");
    // ...but after the first close the link must deliver again, well
    // before the second window's close at 5 s.
    let revived = st.delivered_bins.mean_over(
        SimTime::from_millis(3_200),
        SimTime::from_millis(4_800),
        1.0,
    );
    assert!(
        revived > 0.0,
        "first window's close must reset loss to 0 (last-writer-wins)"
    );
}

#[test]
fn past_steps_clamp_to_now_and_are_counted() {
    let (mut sim, f, l) = overloaded_sim(13);
    sim.run_until(SimTime::from_secs(5));
    assert_eq!(sim.past_clamps(), 0);
    // A step "at 1 s" applied when the clock reads 5 s: clamped to now.
    sim.apply_scenario(&ScenarioSpec::new().rate(SimTime::from_secs(1), l, BitRate::from_mbps(2)));
    sim.run_until(SimTime::from_secs(8));
    assert!(sim.past_clamps() >= 1, "past schedule was not counted");
    assert_eq!(
        sim.net.link(l).rate(),
        Some(BitRate::from_mbps(2)),
        "clamped step must still apply"
    );
    // The crash throttles deliveries after the clamp: evidence it took
    // effect at ~5 s rather than being silently dropped.
    let st = sim.net.monitor().stats(f);
    let before = st
        .delivered_bins
        .mean_over(SimTime::from_secs(3), SimTime::from_secs(5), 1.0);
    let after = st
        .delivered_bins
        .mean_over(SimTime::from_secs(6), SimTime::from_secs(8), 1.0);
    assert!(
        after < before / 2.0,
        "2 Mb/s crash must throttle deliveries"
    );
}

#[test]
fn invalid_probabilities_and_rates_are_rejected_structurally() {
    let l = LinkId(0);
    for (spec, what) in [
        (
            ScenarioSpec::new().loss_window(SimTime::ZERO, SimTime::from_secs(1), l, 1.5),
            "loss probability 1.5",
        ),
        (
            ScenarioSpec::new().loss_window(SimTime::ZERO, SimTime::from_secs(1), l, f64::NAN),
            "NaN loss probability",
        ),
        (
            ScenarioSpec::new().duplication_window(SimTime::ZERO, SimTime::from_secs(1), l, -0.1),
            "negative duplication probability",
        ),
        (
            ScenarioSpec::new().rate(SimTime::from_secs(1), l, BitRate::ZERO),
            "zero shaped rate",
        ),
    ] {
        let err = spec.validate().expect_err(what);
        assert!(matches!(err, SimError::InvalidScenario { .. }), "{what}");
        // The Sim-level entry point refuses before scheduling anything.
        let (mut sim, _, _) = overloaded_sim(1);
        assert!(sim.try_apply_scenario(&spec).is_err(), "{what}");
    }
}

#[test]
fn steps_on_a_missing_link_are_rejected_structurally() {
    let (mut sim, f, _) = overloaded_sim(1);
    // The network has links 0 and 1; scheduling a step on link 99 would
    // index out of bounds when it fires.
    let spec = ScenarioSpec::new().outage(SimTime::from_secs(1), SimTime::from_secs(2), LinkId(99));
    assert!(spec.validate().is_ok(), "validate alone knows no network");
    let err = sim
        .try_apply_scenario(&spec)
        .expect_err("link 99 does not exist");
    assert_eq!(
        err,
        SimError::InvalidScenario {
            detail: "step 0 (link 99 at t=1000000000ns): no such link (the network has 2)".into()
        }
    );
    // Nothing was scheduled: the run is the plain one.
    sim.run_until(SimTime::from_secs(3));
    let (mut plain, f2, _) = overloaded_sim(1);
    plain.run_until(SimTime::from_secs(3));
    assert_eq!(
        sim.net.monitor().stats(f).delivered_pkts,
        plain.net.monitor().stats(f2).delivered_pkts
    );
}

#[test]
#[should_panic(expected = "ends before it starts")]
fn inverted_windows_are_rejected_at_build_time() {
    let _ = ScenarioSpec::new().outage(SimTime::from_secs(2), SimTime::from_secs(1), LinkId(0));
}

/// Chaos-generated schedules are always valid `ScenarioSpec`s: every
/// sample passes `validate()`, stays inside the horizon, respects
/// per-link capabilities (no rate/queue steps on unshaped links),
/// and reproduces bit-identically from its seed.
#[test]
fn generated_schedules_are_always_valid() {
    for_each_case("generated_schedules_are_always_valid", 64, |rng| {
        let seed = rng.gen_range(0u64..10_000);
        let horizon_secs = rng.gen_range(1u64..60);
        let max_disturbances = rng.gen_range(1usize..12);
        let gen = ScenarioGen {
            horizon: SimTime::from_secs(horizon_secs),
            max_disturbances,
            links: vec![
                LinkProfile::shaped(LinkId(4), BitRate::from_mbps(25), Bytes(100_000)),
                LinkProfile::plain(LinkId(0)),
            ],
        };
        let spec = gen.sample(&mut rng_for(seed, 0));
        assert!(spec.validate().is_ok(), "invalid spec from seed {seed}");
        assert!(!spec.steps.is_empty());
        assert!(spec.steps.len() <= 2 * max_disturbances);
        for st in &spec.steps {
            assert!(st.at < SimTime::from_secs(horizon_secs).max(SimTime::from_nanos(2 << 16)));
            if st.link == LinkId(0) {
                assert!(
                    !matches!(
                        st.action,
                        gsrepro_netsim::ScenarioAction::Rate(_)
                            | gsrepro_netsim::ScenarioAction::QueueLimit(_)
                    ),
                    "unshaped link got a shaped-only action"
                );
            }
        }
        // Same seed, same schedule — the repro contract.
        assert_eq!(gen.sample(&mut rng_for(seed, 0)), spec);
    });
}
