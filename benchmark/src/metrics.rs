//! Every metric the benchmark can print: name, unit, direction and, for the
//! end-to-end ones, the bound by which a later change may worsen it.
//!
//! `BENCHMARK.json` declares the subset that every workload reports (the
//! driver's contract wants one flat list); the rest are reported by the one
//! workload that can measure them and are omitted elsewhere, never zero.

use crate::workload::{single_thread_conditions, Workload};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Measured by `bench`, tracing off.
    EndToEnd,
    /// Measured by `bench-layers`.
    Layer,
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse. `Some(0.0)` is an exact metric: any worsening is a regression.
    pub bound: Option<f64>,
    /// A count that repeats bit for bit at a fixed seed.
    pub exact: bool,
    /// `None`: every workload reports it (and `BENCHMARK.json` declares it).
    pub only: Option<Workload>,
}

impl MetricDef {
    pub fn reported_by(&self, w: Workload) -> bool {
        self.only.is_none_or(|o| o == w)
    }
}

use Better::{Higher, Lower};

fn e2e(name: &str, unit: &'static str, better: Better, bound: f64) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        kind: Kind::EndToEnd,
        bound: Some(bound),
        exact: bound == 0.0,
        only: None,
    }
}

fn layer(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        better,
        kind: Kind::Layer,
        bound: None,
        exact: false,
        only: None,
    }
}

fn exact(name: &str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef {
        exact: true,
        ..layer(name, unit, better)
    }
}

fn only(w: Workload, def: MetricDef) -> MetricDef {
    MetricDef {
        only: Some(w),
        ..def
    }
}

/// Name of a condition's own throughput entry in the ledger.
pub fn cond_metric(label: &str) -> String {
    format!("testbed.cond.{label}.sim_s_per_wall_s")
}

pub fn registry() -> Vec<MetricDef> {
    use Workload::{AqmDynamic, Contested, FleetShort, ReproGrid};
    let mut defs = vec![
        // End to end. The speed bounds sit at the contract's ceiling: on the
        // shared host this was built on, ten runs spread by 3-5 % in a calm
        // hour and by two to three times that in a bad one (README, "Why
        // the fastest run"). A bound is what a single median may lose; a
        // claim is settled by pairs and by the exact counters.
        e2e("setup_s", "s", Lower, 0.25),
        e2e("sim_s_per_wall_s", "sim_s/s", Higher, 0.25),
        e2e("min_cond_sim_s_per_wall_s", "sim_s/s", Higher, 0.25),
        e2e("peak_rss_mb", "MB", Lower, 0.2),
        only(ReproGrid, e2e("claims_pass_frac", "frac", Higher, 0.0)),
        // simcore
        layer("simcore.engine.ns_per_event", "ns", Lower),
        exact("simcore.engine.events_per_sim_s", "1/sim_s", Lower),
        layer("simcore.engine.events_per_s", "1/s", Higher),
        exact("simcore.sched.lane_share", "frac", Higher),
        exact("simcore.sched.wheel_share", "frac", Lower),
        exact("simcore.sched.cascades_per_event", "count", Lower),
        exact("simcore.sched.overflow_scheduled", "count", Lower),
        exact("simcore.sched.cancelled", "count", Lower),
        exact("simcore.sched.slab_high_watermark", "count", Lower),
        layer("simcore.sched.schedule_pop_ns", "ns", Lower),
        layer("simcore.sched.cancel_ns", "ns", Lower),
        layer("simcore.sched.est_share", "frac", Lower),
        only(
            Contested,
            layer("simcore.checks.overhead_frac", "frac", Lower),
        ),
        only(
            Contested,
            layer("simcore.watchdog.overhead_frac", "frac", Lower),
        ),
        only(
            Contested,
            layer("simcore.telemetry.overhead_frac", "frac", Lower),
        ),
        // netsim
        layer("netsim.queue.droptail.enq_deq_ns", "ns", Lower),
        layer("netsim.queue.codel.enq_deq_ns", "ns", Lower),
        layer("netsim.queue.fqcodel.enq_deq_ns", "ns", Lower),
        layer("netsim.link.cbr_ns_per_pkt", "ns", Lower),
        exact("netsim.net.pkts_per_sim_s", "1/sim_s", Lower),
        exact("netsim.queue.drops_per_sim_s", "1/sim_s", Lower),
        exact("netsim.queue.ce_marks_per_sim_s", "1/sim_s", Lower),
        exact("netsim.link.drops_per_sim_s", "1/sim_s", Lower),
        // tcp
        layer("tcp.cca.reno.on_ack_ns", "ns", Lower),
        layer("tcp.cca.cubic.on_ack_ns", "ns", Lower),
        layer("tcp.cca.bbr.on_ack_ns", "ns", Lower),
        layer("tcp.cca.bbr2.on_ack_ns", "ns", Lower),
        layer("tcp.cca.vegas.on_ack_ns", "ns", Lower),
        layer("tcp.endpoint.bulk_ns_per_event", "ns", Lower),
        exact("tcp.endpoint.retx_per_sim_s", "1/sim_s", Lower),
        // gamestream
        layer("gamestream.controller.gcc.on_feedback_ns", "ns", Lower),
        layer("gamestream.controller.delay.on_feedback_ns", "ns", Lower),
        layer("gamestream.controller.tfrc.on_feedback_ns", "ns", Lower),
        layer("gamestream.frame.next_frame_ns", "ns", Lower),
        // testbed
        layer("testbed.topology.build_us", "us", Lower),
        exact("testbed.topology.build_allocs", "count", Lower),
        layer("testbed.topology.drop_us", "us", Lower),
        layer("testbed.runner.to_result_us", "us", Lower),
        layer("testbed.campaign.fleet_sample_us", "us", Lower),
        exact("testbed.runner.simulate_allocs_per_sim_s", "1/sim_s", Lower),
        exact(
            "testbed.runner.simulate_alloc_bytes_per_sim_s",
            "B/sim_s",
            Lower,
        ),
        layer("testbed.runner.phase_pre_ns_per_event", "ns", Lower),
        layer("testbed.runner.phase_contested_ns_per_event", "ns", Lower),
        layer("testbed.runner.phase_post_ns_per_event", "ns", Lower),
        exact(
            "testbed.runner.phase_pre_events_per_sim_s",
            "1/sim_s",
            Lower,
        ),
        exact(
            "testbed.runner.phase_contested_events_per_sim_s",
            "1/sim_s",
            Lower,
        ),
        layer("testbed.runner.jobs_overhead_us", "us", Lower),
        layer("testbed.sketch.add_ns", "ns", Lower),
        layer("testbed.sketch.merge_us", "us", Lower),
        layer("testbed.sketch.quantile_ns", "ns", Lower),
        layer("testbed.sketch.serialize_us", "us", Lower),
        only(
            AqmDynamic,
            layer("testbed.chaos.trials_per_s", "1/s", Higher),
        ),
        only(
            FleetShort,
            layer("testbed.campaign.sessions_per_s", "1/s", Higher),
        ),
        only(
            FleetShort,
            layer("testbed.campaign.scaling_2t", "ratio", Higher),
        ),
        only(
            FleetShort,
            layer("testbed.campaign.non_sim_frac", "frac", Lower),
        ),
        only(
            FleetShort,
            layer("testbed.campaign.manifest_overhead_frac", "frac", Lower),
        ),
        only(
            ReproGrid,
            layer("testbed.runner.worker_utilisation", "frac", Higher),
        ),
        only(ReproGrid, layer("testbed.grid.solo_wall_s", "s", Lower)),
        only(ReproGrid, layer("testbed.grid.full_wall_s", "s", Lower)),
        only(
            ReproGrid,
            layer("testbed.experiments.analysis_ms", "ms", Lower),
        ),
        only(
            ReproGrid,
            exact("testbed.scorecard.claims_pass", "count", Higher),
        ),
        only(
            ReproGrid,
            exact("testbed.scorecard.claims_partial", "count", Lower),
        ),
        only(
            ReproGrid,
            exact("testbed.scorecard.claims_fail", "count", Lower),
        ),
        // the benchmark itself
        layer("benchmark.trace_overhead_frac", "frac", Lower),
    ];
    for w in [Workload::Solo, Contested, AqmDynamic] {
        for c in single_thread_conditions(w, 1.0) {
            defs.push(only(w, layer(&cond_metric(&c.label()), "sim_s/s", Higher)));
        }
    }
    defs
}

/// The definitions workload `w` reports in mode `kind`, in registry order.
pub fn reported(w: Workload, kind: Kind) -> Vec<MetricDef> {
    registry()
        .into_iter()
        .filter(|d| d.kind == kind && d.reported_by(w))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{parse, Value};
    use std::collections::HashSet;

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let defs = registry();
        let names: HashSet<_> = defs.iter().map(|d| &d.name).collect();
        assert_eq!(names.len(), defs.len(), "duplicate metric name");
        let ok = |s: &str, extra: &str| {
            s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
        };
        for d in &defs {
            // The driver's length limit binds only what BENCHMARK.json
            // declares; a condition label can run longer.
            assert!(d.name.len() <= 64 || d.only.is_some(), "{}", d.name);
            assert!(ok(&d.name, "_.-"), "{}", d.name);
            assert!(d.unit.len() <= 16 && ok(d.unit, "_/%.-"), "{}", d.unit);
            assert_eq!(d.bound.is_some(), d.kind == Kind::EndToEnd, "{}", d.name);
        }
    }

    #[test]
    fn ledger_has_one_entry_per_single_thread_condition() {
        let n = registry()
            .iter()
            .filter(|d| d.name.starts_with("testbed.cond."))
            .count();
        assert_eq!(n, 14);
        assert!(reported(Workload::Solo, Kind::Layer)
            .iter()
            .any(|d| d.name == cond_metric("luna-solo-b15-q0.5")));
        assert!(!reported(Workload::FleetShort, Kind::Layer)
            .iter()
            .any(|d| d.name.starts_with("testbed.cond.")));
    }

    /// `BENCHMARK.json` must declare exactly the metrics every workload
    /// reports, with this registry's units, directions and bounds.
    #[test]
    fn benchmark_json_declares_the_common_metrics() {
        let doc = parse(include_str!("../../BENCHMARK.json")).unwrap();
        let declared =
            |key: &str| -> Vec<Value> { doc.get(key).unwrap().as_arr().unwrap().to_vec() };
        let expect = |kind: Kind| -> Vec<Value> {
            registry()
                .into_iter()
                .filter(|d| d.kind == kind && d.only.is_none())
                .map(|d| {
                    let mut fields = vec![
                        ("name", Value::str(d.name)),
                        ("unit", Value::str(d.unit)),
                        ("better", Value::str(d.better.label())),
                    ];
                    if let Some(b) = d.bound {
                        fields.push(("bound", Value::Num(b)));
                    }
                    Value::obj(fields)
                })
                .collect()
        };
        assert_eq!(declared("end_to_end"), expect(Kind::EndToEnd));
        assert_eq!(declared("per_layer"), expect(Kind::Layer));
        let workloads: Vec<_> = declared("workloads")
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        let ours: Vec<_> = Workload::ALL.iter().map(|w| w.name()).collect();
        assert_eq!(workloads, ours);
    }

    /// The glossary in README.md is written by hand; keep it complete.
    #[test]
    fn readme_glossary_names_every_metric() {
        let readme = include_str!("../README.md");
        for d in registry() {
            let name = match d.name.strip_prefix("testbed.cond.") {
                Some(_) => "testbed.cond.<label>.sim_s_per_wall_s",
                None => &d.name,
            };
            assert!(readme.contains(&format!("`{name}`")), "README lacks {name}");
        }
    }
}
