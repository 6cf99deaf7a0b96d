//! The five workloads: which conditions run, on how many threads, and how
//! `--seed` turns into inputs. The program under test receives only
//! [`Condition`]s.

use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
use gsrepro_testbed::config::{Aqm, Condition, Grid, PathScenario, Timeline};
use gsrepro_testbed::{CcaKind, SystemKind};

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Solo,
    Contested,
    AqmDynamic,
    FleetShort,
    ReproGrid,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Solo,
        Workload::Contested,
        Workload::AqmDynamic,
        Workload::FleetShort,
        Workload::ReproGrid,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Solo => "solo",
            Workload::Contested => "contested",
            Workload::AqmDynamic => "aqm-dynamic",
            Workload::FleetShort => "fleet-short",
            Workload::ReproGrid => "repro-grid",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Threads that generate load: fixed, whatever the host offers, so two
    /// hosts run the same schedule.
    pub fn threads(self) -> usize {
        match self {
            Workload::Solo | Workload::Contested | Workload::AqmDynamic => 1,
            Workload::FleetShort | Workload::ReproGrid => 2,
        }
    }
}

/// How much work a run does. `--smoke` shrinks everything to seconds; the
/// full size keeps every timeline and condition set and lets `--seconds`
/// decide how many rounds are timed.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Sizing {
    pub smoke: bool,
    /// Timed rounds run until this much host time has passed (at least one).
    pub seconds: f64,
}

impl Sizing {
    /// Scale of the nine-minute paper timeline.
    pub fn timeline_scale(self) -> f64 {
        if self.smoke {
            0.05
        } else {
            1.0
        }
    }

    /// Scale of the untimed warm-up runs of the single-thread workloads:
    /// a tenth of the timed timeline still passes through every phase.
    pub fn warmup_scale(self) -> f64 {
        self.timeline_scale() * 0.1
    }

    /// Sessions of one timed `fleet-short` campaign: one full shard of 64
    /// per condition, three seconds on two threads. Short rounds, so that a
    /// run times several and one of them meets a quiet host.
    pub fn fleet_sessions(self) -> u32 {
        if self.smoke {
            60
        } else {
            384
        }
    }

    /// Sessions of the `fleet-short` warm-up campaign.
    pub fn fleet_warmup_sessions(self) -> u32 {
        if self.smoke {
            12
        } else {
            120
        }
    }

    /// Sessions of each campaign variant in the traced pass.
    pub fn fleet_trace_sessions(self) -> u32 {
        if self.smoke {
            24
        } else {
            180
        }
    }
}

/// Timeline scale of a fleet session (the committed fleet spec's).
pub const FLEET_SCALE: f64 = 0.02;
/// Shard size of the committed fleet spec.
pub const FLEET_SHARD: u32 = 64;

/// Iteration index of timed round `round` under `--seed seed`.
pub fn iteration(seed: u64, round: u32) -> u32 {
    ((seed % 1_000_000) * 1000) as u32 + round
}

/// `fleet-short` and `repro-grid` go through entry points that fix the
/// iterations at `0..n`, so there the seed becomes microseconds of WAN
/// jitter, which changes every label and with it every derived session
/// seed. Seed 0 leaves the paper's conditions untouched.
pub fn seed_jitter(seed: u64) -> SimDuration {
    SimDuration::from_micros(seed % 1000)
}

fn with_seed_jitter(conds: Vec<Condition>, seed: u64) -> Vec<Condition> {
    let extra = seed_jitter(seed);
    conds
        .into_iter()
        .map(|c| {
            let j = c.wan_jitter + extra;
            c.with_wan_jitter(j)
        })
        .collect()
}

/// The conditions of a single-thread workload on the paper timeline scaled
/// by `scale` (1.0 when timed in full).
pub fn single_thread_conditions(w: Workload, scale: f64) -> Vec<Condition> {
    use CcaKind::{Bbr, Bbr2, Cubic};
    use SystemKind::{GeForce, Luna, Stadia};
    let tl = Timeline::scaled(scale);
    let at = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs * scale);
    let cond = |sys, cca, cap, q| Condition::new(sys, cca, cap, q).with_timeline(tl);
    let jitter = SimDuration::from_millis(2);
    let loss = PathScenario::LossWindow {
        p: 0.02,
        from: at(220.0),
        to: at(340.0),
    };
    match w {
        Workload::Solo => vec![
            cond(Stadia, None, 35, 2.0),
            cond(GeForce, None, 25, 2.0),
            cond(Luna, None, 25, 2.0),
            cond(Luna, None, 15, 0.5),
        ],
        Workload::Contested => vec![
            cond(Luna, Some(Cubic), 25, 2.0),
            cond(Luna, Some(Bbr), 25, 2.0),
            cond(GeForce, Some(Cubic), 25, 2.0),
            cond(Stadia, Some(Bbr), 35, 7.0),
            cond(Stadia, Some(Cubic), 15, 0.5),
        ],
        Workload::AqmDynamic => vec![
            cond(Stadia, Some(Cubic), 25, 2.0)
                .with_aqm(Aqm::CoDel)
                .with_scenario(PathScenario::RateStep {
                    rate: BitRate::from_mbps(10),
                    from: at(250.0),
                    to: at(300.0),
                }),
            cond(GeForce, Some(Bbr2), 25, 2.0)
                .with_aqm(Aqm::FqCoDel)
                .with_wan_jitter(jitter)
                .with_scenario(PathScenario::Outage {
                    from: at(250.0),
                    to: at(252.0),
                }),
            cond(Luna, Some(Bbr), 35, 0.5)
                .with_aqm(Aqm::CoDel)
                .with_wan_jitter(jitter)
                .with_scenario(loss),
            cond(Stadia, Some(Bbr2), 15, 7.0)
                .with_aqm(Aqm::FqCoDel)
                .with_scenario(PathScenario::QueueStep {
                    limit: Bytes(6000),
                    from: at(250.0),
                    to: at(300.0),
                }),
            cond(Luna, Some(Cubic), 15, 0.5)
                .with_aqm(Aqm::FqCoDel)
                .with_wan_jitter(jitter)
                .with_scenario(loss),
        ],
        Workload::FleetShort | Workload::ReproGrid => {
            unreachable!("{} is not a single-thread workload", w.name())
        }
    }
}

/// The committed fleet spec's conditions: three systems against Cubic and
/// BBR at 25 Mb/s and twice the BDP, on 11.8 s sessions.
pub fn fleet_conditions(seed: u64) -> Vec<Condition> {
    let tl = Timeline::scaled(FLEET_SCALE);
    let mut conds = Vec::new();
    for sys in SystemKind::ALL {
        for cca in [CcaKind::Cubic, CcaKind::Bbr] {
            conds.push(Condition::new(sys, Some(cca), 25, 2.0).with_timeline(tl));
        }
    }
    with_seed_jitter(conds, seed)
}

/// The paper's solo (27) and competing-flow (54) grids.
pub fn grid_conditions(seed: u64, scale: f64) -> (Vec<Condition>, Vec<Condition>) {
    let tl = Timeline::scaled(scale);
    (
        with_seed_jitter(Grid::solo(tl), seed),
        with_seed_jitter(Grid::full(tl), seed),
    )
}

/// Simulated seconds one run of `cond` covers (the runner simulates one
/// second past the timeline's end so that the last bins fill).
pub fn sim_secs(cond: &Condition) -> f64 {
    (cond.timeline.end + SimDuration::from_secs(1)).as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn names_round_trip_and_thread_counts_are_fixed() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
        assert_eq!(Workload::Solo.threads(), 1);
        assert_eq!(Workload::ReproGrid.threads(), 2);
    }

    #[test]
    fn single_thread_workloads_have_the_issue_labels() {
        let labels = |w| -> Vec<String> {
            single_thread_conditions(w, 1.0)
                .iter()
                .map(Condition::label)
                .collect()
        };
        assert_eq!(
            labels(Workload::Solo),
            [
                "stadia-solo-b35-q2",
                "geforce-solo-b25-q2",
                "luna-solo-b25-q2",
                "luna-solo-b15-q0.5"
            ]
        );
        assert_eq!(labels(Workload::Contested)[0], "luna-cubic-b25-q2");
        assert_eq!(labels(Workload::Contested)[3], "stadia-bbr-b35-q7");
        let aqm = labels(Workload::AqmDynamic);
        assert_eq!(aqm[0], "stadia-cubic-b25-q2-codel-sr10-250-300");
        assert_eq!(aqm.len(), 5);
        assert_eq!(aqm.iter().collect::<HashSet<_>>().len(), 5);
    }

    #[test]
    fn seed_moves_every_fleet_and_grid_label_and_seed_zero_moves_none() {
        let base = fleet_conditions(0);
        assert_eq!(base.len(), 6);
        assert_eq!(base[0].label(), "stadia-cubic-b25-q2");
        let moved = fleet_conditions(3);
        assert!(moved.iter().all(|c| c.label().ends_with("-j3us")));
        let (solo, full) = grid_conditions(1001, 1.0);
        assert_eq!((solo.len(), full.len()), (27, 54));
        assert!(solo
            .iter()
            .chain(&full)
            .all(|c| c.label().ends_with("-j1us")));
    }

    #[test]
    fn iterations_stay_apart_between_seeds_and_fit_u32() {
        assert_eq!(iteration(0, 4), 4);
        assert_eq!(iteration(2, 0), 2000);
        assert_eq!(
            iteration(u64::MAX, 999),
            iteration(u64::MAX % 1_000_000, 999)
        );
    }

    #[test]
    fn smoke_scales_scenario_instants_with_the_timeline() {
        let c = &single_thread_conditions(Workload::AqmDynamic, 0.05)[0];
        assert_eq!(c.timeline.end, SimTime::from_secs(27));
        assert_eq!(
            c.scenario.disturbance_times(),
            [SimTime::from_millis(12_500), SimTime::from_secs(15)]
        );
    }
}
