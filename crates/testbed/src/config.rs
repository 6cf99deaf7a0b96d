//! Experimental conditions and the run timeline (the paper's Table 2).

use gsrepro_gamestream::profile::ControllerKind;
use gsrepro_gamestream::SystemKind;
use gsrepro_netsim::link::LinkId;
use gsrepro_netsim::scenario::ScenarioSpec;
use gsrepro_simcore::rng::{derive_seed, stream_id};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
use gsrepro_tcp::CcaKind;

/// The equalized round-trip time of the paper's testbed: every path was
/// padded with `netem` delay to ≈16.5 ms.
pub const EQUALIZED_RTT: SimDuration = SimDuration::from_micros(16_500);

/// The paper's capacity constraints, Mb/s ("good", "normal", "bad").
pub const CAPACITIES_MBPS: [u64; 3] = [35, 25, 15];

/// The paper's queue sizes in multiples of the BDP.
pub const QUEUE_MULTS: [f64; 3] = [0.5, 2.0, 7.0];

/// The competing congestion-control algorithms.
pub const CCAS: [CcaKind; 2] = [CcaKind::Cubic, CcaKind::Bbr];

/// The queue disciplines of the AQM extension grid.
pub const AQMS: [Aqm; 3] = [Aqm::DropTail, Aqm::CoDel, Aqm::FqCoDel];

/// The competing CCAs of the AQM extension grid: the paper's two plus the
/// ECN-capable BBRv2-style sender.
pub const CCAS_3D: [CcaKind; 3] = [CcaKind::Cubic, CcaKind::Bbr, CcaKind::Bbr2];

/// The 9-minute run: iperf occupies the middle third, and the paper's
/// measurement windows are fixed offsets around the transitions.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Timeline {
    /// When the competing TCP flow starts (paper: 185 s).
    pub iperf_start: SimTime,
    /// When the competing TCP flow stops (paper: 370 s).
    pub iperf_stop: SimTime,
    /// End of the trace (paper: 540 s).
    pub end: SimTime,
    /// Window for the game system's *original* bitrate (paper: 125–185 s).
    pub original_window: (SimTime, SimTime),
    /// Window for the *adjusted* bitrate once the game system has settled
    /// against the competitor (paper: 310–370 s).
    pub adjusted_window: (SimTime, SimTime),
    /// Window for fairness computation, excluding the initial response
    /// transient (paper: 220–370 s).
    pub fairness_window: (SimTime, SimTime),
}

impl Timeline {
    /// The paper's exact timeline.
    pub fn paper() -> Self {
        Timeline::scaled(1.0)
    }

    /// The paper's timeline with every instant multiplied by `k`
    /// (0 < k ≤ 1). Used to keep unit/integration tests fast; the full
    /// reproduction uses `k = 1`.
    pub fn scaled(k: f64) -> Self {
        assert!(k > 0.0 && k <= 1.0, "scale must be in (0, 1]");
        let s = |secs: f64| SimTime::ZERO + SimDuration::from_secs_f64(secs * k);
        Timeline {
            iperf_start: s(185.0),
            iperf_stop: s(370.0),
            end: s(540.0),
            original_window: (s(125.0), s(185.0)),
            adjusted_window: (s(310.0), s(370.0)),
            fairness_window: (s(220.0), s(370.0)),
        }
    }

    /// Window after the competitor departs, for recovery measurement.
    pub fn recovery_window(&self) -> (SimTime, SimTime) {
        (self.iperf_stop, self.end)
    }
}

/// Queue discipline at the bottleneck. The paper's router ran drop-tail;
/// the AQM variants answer its future-work question.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub enum Aqm {
    /// Byte-limited tail drop (the paper's configuration).
    #[default]
    DropTail,
    /// CoDel (RFC 8289) with default target/interval.
    CoDel,
    /// FQ-CoDel (RFC 8290) with default parameters.
    FqCoDel,
}

impl Aqm {
    /// Label for reports.
    pub fn label(self) -> &'static str {
        match self {
            Aqm::DropTail => "droptail",
            Aqm::CoDel => "codel",
            Aqm::FqCoDel => "fqcodel",
        }
    }
}

/// A scheduled disturbance of the bottleneck path — the testbed-level
/// face of [`ScenarioSpec`]. The paper's testbed holds the path constant
/// and varies the *competitor*; these scenarios vary the *path* itself
/// (a `tc qdisc change` against the live router), which is how real
/// cloud-gaming sessions experience rate renegotiations and outages.
///
/// Times are absolute simulation times; pair them with the condition's
/// timeline scale. The scenario joins the condition label (and therefore
/// the seed derivation), so scenario runs never share RNG streams with
/// their static baselines.
#[derive(Clone, Copy, Debug, PartialEq, Default)]
pub enum PathScenario {
    /// Static path (the paper's baseline).
    #[default]
    None,
    /// Bottleneck rate steps to `rate` at `from` and restores the
    /// condition's capacity at `to`.
    RateStep {
        /// Rate during the window.
        rate: BitRate,
        /// Step-down instant.
        from: SimTime,
        /// Restore instant.
        to: SimTime,
    },
    /// Full bottleneck outage over `[from, to)`.
    Outage {
        /// Cut instant.
        from: SimTime,
        /// Restore instant.
        to: SimTime,
    },
    /// Random-loss window with probability `p` over `[from, to)`.
    LossWindow {
        /// Per-packet drop probability during the window.
        p: f64,
        /// Window open.
        from: SimTime,
        /// Window close.
        to: SimTime,
    },
    /// Bottleneck queue limit becomes `limit` at `from` and restores the
    /// condition's configured size at `to`.
    QueueStep {
        /// Byte limit during the window.
        limit: Bytes,
        /// Shrink instant.
        from: SimTime,
        /// Restore instant.
        to: SimTime,
    },
}

impl PathScenario {
    /// Label suffix, empty for the static path. Stable across runs: it
    /// feeds the seed derivation and trace file names.
    pub fn label_suffix(&self) -> String {
        let secs = |t: SimTime| t.as_secs_f64().to_string();
        match *self {
            PathScenario::None => String::new(),
            PathScenario::RateStep { rate, from, to } => {
                format!("-sr{}-{}-{}", rate.as_mbps(), secs(from), secs(to))
            }
            PathScenario::Outage { from, to } => {
                format!("-sout-{}-{}", secs(from), secs(to))
            }
            PathScenario::LossWindow { p, from, to } => {
                format!("-sloss{}-{}-{}", p, secs(from), secs(to))
            }
            PathScenario::QueueStep { limit, from, to } => {
                format!("-sq{}-{}-{}", limit.as_u64(), secs(from), secs(to))
            }
        }
    }

    /// Lower the scenario onto a concrete bottleneck link. `capacity` and
    /// `queue_bytes` are the condition's static values, restored when a
    /// window closes.
    pub fn spec(&self, bottleneck: LinkId, capacity: BitRate, queue_bytes: Bytes) -> ScenarioSpec {
        match *self {
            PathScenario::None => ScenarioSpec::new(),
            PathScenario::RateStep { rate, from, to } => ScenarioSpec::new()
                .rate(from, bottleneck, rate)
                .rate(to, bottleneck, capacity),
            PathScenario::Outage { from, to } => ScenarioSpec::new().outage(from, to, bottleneck),
            PathScenario::LossWindow { p, from, to } => {
                ScenarioSpec::new().loss_window(from, to, bottleneck, p)
            }
            PathScenario::QueueStep { limit, from, to } => ScenarioSpec::new()
                .queue_limit(from, bottleneck, limit)
                .queue_limit(to, bottleneck, queue_bytes),
        }
    }

    /// The disturbance instants, in order — what a settling-time analysis
    /// scans from.
    pub fn disturbance_times(&self) -> Vec<SimTime> {
        match *self {
            PathScenario::None => vec![],
            PathScenario::RateStep { from, to, .. }
            | PathScenario::Outage { from, to }
            | PathScenario::LossWindow { from, to, .. }
            | PathScenario::QueueStep { from, to, .. } => vec![from, to],
        }
    }
}

/// One experimental condition: a cell in the paper's grid.
#[derive(Clone, Debug)]
pub struct Condition {
    /// Which game system streams.
    pub system: SystemKind,
    /// Controller archetype override (normally `None` = the system's own;
    /// ablation benches set this).
    pub controller_override: Option<ControllerKind>,
    /// Competing TCP congestion control; `None` = no competing flow
    /// (Table 1, Table 3).
    pub cca: Option<CcaKind>,
    /// Bottleneck capacity.
    pub capacity: BitRate,
    /// Bottleneck queue size in BDP multiples.
    pub queue_mult: f64,
    /// Queue discipline at the bottleneck.
    pub aqm: Aqm,
    /// Uniform per-packet jitter on the WAN (server-side) links —
    /// re-injected "Internet weather" for sensitivity analyses. Zero by
    /// default: the paper equalizes paths and our base topology is clean.
    pub wan_jitter: SimDuration,
    /// Scheduled bottleneck disturbance (dynamic-path experiments).
    pub scenario: PathScenario,
    /// Run timeline.
    pub timeline: Timeline,
}

impl Condition {
    /// A condition on the paper's timeline.
    pub fn new(
        system: SystemKind,
        cca: Option<CcaKind>,
        capacity_mbps: u64,
        queue_mult: f64,
    ) -> Self {
        Condition {
            system,
            controller_override: None,
            cca,
            capacity: BitRate::from_mbps(capacity_mbps),
            queue_mult,
            aqm: Aqm::DropTail,
            wan_jitter: SimDuration::ZERO,
            scenario: PathScenario::None,
            timeline: Timeline::paper(),
        }
    }

    /// Add WAN jitter (sensitivity analyses).
    pub fn with_wan_jitter(mut self, jitter: SimDuration) -> Self {
        self.wan_jitter = jitter;
        self
    }

    /// Replace the queue discipline (future-work AQM experiments).
    pub fn with_aqm(mut self, aqm: Aqm) -> Self {
        self.aqm = aqm;
        self
    }

    /// Replace the timeline (e.g. a scaled one for tests).
    pub fn with_timeline(mut self, t: Timeline) -> Self {
        self.timeline = t;
        self
    }

    /// Attach a scheduled bottleneck disturbance (dynamic-path
    /// experiments). The scenario joins the label, so seeds and trace
    /// files stay distinct from the static baseline.
    pub fn with_scenario(mut self, scenario: PathScenario) -> Self {
        self.scenario = scenario;
        self
    }

    /// Bottleneck queue limit in bytes: `queue_mult × BDP(capacity, RTT)`.
    pub fn queue_bytes(&self) -> Bytes {
        self.capacity.bdp(EQUALIZED_RTT).mul_f64(self.queue_mult)
    }

    /// Stable label, e.g. `stadia-cubic-b25-q2.0` (AQM suffix when not
    /// drop-tail).
    pub fn label(&self) -> String {
        let cca = self.cca.map(|c| c.label()).unwrap_or("solo");
        let mut label = format!(
            "{}-{}-b{}-q{}",
            self.system.label(),
            cca,
            self.capacity.as_mbps() as u64,
            self.queue_mult
        );
        if self.aqm != Aqm::DropTail {
            label.push('-');
            label.push_str(self.aqm.label());
        }
        if !self.wan_jitter.is_zero() {
            label.push_str(&format!("-j{}us", self.wan_jitter.as_nanos() / 1_000));
        }
        label.push_str(&self.scenario.label_suffix());
        label
    }

    /// Deterministic seed for iteration `iter` of this condition.
    pub fn seed(&self, iter: u32) -> u64 {
        derive_seed(stream_id(&self.label()), iter as u64)
    }

    /// Fair share of the bottleneck for two flows, in Mb/s.
    pub fn fair_share_mbps(&self) -> f64 {
        self.capacity.as_mbps() / 2.0
    }
}

/// Grid builders for the paper's experiment sets.
pub struct Grid;

impl Grid {
    /// The full competing-flow grid: 3 systems × 2 CCAs × 3 capacities ×
    /// 3 queues = 54 conditions (Figures 2-4, Tables 4-5).
    pub fn full(timeline: Timeline) -> Vec<Condition> {
        let mut v = Vec::new();
        // The paper stripes across systems innermost to keep comparisons
        // temporally close; iteration order here mirrors §3.4.
        for &cca in &CCAS {
            for &cap in &CAPACITIES_MBPS {
                for &q in &QUEUE_MULTS {
                    for &sys in &SystemKind::ALL {
                        v.push(Condition::new(sys, Some(cca), cap, q).with_timeline(timeline));
                    }
                }
            }
        }
        v
    }

    /// The solo grid (no competing flow): 3 systems × 3 capacities × 3
    /// queues (Table 3 and the solo loss tables).
    pub fn solo(timeline: Timeline) -> Vec<Condition> {
        let mut v = Vec::new();
        for &cap in &CAPACITIES_MBPS {
            for &q in &QUEUE_MULTS {
                for &sys in &SystemKind::ALL {
                    v.push(Condition::new(sys, None, cap, q).with_timeline(timeline));
                }
            }
        }
        v
    }

    /// Figure 2's slice: capacity 25 Mb/s, all queues, both CCAs.
    pub fn figure2(timeline: Timeline) -> Vec<Condition> {
        let mut v = Vec::new();
        for &cca in &CCAS {
            for &q in &QUEUE_MULTS {
                for &sys in &SystemKind::ALL {
                    v.push(Condition::new(sys, Some(cca), 25, q).with_timeline(timeline));
                }
            }
        }
        v
    }

    /// The 3-D AQM scorecard grid: 3 systems × {Cubic, BBRv1, BBRv2} ×
    /// {drop-tail, CoDel, FQ-CoDel} = 27 conditions, all at the paper's
    /// "normal" point (25 Mb/s, 2× BDP). This is the future-work cube the
    /// paper sketches: does an AQM at the bottleneck — and an ECN-capable
    /// competitor — change who wins?
    pub fn aqm3d(timeline: Timeline) -> Vec<Condition> {
        let mut v = Vec::new();
        for &aqm in &AQMS {
            for &cca in &CCAS_3D {
                for &sys in &SystemKind::ALL {
                    v.push(
                        Condition::new(sys, Some(cca), 25, 2.0)
                            .with_aqm(aqm)
                            .with_timeline(timeline),
                    );
                }
            }
        }
        v
    }

    /// Unconstrained conditions for Table 1: 1 Gb/s bottleneck, no
    /// competitor.
    pub fn table1(timeline: Timeline) -> Vec<Condition> {
        SystemKind::ALL
            .iter()
            .map(|&sys| Condition {
                system: sys,
                controller_override: None,
                cca: None,
                capacity: BitRate::from_gbps(1),
                queue_mult: 2.0,
                aqm: Aqm::DropTail,
                wan_jitter: SimDuration::ZERO,
                scenario: PathScenario::None,
                timeline,
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_timeline_values() {
        let t = Timeline::paper();
        assert_eq!(t.iperf_start, SimTime::from_secs(185));
        assert_eq!(t.iperf_stop, SimTime::from_secs(370));
        assert_eq!(t.end, SimTime::from_secs(540));
    }

    #[test]
    fn scaled_timeline_preserves_proportions() {
        let t = Timeline::scaled(0.1);
        assert_eq!(
            t.iperf_start,
            SimTime::ZERO + SimDuration::from_secs_f64(18.5)
        );
        assert_eq!(t.end, SimTime::from_secs(54));
    }

    #[test]
    fn queue_bytes_match_bdp_multiples() {
        let c = Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0);
        // BDP(25 Mb/s, 16.5 ms) = 51 562 B → 2x = 103 124 B.
        assert_eq!(c.queue_bytes().as_u64(), 103_124);
        let c = Condition::new(SystemKind::Luna, Some(CcaKind::Bbr), 15, 0.5);
        assert_eq!(
            c.queue_bytes().as_u64(),
            (15_000_000f64 * 0.0165 / 8.0 * 0.5).round() as u64
        );
    }

    #[test]
    fn labels_are_stable_and_unique() {
        let grid = Grid::full(Timeline::paper());
        assert_eq!(grid.len(), 54);
        let labels: std::collections::HashSet<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 54);
    }

    #[test]
    fn seeds_differ_across_iterations_and_conditions() {
        let a = Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0);
        let b = Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0);
        assert_ne!(a.seed(0), a.seed(1));
        assert_ne!(a.seed(0), b.seed(0));
        assert_eq!(a.seed(3), a.seed(3));
    }

    #[test]
    fn scenario_labels_are_distinct_and_change_seeds() {
        let base = Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0);
        let step = base.clone().with_scenario(PathScenario::RateStep {
            rate: BitRate::from_mbps(10),
            from: SimTime::from_secs(100),
            to: SimTime::from_secs(200),
        });
        let outage = base.clone().with_scenario(PathScenario::Outage {
            from: SimTime::from_secs(100),
            to: SimTime::from_secs(102),
        });
        assert_eq!(step.label(), "stadia-cubic-b25-q2-sr10-100-200");
        assert_ne!(base.label(), step.label());
        assert_ne!(step.label(), outage.label());
        // Scenario runs must not share RNG streams with their baseline.
        assert_ne!(base.seed(0), step.seed(0));
        assert_ne!(step.seed(0), outage.seed(0));
        assert_eq!(
            step.scenario.disturbance_times(),
            vec![SimTime::from_secs(100), SimTime::from_secs(200)]
        );
    }

    #[test]
    fn scenario_spec_restores_static_values() {
        use gsrepro_netsim::scenario::ScenarioAction;
        let l = LinkId(4);
        let cond =
            Condition::new(SystemKind::Luna, None, 25, 2.0).with_scenario(PathScenario::RateStep {
                rate: BitRate::from_mbps(10),
                from: SimTime::from_secs(100),
                to: SimTime::from_secs(200),
            });
        let spec = cond.scenario.spec(l, cond.capacity, cond.queue_bytes());
        assert_eq!(spec.steps.len(), 2);
        assert_eq!(
            spec.steps[1].action,
            ScenarioAction::Rate(Some(BitRate::from_mbps(25)))
        );
        let qs = PathScenario::QueueStep {
            limit: Bytes(10_000),
            from: SimTime::from_secs(50),
            to: SimTime::from_secs(60),
        };
        let spec = qs.spec(l, cond.capacity, cond.queue_bytes());
        assert_eq!(
            spec.steps[1].action,
            ScenarioAction::QueueLimit(cond.queue_bytes())
        );
    }

    #[test]
    fn solo_grid_size() {
        assert_eq!(Grid::solo(Timeline::paper()).len(), 27);
        assert_eq!(Grid::figure2(Timeline::paper()).len(), 18);
        assert_eq!(Grid::table1(Timeline::paper()).len(), 3);
    }

    #[test]
    fn aqm3d_grid_is_27_unique_cells() {
        let grid = Grid::aqm3d(Timeline::paper());
        assert_eq!(grid.len(), 27);
        let labels: std::collections::HashSet<String> = grid.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), 27, "AQM/CCA must be part of the label");
        // Every axis value appears.
        assert!(grid.iter().any(|c| c.aqm == Aqm::FqCoDel));
        assert!(grid.iter().any(|c| c.cca == Some(CcaKind::Bbr2)));
        // Seeds differ between the drop-tail and AQM twins of a cell.
        let dt = &grid[0];
        let twin = grid
            .iter()
            .find(|c| c.system == dt.system && c.cca == dt.cca && c.aqm == Aqm::CoDel)
            .unwrap();
        assert_ne!(dt.seed(0), twin.seed(0));
    }
}
