//! Ablation experiments for the design decisions DESIGN.md calls out.
//!
//! * **D2 — controller archetypes**: swap the controller among the three
//!   system profiles. If the paper's fairness pattern follows the control
//!   law rather than the profile's bitrate envelope, a Stadia-envelope
//!   stream driven by TFRC must behave like Luna, and so on.
//! * **D3 — BBR's in-flight cap**: vary BBR's PROBE_BW `cwnd_gain`. The
//!   paper attributes the halved RTTs at 7×-BDP queues (Table 4, BBR
//!   columns) to the 2×BDP cap; without the cap the BBR column should
//!   collapse toward the Cubic column.
//! * **D1 — queue discipline**: re-run a bloated-queue condition under
//!   CoDel and FQ-CoDel (the paper's future-work AQM question).

use std::fmt;

use gsrepro_gamestream::profile::ControllerKind;
use gsrepro_gamestream::SystemKind;
use gsrepro_simcore::SimTime;
use gsrepro_tcp::CcaKind;

use crate::config::{Aqm, Condition, EQUALIZED_RTT};
use crate::experiments::ExperimentOpts;
use crate::model::{bulk_sim, BulkCell};
use crate::report::TextTable;

/// One cell of the controller-swap ablation.
pub struct SwapCell {
    /// The system profile (bitrate envelope, frame statistics).
    pub profile: SystemKind,
    /// The controller archetype actually driving the encoder.
    pub controller: ControllerKind,
    /// Competitor.
    pub cca: CcaKind,
    /// Mean fairness across runs.
    pub fairness: f64,
}

/// D2: every profile × every controller × both CCAs at 25 Mb/s, 2×-BDP.
pub struct ControllerSwap {
    /// All 18 cells.
    pub cells: Vec<SwapCell>,
}

/// Run the controller-swap ablation.
pub fn controller_swap(opts: &ExperimentOpts) -> ControllerSwap {
    let controllers = [
        ControllerKind::Gcc,
        ControllerKind::DelayConservative,
        ControllerKind::Tfrc,
    ];
    let mut conditions = Vec::new();
    for &cca in &[CcaKind::Cubic, CcaKind::Bbr] {
        for &profile in &SystemKind::ALL {
            for &ctrl in &controllers {
                let mut c =
                    Condition::new(profile, Some(cca), 25, 2.0).with_timeline(opts.timeline);
                c.controller_override = Some(ctrl);
                conditions.push(c);
            }
        }
    }
    let cells = opts
        .run(&conditions)
        .iter()
        .map(|cr| SwapCell {
            profile: cr.condition.system,
            controller: cr.condition.controller_override.expect("override set"),
            cca: cr.condition.cca.expect("competing condition"),
            fairness: cr.fairness_mean(),
        })
        .collect();
    ControllerSwap { cells }
}

impl ControllerSwap {
    /// Fairness of (profile, controller, cca).
    pub fn fairness(
        &self,
        profile: SystemKind,
        controller: ControllerKind,
        cca: CcaKind,
    ) -> Option<f64> {
        self.cells
            .iter()
            .find(|c| c.profile == profile && c.controller == controller && c.cca == cca)
            .map(|c| c.fairness)
    }

    /// The headline check: does fairness cluster by controller rather than
    /// by profile? Returns (mean spread within controller groups, mean
    /// spread within profile groups); the first should be smaller.
    pub fn clustering(&self, cca: CcaKind) -> (f64, f64) {
        let spread = |groups: Vec<Vec<f64>>| -> f64 {
            let mut total = 0.0;
            let mut n = 0;
            for g in groups {
                if g.len() < 2 {
                    continue;
                }
                let mean = g.iter().sum::<f64>() / g.len() as f64;
                total += g.iter().map(|v| (v - mean).abs()).sum::<f64>() / g.len() as f64;
                n += 1;
            }
            if n == 0 {
                0.0
            } else {
                total / n as f64
            }
        };
        let by_controller: Vec<Vec<f64>> = [
            ControllerKind::Gcc,
            ControllerKind::DelayConservative,
            ControllerKind::Tfrc,
        ]
        .iter()
        .map(|&ctrl| {
            self.cells
                .iter()
                .filter(|c| c.controller == ctrl && c.cca == cca)
                .map(|c| c.fairness)
                .collect()
        })
        .collect();
        let by_profile: Vec<Vec<f64>> = SystemKind::ALL
            .iter()
            .map(|&p| {
                self.cells
                    .iter()
                    .filter(|c| c.profile == p && c.cca == cca)
                    .map(|c| c.fairness)
                    .collect()
            })
            .collect();
        (spread(by_controller), spread(by_profile))
    }
}

impl fmt::Display for ControllerSwap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "D2 ablation — fairness at 25 Mb/s, 2x BDP, by profile × controller"
        )?;
        for &cca in &[CcaKind::Cubic, CcaKind::Bbr] {
            writeln!(f, "\nvs {cca}:")?;
            let mut t = TextTable::new(vec!["profile \\ controller", "gcc", "delay-cons", "tfrc"]);
            for &p in &SystemKind::ALL {
                let mut row = vec![p.label().to_string()];
                for ctrl in [
                    ControllerKind::Gcc,
                    ControllerKind::DelayConservative,
                    ControllerKind::Tfrc,
                ] {
                    let v = self.fairness(p, ctrl, cca).unwrap_or(f64::NAN);
                    row.push(format!("{v:+.2}"));
                }
                t.row(row);
            }
            write!(f, "{}", t.render())?;
            let (by_ctrl, by_prof) = self.clustering(cca);
            writeln!(
                f,
                "spread within controller columns {by_ctrl:.3} vs within profile rows {by_prof:.3} \
                 (columns should be tighter: behaviour follows the control law)"
            )?;
        }
        Ok(())
    }
}

/// D3: BBR `cwnd_gain` vs a Cubic competitor at a bloated queue.
pub struct CwndGainCell {
    /// PROBE_BW cwnd gain.
    pub gain: f64,
    /// BBR goodput share of capacity.
    pub bbr_share: f64,
    /// Mean RTT (ms) during coexistence.
    pub rtt_ms: f64,
}

/// Run the D3 ablation: two TCP flows (Cubic vs BBR-with-gain) on the
/// testbed bottleneck at `queue_mult` × BDP — the model oracle's bulk
/// dumbbell with one Cubic flow, measured over `[secs/3, secs)`.
pub fn bbr_cwnd_gain(gains: &[f64], queue_mult: f64, secs: u64, seed: u64) -> Vec<CwndGainCell> {
    let cell = BulkCell {
        capacity_mbps: 25,
        base_rtt: EQUALIZED_RTT,
        queue_mult,
        n_cubic: 1,
    };
    let stop = SimTime::from_secs(secs);
    gains
        .iter()
        .map(|&gain| {
            let (sim, flows) = bulk_sim(&cell, seed, stop, false, Some(gain));
            let (cubic_f, bbr_f) = (flows[0], flows[1]);
            let bbr_gp = sim.goodput_mbps(bbr_f, SimTime::from_secs(secs / 3), stop);
            // RTT = downstream OWD (queueing happens there) + clean
            // 8.25 ms return path.
            let rtt = sim.net.monitor().stats(cubic_f).owd.mean() + 8.25;
            CwndGainCell {
                gain,
                bbr_share: bbr_gp / cell.capacity_mbps as f64,
                rtt_ms: rtt,
            }
        })
        .collect()
}

/// D1: the paper's drop-tail vs CoDel vs FQ-CoDel at a bloated queue.
pub struct AqmCell {
    /// Queue discipline.
    pub aqm: Aqm,
    /// System.
    pub system: SystemKind,
    /// Mean fairness.
    pub fairness: f64,
    /// Mean RTT during competition (ms).
    pub rtt_ms: f64,
}

/// Run the AQM ablation for all systems vs Cubic at 7×-BDP.
pub fn aqm_sweep(opts: &ExperimentOpts) -> Vec<AqmCell> {
    let mut conditions = Vec::new();
    for &aqm in &[Aqm::DropTail, Aqm::CoDel, Aqm::FqCoDel] {
        for &sys in &SystemKind::ALL {
            conditions.push(
                Condition::new(sys, Some(CcaKind::Cubic), 25, 7.0)
                    .with_aqm(aqm)
                    .with_timeline(opts.timeline),
            );
        }
    }
    opts.run(&conditions)
        .iter()
        .map(|cr| AqmCell {
            aqm: cr.condition.aqm,
            system: cr.condition.system,
            fairness: cr.fairness_mean(),
            rtt_ms: cr.rtt_pooled().mean(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cwnd_gain_controls_standing_queue() {
        // Higher cwnd gain → more in flight → higher shares/queueing at a
        // bloated buffer. The standard 2.0 must sit between a sub-BDP gain
        // and an aggressive 4.0.
        let cells = bbr_cwnd_gain(&[1.0, 2.0, 4.0], 7.0, 40, 5);
        assert_eq!(cells.len(), 3);
        assert!(
            cells[0].bbr_share < cells[2].bbr_share + 0.05,
            "share should not decrease with gain: {} vs {}",
            cells[0].bbr_share,
            cells[2].bbr_share
        );
        for c in &cells {
            assert!(c.rtt_ms > 16.0, "RTT {} must include queueing", c.rtt_ms);
            assert!((0.0..=1.0).contains(&c.bbr_share));
        }
    }

    #[test]
    fn controller_swap_smoke() {
        let mut opts = ExperimentOpts::smoke();
        opts.iterations = 1;
        opts.timeline = crate::config::Timeline::scaled(0.06);
        let swap = controller_swap(&opts);
        assert_eq!(swap.cells.len(), 18);
        // Every (profile, controller, cca) cell exists.
        for &p in &SystemKind::ALL {
            for ctrl in [
                ControllerKind::Gcc,
                ControllerKind::DelayConservative,
                ControllerKind::Tfrc,
            ] {
                assert!(swap.fairness(p, ctrl, CcaKind::Cubic).is_some());
                assert!(swap.fairness(p, ctrl, CcaKind::Bbr).is_some());
            }
        }
        let rendered = format!("{swap}");
        assert!(rendered.contains("gcc"));
    }
}
