//! The Ware BBRv1 inflight-cap fairness model, and the *model oracle*
//! that validates the simulator against it.
//!
//! Every other verification tier in this repo (golden trajectory
//! fixtures, the scorecard snapshots, the conformance kit) checks the
//! simulator against *its own past output*. This module checks it
//! against independently derived theory: Ware et al.'s closed-form
//! model of a BBRv1 flow competing with loss-based flows in a deep
//! drop-tail queue (*"Modeling BBR's Interactions with Loss-Based
//! Congestion Control"*, IMC '19 — `ware_model.py` in SNIPPETS.md).
//!
//! # The model
//!
//! At a full drop-tail queue of `q` bytes over a bottleneck of capacity
//! `c` and base RTT `l` (so BDP `b = c·l`, queue multiple `X = q/b`),
//! with one BBRv1 flow against synchronized loss-based competitors
//! holding aggregate share `p`:
//!
//! * throughput share equals queue share (FIFO drain), so the
//!   loss-based flows hold `p·q` of the queue and BBR `(1−p)·q`;
//! * BBR's bandwidth estimate is its delivery rate, `(1−p)·c`;
//! * BBR's RTprop estimate is inflated by the competitors' standing
//!   queue, which PROBE_RTT cannot drain: `l + p·q/c`;
//! * BBR in ProbeBW holds `cwnd_gain = 2` times its estimated BDP in
//!   flight: `inflight_cap = 2·(1−p)·(c·l + p·q)` — in the deep-queue
//!   limit `q ≫ c·l` this is the snippet's `2·p·(1−p)·q`;
//! * at convergence that cap equals BBR's actual outstanding data, its
//!   share of the wire plus its share of the queue:
//!   `cwnd_share = (1−p)·(q + c·l)`.
//!
//! Equating cap and share gives the quadratic
//!
//! ```text
//! 2q·p² − (3q − b)·p + (q − b) = 0
//! ```
//!
//! whose discriminant is exactly `(q + b)²`, so the roots are
//!
//! ```text
//! p = 1              (unstable: BBR starved — its bandwidth estimate
//!                     and cap collapse together, no restoring force)
//! p* = (q − b)/(2q)  = (1 − 1/X)/2   (the stable root)
//! ```
//!
//! The stable root says the loss-based share *grows with queue depth*,
//! from nothing at `X = 1` toward the fair ½ as `X → ∞`, while BBR
//! holds `(1 + 1/X)/2` — exactly the paper's observation that deep
//! buffers favour loss-based senders and shallow buffers favour BBR.
//!
//! # The oracle
//!
//! [`run_model_oracle`] sweeps bulk-Cubic-vs-bulk-BBR cells over queue
//! multiples × capacities × base RTTs on the real simulator (two nodes,
//! one shaped drop-tail bottleneck — no game stream), measures the
//! converged throughput shares from the monitor layer, and grades each
//! cell [`CellVerdict::Within`] / [`CellVerdict::Diverged`] /
//! [`CellVerdict::Inapplicable`] (naming the failed precondition).
//! [`model_scorecard`] folds the grid into scorecard claims, pinned by
//! the `model_oracle` snapshot fixture.

use gsrepro_netsim::net::NetworkBuilder;
use gsrepro_netsim::wire::TCP_MSS;
use gsrepro_netsim::{FlowId, LinkSpec, Sim};
use gsrepro_simcore::rng::{derive_seed, stream_id};
use gsrepro_simcore::{BitRate, SimDuration, SimTime};
use gsrepro_tcp::cca::bbr::Bbr;
use gsrepro_tcp::{connect, CcaKind, TcpSender};

use crate::metrics::jains_index;
use crate::report::{Csv, TextTable};
use crate::runner;
use crate::scorecard::{fraction_claim, Claim, Scorecard, Verdict};

/// Queue multiple below which the deep-queue premise (`q ≫ BDP`) is
/// considered violated and the model inapplicable. At `X = 2` the
/// first-order BDP correction retained in the stable root is already
/// half of `q`; below that the model's "queue share ≈ throughput share"
/// picture stops describing the dynamics at all (BBR simply paces past
/// the loss-based flows).
pub const DEEP_QUEUE_MIN_MULT: f64 = 2.0;

/// Minimum full-queue drain time `q/c` (seconds) for the fluid model to
/// apply. The model treats Cubic's sawtooth and BBR's ProbeBW cycle as
/// fast relative to the standing-queue timescale; when the whole queue
/// drains in a few tens of milliseconds, simulated Cubic's real-time
/// (RTT-independent) window growth refills it faster than the fluid
/// equilibrium assumes and out-competes the prediction. Empirically the
/// crossover sits between 33 ms (measured share saturates near 0.45
/// regardless of X) and 66 ms (measured within 0.07 of p*); 50 ms
/// splits it with margin on both sides. See EXPERIMENTS.md.
pub const MIN_QUEUE_DRAIN_SECS: f64 = 0.050;

/// Documented tolerance on the absolute loss-based-share error
/// `|measured − p*|` for a cell to count as within-model. Rationale
/// (see EXPERIMENTS.md "Model oracle"): the model idealizes PROBE_RTT
/// as never draining the competitors' queue share and Cubic as holding
/// the queue exactly full, while the simulated flows breathe around
/// both — the observed error across the clean applicable grid tops out
/// at 0.080, while the smallest interesting CCA mistuning (cwnd_gain
/// 2 → 3) moves measured shares by ≥ 0.11 and gain 4 by ≥ 0.18, so
/// 0.10 separates model noise from real regressions.
pub const MODEL_TOLERANCE: f64 = 0.10;

/// Inputs the model predicts from: one bottleneck cell plus the flow
/// population competing through it.
#[derive(Clone, Copy, Debug)]
pub struct ModelInput {
    /// Bottleneck capacity `c`.
    pub capacity: BitRate,
    /// Base (unloaded) round-trip time `l`.
    pub base_rtt: SimDuration,
    /// Queue size as a multiple `X` of the BDP `c·l`.
    pub queue_mult: f64,
    /// Number of synchronized loss-based competitors.
    pub n_loss: u32,
    /// Number of BBR flows (the model is derived for exactly one).
    pub n_bbr: u32,
}

impl ModelInput {
    /// Queue capacity `q = X·c·l` in bytes.
    pub fn queue_bytes(&self) -> f64 {
        self.capacity.bdp(self.base_rtt).as_u64() as f64 * self.queue_mult
    }

    /// BDP `b = c·l` in bytes.
    pub fn bdp_bytes(&self) -> f64 {
        self.capacity.bdp(self.base_rtt).as_u64() as f64
    }

    /// Time to drain the full queue at line rate, `q/c` in seconds —
    /// `X·l`, the standing-queue timescale the fluid model lives on.
    pub fn queue_drain_secs(&self) -> f64 {
        self.queue_bytes() * 8.0 / (self.capacity.as_mbps() * 1e6)
    }
}

/// A validity precondition of the Ware model. Cells that violate one
/// still run and report measurements, but their verdict is
/// [`CellVerdict::Inapplicable`] naming the first failed precondition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Precondition {
    /// `q ≫ BDP`: the queue must be deep (`X ≥ 2`) for queue share to
    /// stand in for throughput share.
    DeepQueue,
    /// The full-queue drain time `q/c` must reach
    /// [`MIN_QUEUE_DRAIN_SECS`] for the fluid-timescale picture to hold.
    QueueDrainsFast,
    /// The closed form is derived for exactly one BBR flow; several BBR
    /// flows contest each other's bandwidth estimates.
    SingleBbrFlow,
    /// At least one loss-based competitor must exist (and the runner
    /// starts all competitors together, satisfying the synchronized-
    /// losses assumption by construction).
    SynchronizedLossCompetitor,
}

impl Precondition {
    /// Stable snapshot label.
    pub fn label(self) -> &'static str {
        match self {
            Precondition::DeepQueue => "queue-not-deep",
            Precondition::QueueDrainsFast => "queue-drains-fast",
            Precondition::SingleBbrFlow => "multiple-bbr-flows",
            Precondition::SynchronizedLossCompetitor => "no-loss-based-competitor",
        }
    }
}

/// Evaluate every precondition; empty means the model applies.
pub fn failed_preconditions(input: &ModelInput) -> Vec<Precondition> {
    let mut failed = Vec::new();
    if input.queue_mult < DEEP_QUEUE_MIN_MULT {
        failed.push(Precondition::DeepQueue);
    }
    if input.queue_drain_secs() < MIN_QUEUE_DRAIN_SECS {
        failed.push(Precondition::QueueDrainsFast);
    }
    if input.n_bbr != 1 {
        failed.push(Precondition::SingleBbrFlow);
    }
    if input.n_loss == 0 {
        failed.push(Precondition::SynchronizedLossCompetitor);
    }
    failed
}

/// Both roots of the equilibrium quadratic `2q·p² − (3q−b)·p + (q−b) = 0`.
#[derive(Clone, Copy, Debug)]
pub struct Roots {
    /// The stable equilibrium `p* = (q − b)/(2q)`.
    pub stable: f64,
    /// The unstable root (`p = 1`, BBR starved).
    pub unstable: f64,
}

/// Solve the equilibrium quadratic for the loss-based share, returning
/// both roots. Solved with the explicit quadratic formula; the
/// discriminant `(3q−b)² − 8q(q−b)` simplifies to `(q+b)²` exactly, so
/// the roots are always real for `q, b > 0`.
pub fn solve_loss_share(queue_bytes: f64, bdp_bytes: f64) -> Roots {
    let (q, b) = (queue_bytes, bdp_bytes);
    let a2 = 2.0 * q;
    let a1 = -(3.0 * q - b);
    let a0 = q - b;
    let disc = (a1 * a1 - 4.0 * a2 * a0).max(0.0);
    let s = disc.sqrt();
    let r1 = (-a1 + s) / (2.0 * a2);
    let r2 = (-a1 - s) / (2.0 * a2);
    // The larger root is p = 1 (BBR starved): a perturbation from it has
    // no restoring force because BBR's bandwidth estimate and inflight
    // cap collapse together. The smaller root is the attractor.
    Roots {
        stable: r1.min(r2),
        unstable: r1.max(r2),
    }
}

/// The model's per-cell prediction.
#[derive(Clone, Debug)]
pub struct Prediction {
    /// Aggregate loss-based share `p*` at convergence (each of the `N`
    /// synchronized competitors gets `p*/N`).
    pub loss_share: f64,
    /// BBR's share `1 − p*`.
    pub bbr_share: f64,
    /// BBR's inflight cap at convergence in the deep-queue form the
    /// snippet uses, `2·p·(1−p)·q` bytes.
    pub inflight_cap_bytes: f64,
    /// Preconditions the cell violates; empty means the prediction is
    /// quantitatively meaningful.
    pub failed: Vec<Precondition>,
}

/// Predict the convergence shares for a cell. The share is computed for
/// every cell (it is just algebra); `failed` records whether the model
/// claims validity there.
pub fn predict(input: &ModelInput) -> Prediction {
    let q = input.queue_bytes();
    let roots = solve_loss_share(q, input.bdp_bytes());
    // Outside the valid region (X < 1) the stable root goes negative;
    // clamp to the boundary so shares stay physical. Applicable cells
    // (X ≥ 2) never clamp.
    let p = roots.stable.clamp(0.0, 1.0);
    Prediction {
        loss_share: p,
        bbr_share: 1.0 - p,
        inflight_cap_bytes: 2.0 * p * (1.0 - p) * q,
        failed: failed_preconditions(input),
    }
}

/// One bulk-vs-bulk cell of the oracle grid: `n_cubic` Cubic senders
/// against one BBR sender through a shaped drop-tail bottleneck. No
/// game stream — this isolates the CCA dynamics the model describes.
#[derive(Clone, Copy, Debug)]
pub struct BulkCell {
    /// Bottleneck capacity in Mb/s.
    pub capacity_mbps: u64,
    /// Base RTT.
    pub base_rtt: SimDuration,
    /// Queue multiple `X`.
    pub queue_mult: f64,
    /// Number of Cubic competitors (all start at t = 0, synchronized).
    pub n_cubic: u32,
}

impl BulkCell {
    /// Stable cell label; also the seed stream, so every cell draws an
    /// independent, reproducible randomness stream.
    pub fn label(&self) -> String {
        format!(
            "model/c{}q{}r{}n{}",
            self.capacity_mbps,
            self.queue_mult,
            self.base_rtt.as_millis_f64(),
            self.n_cubic
        )
    }

    /// Deterministic seed derived from the label.
    pub fn seed(&self) -> u64 {
        derive_seed(stream_id(&self.label()), 0)
    }

    /// The model inputs this cell realizes.
    pub fn model_input(&self) -> ModelInput {
        ModelInput {
            capacity: BitRate::from_mbps(self.capacity_mbps),
            base_rtt: self.base_rtt,
            queue_mult: self.queue_mult,
            n_loss: self.n_cubic,
            n_bbr: 1,
        }
    }
}

/// Measured outcome of one bulk cell run.
#[derive(Clone, Debug)]
pub struct BulkMeasurement {
    /// Aggregate Cubic goodput share over the convergence window.
    pub loss_share: f64,
    /// BBR goodput share.
    pub bbr_share: f64,
    /// Per-flow goodputs (Cubic flows first, BBR last), Mb/s.
    pub goodputs_mbps: Vec<f64>,
    /// Jain's fairness index over the per-flow goodputs.
    pub jain: f64,
    /// Bottleneck utilization over the convergence window.
    pub utilization: f64,
    /// Invariant-oracle evaluations survived (0 when checks are off).
    pub checks_performed: u64,
}

/// Build `cell`'s dumbbell on `seed` and run it to `stop`: the Cubic
/// flows first, the BBR flow last, all active from t = 0 to `stop`.
/// `bbr_cwnd_gain` is [`run_bulk_cell`]'s. The oracle and ablation D3
/// measure the returned data flows over their own windows.
pub(crate) fn bulk_sim(
    cell: &BulkCell,
    seed: u64,
    stop: SimTime,
    checks: bool,
    bbr_cwnd_gain: Option<f64>,
) -> (Sim, Vec<FlowId>) {
    let capacity = BitRate::from_mbps(cell.capacity_mbps);
    let queue = capacity.bdp(cell.base_rtt).mul_f64(cell.queue_mult);
    let one_way = cell.base_rtt.mul_f64(0.5);

    let down = LinkSpec::bottleneck(capacity, queue, one_way);
    let (b, servers, client) = NetworkBuilder::dumbbell(seed, down);
    let mut b = b.checks(checks);

    let mut flows = Vec::new();
    for i in 0..cell.n_cubic {
        let data = b.flow(format!("cubic{i}"));
        let acks = b.flow(format!("cack{i}"));
        connect(&mut b, servers, client, data, acks, CcaKind::Cubic, |cfg| {
            TcpSender::new(cfg.active_during(SimTime::ZERO, stop))
        });
        flows.push(data);
    }
    let data = b.flow("bbr");
    let acks = b.flow("back");
    connect(&mut b, servers, client, data, acks, CcaKind::Bbr, |cfg| {
        let cfg = cfg.active_during(SimTime::ZERO, stop);
        match bbr_cwnd_gain {
            Some(g) => {
                TcpSender::with_controller(cfg, Box::new(Bbr::with_cwnd_gain(TCP_MSS.as_u64(), g)))
            }
            None => TcpSender::new(cfg),
        }
    });
    flows.push(data);

    let mut sim = b.build();
    sim.run_until(stop);
    (sim, flows)
}

/// Run one bulk cell for `duration` and measure converged shares over
/// the second half (BBR's PROBE_RTT cycle is 10 s, so the window must
/// cover several cycles — [`OracleSpec::paper`] uses 120 s runs).
/// `bbr_cwnd_gain` injects a perturbed controller in place of stock
/// BBR (`None` = stock `cwnd_gain = 2`); the regression tests use it to
/// prove the oracle catches a mis-tuned CCA.
pub fn run_bulk_cell(
    cell: &BulkCell,
    duration: SimDuration,
    checks: bool,
    bbr_cwnd_gain: Option<f64>,
) -> BulkMeasurement {
    let stop = SimTime::ZERO + duration;
    let (sim, flows) = bulk_sim(cell, cell.seed(), stop, checks, bbr_cwnd_gain);

    let from = SimTime::ZERO + duration.mul_f64(0.5);
    let goodputs: Vec<f64> = flows
        .iter()
        .map(|&f| sim.goodput_mbps(f, from, stop))
        .collect();
    let bbr = *goodputs.last().expect("bbr flow present");
    let cubic: f64 = goodputs[..goodputs.len() - 1].iter().sum();
    let total = (cubic + bbr).max(f64::MIN_POSITIVE);
    let capacity = BitRate::from_mbps(cell.capacity_mbps);
    BulkMeasurement {
        loss_share: cubic / total,
        bbr_share: bbr / total,
        jain: jains_index(&goodputs),
        utilization: (cubic + bbr) / capacity.as_mbps(),
        goodputs_mbps: goodputs,
        checks_performed: sim.net.checks().performed(),
    }
}

/// Per-cell verdict of the oracle.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CellVerdict {
    /// Preconditions hold and `|measured − p*| ≤` [`MODEL_TOLERANCE`].
    Within,
    /// Preconditions hold but the measurement disagrees with the model —
    /// either the simulator or the model is wrong about this cell.
    Diverged,
    /// A validity precondition failed; the named one is the first.
    Inapplicable(Precondition),
}

impl CellVerdict {
    /// Stable snapshot label.
    pub fn label(self) -> String {
        match self {
            CellVerdict::Within => "within".to_string(),
            CellVerdict::Diverged => "diverged".to_string(),
            CellVerdict::Inapplicable(p) => format!("inapplicable({})", p.label()),
        }
    }
}

/// One graded cell of the oracle grid.
#[derive(Clone, Debug)]
pub struct OracleCell {
    /// The cell that ran.
    pub cell: BulkCell,
    /// Model prediction (with precondition evaluation).
    pub prediction: Prediction,
    /// Simulator measurement.
    pub measured: BulkMeasurement,
    /// `|measured.loss_share − prediction.loss_share|`.
    pub abs_err: f64,
    /// The verdict.
    pub verdict: CellVerdict,
}

/// Grid specification for the oracle sweep.
#[derive(Clone, Debug)]
pub struct OracleSpec {
    /// Queue multiples to sweep.
    pub queue_mults: Vec<f64>,
    /// Capacities (Mb/s) to sweep.
    pub capacities_mbps: Vec<u64>,
    /// Base RTTs to sweep.
    pub base_rtts: Vec<SimDuration>,
    /// Per-cell run length.
    pub duration: SimDuration,
    /// Run with the invariant oracles auditing every cell.
    pub checks: bool,
    /// Worker threads.
    pub threads: usize,
}

impl OracleSpec {
    /// The full grid: the ISSUE's {0.5, 1, 2, 4, 8}×BDP sweep at two
    /// capacities and two base RTTs (including the paper's equalized
    /// 16.5 ms), 120 s per cell.
    pub fn paper() -> Self {
        OracleSpec {
            queue_mults: vec![0.5, 1.0, 2.0, 4.0, 8.0],
            capacities_mbps: vec![15, 25],
            base_rtts: vec![
                SimDuration::from_micros(16_500),
                SimDuration::from_micros(33_000),
            ],
            duration: SimDuration::from_secs(120),
            checks: false,
            threads: runner::default_threads(),
        }
    }

    /// CI-sized grid: one capacity/RTT but all five queue multiples, so
    /// the within / queue-not-deep / queue-drains-fast verdict paths are
    /// all exercised. Runs keep the full 120 s — the convergence window
    /// is physics, not budget (at 60 s the X = 4 cell is still ≈ 0.1
    /// short of its converged share).
    pub fn smoke() -> Self {
        OracleSpec {
            capacities_mbps: vec![25],
            base_rtts: vec![SimDuration::from_micros(16_500)],
            ..Self::paper()
        }
    }

    /// The cells this spec sweeps, in deterministic row order.
    pub fn cells(&self) -> Vec<BulkCell> {
        let mut out = Vec::new();
        for &cap in &self.capacities_mbps {
            for &rtt in &self.base_rtts {
                for &q in &self.queue_mults {
                    out.push(BulkCell {
                        capacity_mbps: cap,
                        base_rtt: rtt,
                        queue_mult: q,
                        n_cubic: 1,
                    });
                }
            }
        }
        out
    }
}

/// The graded oracle grid.
#[derive(Clone, Debug)]
pub struct OracleReport {
    /// All cells, in [`OracleSpec::cells`] order.
    pub cells: Vec<OracleCell>,
}

/// Grade one measured cell against the model.
pub fn grade_cell(cell: &BulkCell, measured: BulkMeasurement) -> OracleCell {
    let prediction = predict(&cell.model_input());
    let abs_err = (measured.loss_share - prediction.loss_share).abs();
    let verdict = match prediction.failed.first() {
        Some(&p) => CellVerdict::Inapplicable(p),
        None if abs_err <= MODEL_TOLERANCE => CellVerdict::Within,
        None => CellVerdict::Diverged,
    };
    OracleCell {
        cell: *cell,
        prediction,
        measured,
        abs_err,
        verdict,
    }
}

/// Run the oracle grid: every cell simulated (in parallel), measured,
/// and graded against the model. Deterministic for a fixed spec — cell
/// seeds derive from cell labels and grading is pure arithmetic.
pub fn run_model_oracle(spec: &OracleSpec) -> OracleReport {
    let cells = spec.cells();
    let results = runner::run_jobs(
        cells.len(),
        spec.threads,
        |i| {
            let m = run_bulk_cell(&cells[i], spec.duration, spec.checks, None);
            grade_cell(&cells[i], m)
        },
        |i| cells[i].label(),
    )
    .unwrap_or_else(|failures| {
        let mut msg = String::from("model-oracle cells panicked:\n");
        for f in &failures {
            msg.push_str(&format!("  {}: {}\n", f.label, f.message));
        }
        panic!("{msg}");
    });
    OracleReport { cells: results }
}

impl OracleReport {
    /// Cells where the model claims validity.
    pub fn applicable(&self) -> impl Iterator<Item = &OracleCell> {
        self.cells.iter().filter(|c| c.prediction.failed.is_empty())
    }

    /// Number of applicable cells that diverged.
    pub fn diverged(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.verdict == CellVerdict::Diverged)
            .count()
    }

    /// The full measurement table (floats included — deterministic for a
    /// fixed spec, but not pinned as a fixture; the fixture pins
    /// [`OracleReport::verdict_lines`]).
    pub fn table(&self) -> TextTable {
        let mut t = TextTable::new(vec![
            "cell", "X", "pred p", "meas p", "|err|", "jain", "util", "verdict",
        ]);
        for c in &self.cells {
            t.row(vec![
                format!(
                    "c{} r{:.1}ms",
                    c.cell.capacity_mbps,
                    c.cell.base_rtt.as_millis_f64()
                ),
                format!("{:.1}", c.cell.queue_mult),
                format!("{:.3}", c.prediction.loss_share),
                format!("{:.3}", c.measured.loss_share),
                format!("{:.3}", c.abs_err),
                format!("{:.3}", c.measured.jain),
                format!("{:.2}", c.measured.utilization),
                c.verdict.label(),
            ]);
        }
        t
    }

    /// CSV of the same cells at full precision.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&[
            "capacity_mbps",
            "base_rtt_ms",
            "queue_mult",
            "pred_loss_share",
            "meas_loss_share",
            "abs_err",
            "jain",
            "utilization",
            "verdict",
        ]);
        for c in &self.cells {
            csv.row(&[
                c.cell.capacity_mbps.to_string(),
                c.cell.base_rtt.as_millis_f64().to_string(),
                c.cell.queue_mult.to_string(),
                format!("{:.6}", c.prediction.loss_share),
                format!("{:.6}", c.measured.loss_share),
                format!("{:.6}", c.abs_err),
                format!("{:.6}", c.measured.jain),
                format!("{:.6}", c.measured.utilization),
                c.verdict.label(),
            ]);
        }
        csv.finish()
    }

    /// Stable per-cell verdict lines — the snapshot payload. Includes
    /// the closed-form prediction (exact arithmetic, safe to pin) but
    /// not the measured floats (threshold-graded into the verdict, so
    /// the line only changes when a cell genuinely flips).
    pub fn verdict_lines(&self) -> String {
        let mut out = String::new();
        for c in &self.cells {
            out.push_str(&format!(
                "c{}-r{:.1}ms-x{:.1} pred={:.4} {}\n",
                c.cell.capacity_mbps,
                c.cell.base_rtt.as_millis_f64(),
                c.cell.queue_mult,
                c.prediction.loss_share,
                c.verdict.label()
            ));
        }
        out
    }
}

/// Distinct (capacity, base RTT) groups of a report, in grid order.
fn cell_groups(report: &OracleReport) -> Vec<(u64, SimDuration)> {
    let mut groups: Vec<(u64, SimDuration)> = report
        .cells
        .iter()
        .map(|c| (c.cell.capacity_mbps, c.cell.base_rtt))
        .collect();
    groups.dedup();
    groups
}

/// One metric over a group's *applicable* cells, as (queue multiple,
/// value) sorted by queue multiple.
fn group_series(
    report: &OracleReport,
    cap: u64,
    rtt: SimDuration,
    metric: impl Fn(&OracleCell) -> f64,
) -> Vec<(f64, f64)> {
    let mut series: Vec<(f64, f64)> = report
        .applicable()
        .filter(|c| c.cell.capacity_mbps == cap && c.cell.base_rtt == rtt)
        .map(|c| (c.cell.queue_mult, metric(c)))
        .collect();
    series.sort_by(|a, b| a.0.total_cmp(&b.0));
    series
}

/// Fold the oracle grid into scorecard claims alongside the paper
/// claims: model agreement, monotonicity, the shallow-queue crossover,
/// and fairness-index behaviour.
pub fn model_scorecard(report: &OracleReport) -> Scorecard {
    let mut claims = Vec::new();

    let worst = report
        .applicable()
        .map(|c| c.abs_err)
        .fold(0.0f64, f64::max);
    claims.push(fraction_claim(
        "MODEL-deep-within",
        "deep-queue (X ≥ 2) Cubic-vs-BBR shares match the Ware stable root",
        report
            .applicable()
            .map(|c| c.verdict == CellVerdict::Within),
        (0.99, 0.66),
        format_args!("cells within ±{MODEL_TOLERANCE}; worst |err| {worst:.3}"),
    ));
    // Per adjacent pair of deep cells, in queue order within each
    // (capacity, RTT) group: whether `metric` does not fall (by > 0.05).
    let steps_up = |metric: fn(&OracleCell) -> f64| {
        let mut steps = Vec::new();
        for (cap, rtt) in cell_groups(report) {
            let series = group_series(report, cap, rtt, metric);
            steps.extend(series.windows(2).map(|w| w[1].1 >= w[0].1 - 0.05));
        }
        steps
    };
    // Measured loss-based share must grow with queue depth within each
    // (capacity, RTT) group — the model's central monotone prediction,
    // checked on the measurements themselves.
    claims.push(fraction_claim(
        "MODEL-share-monotone",
        "measured loss-based share grows with queue depth (deep cells)",
        steps_up(|c| c.measured.loss_share),
        (0.99, 0.66),
        "adjacent deep-cell pairs non-decreasing",
    ));
    // Below the validity region the crossover the paper leans on:
    // shallow queues starve the loss-based flow, BBR dominates.
    claims.push(fraction_claim(
        "MODEL-shallow-bbr-dominates",
        "below the validity region (X < 2) BBR takes the majority share",
        report
            .cells
            .iter()
            .filter(|c| c.cell.queue_mult < DEEP_QUEUE_MIN_MULT)
            .map(|c| c.measured.bbr_share > 0.5),
        (0.99, 0.5),
        "shallow cells BBR-majority",
    ));
    // Jain's index must improve with queue depth: the model predicts
    // shares of (p*, 1−p*) → J = 1/(2(p² + (1−p)²)/(p+(1−p))²)
    // rising toward 1 as X grows.
    claims.push(fraction_claim(
        "MODEL-jain-improves",
        "Jain's index improves as queues deepen (shares approach fair)",
        steps_up(|c| c.measured.jain),
        (0.99, 0.5),
        "deep-cell steps non-decreasing in Jain",
    ));
    {
        // Structural: every cell carries a verdict, and inapplicable
        // verdicts appear exactly on the cells whose preconditions fail.
        let consistent = report.cells.iter().all(|c| {
            matches!(c.verdict, CellVerdict::Inapplicable(_)) == !c.prediction.failed.is_empty()
        });
        claims.push(Claim {
            id: "MODEL-preconditions-enforced",
            statement: "verdicts are inapplicable exactly where a precondition fails",
            verdict: if consistent {
                Verdict::Pass
            } else {
                Verdict::Fail
            },
            evidence: format!("{} cells consistent", report.cells.len()),
        });
    }

    Scorecard { claims }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_simcore::rng::{for_each_case, Rng};

    fn input(x: f64) -> ModelInput {
        // 33 ms base RTT: X = 2 already clears the 50 ms drain floor.
        ModelInput {
            capacity: BitRate::from_mbps(25),
            base_rtt: SimDuration::from_micros(33_000),
            queue_mult: x,
            n_loss: 1,
            n_bbr: 1,
        }
    }

    #[test]
    fn stable_root_closed_form() {
        // p* = (1 − 1/X)/2 at X = 2, 4, 8.
        for (x, want) in [(2.0, 0.25), (4.0, 0.375), (8.0, 0.4375)] {
            let p = predict(&input(x)).loss_share;
            assert!((p - want).abs() < 1e-12, "X={x}: {p} vs {want}");
        }
    }

    #[test]
    fn unstable_root_is_one() {
        let i = input(4.0);
        let r = solve_loss_share(i.queue_bytes(), i.bdp_bytes());
        assert!((r.unstable - 1.0).abs() < 1e-12);
    }

    #[test]
    fn preconditions_named() {
        assert_eq!(
            failed_preconditions(&input(0.5)),
            vec![Precondition::DeepQueue, Precondition::QueueDrainsFast]
        );
        assert!(failed_preconditions(&input(2.0)).is_empty());
        // Deep in BDP multiples but draining in 33 ms: the fluid-
        // timescale precondition catches what the X threshold alone
        // would admit.
        let fast = ModelInput {
            base_rtt: SimDuration::from_micros(16_500),
            queue_mult: 2.0,
            ..input(2.0)
        };
        assert_eq!(
            failed_preconditions(&fast),
            vec![Precondition::QueueDrainsFast]
        );
        let mut i = input(4.0);
        i.n_bbr = 2;
        assert_eq!(failed_preconditions(&i), vec![Precondition::SingleBbrFlow]);
        i.n_bbr = 1;
        i.n_loss = 0;
        assert_eq!(
            failed_preconditions(&i),
            vec![Precondition::SynchronizedLossCompetitor]
        );
    }

    #[test]
    fn grade_cell_thresholds() {
        let cell = BulkCell {
            capacity_mbps: 25,
            base_rtt: SimDuration::from_micros(16_500),
            queue_mult: 4.0,
            n_cubic: 1,
        };
        let m = |share: f64| BulkMeasurement {
            loss_share: share,
            bbr_share: 1.0 - share,
            goodputs_mbps: vec![share * 25.0, (1.0 - share) * 25.0],
            jain: jains_index(&[share, 1.0 - share]),
            utilization: 1.0,
            checks_performed: 0,
        };
        // p* = 0.375 at X = 4.
        assert_eq!(grade_cell(&cell, m(0.375)).verdict, CellVerdict::Within);
        assert_eq!(grade_cell(&cell, m(0.70)).verdict, CellVerdict::Diverged);
        let shallow = BulkCell {
            queue_mult: 0.5,
            ..cell
        };
        assert_eq!(
            grade_cell(&shallow, m(0.05)).verdict,
            CellVerdict::Inapplicable(Precondition::DeepQueue)
        );
    }

    /// For all valid inputs the stable root is a proper share,
    /// strictly inside (0, 1).
    #[test]
    fn share_in_unit_interval() {
        for_each_case("share_in_unit_interval", 32, |rng| {
            let x = rng.gen_range(2.0f64..64.0);
            let cap = rng.gen_range(5u64..200);
            let rtt_us = rng.gen_range(2_000u64..200_000);
            let n = rng.gen_range(1u32..8);
            let i = ModelInput {
                capacity: BitRate::from_mbps(cap),
                base_rtt: SimDuration::from_micros(rtt_us),
                queue_mult: x,
                n_loss: n,
                n_bbr: 1,
            };
            let p = predict(&i).loss_share;
            assert!(p > 0.0 && p < 1.0, "p = {p}");
        });
    }

    /// The solved share is monotone non-decreasing in the queue
    /// multiple X.
    #[test]
    fn share_monotone_in_queue_mult() {
        for_each_case("share_monotone_in_queue_mult", 32, |rng| {
            let x = rng.gen_range(2.0f64..64.0);
            let dx = rng.gen_range(0.0f64..32.0);
            let cap = rng.gen_range(5u64..200);
            let rtt_us = rng.gen_range(2_000u64..200_000);
            let p_lo = predict(&input_with(cap, rtt_us, x)).loss_share;
            let p_hi = predict(&input_with(cap, rtt_us, x + dx)).loss_share;
            assert!(
                p_hi >= p_lo - 1e-12,
                "p({x}) = {p_lo} > p({}) = {p_hi}",
                x + dx
            );
        });
    }

    /// Plugging the solved share back into the snippet's cap formula
    /// `2·p·(1−p)·q` reproduces the exposed cap within 1e-9, and the
    /// two sides of the full equilibrium balance to the same
    /// precision (relative).
    #[test]
    fn cap_roundtrip() {
        for_each_case("cap_roundtrip", 32, |rng| {
            let x = rng.gen_range(2.0f64..64.0);
            let cap = rng.gen_range(5u64..200);
            let rtt_us = rng.gen_range(2_000u64..200_000);
            let i = input_with(cap, rtt_us, x);
            let pred = predict(&i);
            let (p, q, b) = (pred.loss_share, i.queue_bytes(), i.bdp_bytes());
            let cap_again = 2.0 * p * (1.0 - p) * q;
            assert!(
                (cap_again - pred.inflight_cap_bytes).abs()
                    <= 1e-9 * pred.inflight_cap_bytes.max(1.0)
            );
            // Full equilibrium: 2(1−p)(b + pq) = (1−p)(q + b).
            let lhs = 2.0 * (1.0 - p) * (b + p * q);
            let rhs = (1.0 - p) * (q + b);
            assert!((lhs - rhs).abs() <= 1e-9 * rhs.max(1.0), "{lhs} vs {rhs}");
        });
    }

    fn input_with(cap: u64, rtt_us: u64, x: f64) -> ModelInput {
        ModelInput {
            capacity: BitRate::from_mbps(cap),
            base_rtt: SimDuration::from_micros(rtt_us),
            queue_mult: x,
            n_loss: 1,
            n_bbr: 1,
        }
    }
}
