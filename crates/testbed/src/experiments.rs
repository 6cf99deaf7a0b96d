//! One entry point per table and figure of the paper.
//!
//! Table 1 runs its own grid; every other function reduces a grid the
//! caller ran once with [`ExperimentOpts::run`] to the paper's artifact.
//! The returned structs carry the numbers; the `Display`/`csv` methods
//! render them for terminals and plotting scripts.
//!
//! | paper artifact | function | grid |
//! |---|---|---|
//! | Table 1 (unconstrained bitrates) | [`table1`] | [`Grid::table1`] |
//! | Figure 2 (bitrate vs time, B25) | [`figure2`] | [`Grid::figure2`] or full grid |
//! | Figure 3 (fairness heatmaps) | [`figure3`] | full grid |
//! | Figure 4 (adaptiveness vs fairness) | [`figure4`] | full grid |
//! | Table 3 (RTT, solo) | [`table3`] | solo grid |
//! | Table 4 (RTT, competing) | [`table4`] | full grid |
//! | Table 5 (frame rate, competing) | [`table5`] | full grid |
//! | Tech-report loss tables | [`loss_tables`] | solo + full grid |

use std::fmt;
use std::path::PathBuf;
use std::time::Instant;

use gsrepro_gamestream::SystemKind;
use gsrepro_simcore::stats::{mean_ci95, Samples};
use gsrepro_tcp::CcaKind;

use crate::config::{Aqm, Condition, Grid, Timeline, CAPACITIES_MBPS, CCAS, QUEUE_MULTS};
use crate::metrics;
use crate::report::{heat_glyph, mean_sd, mean_sd2, Csv, TextTable};
use crate::runner::{run_many_full, ConditionResult};

/// How much work to spend: iteration count, parallelism, timeline.
#[derive(Clone, Debug)]
pub struct ExperimentOpts {
    /// Runs per condition (the paper uses 15).
    pub iterations: u32,
    /// Worker threads.
    pub threads: usize,
    /// Timeline (full paper timeline, or scaled for smoke tests).
    pub timeline: Timeline,
    /// Export per-run flight-recorder traces into this directory, one
    /// `<label>-i<iter>.csv` per run (`--trace <dir>`).
    pub trace: Option<PathBuf>,
    /// Run with invariant oracles enabled (`--checks`): every run audits
    /// packet/token conservation, queue bounds and encoder-rate sanity,
    /// panicking with a structured report on the first violation.
    pub checks: bool,
}

impl ExperimentOpts {
    /// A cheap configuration for CI smoke tests: short timeline, few runs.
    pub fn smoke() -> Self {
        ExperimentOpts {
            iterations: 2,
            threads: crate::runner::default_threads(),
            timeline: Timeline::scaled(0.08),
            trace: None,
            checks: false,
        }
    }

    /// A medium configuration: the `gsrepro` CLI's default mode.
    pub fn quick() -> Self {
        ExperimentOpts {
            iterations: 5,
            threads: crate::runner::default_threads(),
            timeline: Timeline::paper(),
            trace: None,
            checks: false,
        }
    }

    /// Run every condition with these options ([`run_many_full`]), then
    /// log the grid's throughput to stderr: runs, engine events, wall time
    /// and events per second of summed run time. Every CLI sweep runs
    /// through here, so a collapse shows in normal use.
    pub fn run(&self, conditions: &[Condition]) -> Vec<ConditionResult> {
        let started = Instant::now();
        let results = run_many_full(
            conditions,
            self.iterations,
            self.threads,
            self.trace.as_deref(),
            self.checks,
        );
        let runs = results.iter().flat_map(|cr| &cr.runs);
        let events: u64 = runs.clone().map(|r| r.events_processed).sum();
        let run_wall: f64 = runs.clone().map(|r| r.wall_secs).sum();
        let per_sec = if run_wall > 0.0 {
            events as f64 / run_wall
        } else {
            0.0
        };
        eprintln!(
            "grid: {} runs, {} events in {:.2} s wall ({:.2}M events/s)",
            runs.count(),
            events,
            started.elapsed().as_secs_f64(),
            per_sec / 1e6,
        );
        results
    }
}

/// Results of the full competing-flow grid, shared by Figures 3-4 and
/// Tables 4-5 so the 54 × N runs execute once.
pub struct GridResults {
    /// One entry per condition, in [`Grid::full`] order.
    pub results: Vec<ConditionResult>,
    /// The options the grid ran with.
    pub opts: ExperimentOpts,
}

/// Run the full grid (3 systems × 2 CCAs × 3 capacities × 3 queues).
pub fn run_full_grid(opts: ExperimentOpts) -> GridResults {
    let results = opts.run(&Grid::full(opts.timeline));
    GridResults { results, opts }
}

/// Run the solo grid (no competing flow).
pub fn run_solo_grid(opts: ExperimentOpts) -> GridResults {
    let results = opts.run(&Grid::solo(opts.timeline));
    GridResults { results, opts }
}

/// Run the 3-D AQM scorecard grid (3 systems × 3 CCAs × 3 AQMs at the
/// paper's 25 Mb/s / 2× BDP point).
pub fn run_aqm3d_grid(opts: ExperimentOpts) -> GridResults {
    let results = opts.run(&Grid::aqm3d(opts.timeline));
    GridResults { results, opts }
}

/// A grid cell's identity: (system, competitor, capacity Mb/s, queue × BDP).
type CellKey<C> = (SystemKind, C, u64, f64);

/// Whether `cell` is the cell `want` names. Queue multiples are floats that
/// went through arithmetic, so they match within 1e-9; the rest is exact.
fn is_cell<C: PartialEq>(cell: CellKey<C>, want: CellKey<C>) -> bool {
    cell.0 == want.0 && cell.1 == want.1 && cell.2 == want.2 && (cell.3 - want.3).abs() < 1e-9
}

fn key_of(cr: &ConditionResult) -> CellKey<Option<CcaKind>> {
    let c = &cr.condition;
    (c.system, c.cca, c.capacity.as_mbps() as u64, c.queue_mult)
}

/// The result of the cell (system, competitor, capacity Mb/s, queue × BDP)
/// among `results`, if it ran.
pub fn find_cell(
    results: &[ConditionResult],
    system: SystemKind,
    cca: Option<CcaKind>,
    capacity_mbps: u64,
    queue_mult: f64,
) -> Option<&ConditionResult> {
    let want = (system, cca, capacity_mbps, queue_mult);
    results.iter().find(|r| is_cell(key_of(r), want))
}

impl GridResults {
    /// Find the condition result for a cell.
    pub fn get(
        &self,
        system: SystemKind,
        cca: Option<CcaKind>,
        capacity_mbps: u64,
        queue_mult: f64,
    ) -> Option<&ConditionResult> {
        find_cell(&self.results, system, cca, capacity_mbps, queue_mult)
    }
}

// ---------------------------------------------------------------------------
// Table 1
// ---------------------------------------------------------------------------

/// Table 1: unconstrained steady-state bitrates.
pub struct Table1 {
    /// (system, mean Mb/s, sd) over pooled 0.5 s bins in the steady window.
    pub rows: Vec<(SystemKind, f64, f64)>,
}

/// Run Table 1: each system on a 1 Gb/s link, no competitor.
pub fn table1(opts: ExperimentOpts) -> Table1 {
    let results = opts.run(&Grid::table1(opts.timeline));
    let tl = opts.timeline;
    let rows = results
        .iter()
        .map(|r| {
            let mut pooled = gsrepro_simcore::stats::Samples::new();
            for run in &r.runs {
                for v in run
                    .game_window(tl.original_window.0, tl.original_window.1)
                    .values()
                {
                    pooled.add(*v);
                }
            }
            (r.condition.system, pooled.mean(), pooled.stddev())
        })
        .collect();
    Table1 { rows }
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut t = TextTable::new(vec!["System", "Bitrate (Mb/s)"]);
        for &(sys, mean, sd) in &self.rows {
            t.row(vec![sys.label().to_string(), mean_sd(mean, sd)]);
        }
        write!(f, "{}", t.render())
    }
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// One point of a bitrate time series: (time s, mean Mb/s, 95% CI).
pub type SeriesPoint = (f64, f64, f64);

/// One panel of Figure 2: a system × CCA at 25 Mb/s, one line per queue.
pub struct Figure2Panel {
    /// The streamed system.
    pub system: SystemKind,
    /// The competing congestion control.
    pub cca: CcaKind,
    /// (queue multiple, bitrate series).
    pub series: Vec<(f64, Vec<SeriesPoint>)>,
}

/// Figure 2: game bitrate over time at the 25 Mb/s constraint.
pub struct Figure2 {
    /// Six panels in the paper's order (Cubic row then BBR row).
    pub panels: Vec<Figure2Panel>,
    /// Timeline used (for the iperf start/stop markers).
    pub timeline: Timeline,
}

/// Reduce a grid to Figure 2. Only its 25 Mb/s slice is read, so the
/// bare [`Grid::figure2`] slice and the full grid give the same figure.
pub fn figure2(grid: &GridResults) -> Figure2 {
    let mut panels = Vec::new();
    for &cca in &CCAS {
        for &sys in &SystemKind::ALL {
            let mut series = Vec::new();
            for &q in &QUEUE_MULTS {
                if let Some(cr) = grid.get(sys, Some(cca), 25, q) {
                    series.push((q, cr.game_series_ci()));
                }
            }
            panels.push(Figure2Panel {
                system: sys,
                cca,
                series,
            });
        }
    }
    Figure2 {
        panels,
        timeline: grid.opts.timeline,
    }
}

impl Figure2 {
    /// CSV: `system,cca,queue,t,mean,ci`.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&["system", "cca", "queue_bdp", "t_s", "mean_mbps", "ci95"]);
        for p in &self.panels {
            for (q, pts) in &p.series {
                for &(t, m, ci) in pts {
                    csv.row(&[
                        p.system.label().into(),
                        p.cca.label().into(),
                        format!("{q}"),
                        format!("{t:.2}"),
                        format!("{m:.4}"),
                        format!("{ci:.4}"),
                    ]);
                }
            }
        }
        csv.finish()
    }
}

impl fmt::Display for Figure2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tl = &self.timeline;
        writeln!(
            f,
            "Figure 2 — bitrate vs time, 25 Mb/s; competitor active {:.0}-{:.0} s",
            tl.iperf_start.as_secs_f64(),
            tl.iperf_stop.as_secs_f64()
        )?;
        for p in &self.panels {
            writeln!(f, "\n[{} vs {}]", p.system, p.cca)?;
            let mut t = TextTable::new(vec!["queue", "before", "during", "after"]);
            for (q, pts) in &p.series {
                let phase = |from: f64, to: f64| {
                    let vals: Vec<f64> = pts
                        .iter()
                        .filter(|&&(x, _, _)| x >= from && x < to)
                        .map(|&(_, m, _)| m)
                        .collect();
                    if vals.is_empty() {
                        0.0
                    } else {
                        vals.iter().sum::<f64>() / vals.len() as f64
                    }
                };
                let before = phase(
                    tl.original_window.0.as_secs_f64(),
                    tl.iperf_start.as_secs_f64(),
                );
                let during = phase(
                    tl.fairness_window.0.as_secs_f64(),
                    tl.iperf_stop.as_secs_f64(),
                );
                let after = phase(
                    (tl.iperf_stop.as_secs_f64() + tl.end.as_secs_f64()) / 2.0,
                    tl.end.as_secs_f64(),
                );
                t.row(vec![
                    format!("{q}x"),
                    format!("{before:.1}"),
                    format!("{during:.1}"),
                    format!("{after:.1}"),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One heatmap cell of Figure 3.
pub struct Figure3Cell {
    /// System.
    pub system: SystemKind,
    /// Competitor CCA.
    pub cca: CcaKind,
    /// Capacity (Mb/s).
    pub capacity: u64,
    /// Queue size (BDP multiples).
    pub queue: f64,
    /// `(game − tcp) / capacity`, averaged across runs.
    pub ratio: f64,
}

/// Figure 3: normalized bitrate-difference heatmaps.
pub struct Figure3 {
    /// All 54 cells.
    pub cells: Vec<Figure3Cell>,
}

/// Reduce a full grid to Figure 3.
pub fn figure3(grid: &GridResults) -> Figure3 {
    let mut cells = Vec::new();
    for cr in &grid.results {
        let Some(cca) = cr.condition.cca else {
            continue;
        };
        // Welford's running mean, not `fairness_mean`'s sum ÷ n: the two
        // can differ in the last bit and the heatmap's digits are pinned.
        let ratios: Vec<f64> = cr
            .runs
            .iter()
            .map(|r| metrics::fairness(r, &cr.condition))
            .collect();
        let (mean, _) = mean_ci95(&ratios);
        cells.push(Figure3Cell {
            system: cr.condition.system,
            cca,
            capacity: cr.condition.capacity.as_mbps() as u64,
            queue: cr.condition.queue_mult,
            ratio: mean,
        });
    }
    Figure3 { cells }
}

impl Figure3 {
    /// Cell lookup.
    pub fn cell(&self, system: SystemKind, cca: CcaKind, capacity: u64, queue: f64) -> Option<f64> {
        let want = (system, cca, capacity, queue);
        self.cells
            .iter()
            .find(|c| is_cell((c.system, c.cca, c.capacity, c.queue), want))
            .map(|c| c.ratio)
    }

    /// CSV: `system,cca,capacity,queue,ratio`.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&["system", "cca", "capacity_mbps", "queue_bdp", "ratio"]);
        for c in &self.cells {
            csv.row(&[
                c.system.label().into(),
                c.cca.label().into(),
                c.capacity.to_string(),
                format!("{}", c.queue),
                format!("{:.4}", c.ratio),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for Figure3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 3 — (game − TCP) bitrate ÷ capacity; + = game wins, − = TCP wins"
        )?;
        for &cca in &CCAS {
            writeln!(f, "\n== competing with {} ==", cca)?;
            for &sys in &SystemKind::ALL {
                writeln!(f, "\n  {} vs {}", sys, cca)?;
                let mut t = TextTable::new(vec!["cap \\ queue", "0.5x", "2x", "7x"]);
                for &cap in &CAPACITIES_MBPS {
                    let mut row = vec![format!("{cap} Mb/s")];
                    for &q in &QUEUE_MULTS {
                        let v = self.cell(sys, cca, cap, q).unwrap_or(f64::NAN);
                        row.push(format!("{:+.2} {}", v, heat_glyph(v)));
                    }
                    t.row(row);
                }
                for line in t.render().lines() {
                    writeln!(f, "    {line}")?;
                }
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// One scatter point of Figure 4.
pub struct Figure4Point {
    /// System.
    pub system: SystemKind,
    /// Competitor CCA.
    pub cca: CcaKind,
    /// Capacity (Mb/s).
    pub capacity: u64,
    /// Queue (BDP multiples).
    pub queue: f64,
    /// Fairness (x-axis).
    pub fairness: f64,
    /// Adaptiveness A (y-axis).
    pub adaptiveness: f64,
    /// Mean response time C, seconds.
    pub response_s: f64,
    /// Mean recovery time E, seconds.
    pub recovery_s: f64,
    /// Fraction of runs that never responded.
    pub never_responded: f64,
    /// Fraction of runs that never recovered.
    pub never_recovered: f64,
}

/// Figure 4: adaptiveness vs fairness scatter.
pub struct Figure4 {
    /// All points (18 per CCA).
    pub points: Vec<Figure4Point>,
}

/// One condition's mean response time C and recovery time E over its runs,
/// each with the fraction of runs that never settled:
/// `(C s, C never, E s, E never)`.
fn response_recovery_means(cr: &ConditionResult) -> (f64, f64, f64, f64) {
    let tl = &cr.condition.timeline;
    let n = cr.runs.len().max(1) as f64;
    let (mut c_sum, mut e_sum, mut c_never, mut e_never) = (0.0, 0.0, 0.0, 0.0);
    for r in &cr.runs {
        let c = metrics::response_time(r, tl);
        let e = metrics::recovery_time(r, tl);
        c_sum += c.secs;
        e_sum += e.secs;
        if c.never {
            c_never += 1.0;
        }
        if e.never {
            e_never += 1.0;
        }
    }
    (c_sum / n, c_never / n, e_sum / n, e_never / n)
}

/// Reduce a full grid to Figure 4.
pub fn figure4(grid: &GridResults) -> Figure4 {
    let mut points: Vec<Figure4Point> = Vec::new();
    for &cca in &CCAS {
        let first = points.len();
        for cr in &grid.results {
            if cr.condition.cca != Some(cca) {
                continue;
            }
            let (c, nr, e, nv) = response_recovery_means(cr);
            points.push(Figure4Point {
                system: cr.condition.system,
                cca,
                capacity: cr.condition.capacity.as_mbps() as u64,
                queue: cr.condition.queue_mult,
                fairness: cr.fairness_mean(),
                adaptiveness: 0.0, // set below, once the panel's maxima are known
                response_s: c,
                recovery_s: e,
                never_responded: nr,
                never_recovered: nv,
            });
        }
        // Normalize per CCA panel by the maximum response/recovery across
        // all systems and conditions, as the paper does.
        let panel = &mut points[first..];
        let c_max = panel.iter().map(|p| p.response_s).fold(0.0, f64::max);
        let e_max = panel.iter().map(|p| p.recovery_s).fold(0.0, f64::max);
        for p in panel {
            p.adaptiveness = metrics::adaptiveness(p.response_s, c_max, p.recovery_s, e_max);
        }
    }
    Figure4 { points }
}

impl Figure4 {
    /// Mean (fairness, adaptiveness) of a system's cloud of points per CCA.
    pub fn centroid(&self, system: SystemKind, cca: CcaKind) -> (f64, f64) {
        let pts: Vec<&Figure4Point> = self
            .points
            .iter()
            .filter(|p| p.system == system && p.cca == cca)
            .collect();
        if pts.is_empty() {
            return (0.0, 0.0);
        }
        let n = pts.len() as f64;
        (
            pts.iter().map(|p| p.fairness).sum::<f64>() / n,
            pts.iter().map(|p| p.adaptiveness).sum::<f64>() / n,
        )
    }

    /// CSV: one row per point.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&[
            "system",
            "cca",
            "capacity_mbps",
            "queue_bdp",
            "fairness",
            "adaptiveness",
            "response_s",
            "recovery_s",
            "never_responded",
            "never_recovered",
        ]);
        for p in &self.points {
            csv.row(&[
                p.system.label().into(),
                p.cca.label().into(),
                p.capacity.to_string(),
                format!("{}", p.queue),
                format!("{:.4}", p.fairness),
                format!("{:.4}", p.adaptiveness),
                format!("{:.2}", p.response_s),
                format!("{:.2}", p.recovery_s),
                format!("{:.2}", p.never_responded),
                format!("{:.2}", p.never_recovered),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for Figure4 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 4 — adaptiveness (0..1, higher better) vs fairness (0 = equal share)"
        )?;
        for &cca in &CCAS {
            writeln!(f, "\n== vs {} ==", cca)?;
            let mut t =
                TextTable::new(vec!["system", "fairness", "adaptiveness", "C (s)", "E (s)"]);
            for &sys in &SystemKind::ALL {
                let (fx, ay) = self.centroid(sys, cca);
                let pts: Vec<&Figure4Point> = self
                    .points
                    .iter()
                    .filter(|p| p.system == sys && p.cca == cca)
                    .collect();
                let n = pts.len().max(1) as f64;
                let c = pts.iter().map(|p| p.response_s).sum::<f64>() / n;
                let e = pts.iter().map(|p| p.recovery_s).sum::<f64>() / n;
                t.row(vec![
                    sys.label().to_string(),
                    format!("{fx:+.2}"),
                    format!("{ay:.2}"),
                    format!("{c:.0}"),
                    format!("{e:.0}"),
                ]);
            }
            write!(f, "{}", t.render())?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tables 3, 4, 5 and loss tables
// ---------------------------------------------------------------------------

/// A (capacity × queue × system [× cca]) table of "mean (sd)" strings with
/// the raw numbers kept alongside.
pub struct QoeTable {
    /// Table title.
    pub title: String,
    /// Rows: (capacity, queue, system, cca label or "-", mean, sd).
    pub rows: Vec<(u64, f64, SystemKind, String, f64, f64)>,
}

impl QoeTable {
    /// Look up a cell's mean.
    pub fn mean(&self, capacity: u64, queue: f64, system: SystemKind, cca: &str) -> Option<f64> {
        let want = (system, cca, capacity, queue);
        self.rows
            .iter()
            .find(|r| is_cell((r.2, r.3.as_str(), r.0, r.1), want))
            .map(|r| r.4)
    }

    /// CSV form.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&["capacity_mbps", "queue_bdp", "system", "cca", "mean", "sd"]);
        for (cap, q, sys, cca, m, sd) in &self.rows {
            csv.row(&[
                cap.to_string(),
                format!("{q}"),
                sys.label().into(),
                cca.clone(),
                format!("{m:.3}"),
                format!("{sd:.3}"),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for QoeTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}", self.title)?;
        let mut t = TextTable::new(vec!["capacity", "queue", "system", "cca", "mean (sd)"]);
        for (cap, q, sys, cca, m, sd) in &self.rows {
            t.row(vec![
                format!("{cap} Mb/s"),
                format!("{q}x"),
                sys.label().to_string(),
                cca.clone(),
                if *m >= 10.0 {
                    mean_sd(*m, *sd)
                } else {
                    mean_sd2(*m, *sd)
                },
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// One row per cell of `grid`, in grid order: `cell` reduces a condition to
/// its (mean, sd) over [`ConditionResult::competitor_window`]; a solo
/// grid's cells are listed under cca "-".
fn qoe_table(
    title: &str,
    grid: &GridResults,
    cell: impl Fn(&ConditionResult) -> (f64, f64),
) -> QoeTable {
    let rows = grid.results.iter().map(|cr| {
        let (mean, sd) = cell(cr);
        let (system, cca, capacity, queue) = key_of(cr);
        let cca = cca.map_or("-", CcaKind::label).to_string();
        (capacity, queue, system, cca, mean, sd)
    });
    QoeTable {
        title: title.into(),
        rows: rows.collect(),
    }
}

fn mean_and_sd(s: Samples) -> (f64, f64) {
    (s.mean(), s.stddev())
}

fn rtt_cell(cr: &ConditionResult) -> (f64, f64) {
    mean_and_sd(cr.rtt_pooled())
}

/// Table 3: RTT without a competing flow. Measured over what would be the
/// competitor window (steady gameplay).
pub fn table3(solo: &GridResults) -> QoeTable {
    let title = "Table 3 — RTT (ms) without a competing TCP flow";
    qoe_table(title, solo, rtt_cell)
}

/// Table 4: RTT with a competing flow, measured while it runs.
pub fn table4(grid: &GridResults) -> QoeTable {
    let title = "Table 4 — RTT (ms) with a competing TCP flow";
    qoe_table(title, grid, rtt_cell)
}

/// Table 5: displayed frame rate with a competing flow.
pub fn table5(grid: &GridResults) -> QoeTable {
    let title = "Table 5 — frame rate (f/s) with a competing TCP flow";
    qoe_table(title, grid, |cr| mean_and_sd(cr.fps_pooled()))
}

/// One cell of the 3-D AQM scorecard: QoE of the game stream and fate of
/// the competitor at a fixed (25 Mb/s, 2× BDP) bottleneck.
pub struct Aqm3dRow {
    /// Streaming system.
    pub system: SystemKind,
    /// Competing CCA.
    pub cca: CcaKind,
    /// Bottleneck queue discipline.
    pub aqm: Aqm,
    /// Game goodput during the competitor window, Mb/s.
    pub game_mbps: f64,
    /// Competitor goodput during its window, Mb/s.
    pub iperf_mbps: f64,
    /// Mean RTT during the competitor window, ms.
    pub rtt_ms: f64,
    /// Mean displayed frame rate during the competitor window, f/s.
    pub fps: f64,
    /// Game media loss during the competitor window, percent.
    pub loss_pct: f64,
    /// CE marks on the competitor across all runs (ECN path evidence).
    pub ce_marks: u64,
    /// Competitor retransmissions across all runs.
    pub tcp_retx: u64,
    /// Competitor queue/AQM drops across all runs.
    pub tcp_drops: u64,
}

/// The 27-cell table behind the 3-D AQM scorecard.
pub struct Aqm3dTable {
    /// One row per (AQM, CCA, system) cell, in [`Grid::aqm3d`] order.
    pub rows: Vec<Aqm3dRow>,
}

/// Reduce the 3-D AQM grid to its per-cell QoE rows.
pub fn aqm3d(grid: &GridResults) -> Aqm3dTable {
    let mut rows = Vec::new();
    for cr in &grid.results {
        let Some(cca) = cr.condition.cca else {
            continue;
        };
        rows.push(Aqm3dRow {
            system: cr.condition.system,
            cca,
            aqm: cr.condition.aqm,
            game_mbps: cr.game_mean(cr.competitor_window()),
            iperf_mbps: cr.iperf_mean(cr.competitor_window()),
            rtt_ms: cr.rtt_pooled().mean(),
            fps: cr.fps_pooled().mean(),
            loss_pct: cr.loss_mean() * 100.0,
            ce_marks: cr.runs.iter().map(|r| r.tcp_ce_marked).sum(),
            tcp_retx: cr.runs.iter().map(|r| r.tcp_retransmissions).sum(),
            tcp_drops: cr.runs.iter().map(|r| r.tcp_queue_drops).sum(),
        });
    }
    Aqm3dTable { rows }
}

impl Aqm3dTable {
    /// Cell lookup.
    pub fn get(&self, system: SystemKind, cca: CcaKind, aqm: Aqm) -> Option<&Aqm3dRow> {
        self.rows
            .iter()
            .find(|r| r.system == system && r.cca == cca && r.aqm == aqm)
    }

    /// CSV: one row per cell, stable order — the bench's diffable output.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&[
            "system",
            "cca",
            "aqm",
            "game_mbps",
            "iperf_mbps",
            "rtt_ms",
            "fps",
            "loss_pct",
            "ce_marks",
            "tcp_retx",
            "tcp_drops",
        ]);
        for r in &self.rows {
            csv.row(&[
                r.system.label().into(),
                r.cca.label().into(),
                r.aqm.label().into(),
                format!("{:.4}", r.game_mbps),
                format!("{:.4}", r.iperf_mbps),
                format!("{:.4}", r.rtt_ms),
                format!("{:.4}", r.fps),
                format!("{:.4}", r.loss_pct),
                r.ce_marks.to_string(),
                r.tcp_retx.to_string(),
                r.tcp_drops.to_string(),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for Aqm3dTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "3-D AQM scorecard — 25 Mb/s, 2x BDP; measured while the competitor runs"
        )?;
        let mut t = TextTable::new(vec![
            "aqm", "cca", "system", "game", "iperf", "RTT ms", "f/s", "loss %", "CE", "retx",
        ]);
        for r in &self.rows {
            t.row(vec![
                r.aqm.label().to_string(),
                r.cca.label().to_string(),
                r.system.label().to_string(),
                format!("{:.1}", r.game_mbps),
                format!("{:.1}", r.iperf_mbps),
                format!("{:.1}", r.rtt_ms),
                format!("{:.1}", r.fps),
                format!("{:.2}", r.loss_pct),
                r.ce_marks.to_string(),
                r.tcp_retx.to_string(),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// Tech-report loss tables: game media loss with/without the competitor.
pub fn loss_tables(solo: &GridResults, grid: &GridResults) -> (QoeTable, QoeTable) {
    let loss_pct = |cr: &ConditionResult| (cr.loss_mean() * 100.0, 0.0);
    (
        qoe_table("Loss (%) without a competing TCP flow", solo, loss_pct),
        qoe_table("Loss (%) with a competing TCP flow", grid, loss_pct),
    )
}

/// One row of the response/recovery table: (capacity, queue, system, cca,
/// mean C s, never-responded fraction, mean E s, never-recovered fraction).
pub type ResponseRecoveryRow = (u64, f64, SystemKind, CcaKind, f64, f64, f64, f64);

/// The technical report's response/recovery breakdown: per-condition mean
/// response time C and recovery time E (Figure 4 shows only the combined
/// adaptiveness; the report tabulates the parts).
pub struct ResponseRecoveryTable {
    /// One row per condition.
    pub rows: Vec<ResponseRecoveryRow>,
}

/// Compute the response/recovery breakdown from a full grid.
pub fn response_recovery(grid: &GridResults) -> ResponseRecoveryTable {
    let mut rows = Vec::new();
    for cr in &grid.results {
        let Some(cca) = cr.condition.cca else {
            continue;
        };
        let (c, c_never, e, e_never) = response_recovery_means(cr);
        rows.push((
            cr.condition.capacity.as_mbps() as u64,
            cr.condition.queue_mult,
            cr.condition.system,
            cca,
            c,
            c_never,
            e,
            e_never,
        ));
    }
    ResponseRecoveryTable { rows }
}

impl ResponseRecoveryTable {
    /// CSV: one row per condition.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&[
            "capacity",
            "queue",
            "system",
            "cca",
            "response_s",
            "never_resp",
            "recovery_s",
            "never_rec",
        ]);
        for &(cap, q, sys, cca, c, cn, e, en) in &self.rows {
            csv.row(&[
                cap.to_string(),
                format!("{q}"),
                sys.label().into(),
                cca.label().into(),
                format!("{c:.2}"),
                format!("{cn:.2}"),
                format!("{e:.2}"),
                format!("{en:.2}"),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for ResponseRecoveryTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Response time C (competitor arrival → settled) and recovery time E\n\
             (departure → original bitrate), per condition; '!' fraction never settled"
        )?;
        let mut t = TextTable::new(vec![
            "capacity", "queue", "system", "cca", "C (s)", "C never", "E (s)", "E never",
        ]);
        for &(cap, q, sys, cca, c, cn, e, en) in &self.rows {
            t.row(vec![
                format!("{cap} Mb/s"),
                format!("{q}x"),
                sys.label().to_string(),
                cca.label().to_string(),
                format!("{c:.1}"),
                format!("{cn:.2}"),
                format!("{e:.1}"),
                format!("{en:.2}"),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// Harm analysis (the paper's future-work suggestion, after Ware et al.,
/// HotNets '19): how much did the competitor damage the game stream's
/// throughput, delay, and frame rate relative to its solo performance
/// under the same network condition?
pub struct HarmTable {
    /// Rows: (capacity, queue, system, cca, throughput harm, delay harm,
    /// frame-rate harm), all in [0, ∞) with 0 = no harm.
    pub rows: Vec<(u64, f64, SystemKind, CcaKind, f64, f64, f64)>,
}

/// Compute harm by pairing each competing condition with its solo twin.
pub fn harm_table(solo: &GridResults, grid: &GridResults) -> HarmTable {
    let mut rows = Vec::new();
    for cr in &grid.results {
        let Some(cca) = cr.condition.cca else {
            continue;
        };
        let cap = cr.condition.capacity.as_mbps() as u64;
        let q = cr.condition.queue_mult;
        let Some(solo_cr) = solo.get(cr.condition.system, None, cap, q) else {
            continue;
        };
        let window = cr.competitor_window();
        rows.push((
            cap,
            q,
            cr.condition.system,
            cca,
            metrics::harm(solo_cr.game_mean(window), cr.game_mean(window), true),
            metrics::harm(solo_cr.rtt_pooled().mean(), cr.rtt_pooled().mean(), false),
            metrics::harm(solo_cr.fps_pooled().mean(), cr.fps_pooled().mean(), true),
        ));
    }
    HarmTable { rows }
}

impl HarmTable {
    /// CSV: one row per competing condition.
    pub fn csv(&self) -> String {
        let mut csv = Csv::new(&[
            "capacity",
            "queue",
            "system",
            "cca",
            "tput_harm",
            "delay_harm",
            "fps_harm",
        ]);
        for &(cap, q, sys, cca, ht, hd, hf) in &self.rows {
            csv.row(&[
                cap.to_string(),
                format!("{q}"),
                sys.label().into(),
                cca.label().into(),
                format!("{ht:.4}"),
                format!("{hd:.4}"),
                format!("{hf:.4}"),
            ]);
        }
        csv.finish()
    }
}

impl fmt::Display for HarmTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Harm analysis (Ware et al.): damage to the game stream relative to solo"
        )?;
        let mut t = TextTable::new(vec![
            "capacity",
            "queue",
            "system",
            "cca",
            "tput harm",
            "delay harm",
            "fps harm",
        ]);
        for &(cap, q, sys, cca, ht, hd, hf) in &self.rows {
            t.row(vec![
                format!("{cap} Mb/s"),
                format!("{q}x"),
                sys.label().to_string(),
                cca.label().to_string(),
                format!("{ht:.2}"),
                format!("{hd:.2}"),
                format!("{hf:.2}"),
            ]);
        }
        write!(f, "{}", t.render())
    }
}

/// Table 2 is the configuration itself; echo it for completeness.
pub fn table2_text() -> String {
    let mut t = TextTable::new(vec!["Parameter", "Values"]);
    t.row(vec!["Game system", "Stadia, GeForce, or Luna"]);
    t.row(vec!["Game", "Ys VIII (scripted; simulated frame source)"]);
    t.row(vec!["Capacity limit", "15, 25, or 35 Mb/s"]);
    t.row(vec!["Queue size", "0.5x, 2x, or 7x BDP"]);
    t.row(vec!["Competing TCP flow", "Cubic or BBR"]);
    t.row(vec!["Trace length", "9 minutes (3 with iperf)"]);
    t.row(vec!["Iterations", "15 runs per condition"]);
    format!("Table 2 — experimental parameters\n{}", t.render())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_echoes_parameters() {
        let s = table2_text();
        assert!(s.contains("15, 25, or 35"));
        assert!(s.contains("0.5x, 2x, or 7x BDP"));
    }

    #[test]
    fn find_cell_and_get_name_the_same_cell() {
        let opts = ExperimentOpts::smoke();
        for conditions in [Grid::full(opts.timeline), Grid::solo(opts.timeline)] {
            let cell = |condition| ConditionResult {
                condition,
                runs: Vec::new(),
            };
            let grid = GridResults {
                results: conditions.into_iter().map(cell).collect(),
                opts: opts.clone(),
            };
            for cr in &grid.results {
                let c = &cr.condition;
                let (cap, q) = (c.capacity.as_mbps() as u64, c.queue_mult);
                let found = find_cell(&grid.results, c.system, c.cca, cap, q);
                assert!(std::ptr::eq(found.expect("on the grid"), cr));
                assert!(std::ptr::eq(grid.get(c.system, c.cca, cap, q).unwrap(), cr));
                // A multiple that went through arithmetic still matches...
                let q_computed = q / 3.0 * 3.0;
                assert!(find_cell(&grid.results, c.system, c.cca, cap, q_computed).is_some());
                // ...an off-grid one, or another capacity, does not.
                assert!(find_cell(&grid.results, c.system, c.cca, cap, q + 0.25).is_none());
                assert!(find_cell(&grid.results, c.system, c.cca, cap + 1, q).is_none());
            }
        }
    }

    #[test]
    fn figure2_reads_only_its_slice() {
        let mut opts = ExperimentOpts::smoke();
        opts.iterations = 1;
        opts.timeline = Timeline::scaled(0.02);
        let slice = GridResults {
            results: opts.run(&Grid::figure2(opts.timeline)),
            opts: opts.clone(),
        };
        // The full grid's other capacities, with no runs: a figure that
        // read one of them would lose that cell's series.
        let off_slice = Grid::full(opts.timeline)
            .into_iter()
            .filter(|c| c.capacity != gsrepro_simcore::BitRate::from_mbps(25))
            .map(|condition| ConditionResult {
                condition,
                runs: Vec::new(),
            });
        let padded = GridResults {
            results: slice.results.iter().cloned().chain(off_slice).collect(),
            opts: opts.clone(),
        };
        assert_eq!(padded.results.len(), 18 + 36);
        let (bare, wide) = (figure2(&slice), figure2(&padded));
        assert_eq!(bare.to_string(), wide.to_string());
        assert_eq!(bare.csv(), wide.csv());
        assert!(bare.panels.iter().all(|p| p.series.len() == 3));
    }

    #[test]
    fn smoke_table1_orders_systems() {
        let mut opts = ExperimentOpts::smoke();
        opts.iterations = 1;
        let t1 = table1(opts);
        assert_eq!(t1.rows.len(), 3);
        let get = |k: SystemKind| t1.rows.iter().find(|r| r.0 == k).expect("row exists").1;
        let stadia = get(SystemKind::Stadia);
        let geforce = get(SystemKind::GeForce);
        let luna = get(SystemKind::Luna);
        // Unconstrained ordering from Table 1: Stadia > GeForce > Luna.
        assert!(
            stadia > geforce && geforce > luna,
            "{stadia} {geforce} {luna}"
        );
        // And the absolute levels are near the paper's. (The smoke
        // timeline's short window does not average over whole scene-sine
        // periods, so allow a generous band; the full-timeline bench
        // matches within a few tenths.)
        assert!((stadia - 27.5).abs() < 2.5, "stadia {stadia}");
        assert!((luna - 23.7).abs() < 2.5, "luna {luna}");
        let rendered = format!("{t1}");
        assert!(rendered.contains("stadia"));
    }
}
