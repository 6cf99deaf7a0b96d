//! Executes experimental conditions across seeded iterations, in parallel.
//!
//! The paper runs every condition 15 times, striping across systems to
//! keep comparisons temporally close. Here runs are independent simulations
//! (no shared Internet weather to stripe against), so the runner simply
//! executes (condition × iteration) jobs across OS threads and aggregates.
//! Iteration `i` of a condition always uses the same derived seed, so any
//! run can be reproduced in isolation.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use gsrepro_gamestream::client::StreamClient;
use gsrepro_gamestream::server::StreamServer;
use gsrepro_netsim::apps::PingAgent;
use gsrepro_netsim::monitor::FlowStats;
use gsrepro_netsim::ScenarioSpec;
use gsrepro_simcore::stats::{Samples, TimeBinned};
use gsrepro_simcore::{SchedStats, SimDuration, SimError, SimTime, TelemetryConfig, Watchdog};
use gsrepro_tcp::TcpSender;

use crate::config::Condition;
use crate::{metrics, topology};

/// Everything measured in one run of one condition.
#[derive(Clone, Debug)]
pub struct RunResult {
    /// Condition label this run belongs to.
    pub label: String,
    /// Iteration index (selects the seed).
    pub iter: u32,
    /// Monitor bin width for the bitrate series.
    pub bin_width: SimDuration,
    /// Game goodput per bin, Mb/s.
    pub game_bins_mbps: Vec<f64>,
    /// Competing TCP goodput per bin, Mb/s (empty for solo runs).
    pub iperf_bins_mbps: Vec<f64>,
    /// Ping RTT samples: (reply time s, RTT ms).
    pub rtt: Vec<(f64, f64)>,
    /// Bin width of the frame-rate series (the client's fps bins).
    pub fps_bin_width: SimDuration,
    /// Displayed frames per fps bin, scaled to frames/s.
    pub fps_bins: Vec<f64>,
    /// Game media packets sent per bin.
    pub game_sent_bins: Vec<f64>,
    /// Game media packets dropped per bin.
    pub game_dropped_bins: Vec<f64>,
    /// Total game media loss rate over the run.
    pub game_loss_rate: f64,
    /// TCP retransmissions (competing runs).
    pub tcp_retransmissions: u64,
    /// TCP bytes delivered (competing runs).
    pub tcp_delivered_bytes: u64,
    /// CE marks the AQM placed on the competing TCP flow (ECN-capable
    /// senders over CoDel/FQ-CoDel; always 0 for drop-tail or Not-ECT).
    pub tcp_ce_marked: u64,
    /// Queue/AQM drops suffered by the competing TCP flow.
    pub tcp_queue_drops: u64,
    /// Final encoder rate trace mean, Mb/s (diagnostics).
    pub encoder_rate_mean: f64,
    /// Engine events handled by this run (deterministic per seed).
    pub events_processed: u64,
    /// Events scheduled in the past and clamped to "now" by the engine.
    pub past_clamps: u64,
    /// Scheduler occupancy counters (deterministic per seed): where events
    /// landed (lane/cur/wheel), cascade volume, cancels, and the
    /// event-slab high-watermark.
    pub sched: SchedStats,
    /// Invariant-oracle evaluations performed (0 when checks are off). A
    /// run that returns at all had zero violations — a violated oracle
    /// panics with a structured report instead of completing — so this
    /// counts evidence, not failures.
    pub checks_performed: u64,
    /// Wall-clock seconds the simulation took (NOT deterministic; excluded
    /// from reproducibility comparisons).
    pub wall_secs: f64,
}

/// The values of a uniformly binned series whose bin *midpoints*
/// `(i + 0.5)·width` fall in `[from, to)` — the one windowing rule behind
/// every per-window number the testbed reports.
pub fn bin_window(bins: &[f64], width: SimDuration, from: SimTime, to: SimTime) -> Samples {
    let w = width.as_secs_f64();
    let mut s = Samples::new();
    for (i, &v) in bins.iter().enumerate() {
        let mid = (i as f64 + 0.5) * w;
        if mid >= from.as_secs_f64() && mid < to.as_secs_f64() {
            s.add(v);
        }
    }
    s
}

impl RunResult {
    /// Game goodput samples (Mb/s per bin) within `[from, to)`.
    pub fn game_window(&self, from: SimTime, to: SimTime) -> Samples {
        bin_window(&self.game_bins_mbps, self.bin_width, from, to)
    }

    /// Competing-TCP goodput samples within `[from, to)`.
    pub fn iperf_window(&self, from: SimTime, to: SimTime) -> Samples {
        bin_window(&self.iperf_bins_mbps, self.bin_width, from, to)
    }

    /// RTT samples within `[from, to)` (ms).
    pub fn rtt_window(&self, from: SimTime, to: SimTime) -> Samples {
        let mut s = Samples::new();
        for &(t, v) in &self.rtt {
            if t >= from.as_secs_f64() && t < to.as_secs_f64() {
                s.add(v);
            }
        }
        s
    }

    /// Displayed frame-rate samples (f/s per fps bin) within `[from, to)`.
    pub fn fps_window(&self, from: SimTime, to: SimTime) -> Samples {
        bin_window(&self.fps_bins, self.fps_bin_width, from, to)
    }

    /// Game media loss rate within `[from, to)`.
    pub fn game_loss_window(&self, from: SimTime, to: SimTime) -> f64 {
        // Summed up from +0.0, not `sum()`'s −0.0: a run that dropped
        // nothing has no dropped bins, and its loss must print as 0, not −0.
        let total = |bins| {
            let window = bin_window(bins, self.bin_width, from, to);
            window.values().iter().fold(0.0, |sum, v| sum + v)
        };
        let (sent, dropped) = (total(&self.game_sent_bins), total(&self.game_dropped_bins));
        if sent <= 0.0 {
            0.0
        } else {
            (dropped / sent).clamp(0.0, 1.0)
        }
    }
}

/// All runs of one condition.
#[derive(Clone, Debug)]
pub struct ConditionResult {
    /// The condition.
    pub condition: Condition,
    /// One result per iteration.
    pub runs: Vec<RunResult>,
}

impl ConditionResult {
    /// `[iperf_start, iperf_stop)`: the window the competitor runs in — in a
    /// solo cell, the same stretch of steady gameplay. Every per-cell QoE
    /// number (Tables 3–5, loss, harm, the AQM cube) is reduced over it.
    pub fn competitor_window(&self) -> (SimTime, SimTime) {
        let tl = &self.condition.timeline;
        (tl.iperf_start, tl.iperf_stop)
    }

    /// Plain mean of one value per run.
    fn mean_over_runs(&self, per_run: impl Fn(&RunResult) -> f64) -> f64 {
        self.runs.iter().map(per_run).sum::<f64>() / self.runs.len().max(1) as f64
    }

    /// Mean over runs of each run's mean game goodput (Mb/s) in the window
    /// `[from, to)` — a [`Timeline`](crate::config::Timeline) window or
    /// [`Self::competitor_window`].
    pub fn game_mean(&self, (from, to): (SimTime, SimTime)) -> f64 {
        self.mean_over_runs(|r| r.game_window(from, to).mean())
    }

    /// Mean over runs of each run's mean competing-TCP goodput in `[from, to)`.
    pub fn iperf_mean(&self, (from, to): (SimTime, SimTime)) -> f64 {
        self.mean_over_runs(|r| r.iperf_window(from, to).mean())
    }

    /// Mean over runs of [`metrics::fairness`].
    pub fn fairness_mean(&self) -> f64 {
        self.mean_over_runs(|r| metrics::fairness(r, &self.condition))
    }

    /// RTT samples of all runs pooled, over the competitor window.
    pub fn rtt_pooled(&self) -> Samples {
        let (from, to) = self.competitor_window();
        let mut s = Samples::new();
        for r in &self.runs {
            for v in r.rtt_window(from, to).values() {
                s.add(*v);
            }
        }
        s
    }

    /// Frame-rate samples of all runs pooled, over the competitor window.
    pub fn fps_pooled(&self) -> Samples {
        let (from, to) = self.competitor_window();
        let mut s = Samples::new();
        for r in &self.runs {
            for v in r.fps_window(from, to).values() {
                s.add(*v);
            }
        }
        s
    }

    /// Mean over runs of the game loss rate in the competitor window.
    pub fn loss_mean(&self) -> f64 {
        let (from, to) = self.competitor_window();
        self.mean_over_runs(|r| r.game_loss_window(from, to))
    }

    /// Cross-run mean ± 95% CI of the game bitrate for each time bin
    /// (Figure 2's plotted series).
    pub fn game_series_ci(&self) -> Vec<(f64, f64, f64)> {
        let n_bins = self
            .runs
            .iter()
            .map(|r| r.game_bins_mbps.len())
            .max()
            .unwrap_or(0);
        let w = self
            .runs
            .first()
            .map(|r| r.bin_width.as_secs_f64())
            .unwrap_or(0.5);
        (0..n_bins)
            .map(|i| {
                let vals: Vec<f64> = self
                    .runs
                    .iter()
                    .map(|r| r.game_bins_mbps.get(i).copied().unwrap_or(0.0))
                    .collect();
                let (mean, ci) = gsrepro_simcore::stats::mean_ci95(&vals);
                ((i as f64 + 0.5) * w, mean, ci)
            })
            .collect()
    }
}

/// Borrowed view over a finished run: everything a metrics consumer needs,
/// still inside the live testbed, with **no per-bin vector cloned**.
///
/// [`RunView::to_result`] materializes a full [`RunResult`] from it (and
/// pays the clones); the fleet campaign layer ([`crate::campaign`])
/// instead reduces the view to a handful of per-session scalars and lets
/// the whole simulation drop — that is what keeps a 100k-session sweep
/// memory-flat.
pub struct RunView<'a> {
    /// The condition that ran.
    pub cond: &'a Condition,
    /// Iteration index (selects the seed).
    pub iter: u32,
    tb: &'a topology::Testbed,
    /// Engine events handled by this run (deterministic per seed).
    pub events_processed: u64,
    /// Events scheduled in the past and clamped to "now".
    pub past_clamps: u64,
    /// Scheduler occupancy counters.
    pub sched: SchedStats,
    /// Invariant-oracle evaluations performed (0 when checks are off).
    pub checks_performed: u64,
    /// Wall-clock seconds the simulation took (not deterministic).
    pub wall_secs: f64,
}

impl RunView<'_> {
    /// Monitor statistics of the game media flow (borrow; includes the
    /// delivered/sent/dropped [`TimeBinned`] series).
    pub fn game_stats(&self) -> &FlowStats {
        self.tb.sim.net.monitor().stats(self.tb.game_flow)
    }

    /// Monitor statistics of the competing TCP flow, when one ran.
    pub fn iperf_stats(&self) -> Option<&FlowStats> {
        self.tb
            .iperf_flow
            .map(|f| self.tb.sim.net.monitor().stats(f))
    }

    /// The ping agent (borrow; RTT samples in milliseconds).
    pub fn ping(&self) -> &PingAgent {
        self.tb.sim.net.agent(self.tb.ping)
    }

    /// The client's displayed-frames-per-second bins (borrow).
    pub fn fps_bins(&self) -> &TimeBinned {
        let client: &StreamClient = self.tb.sim.net.agent(self.tb.client);
        client.fps_bins()
    }

    /// The server's encoder target-rate trace, Mb/s (borrow).
    pub fn encoder_trace(&self) -> &Samples {
        let server: &StreamServer = self.tb.sim.net.agent(self.tb.server);
        server.rate_trace()
    }

    /// `(retransmissions, delivered bytes)` of the competing TCP sender
    /// (zeros for solo runs).
    pub fn tcp_counters(&self) -> (u64, u64) {
        match self.tb.tcp_sender {
            Some(id) => {
                let s: &TcpSender = self.tb.sim.net.agent(id);
                (s.retransmissions(), s.delivered_bytes())
            }
            None => (0, 0),
        }
    }

    /// Materialize the full per-run record (clones every per-bin series).
    pub fn to_result(&self) -> RunResult {
        let game_stats = self.game_stats();
        let bin_width = game_stats.delivered_bins.width();
        let to_mbps = 8.0 / bin_width.as_secs_f64() / 1e6;

        let game_bins_mbps: Vec<f64> = game_stats
            .delivered_bins
            .bins()
            .iter()
            .map(|b| b * to_mbps)
            .collect();
        let game_sent_bins = game_stats.sent_bins.bins().to_vec();
        let game_dropped_bins = game_stats.dropped_bins.bins().to_vec();
        let game_loss_rate = game_stats.loss_rate();

        let iperf_bins_mbps: Vec<f64> = self
            .iperf_stats()
            .map(|s| {
                s.delivered_bins
                    .bins()
                    .iter()
                    .map(|b| b * to_mbps)
                    .collect()
            })
            .unwrap_or_default();

        let rtt: Vec<(f64, f64)> = self.ping().rtt_with_times();
        let fps_bin_width = self.fps_bins().width();
        let fps_bins = self.fps_bins().bins().to_vec();
        let encoder_rate_mean = self.encoder_trace().mean();
        let (tcp_retransmissions, tcp_delivered_bytes) = self.tcp_counters();
        let (tcp_ce_marked, tcp_queue_drops) = self
            .iperf_stats()
            .map(|s| (s.ce_marked_pkts, s.queue_drop_pkts))
            .unwrap_or((0, 0));

        RunResult {
            label: self.cond.label(),
            iter: self.iter,
            bin_width,
            game_bins_mbps,
            iperf_bins_mbps,
            rtt,
            fps_bin_width,
            fps_bins,
            game_sent_bins,
            game_dropped_bins,
            game_loss_rate,
            tcp_retransmissions,
            tcp_delivered_bytes,
            tcp_ce_marked,
            tcp_queue_drops,
            encoder_rate_mean,
            events_processed: self.events_processed,
            past_clamps: self.past_clamps,
            sched: self.sched,
            checks_performed: self.checks_performed,
            wall_secs: self.wall_secs,
        }
    }
}

/// Run one iteration of a condition and reduce it through `sink` while the
/// testbed is still alive. The sink receives a [`RunView`] borrowing the
/// simulation state; whatever it returns is the run's only retained
/// output. This is the one-run primitive both [`run_many_full`] (sink =
/// `|v| v.to_result()`, "clone everything into a [`RunResult`]") and the
/// fleet campaign layer (sink = "stream a few scalars into bounded
/// sketches") build on.
///
/// With `trace` set, the flight recorder observes the run and its per-flow
/// rings are flushed to `<trace>/<label>-i<iter>.csv` before
/// returning. With `checks` on, the network audits packet/token
/// conservation, queue bounds and telemetry agreement throughout the run,
/// and the runner adds a testbed-level oracle on top: every encoder rate
/// the streaming server ever targeted must lie within the system profile's
/// advertised band. A violated oracle panics with a structured report.
/// Neither perturbs the simulation: traced and checked runs are
/// bit-identical to plain ones.
///
/// The run is watchdog-guarded like every other: one that trips
/// [`Watchdog::default`] panics with the [`SimError`] text, which
/// [`run_jobs`] reports as a named job failure instead of a hang.
pub fn run_condition_with<R>(
    cond: &Condition,
    iter: u32,
    trace: Option<&Path>,
    checks: bool,
    sink: impl FnOnce(&RunView) -> R,
) -> R {
    let (none, dog) = (ScenarioSpec::new(), Watchdog::default());
    run_condition_core(cond, iter, trace, checks, &none, &dog, sink)
        .unwrap_or_else(|e| panic!("{e}"))
}

/// [`run_condition_with`] with an extra chaos [`ScenarioSpec`] applied on
/// top of the condition's own scenario (empty for a plain run) and the
/// whole simulation under `dog`. Invalid schedules and runaway or
/// livelocked runs come back as structured [`SimError`]s instead of
/// panicking or hanging; invariant-oracle violations still panic (the
/// chaos campaign catches and classifies those).
pub(crate) fn run_condition_core<R>(
    cond: &Condition,
    iter: u32,
    trace: Option<&Path>,
    checks: bool,
    chaos: &ScenarioSpec,
    dog: &Watchdog,
    sink: impl FnOnce(&RunView) -> R,
) -> Result<R, SimError> {
    let started = std::time::Instant::now();
    let recorder = trace.map(|_| TelemetryConfig::default());
    let mut tb = topology::build_full(cond, iter, recorder, checks);
    // Run slightly past the end so the final bins fill.
    let until = cond.timeline.end + SimDuration::from_secs(1);
    tb.sim.try_apply_scenario(chaos)?;
    tb.sim.run_until_guarded(until, dog)?;
    let wall_secs = started.elapsed().as_secs_f64();
    let events_processed = tb.sim.events_processed();
    let past_clamps = tb.sim.past_clamps();
    let sched = tb.sim.sched_stats();
    let checks_performed = tb.sim.net.checks().performed();

    if checks {
        // Controller-sanity oracle: whatever the rate controller did under
        // congestion, every target it set must stay inside the profile's
        // advertised band (the clamp every controller is supposed to
        // apply). Small epsilon for the Mb/s float conversion.
        let server: &StreamServer = tb.sim.net.agent(tb.server);
        let profile = cond.system.profile();
        let lo = profile.min_rate.as_mbps();
        let hi = profile.max_rate.as_mbps();
        let now = tb.sim.now();
        for &mbps in server.rate_trace().values() {
            if mbps < lo - 1e-6 || mbps > hi + 1e-6 {
                gsrepro_simcore::checks::fail(
                    now,
                    "encoder-bounds",
                    format!("{} encoder", cond.system.label()),
                    format!("rate {mbps:.3} Mb/s outside profile band [{lo:.3}, {hi:.3}] Mb/s"),
                );
            }
        }

        // Frame-accounting oracle: the client decides each frame the server
        // sent at most once, and a bin displays no more frames than were
        // captured in it or within one display deadline before it.
        let client: &StreamClient = tb.sim.net.agent(tb.client);
        let who = || format!("{} client", cond.system.label());
        let sent = server.frames_sent();
        let decided = client.displayed_frames() + client.skipped_frames();
        if decided > sent {
            gsrepro_simcore::checks::fail(
                now,
                "frame-accounting",
                who(),
                format!("{decided} frames displayed or skipped, {sent} sent"),
            );
        }
        let bins = client.fps_bins();
        let window = bins.width() + client.display_deadline();
        let most = (window.as_secs_f64() * profile.frames.fps as f64).floor() + 1.0;
        for (i, &shown) in bins.bins().iter().enumerate() {
            if shown > most {
                gsrepro_simcore::checks::fail(
                    now,
                    "frame-accounting",
                    who(),
                    format!("{shown} frames displayed in fps bin {i}, at most {most} captured"),
                );
            }
        }
    }

    let out = sink(&RunView {
        cond,
        iter,
        tb: &tb,
        events_processed,
        past_clamps,
        sched,
        checks_performed,
        wall_secs,
    });

    if let Some(dir) = trace {
        if let Some(tel) = tb.sim.net.telemetry().telemetry() {
            let path = dir.join(format!("{}-i{}.csv", cond.label(), iter));
            std::fs::write(&path, tel.to_csv())
                .unwrap_or_else(|e| panic!("writing trace {}: {e}", path.display()));
        }
    }
    Ok(out)
}

/// Run `iterations` seeded runs of every condition, using up to `threads`
/// OS threads. Results preserve the input condition order. With `trace`
/// set, every run exports its per-flow trace into that directory (created
/// if missing); with `checks` on, every run arms the runtime invariant
/// oracles (see [`run_condition_with`]).
///
/// A run that panics (an oracle violation, an internal bug) no longer
/// takes the whole grid down opaquely: every job runs under
/// [`run_jobs`]'s panic isolation, the remaining jobs finish, and the
/// final panic names each failing `(condition, iteration)` pair.
///
/// It prints nothing: [`ExperimentOpts::run`], the CLI's way in, logs the
/// grid's throughput line.
///
/// [`ExperimentOpts::run`]: crate::experiments::ExperimentOpts::run
pub fn run_many_full(
    conditions: &[Condition],
    iterations: u32,
    threads: usize,
    trace: Option<&Path>,
    checks: bool,
) -> Vec<ConditionResult> {
    if let Some(dir) = trace {
        std::fs::create_dir_all(dir)
            .unwrap_or_else(|e| panic!("creating trace dir {}: {e}", dir.display()));
    }
    let jobs: Vec<(usize, u32)> = (0..conditions.len())
        .flat_map(|c| (0..iterations).map(move |i| (c, i)))
        .collect();

    let runs = run_jobs(
        jobs.len(),
        threads,
        |j| {
            let (c, i) = jobs[j];
            run_condition_with(&conditions[c], i, trace, checks, |view| view.to_result())
        },
        |j| {
            let (c, i) = jobs[j];
            format!("{} iter {i}", conditions[c].label())
        },
    )
    .unwrap_or_else(|failures| {
        let shown: Vec<String> = failures
            .iter()
            .take(5)
            .map(|f| format!("{}: {}", f.label, f.message))
            .collect();
        panic!(
            "grid failed: {} of {} runs panicked — {}{}",
            failures.len(),
            jobs.len(),
            shown.join("; "),
            if failures.len() > 5 { "; …" } else { "" },
        )
    });

    // `jobs` is condition-major with the iteration innermost and
    // `run_jobs` preserves job order, so results regroup by simple takes.
    let mut it = runs.into_iter();
    conditions
        .iter()
        .map(|cond| ConditionResult {
            condition: cond.clone(),
            runs: it.by_ref().take(iterations as usize).collect(),
        })
        .collect()
}

/// One job that panicked inside [`run_jobs`].
#[derive(Clone, Debug)]
pub struct JobFailure {
    /// Job index in submission order.
    pub index: usize,
    /// Human-readable job description (e.g. `stadia-cubic-b25-q2 iter 3`).
    pub label: String,
    /// The panic payload, stringified.
    pub message: String,
}

impl std::fmt::Display for JobFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{} (job {}): {}", self.label, self.index, self.message)
    }
}

pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Execute `n` independent jobs across up to `threads` OS threads,
/// pulling from a shared queue (idle workers steal whatever job is next).
/// Results come back in job order.
///
/// Each job runs under `catch_unwind`: one panicking job no longer
/// poisons a shared mutex and kills every other worker with an opaque
/// `expect` — the rest of the queue drains normally and the error lists
/// every failure with its `describe(index)` label. The runner and the
/// fleet campaign engine both schedule through this.
pub fn run_jobs<T, R, D>(
    n: usize,
    threads: usize,
    run: R,
    describe: D,
) -> Result<Vec<T>, Vec<JobFailure>>
where
    T: Send,
    R: Fn(usize) -> T + Sync,
    D: Fn(usize) -> String + Sync,
{
    let next = AtomicUsize::new(0);
    let slots: Vec<std::sync::Mutex<Option<Result<T, JobFailure>>>> =
        (0..n).map(|_| std::sync::Mutex::new(None)).collect();

    let workers = threads.max(1).min(n.max(1));
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let j = next.fetch_add(1, Ordering::Relaxed);
                if j >= n {
                    break;
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run(j)))
                    .map_err(|p| JobFailure {
                        index: j,
                        label: describe(j),
                        message: panic_message(p.as_ref()),
                    });
                // Storing a finished value cannot panic, so the mutex can
                // only be "poisoned" by a concurrent describe() failure;
                // recover the guard either way.
                *slots[j].lock().unwrap_or_else(|e| e.into_inner()) = Some(outcome);
            });
        }
    });

    let mut ok = Vec::with_capacity(n);
    let mut failures = Vec::new();
    for slot in slots {
        let outcome = slot
            .into_inner()
            .unwrap_or_else(|e| e.into_inner())
            .expect("every claimed job stores an outcome");
        match outcome {
            Ok(v) => ok.push(v),
            Err(f) => failures.push(f),
        }
    }
    if failures.is_empty() {
        Ok(ok)
    } else {
        Err(failures)
    }
}

/// Default thread count: leave one core for the OS.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{Condition, Timeline};
    use gsrepro_gamestream::SystemKind;
    use gsrepro_simcore::telemetry::{parse_csv, EventKind, TelemetryEvent};
    use gsrepro_tcp::CcaKind;

    fn quick_cond() -> Condition {
        Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 15, 2.0)
            .with_timeline(Timeline::scaled(0.06)) // ~32 s runs
    }

    #[test]
    fn iterations_differ() {
        let cond = quick_cond();
        let a = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let b = run_condition_with(&cond, 1, None, false, |v| v.to_result());
        assert_ne!(a.game_bins_mbps, b.game_bins_mbps);
    }

    #[test]
    fn parallel_matches_serial() {
        let cond = quick_cond();
        let serial = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let many = run_many_full(&[cond], 2, 4, None, false);
        assert_eq!(many.len(), 1);
        assert_eq!(many[0].runs.len(), 2);
        assert_eq!(many[0].runs[0].game_bins_mbps, serial.game_bins_mbps);
    }

    #[test]
    fn run_jobs_preserves_order_and_parallelism() {
        let out = run_jobs(8, 4, |j| j * 10, |j| format!("job-{j}")).expect("no failures");
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50, 60, 70]);
        // Degenerate cases.
        assert_eq!(run_jobs(0, 4, |j| j, |_| String::new()).unwrap(), vec![]);
    }

    #[test]
    fn run_jobs_reports_failing_jobs_and_finishes_the_rest() {
        // Pre-fix, one panicking run poisoned the shared results mutex and
        // every other worker died on "runner mutex poisoned" with no hint
        // of which (condition, iteration) failed. Now: the panicking jobs
        // are named, and all healthy jobs still complete.
        let err = run_jobs(
            6,
            2,
            |j| {
                if j == 2 || j == 5 {
                    panic!("oracle violated in job {j}");
                }
                j
            },
            |j| format!("luna-cubic-b25-q2 iter {j}"),
        )
        .expect_err("two jobs panic");
        assert_eq!(err.len(), 2);
        assert_eq!(err[0].index, 2);
        assert_eq!(err[0].label, "luna-cubic-b25-q2 iter 2");
        assert!(err[0].message.contains("oracle violated in job 2"));
        assert_eq!(err[1].index, 5);
        assert!(format!("{}", err[1]).contains("iter 5"));
    }

    #[test]
    fn run_view_matches_run_result() {
        // The sink API must observe exactly what the materialized
        // RunResult records — same borrowed series, no perturbation.
        let cond = quick_cond();
        let full = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let (goodput_bins, rtt_mean, fps_sum, encoder_mean, events) =
            run_condition_with(&cond, 0, None, false, |v| {
                (
                    v.game_stats().delivered_bins.len(),
                    v.ping().rtt_samples().mean(),
                    v.fps_bins().bins().iter().sum::<f64>(),
                    v.encoder_trace().mean(),
                    v.events_processed,
                )
            });
        assert_eq!(goodput_bins, full.game_bins_mbps.len());
        let full_rtt_mean = full.rtt.iter().map(|&(_, v)| v).sum::<f64>() / full.rtt.len() as f64;
        assert!((rtt_mean - full_rtt_mean).abs() < 1e-9);
        assert_eq!(fps_sum, full.fps_bins.iter().sum::<f64>());
        assert_eq!(encoder_mean, full.encoder_rate_mean);
        assert_eq!(events, full.events_processed);
    }

    #[test]
    fn fps_window_respects_bin_width() {
        let mut r = run_condition_with(&quick_cond(), 0, None, false, |v| v.to_result());
        assert!(r.fps_bin_width > SimDuration::ZERO);
        // Re-bin by hand: with 500 ms bins, [0, 2 s) must select exactly 4.
        r.fps_bins = vec![60.0; 10];
        r.fps_bin_width = SimDuration::from_millis(500);
        let s = r.fps_window(SimTime::ZERO, SimTime::from_secs(2));
        assert_eq!(s.len(), 4);
        assert_eq!(s.mean(), 60.0);
    }

    /// The events of the one file a single traced run of `cond` left in
    /// `dir`, which must be its `.csv` and nothing else.
    fn only_trace(dir: &std::path::Path, cond: &Condition) -> Vec<TelemetryEvent> {
        let csv = format!("{}-i0.csv", cond.label());
        let files: Vec<_> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(
            files,
            std::slice::from_ref(&csv),
            "a traced run writes one .csv only"
        );
        parse_csv(&std::fs::read_to_string(dir.join(csv)).unwrap()).unwrap()
    }

    #[test]
    fn tracing_does_not_perturb_the_simulation() {
        use gsrepro_simcore::telemetry::validate_events;

        let cond = quick_cond();
        let plain = run_condition_with(&cond, 0, None, false, |v| v.to_result());

        let dir = std::env::temp_dir().join(format!("gsrepro-trace-test-{}", std::process::id()));
        let traced = {
            let out = run_many_full(
                std::slice::from_ref(&cond),
                1,
                1,
                Some(dir.as_path()),
                false,
            );
            out.into_iter().next().unwrap().runs.remove(0)
        };

        // The recorder is a pure observer: every deterministic output of
        // the run must be bit-identical with tracing on.
        assert_eq!(plain.game_bins_mbps, traced.game_bins_mbps);
        assert_eq!(plain.iperf_bins_mbps, traced.iperf_bins_mbps);
        assert_eq!(plain.rtt, traced.rtt);
        assert_eq!(plain.fps_bins, traced.fps_bins);
        assert_eq!(plain.events_processed, traced.events_processed);

        // And the exported file parses and validates.
        let from_csv = only_trace(&dir, &cond);
        validate_events(&from_csv).unwrap();
        assert!(from_csv.iter().any(|e| e.kind == EventKind::Cwnd));
        assert!(from_csv.iter().any(|e| e.kind == EventKind::EncoderRate));
        assert!(from_csv.iter().any(|e| e.kind == EventKind::QueueDepth));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn tracing_does_not_perturb_an_ecn_marked_run() {
        use crate::config::Aqm;

        // BBRv2 over CoDel: an ECN-capable sender on a marking AQM, so
        // the run exercises the CE/ECE signal path end to end while the
        // recorder watches.
        let cond = Condition::new(SystemKind::Luna, Some(CcaKind::Bbr2), 15, 2.0)
            .with_timeline(Timeline::scaled(0.06))
            .with_aqm(Aqm::CoDel);
        let plain = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        assert!(plain.tcp_ce_marked > 0, "run produced no CE marks");

        let dir = std::env::temp_dir().join(format!("gsrepro-ecn-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let traced = run_condition_with(&cond, 0, Some(dir.as_path()), false, |v| v.to_result());

        // The recorder observes marks; it must not change them (or any
        // other deterministic output of the run).
        assert_eq!(plain.game_bins_mbps, traced.game_bins_mbps);
        assert_eq!(plain.iperf_bins_mbps, traced.iperf_bins_mbps);
        assert_eq!(plain.rtt, traced.rtt);
        assert_eq!(plain.fps_bins, traced.fps_bins);
        assert_eq!(plain.tcp_ce_marked, traced.tcp_ce_marked);
        assert_eq!(plain.tcp_queue_drops, traced.tcp_queue_drops);
        assert_eq!(plain.events_processed, traced.events_processed);

        // Every mark made it into the exported trace.
        let marks = only_trace(&dir, &cond)
            .iter()
            .filter(|e| e.kind == EventKind::EcnMark)
            .count() as u64;
        assert_eq!(
            marks, traced.tcp_ce_marked,
            "trace must carry every CE mark"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scenario_run_keeps_its_schedules_on_the_wheel() {
        use crate::config::{Aqm, PathScenario};
        use gsrepro_simcore::BitRate;

        // The benchmark's first `aqm-dynamic` cell at x0.05. Its two steps
        // are the only wheel entries at t = 0; a cursor fetched to the first
        // of them sorted 36 % of the run's schedules into `cur` by hand.
        let at = |secs: f64| SimTime::from_millis((secs * 50.0) as u64);
        let cond = Condition::new(SystemKind::Stadia, Some(CcaKind::Cubic), 25, 2.0)
            .with_timeline(Timeline::scaled(0.05))
            .with_aqm(Aqm::CoDel)
            .with_scenario(PathScenario::RateStep {
                rate: BitRate::from_mbps(10),
                from: at(250.0),
                to: at(300.0),
            });
        let s = run_condition_with(&cond, 0, None, false, |v| v.sched);
        let placements = s.lane_scheduled + s.cur_scheduled + s.wheel_scheduled;
        assert!(
            s.cur_scheduled * 50 < placements,
            "{} of {placements} schedules bypassed the wheel",
            s.cur_scheduled
        );
    }

    #[test]
    fn scenario_run_is_deterministic_and_trace_transparent() {
        use crate::config::PathScenario;
        use gsrepro_simcore::BitRate;

        // Solo Stadia on a 25 Mb/s path that steps down to 10 Mb/s across
        // the middle of the run, then restores.
        let tl = Timeline::scaled(0.12); // ~65 s runs
        let frac = |f: f64| SimTime::from_millis((tl.end.as_secs_f64() * f * 1000.0) as u64);
        let cond = Condition::new(SystemKind::Stadia, None, 25, 2.0)
            .with_timeline(tl)
            .with_scenario(PathScenario::RateStep {
                rate: BitRate::from_mbps(10),
                from: frac(0.35),
                to: frac(0.70),
            });

        // Deterministic: two untraced runs are bit-identical.
        let plain = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let again = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        assert_eq!(plain.game_bins_mbps, again.game_bins_mbps);
        assert_eq!(plain.rtt, again.rtt);
        assert_eq!(plain.events_processed, again.events_processed);

        // Trace-transparent: scenario steps ride the ordinary event queue,
        // so the traced run is bit-identical too.
        let dir =
            std::env::temp_dir().join(format!("gsrepro-scenario-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let traced = run_condition_with(&cond, 0, Some(dir.as_path()), false, |v| v.to_result());
        assert_eq!(plain.game_bins_mbps, traced.game_bins_mbps);
        assert_eq!(plain.rtt, traced.rtt);
        assert_eq!(plain.events_processed, traced.events_processed);

        // Both schedule applications were recorded in the trace.
        let steps = only_trace(&dir, &cond)
            .iter()
            .filter(|e| e.kind == EventKind::LinkScenario)
            .count();
        assert_eq!(steps, 2, "trace must carry both scenario steps");
        std::fs::remove_dir_all(&dir).ok();

        // And the stream actually responded: bitrate near the 25 Mb/s
        // capacity before the step, pinned under 10 Mb/s while constrained.
        let pre = plain.game_window(frac(0.15), frac(0.35)).mean();
        let during = plain.game_window(frac(0.55), frac(0.70)).mean();
        assert!(pre > 15.0, "pre-step bitrate {pre}");
        assert!(during < 11.5, "constrained bitrate {during}");
        assert!(
            during < pre - 5.0,
            "rate step must bite: pre {pre} during {during}"
        );
    }

    #[test]
    fn window_helpers() {
        let cond = quick_cond();
        let r = run_condition_with(&cond, 0, None, false, |v| v.to_result());
        let t = cond.timeline;
        // The game streams before the competitor arrives.
        let orig = r.game_window(t.original_window.0, t.original_window.1);
        assert!(orig.mean() > 5.0, "pre-competitor bitrate {}", orig.mean());
        // Loss accounting is sane.
        let loss = r.game_loss_window(t.fairness_window.0, t.fairness_window.1);
        assert!((0.0..=1.0).contains(&loss));
        // RTT samples exist in the window.
        assert!(!r
            .rtt_window(t.original_window.0, t.original_window.1)
            .is_empty());

        // Ragged loss series: a run whose last drop predates its last send
        // has fewer dropped bins than sent bins (or none at all); a missing
        // bin counts as zero.
        let secs = SimTime::from_secs;
        let mut r = r;
        r.bin_width = SimDuration::from_secs(1);
        r.game_sent_bins = vec![100.0; 4];
        r.game_dropped_bins = vec![0.0, 10.0];
        assert_eq!(r.game_loss_window(secs(0), secs(4)), 10.0 / 400.0);
        let past_the_drops = r.game_loss_window(secs(2), secs(4));
        assert!(past_the_drops == 0.0 && past_the_drops.is_sign_positive());
        r.game_dropped_bins = vec![];
        assert!(r.game_loss_window(secs(0), secs(4)).is_sign_positive());
        r.game_sent_bins = vec![100.0];
        r.game_dropped_bins = vec![0.0, 5.0];
        assert_eq!(r.game_loss_window(secs(0), secs(2)), 5.0 / 100.0);
        assert_eq!(r.game_loss_window(secs(1), secs(2)), 0.0, "nothing sent");
    }

    #[test]
    fn bin_window_is_half_open_on_bin_midpoints() {
        let width = SimDuration::from_secs(1); // midpoints 0.5, 1.5, 2.5, 3.5 s
        let bins = [10.0, 20.0, 30.0, 40.0];
        let window = |from, to| {
            let (from, to) = (SimTime::from_millis(from), SimTime::from_millis(to));
            bin_window(&bins, width, from, to)
        };
        // A midpoint exactly on `from` is in, exactly on `to` is out.
        assert_eq!(window(1500, 3500).values(), [20.0, 30.0]);
        assert_eq!(window(1501, 3501).values(), [30.0, 40.0]);
        assert_eq!(window(0, 10_000).values(), bins);
        // Empty windows: between two midpoints, zero-length, inverted.
        assert!(window(1600, 2400).is_empty());
        assert!(window(1500, 1500).is_empty());
        assert!(window(3000, 1000).is_empty());
        assert!(bin_window(&[], width, SimTime::ZERO, SimTime::from_secs(9)).is_empty());
    }
}
