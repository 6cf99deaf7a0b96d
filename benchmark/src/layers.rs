//! The traced pass: every layer timed from outside, through spans around the
//! calls into it, with counts sampled at the same boundaries.
//!
//! Each workload's runs are made twice. The *reference* run is the single
//! call a user makes (`run_condition_with`); the *stepped* run builds the
//! same testbed by hand and steps `run_until` at the moments the competing
//! flow starts and stops, so that build, the three phases and the drop each
//! get a span. Both must report the same counters, else the op fails, and
//! the ratio of their host times is the overhead of tracing.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use gsrepro_netsim::FlowStats;
use gsrepro_simcore::{SchedStats, SimDuration, TelemetryConfig, Watchdog};
use gsrepro_tcp::TcpSender;
use gsrepro_testbed::campaign::{CondAggregate, FleetSample};
use gsrepro_testbed::chaos::{run_chaos, ChaosSpec};
use gsrepro_testbed::config::Condition;
use gsrepro_testbed::experiments::GridResults;
use gsrepro_testbed::runner::{run_condition_with, run_jobs, ConditionResult, RunResult, RunView};
use gsrepro_testbed::topology::{self, Testbed};

use crate::alloc::AllocCount;
use crate::check::{fnv_fold, guard, Ops, RunOut, FNV_BASIS};
use crate::e2e::{analyse, fleet_spec, grid_opts, run_campaign_checked};
use crate::iso::{self, Effort};
use crate::metrics::{cond_metric, Kind};
use crate::record::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{
    fleet_conditions, grid_conditions, iteration, sim_secs, single_thread_conditions, Sizing,
    Workload,
};

/// `[sent, delivered, queue drops, link drops, CE marks]` of one flow.
type FlowCounts = [u64; 5];

fn flow_counts(s: &FlowStats) -> FlowCounts {
    [
        s.sent_pkts,
        s.delivered_pkts,
        s.queue_drop_pkts,
        s.link_drop_pkts,
        s.ce_marked_pkts,
    ]
}

/// What a reference run and a stepped run of one seed must agree on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counters {
    pub events: u64,
    pub sched: SchedStats,
    pub game: FlowCounts,
    pub iperf: Option<FlowCounts>,
    pub retx: u64,
    pub tcp_delivered: u64,
}

impl Counters {
    fn from_view(v: &RunView) -> Counters {
        let (retx, tcp_delivered) = v.tcp_counters();
        Counters {
            events: v.events_processed,
            sched: v.sched,
            game: flow_counts(v.game_stats()),
            iperf: v.iperf_stats().map(flow_counts),
            retx,
            tcp_delivered,
        }
    }

    fn from_testbed(tb: &Testbed) -> Counters {
        let stats = |f| tb.sim.net.monitor().stats(f);
        let tcp = tb.tcp_sender.map(|id| tb.sim.net.agent::<TcpSender>(id));
        Counters {
            events: tb.sim.events_processed(),
            sched: tb.sim.sched_stats(),
            game: flow_counts(stats(tb.game_flow)),
            iperf: tb.iperf_flow.map(|f| flow_counts(stats(f))),
            retx: tcp.map_or(0, TcpSender::retransmissions),
            tcp_delivered: tcp.map_or(0, TcpSender::delivered_bytes),
        }
    }
}

/// The single-call run, with the two reductions users apply timed apart.
struct RefRun {
    counters: Counters,
    out: RunOut,
    /// Host time of the call, less the two timed reductions.
    wall_ns: u64,
    to_result_ns: u64,
    fleet_sample_ns: u64,
    result: RunResult,
}

fn ref_run(tr: &mut Tracer, run_id: u32, cond: &Condition, iter: u32) -> RefRun {
    let open = tr.begin("ref_run", run_id);
    let mut run = run_condition_with(cond, iter, None, false, |v| {
        let counters = Counters::from_view(v);
        let out = RunOut::from_view(v);
        let (result, to_result_ns) = tr.time("extract.to_result", run_id, || v.to_result());
        let (sample, fleet_sample_ns) =
            tr.time("extract.fleet_sample", run_id, || FleetSample::from_view(v));
        black_box(sample);
        RefRun {
            counters,
            out,
            wall_ns: 0,
            to_result_ns,
            fleet_sample_ns,
            result,
        }
    });
    run.wall_ns = tr.end(open).dur_ns() - run.to_result_ns - run.fleet_sample_ns;
    run
}

/// The same run taken apart: one span per layer boundary.
struct SteppedRun {
    counters: Counters,
    /// All flows together: `[sent, delivered, queue drops, link drops, CE]`.
    net: FlowCounts,
    wall_ns: u64,
    build_ns: u64,
    build_allocs: u64,
    /// Pre-competitor, contested, post-competitor.
    phase_ns: [u64; 3],
    phase_events: [u64; 3],
    phase_sim_s: [f64; 3],
    sim_alloc: AllocCount,
    drop_ns: u64,
}

const PHASES: [&str; 3] = ["simulate.pre", "simulate.contested", "simulate.post"];

fn stepped_run(tr: &mut Tracer, run_id: u32, cond: &Condition, iter: u32) -> SteppedRun {
    let open = tr.begin("run", run_id);
    let (mut tb, build_ns) = tr.time("build", run_id, || {
        topology::build_full(cond, iter, None, false)
    });
    let build_allocs = tr.spans().last().expect("build span").alloc.calls;

    let tl = cond.timeline;
    let ends = [
        tl.iperf_start,
        tl.iperf_stop,
        tl.end + SimDuration::from_secs(1),
    ];
    let (mut phase_ns, mut phase_events, mut phase_sim_s) = ([0; 3], [0; 3], [0.0; 3]);
    let mut sim_alloc = AllocCount::default();
    let (mut events_before, mut t_before) = (0, 0.0);
    for (i, &until) in ends.iter().enumerate() {
        phase_ns[i] = tr.time(PHASES[i], run_id, || tb.sim.run_until(until)).1;
        let a = tr.spans().last().expect("phase span").alloc;
        sim_alloc.calls += a.calls;
        sim_alloc.bytes += a.bytes;
        phase_events[i] = tb.sim.events_processed() - events_before;
        phase_sim_s[i] = until.as_secs_f64() - t_before;
        events_before = tb.sim.events_processed();
        t_before = until.as_secs_f64();
    }

    let ((counters, net), _) = tr.time("extract", run_id, || {
        let mut net = [0; 5];
        for (_, s) in tb.sim.net.monitor().flows() {
            for (total, n) in net.iter_mut().zip(flow_counts(s)) {
                *total += n;
            }
        }
        (Counters::from_testbed(&tb), net)
    });
    let ((), drop_ns) = tr.time("drop", run_id, || drop(tb));
    SteppedRun {
        counters,
        net,
        wall_ns: tr.end(open).dur_ns(),
        build_ns,
        build_allocs,
        phase_ns,
        phase_events,
        phase_sim_s,
        sim_alloc,
        drop_ns,
    }
}

/// Sums over the runs of a pass, from which the per-workload layer metrics
/// are derived.
#[derive(Default)]
struct Ledger {
    runs: usize,
    sim_s: f64,
    sched: SchedStats,
    net: FlowCounts,
    retx: u64,
    phase_ns: [u64; 3],
    phase_events: [u64; 3],
    phase_sim_s: [f64; 3],
    sim_alloc: AllocCount,
    build_allocs: u64,
    build_us: Vec<f64>,
    drop_us: Vec<f64>,
    to_result_us: Vec<f64>,
    fleet_sample_us: Vec<f64>,
    /// Stepped over reference host time, per run.
    trace_ratio: Vec<f64>,
}

impl Ledger {
    fn add_reference(&mut self, r: &RefRun) {
        self.to_result_us.push(r.to_result_ns as f64 / 1e3);
        self.fleet_sample_us.push(r.fleet_sample_ns as f64 / 1e3);
    }

    fn add_stepped(&mut self, cond: &Condition, s: &SteppedRun, reference_ns: u64) {
        self.runs += 1;
        self.sim_s += sim_secs(cond);
        let (a, b) = (&mut self.sched, &s.counters.sched);
        a.lane_scheduled += b.lane_scheduled;
        a.cur_scheduled += b.cur_scheduled;
        a.wheel_scheduled += b.wheel_scheduled;
        a.overflow_scheduled += b.overflow_scheduled;
        a.cascaded += b.cascaded;
        a.cancelled += b.cancelled;
        a.slab_high_watermark = a.slab_high_watermark.max(b.slab_high_watermark);
        for i in 0..5 {
            self.net[i] += s.net[i];
        }
        self.retx += s.counters.retx;
        for i in 0..3 {
            self.phase_ns[i] += s.phase_ns[i];
            self.phase_events[i] += s.phase_events[i];
            self.phase_sim_s[i] += s.phase_sim_s[i];
        }
        self.sim_alloc.calls += s.sim_alloc.calls;
        self.sim_alloc.bytes += s.sim_alloc.bytes;
        self.build_allocs += s.build_allocs;
        self.build_us.push(s.build_ns as f64 / 1e3);
        self.drop_us.push(s.drop_ns as f64 / 1e3);
        self.trace_ratio
            .push(s.wall_ns as f64 / reference_ns as f64);
    }

    /// Push every per-workload layer metric. Counts are totals over the
    /// pass divided by simulated seconds, so they repeat exactly; times are
    /// medians over its runs.
    fn emit(&self, report: &mut Report, schedule_pop_ns: f64) {
        let n = self.runs;
        let events: u64 = self.phase_events.iter().sum();
        let sim_ns: u64 = self.phase_ns.iter().sum();
        let per_sim_s = |count: u64| count as f64 / self.sim_s;
        let ns_per_event = sim_ns as f64 / events as f64;
        let s = &self.sched;
        let placed = s.lane_scheduled + s.cur_scheduled + s.wheel_scheduled + s.overflow_scheduled;
        let med = |v: &[f64]| median(v).unwrap_or(f64::NAN);

        report.push("simcore.engine.ns_per_event", ns_per_event, n);
        report.push("simcore.engine.events_per_sim_s", per_sim_s(events), n);
        report.push("simcore.engine.events_per_s", 1e9 / ns_per_event, n);
        report.push(
            "simcore.sched.lane_share",
            s.lane_scheduled as f64 / placed as f64,
            n,
        );
        report.push(
            "simcore.sched.wheel_share",
            s.wheel_scheduled as f64 / placed as f64,
            n,
        );
        report.push(
            "simcore.sched.cascades_per_event",
            s.cascaded as f64 / events as f64,
            n,
        );
        report.push(
            "simcore.sched.overflow_scheduled",
            s.overflow_scheduled as f64,
            n,
        );
        report.push("simcore.sched.cancelled", s.cancelled as f64, n);
        report.push(
            "simcore.sched.slab_high_watermark",
            s.slab_high_watermark as f64,
            n,
        );
        report.push("simcore.sched.est_share", schedule_pop_ns / ns_per_event, n);

        report.push("netsim.net.pkts_per_sim_s", per_sim_s(self.net[0]), n);
        report.push("netsim.queue.drops_per_sim_s", per_sim_s(self.net[2]), n);
        report.push("netsim.link.drops_per_sim_s", per_sim_s(self.net[3]), n);
        report.push("netsim.queue.ce_marks_per_sim_s", per_sim_s(self.net[4]), n);
        report.push("tcp.endpoint.retx_per_sim_s", per_sim_s(self.retx), n);

        report.push("testbed.topology.build_us", med(&self.build_us), n);
        report.push(
            "testbed.topology.build_allocs",
            self.build_allocs as f64 / n as f64,
            n,
        );
        report.push("testbed.topology.drop_us", med(&self.drop_us), n);
        report.push("testbed.runner.to_result_us", med(&self.to_result_us), n);
        report.push(
            "testbed.campaign.fleet_sample_us",
            med(&self.fleet_sample_us),
            n,
        );
        report.push(
            "testbed.runner.simulate_allocs_per_sim_s",
            per_sim_s(self.sim_alloc.calls),
            n,
        );
        report.push(
            "testbed.runner.simulate_alloc_bytes_per_sim_s",
            per_sim_s(self.sim_alloc.bytes),
            n,
        );
        for (i, phase) in ["pre", "contested", "post"].iter().enumerate() {
            report.push(
                &format!("testbed.runner.phase_{phase}_ns_per_event"),
                self.phase_ns[i] as f64 / self.phase_events[i] as f64,
                n,
            );
            if i < 2 {
                report.push(
                    &format!("testbed.runner.phase_{phase}_events_per_sim_s"),
                    self.phase_events[i] as f64 / self.phase_sim_s[i],
                    n,
                );
            }
        }
        report.push(
            "benchmark.trace_overhead_frac",
            med(&self.trace_ratio) - 1.0,
            n,
        );
    }
}

/// One run of a pass: the condition, its iteration, and the id its spans
/// share.
#[derive(Clone)]
struct Job {
    cond: Condition,
    iter: u32,
    run_id: u32,
}

/// Run `f` over `jobs` on `threads` workers under a span called `name`;
/// returns the results in job order and the pass's host time. Each job
/// records into a tracer of its own, adopted afterwards. `run_jobs` hands
/// back either every result or every failure, so when a job panics the
/// pass yields `None` and each panic is a failed op.
fn traced_jobs<T: Send>(
    tr: &mut Tracer,
    ops: &mut Ops,
    name: &str,
    jobs: &[Job],
    threads: usize,
    f: impl Fn(&mut Tracer, &Job) -> T + Sync,
) -> (Option<Vec<T>>, u64) {
    let origin = tr.origin();
    let open = tr.begin(name, 0);
    let outcome = run_jobs(
        jobs.len(),
        threads,
        |j| {
            let mut local = Tracer::new(origin);
            let out = f(&mut local, &jobs[j]);
            (out, local)
        },
        |j| format!("{} iter {}", jobs[j].cond.label(), jobs[j].iter),
    );
    let n = jobs.len() as u64;
    let out = match outcome {
        Ok(done) => {
            ops.record(n, name, Ok(()));
            Some(
                done.into_iter()
                    .map(|(value, local)| {
                        tr.adopt(local);
                        value
                    })
                    .collect(),
            )
        }
        Err(failures) => {
            ops.record(n - failures.len() as u64, name, Ok(()));
            for f in failures {
                ops.record::<()>(1, name, Err(f.to_string()));
            }
            None
        }
    };
    let ns = tr.end(open).dur_ns();
    (out, ns)
}

/// Take a reference run into the report: its output checked, its digest
/// folded in job order.
fn absorb_reference(report: &mut Report, ledger: &mut Ledger, job: &Job, r: &RefRun) {
    if let Err(e) = r.out.check(&job.cond) {
        report.ops.fail(&job.cond.label(), e);
    }
    report.digest = fnv_fold(report.digest, r.out.digest);
    ledger.add_reference(r);
}

/// Take a stepped run into the report: every counter must equal the
/// reference run's of the same seed.
fn absorb_stepped(report: &mut Report, ledger: &mut Ledger, job: &Job, s: &SteppedRun, r: &RefRun) {
    if s.counters != r.counters {
        report.ops.fail(
            &job.cond.label(),
            format!(
                "stepped run counted {:?}, single call {:?}",
                s.counters, r.counters
            ),
        );
    }
    ledger.add_stepped(&job.cond, s, r.wall_ns);
}

/// Each job's reference run and stepped run back to back, so that the two
/// meet the same state of the host and their ratio means something.
/// Returns the reference runs.
fn paired_pass(
    tr: &mut Tracer,
    report: &mut Report,
    ledger: &mut Ledger,
    name: &str,
    jobs: &[Job],
) -> Option<Vec<RefRun>> {
    let (pairs, _) = traced_jobs(tr, &mut report.ops, name, jobs, 1, |t, job| {
        let reference = ref_run(t, job.run_id, &job.cond, job.iter);
        (reference, stepped_run(t, job.run_id, &job.cond, job.iter))
    });
    let mut reference = Vec::new();
    for (job, (r, s)) in jobs.iter().zip(pairs?) {
        absorb_reference(report, ledger, job, &r);
        absorb_stepped(report, ledger, job, &s, &r);
        reference.push(r);
    }
    Some(reference)
}

/// The reference runs of `jobs` alone under span `name`, for the grid,
/// whose own host time is a metric. Returns them and the pass's host time.
fn reference_pass(
    tr: &mut Tracer,
    report: &mut Report,
    ledger: &mut Ledger,
    name: &str,
    jobs: &[Job],
    threads: usize,
) -> Option<(Vec<RefRun>, u64)> {
    let (runs, ns) = traced_jobs(tr, &mut report.ops, name, jobs, threads, |t, job| {
        ref_run(t, job.run_id, &job.cond, job.iter)
    });
    let runs = runs?;
    for (job, run) in jobs.iter().zip(&runs) {
        absorb_reference(report, ledger, job, run);
    }
    Some((runs, ns))
}

/// The stepped runs of the same jobs, afterwards.
fn stepped_pass(
    tr: &mut Tracer,
    report: &mut Report,
    ledger: &mut Ledger,
    jobs: &[Job],
    threads: usize,
    reference: &[RefRun],
) {
    let (runs, _) = traced_jobs(tr, &mut report.ops, "stepped", jobs, threads, |t, job| {
        stepped_run(t, job.run_id, &job.cond, job.iter)
    });
    for ((job, s), r) in jobs.iter().zip(runs.into_iter().flatten()).zip(reference) {
        absorb_stepped(report, ledger, job, &s, r);
    }
}

fn jobs_of(conds: &[Condition], iters: std::ops::Range<u32>) -> Vec<Job> {
    let mut jobs = Vec::new();
    for cond in conds {
        for iter in iters.clone() {
            jobs.push(Job {
                cond: cond.clone(),
                iter,
                run_id: jobs.len() as u32,
            });
        }
    }
    jobs
}

/// The traced pass does a fixed amount of work: one iteration of every
/// condition (or a fixed number of sessions), so `sizing.seconds` is unused.
pub fn run(w: Workload, seed: u64, sizing: Sizing, out_dir: &Path, started: Instant) -> Report {
    let mut report = Report::new(w, Kind::Layer, seed, sizing);
    report.digest = FNV_BASIS;
    let mut tr = Tracer::new(started);
    let mut ledger = Ledger::default();
    warm_up(w, seed, sizing);
    match w {
        Workload::Solo | Workload::Contested | Workload::AqmDynamic => {
            single_thread(&mut tr, &mut report, &mut ledger)
        }
        Workload::FleetShort => fleet_short(&mut tr, &mut report, &mut ledger, out_dir),
        Workload::ReproGrid => repro_grid(&mut tr, &mut report, &mut ledger),
    }
    report.rounds = ledger.runs as u32;
    let schedule_pop_ns = isolated(&mut tr, &mut report, Effort::new(sizing.smoke));
    ledger.emit(&mut report, schedule_pop_ns);

    let path = out_dir.join(format!("trace-{}.jsonl", w.name()));
    if let Err(e) = tr.write_jsonl(&path) {
        report
            .ops
            .fail("trace", format!("cannot write {}: {e}", path.display()));
    }
    report.validate();
    report
}

/// One untimed run of the workload's first condition, so that the
/// reference pass, which goes first, does not pay for the cold start and
/// make the stepped pass look cheap.
fn warm_up(w: Workload, seed: u64, sizing: Sizing) {
    let scale = sizing.timeline_scale();
    let cond = match w {
        Workload::FleetShort => fleet_conditions(seed).swap_remove(0),
        Workload::ReproGrid => grid_conditions(seed, scale).1.swap_remove(0),
        _ => single_thread_conditions(w, scale).swap_remove(0),
    };
    let mut scratch = Tracer::new(Instant::now());
    // A panic here will repeat in the pass, where it is counted.
    guard(|| ref_run(&mut scratch, 0, &cond, 0)).ok();
}

fn single_thread(tr: &mut Tracer, report: &mut Report, ledger: &mut Ledger) {
    let (w, seed, sizing) = (report.workload, report.seed, report.sizing);
    let conds = single_thread_conditions(w, sizing.timeline_scale());
    let iter = iteration(seed, 0);
    let jobs = jobs_of(&conds, iter..iter + 1);
    let open = tr.begin("pass", 0);
    let reference = paired_pass(tr, report, ledger, "runs", &jobs);
    // The ledger names a condition by its label on the paper timeline,
    // whatever scale this pass ran at.
    let names = single_thread_conditions(w, 1.0);
    for ((job, r), named) in jobs.iter().zip(reference.iter().flatten()).zip(&names) {
        let ratio = sim_secs(&job.cond) / (r.wall_ns as f64 / 1e9);
        report.push(&cond_metric(&named.label()), ratio, 1);
    }
    match w {
        Workload::Contested => engine_guards(tr, report, &conds[0], iter),
        Workload::AqmDynamic => chaos_trials(tr, report),
        _ => {}
    }
    tr.end(open);
}

/// Host seconds of `run_until` alone on a fresh testbed of `cond`, with the
/// engine's optional observers switched as given.
fn simulate_secs(
    cond: &Condition,
    iter: u32,
    telemetry: Option<TelemetryConfig>,
    checks: bool,
    dog: Option<&Watchdog>,
) -> f64 {
    let mut tb = topology::build_full(cond, iter, telemetry, checks);
    let until = cond.timeline.end + SimDuration::from_secs(1);
    let t0 = Instant::now();
    match dog {
        None => tb.sim.run_until(until),
        Some(dog) => tb
            .sim
            .run_until_guarded(until, dog)
            .expect("a paper condition stays within the default budgets"),
    }
    t0.elapsed().as_secs_f64()
}

/// What the invariant checks, the watchdog and the telemetry recorder cost
/// when switched on, on the headline condition: three pairs each, the order
/// within a pair alternating, the median ratio reported. All three are off
/// in every timed run, so these should move no end-to-end metric.
fn engine_guards(tr: &mut Tracer, report: &mut Report, cond: &Condition, iter: u32) {
    const PAIRS: usize = 3;
    let dog = Watchdog::default();
    let variants: [(&str, Option<TelemetryConfig>, bool, Option<&Watchdog>); 3] = [
        ("simcore.checks.overhead_frac", None, true, None),
        ("simcore.watchdog.overhead_frac", None, false, Some(&dog)),
        (
            "simcore.telemetry.overhead_frac",
            Some(TelemetryConfig::default()),
            false,
            None,
        ),
    ];
    for (name, telemetry, checks, dog) in variants {
        let (outcome, _) = tr.time(name, 0, || {
            guard(|| {
                let ratios: Vec<f64> = (0..PAIRS)
                    .map(|pair| {
                        let on = || simulate_secs(cond, iter, telemetry, checks, dog);
                        let off = || simulate_secs(cond, iter, None, false, None);
                        if pair % 2 == 0 {
                            let base = off();
                            on() / base
                        } else {
                            let with = on();
                            with / off()
                        }
                    })
                    .collect();
                median(&ratios).expect("PAIRS > 0") - 1.0
            })
        });
        let frac = report.ops.record(2 * PAIRS as u64, name, outcome);
        report.push(name, frac.unwrap_or(f64::NAN), PAIRS);
    }
}

/// A hundred chaos trials on one thread; a verdict that is not clean is a
/// failed op.
fn chaos_trials(tr: &mut Tracer, report: &mut Report) {
    let spec = ChaosSpec {
        seed: 42,
        trials: if report.sizing.smoke { 10 } else { 100 },
        threads: 1,
        ..ChaosSpec::default()
    };
    let (outcome, ns) = tr.time("chaos", 0, || guard(|| run_chaos(&spec)));
    let n = u64::from(spec.trials);
    match outcome {
        Ok(rep) => {
            report
                .ops
                .record(n - rep.failures.len() as u64, "chaos", Ok(()));
            for f in &rep.failures {
                let why = format!("trial {}: {}", f.trial, f.verdict.tag());
                report.ops.record::<()>(1, "chaos", Err(why));
            }
        }
        Err(e) => {
            report.ops.record::<()>(n, "chaos", Err(e));
        }
    }
    report.push(
        "testbed.chaos.trials_per_s",
        n as f64 / (ns as f64 / 1e9),
        spec.trials as usize,
    );
}

/// The campaign's sessions without the campaign: one after the other
/// through the call it makes per session, reduced and aggregated the way it
/// does.
fn bare_sessions(conds: &[Condition], per_cond: u32) {
    for cond in conds {
        let mut agg = CondAggregate::new();
        for iter in 0..per_cond {
            run_condition_with(cond, iter, None, false, |v| {
                agg.observe(&FleetSample::from_view(v))
            });
        }
        black_box(agg);
    }
}

/// Rounds over the campaign variants; each is costed at its fastest round
/// (see `e2e::fastest` for why).
const CAMPAIGN_ROUNDS: usize = 3;

fn fleet_short(tr: &mut Tracer, report: &mut Report, ledger: &mut Ledger, out_dir: &Path) {
    let (seed, sizing) = (report.seed, report.sizing);
    let sessions = sizing.fleet_trace_sessions();
    let conds = fleet_conditions(seed);
    let per_cond = sessions / conds.len() as u32;
    let open = tr.begin("campaign", 0);

    // A third of the sessions, taken apart, for the counters and the spans.
    let jobs = jobs_of(&conds, 0..per_cond.div_ceil(3));
    paired_pass(tr, report, ledger, "sessions", &jobs);

    let manifest = out_dir.join(format!("fleet-trace-{}.manifest", std::process::id()));
    let variants: [(&str, usize, Option<&Path>); 3] = [
        ("campaign_1t", 1, Some(&manifest)),
        ("campaign_2t", 2, Some(&manifest)),
        ("campaign_2t_no_manifest", 2, None),
    ];
    let mut fastest = [f64::INFINITY; 4];
    let mut digests = Vec::new();
    for _ in 0..CAMPAIGN_ROUNDS {
        let (bare, ns) = tr.time("bare_sessions", 0, || {
            guard(|| bare_sessions(&conds, per_cond))
        });
        report
            .ops
            .record(u64::from(sessions), "bare sessions", bare);
        fastest[0] = fastest[0].min(ns as f64);
        for (i, (name, threads, manifest)) in variants.into_iter().enumerate() {
            let spec = fleet_spec(
                conds.clone(),
                sessions,
                threads,
                manifest.map(Path::to_path_buf),
            );
            let (res, ns) = tr.time(name, 0, || run_campaign_checked(&spec, &mut report.ops));
            fastest[i + 1] = fastest[i + 1].min(ns as f64);
            digests.push(res.map(|r| r.digest()));
        }
    }
    if digests.iter().any(|d| *d != digests[0]) {
        report
            .ops
            .fail("campaign", format!("digests differ: {digests:x?}"));
    }
    tr.end(open);

    let [bare, one, two, two_bare] = fastest;
    let n = sessions as usize * CAMPAIGN_ROUNDS;
    report.push(
        "testbed.campaign.sessions_per_s",
        f64::from(sessions) / (two / 1e9),
        n,
    );
    report.push("testbed.campaign.scaling_2t", one / two, n);
    report.push("testbed.campaign.non_sim_frac", 1.0 - bare / one, n);
    report.push(
        "testbed.campaign.manifest_overhead_frac",
        two / two_bare - 1.0,
        n,
    );
}

fn repro_grid(tr: &mut Tracer, report: &mut Report, ledger: &mut Ledger) {
    let open = tr.begin("grid", 0);
    // With a grid missing there is nothing to analyse; its ops have failed
    // already, and the metrics that do not appear fail the record.
    grid_passes(tr, report, ledger);
    tr.end(open);
}

fn grid_passes(tr: &mut Tracer, report: &mut Report, ledger: &mut Ledger) -> Option<()> {
    let (seed, sizing) = (report.seed, report.sizing);
    let threads = report.workload.threads();
    let scale = sizing.timeline_scale();
    let (solo, full) = grid_conditions(seed, scale);
    let solo_jobs = jobs_of(&solo, 0..1);
    let mut full_jobs = jobs_of(&full, 0..1);
    for job in &mut full_jobs {
        job.run_id += solo_jobs.len() as u32;
    }

    let (mut reference, solo_ns) =
        reference_pass(tr, report, ledger, "solo_grid", &solo_jobs, threads)?;
    let (full_ref, full_ns) = reference_pass(tr, report, ledger, "full_grid", &full_jobs, threads)?;
    reference.extend(full_ref);
    let busy_ns: u64 = reference
        .iter()
        .map(|r| r.wall_ns + r.to_result_ns + r.fleet_sample_ns)
        .sum();

    let opts = grid_opts(scale, threads);
    let grid = |jobs: &[Job], runs: &[RefRun]| GridResults {
        results: jobs
            .iter()
            .zip(runs)
            .map(|(job, run)| ConditionResult {
                condition: job.cond.clone(),
                runs: vec![run.result.clone()],
            })
            .collect(),
        opts: opts.clone(),
    };
    let (solo_runs, full_runs) = reference.split_at(solo_jobs.len());
    let rep = analyse(
        grid(&solo_jobs, solo_runs),
        grid(&full_jobs, full_runs),
        Some(&mut *tr),
    );
    report.digest = fnv_fold(report.digest, rep.digest);

    let jobs: Vec<Job> = solo_jobs.into_iter().chain(full_jobs).collect();
    stepped_pass(tr, report, ledger, &jobs, threads, &reference);

    let (pass, partial, fail) = rep.scorecard.tally();
    report.push(
        "testbed.runner.worker_utilisation",
        busy_ns as f64 / (threads as u64 * (solo_ns + full_ns)) as f64,
        jobs.len(),
    );
    report.push("testbed.grid.solo_wall_s", solo_ns as f64 / 1e9, solo.len());
    report.push("testbed.grid.full_wall_s", full_ns as f64 / 1e9, full.len());
    report.push("testbed.experiments.analysis_ms", rep.analysis_s * 1e3, 1);
    report.push("testbed.scorecard.claims_pass", pass as f64, 1);
    report.push("testbed.scorecard.claims_partial", partial as f64, 1);
    report.push("testbed.scorecard.claims_fail", fail as f64, 1);
    Some(())
}

/// Every layer alone. Returns the scheduler's cost per event, which the
/// ledger turns into the scheduler's estimated share of a workload.
fn isolated(tr: &mut Tracer, report: &mut Report, e: Effort) -> f64 {
    let open = tr.begin("isolated", 0);
    let mut bench = |name: &str, f: &mut dyn FnMut() -> f64| {
        let (value, _) = tr.time(name, 0, f);
        report.push(name, value, e.reps);
        value
    };
    let schedule_pop_ns = bench("simcore.sched.schedule_pop_ns", &mut || {
        iso::schedule_pop_ns(e)
    });
    bench("simcore.sched.cancel_ns", &mut || iso::cancel_ns(e));
    for (label, spec) in iso::queue_specs() {
        bench(&format!("netsim.queue.{label}.enq_deq_ns"), &mut || {
            iso::queue_enq_deq_ns(&spec, e)
        });
    }
    bench("netsim.link.cbr_ns_per_pkt", &mut || iso::cbr_ns_per_pkt(e));
    for kind in iso::CCAS {
        bench(&format!("tcp.cca.{}.on_ack_ns", kind.label()), &mut || {
            iso::cca_on_ack_ns(kind, e)
        });
    }
    bench("tcp.endpoint.bulk_ns_per_event", &mut || {
        iso::tcp_bulk_ns_per_event(e)
    });
    for (label, kind) in iso::CONTROLLERS {
        bench(
            &format!("gamestream.controller.{label}.on_feedback_ns"),
            &mut || iso::controller_on_feedback_ns(kind, e),
        );
    }
    bench("gamestream.frame.next_frame_ns", &mut || {
        iso::next_frame_ns(e)
    });
    bench("testbed.runner.jobs_overhead_us", &mut || {
        iso::jobs_overhead_us(e)
    });
    let ((add_ns, merge_us, quantile_ns, serialize_us), _) =
        tr.time("testbed.sketch", 0, || iso::sketch_costs(e));
    report.push("testbed.sketch.add_ns", add_ns, e.reps);
    report.push("testbed.sketch.merge_us", merge_us, e.reps);
    report.push("testbed.sketch.quantile_ns", quantile_ns, e.reps);
    report.push("testbed.sketch.serialize_us", serialize_us, e.reps);
    tr.end(open);
    schedule_pop_ns
}
