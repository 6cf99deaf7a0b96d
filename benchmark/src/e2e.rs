//! End-to-end measurement, tracing off: what a user of the simulator pays.
//! Every number here is host time; simulated statistics go into the digest
//! and the output checks.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gsrepro_simcore::rng::stream_id;
use gsrepro_simcore::BitRate;
use gsrepro_testbed::campaign::{run_campaign, CampaignResult, CampaignSpec};
use gsrepro_testbed::config::Condition;
use gsrepro_testbed::experiments::{self, ExperimentOpts, GridResults};
use gsrepro_testbed::runner::{run_condition_with, run_many_full};
use gsrepro_testbed::scorecard::{scorecard, Scorecard};
use gsrepro_testbed::CcaKind;

use crate::check::{check_campaign, check_result, fnv_fold, guard, Ops, RunOut, FNV_BASIS};
use crate::metrics::Kind;
use crate::record::Report;
use crate::span::Tracer;
use crate::stats::median;
use crate::workload::{
    fleet_conditions, grid_conditions, iteration, sim_secs, single_thread_conditions, Sizing,
    Workload, FLEET_SHARD,
};

/// Set-up is measured this many times, each in a process of its own, and
/// the median reported.
const SETUPS: usize = 3;

/// Run one condition once the way a user does (build, simulate, reduce,
/// drop), checked; `None` when the op failed.
pub fn run_checked(cond: &Condition, iter: u32, ops: &mut Ops) -> Option<RunOut> {
    let outcome = guard(|| run_condition_with(cond, iter, None, false, RunOut::from_view))
        .and_then(|out| out.check(cond).map(|()| out));
    ops.record(1, &format!("{} iter {iter}", cond.label()), outcome)
}

/// Everything before the first timed run: generate the workload and warm
/// up. Returns a digest of the warm-up's outputs.
fn warm_up(w: Workload, seed: u64, sizing: Sizing, out_dir: &Path, ops: &mut Ops) -> u64 {
    match w {
        // One run per condition on a tenth of the timed timeline, which
        // still passes through every phase.
        Workload::Solo | Workload::Contested | Workload::AqmDynamic => {
            single_thread_conditions(w, sizing.warmup_scale())
                .iter()
                .fold(FNV_BASIS, |h, c| {
                    fnv_fold(
                        h,
                        run_checked(c, iteration(seed, 0), ops).map_or(0, |o| o.digest),
                    )
                })
        }
        Workload::FleetShort => {
            let spec = fleet_spec(
                fleet_conditions(seed),
                sizing.fleet_warmup_sessions(),
                w.threads(),
                Some(manifest_path(out_dir)),
            );
            run_campaign_checked(&spec, ops).map_or(0, |r| r.digest())
        }
        // The first cell of each grid, on both threads.
        Workload::ReproGrid => {
            let (solo, full) = grid_conditions(seed, sizing.timeline_scale());
            let opts = grid_opts(sizing.timeline_scale(), w.threads());
            run_grid_checked(&[solo[0].clone(), full[0].clone()], &opts, ops).map_or(0, |g| {
                g.results
                    .iter()
                    .flat_map(|cr| &cr.runs)
                    .fold(FNV_BASIS, |h, r| fnv_fold(h, r.events_processed))
            })
        }
    }
}

/// `bench --setup-only`: set up, say how long it took since process start
/// and what came out, and leave.
pub fn setup_only(w: Workload, seed: u64, sizing: Sizing, out_dir: &Path, started: Instant) -> i32 {
    let mut ops = Ops::default();
    let digest = warm_up(w, seed, sizing, out_dir, &mut ops);
    let secs = started.elapsed().as_secs_f64();
    println!(
        "setup {secs} {digest:016x} {} {}",
        ops.attempted, ops.failed
    );
    0
}

/// Set-up time: from process start to the first timed run. This process
/// sets up once, because it needs the warm-up; the other samples come from
/// fresh processes of this same program, so that every sample pays what is
/// paid once per process (lazy initialisation, first-touch page faults) and
/// work moved there shows in the median. Same seed, same digest, or the op
/// fails.
fn time_setups(report: &mut Report, out_dir: &Path, started: Instant) {
    let (w, seed, sizing) = (report.workload, report.seed, report.sizing);
    let digest = warm_up(w, seed, sizing, out_dir, &mut report.ops);
    let mut secs = vec![started.elapsed().as_secs_f64()];
    for _ in 1..SETUPS {
        let mut cmd = std::process::Command::new(std::env::current_exe().expect("own path"));
        cmd.args(["--setup-only", "--workload", w.name()])
            .args(["--seed", &seed.to_string()])
            .arg("--out-dir")
            .arg(out_dir);
        if sizing.smoke {
            cmd.arg("--smoke");
        }
        let outcome = cmd.output().map_err(|e| e.to_string()).and_then(|out| {
            // Whatever failed in there was said on its standard error.
            eprint!("{}", String::from_utf8_lossy(&out.stderr));
            let text = String::from_utf8_lossy(&out.stdout);
            let fields: Vec<&str> = text.split_whitespace().collect();
            match fields[..] {
                ["setup", secs, digest, attempted, failed] if out.status.success() => Ok((
                    secs.parse::<f64>().map_err(|e| e.to_string())?,
                    u64::from_str_radix(digest, 16).map_err(|e| e.to_string())?,
                    attempted.parse::<u64>().map_err(|e| e.to_string())?,
                    failed.parse::<u64>().map_err(|e| e.to_string())?,
                )),
                _ => Err(format!("{}: printed {text:?}", out.status)),
            }
        });
        match outcome {
            Ok((s, d, attempted, failed)) => {
                secs.push(s);
                report.ops.attempted += attempted;
                report.ops.failed += failed;
                if d != digest {
                    let why = format!("digest {d:x} in a fresh process, {digest:x} here");
                    report.ops.fail("warm-up", why);
                }
            }
            Err(e) => report.ops.fail("set-up process", e),
        }
    }
    report.push(
        "setup_s",
        median(&secs).expect("one sample at least"),
        secs.len(),
    );
}

/// VmHWM of this process in MB (10^6 bytes).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(f64::NAN, |kb| kb * 1024.0 / 1e6)
}

pub fn run(w: Workload, seed: u64, sizing: Sizing, out_dir: &Path, started: Instant) -> Report {
    let mut report = Report::new(w, Kind::EndToEnd, seed, sizing);
    time_setups(&mut report, out_dir, started);
    match w {
        Workload::Solo | Workload::Contested | Workload::AqmDynamic => single_thread(&mut report),
        Workload::FleetShort => fleet_short(&mut report, out_dir),
        Workload::ReproGrid => repro_grid(&mut report),
    }
    report.push("peak_rss_mb", peak_rss_mb(), 1);
    report.validate();
    report
}

/// The host this runs on is a shared two-core VM whose speed flips between
/// two states: for ten to twenty seconds at a time everything takes 1.45
/// times as long. A mean or a median over a run's few samples lands
/// anywhere between the two; the fastest sample is the same number on every
/// run as long as one sample saw the quiet state. So each condition (or
/// campaign round) is costed at the fastest of its timed runs. The noise
/// only ever adds time, and the simulator is deterministic, so the fastest
/// run is also the best estimate of what the code costs.
fn fastest(walls: &[f64]) -> f64 {
    walls.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Time whole rounds until `--seconds` have passed, at least one.
fn timed_rounds(report: &mut Report, mut round: impl FnMut(&mut Report)) {
    let timed = Instant::now();
    loop {
        round(report);
        report.rounds += 1;
        if timed.elapsed().as_secs_f64() >= report.sizing.seconds {
            break;
        }
    }
}

/// For workloads whose rounds repeat the same work: the first round's
/// digest is the record's, and every later round must repeat it.
fn repeat_digest(report: &mut Report, what: &str, digest: u64) {
    if report.rounds == 0 {
        report.digest = digest;
    } else if digest != report.digest {
        let why = format!(
            "round {} digest {digest:x}, round 0 {:x}",
            report.rounds, report.digest
        );
        report.ops.fail(what, why);
    }
}

fn single_thread(report: &mut Report) {
    let (w, seed, sizing) = (report.workload, report.seed, report.sizing);
    let conds = single_thread_conditions(w, sizing.timeline_scale());
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); conds.len()];
    timed_rounds(report, |report| {
        for (c, walls) in conds.iter().zip(&mut wall) {
            let t0 = Instant::now();
            let out = run_checked(c, iteration(seed, report.rounds), &mut report.ops);
            walls.push(t0.elapsed().as_secs_f64());
            // Rounds differ in iteration, and only the first enters the
            // digest, so that it does not depend on how many rounds the
            // host had time for.
            if report.rounds == 0 {
                report.digest = fnv_fold(report.digest, out.map_or(0, |o| o.digest));
            }
        }
    });

    let sim_per_round: f64 = conds.iter().map(sim_secs).sum();
    let wall_per_round: f64 = wall.iter().map(|walls| fastest(walls)).sum();
    let slowest_cond = conds
        .iter()
        .zip(&wall)
        .map(|(c, walls)| sim_secs(c) / fastest(walls))
        .fold(f64::INFINITY, f64::min);
    let rounds = report.rounds as usize;
    report.push(
        "sim_s_per_wall_s",
        sim_per_round / wall_per_round,
        rounds * conds.len(),
    );
    report.push("min_cond_sim_s_per_wall_s", slowest_cond, rounds);
    for (c, walls) in conds.iter().zip(&wall) {
        report.timing(&c.label(), walls);
    }
}

fn manifest_path(out_dir: &Path) -> PathBuf {
    out_dir.join(format!("fleet-{}.manifest", std::process::id()))
}

/// The committed fleet spec over `sessions` sessions.
pub fn fleet_spec(
    conds: Vec<Condition>,
    sessions: u32,
    threads: usize,
    manifest: Option<PathBuf>,
) -> CampaignSpec {
    let per_cond = sessions / conds.len() as u32;
    CampaignSpec {
        shard_size: FLEET_SHARD,
        threads,
        manifest,
        ..CampaignSpec::new(conds, per_cond)
    }
}

/// Run one campaign as ops: its sessions pass or fail together. The
/// manifest is removed afterwards, so a later run can not resume from it.
pub fn run_campaign_checked(spec: &CampaignSpec, ops: &mut Ops) -> Option<CampaignResult> {
    let sessions = u64::from(spec.iterations) * spec.conditions.len() as u64;
    let outcome = guard(|| run_campaign(spec))
        .and_then(|r| r)
        .and_then(|res| check_campaign(&res, sessions).map(|()| res));
    if let Some(path) = &spec.manifest {
        std::fs::remove_file(path).ok();
    }
    ops.record(sessions, "campaign", outcome)
}

fn fleet_short(report: &mut Report, out_dir: &Path) {
    let (seed, sizing) = (report.seed, report.sizing);
    let spec = fleet_spec(
        fleet_conditions(seed),
        sizing.fleet_sessions(),
        report.workload.threads(),
        Some(manifest_path(out_dir)),
    );
    let sim_per_round =
        f64::from(spec.iterations) * spec.conditions.iter().map(sim_secs).sum::<f64>();
    let mut wall = Vec::new();
    timed_rounds(report, |report| {
        let t0 = Instant::now();
        let res = run_campaign_checked(&spec, &mut report.ops);
        wall.push(t0.elapsed().as_secs_f64());
        repeat_digest(report, "campaign", res.map_or(0, |r| r.digest()));
    });
    let sessions = wall.len() * sizing.fleet_sessions() as usize;
    report.push("sim_s_per_wall_s", sim_per_round / fastest(&wall), sessions);
    // A campaign does not say what each condition cost, so its slowest part
    // is its typical round: the median, where the headline takes the fastest.
    report.push(
        "min_cond_sim_s_per_wall_s",
        sim_per_round / median(&wall).expect("one round at least"),
        wall.len(),
    );
    report.timing("campaign", &wall);
}

/// Both grids' results and every artifact a reader regenerates from them.
pub struct Reproduction {
    pub solo: GridResults,
    pub full: GridResults,
    pub scorecard: Scorecard,
    /// FNV over every rendered table, figure and the scorecard.
    pub digest: u64,
    /// Host seconds spent on analysis (everything after the two grids).
    pub analysis_s: f64,
}

pub fn grid_opts(scale: f64, threads: usize) -> ExperimentOpts {
    ExperimentOpts {
        iterations: 1,
        threads,
        timeline: gsrepro_testbed::Timeline::scaled(scale),
        trace: None,
        checks: false,
    }
}

/// Everything downstream of the two grids: Tables 3-5, the loss tables,
/// Figures 3 and 4, response/recovery, and the scorecard. With a tracer,
/// each artifact gets an `analysis.<name>` span.
pub fn analyse(
    solo: GridResults,
    full: GridResults,
    mut tracer: Option<&mut Tracer>,
) -> Reproduction {
    let t0 = Instant::now();
    let mut digest = FNV_BASIS;
    let mut step = |name: &str, render: &mut dyn FnMut() -> String| {
        let open = tracer
            .as_deref_mut()
            .map(|t| t.begin(&format!("analysis.{name}"), 0));
        let text = render();
        if let (Some(t), Some(open)) = (tracer.as_deref_mut(), open) {
            t.end(open);
        }
        digest = fnv_fold(digest, stream_id(&text));
    };
    step("table3", &mut || experiments::table3(&solo).to_string());
    step("table4", &mut || experiments::table4(&full).to_string());
    step("table5", &mut || experiments::table5(&full).to_string());
    step("loss_tables", &mut || {
        let (a, b) = experiments::loss_tables(&solo, &full);
        format!("{a}{b}")
    });
    step("figure3", &mut || experiments::figure3(&full).to_string());
    step("figure4", &mut || experiments::figure4(&full).to_string());
    step("response_recovery", &mut || {
        experiments::response_recovery(&full).to_string()
    });
    let mut card = None;
    step("scorecard", &mut || {
        let sc = scorecard(&solo, &full);
        let text = sc.to_string();
        card = Some(sc);
        text
    });
    Reproduction {
        scorecard: card.expect("scorecard computed"),
        digest,
        analysis_s: t0.elapsed().as_secs_f64(),
        solo,
        full,
    }
}

/// Run one grid through the runner's public entry point as ops.
/// `experiments::run_solo_grid`/`run_full_grid` build their grids from the
/// timeline alone; the seed's jitter has to ride on the conditions, so this
/// makes the same `run_many_full` call they make, on the jittered grid.
fn run_grid_checked(
    conds: &[Condition],
    opts: &ExperimentOpts,
    ops: &mut Ops,
) -> Option<GridResults> {
    let outcome = guard(|| run_many_full(conds, opts.iterations, opts.threads, None, false))
        .and_then(|results| {
            for cr in &results {
                for r in &cr.runs {
                    check_result(&cr.condition, r).map_err(|e| format!("{}: {e}", r.label))?;
                }
            }
            Ok(results)
        });
    ops.record(conds.len() as u64, "grid", outcome)
        .map(|results| GridResults {
            results,
            opts: opts.clone(),
        })
}

/// The grid's slowest part: the nine cells where BBR competes at 35 Mb/s.
/// A fixed set rather than "the slowest cells of this pass", which on a
/// noisy host would select the cells the noise hit.
fn in_slowest_part(cond: &Condition) -> bool {
    cond.cca == Some(CcaKind::Bbr) && cond.capacity == BitRate::from_mbps(35)
}

fn repro_grid(report: &mut Report) {
    let (seed, sizing) = (report.seed, report.sizing);
    let opts = grid_opts(sizing.timeline_scale(), report.workload.threads());
    let (solo, full) = grid_conditions(seed, sizing.timeline_scale());
    let sim_per_cell = sim_secs(&solo[0]);
    let sim_per_round = sim_per_cell * (solo.len() + full.len()) as f64;
    let mut wall = Vec::new();
    let mut slowest = Vec::new();
    let mut pass_frac = f64::NAN;
    timed_rounds(report, |report| {
        let t0 = Instant::now();
        let solo = run_grid_checked(&solo, &opts, &mut report.ops);
        let full = run_grid_checked(&full, &opts, &mut report.ops);
        if let Some((solo, full)) = solo.zip(full) {
            let rep = analyse(solo, full, None);
            let secs: Vec<f64> = rep
                .full
                .results
                .iter()
                .filter(|cr| in_slowest_part(&cr.condition))
                .flat_map(|cr| cr.runs.iter().map(|r| r.wall_secs))
                .collect();
            slowest.push(secs.len() as f64 * sim_per_cell / secs.iter().sum::<f64>());
            let (pass, partial, fail) = rep.scorecard.tally();
            pass_frac = pass as f64 / (pass + partial + fail) as f64;
            repeat_digest(report, "grid", rep.digest);
        }
        wall.push(t0.elapsed().as_secs_f64());
    });
    let runs = wall.len() * (solo.len() + full.len());
    report.push("sim_s_per_wall_s", sim_per_round / fastest(&wall), runs);
    report.push(
        "min_cond_sim_s_per_wall_s",
        slowest.iter().copied().fold(f64::NAN, f64::max),
        slowest.len(),
    );
    report.push("claims_pass_frac", pass_frac, 1);
    report.timing("grid", &wall);
}
