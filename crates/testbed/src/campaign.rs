//! Fleet-scale campaign engine: run very large {condition × seed} sweeps
//! with flat memory and resumable checkpoints.
//!
//! [`crate::runner::run_many_full`] materialises a [`RunResult`] per
//! session, which is fine for the paper's 15-iteration grids but not for
//! 100k-session fleet sweeps. A campaign instead:
//!
//! 1. splits each condition's iteration range into contiguous **shards**
//!    (`shard_size` sessions each),
//! 2. schedules shards across worker threads with the same work-stealing
//!    panic-isolating scheduler the grid runner uses
//!    ([`crate::runner::run_jobs`]),
//! 3. streams every finished session through [`FleetSample::from_view`]
//!    into one bounded [`MetricSketch`] per (condition, metric) —
//!    sessions are never retained,
//! 4. appends each completed shard's aggregate to a **manifest** file, so
//!    a killed sweep resumes where it left off.
//!
//! # Determinism
//!
//! Floating-point accumulation is order-sensitive, so bit-identical
//! aggregates need a fixed fill and merge order, not just a fixed sample
//! set. The campaign guarantees both:
//!
//! * a shard aggregates its sessions **sequentially in iteration order**,
//!   whichever thread runs it, and every session is seeded from
//!   `(condition label, iteration)` alone;
//! * the final per-condition aggregate merges shard aggregates in
//!   **ascending shard index**, whether a shard was computed this
//!   invocation or replayed from the manifest.
//!
//! Hence `digest()` is identical for 1-thread vs N-thread runs and for
//! killed-then-resumed vs uninterrupted runs — the property
//! `crates/testbed/tests/campaign.rs` and the `ci.sh` fleet gate enforce.
//!
//! # Manifest format (version 1)
//!
//! ```text
//! gsrepro-fleet-manifest v1
//! spec <16-hex-digit FNV-1a digest of the campaign spec>
//! shard <idx> runs=<n> events=<n> nresp=<n> nrec=<n> | <sketch>;<sketch>;...
//! ```
//!
//! `spec` binds the manifest to the exact condition list, iteration
//! count, shard size, checks flag and timeline; resuming with a different
//! spec is refused rather than silently mixing aggregates. Shard lines
//! are appended (and flushed) as shards finish; floats inside sketches
//! are IEEE-754 bit patterns, so replay is exact.

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use gsrepro_simcore::rng::stream_id;

use crate::config::{Condition, Timeline};
use crate::metrics::{recovery_time_bins, response_time_bins};
use crate::runner::{run_condition_with, run_jobs, RunView};
use crate::sketch::MetricSketch;

/// Metric names, in sketch order. Every [`CondAggregate`] holds one
/// sketch per entry.
pub const METRICS: [&str; 7] = [
    "encoder_rate_mbps",
    "goodput_mbps",
    "rtt_ms",
    "fps",
    "loss_rate",
    "response_s",
    "recovery_s",
];

const N_METRICS: usize = METRICS.len();

/// A fleet campaign: which conditions to sweep and how.
#[derive(Clone, Debug)]
pub struct CampaignSpec {
    /// Conditions to sweep (each runs `iterations` seeded sessions).
    pub conditions: Vec<Condition>,
    /// Sessions per condition.
    pub iterations: u32,
    /// Sessions per shard (checkpoint granularity). Clamped to ≥ 1.
    pub shard_size: u32,
    /// Worker threads for the shard scheduler.
    pub threads: usize,
    /// Run the invariant oracles on every session.
    pub checks: bool,
    /// Checkpoint manifest path. `None` disables checkpointing (the
    /// campaign still runs, it just can't resume).
    pub manifest: Option<PathBuf>,
    /// Stop scheduling new shards after this many have completed in this
    /// invocation — used by tests and the CI gate to force a mid-sweep
    /// kill + resume. `None` runs to completion.
    pub halt_after_shards: Option<usize>,
}

impl CampaignSpec {
    /// A campaign over `conditions` with sensible defaults (shard size
    /// 32, all cores, no checks, no manifest).
    pub fn new(conditions: Vec<Condition>, iterations: u32) -> Self {
        CampaignSpec {
            conditions,
            iterations,
            shard_size: 32,
            threads: crate::runner::default_threads(),
            checks: false,
            manifest: None,
            halt_after_shards: None,
        }
    }

    fn shard_size(&self) -> u32 {
        self.shard_size.max(1)
    }

    fn shards_per_condition(&self) -> usize {
        (self.iterations as usize).div_ceil(self.shard_size() as usize)
    }

    fn total_shards(&self) -> usize {
        self.conditions.len() * self.shards_per_condition()
    }

    /// Iteration range `[lo, hi)` and condition index of global shard
    /// `idx`.
    fn shard_bounds(&self, idx: usize) -> (usize, u32, u32) {
        let per = self.shards_per_condition();
        let cond = idx / per;
        let lo = (idx % per) as u32 * self.shard_size();
        let hi = (lo + self.shard_size()).min(self.iterations);
        (cond, lo, hi)
    }

    /// FNV-1a digest of everything that determines the sweep's sessions.
    /// Binds a manifest to its spec: resuming under a different spec is
    /// an error, not a silent mix.
    pub fn digest(&self) -> u64 {
        let mut s = String::from("gsrepro-fleet-spec v1\n");
        for c in &self.conditions {
            s.push_str(&format!(
                "cond {} tl={}\n",
                c.label(),
                timeline_bits(&c.timeline)
            ));
        }
        s.push_str(&format!(
            "iters={} shard={} checks={}\n",
            self.iterations,
            self.shard_size(),
            self.checks
        ));
        stream_id(&s)
    }
}

fn timeline_bits(tl: &Timeline) -> String {
    let b = |t: gsrepro_simcore::SimTime| format!("{:016x}", t.as_secs_f64().to_bits());
    format!(
        "{},{},{},{},{},{},{},{},{}",
        b(tl.iperf_start),
        b(tl.iperf_stop),
        b(tl.end),
        b(tl.original_window.0),
        b(tl.original_window.1),
        b(tl.adjusted_window.0),
        b(tl.adjusted_window.1),
        b(tl.fairness_window.0),
        b(tl.fairness_window.1),
    )
}

/// The per-session scalars a campaign aggregates — everything the fleet
/// report needs, extracted from a borrowed [`RunView`] without cloning
/// any per-run series.
#[derive(Clone, Copy, Debug)]
pub struct FleetSample {
    /// Mean encoder target rate over the whole run, Mb/s.
    pub encoder_rate_mbps: f64,
    /// Mean delivered game goodput from the original window to the end,
    /// Mb/s.
    pub goodput_mbps: f64,
    /// Mean game-path RTT, ms.
    pub rtt_ms: f64,
    /// Mean displayed frames per second from the original window on.
    pub fps: f64,
    /// Whole-run game packet loss rate.
    pub loss_rate: f64,
    /// Response time *C* seconds, `None` if the run never settled.
    pub response_s: Option<f64>,
    /// Recovery time *E* seconds, `None` if the run never recovered.
    pub recovery_s: Option<f64>,
    /// Engine events this session processed (deterministic per seed).
    pub events_processed: u64,
}

impl FleetSample {
    /// Extract the fleet scalars from a finished run. The only transient
    /// allocation is one Mb/s bin vector for the settle-time scans; it is
    /// dropped before the next session starts.
    pub fn from_view(view: &RunView) -> Self {
        let tl = &view.cond.timeline;
        let game = view.game_stats();
        let width = game.delivered_bins.width();
        let to_mbps = 8.0 / width.as_secs_f64() / 1e6;
        let bins_mbps: Vec<f64> = game
            .delivered_bins
            .bins()
            .iter()
            .map(|b| b * to_mbps)
            .collect();
        let response = response_time_bins(&bins_mbps, width, tl);
        let recovery = recovery_time_bins(&bins_mbps, width, tl);
        FleetSample {
            encoder_rate_mbps: view.encoder_trace().mean(),
            goodput_mbps: game.mean_goodput_mbps(tl.original_window.0, tl.end),
            rtt_ms: view.ping().rtt_samples().mean(),
            fps: view.fps_bins().mean_over(tl.original_window.0, tl.end, 1.0),
            loss_rate: game.loss_rate(),
            response_s: (!response.never).then_some(response.secs),
            recovery_s: (!recovery.never).then_some(recovery.secs),
            events_processed: view.events_processed,
        }
    }
}

/// Bounded aggregate of one condition's sessions: one [`MetricSketch`]
/// per [`METRICS`] entry plus exact counters. Size is independent of the
/// session count.
#[derive(Clone, Debug)]
pub struct CondAggregate {
    /// Sessions aggregated.
    pub runs: u64,
    /// Total engine events across those sessions.
    pub events_processed: u64,
    /// Sessions whose bitrate never settled after the competitor arrived.
    pub never_response: u64,
    /// Sessions whose bitrate never recovered after the competitor left.
    pub never_recovery: u64,
    sketches: Vec<MetricSketch>,
}

impl Default for CondAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl CondAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        CondAggregate {
            runs: 0,
            events_processed: 0,
            never_response: 0,
            never_recovery: 0,
            sketches: (0..N_METRICS).map(|_| MetricSketch::new()).collect(),
        }
    }

    /// Stream one session in. Settle times only enter their sketches
    /// when the run actually settled; the `never_*` counters carry the
    /// rest (the paper's "never responds / never recovers" fractions).
    pub fn observe(&mut self, s: &FleetSample) {
        self.runs += 1;
        self.events_processed += s.events_processed;
        self.sketches[0].add(s.encoder_rate_mbps);
        self.sketches[1].add(s.goodput_mbps);
        self.sketches[2].add(s.rtt_ms);
        self.sketches[3].add(s.fps);
        self.sketches[4].add(s.loss_rate);
        match s.response_s {
            Some(v) => self.sketches[5].add(v),
            None => self.never_response += 1,
        }
        match s.recovery_s {
            Some(v) => self.sketches[6].add(v),
            None => self.never_recovery += 1,
        }
    }

    /// The sketch for [`METRICS`]`[i]`.
    pub fn metric(&self, i: usize) -> &MetricSketch {
        &self.sketches[i]
    }

    /// The sketch for a metric by name; `None` for unknown names.
    pub fn metric_named(&self, name: &str) -> Option<&MetricSketch> {
        METRICS
            .iter()
            .position(|&m| m == name)
            .map(|i| &self.sketches[i])
    }

    /// Merge another aggregate in. Callers must keep a fixed order (the
    /// campaign merges by ascending shard index) for bit-identical
    /// results.
    pub fn merge(&mut self, other: &CondAggregate) {
        self.runs += other.runs;
        self.events_processed += other.events_processed;
        self.never_response += other.never_response;
        self.never_recovery += other.never_recovery;
        for (a, b) in self.sketches.iter_mut().zip(&other.sketches) {
            a.merge(b);
        }
    }

    /// Exact single-line serialization (manifest shard payload).
    pub fn serialize(&self) -> String {
        let sketches: Vec<String> = self.sketches.iter().map(|s| s.serialize()).collect();
        format!(
            "runs={} events={} nresp={} nrec={} | {}",
            self.runs,
            self.events_processed,
            self.never_response,
            self.never_recovery,
            sketches.join(";")
        )
    }

    /// Parse [`CondAggregate::serialize`] output.
    pub fn deserialize(line: &str) -> Result<Self, String> {
        let (head, tail) = line
            .split_once(" | ")
            .ok_or_else(|| format!("malformed aggregate line {line:?}"))?;
        let mut agg = CondAggregate::new();
        for field in head.split_whitespace() {
            let (key, val) = field
                .split_once('=')
                .ok_or_else(|| format!("malformed aggregate field {field:?}"))?;
            let v: u64 = val.parse().map_err(|e| format!("bad count {val:?}: {e}"))?;
            match key {
                "runs" => agg.runs = v,
                "events" => agg.events_processed = v,
                "nresp" => agg.never_response = v,
                "nrec" => agg.never_recovery = v,
                other => return Err(format!("unknown aggregate field {other:?}")),
            }
        }
        let sketches: Vec<&str> = tail.split(';').collect();
        if sketches.len() != N_METRICS {
            return Err(format!(
                "expected {N_METRICS} sketches, found {}",
                sketches.len()
            ));
        }
        for (i, text) in sketches.iter().enumerate() {
            agg.sketches[i] = MetricSketch::deserialize(text)?;
        }
        Ok(agg)
    }
}

/// Outcome of [`run_campaign`].
#[derive(Debug)]
pub struct CampaignResult {
    /// Per-condition aggregates, in spec order.
    pub conditions: Vec<(Condition, CondAggregate)>,
    /// Shards the sweep consists of in total.
    pub total_shards: usize,
    /// Shards replayed from the manifest instead of being re-run.
    pub resumed_shards: usize,
    /// Shards computed (and checkpointed) by this invocation.
    pub completed_shards: usize,
    /// Shards still pending (> 0 only when `halt_after_shards` fired).
    pub pending_shards: usize,
    /// Sessions simulated by this invocation (excludes resumed shards).
    pub sessions_this_run: u64,
    /// Wall-clock seconds this invocation spent.
    pub wall_secs: f64,
    /// Set when resume found and repaired a torn trailing manifest line
    /// (a checkpoint append cut short by a kill). Holds a human-readable
    /// description of what was recovered.
    pub torn_tail: Option<String>,
}

impl CampaignResult {
    /// True when every shard of the sweep is accounted for.
    pub fn complete(&self) -> bool {
        self.pending_shards == 0
    }

    /// Sessions represented in the aggregates (resumed + fresh).
    pub fn sessions_total(&self) -> u64 {
        self.conditions.iter().map(|(_, a)| a.runs).sum()
    }

    /// Simulated sessions per wall-clock second, this invocation only.
    pub fn sessions_per_sec(&self) -> f64 {
        if self.wall_secs > 0.0 {
            self.sessions_this_run as f64 / self.wall_secs
        } else {
            0.0
        }
    }

    /// FNV-1a digest of the full aggregate state (labels + exact
    /// serializations; wall clock excluded). Bit-identical across thread
    /// counts and across kill/resume splits — the fleet determinism gate
    /// compares exactly this.
    pub fn digest(&self) -> u64 {
        let mut s = String::new();
        for (cond, agg) in &self.conditions {
            s.push_str(&cond.label());
            s.push(' ');
            s.push_str(&agg.serialize());
            s.push('\n');
        }
        stream_id(&s)
    }
}

const MANIFEST_HEADER: &str = "gsrepro-fleet-manifest v1";

/// Parse one manifest shard line into `(global index, aggregate)`.
fn parse_shard_line(line: &str, total: usize) -> Result<(usize, CondAggregate), String> {
    let rest = line
        .strip_prefix("shard ")
        .ok_or_else(|| format!("unexpected manifest line {line:?}"))?;
    let (idx, payload) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed shard line {line:?}"))?;
    let idx: usize = idx
        .parse()
        .map_err(|e| format!("bad shard index {idx:?}: {e}"))?;
    if idx >= total {
        return Err(format!("shard index {idx} out of range"));
    }
    Ok((idx, CondAggregate::deserialize(payload)?))
}

/// Streaming shard merger. Keeps exactly one running [`CondAggregate`]
/// per condition plus a small reorder buffer, so campaign memory is flat
/// in the shard (and therefore session) count: shards that finish out of
/// order wait in the buffer only until the gap before them closes, then
/// fold into the running aggregate in **ascending shard index** — the
/// fixed merge order the bit-identity contract requires. With in-order
/// completion (1 thread, or a resumed prefix) the buffer never holds more
/// than one entry; with N threads it holds O(N) in practice.
struct ShardMerger {
    /// Per condition: the merged contiguous prefix of its shards.
    agg: Vec<CondAggregate>,
    /// Per condition: how many leading shards have been merged.
    next: Vec<usize>,
    /// Out-of-order completions, keyed by global shard index.
    buffered: std::collections::BTreeMap<usize, CondAggregate>,
    /// Shards per condition (maps global index → condition).
    per: usize,
    merged: usize,
}

impl ShardMerger {
    fn new(n_conditions: usize, per: usize) -> Self {
        ShardMerger {
            agg: (0..n_conditions).map(|_| CondAggregate::new()).collect(),
            next: vec![0; n_conditions],
            buffered: std::collections::BTreeMap::new(),
            per,
            merged: 0,
        }
    }

    /// Accept shard `idx`'s aggregate; returns false for duplicates.
    fn push(&mut self, idx: usize, agg: CondAggregate) -> bool {
        let ci = idx / self.per;
        if idx % self.per < self.next[ci] || self.buffered.contains_key(&idx) {
            return false;
        }
        self.buffered.insert(idx, agg);
        // Fold every now-contiguous shard of this condition.
        while let Some(a) = self.buffered.remove(&(ci * self.per + self.next[ci])) {
            self.agg[ci].merge(&a);
            self.next[ci] += 1;
            self.merged += 1;
        }
        true
    }

    /// Shards accepted so far (merged or still buffered).
    fn accounted(&self) -> usize {
        self.merged + self.buffered.len()
    }

    /// Fold any still-buffered shards (ascending index; only halted runs
    /// leave gaps) and return the per-condition aggregates.
    fn finish(mut self) -> Vec<CondAggregate> {
        for (idx, a) in std::mem::take(&mut self.buffered) {
            self.agg[idx / self.per].merge(&a);
        }
        self.agg
    }
}

/// Run (or resume) a fleet campaign. See the module docs for the
/// determinism and manifest contracts.
///
/// Errors on manifest problems (unreadable, wrong spec, corrupt shard
/// lines) and when any shard panics — in the latter case every *other*
/// shard still finishes and checkpoints first, so a fixed bug loses at
/// most the failing shards' work.
pub fn run_campaign(spec: &CampaignSpec) -> Result<CampaignResult, String> {
    let started = Instant::now();
    let total = spec.total_shards();
    let merger = Mutex::new(ShardMerger::new(
        spec.conditions.len(),
        spec.shards_per_condition(),
    ));

    // Replay checkpointed shards, if a manifest exists. Lines stream
    // straight into the merger, so resuming a huge sweep never holds more
    // than the reorder buffer's worth of shard aggregates.
    //
    // Kill-tolerance: the writer appends shard lines with a flush per
    // line, so the only damage a kill can inflict is a *torn tail* — a
    // final shard line that is cut short (fails to parse) or that the
    // file ends on without a newline. Both are recovered by truncating
    // the manifest back to the last complete shard and re-running the
    // torn one. A malformed line with complete lines *after* it cannot
    // come from a torn append and stays a hard error.
    let mut done = vec![false; total];
    let mut resumed = 0usize;
    let mut torn_tail: Option<String> = None;
    if let Some(path) = &spec.manifest {
        if path.exists() {
            use std::io::BufRead as _;
            let f = File::open(path)
                .map_err(|e| format!("cannot read manifest {}: {e}", path.display()))?;
            let mut m = merger.lock().unwrap();
            let mut reader = std::io::BufReader::new(f);
            let mut buf = String::new();
            // Byte offset of the current line's start, and the torn
            // candidate: (truncate-to offset, reason).
            let mut offset: u64 = 0;
            let mut torn: Option<(u64, String)> = None;
            let mut n = 0usize;
            loop {
                buf.clear();
                let read = reader
                    .read_line(&mut buf)
                    .map_err(|e| format!("cannot read manifest: {e}"))?;
                if read == 0 {
                    break;
                }
                if let Some((_, why)) = &torn {
                    return Err(format!(
                        "corrupt manifest {}: {why}, but complete lines follow it, so it \
                         is not a torn append; delete the file or point --manifest \
                         elsewhere",
                        path.display()
                    ));
                }
                let terminated = buf.ends_with('\n');
                let line = buf.trim_end_matches(['\n', '\r']);
                match n {
                    0 if line == MANIFEST_HEADER => {}
                    0 => return Err(format!("not a fleet manifest (first line {line:?})")),
                    1 => match line.strip_prefix("spec ") {
                        Some(hex) if hex == format!("{:016x}", spec.digest()) => {}
                        Some(hex) => {
                            return Err(format!(
                                "manifest belongs to a different campaign (spec {hex}, ours \
                                 {:016x}); delete it or point --manifest elsewhere",
                                spec.digest()
                            ))
                        }
                        None => return Err("manifest is missing its spec line".into()),
                    },
                    _ if line.is_empty() => {}
                    _ => match parse_shard_line(line, total) {
                        Ok((idx, agg)) if terminated => {
                            if m.push(idx, agg) {
                                done[idx] = true;
                                resumed += 1;
                            }
                        }
                        Ok(_) => {
                            torn = Some((
                                offset,
                                format!("line {}: shard line has no trailing newline", n + 1),
                            ));
                        }
                        Err(e) => torn = Some((offset, format!("line {}: {e}", n + 1))),
                    },
                }
                offset += read as u64;
                n += 1;
            }
            if n == 1 {
                return Err("manifest is missing its spec line".into());
            }
            drop(m);
            if let Some((off, why)) = torn {
                let fh = OpenOptions::new()
                    .write(true)
                    .open(path)
                    .map_err(|e| format!("cannot truncate manifest {}: {e}", path.display()))?;
                fh.set_len(off)
                    .map_err(|e| format!("cannot truncate manifest {}: {e}", path.display()))?;
                torn_tail = Some(format!(
                    "recovered torn manifest tail ({why}); truncated to the last complete \
                     shard and re-running the rest"
                ));
            }
        }
    }

    // Open the manifest for appending; write the header when fresh.
    let manifest: Option<Mutex<File>> = match &spec.manifest {
        Some(path) => {
            let fresh = !path.exists();
            let mut f = OpenOptions::new()
                .create(true)
                .append(true)
                .open(path)
                .map_err(|e| format!("cannot open manifest {}: {e}", path.display()))?;
            if fresh {
                writeln!(f, "{MANIFEST_HEADER}\nspec {:016x}", spec.digest())
                    .map_err(|e| format!("cannot write manifest header: {e}"))?;
            }
            Some(Mutex::new(f))
        }
        None => None,
    };

    let pending: Vec<usize> = (0..total).filter(|&i| !done[i]).collect();
    let halted = AtomicUsize::new(0);
    let halt_at = spec.halt_after_shards.unwrap_or(usize::MAX);

    // One job per pending shard. A shard runs its sessions sequentially
    // in iteration order (deterministic regardless of which worker takes
    // it), checkpoints under the manifest lock, and folds straight into
    // the streaming merger — the job's return value is just accounting,
    // so memory stays flat however many shards the sweep has. Returns
    // `None` when the halt budget was spent before this shard started.
    let run_shard = |j: usize| -> Option<u64> {
        if halted.fetch_add(1, Ordering::SeqCst) >= halt_at {
            return None;
        }
        let shard_idx = pending[j];
        let (ci, lo, hi) = spec.shard_bounds(shard_idx);
        let cond = &spec.conditions[ci];
        let mut agg = CondAggregate::new();
        for iter in lo..hi {
            run_condition_with(cond, iter, None, spec.checks, |view| {
                agg.observe(&FleetSample::from_view(view));
            });
        }
        if let Some(m) = &manifest {
            let mut f = m.lock().unwrap();
            // Append + flush so a kill right after this point loses
            // nothing; a kill mid-write leaves a torn last line that
            // resume truncates away (re-running just that shard).
            writeln!(f, "shard {} {}", shard_idx, agg.serialize())
                .and_then(|_| f.flush())
                .unwrap_or_else(|e| panic!("manifest write failed: {e}"));
        }
        let runs = agg.runs;
        merger.lock().unwrap().push(shard_idx, agg);
        Some(runs)
    };
    let describe = |j: usize| {
        let (ci, lo, hi) = spec.shard_bounds(pending[j]);
        format!("{} iters {lo}..{hi}", spec.conditions[ci].label())
    };

    let results = run_jobs(pending.len(), spec.threads, run_shard, describe).map_err(|fails| {
        let mut msg = format!("campaign failed: {} shard(s) panicked", fails.len());
        for f in fails.iter().take(5) {
            msg.push_str(&format!("; {f}"));
        }
        msg
    })?;

    let mut completed = 0usize;
    let mut sessions_this_run = 0u64;
    for runs in results.into_iter().flatten() {
        completed += 1;
        sessions_this_run += runs;
    }

    let merger = merger.into_inner().unwrap();
    let pending_shards = total - merger.accounted();
    let conditions: Vec<(Condition, CondAggregate)> = spec
        .conditions
        .iter()
        .cloned()
        .zip(merger.finish())
        .collect();

    Ok(CampaignResult {
        conditions,
        total_shards: total,
        resumed_shards: resumed,
        completed_shards: completed,
        pending_shards,
        sessions_this_run,
        wall_secs: started.elapsed().as_secs_f64(),
        torn_tail,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_gamestream::SystemKind;
    use gsrepro_tcp::CcaKind;

    fn tiny_spec() -> CampaignSpec {
        let tl = Timeline::scaled(0.02);
        let conditions = vec![
            Condition::new(SystemKind::Luna, Some(CcaKind::Cubic), 25, 2.0).with_timeline(tl),
            Condition::new(SystemKind::Stadia, Some(CcaKind::Bbr), 25, 2.0).with_timeline(tl),
        ];
        let mut spec = CampaignSpec::new(conditions, 4);
        spec.shard_size = 2;
        spec.threads = 1;
        spec
    }

    #[test]
    fn shard_bounds_cover_the_sweep_exactly() {
        let mut spec = tiny_spec();
        spec.iterations = 5; // not divisible by shard_size=2 → ragged tail
        assert_eq!(spec.shards_per_condition(), 3);
        assert_eq!(spec.total_shards(), 6);
        let mut seen = [0u32; 2 * 5];
        for idx in 0..spec.total_shards() {
            let (ci, lo, hi) = spec.shard_bounds(idx);
            assert!(hi <= 5 && lo < hi);
            for it in lo..hi {
                seen[ci * 5 + it as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 1), "each session exactly once");
    }

    #[test]
    fn aggregate_serialization_round_trips() {
        let mut agg = CondAggregate::new();
        for i in 0..50 {
            agg.observe(&FleetSample {
                encoder_rate_mbps: 10.0 + i as f64 * 0.1,
                goodput_mbps: 9.0 + i as f64 * 0.05,
                rtt_ms: 40.0 + (i % 7) as f64,
                fps: 59.0,
                loss_rate: 0.001 * i as f64,
                response_s: (i % 5 != 0).then_some(3.0 + i as f64 * 0.2),
                recovery_s: None,
                events_processed: 1000 + i,
            });
        }
        let line = agg.serialize();
        let back = CondAggregate::deserialize(&line).expect("parses");
        assert_eq!(back.serialize(), line);
        assert_eq!(back.runs, 50);
        assert_eq!(back.never_response, 10);
        assert_eq!(back.never_recovery, 50);
        assert_eq!(
            back.metric_named("rtt_ms").unwrap().mean().to_bits(),
            agg.metric(2).mean().to_bits()
        );
    }

    #[test]
    fn spec_digest_tracks_spec_changes() {
        let a = tiny_spec();
        let mut b = tiny_spec();
        assert_eq!(a.digest(), b.digest());
        b.iterations += 1;
        assert_ne!(a.digest(), b.digest());
        let mut c = tiny_spec();
        c.conditions.pop();
        assert_ne!(a.digest(), c.digest());
    }

    #[test]
    fn shard_lines_parse_and_reject_garbage() {
        let mut agg = CondAggregate::new();
        agg.observe(&FleetSample {
            encoder_rate_mbps: 10.0,
            goodput_mbps: 9.0,
            rtt_ms: 40.0,
            fps: 60.0,
            loss_rate: 0.0,
            response_s: Some(2.0),
            recovery_s: None,
            events_processed: 5,
        });
        let line = format!("shard 3 {}", agg.serialize());
        let (idx, back) = parse_shard_line(&line, 8).expect("parses");
        assert_eq!(idx, 3);
        assert_eq!(back.serialize(), agg.serialize());
        assert!(parse_shard_line(&line, 3).is_err(), "index out of range");
        assert!(parse_shard_line("garbage", 8).is_err());
        assert!(parse_shard_line("shard x runs=1", 8).is_err());
    }

    #[test]
    fn shard_merger_is_order_insensitive_in_result_and_flat_in_buffering() {
        let mk = |seed: u64| {
            let mut a = CondAggregate::new();
            a.observe(&FleetSample {
                encoder_rate_mbps: seed as f64,
                goodput_mbps: seed as f64 * 0.9,
                rtt_ms: 40.0 + seed as f64,
                fps: 60.0,
                loss_rate: 0.0,
                response_s: Some(seed as f64),
                recovery_s: Some(seed as f64 * 2.0),
                events_processed: seed,
            });
            a
        };
        // In order: buffer drains immediately.
        let mut fwd = ShardMerger::new(2, 3);
        for i in 0..6 {
            assert!(fwd.push(i, mk(i as u64)));
            assert!(fwd.buffered.len() <= 1, "in-order fill stays flat");
        }
        // Adversarial order: same final bits.
        let mut rev = ShardMerger::new(2, 3);
        for i in [5, 2, 0, 4, 1, 3] {
            rev.push(i, mk(i as u64));
        }
        assert!(!rev.push(2, mk(99)), "duplicates are rejected");
        let (f, r) = (fwd.finish(), rev.finish());
        for (a, b) in f.iter().zip(&r) {
            assert_eq!(a.serialize(), b.serialize());
        }
    }
}
