//! Flight-recorder telemetry: typed per-flow event traces with bounded
//! memory and zero cost when disabled.
//!
//! The simulator's aggregate statistics ([`crate::stats`]) answer *what*
//! happened; this module answers *why*. Hot paths record typed
//! [`TelemetryEvent`]s — cwnd updates, queue depth and sojourn, drops with
//! a reason, encoder-rate decisions, loss-interval closes — through a
//! [`Recorder`] handle. A disabled recorder is a single null check per
//! site, so paper-scale grids keep their wire-speed event rates; an
//! enabled one keeps a per-flow ring buffer (flight recorder: the most
//! recent `ring_capacity` events survive) plus running [`Counters`].
//!
//! High-rate kinds (per-ACK cwnd, per-packet queue depth) are sampled to
//! at most one event per [`TelemetryConfig::sample_interval`] per
//! (flow, kind); rare, decision-grade kinds (drops, RTOs, fast
//! retransmits, controller backoffs, loss-interval closes) always record.
//!
//! Export is deterministic: rings merge stable-sorted by timestamp, ties
//! broken by flow id, preserving each flow's own order. The CSV writer
//! pairs with a hand-rolled parser ([`parse_csv`]) so traces round-trip
//! without external dependencies, and [`validate_events`] checks schema
//! invariants for CI gates.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::time::{SimDuration, SimTime};

/// Flow id used for events that belong to a link, not a flow (queue depth,
/// link busy). Exported as `4294967295`.
pub const GLOBAL_FLOW: u32 = u32::MAX;

/// Number of event kinds (size of per-flow throttle state).
pub const KIND_COUNT: usize = 15;

/// What happened. The `a`/`b` payload meaning is per-kind (documented on
/// each variant as `a` / `b`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum EventKind {
    /// Congestion window update. `cwnd bytes` / `ssthresh bytes`
    /// (`u64::MAX` = no ssthresh yet, or CCA without one).
    Cwnd = 0,
    /// Pacing-rate update. `bits/s` / unused.
    Pacing = 1,
    /// Bottleneck backlog after an enqueue. `backlog bytes` / `link id`.
    /// Recorded against [`GLOBAL_FLOW`].
    QueueDepth = 2,
    /// A packet left the queue. `sojourn ns` / `link id`.
    QueueSojourn = 3,
    /// Packet dropped by the queue discipline. `link id` / `packet bytes`.
    QueueDrop = 4,
    /// Packet dropped by link impairment (random loss). `link id` /
    /// `packet bytes`.
    LinkDrop = 5,
    /// Link serializer busy; sender must wait. `link id` / `wait ns`.
    /// Recorded against [`GLOBAL_FLOW`].
    LinkBusy = 6,
    /// Encoder target-rate decision. `bits/s` / unused.
    EncoderRate = 7,
    /// Rate controller backed off. `new rate bits/s` / `reason`
    /// (0 = delay, 1 = loss).
    CtrlBackoff = 8,
    /// A TFRC/WALI loss interval closed. `interval length, packets` /
    /// unused.
    LossInterval = 9,
    /// Retransmission timeout fired. `next RTO ns` / `backoff exponent`.
    Rto = 10,
    /// Fast retransmit entered recovery. `cwnd bytes after reduction` /
    /// unused.
    FastRetransmit = 11,
    /// A frame entered the send pipeline. `frame bytes` / `chunk count`.
    Frame = 12,
    /// A scheduled link-scenario step was applied (live reconfiguration).
    /// `link id` / `action code` (netsim's `ScenarioAction` wire code).
    /// Recorded against [`GLOBAL_FLOW`]; never throttled, so traces prove
    /// each disturbance actually happened.
    LinkScenario = 13,
    /// An AQM marked an ECN-capable packet CE instead of dropping it
    /// (RFC 3168 § 5). `link id` / `packet bytes`. Decision-grade: never
    /// throttled, so the counter equals the monitor's per-flow tally.
    EcnMark = 14,
}

impl EventKind {
    /// All kinds, in wire order.
    pub const ALL: [EventKind; KIND_COUNT] = [
        EventKind::Cwnd,
        EventKind::Pacing,
        EventKind::QueueDepth,
        EventKind::QueueSojourn,
        EventKind::QueueDrop,
        EventKind::LinkDrop,
        EventKind::LinkBusy,
        EventKind::EncoderRate,
        EventKind::CtrlBackoff,
        EventKind::LossInterval,
        EventKind::Rto,
        EventKind::FastRetransmit,
        EventKind::Frame,
        EventKind::LinkScenario,
        EventKind::EcnMark,
    ];

    /// Stable wire name (the CSV `kind` column).
    pub fn name(self) -> &'static str {
        match self {
            EventKind::Cwnd => "cwnd",
            EventKind::Pacing => "pacing",
            EventKind::QueueDepth => "queue_depth",
            EventKind::QueueSojourn => "queue_sojourn",
            EventKind::QueueDrop => "queue_drop",
            EventKind::LinkDrop => "link_drop",
            EventKind::LinkBusy => "link_busy",
            EventKind::EncoderRate => "enc_rate",
            EventKind::CtrlBackoff => "ctrl_backoff",
            EventKind::LossInterval => "loss_interval",
            EventKind::Rto => "rto",
            EventKind::FastRetransmit => "fast_retx",
            EventKind::Frame => "frame",
            EventKind::LinkScenario => "link_scenario",
            EventKind::EcnMark => "ecn_mark",
        }
    }

    /// Inverse of [`EventKind::name`].
    pub fn from_name(s: &str) -> Option<EventKind> {
        EventKind::ALL.iter().copied().find(|k| k.name() == s)
    }

    /// Whether this kind is rate-limited to one event per
    /// [`TelemetryConfig::sample_interval`] per flow. Rare decision-grade
    /// kinds always record.
    fn throttled(self) -> bool {
        matches!(
            self,
            EventKind::Cwnd
                | EventKind::Pacing
                | EventKind::QueueDepth
                | EventKind::QueueSojourn
                | EventKind::LinkBusy
                | EventKind::Frame
        )
    }
}

/// One trace record: 32 bytes, `Copy`, no heap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryEvent {
    /// Simulation time of the event.
    pub at: SimTime,
    /// Owning flow, or [`GLOBAL_FLOW`] for link-scope events.
    pub flow: u32,
    /// What happened.
    pub kind: EventKind,
    /// First payload word (per-kind meaning; see [`EventKind`]).
    pub a: u64,
    /// Second payload word.
    pub b: u64,
}

/// Running counters kept beside the rings, so they also count events the
/// rings throttle or evict: the ring tallies themselves, and the drop and
/// mark totals the network's telemetry cross-check compares with its
/// monitor.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counters {
    /// Events stored in a ring.
    pub recorded: u64,
    /// Events suppressed by the per-(flow, kind) sample interval.
    pub throttled: u64,
    /// Events pushed out of a full ring (flight-recorder overwrite).
    pub evicted: u64,
    /// Queue-discipline drops observed.
    pub queue_drops: u64,
    /// Link-impairment drops observed.
    pub link_drops: u64,
    /// CE marks applied by ECN-capable AQMs (mark-instead-of-drop).
    pub ecn_marks: u64,
}

/// Ring sizing and sampling cadence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Max events retained per flow; older events are overwritten.
    /// The default (2^18) holds a full 540 s paper condition at the
    /// default sample interval with room to spare.
    pub ring_capacity: usize,
    /// Minimum spacing between recorded events of the same throttled
    /// (flow, kind); `ZERO` disables sampling.
    pub sample_interval: SimDuration,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            ring_capacity: 1 << 18,
            sample_interval: SimDuration::from_millis(10),
        }
    }
}

/// One flow's flight-recorder state.
#[derive(Clone, Debug)]
struct FlowRing {
    flow: u32,
    ring: VecDeque<TelemetryEvent>,
    /// Nanosecond timestamp of the last *recorded* event per kind
    /// (`None` = never, so the t = 0 event is always kept).
    last: [Option<u64>; KIND_COUNT],
}

impl FlowRing {
    fn new(flow: u32) -> Self {
        FlowRing {
            flow,
            ring: VecDeque::new(),
            last: [None; KIND_COUNT],
        }
    }
}

/// The enabled trace bus: per-flow rings plus counters.
#[derive(Clone, Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Small (one entry per flow in the run); linear scan beats hashing.
    flows: Vec<FlowRing>,
    counters: Counters,
}

impl Telemetry {
    /// An empty bus with the given sizing.
    pub fn new(cfg: TelemetryConfig) -> Self {
        Telemetry {
            cfg,
            flows: Vec::new(),
            counters: Counters::default(),
        }
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Counters {
        self.counters
    }

    /// Record one event, applying sampling and ring eviction.
    pub fn record(&mut self, ev: TelemetryEvent) {
        match ev.kind {
            EventKind::QueueDrop => self.counters.queue_drops += 1,
            EventKind::LinkDrop => self.counters.link_drops += 1,
            EventKind::EcnMark => self.counters.ecn_marks += 1,
            _ => {}
        }
        let interval = self.cfg.sample_interval.as_nanos();
        let cap = self.cfg.ring_capacity.max(1);
        let idx = match self.flows.iter().position(|f| f.flow == ev.flow) {
            Some(i) => i,
            None => {
                self.flows.push(FlowRing::new(ev.flow));
                self.flows.len() - 1
            }
        };
        let fr = &mut self.flows[idx];
        if interval > 0 && ev.kind.throttled() {
            let k = ev.kind as usize;
            let now = ev.at.as_nanos();
            if let Some(last) = fr.last[k] {
                if now.saturating_sub(last) < interval {
                    self.counters.throttled += 1;
                    return;
                }
            }
            fr.last[k] = Some(now);
        }
        self.counters.recorded += 1;
        if fr.ring.len() >= cap {
            fr.ring.pop_front();
            self.counters.evicted += 1;
        }
        fr.ring.push_back(ev);
    }

    /// All retained events, merged across flows: stable-sorted by time,
    /// ties by flow id, per-flow order preserved. Deterministic for a
    /// deterministic run.
    pub fn events(&self) -> Vec<TelemetryEvent> {
        let mut order: Vec<&FlowRing> = self.flows.iter().collect();
        order.sort_by_key(|f| f.flow);
        let total = order.iter().map(|f| f.ring.len()).sum();
        let mut all = Vec::with_capacity(total);
        for f in order {
            all.extend(f.ring.iter().copied());
        }
        all.sort_by_key(|e| e.at);
        all
    }

    /// Export the merged trace as CSV (see [`CSV_HEADER`]).
    pub fn to_csv(&self) -> String {
        events_to_csv(&self.events())
    }
}

/// The recording handle threaded through hot paths. Disabled (the
/// default) it is a null pointer: every helper is one branch and no work,
/// preserving the simulator's wire-speed event rates.
#[derive(Debug, Default)]
pub struct Recorder(Option<Box<Telemetry>>);

impl Recorder {
    /// A no-op recorder.
    pub fn disabled() -> Self {
        Recorder(None)
    }

    /// An active recorder with the given sizing.
    pub fn enabled(cfg: TelemetryConfig) -> Self {
        Recorder(Some(Box::new(Telemetry::new(cfg))))
    }

    /// Whether events are being kept. Callers computing non-trivial
    /// payloads should guard on this.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    /// The underlying bus, when enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.0.as_deref()
    }

    /// Counter snapshot (zeros when disabled).
    pub fn counters(&self) -> Counters {
        self.0
            .as_deref()
            .map(Telemetry::counters)
            .unwrap_or_default()
    }

    /// Record a raw event.
    #[inline]
    pub fn record(&mut self, ev: TelemetryEvent) {
        if let Some(t) = &mut self.0 {
            t.record(ev);
        }
    }

    #[inline]
    fn rec(&mut self, at: SimTime, flow: u32, kind: EventKind, a: u64, b: u64) {
        if let Some(t) = &mut self.0 {
            t.record(TelemetryEvent {
                at,
                flow,
                kind,
                a,
                b,
            });
        }
    }

    /// Congestion-window update after an ACK.
    #[inline]
    pub fn cwnd(&mut self, at: SimTime, flow: u32, cwnd: u64, ssthresh: u64) {
        self.rec(at, flow, EventKind::Cwnd, cwnd, ssthresh);
    }

    /// Pacing-rate update.
    #[inline]
    pub fn pacing(&mut self, at: SimTime, flow: u32, bps: u64) {
        self.rec(at, flow, EventKind::Pacing, bps, 0);
    }

    /// Queue backlog after an enqueue (link scope).
    #[inline]
    pub fn queue_depth(&mut self, at: SimTime, link: u64, backlog_bytes: u64) {
        self.rec(at, GLOBAL_FLOW, EventKind::QueueDepth, backlog_bytes, link);
    }

    /// Queueing delay of a departing packet.
    #[inline]
    pub fn queue_sojourn(&mut self, at: SimTime, flow: u32, link: u64, sojourn: SimDuration) {
        self.rec(at, flow, EventKind::QueueSojourn, sojourn.as_nanos(), link);
    }

    /// Packet dropped by the queue discipline.
    #[inline]
    pub fn queue_drop(&mut self, at: SimTime, flow: u32, link: u64, pkt_bytes: u64) {
        self.rec(at, flow, EventKind::QueueDrop, link, pkt_bytes);
    }

    /// Packet dropped by link impairment.
    #[inline]
    pub fn link_drop(&mut self, at: SimTime, flow: u32, link: u64, pkt_bytes: u64) {
        self.rec(at, flow, EventKind::LinkDrop, link, pkt_bytes);
    }

    /// Link serializer busy (link scope).
    #[inline]
    pub fn link_busy(&mut self, at: SimTime, link: u64, wait: SimDuration) {
        self.rec(at, GLOBAL_FLOW, EventKind::LinkBusy, link, wait.as_nanos());
    }

    /// Encoder target-rate decision.
    #[inline]
    pub fn encoder_rate(&mut self, at: SimTime, flow: u32, bps: u64) {
        self.rec(at, flow, EventKind::EncoderRate, bps, 0);
    }

    /// Controller backoff (`reason`: 0 = delay, 1 = loss).
    #[inline]
    pub fn ctrl_backoff(&mut self, at: SimTime, flow: u32, bps: u64, reason: u64) {
        self.rec(at, flow, EventKind::CtrlBackoff, bps, reason);
    }

    /// TFRC loss-interval close.
    #[inline]
    pub fn loss_interval(&mut self, at: SimTime, flow: u32, pkts: u64) {
        self.rec(at, flow, EventKind::LossInterval, pkts, 0);
    }

    /// Retransmission timeout.
    #[inline]
    pub fn rto(&mut self, at: SimTime, flow: u32, next_rto: SimDuration, backoff: u64) {
        self.rec(at, flow, EventKind::Rto, next_rto.as_nanos(), backoff);
    }

    /// Fast retransmit.
    #[inline]
    pub fn fast_retransmit(&mut self, at: SimTime, flow: u32, cwnd_after: u64) {
        self.rec(at, flow, EventKind::FastRetransmit, cwnd_after, 0);
    }

    /// Frame entering the send pipeline.
    #[inline]
    pub fn frame(&mut self, at: SimTime, flow: u32, frame_bytes: u64, chunks: u64) {
        self.rec(at, flow, EventKind::Frame, frame_bytes, chunks);
    }

    /// A link-scenario step was applied (link scope). `action` is the
    /// netsim `ScenarioAction` wire code.
    #[inline]
    pub fn link_scenario(&mut self, at: SimTime, link: u64, action: u64) {
        self.rec(at, GLOBAL_FLOW, EventKind::LinkScenario, link, action);
    }

    /// An AQM CE-marked an ECN-capable packet instead of dropping it.
    #[inline]
    pub fn ecn_mark(&mut self, at: SimTime, flow: u32, link: u64, pkt_bytes: u64) {
        self.rec(at, flow, EventKind::EcnMark, link, pkt_bytes);
    }
}

// ---------------------------------------------------------------------------
// Export / import
// ---------------------------------------------------------------------------

/// CSV schema. `t_s` carries nanosecond precision (9 decimals), which
/// round-trips exactly for any simulation span the engine supports.
pub const CSV_HEADER: &str = "t_s,flow,kind,a,b";

/// Render events as CSV under [`CSV_HEADER`].
pub fn events_to_csv(events: &[TelemetryEvent]) -> String {
    let mut out = String::with_capacity(events.len() * 48 + CSV_HEADER.len() + 1);
    out.push_str(CSV_HEADER);
    out.push('\n');
    for e in events {
        let _ = writeln!(
            out,
            "{:.9},{},{},{},{}",
            e.at.as_secs_f64(),
            e.flow,
            e.kind.name(),
            e.a,
            e.b
        );
    }
    out
}

fn parse_t_s(s: &str, line_no: usize) -> Result<SimTime, String> {
    let t: f64 = s
        .parse()
        .map_err(|_| format!("line {line_no}: bad t_s {s:?}"))?;
    if !t.is_finite() || t < 0.0 {
        return Err(format!("line {line_no}: t_s out of range: {s:?}"));
    }
    Ok(SimTime::from_nanos((t * 1e9).round() as u64))
}

/// Parse a trace produced by [`events_to_csv`]. Strict: exact header,
/// five fields per row, known kinds.
pub fn parse_csv(input: &str) -> Result<Vec<TelemetryEvent>, String> {
    let mut lines = input.lines().enumerate();
    match lines.next() {
        Some((_, h)) if h == CSV_HEADER => {}
        Some((_, h)) => return Err(format!("bad header {h:?}, expected {CSV_HEADER:?}")),
        None => return Err("empty input".into()),
    }
    let mut out = Vec::new();
    for (i, line) in lines {
        let n = i + 1;
        if line.is_empty() {
            continue;
        }
        let mut f = line.split(',');
        let (Some(t), Some(flow), Some(kind), Some(a), Some(b), None) =
            (f.next(), f.next(), f.next(), f.next(), f.next(), f.next())
        else {
            return Err(format!("line {n}: expected 5 fields: {line:?}"));
        };
        out.push(TelemetryEvent {
            at: parse_t_s(t, n)?,
            flow: flow
                .parse()
                .map_err(|_| format!("line {n}: bad flow {flow:?}"))?,
            kind: EventKind::from_name(kind)
                .ok_or_else(|| format!("line {n}: unknown kind {kind:?}"))?,
            a: a.parse().map_err(|_| format!("line {n}: bad a {a:?}"))?,
            b: b.parse().map_err(|_| format!("line {n}: bad b {b:?}"))?,
        });
    }
    Ok(out)
}

/// Schema invariants beyond per-row syntax: non-empty, timestamps
/// non-decreasing. Used by the CI trace gate.
pub fn validate_events(events: &[TelemetryEvent]) -> Result<(), String> {
    if events.is_empty() {
        return Err("trace is empty".into());
    }
    for w in events.windows(2) {
        if w[1].at < w[0].at {
            return Err(format!(
                "timestamps regress: {} s then {} s",
                w[0].at.as_secs_f64(),
                w[1].at.as_secs_f64()
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(ns: u64, flow: u32, kind: EventKind, a: u64, b: u64) -> TelemetryEvent {
        TelemetryEvent {
            at: SimTime::from_nanos(ns),
            flow,
            kind,
            a,
            b,
        }
    }

    fn small() -> Telemetry {
        Telemetry::new(TelemetryConfig {
            ring_capacity: 4,
            sample_interval: SimDuration::from_millis(10),
        })
    }

    #[test]
    fn first_event_at_time_zero_is_kept() {
        let mut t = small();
        t.record(ev(0, 1, EventKind::Cwnd, 100, 200));
        assert_eq!(t.events().len(), 1);
        assert_eq!(t.counters().recorded, 1);
    }

    #[test]
    fn throttle_suppresses_within_interval_per_flow_and_kind() {
        let mut t = small();
        t.record(ev(0, 1, EventKind::Cwnd, 1, 0));
        t.record(ev(5_000_000, 1, EventKind::Cwnd, 2, 0)); // +5 ms: dropped
        t.record(ev(5_000_000, 1, EventKind::Pacing, 9, 0)); // other kind: kept
        t.record(ev(5_000_000, 2, EventKind::Cwnd, 3, 0)); // other flow: kept
        t.record(ev(10_000_000, 1, EventKind::Cwnd, 4, 0)); // +10 ms: kept
        let c = t.counters();
        assert_eq!(c.recorded, 4);
        assert_eq!(c.throttled, 1);
    }

    #[test]
    fn decision_grade_kinds_never_throttle() {
        // The default 10 ms interval, with a ring deep enough that every
        // recorded event is still there to count.
        let mut t = Telemetry::new(TelemetryConfig::default());
        for i in 0..3 {
            t.record(ev(i, 1, EventKind::QueueDrop, 0, 1500));
            t.record(ev(i, 1, EventKind::Rto, 1, 0));
        }
        let c = t.counters();
        assert_eq!(c.throttled, 0);
        assert_eq!(c.queue_drops, 3);
        let rtos = t
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::Rto)
            .count();
        assert_eq!(rtos, 3);
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = small(); // capacity 4
        for i in 0..6u64 {
            t.record(ev(i, 7, EventKind::LossInterval, i, 0));
        }
        let events = t.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].a, 2, "oldest two evicted");
        assert_eq!(t.counters().evicted, 2);
    }

    #[test]
    fn merge_orders_by_time_then_flow() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record(ev(50, 9, EventKind::Rto, 0, 0));
        t.record(ev(50, 3, EventKind::Rto, 1, 0));
        t.record(ev(10, 9, EventKind::Rto, 2, 0));
        let events = t.events();
        assert_eq!(events[0].at.as_nanos(), 10);
        assert_eq!(events[1].flow, 3, "tie broken by flow id");
        assert_eq!(events[2].flow, 9);
        validate_events(&events).unwrap();
    }

    #[test]
    fn csv_round_trips_exactly() {
        let mut t = Telemetry::new(TelemetryConfig::default());
        t.record(ev(0, 0, EventKind::Cwnd, 14_480, u64::MAX));
        t.record(ev(
            539_999_999_999,
            4,
            EventKind::QueueSojourn,
            1_234_567,
            2,
        ));
        t.record(ev(
            185_000_000_001,
            GLOBAL_FLOW,
            EventKind::QueueDepth,
            103_124,
            2,
        ));
        for &k in &EventKind::ALL {
            t.record(ev(539_999_999_999, 3, k, u64::MAX, u64::MAX));
        }
        let events = t.events();
        assert_eq!(events.len(), 3 + KIND_COUNT);
        let parsed = parse_csv(&t.to_csv()).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parsers_reject_malformed_input() {
        assert!(parse_csv("").is_err());
        assert!(parse_csv("time,flow\n").is_err());
        assert!(parse_csv("t_s,flow,kind,a,b\n1.0,0,cwnd,1\n").is_err());
        assert!(parse_csv("t_s,flow,kind,a,b\n1.0,0,warp,1,2\n").is_err());
        assert!(parse_csv("t_s,flow,kind,a,b\n-1.0,0,cwnd,1,2\n").is_err());
    }

    #[test]
    fn validate_flags_empty_and_regressing() {
        assert!(validate_events(&[]).is_err());
        let good = [
            ev(1, 0, EventKind::Cwnd, 1, 1),
            ev(2, 0, EventKind::Cwnd, 2, 1),
        ];
        assert!(validate_events(&good).is_ok());
        let bad = [
            ev(2, 0, EventKind::Cwnd, 1, 1),
            ev(1, 0, EventKind::Cwnd, 2, 1),
        ];
        assert!(validate_events(&bad).is_err());
    }

    #[test]
    fn disabled_recorder_is_inert() {
        let mut r = Recorder::disabled();
        r.cwnd(SimTime::from_nanos(1), 0, 1, 2);
        r.queue_drop(SimTime::from_nanos(2), 0, 1, 1500);
        assert!(!r.is_enabled());
        assert!(r.telemetry().is_none());
        assert_eq!(r.counters(), Counters::default());
    }

    #[test]
    fn enabled_recorder_records_through_helpers() {
        let mut r = Recorder::enabled(TelemetryConfig::default());
        let t0 = SimTime::from_nanos(0);
        r.cwnd(t0, 4, 14_480, u64::MAX);
        r.queue_depth(t0, 2, 50_000);
        r.encoder_rate(t0, 0, 25_000_000);
        r.ctrl_backoff(t0, 0, 12_000_000, 1);
        let tel = r.telemetry().unwrap();
        assert_eq!(tel.events().len(), 4);
        let backoffs = tel
            .events()
            .iter()
            .filter(|e| e.kind == EventKind::CtrlBackoff)
            .count();
        assert_eq!(backoffs, 1);
        let global: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.flow == GLOBAL_FLOW)
            .collect();
        assert_eq!(global.len(), 1);
        assert_eq!(global[0].kind, EventKind::QueueDepth);
    }
}
