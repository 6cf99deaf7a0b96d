//! TCP sender and receiver agents.
//!
//! [`TcpSender`] is a bulk-data sender (the paper's iperf server): an
//! unlimited application source, window- and optionally pacing-limited,
//! with SACK-based loss recovery and an RFC 6298 retransmission timer.
//! [`TcpReceiver`] is the iperf client: it acks every arriving segment
//! immediately, echoing the segment's transmit timestamp and up to three
//! SACK blocks.
//!
//! Segment sizes on the wire are payload + [`TCP_HEADER`]; pure acks carry
//! [`ACK_SIZE`] bytes (header + timestamp/SACK options).

use std::collections::BTreeMap;

use gsrepro_netsim::net::{Agent, AgentId, Ctx, NetworkBuilder, NodeId, PacketSpec};
use gsrepro_netsim::wire::{Ecn, FlowId, Packet, Payload, TcpSegment, TCP_HEADER, TCP_MSS};
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

use crate::cca::{AckInfo, CcaKind, CongestionControl};
use crate::scoreboard::{Acked, Scoreboard, SentSeg};

/// Wire size of a pure ack (TCP/IP header + timestamp and SACK options).
pub const ACK_SIZE: Bytes = Bytes(60);

/// Minimum retransmission timeout (Linux: 200 ms).
const MIN_RTO: SimDuration = SimDuration::from_millis(200);
/// Maximum retransmission timeout.
const MAX_RTO: SimDuration = SimDuration::from_secs(60);
/// Initial RTO before any RTT sample (RFC 6298: 1 s).
const INITIAL_RTO: SimDuration = SimDuration::from_secs(1);

/// Segments released back-to-back per pacing slot. Linux fq pacing emits
/// small bursts (TSO autosizing, quantum ≥ 2 segments) rather than perfect
/// per-packet spacing; the clustering matters at full drop-tail queues,
/// where a burst's trailing segments absorb the drops that a perfectly
/// paced stream would spread onto its neighbours.
const PACE_QUANTUM: u64 = 2;

const TOK_START: u64 = 0;
const TOK_RTO: u64 = 1;
const TOK_PACE: u64 = 2;

/// Configuration for a [`TcpSender`].
#[derive(Clone, Debug)]
pub struct TcpSenderConfig {
    /// Flow id for the data direction (downstream accounting).
    pub flow: FlowId,
    /// Receiver's node.
    pub dst: NodeId,
    /// Receiver's agent.
    pub dst_agent: AgentId,
    /// Congestion-control algorithm.
    pub cca: CcaKind,
    /// Maximum segment size (payload bytes). Default [`TCP_MSS`].
    pub mss: Bytes,
    /// When the bulk transfer starts (the paper starts iperf at 185 s).
    pub start_at: SimTime,
    /// When the sender stops offering new data (370 s in the paper).
    pub stop_at: SimTime,
}

impl TcpSenderConfig {
    /// Bulk transfer running over `[start, stop)` with standard MSS.
    pub fn new(flow: FlowId, dst: NodeId, dst_agent: AgentId, cca: CcaKind) -> Self {
        TcpSenderConfig {
            flow,
            dst,
            dst_agent,
            cca,
            mss: TCP_MSS,
            start_at: SimTime::ZERO,
            stop_at: SimTime::MAX,
        }
    }

    /// Restrict the transfer to `[start, stop)`.
    pub fn active_during(mut self, start: SimTime, stop: SimTime) -> Self {
        self.start_at = start;
        self.stop_at = stop;
        self
    }
}

/// Bulk-data TCP sender agent.
pub struct TcpSender {
    cfg: TcpSenderConfig,
    cca: Box<dyn CongestionControl>,

    running: bool,
    /// `None` = unlimited bulk data (iperf). `Some(budget)` = application-
    /// limited: only bytes queued via [`TcpSender::queue_app_bytes`] may be
    /// sent.
    app_budget: Option<u64>,
    next_seq: u64,
    snd_una: u64,
    /// Everything sent and neither acked nor SACKed.
    board: Scoreboard,

    delivered: u64,
    next_round_delivered: u64,
    round: u64,

    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    min_rtt: SimDuration,
    rto_backoff: u32,
    rto_deadline: SimTime,
    /// Fire time of the earliest pending RTO timer, [`SimTime::MAX`] when
    /// none. Timers are not cancellable, so when the deadline moves
    /// *earlier* than every pending timer a new one is set and later
    /// firings are discarded as stale against this field.
    rto_timer_at: SimTime,
    /// Instant of the last genuine RTO expiry. The next deadline anchors
    /// at `max(oldest sent_at, this) + cur_rto()`: after a timeout the
    /// backed-off timer restarts from the expiry (RFC 6298 § 5.5-5.6, as
    /// Linux does), never from a transmission already more than one RTO
    /// old. Without the floor, a lost segment whose retransmission stays
    /// pacing-blocked past MAX_RTO re-arms a zero-delay timer from its
    /// stale `sent_at` on every expiry — an unbounded same-instant RTO
    /// loop that livelocks the simulation (found by a chaos campaign).
    rto_fired_at: SimTime,

    dupacks: u32,
    recovery_point: u64,
    /// Highest sequence covered by any SACK block seen (monotonic).
    highest_sacked: u64,

    pace_next: SimTime,
    pace_timer_armed: bool,

    /// Anchor for short-timescale ("ack clock") delivery-rate samples:
    /// (time, delivered) at the start of the current burst window.
    burst_anchor: Option<(SimTime, u64)>,

    // Lifetime statistics.
    retransmissions: u64,
    rto_events: u64,
    fast_retransmit_events: u64,
}

impl TcpSender {
    /// Create a sender; the controller is built from `cfg.cca`.
    pub fn new(cfg: TcpSenderConfig) -> Self {
        let cca = cfg.cca.build(cfg.mss.as_u64());
        Self::with_controller(cfg, cca)
    }

    /// Create a sender with an explicitly constructed controller (ablation
    /// experiments use this to vary controller parameters beyond what
    /// [`CcaKind`] exposes). `cfg.cca` is kept only as a label.
    pub fn with_controller(cfg: TcpSenderConfig, cca: Box<dyn CongestionControl>) -> Self {
        TcpSender {
            cfg,
            cca,
            running: false,
            app_budget: None,
            next_seq: 0,
            snd_una: 0,
            board: Scoreboard::default(),
            delivered: 0,
            next_round_delivered: 0,
            round: 0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            min_rtt: SimDuration::MAX,
            rto_backoff: 0,
            rto_deadline: SimTime::MAX,
            rto_timer_at: SimTime::MAX,
            rto_fired_at: SimTime::ZERO,
            dupacks: 0,
            recovery_point: 0,
            highest_sacked: 0,
            pace_next: SimTime::ZERO,
            pace_timer_armed: false,
            burst_anchor: None,
            retransmissions: 0,
            rto_events: 0,
            fast_retransmit_events: 0,
        }
    }

    /// Switch to application-limited mode: the sender only transmits bytes
    /// that have been queued with [`TcpSender::queue_app_bytes`]. Call
    /// before the simulation starts.
    pub fn set_app_limited(&mut self) {
        self.app_budget = Some(0);
    }

    /// Queue `bytes` of application data for transmission (app-limited
    /// mode only; a no-op in bulk mode, which is already unlimited).
    /// Returns the new outstanding budget.
    pub fn queue_app_bytes(&mut self, bytes: u64) -> u64 {
        match self.app_budget.as_mut() {
            Some(b) => {
                *b += bytes;
                *b
            }
            None => 0,
        }
    }

    /// Unsent application budget (app-limited mode).
    pub fn app_budget(&self) -> u64 {
        self.app_budget.unwrap_or(0)
    }

    /// Bytes acknowledged as delivered end-to-end.
    pub fn delivered_bytes(&self) -> u64 {
        self.delivered
    }

    /// Total retransmitted segments.
    pub fn retransmissions(&self) -> u64 {
        self.retransmissions
    }

    /// Retransmission-timeout episodes.
    pub fn rto_events(&self) -> u64 {
        self.rto_events
    }

    /// Fast-retransmit (recovery) episodes.
    pub fn fast_retransmit_events(&self) -> u64 {
        self.fast_retransmit_events
    }

    /// Smoothed RTT, if measured.
    pub fn srtt(&self) -> Option<SimDuration> {
        self.srtt
    }

    /// Minimum RTT observed.
    pub fn min_rtt(&self) -> SimDuration {
        self.min_rtt
    }

    /// Segments currently tracked: in flight or awaiting retransmission
    /// (a SACKed segment is dropped at once).
    pub fn tracked_segments(&self) -> usize {
        self.board.len()
    }

    /// Current congestion window (bytes).
    pub fn cwnd(&self) -> u64 {
        self.cca.cwnd()
    }

    /// The congestion controller (diagnostics).
    pub fn cca(&self) -> &dyn CongestionControl {
        self.cca.as_ref()
    }

    fn mss(&self) -> u64 {
        self.cfg.mss.as_u64()
    }

    fn cur_rto(&self) -> SimDuration {
        let base = match self.srtt {
            Some(srtt) => srtt + self.rttvar * 4,
            None => INITIAL_RTO,
        };
        let backed = base * (1u64 << self.rto_backoff.min(8));
        backed.clamp(MIN_RTO, MAX_RTO)
    }

    fn in_recovery(&self) -> bool {
        self.snd_una < self.recovery_point
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        if sample < self.min_rtt {
            self.min_rtt = sample;
        }
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                // RFC 6298: beta = 1/4, alpha = 1/8.
                let delta = if srtt > sample {
                    srtt - sample
                } else {
                    sample - srtt
                };
                self.rttvar = (self.rttvar * 3 + delta) / 4;
                self.srtt = Some((srtt * 7 + sample) / 8);
            }
        }
    }

    fn arm_rto(&mut self, ctx: &mut Ctx, deadline: SimTime) {
        self.rto_deadline = deadline;
        // A pending timer at or before the deadline will fire in time and
        // re-check the deadline then. But if every pending timer fires
        // *after* the new deadline (e.g. the backoff just reset while a
        // heavily backed-off timer is in flight), the timeout would fire
        // late — set an earlier timer and let the stale one no-op.
        if deadline < self.rto_timer_at {
            self.rto_timer_at = deadline;
            let delay = deadline.saturating_since(ctx.now());
            ctx.set_timer(delay, TOK_RTO);
        }
    }

    /// RFC 6298 semantics: the retransmission timer covers the *oldest*
    /// outstanding (un-SACKed) transmission. Anchoring the deadline there —
    /// rather than pushing it out on every ack — guarantees that a hole
    /// whose retransmissions keep getting dropped still triggers an RTO
    /// about one RTO after its last (re)transmission, no matter how much
    /// later data is being SACKed around it.
    fn rearm_rto_from_oldest(&mut self, ctx: &mut Ctx) {
        match self.board.oldest_sent_at() {
            Some(t) => {
                // Floor at the last expiry: a timeout restarts the
                // backed-off timer from the expiry itself (see
                // `rto_fired_at`), so an expiry instant is never re-armed.
                let deadline = t.max(self.rto_fired_at) + self.cur_rto();
                self.arm_rto(ctx, deadline);
            }
            None => self.rto_deadline = SimTime::MAX,
        }
    }

    fn send_segment(&mut self, ctx: &mut Ctx, seq: u64, len: u64, is_retx: bool) {
        // ECN-capable controllers negotiate ECT on data segments so AQMs
        // mark instead of drop (RFC 3168 § 6.1.1); pure acks stay Not-ECT.
        let ecn = if self.cca.ecn_capable() {
            Ecn::Ect
        } else {
            Ecn::NotEct
        };
        ctx.send(PacketSpec {
            flow: self.cfg.flow,
            dst: self.cfg.dst,
            dst_agent: self.cfg.dst_agent,
            size: Bytes(len) + TCP_HEADER,
            ecn,
            payload: Payload::Tcp(TcpSegment::data(seq, len as u32)),
        });
        if is_retx {
            self.retransmissions += 1;
        }
    }

    fn try_send(&mut self, ctx: &mut Ctx) {
        if !self.running {
            return;
        }
        let now = ctx.now();
        let cwnd = self.cca.cwnd();
        let pacing = self.cca.pacing_rate();
        let mut quantum_left = PACE_QUANTUM;

        loop {
            // Pacing gate: a burst of up to PACE_QUANTUM segments is
            // released per slot; the slot itself opens at pace_next.
            if pacing.is_some() {
                let slot_open = now >= self.pace_next;
                let burst_spent = quantum_left == 0;
                if (!slot_open && quantum_left == PACE_QUANTUM) || burst_spent {
                    if !self.pace_timer_armed && self.pace_next > now {
                        self.pace_timer_armed = true;
                        ctx.set_timer(self.pace_next.saturating_since(now), TOK_PACE);
                    }
                    break;
                }
            }

            // Priority 1: retransmit the lowest lost sequence.
            let len = if let Some(&SentSeg { seq, len, .. }) = self.board.next_lost() {
                if self.board.pipe() + len > cwnd {
                    break;
                }
                self.board.retransmit(seq, now, self.delivered);
                self.send_segment(ctx, seq, len, true);
                len
            } else {
                // Priority 2: new data.
                if now >= self.cfg.stop_at {
                    break;
                }
                let len = match self.app_budget {
                    None => self.mss(),
                    Some(budget) => {
                        // App-limited: send full segments while the budget
                        // lasts, then a final runt, then stop.
                        if budget == 0 {
                            break;
                        }
                        budget.min(self.mss())
                    }
                };
                if self.board.pipe() + len > cwnd {
                    break;
                }
                if let Some(b) = self.app_budget.as_mut() {
                    *b -= len;
                }
                let seq = self.next_seq;
                self.next_seq += len;
                self.board.push(seq, len, now, self.delivered);
                self.send_segment(ctx, seq, len, false);
                len
            };
            if let Some(rate) = pacing {
                let gap = rate.tx_time(Bytes(len) + TCP_HEADER);
                self.pace_next = self.pace_next.max(now) + gap;
                quantum_left -= 1;
            }
        }

        self.rearm_rto_from_oldest(ctx);
    }

    fn process_ack(&mut self, seg: TcpSegment, now: SimTime, ctx: &mut Ctx) {
        let old_una = self.snd_una;
        let rtt_sample = seg.ts_echo.map(|ts| now.saturating_since(ts));
        // What this ack removes. The newest segment among it anchors the rate
        // sample unless it was retransmitted (Karn's rule): when a long hole
        // fills, one cumulative ack can cover megabytes, and dividing that by
        // the retransmission's short flight would send BBR's cwnd to the moon.
        let mut acked = Acked::default();

        // Cumulative ack: remove fully-acked segments.
        if seg.ack > self.snd_una {
            self.snd_una = seg.ack;
            self.dupacks = 0;
            self.rto_backoff = 0;
            self.board.cum_ack(seg.ack, &mut acked);
        }

        // SACK blocks: the segments each covers are delivered and leave the
        // scoreboard at once (receivers never renege).
        for &(start, end) in seg.sack.iter().flatten() {
            self.highest_sacked = self.highest_sacked.max(end);
            self.board.sack(start, end, &mut acked);
        }

        let newly_delivered = acked.bytes;
        self.delivered += newly_delivered;
        let round_start = acked
            .newest
            .is_some_and(|n| n.delivered_at_send >= self.next_round_delivered);
        if round_start {
            self.round += 1;
            self.next_round_delivered = self.delivered;
        }

        // Duplicate-ack counting (cumulative ack unchanged, nothing new).
        if seg.ack == old_una && newly_delivered == 0 && !self.board.is_empty() {
            self.dupacks += 1;
        }

        // Loss detection: SACK distance (≈ RFC 6675 DupThresh) or 3 dupacks
        // for the segment at snd_una, behind a smoothed-RTT gate for a
        // segment already retransmitted (see `Scoreboard::mark_lost`).
        let newly_lost = self.board.mark_lost(
            self.highest_sacked,
            2 * self.mss(),
            (self.dupacks >= 3).then_some(self.snd_una),
            now,
            self.srtt.unwrap_or(INITIAL_RTO),
        );
        if newly_lost && !self.in_recovery() {
            self.recovery_point = self.next_seq;
            self.fast_retransmit_events += 1;
            let pipe = self.board.pipe();
            self.cca.on_congestion_event(now, pipe);
            ctx.telemetry()
                .fast_retransmit(now, self.cfg.flow.0, self.cca.cwnd());
        }

        if let Some(r) = rtt_sample {
            self.update_rtt(r);
        }

        // ECE echo (RFC 3168 § 6.1): the receiver saw CE since its last
        // clean ack. Dispatched on every ECE-bearing ack; per-round gating
        // is the controller's job (see `CongestionControl::on_ecn`).
        if seg.ece {
            self.cca.on_ecn(now, self.board.pipe());
        }

        if newly_delivered > 0 {
            // Flight-spanning rate sample (delivery-rate-estimation draft):
            // delivered delta since the newest acked segment was sent, over
            // the elapsed time. Smooth, but blind to short-timescale drain
            // bursts.
            let flight_rate = acked.newest.and_then(|n| {
                if n.retx > 0 {
                    return None;
                }
                let interval = now.saturating_since(n.sent_at);
                if interval < SimDuration::from_millis(1) {
                    return None;
                }
                BitRate::from_delivery(Bytes(self.delivered - n.delivered_at_send), interval)
            });

            // Ack-clock rate sample: bytes delivered over the last few
            // back-to-back acks. When this flow's packets drain the
            // bottleneck consecutively (e.g. in a competitor's pacing
            // gaps), this measures close to the *link* rate — the spiky
            // samples that keep real BBRv1's windowed-max bandwidth filter
            // (and so its 2×BDP in-flight cap) high while competing, the
            // overestimation/standing-queue behaviour measured by Hock et
            // al. Guarded against hole-fill cumacks, whose byte jumps are
            // not wire-rate evidence (Karn's rule again).
            let mss = self.mss();
            let hole_fill = newly_delivered > 2 * mss || acked.newest.is_some_and(|n| n.retx > 0);
            let mut delivery_rate = flight_rate;
            if hole_fill {
                self.burst_anchor = None;
            } else {
                match self.burst_anchor {
                    None => self.burst_anchor = Some((now, self.delivered)),
                    Some((t, d)) => {
                        let dt = now.saturating_since(t);
                        if dt > SimDuration::from_millis(100) {
                            self.burst_anchor = Some((now, self.delivered));
                        } else if self.delivered - d >= 4 * mss
                            && dt >= SimDuration::from_micros(200)
                        {
                            let burst = BitRate::from_delivery(Bytes(self.delivered - d), dt);
                            delivery_rate = match (delivery_rate, burst) {
                                (Some(f), Some(b)) => Some(f.max(b)),
                                (None, b) => b,
                                (f, None) => f,
                            };
                            self.burst_anchor = Some((now, self.delivered));
                        }
                    }
                }
            }
            let info = AckInfo {
                now,
                bytes_acked: newly_delivered,
                rtt: rtt_sample,
                srtt: self.srtt.unwrap_or(INITIAL_RTO),
                min_rtt: self.min_rtt,
                delivered: self.delivered,
                delivery_rate,
                in_flight: self.board.pipe(),
                round_start,
                round: self.round,
                app_limited: false,
            };
            self.cca.on_ack(&info);
            if ctx.telemetry().is_enabled() {
                let flow = self.cfg.flow.0;
                let tel = ctx.telemetry();
                tel.cwnd(now, flow, self.cca.cwnd(), self.cca.ssthresh());
                if let Some(rate) = self.cca.pacing_rate() {
                    tel.pacing(now, flow, rate.as_bps());
                }
            }
        }

        // Refresh the RTO clock from the oldest outstanding transmission.
        self.rearm_rto_from_oldest(ctx);

        self.try_send(ctx);
    }

    fn on_rto_fire(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        if now < self.rto_timer_at {
            // Stale firing: the deadline moved earlier after this timer was
            // set, and a newer, earlier timer is still pending.
            return;
        }
        self.rto_timer_at = SimTime::MAX;
        if self.board.is_empty() || self.rto_deadline == SimTime::MAX {
            return;
        }
        if now < self.rto_deadline {
            // The deadline moved out while the timer was in flight; re-arm.
            self.rto_timer_at = self.rto_deadline;
            ctx.set_timer(self.rto_deadline.saturating_since(now), TOK_RTO);
            return;
        }
        // Genuine timeout: everything outstanding is presumed lost.
        self.rto_fired_at = now;
        self.rto_events += 1;
        self.cca.on_rto(now);
        self.board.mark_all_lost();
        self.dupacks = 0;
        self.recovery_point = self.next_seq;
        self.rto_backoff += 1;
        ctx.telemetry().rto(
            now,
            self.cfg.flow.0,
            self.cur_rto(),
            self.rto_backoff as u64,
        );
        let deadline = now + self.cur_rto();
        self.arm_rto(ctx, deadline);
        self.try_send(ctx);
    }
}

impl Agent for TcpSender {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = self.cfg.start_at.saturating_since(ctx.now());
        ctx.set_timer(delay, TOK_START);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        if let Payload::Tcp(seg) = pkt.payload {
            if seg.len == 0 {
                self.process_ack(seg, ctx.now(), ctx);
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        match token {
            TOK_START => {
                self.running = true;
                self.pace_next = ctx.now();
                self.try_send(ctx);
            }
            TOK_RTO => self.on_rto_fire(ctx),
            TOK_PACE => {
                self.pace_timer_armed = false;
                self.try_send(ctx);
            }
            _ => {}
        }
    }
}

/// TCP receiver agent: acks with timestamp echo and SACK. By default every
/// data segment is acked immediately; [`TcpReceiver::with_delayed_acks`]
/// switches to Linux-style delayed acks (ack every second full segment, or
/// after 40 ms, whichever first — out-of-order data is always acked at
/// once so loss recovery is never delayed).
pub struct TcpReceiver {
    ack_flow: FlowId,
    peer_node: NodeId,
    peer_agent: AgentId,
    rcv_nxt: u64,
    /// Out-of-order ranges, keyed by start, non-overlapping.
    ooo: BTreeMap<u64, u64>,
    bytes_received: u64,
    segments_received: u64,
    delayed_acks: bool,
    /// Segments received since the last ack was sent (delayed-ack mode).
    unacked_segments: u32,
    /// Timestamp to echo when the delayed-ack timer fires.
    pending_ts: Option<SimTime>,
    /// Most recent data seq, for SACK block ordering on a delayed ack.
    pending_recent_seq: u64,
    delack_timer_armed: bool,
    /// A CE-marked data segment arrived since the last ack went out; the
    /// next ack (immediate or delayed) echoes it as ECE (RFC 3168 § 6.1).
    ce_pending: bool,
    /// Total CE-marked data segments seen (diagnostics).
    ce_received: u64,
}

/// Delayed-ack timeout (Linux: ~40 ms).
const DELACK_TIMEOUT: SimDuration = SimDuration::from_millis(40);
const TOK_DELACK: u64 = 10;

impl TcpReceiver {
    /// Acks are sent on `ack_flow` to `(peer_node, peer_agent)`.
    pub fn new(ack_flow: FlowId, peer_node: NodeId, peer_agent: AgentId) -> Self {
        TcpReceiver {
            ack_flow,
            peer_node,
            peer_agent,
            rcv_nxt: 0,
            ooo: BTreeMap::new(),
            bytes_received: 0,
            segments_received: 0,
            delayed_acks: false,
            unacked_segments: 0,
            pending_ts: None,
            pending_recent_seq: 0,
            delack_timer_armed: false,
            ce_pending: false,
            ce_received: 0,
        }
    }

    /// Enable Linux-style delayed acks.
    pub fn with_delayed_acks(mut self) -> Self {
        self.delayed_acks = true;
        self
    }

    /// In-order bytes received so far.
    pub fn bytes_received(&self) -> u64 {
        self.bytes_received
    }

    /// Total data segments received (including out of order).
    pub fn segments_received(&self) -> u64 {
        self.segments_received
    }

    /// Next expected sequence number.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// CE-marked data segments seen so far.
    pub fn ce_received(&self) -> u64 {
        self.ce_received
    }

    fn insert_ooo(&mut self, start: u64, end: u64) {
        // Merge [start, end) into the range set.
        let mut start = start;
        let mut end = end;
        // Merge with a predecessor that overlaps or touches.
        if let Some((&ps, &pe)) = self.ooo.range(..=start).next_back() {
            if pe >= start {
                start = ps;
                end = end.max(pe);
                self.ooo.remove(&ps);
            }
        }
        // Merge with successors that overlap or touch.
        while let Some((&s, &e)) = self.ooo.range(start..).next() {
            if s > end {
                break;
            }
            self.ooo.remove(&s);
            end = end.max(e);
        }
        self.ooo.insert(start, end);
    }

    fn sack_blocks(&self, recent_seq: u64) -> [Option<(u64, u64)>; 3] {
        let mut blocks = [None; 3];
        let mut idx = 0;
        // RFC 2018: the block containing the most recently received segment
        // goes first. Ranges are disjoint, so only the last one starting at
        // or before `recent_seq` can hold it.
        if let Some((&s, &e)) = self.ooo.range(..=recent_seq).next_back() {
            if recent_seq < e {
                blocks[0] = Some((s, e));
                idx = 1;
            }
        }
        for (&s, &e) in &self.ooo {
            if idx >= 3 {
                break;
            }
            if blocks[0] == Some((s, e)) {
                continue;
            }
            blocks[idx] = Some((s, e));
            idx += 1;
        }
        blocks
    }
}

impl Agent for TcpReceiver {
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TOK_DELACK {
            self.delack_timer_armed = false;
            if let Some(ts) = self.pending_ts {
                let seq = self.pending_recent_seq;
                self.send_ack(ctx, Some(ts), seq);
            }
        }
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Payload::Tcp(seg) = pkt.payload else {
            return;
        };
        if seg.len == 0 {
            return;
        }
        self.segments_received += 1;
        // Latch CE before any ack path (including the delayed-ack early
        // return) so no mark is ever lost.
        if pkt.ecn == Ecn::Ce {
            self.ce_pending = true;
            self.ce_received += 1;
        }
        let start = seg.seq;
        let end = seg.seq + seg.len as u64;

        if start <= self.rcv_nxt {
            if end > self.rcv_nxt {
                self.bytes_received += end - self.rcv_nxt;
                self.rcv_nxt = end;
                // Pull any now-contiguous out-of-order data.
                while let Some((&s, &e)) = self.ooo.iter().next() {
                    if s <= self.rcv_nxt {
                        if e > self.rcv_nxt {
                            self.bytes_received += e - self.rcv_nxt;
                            self.rcv_nxt = e;
                        }
                        self.ooo.remove(&s);
                    } else {
                        break;
                    }
                }
            }
            // else: pure duplicate, still ack it.
        } else {
            self.insert_ooo(start, end);
        }

        // Delayed-ack gate: in-order data may wait for a second segment or
        // the 40 ms timer; anything out of order (or filling a hole) must
        // be acked immediately so the sender's loss detection stays sharp.
        self.unacked_segments += 1;
        let in_order_simple = start <= self.rcv_nxt && self.ooo.is_empty();
        if self.delayed_acks && in_order_simple && self.unacked_segments < 2 {
            self.pending_ts = Some(pkt.sent_at);
            self.pending_recent_seq = start;
            if !self.delack_timer_armed {
                self.delack_timer_armed = true;
                ctx.set_timer(DELACK_TIMEOUT, TOK_DELACK);
            }
            return;
        }
        self.send_ack(ctx, Some(pkt.sent_at), start);
    }
}

impl TcpReceiver {
    fn send_ack(&mut self, ctx: &mut Ctx, ts: Option<SimTime>, recent_seq: u64) {
        self.unacked_segments = 0;
        self.pending_ts = None;
        let mut ack = TcpSegment::pure_ack(self.rcv_nxt, u64::MAX / 2, ts);
        ack.sack = self.sack_blocks(recent_seq);
        // Echo-and-clear: the simulator's ack path is lossy too, but the
        // sender reacts at most once per round anyway, so a lost ECE costs
        // one gating window, not correctness.
        ack.ece = self.ce_pending;
        self.ce_pending = false;
        ctx.send(PacketSpec {
            flow: self.ack_flow,
            dst: self.peer_node,
            dst_agent: self.peer_agent,
            size: ACK_SIZE,
            ecn: Ecn::NotEct,
            payload: Payload::Tcp(ack),
        });
    }
}

/// Wire one TCP connection into `b`: a sender on node `from` (made by
/// `sender` from the ready-addressed config — `TcpSender::new` for plain
/// bulk data) and an immediate-ack [`TcpReceiver`] on node `to`. Returns
/// `(sender, receiver)` agent ids.
pub fn connect<S: Agent>(
    b: &mut NetworkBuilder,
    from: NodeId,
    to: NodeId,
    data: FlowId,
    acks: FlowId,
    cca: CcaKind,
    sender: impl FnOnce(TcpSenderConfig) -> S,
) -> (AgentId, AgentId) {
    b.add_pair(from, to, |tx, rx| {
        (
            Box::new(sender(TcpSenderConfig::new(data, to, rx, cca))),
            Box::new(TcpReceiver::new(acks, from, tx)),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use gsrepro_netsim::link::{LinkId, LinkSpec};
    use gsrepro_netsim::net::Sim;
    use gsrepro_netsim::queue::QueueSpec;

    /// Build server --bottleneck--> client with an ack path back.
    /// Returns (sim, data flow, sender agent id).
    fn tcp_sim(
        cca: CcaKind,
        rate_mbps: u64,
        queue_bytes: u64,
        owd_ms: u64,
        seed: u64,
    ) -> (Sim, FlowId, AgentId) {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(rate_mbps),
            Bytes(queue_bytes),
            SimDuration::from_millis(owd_ms),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(seed, down);
        let data = b.flow("tcp-data");
        let acks = b.flow("tcp-ack");
        let (sender, _) = connect(&mut b, server, client, data, acks, cca, TcpSender::new);
        (b.build(), data, sender)
    }

    #[test]
    fn cubic_saturates_the_link() {
        let (mut sim, data, _) = tcp_sim(CcaKind::Cubic, 25, 100_000, 8, 1);
        sim.run_until(SimTime::from_secs(30));
        let gp = sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(30));
        assert!(gp > 23.0, "cubic goodput {gp} must approach 25 Mb/s");
        assert!(gp < 25.5, "goodput {gp} cannot exceed capacity");
    }

    #[test]
    fn reno_saturates_the_link() {
        let (mut sim, data, _) = tcp_sim(CcaKind::Reno, 15, 60_000, 8, 2);
        sim.run_until(SimTime::from_secs(30));
        let gp = sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(30));
        assert!(gp > 13.5, "reno goodput {gp} must approach 15 Mb/s");
    }

    #[test]
    fn bbr_saturates_without_filling_queue() {
        let (mut sim, data, sender) = tcp_sim(CcaKind::Bbr, 25, 400_000, 8, 3);
        sim.run_until(SimTime::from_secs(30));
        let gp = sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(30));
        assert!(gp > 22.0, "bbr goodput {gp} must approach 25 Mb/s");
        // BBR caps in-flight at ~2 BDP, so OWD stays far below the 128 ms
        // this 400 kB queue would add if filled (Cubic fills it).
        let st = sim.net.monitor().stats(data);
        assert!(
            st.owd.mean() < 40.0,
            "BBR should not sustain a full queue; owd = {} ms",
            st.owd.mean()
        );
        let s: &TcpSender = sim.net.agent(sender);
        assert_eq!(s.cca().name(), "bbr");
    }

    #[test]
    fn cubic_fills_large_queue() {
        let (mut sim, data, _) = tcp_sim(CcaKind::Cubic, 25, 400_000, 8, 4);
        sim.run_until(SimTime::from_secs(30));
        let st = sim.net.monitor().stats(data);
        // 400 kB at 25 Mb/s = 128 ms of queueing when full; Cubic rides near
        // full, so mean OWD must be large.
        assert!(
            st.owd.mean() > 60.0,
            "cubic should bloat the queue; owd = {} ms",
            st.owd.mean()
        );
    }

    #[test]
    fn vegas_keeps_queue_nearly_empty() {
        let (mut sim, data, _) = tcp_sim(CcaKind::Vegas, 25, 400_000, 8, 5);
        sim.run_until(SimTime::from_secs(30));
        let st = sim.net.monitor().stats(data);
        assert!(
            st.owd.mean() < 15.0,
            "vegas targets a few queued packets; owd = {} ms",
            st.owd.mean()
        );
        let gp = sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(30));
        assert!(gp > 20.0, "vegas goodput {gp}");
    }

    /// Like [`tcp_sim`] but with a CoDel AQM at the bottleneck. Returns
    /// (sim, data flow, sender agent, receiver agent).
    fn tcp_sim_codel(
        cca: CcaKind,
        rate_mbps: u64,
        queue_bytes: u64,
        owd_ms: u64,
        seed: u64,
    ) -> (Sim, FlowId, AgentId, AgentId) {
        let down = LinkSpec {
            queue: QueueSpec::codel_default(Bytes(queue_bytes)),
            ..LinkSpec::bottleneck(
                BitRate::from_mbps(rate_mbps),
                Bytes(queue_bytes),
                SimDuration::from_millis(owd_ms),
            )
        };
        let (mut b, server, client) = NetworkBuilder::dumbbell(seed, down);
        let data = b.flow("tcp-data");
        let acks = b.flow("tcp-ack");
        let (sender, recv) = connect(&mut b, server, client, data, acks, cca, TcpSender::new);
        (b.build(), data, sender, recv)
    }

    #[test]
    fn bbr2_over_codel_is_marked_not_dropped() {
        // The full ECN loop: bbr2 negotiates ECT, CoDel CE-marks at the
        // control-law cadence instead of dropping, the receiver echoes ECE,
        // and the sender backs off — so the flow sees congestion signals
        // without a single retransmission.
        let (mut sim, data, sender, recv) = tcp_sim_codel(CcaKind::Bbr2, 25, 400_000, 8, 6);
        sim.run_until(SimTime::from_secs(30));
        let st = sim.net.monitor().stats(data);
        assert!(
            st.ce_marked_pkts > 0,
            "CoDel must CE-mark an ECT flow under load"
        );
        assert_eq!(
            st.queue_drop_pkts, 0,
            "ECT traffic must not be AQM-dropped ({} drops)",
            st.queue_drop_pkts
        );
        let s: &TcpSender = sim.net.agent(sender);
        assert_eq!(s.cca().name(), "bbr2");
        assert_eq!(
            s.retransmissions(),
            0,
            "no drops means nothing to retransmit"
        );
        let r: &TcpReceiver = sim.net.agent(recv);
        assert!(r.ce_received() > 0, "marks must reach the receiver");
        assert!(
            r.ce_received() <= st.ce_marked_pkts,
            "receiver saw {} CE, path marked {}",
            r.ce_received(),
            st.ce_marked_pkts
        );
        // CoDel + an inflight-bounded sender keeps standing delay low.
        assert!(
            st.owd.mean() < 30.0,
            "bbr2-over-CoDel owd = {} ms",
            st.owd.mean()
        );
        let gp = sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(30));
        assert!(gp > 20.0, "bbr2 goodput {gp} must stay near 25 Mb/s");
    }

    #[test]
    fn non_ecn_cca_over_codel_sees_drops_not_marks() {
        // Cubic never negotiates ECT, so the same AQM must fall back to
        // dropping: zero CE marks, some queue drops.
        let (mut sim, data, _, recv) = tcp_sim_codel(CcaKind::Cubic, 25, 400_000, 8, 7);
        sim.run_until(SimTime::from_secs(30));
        let st = sim.net.monitor().stats(data);
        assert_eq!(st.ce_marked_pkts, 0, "Not-ECT traffic must never be marked");
        assert!(
            st.queue_drop_pkts > 0,
            "CoDel must drop a Not-ECT cubic flow"
        );
        let r: &TcpReceiver = sim.net.agent(recv);
        assert_eq!(r.ce_received(), 0);
    }

    #[test]
    fn losses_are_recovered_exactly() {
        // Random 1% wire loss: receiver must still see a contiguous stream,
        // i.e. everything the app counts was really delivered in order.
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(50_000),
            SimDuration::from_millis(10),
        )
        .with_loss(0.01);
        let (mut b, server, client) = NetworkBuilder::dumbbell(17, down);
        let data = b.flow("d");
        let acks = b.flow("a");
        let (sender, recv) = connect(
            &mut b,
            server,
            client,
            data,
            acks,
            CcaKind::Cubic,
            TcpSender::new,
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        let s: &TcpSender = sim.net.agent(sender);
        assert!(
            s.retransmissions() > 0,
            "1% loss must cause retransmissions"
        );
        let r: &TcpReceiver = sim.net.agent(recv);
        assert!(r.bytes_received() > 1_000_000);
        // The sender's delivered counter and receiver's in-order byte count
        // agree within one window.
        let gap = s.delivered_bytes() as i64 - r.bytes_received() as i64;
        assert!(
            gap.abs() < 1_000_000,
            "delivered {} vs received {}",
            s.delivered_bytes(),
            r.bytes_received()
        );
    }

    #[test]
    fn two_cubic_flows_share_fairly() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(20),
            Bytes(80_000),
            SimDuration::from_millis(8),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(21, down);
        let mut flows = vec![];
        for i in 0..2 {
            let data = b.flow(format!("d{i}"));
            let acks = b.flow(format!("a{i}"));
            let cca = CcaKind::Cubic;
            connect(&mut b, server, client, data, acks, cca, TcpSender::new);
            flows.push(data);
        }
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(60));
        let g1 = sim.goodput_mbps(flows[0], SimTime::from_secs(20), SimTime::from_secs(60));
        let g2 = sim.goodput_mbps(flows[1], SimTime::from_secs(20), SimTime::from_secs(60));
        let jfi = (g1 + g2).powi(2) / (2.0 * (g1 * g1 + g2 * g2));
        assert!(
            jfi > 0.9,
            "intra-protocol fairness: JFI {jfi} (g1={g1}, g2={g2})"
        );
        assert!(g1 + g2 > 18.0, "link underutilized: {g1}+{g2}");
    }

    #[test]
    fn sender_respects_active_window() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(40_000),
            SimDuration::from_millis(5),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(23, down);
        let data = b.flow("d");
        let acks = b.flow("a");
        connect(&mut b, server, client, data, acks, CcaKind::Cubic, |cfg| {
            TcpSender::new(cfg.active_during(SimTime::from_secs(5), SimTime::from_secs(10)))
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        let st = sim.net.monitor().stats(data);
        assert_eq!(
            st.mean_goodput_mbps(SimTime::ZERO, SimTime::from_secs(5)),
            0.0
        );
        let active = st.mean_goodput_mbps(SimTime::from_secs(6), SimTime::from_secs(10));
        assert!(active > 8.0, "active-phase goodput {active}");
        let after = st.mean_goodput_mbps(SimTime::from_secs(11), SimTime::from_secs(20));
        assert!(after < 0.1, "post-stop goodput {after}");
    }

    #[test]
    fn receiver_reassembles_out_of_order() {
        let mut r = TcpReceiver::new(FlowId(0), NodeId(0), AgentId(0));
        r.insert_ooo(1000, 2000);
        r.insert_ooo(3000, 4000);
        r.insert_ooo(2000, 3000); // bridges the gap
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&1000), Some(&4000));
        // Overlapping insert merges too.
        r.insert_ooo(500, 1500);
        assert_eq!(r.ooo.len(), 1);
        assert_eq!(r.ooo.get(&500), Some(&4000));
        // One insert swallows several successors, stops at the first one
        // it neither overlaps nor touches, and keeps the furthest end.
        r.insert_ooo(5000, 6000);
        r.insert_ooo(7000, 9000);
        r.insert_ooo(9500, 9600);
        r.insert_ooo(4500, 7500);
        assert_eq!(
            r.ooo.iter().map(|(&s, &e)| (s, e)).collect::<Vec<_>>(),
            [(500, 4000), (4500, 9000), (9500, 9600)]
        );
    }

    #[test]
    fn sack_block_ordering_puts_recent_first() {
        let mut r = TcpReceiver::new(FlowId(0), NodeId(0), AgentId(0));
        r.insert_ooo(1000, 2000);
        r.insert_ooo(5000, 6000);
        r.insert_ooo(9000, 10_000);
        let blocks = r.sack_blocks(5500);
        assert_eq!(blocks[0], Some((5000, 6000)));
        assert!(blocks[1].is_some() && blocks[2].is_some());
    }

    #[test]
    fn app_limited_sender_respects_budget() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(50),
            Bytes(200_000),
            SimDuration::from_millis(5),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(41, down);
        let data = b.flow("d");
        let acks = b.flow("a");
        let (sender, _) = connect(&mut b, server, client, data, acks, CcaKind::Cubic, |cfg| {
            let mut sender = TcpSender::new(cfg);
            sender.set_app_limited();
            sender.queue_app_bytes(500_000);
            sender
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(10));
        let s: &TcpSender = sim.net.agent(sender);
        // Exactly the budget is delivered, nothing more.
        assert_eq!(s.delivered_bytes(), 500_000);
        assert_eq!(s.app_budget(), 0);
        let st = sim.net.monitor().stats(data);
        // And the sender went idle long before the end (10 s at 50 Mb/s
        // could carry 60+ MB).
        assert!(st.sent_bytes.as_u64() < 700_000);
    }

    #[test]
    fn rto_rearms_earlier_after_backoff_reset() {
        // Regression: `arm_rto` used to be a pure no-op while a timer was
        // pending. After a long outage escalates the backoff, the pending
        // timer sits minutes out; when the path heals and an ack resets the
        // backoff, the recomputed (much earlier) deadline must get its own
        // timer — otherwise a second loss episode stalls until the stale
        // backed-off timer finally fires.
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(40_000),
            SimDuration::from_millis(5),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(31, down);
        let fwd = LinkId(0); // the dumbbell's down link
        let data = b.flow("d");
        let acks = b.flow("a");
        let (sender, _) = connect(
            &mut b,
            server,
            client,
            data,
            acks,
            CcaKind::Cubic,
            TcpSender::new,
        );
        let mut sim = b.build();
        // Outage #1 (7 s) escalates the backoff: in-outage RTOs fire at
        // ~2.2 through ~6.6 s, leaving a backed-off timer pending at
        // ~10.85 s. When the link heals at 9 s the parked queue delivers,
        // the acks reset the backoff, and the flow resumes — but under the
        // old no-op arm that ~10.85 s timer is still the only one pending.
        // Outage #2 (9.3 → 9.8 s) also nukes the queue, so parked packets
        // cannot carry SACK recovery; only the RTO can restart the flow.
        // The fixed arm keeps a timer tracking the ~200 ms deadline, so
        // RTOs fire on time during the outage and the flow resumes by
        // ~10 s; the stale arm stayed dark until the ~10.85 s firing.
        sim.apply_scenario(
            &gsrepro_netsim::ScenarioSpec::new()
                .outage(SimTime::from_secs(2), SimTime::from_secs(9), fwd)
                .outage(
                    SimTime::from_millis(9_300),
                    SimTime::from_millis(9_800),
                    fwd,
                )
                .queue_limit(SimTime::from_millis(9_350), fwd, Bytes(0))
                .queue_limit(SimTime::from_millis(9_800), fwd, Bytes(40_000)),
        );
        sim.run_until(SimTime::from_secs(12));
        let st = sim.net.monitor().stats(data);
        let resumed =
            st.mean_goodput_mbps(SimTime::from_millis(10_000), SimTime::from_millis(10_800));
        assert!(
            resumed > 2.0,
            "flow must resume within ~2 RTOs of outage #2 ending, got {resumed} Mb/s"
        );
        let s: &TcpSender = sim.net.agent(sender);
        assert!(s.rto_events() >= 2, "rto events {}", s.rto_events());
    }

    #[test]
    fn rto_recovers_from_total_blackout() {
        // A tiny queue and a huge burst of loss: ensure RTO fires and the
        // flow still completes data afterwards.
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(5),
            Bytes(6_000),
            SimDuration::from_millis(20),
        )
        .with_loss(0.08);
        let (mut b, server, client) = NetworkBuilder::dumbbell(29, down);
        let data = b.flow("d");
        let acks = b.flow("a");
        let (sender, _) = connect(
            &mut b,
            server,
            client,
            data,
            acks,
            CcaKind::Reno,
            TcpSender::new,
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(60));
        let s: &TcpSender = sim.net.agent(sender);
        assert!(
            s.delivered_bytes() > 5_000_000,
            "delivered {}",
            s.delivered_bytes()
        );
    }
}
