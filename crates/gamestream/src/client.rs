//! The game-streaming client agent: frame reassembly, QoE measurement, and
//! receiver reports.
//!
//! The client is also the measurement endpoint for two of the paper's QoE
//! indicators: the **displayed frame rate** (PresentMon in the testbed;
//! here, a frame counts as displayed when every chunk arrives within a
//! display deadline of its capture timestamp) and **media loss** (sequence
//! gaps). Every 100 ms it sends a receiver report upstream carrying the
//! observed goodput, loss fraction, one-way delay, base delay, and delay
//! trend — everything the server's rate controller needs.

use std::collections::BTreeMap;

use gsrepro_netsim::net::{Agent, AgentId, Ctx, NodeId, PacketSpec};
use gsrepro_netsim::wire::{Ecn, FlowId, Packet, Payload, StreamFeedback};
use gsrepro_simcore::stats::TimeBinned;
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

const TOK_REPORT: u64 = 0;

/// Wire size of one receiver report.
pub const FEEDBACK_SIZE: Bytes = Bytes(88);

/// Receiver-report cadence (all three systems ≈ 100 ms).
const REPORT_INTERVAL: SimDuration = SimDuration::from_millis(100);
/// A frame missing data this long past its capture time is skipped.
const DISPLAY_DEADLINE: SimDuration = SimDuration::from_millis(250);

struct PartialFrame {
    /// Distinct chunks received.
    received: u16,
    /// Chunks in the frame.
    chunk_count: u16,
    frame_ts: SimTime,
}

/// The streaming client agent.
pub struct StreamClient {
    /// Flow id for the feedback direction.
    feedback_flow: FlowId,
    server_node: NodeId,
    server_agent: AgentId,
    report_seq: u64,

    // Frame assembly. A path delivers a flow in send order and the server
    // sends frames one after another, so a chunk whose `seq` is not above
    // `max_seq_seen` is a duplicate, and a chunk of a frame below
    // `expired_below` arrived after that frame was skipped.
    partial: BTreeMap<u64, PartialFrame>,
    expired_below: u64,
    displayed_frames: u64,
    skipped_frames: u64,
    /// Displayed-frame counts in 1 s bins (the paper's frame-rate metric).
    fps_bins: TimeBinned,

    // Loss tracking via media sequence numbers (FIFO path ⇒ gaps = loss).
    max_seq_seen: Option<u64>,
    window_base_seq: Option<u64>,
    window_received: u64,
    window_bytes: Bytes,

    // Delay tracking.
    owd_min: SimDuration,
    last_owd: SimDuration,
    window_owd: Vec<(f64, f64)>, // (arrival secs, owd ms)
    last_media_ts: Option<SimTime>,

    // Lifetime counters.
    total_packets: u64,
}

impl StreamClient {
    /// New client, reporting on `feedback_flow` to `(server_node,
    /// server_agent)`.
    pub fn new(feedback_flow: FlowId, server_node: NodeId, server_agent: AgentId) -> Self {
        StreamClient {
            feedback_flow,
            server_node,
            server_agent,
            report_seq: 0,
            partial: BTreeMap::new(),
            expired_below: 0,
            displayed_frames: 0,
            skipped_frames: 0,
            fps_bins: TimeBinned::new(SimDuration::from_secs(1)),
            max_seq_seen: None,
            window_base_seq: None,
            window_received: 0,
            window_bytes: Bytes::ZERO,
            owd_min: SimDuration::MAX,
            last_owd: SimDuration::ZERO,
            window_owd: Vec::new(),
            last_media_ts: None,
            total_packets: 0,
        }
    }

    /// Frames displayed (complete within deadline).
    pub fn displayed_frames(&self) -> u64 {
        self.displayed_frames
    }

    /// Frames given up on (incomplete past deadline).
    pub fn skipped_frames(&self) -> u64 {
        self.skipped_frames
    }

    /// Displayed-frame counts per 1 s bin.
    pub fn fps_bins(&self) -> &TimeBinned {
        &self.fps_bins
    }

    /// How long past its capture a frame may complete and still display.
    pub fn display_deadline(&self) -> SimDuration {
        DISPLAY_DEADLINE
    }

    /// Mean displayed frame rate over `[from, to)`.
    pub fn mean_fps(&self, from: SimTime, to: SimTime) -> f64 {
        self.fps_bins.mean_over(from, to, 1.0)
    }

    /// Media packets received.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }

    /// Minimum observed one-way delay.
    pub fn owd_min(&self) -> SimDuration {
        self.owd_min
    }

    fn trend_ms_per_s(&self) -> f64 {
        // Least-squares slope of owd(ms) against arrival time(s).
        let n = self.window_owd.len();
        if n < 4 {
            return 0.0;
        }
        let nf = n as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for &(x, y) in &self.window_owd {
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = nf * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            0.0
        } else {
            (nf * sxy - sx * sy) / denom
        }
    }

    fn expire_stale_frames(&mut self, now: SimTime) {
        // Frames are captured in id order, so the stale ones come first.
        while let Some(oldest) = self.partial.first_entry() {
            if now.saturating_since(oldest.get().frame_ts) <= DISPLAY_DEADLINE {
                break;
            }
            self.expired_below = oldest.key() + 1;
            oldest.remove();
            self.skipped_frames += 1;
        }
    }

    fn send_report(&mut self, ctx: &mut Ctx) {
        let interval = REPORT_INTERVAL.as_secs_f64();
        let recv_rate = BitRate((self.window_bytes.bits() as f64 / interval) as u64);

        let loss = match (self.window_base_seq, self.max_seq_seen) {
            (Some(base), Some(max)) if max >= base => {
                let expected = max - base + 1;
                if expected == 0 {
                    0.0
                } else {
                    (1.0 - self.window_received as f64 / expected as f64).clamp(0.0, 1.0)
                }
            }
            _ => 0.0,
        };

        let fb = StreamFeedback {
            seq: self.report_seq,
            recv_rate,
            loss,
            owd: self.last_owd,
            owd_min: if self.owd_min == SimDuration::MAX {
                SimDuration::ZERO
            } else {
                self.owd_min
            },
            owd_trend_ms_per_s: self.trend_ms_per_s(),
            last_media_ts: self.last_media_ts,
        };
        self.report_seq += 1;
        ctx.send(PacketSpec {
            flow: self.feedback_flow,
            dst: self.server_node,
            dst_agent: self.server_agent,
            size: FEEDBACK_SIZE,
            ecn: Ecn::NotEct,
            payload: Payload::Feedback(fb),
        });

        // Reset the window.
        self.window_bytes = Bytes::ZERO;
        self.window_received = 0;
        self.window_base_seq = self.max_seq_seen.map(|s| s + 1);
        self.window_owd.clear();
    }
}

impl Agent for StreamClient {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(REPORT_INTERVAL, TOK_REPORT);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Payload::Media(chunk) = pkt.payload else {
            return;
        };
        let now = ctx.now();

        self.total_packets += 1;
        self.window_received += 1;
        self.window_bytes += pkt.size;

        // Sequence accounting.
        if self.window_base_seq.is_none() {
            self.window_base_seq = Some(chunk.seq);
        }
        let duplicate = self.max_seq_seen.is_some_and(|m| chunk.seq <= m);
        self.max_seq_seen = Some(self.max_seq_seen.map_or(chunk.seq, |m| m.max(chunk.seq)));

        // Delay accounting.
        let owd = pkt.age(now);
        self.last_owd = owd;
        if owd < self.owd_min {
            self.owd_min = owd;
        }
        self.window_owd
            .push((now.as_secs_f64(), owd.as_millis_f64()));
        self.last_media_ts = Some(pkt.sent_at);

        // Frame assembly: decide as soon as every chunk is in.
        if duplicate || chunk.frame_id < self.expired_below {
            return;
        }
        let frame = self
            .partial
            .entry(chunk.frame_id)
            .or_insert_with(|| PartialFrame {
                received: 0,
                chunk_count: chunk.chunk_count,
                frame_ts: chunk.frame_ts,
            });
        frame.received += 1;
        if frame.received == frame.chunk_count {
            let on_time = now.saturating_since(frame.frame_ts) <= DISPLAY_DEADLINE;
            self.partial.remove(&chunk.frame_id);
            if on_time {
                self.displayed_frames += 1;
                self.fps_bins.add(now, 1.0);
            } else {
                self.skipped_frames += 1;
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token == TOK_REPORT {
            self.expire_stale_frames(ctx.now());
            self.send_report(ctx);
            ctx.set_timer(REPORT_INTERVAL, TOK_REPORT);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn client() -> StreamClient {
        StreamClient::new(FlowId(1), NodeId(0), AgentId(0))
    }

    #[test]
    fn trend_detects_growing_queue() {
        let mut c = client();
        for i in 0..20 {
            // OWD rising 2 ms per 10 ms of time = 200 ms/s slope.
            c.window_owd.push((i as f64 * 0.01, 8.0 + i as f64 * 2.0));
        }
        let t = c.trend_ms_per_s();
        assert!((t - 200.0).abs() < 1.0, "trend {t}");
    }

    #[test]
    fn trend_flat_when_constant() {
        let mut c = client();
        for i in 0..20 {
            c.window_owd.push((i as f64 * 0.01, 8.0));
        }
        assert_eq!(c.trend_ms_per_s(), 0.0);
    }

    #[test]
    fn trend_needs_samples() {
        let mut c = client();
        c.window_owd.push((0.0, 8.0));
        assert_eq!(c.trend_ms_per_s(), 0.0);
    }
}
