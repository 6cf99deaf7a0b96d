//! The game-streaming server agent.
//!
//! Every 1/60 s the server takes one encoded frame from its
//! [`FrameSource`], splits it into ≤[`MEDIA_MTU`]-byte chunks, and paces
//! the chunks across ~90% of the frame interval — the WebRTC-style frame
//! pacing all three modelled systems use, which keeps a solo stream from
//! bursting the bottleneck queue. Receiver reports arriving on the
//! feedback path update the profile's [`RateController`], whose output
//! becomes the encoder target for subsequent frames.

use std::collections::VecDeque;

use gsrepro_netsim::net::{Agent, AgentId, Ctx, NodeId, PacketSpec};
use gsrepro_netsim::wire::{Ecn, FlowId, MediaChunk, Packet, Payload, MEDIA_MTU, UDP_HEADER};
use gsrepro_simcore::stats::Samples;
use gsrepro_simcore::{Bytes, SimDuration};

use crate::controller::{ControllerEvent, FeedbackSnapshot, RateController};
use crate::frame::FrameSource;

const TOK_FRAME: u64 = 0;
const TOK_CHUNK: u64 = 1;

/// Pacer rate as a multiple of the encoder target. WebRTC-style senders
/// drain their packet queue at a small multiple of the media rate, so
/// ordinary frames spread across most of a frame interval while oversized
/// key frames smooth across *several* intervals instead of slamming the
/// bottleneck queue with a burst it cannot hold.
const PACER_FACTOR: f64 = 1.15;

/// A frame part-way through the pacer. Its chunks are built one at a time
/// as their slots come up, so the pacer's queue holds one of these per frame
/// rather than a ready-made `PacketSpec` per chunk.
struct PacedFrame {
    /// The next chunk to send.
    next: MediaChunk,
    /// Media bytes not yet packetised.
    remaining: u64,
}

/// The streaming server: frame source + packetizer + rate controller.
pub struct StreamServer {
    flow: FlowId,
    client_node: NodeId,
    client_agent: AgentId,
    source: FrameSource,
    controller: Box<dyn RateController>,
    next_seq: u64,
    frames_sent: u64,
    /// Frames with chunks awaiting their paced transmission slot.
    pending: VecDeque<PacedFrame>,
    /// Gap between paced chunk transmissions for the current frame.
    chunk_spacing: SimDuration,
    /// Whether a TOK_CHUNK timer is outstanding.
    chunk_timer_armed: bool,
    /// (time s, rate Mb/s) at every controller update, for diagnostics.
    rate_trace: Samples,
    last_feedback_seq: Option<u64>,
}

impl StreamServer {
    /// New server streaming to `(client_node, client_agent)` on `flow`.
    pub fn new(
        flow: FlowId,
        client_node: NodeId,
        client_agent: AgentId,
        source: FrameSource,
        controller: Box<dyn RateController>,
    ) -> Self {
        StreamServer {
            flow,
            client_node,
            client_agent,
            source,
            controller,
            next_seq: 0,
            frames_sent: 0,
            pending: VecDeque::new(),
            chunk_spacing: SimDuration::ZERO,
            chunk_timer_armed: false,
            rate_trace: Samples::new(),
            last_feedback_seq: None,
        }
    }

    /// Frames emitted so far.
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Controller rate samples (Mb/s) captured at each feedback.
    pub fn rate_trace(&self) -> &Samples {
        &self.rate_trace
    }

    fn send_frame(&mut self, ctx: &mut Ctx) {
        let target = self.controller.current();
        let frame = self.source.next_frame(target);
        self.frames_sent += 1;

        let mtu = MEDIA_MTU.as_u64();
        let chunk_count = frame.size.as_u64().div_ceil(mtu).max(1) as u16;
        let now = ctx.now();
        ctx.telemetry()
            .frame(now, self.flow.0, frame.size.as_u64(), chunk_count as u64);
        self.pending.push_back(PacedFrame {
            next: MediaChunk {
                seq: self.next_seq,
                frame_id: frame.id,
                chunk_index: 0,
                chunk_count,
                frame_ts: now,
            },
            remaining: frame.size.as_u64(),
        });
        self.next_seq += chunk_count as u64;

        // Continuous pacing at PACER_FACTOR × the current encoder rate:
        // the spacing between chunk transmissions follows the chunk wire
        // size, so the pacer's output rate is independent of frame sizes.
        let pace_rate = target.mul_f64(PACER_FACTOR);
        self.chunk_spacing = pace_rate.tx_time(gsrepro_netsim::wire::MEDIA_MTU + UDP_HEADER);
        if !self.chunk_timer_armed {
            self.send_next_chunk(ctx);
        }
    }

    fn send_next_chunk(&mut self, ctx: &mut Ctx) {
        if let Some(frame) = self.pending.front_mut() {
            let chunk = frame.next;
            let payload = MEDIA_MTU.as_u64().min(frame.remaining);
            frame.remaining -= payload;
            frame.next.seq += 1;
            frame.next.chunk_index += 1;
            if frame.next.chunk_index == chunk.chunk_count {
                self.pending.pop_front();
            }
            ctx.send(PacketSpec {
                flow: self.flow,
                dst: self.client_node,
                dst_agent: self.client_agent,
                size: Bytes(payload) + UDP_HEADER,
                ecn: Ecn::NotEct,
                payload: Payload::Media(chunk),
            });
        }
        if !self.pending.is_empty() && !self.chunk_timer_armed {
            self.chunk_timer_armed = true;
            ctx.set_timer(self.chunk_spacing, TOK_CHUNK);
        }
    }
}

impl Agent for StreamServer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(gsrepro_simcore::SimDuration::ZERO, TOK_FRAME);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        let Payload::Feedback(fb) = pkt.payload else {
            return;
        };
        // Ignore duplicated/reordered reports (cannot happen on the FIFO
        // testbed, but the check documents the assumption).
        if let Some(last) = self.last_feedback_seq {
            if fb.seq <= last {
                return;
            }
        }
        self.last_feedback_seq = Some(fb.seq);

        let snapshot = FeedbackSnapshot {
            recv_rate: fb.recv_rate,
            loss: fb.loss,
            owd: fb.owd,
            owd_min: fb.owd_min,
            trend_ms_per_s: fb.owd_trend_ms_per_s,
            // Return path carries no queueing in this testbed, so RTT is
            // the measured downstream OWD plus the base (min) path delay.
            rtt: fb.owd + fb.owd_min,
        };
        let rate = self.controller.on_feedback(&snapshot, ctx.now());
        self.rate_trace.add(rate.as_mbps());
        let now = ctx.now();
        let flow = self.flow.0;
        ctx.telemetry().encoder_rate(now, flow, rate.as_bps());
        while let Some(ev) = self.controller.poll_event() {
            match ev {
                ControllerEvent::Backoff { reason, rate } => {
                    ctx.telemetry()
                        .ctrl_backoff(now, flow, rate.as_bps(), reason.code());
                }
                ControllerEvent::LossIntervalClose { pkts } => {
                    ctx.telemetry().loss_interval(now, flow, pkts);
                }
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        match token {
            TOK_FRAME => {
                self.send_frame(ctx);
                ctx.set_timer(self.source.interval(), TOK_FRAME);
            }
            TOK_CHUNK => {
                self.chunk_timer_armed = false;
                self.send_next_chunk(ctx);
            }
            _ => {}
        }
    }
}

/// Expected chunk count for a frame of `size` (exposed for tests).
pub fn chunks_for(size: Bytes) -> u16 {
    size.as_u64().div_ceil(MEDIA_MTU.as_u64()).max(1) as u16
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunk_count_rounding() {
        assert_eq!(chunks_for(Bytes(1)), 1);
        assert_eq!(chunks_for(Bytes(1200)), 1);
        assert_eq!(chunks_for(Bytes(1201)), 2);
        assert_eq!(chunks_for(Bytes(60_000)), 50);
        assert_eq!(chunks_for(Bytes(0)), 1);
    }
}
