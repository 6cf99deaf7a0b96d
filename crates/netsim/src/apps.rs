//! Simple built-in agents: traffic sinks and sources, and the testbed's
//! `ping` measurement pair.
//!
//! The paper runs a `ping` from the game client to the game server for the
//! whole 9-minute trace and reports mean RTT with standard deviation
//! (Tables 3 and 4). [`PingAgent`] + [`EchoTo`] reproduce that probe:
//! one 84-byte echo request per second by default, RTT samples recorded at
//! the requester.

use gsrepro_simcore::stats::Samples;
use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

use crate::net::{Agent, AgentId, Ctx, NodeId, PacketSpec};
use crate::wire::{Ecn, FlowId, Packet, Payload, PingEcho};

/// Counts and discards everything it receives. Destination for raw traffic
/// generators.
#[derive(Default)]
pub struct SinkAgent {
    pkts: u64,
}

impl SinkAgent {
    /// New empty sink.
    pub fn new() -> Self {
        Self::default()
    }

    /// Packets received.
    pub fn received_pkts(&self) -> u64 {
        self.pkts
    }
}

impl Agent for SinkAgent {
    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {
        self.pkts += 1;
    }
}

/// Constant-bitrate UDP source: sends fixed-size [`Payload::Raw`] packets at
/// a fixed rate. Used for calibration tests and as background cross-traffic.
pub struct CbrSource {
    flow: FlowId,
    dst: NodeId,
    dst_agent: AgentId,
    rate: BitRate,
    pkt_size: Bytes,
    /// When to stop sending; `SimTime::MAX` = never.
    stop_at: SimTime,
    /// When to start sending.
    start_at: SimTime,
}

impl CbrSource {
    /// A source that runs for the whole simulation.
    pub fn new(
        flow: FlowId,
        dst: NodeId,
        dst_agent: AgentId,
        rate: BitRate,
        pkt_size: Bytes,
    ) -> Self {
        CbrSource {
            flow,
            dst,
            dst_agent,
            rate,
            pkt_size,
            stop_at: SimTime::MAX,
            start_at: SimTime::ZERO,
        }
    }

    /// Restrict sending to `[start, stop)`.
    pub fn active_during(mut self, start: SimTime, stop: SimTime) -> Self {
        self.start_at = start;
        self.stop_at = stop;
        self
    }

    fn interval(&self) -> SimDuration {
        self.rate.tx_time(self.pkt_size)
    }
}

impl Agent for CbrSource {
    fn on_start(&mut self, ctx: &mut Ctx) {
        let delay = self.start_at.saturating_since(ctx.now());
        ctx.set_timer(delay, 0);
    }

    fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        if ctx.now() >= self.stop_at {
            return;
        }
        ctx.send(PacketSpec {
            flow: self.flow,
            dst: self.dst,
            dst_agent: self.dst_agent,
            size: self.pkt_size,
            ecn: Ecn::NotEct,
            payload: Payload::Raw,
        });
        ctx.set_timer(self.interval(), 0);
    }
}

/// Wire size of one ping packet (64-byte ICMP payload + IP header, as the
/// default `ping` sends).
pub const PING_SIZE: Bytes = Bytes(84);

/// Sends periodic echo requests and records RTT samples from the replies.
pub struct PingAgent {
    flow: FlowId,
    dst: NodeId,
    dst_agent: AgentId,
    interval: SimDuration,
    next_seq: u64,
    rtt: Samples,
    /// Reply arrival time (seconds) for each sample in `rtt`, so analysis
    /// can window samples to the paper's measurement intervals.
    rtt_times: Vec<f64>,
    sent: u64,
    received: u64,
}

impl PingAgent {
    /// Ping `dst`/`dst_agent` every `interval` (the testbed used 1 s).
    pub fn new(flow: FlowId, dst: NodeId, dst_agent: AgentId, interval: SimDuration) -> Self {
        PingAgent {
            flow,
            dst,
            dst_agent,
            interval,
            next_seq: 0,
            rtt: Samples::new(),
            rtt_times: Vec::new(),
            sent: 0,
            received: 0,
        }
    }

    /// RTT samples collected so far (milliseconds).
    pub fn rtt_samples(&self) -> &Samples {
        &self.rtt
    }

    /// All RTT samples as (reply time s, RTT ms) pairs.
    pub fn rtt_with_times(&self) -> Vec<(f64, f64)> {
        self.rtt_times
            .iter()
            .zip(self.rtt.values())
            .map(|(&t, &v)| (t, v))
            .collect()
    }

    /// Echo requests sent.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Echo replies received.
    pub fn received(&self) -> u64 {
        self.received
    }
}

impl Agent for PingAgent {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        if let Payload::Ping(echo) = pkt.payload {
            if echo.is_reply {
                self.received += 1;
                let rtt = ctx.now().saturating_since(echo.t_origin);
                self.rtt.add(rtt.as_millis_f64());
                self.rtt_times.push(ctx.now().as_secs_f64());
            }
        }
    }

    fn on_timer(&mut self, _token: u64, ctx: &mut Ctx) {
        self.sent += 1;
        ctx.send(PacketSpec {
            flow: self.flow,
            dst: self.dst,
            dst_agent: self.dst_agent,
            size: PING_SIZE,
            ecn: Ecn::NotEct,
            payload: Payload::Ping(PingEcho {
                seq: self.next_seq,
                is_reply: false,
                t_origin: ctx.now(),
            }),
        });
        self.next_seq += 1;
        ctx.set_timer(self.interval, 0);
    }
}

/// Replies to echo requests (and ignores everything else).
pub struct EchoTo {
    flow: FlowId,
    reply_to: AgentId,
}

impl EchoTo {
    /// Echo replies go to `reply_to` on the packet's source node.
    pub fn new(flow: FlowId, reply_to: AgentId) -> Self {
        EchoTo { flow, reply_to }
    }
}

impl Agent for EchoTo {
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        if let Payload::Ping(echo) = pkt.payload {
            if !echo.is_reply {
                ctx.send(PacketSpec {
                    flow: self.flow,
                    dst: pkt.src,
                    dst_agent: self.reply_to,
                    size: PING_SIZE,
                    ecn: Ecn::NotEct,
                    payload: Payload::Ping(PingEcho {
                        seq: echo.seq,
                        is_reply: true,
                        t_origin: echo.t_origin,
                    }),
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::net::NetworkBuilder;
    use gsrepro_simcore::SimTime;

    #[test]
    fn ping_measures_round_trip() {
        let mut b = NetworkBuilder::new(5);
        let c = b.add_node("client");
        let s = b.add_node("server");
        b.duplex(c, s, LinkSpec::lan(SimDuration::from_micros(8_250)));
        let f = b.flow("ping");
        let (pinger, _) = b.add_pair(c, s, |ping, echo| {
            (
                Box::new(PingAgent::new(f, s, echo, SimDuration::from_secs(1))),
                Box::new(EchoTo::new(f, ping)),
            )
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(30));
        let p: &PingAgent = sim.net.agent(pinger);
        assert!(p.sent() >= 29);
        // RTT = 2 x 8.25 ms = 16.5 ms, the paper's equalized path.
        assert!(
            (p.rtt_samples().mean() - 16.5).abs() < 0.01,
            "rtt {}",
            p.rtt_samples().mean()
        );
        assert!(p.rtt_samples().stddev() < 0.01);
    }

    #[test]
    fn cbr_active_window_is_respected() {
        let mut b = NetworkBuilder::new(6);
        let s = b.add_node("s");
        let c = b.add_node("c");
        b.duplex(s, c, LinkSpec::lan(SimDuration::from_millis(1)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(
                CbrSource::new(f, c, sink, BitRate::from_mbps(1), Bytes(1000))
                    .active_during(SimTime::from_secs(2), SimTime::from_secs(4)),
            ),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(10));
        let st = sim.net.monitor().stats(f);
        // Bins before 2 s and after 4 s must be empty.
        assert_eq!(
            st.mean_goodput_mbps(SimTime::ZERO, SimTime::from_secs(2)),
            0.0
        );
        let active = st.mean_goodput_mbps(SimTime::from_secs(2), SimTime::from_secs(4));
        assert!((active - 1.0).abs() < 0.1, "active goodput {active}");
        let after = st.mean_goodput_mbps(SimTime::from_secs(5), SimTime::from_secs(10));
        assert_eq!(after, 0.0);
    }

    #[test]
    fn sink_counts_bytes() {
        let mut b = NetworkBuilder::new(7);
        let s = b.add_node("s");
        let c = b.add_node("c");
        b.duplex(s, c, LinkSpec::lan(SimDuration::from_millis(1)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_kbps(80),
                Bytes(100),
            )),
        );
        let mut sim = b.build();
        // 80 kb/s with 100-B packets = 100 packets/s.
        sim.run_until(SimTime::from_secs(1));
        let sk: &SinkAgent = sim.net.agent(sink);
        assert!(sk.received_pkts() >= 99 && sk.received_pkts() <= 101);
    }
}
