//! Packet and payload definitions ("wire formats").
//!
//! Following the smoltcp convention, wire *formats* live in the network
//! crate while protocol *behaviour* lives in the protocol crates. A
//! [`Packet`] carries one [`Payload`] variant; the enum covers every
//! protocol in the reproduced testbed:
//!
//! * [`TcpSegment`] — the iperf competitor's data/ack segments,
//! * [`MediaChunk`] — one MTU-sized slice of a streamed video frame,
//! * [`StreamFeedback`] — the game client's RTCP-like receiver report,
//! * [`PingEcho`] — the testbed's `ping` RTT probe.
//!
//! Sizes are *wire* sizes: payload plus header overhead, so queue occupancy
//! and link utilization match what `tc tbf` would see.

use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};

use crate::net::{AgentId, NodeId};

/// Identifies one end-to-end flow for accounting (a "5-tuple").
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct FlowId(pub u32);

/// IPv4 + UDP header overhead in bytes (20 + 8).
pub const UDP_HEADER: Bytes = Bytes(28);
/// IPv4 + TCP header overhead in bytes (20 + 20, no options).
pub const TCP_HEADER: Bytes = Bytes(40);
/// Conservative media payload per packet (WebRTC-style ~1200 B to dodge
/// fragmentation, as Stadia/GeForce/Luna all do).
pub const MEDIA_MTU: Bytes = Bytes(1200);
/// Standard Ethernet-derived TCP maximum segment size.
pub const TCP_MSS: Bytes = Bytes(1448);

/// ECN codepoint carried in the (simulated) IP header (RFC 3168 § 5).
///
/// The two ECT codepoints are collapsed into one: the nonce variant is
/// historical and nothing in the testbed distinguishes them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Ecn {
    /// Not ECN-capable transport: AQMs drop this packet under congestion.
    #[default]
    NotEct = 0,
    /// ECN-capable transport: AQMs mark instead of dropping.
    Ect = 1,
    /// Congestion experienced: an AQM marked this packet in transit.
    Ce = 2,
}

/// A simulated packet.
#[derive(Clone, Debug)]
pub struct Packet {
    /// Globally unique packet id (assigned by the network on send).
    pub id: u64,
    /// The flow this packet belongs to, for monitoring.
    pub flow: FlowId,
    /// Originating node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Agent at the destination that should receive the packet.
    pub dst_agent: AgentId,
    /// Total wire size (payload + headers).
    pub size: Bytes,
    /// Time the sending agent handed the packet to the network.
    pub sent_at: SimTime,
    /// ECN codepoint. Senders set [`Ecn::Ect`] on ECN-capable flows; an
    /// AQM rewrites it to [`Ecn::Ce`] in place of a drop.
    pub ecn: Ecn,
    /// Protocol content.
    pub payload: Payload,
}

/// A handle to a packet parked in a [`PacketPool`].
///
/// Packets are ~150 bytes (the payload union dominates); moving them
/// through every queue, link, and scheduler hop would memcpy that full
/// width per hop. Instead the pool owns the storage and the hot path moves
/// 4-byte refs plus the few header fields queues actually inspect (see
/// [`crate::queue::QueuedPkt`]). A ref is live from [`PacketPool::insert`]
/// until [`PacketPool::take`]; the network takes a packet out exactly once
/// — at final delivery or at the drop-accounting site.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct PktRef(pub u32);

/// Slab of in-flight packets; see [`PktRef`].
#[derive(Default)]
pub struct PacketPool {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Park a packet, returning its handle. Slots are recycled, so a
    /// steady-state simulation stops allocating once the pool covers the
    /// peak number of packets simultaneously in flight.
    pub fn insert(&mut self, pkt: Packet) -> PktRef {
        match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(pkt);
                PktRef(slot)
            }
            None => {
                let slot = self.slots.len() as u32;
                self.slots.push(Some(pkt));
                PktRef(slot)
            }
        }
    }

    /// Borrow a parked packet.
    ///
    /// # Panics
    /// Panics if `r` was already taken — a use-after-free of the slot.
    pub fn get(&self, r: PktRef) -> &Packet {
        self.slots[r.0 as usize].as_ref().expect("stale PktRef")
    }

    /// Mutably borrow a parked packet (the CE-marking site rewrites the
    /// ECN codepoint of a packet still in flight).
    ///
    /// # Panics
    /// Panics if `r` was already taken.
    pub fn get_mut(&mut self, r: PktRef) -> &mut Packet {
        self.slots[r.0 as usize].as_mut().expect("stale PktRef")
    }

    /// Remove a packet, freeing its slot. Each ref must be taken exactly
    /// once.
    ///
    /// # Panics
    /// Panics if `r` was already taken.
    pub fn take(&mut self, r: PktRef) -> Packet {
        let pkt = self.slots[r.0 as usize].take().expect("stale PktRef");
        self.free.push(r.0);
        pkt
    }

    /// Duplicate a parked packet into a fresh slot (netem-style
    /// duplication is the one place the simulator truly copies a packet).
    pub fn clone_of(&mut self, r: PktRef) -> PktRef {
        let copy = self.get(r).clone();
        self.insert(copy)
    }

    /// Number of packets currently parked.
    pub fn len(&self) -> usize {
        self.slots.len() - self.free.len()
    }

    /// True when no packets are in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Protocol content of a packet.
#[derive(Clone, Debug)]
pub enum Payload {
    /// A TCP segment (data, pure ack, or both).
    Tcp(TcpSegment),
    /// A slice of a streamed video frame.
    Media(MediaChunk),
    /// Receiver report from game client to game server.
    Feedback(StreamFeedback),
    /// ICMP-echo-like RTT probe.
    Ping(PingEcho),
    /// Opaque filler (cross traffic, tests).
    Raw,
}

/// A TCP segment. Sequence numbers count bytes, 64-bit so wraparound never
/// complicates the simulation (a real implementation would wrap mod 2^32).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TcpSegment {
    /// First payload byte carried by this segment.
    pub seq: u64,
    /// Number of payload bytes carried (0 for a pure ack).
    pub len: u32,
    /// Cumulative acknowledgment: next byte expected by the sender of this
    /// segment.
    pub ack: u64,
    /// Receiver advertised window in bytes.
    pub wnd: u64,
    /// Set on SYN segments (connection setup is modelled minimally).
    pub syn: bool,
    /// Set on FIN segments.
    pub fin: bool,
    /// ECN congestion-experienced echo (reserved for AQM extensions).
    pub ece: bool,
    /// Timestamp echo: the `sent_at` of the segment being acknowledged,
    /// used for RTT sampling without retransmission ambiguity (the
    /// simulator stamps each transmission, so Karn's rule is implicit).
    pub ts_echo: Option<SimTime>,
    /// Up to three SACK blocks `(start, end)` describing out-of-order data
    /// held by the receiver, most recent first (RFC 2018 allows 3 blocks
    /// alongside timestamps).
    pub sack: [Option<(u64, u64)>; 3],
}

impl TcpSegment {
    /// A pure cumulative acknowledgment with no SACK information.
    pub fn pure_ack(ack: u64, wnd: u64, ts_echo: Option<SimTime>) -> Self {
        TcpSegment {
            seq: 0,
            len: 0,
            ack,
            wnd,
            syn: false,
            fin: false,
            ece: false,
            ts_echo,
            sack: [None; 3],
        }
    }

    /// A data segment carrying `[seq, seq+len)`.
    pub fn data(seq: u64, len: u32) -> Self {
        TcpSegment {
            seq,
            len,
            ack: 0,
            wnd: 0,
            syn: false,
            fin: false,
            ece: false,
            ts_echo: None,
            sack: [None; 3],
        }
    }
}

/// One MTU-sized chunk of an encoded video frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MediaChunk {
    /// Monotonic per-flow media sequence number (for loss detection).
    pub seq: u64,
    /// Frame this chunk belongs to.
    pub frame_id: u64,
    /// Chunk index within the frame, `0..chunk_count`.
    pub chunk_index: u16,
    /// Number of chunks in the frame.
    pub chunk_count: u16,
    /// Capture timestamp of the frame at the server.
    pub frame_ts: SimTime,
}

/// The game client's periodic receiver report (RTCP-RR-like, 100 ms cadence
/// in all three modelled systems).
#[derive(Clone, Copy, Debug)]
pub struct StreamFeedback {
    /// Report sequence number.
    pub seq: u64,
    /// Goodput observed by the receiver over the report window.
    pub recv_rate: BitRate,
    /// Fraction of media packets lost in the report window (0..=1).
    pub loss: f64,
    /// Most recent one-way delay estimate (clock-synchronized simulation,
    /// so exact).
    pub owd: SimDuration,
    /// Minimum one-way delay seen since stream start (base delay).
    pub owd_min: SimDuration,
    /// Slope of one-way delay over the report window, in ms per second —
    /// the delay-gradient signal Google congestion control uses.
    pub owd_trend_ms_per_s: f64,
    /// Timestamp echo for server-side RTT estimation.
    pub last_media_ts: Option<SimTime>,
}

/// Ping request/response.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PingEcho {
    /// Probe sequence number.
    pub seq: u64,
    /// False for the request, true for the reply.
    pub is_reply: bool,
    /// Origin timestamp carried end-to-end so the requester can compute RTT.
    pub t_origin: SimTime,
}

impl Packet {
    /// One-way network delay this packet experienced so far (now − sent).
    pub fn age(&self, now: SimTime) -> SimDuration {
        now.saturating_since(self.sent_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_constants_are_standard() {
        assert_eq!(UDP_HEADER.as_u64(), 28);
        assert_eq!(TCP_HEADER.as_u64(), 40);
        // MSS + TCP/IP headers < Ethernet MTU.
        assert!(TCP_MSS.as_u64() + TCP_HEADER.as_u64() <= 1500);
        assert!(MEDIA_MTU.as_u64() + UDP_HEADER.as_u64() <= 1500);
    }

    #[test]
    fn packet_age() {
        let p = Packet {
            id: 0,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            dst_agent: AgentId(0),
            size: Bytes(100),
            sent_at: SimTime::from_millis(10),
            ecn: Ecn::NotEct,
            payload: Payload::Raw,
        };
        assert_eq!(
            p.age(SimTime::from_millis(25)),
            SimDuration::from_millis(15)
        );
        // Age saturates instead of underflowing.
        assert_eq!(p.age(SimTime::ZERO), SimDuration::ZERO);
    }

    fn raw_pkt(id: u64) -> Packet {
        Packet {
            id,
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            dst_agent: AgentId(0),
            size: Bytes(100),
            sent_at: SimTime::ZERO,
            ecn: Ecn::NotEct,
            payload: Payload::Raw,
        }
    }

    #[test]
    fn pool_recycles_slots() {
        let mut pool = PacketPool::new();
        let a = pool.insert(raw_pkt(1));
        let b = pool.insert(raw_pkt(2));
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.get(a).id, 1);
        assert_eq!(pool.take(a).id, 1);
        // The freed slot is reused before the pool grows.
        let c = pool.insert(raw_pkt(3));
        assert_eq!(c.0, a.0);
        assert_eq!(pool.get(b).id, 2);
        assert_eq!(pool.get(c).id, 3);
        pool.take(b);
        pool.take(c);
        assert!(pool.is_empty());
    }

    #[test]
    #[should_panic(expected = "stale PktRef")]
    fn pool_take_twice_panics() {
        let mut pool = PacketPool::new();
        let r = pool.insert(raw_pkt(1));
        pool.take(r);
        pool.take(r);
    }

    #[test]
    fn pool_clone_of_copies_content() {
        let mut pool = PacketPool::new();
        let r = pool.insert(raw_pkt(9));
        let c = pool.clone_of(r);
        assert_ne!(r, c);
        assert_eq!(pool.get(c).id, 9);
        assert_eq!(pool.len(), 2);
    }
}
