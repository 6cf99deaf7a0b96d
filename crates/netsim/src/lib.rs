//! # gsrepro-netsim
//!
//! A packet-level, discrete-event network simulator — the software
//! replacement for the physical testbed of Xu & Claypool (IMC '22): a
//! Raspberry Pi router running `tc netem` (added delay) and `tbf`
//! (token-bucket rate limit with a byte-limited drop-tail queue), Ethernet
//! links, and Wireshark/ping measurement points.
//!
//! The crate provides:
//!
//! * [`wire`] — packet and payload definitions (TCP segments, media chunks,
//!   stream feedback, ping echoes),
//! * [`queue`] — buffering/drop policies: byte-limited drop-tail
//!   (what the paper's router ran), plus CoDel and FQ-CoDel for the paper's
//!   future-work AQM question,
//! * [`link`] — unidirectional links with exact integer token-bucket
//!   shaping, propagation delay, optional random loss and jitter (fault
//!   injection),
//! * [`net`] — the [`Network`] world: nodes, static shortest-path routing,
//!   [`Agent`]s (protocol endpoints) and the event loop glue,
//! * [`monitor`] — per-flow delivered/dropped/sent accounting with the
//!   paper's 0.5 s bitrate bins,
//! * [`apps`] — simple agents: ping (RTT probe), echo responder, and a
//!   constant-bitrate UDP source for tests and calibration,
//! * [`checks`] — runtime invariant oracles (packet conservation, queue
//!   bounds, token conservation, telemetry cross-checks); zero cost when
//!   disabled, structured panic on the first violation when enabled via
//!   [`net::NetworkBuilder::checks`].
//!
//! Protocol behaviour (TCP congestion control, game-stream rate adaptation)
//! lives in the `gsrepro-tcp` and `gsrepro-gamestream` crates, which
//! implement [`Agent`].

pub mod apps;
pub mod checks;
pub mod link;
pub mod monitor;
pub mod net;
pub mod queue;
pub mod scenario;
pub mod wire;

pub use link::{LinkId, LinkSpec, Shaper};
pub use monitor::{FlowStats, Monitor};
pub use net::{Agent, AgentId, Ctx, Network, NetworkBuilder, NodeId, PacketSpec, Sim};
pub use queue::{CoDelQueue, Discipline, DropTailQueue, FqCoDelQueue, QueueSpec};
pub use scenario::{LinkProfile, ScenarioAction, ScenarioGen, ScenarioSpec, ScenarioStep};
pub use wire::{FlowId, MediaChunk, Packet, Payload, PingEcho, StreamFeedback, TcpSegment};
