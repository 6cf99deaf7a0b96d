//! # gsrepro-gamestream
//!
//! Models of commercial cloud game-streaming systems — the *subject* of
//! Xu & Claypool (IMC '22). The real systems (Google Stadia, NVidia GeForce
//! Now, Amazon Luna) are closed, so each is modelled as a UDP video
//! streamer whose congestion response is an archetype drawn from public
//! analyses of what these systems run:
//!
//! * **Stadia** → [`controller::gcc::GccController`]: a WebRTC/Google-
//!   congestion-control-style hybrid — delay-gradient overuse detection
//!   plus loss bounds, with fast multiplicative probing. Stadia is known to
//!   stream over WebRTC (Carrascosa & Bellalta 2022).
//! * **GeForce Now** → [`controller::delay::DelayConservativeController`]:
//!   a cautious delay-threshold controller with strong backoff and a slow
//!   additive ramp, reproducing GeForce's measured "defers to everyone"
//!   behaviour.
//! * **Luna** → [`controller::tfrc::TfrcController`]: equation-based
//!   TCP-friendly rate control (RFC 5348), reproducing Luna's measured
//!   fairness against Cubic and its starvation against BBR (the TCP
//!   throughput equation collapses when a loss-blind competitor keeps the
//!   queue full).
//!
//! The streaming pipeline itself is shared by all three:
//!
//! * [`frame::FrameSource`] — a deterministic 60 f/s encoded-frame
//!   generator with GOP structure (periodic key frames) and seeded size
//!   jitter, standing in for the scripted, repeatable Ys VIII gameplay;
//! * [`server::StreamServer`] — packetizes each frame into ≤1200-byte
//!   chunks, sends them as a per-frame burst (the "large, frequent packet"
//!   pattern measured for these systems), and adapts its encoder bitrate
//!   from client feedback;
//! * [`client::StreamClient`] — reassembles frames, decides which frames
//!   are displayable (complete before a deadline), measures frame rate,
//!   goodput, loss, and one-way-delay trend, and reports feedback every
//!   100 ms.

pub mod client;
pub mod controller;
pub mod frame;
pub mod profile;
pub mod server;

pub use client::StreamClient;
pub use controller::{FeedbackSnapshot, RateController};
pub use frame::FrameSource;
pub use profile::{SystemKind, SystemProfile};
pub use server::StreamServer;

use gsrepro_netsim::net::{AgentId, NetworkBuilder, NodeId};
use gsrepro_netsim::wire::FlowId;

/// Wire one game stream into `b`: a standard [`StreamClient`] on
/// `client_node` reporting on `feedback`, and on `server_node` the server
/// that `server` makes for that client's agent id. Returns
/// `(client, server)` agent ids.
pub fn connect(
    b: &mut NetworkBuilder,
    client_node: NodeId,
    server_node: NodeId,
    feedback: FlowId,
    server: impl FnOnce(AgentId) -> StreamServer,
) -> (AgentId, AgentId) {
    b.add_pair(client_node, server_node, |client, srv| {
        (
            Box::new(StreamClient::new(feedback, server_node, srv)),
            Box::new(server(client)),
        )
    })
}
