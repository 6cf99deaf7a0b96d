//! # gsrepro-tcp
//!
//! TCP endpoints for the simulated testbed, with pluggable congestion
//! control. This is the "iperf + Linux kernel 5.4" half of Xu & Claypool's
//! experiment: a bulk-download TCP flow whose congestion control is either
//! **Cubic** (the Linux default, Ha et al. 2008) or **BBR v1** (Cardwell et
//! al. 2017). **Reno** and **Vegas** are included as baselines — Vegas being
//! the delay-based representative that related work (Turkovic et al. 2019)
//! compares against.
//!
//! The sender ([`TcpSender`]) implements:
//!
//! * byte-sequence bulk transfer with an unlimited application source,
//! * RFC 6298 RTT estimation and retransmission timeout with backoff,
//! * SACK-based loss detection (RFC 2018/6675-style: a segment is lost when
//!   data ≥ 3 segments above it has been SACKed, or on three duplicate
//!   acks), fast retransmit, and NewReno-style recovery episodes,
//! * delivery-rate sampling for rate-based controllers (BBR),
//! * optional pacing driven by the controller's pacing rate.
//!
//! The receiver ([`TcpReceiver`]) acknowledges every segment immediately,
//! echoes the data segment's transmit timestamp (giving the sender exact,
//! Karn-safe RTT samples), and reports up to three SACK blocks.
//!
//! Connection management (SYN/FIN) is intentionally minimal: experiment
//! flows start in slow start with the Linux initial window of 10 segments
//! at a configured time, exactly like starting `iperf` mid-run.

pub mod cca;
pub mod conformance;
pub mod endpoint;
pub mod scoreboard;

pub use cca::{bbr::Bbr, bbr2::Bbr2, cubic::Cubic, reno::Reno, vegas::Vegas};
pub use cca::{AckInfo, CcaKind, CongestionControl};
pub use conformance::{AckRun, AckScript, TracePoint};
pub use endpoint::{connect, TcpReceiver, TcpSender, TcpSenderConfig};
