//! DASH-like adaptive video over TCP — the paper's "HTTP-based streaming
//! (e.g., Netflix)" future-work competitor.
//!
//! A [`DashServer`] wraps a [`TcpSender`] in application-limited mode and
//! drives it with the classic segment-fetch pattern: the (modelled) client
//! keeps a playout buffer of a few segments; whenever the buffer has room,
//! the next `segment_duration` of video is fetched at the bitrate ladder
//! rung chosen from a throughput estimate; when the buffer is full the
//! connection goes idle — producing DASH's characteristic ON/OFF traffic
//! instead of iperf's relentless bulk download.
//!
//! The client's buffer state is modelled inside the server agent (the
//! receiver side is a standard [`crate::TcpReceiver`]); this keeps the
//! request logic in one place and is equivalent for the traffic pattern,
//! which is all the testbed observes.

use gsrepro_netsim::net::{Agent, Ctx};
use gsrepro_netsim::wire::Packet;
use gsrepro_simcore::{BitRate, SimDuration, SimTime};

use crate::endpoint::{TcpSender, TcpSenderConfig};

/// Timer token namespace for the wrapper (the inner sender uses 0..=2).
const TOK_TICK: u64 = 100;

/// Configuration of the DASH session.
#[derive(Clone, Debug)]
pub struct DashConfig {
    /// Bitrate ladder, ascending (e.g. 1.5 / 3 / 6 / 12 Mb/s as a typical
    /// HD ladder).
    pub ladder: Vec<BitRate>,
    /// Content seconds per segment (DASH commonly 2-6 s).
    pub segment_duration: SimDuration,
    /// Playout buffer target; fetching pauses above this.
    pub buffer_target: SimDuration,
    /// EWMA weight for the throughput estimate (0..1, applied per fetch).
    pub ewma: f64,
    /// Safety factor: pick the highest rung below `safety × estimate`.
    pub safety: f64,
}

impl Default for DashConfig {
    fn default() -> Self {
        DashConfig {
            ladder: vec![
                BitRate::from_mbps_f64(1.5),
                BitRate::from_mbps(3),
                BitRate::from_mbps(6),
                BitRate::from_mbps(12),
            ],
            segment_duration: SimDuration::from_secs(4),
            buffer_target: SimDuration::from_secs(12),
            ewma: 0.3,
            safety: 0.8,
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum FetchState {
    /// Waiting for buffer room.
    Idle,
    /// A segment fetch is outstanding.
    Fetching,
}

/// A DASH video session (sender side), wrapping an app-limited TCP sender.
pub struct DashServer {
    sender: TcpSender,
    cfg: DashConfig,
    state: FetchState,
    level: usize,
    /// Delivered-bytes mark at which the current fetch completes.
    fetch_target: u64,
    fetch_started: SimTime,
    /// Modelled client playout buffer (content seconds).
    buffer: SimDuration,
    last_tick: SimTime,
    throughput_est_mbps: f64,
    segments_fetched: u64,
    level_history: Vec<usize>,
    stall_time: SimDuration,
}

impl DashServer {
    /// Wrap `sender_cfg` into a DASH session. The inner sender is switched
    /// to app-limited mode automatically.
    pub fn new(sender_cfg: TcpSenderConfig, cfg: DashConfig) -> Self {
        assert!(!cfg.ladder.is_empty(), "bitrate ladder cannot be empty");
        let mut sender = TcpSender::new(sender_cfg);
        sender.set_app_limited();
        DashServer {
            sender,
            cfg,
            state: FetchState::Idle,
            level: 0,
            fetch_target: 0,
            fetch_started: SimTime::ZERO,
            buffer: SimDuration::ZERO,
            last_tick: SimTime::ZERO,
            throughput_est_mbps: 0.0,
            segments_fetched: 0,
            level_history: Vec::new(),
            stall_time: SimDuration::ZERO,
        }
    }

    /// Segments fetched so far.
    pub fn segments_fetched(&self) -> u64 {
        self.segments_fetched
    }

    /// Ladder index chosen for each fetched segment.
    pub fn level_history(&self) -> &[usize] {
        &self.level_history
    }

    /// Total time the modelled player spent stalled (buffer empty while
    /// not fetching fast enough).
    pub fn stall_time(&self) -> SimDuration {
        self.stall_time
    }

    /// Access the inner TCP sender (e.g. for retransmission counters).
    pub fn sender(&self) -> &TcpSender {
        &self.sender
    }

    fn segment_bytes(&self, level: usize) -> u64 {
        (self.cfg.ladder[level].as_bps() as f64 / 8.0 * self.cfg.segment_duration.as_secs_f64())
            as u64
    }

    fn pick_level(&self) -> usize {
        let budget = self.throughput_est_mbps * self.cfg.safety;
        let mut pick = 0;
        for (i, r) in self.cfg.ladder.iter().enumerate() {
            if r.as_mbps() <= budget {
                pick = i;
            }
        }
        pick
    }

    fn start_fetch(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        self.level = self.pick_level();
        let bytes = self.segment_bytes(self.level);
        self.fetch_target = self.sender.delivered_bytes() + bytes;
        self.fetch_started = now;
        self.sender.queue_app_bytes(bytes);
        self.sender.poke(ctx);
        self.state = FetchState::Fetching;
    }

    fn tick(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        // The session is inert before the configured start (a viewer who
        // has not pressed play buffers nothing and stalls nothing).
        if now < self.sender.config().start_at {
            self.last_tick = now;
            return;
        }
        let wall = now.saturating_since(self.last_tick);
        self.last_tick = now;

        // Drain the playout buffer in real time; count stalls.
        if self.segments_fetched > 0 || self.state == FetchState::Fetching {
            if self.buffer >= wall {
                self.buffer -= wall;
            } else {
                self.stall_time += wall - self.buffer;
                self.buffer = SimDuration::ZERO;
            }
        }

        match self.state {
            FetchState::Fetching => {
                if self.sender.delivered_bytes() >= self.fetch_target {
                    // Fetch complete: update the throughput estimate.
                    let dur = now.saturating_since(self.fetch_started).as_secs_f64();
                    if dur > 0.0 {
                        let mbps = self.segment_bytes(self.level) as f64 * 8.0 / dur / 1e6;
                        self.throughput_est_mbps = if self.segments_fetched == 0 {
                            mbps
                        } else {
                            self.cfg.ewma * mbps + (1.0 - self.cfg.ewma) * self.throughput_est_mbps
                        };
                    }
                    self.segments_fetched += 1;
                    self.level_history.push(self.level);
                    self.buffer += self.cfg.segment_duration;
                    self.state = FetchState::Idle;
                }
            }
            FetchState::Idle => {
                if self.buffer < self.cfg.buffer_target {
                    self.start_fetch(ctx);
                }
            }
        }
    }
}

impl Agent for DashServer {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.sender.on_start(ctx);
        self.last_tick = ctx.now();
        ctx.set_timer(SimDuration::from_millis(100), TOK_TICK);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx) {
        self.sender.on_packet(pkt, ctx);
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx) {
        if token >= TOK_TICK {
            self.tick(ctx);
            ctx.set_timer(SimDuration::from_millis(100), TOK_TICK);
        } else {
            self.sender.on_timer(token, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{connect, CcaKind};
    use gsrepro_netsim::link::LinkSpec;
    use gsrepro_netsim::net::{AgentId, NetworkBuilder};
    use gsrepro_simcore::Bytes;

    fn run_dash(rate_mbps: u64, secs: u64) -> (u64, Vec<usize>, f64, SimDuration) {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(rate_mbps),
            Bytes(80_000),
            SimDuration::from_millis(10),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(3, down);
        let data = b.flow("dash");
        let acks = b.flow("dash-ack");
        let (dash, _) = connect(&mut b, s, c, data, acks, CcaKind::Cubic, |cfg| {
            DashServer::new(cfg, DashConfig::default())
        });
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(secs));
        let d: &DashServer = sim.net.agent(dash);
        (
            d.segments_fetched(),
            d.level_history().to_vec(),
            sim.goodput_mbps(data, SimTime::from_secs(5), SimTime::from_secs(secs)),
            d.stall_time(),
        )
    }

    #[test]
    fn fast_link_climbs_the_ladder_and_goes_on_off() {
        let (segments, levels, goodput, stalls) = run_dash(50, 120);
        assert!(segments >= 25, "segments {segments}");
        // Reaches the top rung (12 Mb/s) on a 50 Mb/s link.
        assert_eq!(*levels.last().expect("fetched at least one"), 3);
        // ON/OFF: long-run average ≈ top rung, far below link rate.
        assert!(goodput < 16.0, "dash must not behave like bulk: {goodput}");
        assert!(goodput > 6.0, "dash should sustain the top rung: {goodput}");
        assert!(stalls < SimDuration::from_secs(5), "stalls {stalls}");
    }

    #[test]
    fn slow_link_stays_low_on_the_ladder() {
        let (segments, levels, _goodput, _) = run_dash(2, 120);
        assert!(segments >= 10, "segments {segments}");
        let top_picks = levels.iter().filter(|&&l| l >= 2).count();
        assert!(
            top_picks <= 2,
            "a 2 Mb/s link cannot sustain ≥6 Mb/s rungs (picked {top_picks}x)"
        );
    }

    #[test]
    fn ladder_choice_respects_safety_factor() {
        let cfg = TcpSenderConfig::new(
            gsrepro_netsim::wire::FlowId(0),
            gsrepro_netsim::NodeId(0),
            AgentId(0),
            CcaKind::Cubic,
        );
        let mut d = DashServer::new(cfg, DashConfig::default());
        d.throughput_est_mbps = 8.0; // 0.8 × 8 = 6.4 → the 6 Mb/s rung
        assert_eq!(d.pick_level(), 2);
        d.throughput_est_mbps = 100.0;
        assert_eq!(d.pick_level(), 3);
        d.throughput_est_mbps = 0.1;
        assert_eq!(d.pick_level(), 0);
    }
}
