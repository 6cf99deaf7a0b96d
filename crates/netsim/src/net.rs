//! The network world: nodes, routing, agents, and the event-loop glue.
//!
//! A [`Network`] is a set of nodes joined by unidirectional [`Link`]s, with
//! static shortest-path routes computed at build time (the testbed topology
//! is tiny and fixed for a whole run, exactly like the paper's). Protocol
//! endpoints are [`Agent`]s bound to nodes; they receive packets and timer
//! callbacks through a [`Ctx`] that queues outgoing actions, keeping the
//! borrow graph simple and the event order deterministic.
//!
//! [`Sim`] couples a [`Network`] with a [`gsrepro_simcore::Engine`] and is
//! the type most users interact with:
//!
//! ```
//! use gsrepro_netsim::{NetworkBuilder, LinkSpec, apps};
//! use gsrepro_simcore::{BitRate, Bytes, SimDuration, SimTime};
//!
//! let (mut b, server, client) = NetworkBuilder::dumbbell(42, LinkSpec::bottleneck(
//!     BitRate::from_mbps(25), Bytes(100_000), SimDuration::from_millis(8)));
//! let flow = b.flow("cbr");
//! let sink = b.add_agent(client, Box::new(apps::SinkAgent::new()));
//! b.add_agent(server, Box::new(apps::CbrSource::new(
//!     flow, client, sink, BitRate::from_mbps(5), Bytes(1200))));
//! let mut sim = b.build();
//! sim.run_until(SimTime::from_secs(10));
//! let delivered = sim.net.monitor().stats(flow).delivered_bytes;
//! assert!(delivered.as_u64() > 0);
//! ```

use std::any::Any;

use gsrepro_simcore::checks::Checks;
use gsrepro_simcore::rng::rng_for;
use gsrepro_simcore::telemetry::{Recorder, TelemetryConfig};
use gsrepro_simcore::Bytes;
use gsrepro_simcore::{Engine, Scheduler, SimDuration, SimError, SimRng, SimTime, Watchdog, World};
use rand::Rng;

use crate::checks::{self, LinkAudit, NetTotals};
use crate::link::{Link, LinkId, LinkSpec};
use crate::monitor::{DropKind, Monitor};
use crate::queue::QueuedPkt;
use crate::scenario::{ScenarioAction, ScenarioSpec};
use crate::wire::{Ecn, FlowId, Packet, PacketPool, Payload, PktRef};

/// Identifies a node (host or router).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub u32);

/// Identifies an agent (protocol endpoint) within the network.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct AgentId(pub u32);

/// A protocol endpoint. Implemented by TCP endpoints, game-stream
/// servers/clients, ping apps, and traffic generators.
///
/// Agents are `Any` so results can be read back after a run via
/// [`Network::agent`] / [`Network::agent_mut`].
pub trait Agent: Any {
    /// Called once at t = 0 (or at agent insertion time if added late).
    fn on_start(&mut self, _ctx: &mut Ctx) {}

    /// A packet addressed to this agent arrived at its node.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx);

    /// A timer set via [`Ctx::set_timer`] fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Ctx) {}
}

/// What a sending agent must specify; the network stamps the rest
/// (packet id, source node, send time).
#[derive(Clone, Debug)]
pub struct PacketSpec {
    /// Flow for accounting.
    pub flow: FlowId,
    /// Destination node.
    pub dst: NodeId,
    /// Agent at the destination to deliver to.
    pub dst_agent: AgentId,
    /// Total wire size.
    pub size: Bytes,
    /// ECN codepoint the sender stamps on the wire (RFC 3168). ECT packets
    /// are CE-markable by AQMs instead of being dropped.
    pub ecn: Ecn,
    /// Protocol content.
    pub payload: Payload,
}

enum Command {
    /// The packet is already in the pool; only its handle waits here.
    Send(PktRef),
    Timer {
        agent: AgentId,
        delay: SimDuration,
        token: u64,
    },
}

/// Handed to agents during callbacks; collects outgoing actions.
pub struct Ctx<'a> {
    now: SimTime,
    agent: AgentId,
    node: NodeId,
    cmds: &'a mut Vec<Command>,
    telemetry: &'a mut Recorder,
    pool: &'a mut PacketPool,
    next_pkt_id: &'a mut u64,
}

impl Ctx<'_> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node this agent lives on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Send a packet. It is stamped and written into the network's packet
    /// pool here — its one write — and routed after the callback returns.
    #[inline]
    pub fn send(&mut self, spec: PacketSpec) {
        let pkt = self.pool.insert(Packet {
            id: *self.next_pkt_id,
            flow: spec.flow,
            src: self.node,
            dst: spec.dst,
            dst_agent: spec.dst_agent,
            size: spec.size,
            sent_at: self.now,
            ecn: spec.ecn,
            payload: spec.payload,
        });
        *self.next_pkt_id += 1;
        self.cmds.push(Command::Send(pkt));
    }

    /// Arrange for [`Agent::on_timer`] to fire after `delay` with `token`.
    /// Timers cannot be cancelled; agents ignore stale tokens instead.
    pub fn set_timer(&mut self, delay: SimDuration, token: u64) {
        self.cmds.push(Command::Timer {
            agent: self.agent,
            delay,
            token,
        });
    }

    /// The network's telemetry recorder (a no-op unless enabled via
    /// [`NetworkBuilder::telemetry`]). Agents record protocol-level
    /// events — cwnd updates, encoder decisions — through this handle.
    #[inline]
    pub fn telemetry(&mut self) -> &mut Recorder {
        self.telemetry
    }
}

/// Events of the network world.
pub enum NetEvent {
    /// Apply one [`ScenarioAction`] to a link — the generalized live
    /// reconfiguration behind [`Sim::apply_scenario`]. Applications are
    /// recorded as `link_scenario` telemetry events.
    Scenario {
        /// The link to reconfigure.
        link: LinkId,
        /// What changes.
        action: ScenarioAction,
    },
    /// Deliver `Agent::on_start`.
    AgentStart(AgentId),
    /// Deliver `Agent::on_timer`.
    AgentTimer { agent: AgentId, token: u64 },
    /// A shaped link's token bucket may now have enough for its head packet.
    LinkWakeup(LinkId),
    /// A packet finished propagating and arrives at `node`. The packet
    /// body stays in the network's [`PacketPool`]; the event carries only
    /// the 4-byte handle, keeping scheduler entries small.
    Arrive { node: NodeId, pkt: PktRef },
}

struct Node {
    name: String,
    /// Next-hop link for each destination node, indexed by `NodeId`.
    routes: Vec<Option<LinkId>>,
}

/// The complete simulated network.
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    agents: Vec<Option<Box<dyn Agent>>>,
    agent_node: Vec<NodeId>,
    monitor: Monitor,
    telemetry: Recorder,
    checks: Checks,
    rng: SimRng,
    /// Storage for every packet currently in flight (queued, on the wire,
    /// or scheduled to arrive). Queues, links, and events move [`PktRef`]
    /// handles; the full packet is written once on send and read once at
    /// delivery or drop.
    pool: PacketPool,
    next_pkt_id: u64,
    /// Extra packet copies minted by duplication fault injection — the one
    /// source of pool entries that is not a send, tracked so packet
    /// conservation stays an equality.
    duplicated: u64,
    cmd_buf: Vec<Command>,
    drop_buf: Vec<QueuedPkt>,
    /// Scratch for batched link drains, recycled across activations.
    deliver_buf: Vec<QueuedPkt>,
}

impl Network {
    /// Per-flow statistics.
    pub fn monitor(&self) -> &Monitor {
        &self.monitor
    }

    /// The telemetry recorder (disabled unless enabled via
    /// [`NetworkBuilder::telemetry`]); read it after a run to export
    /// traces and counters.
    pub fn telemetry(&self) -> &Recorder {
        &self.telemetry
    }

    /// The invariant-oracle handle (disabled unless enabled via
    /// [`NetworkBuilder::checks`]); read it after a run to report how many
    /// oracle evaluations the run survived.
    pub fn checks(&self) -> &Checks {
        &self.checks
    }

    /// Run the full invariant audit: packet conservation, per-link queue
    /// bounds and token conservation, and the telemetry cross-check. A
    /// no-op when checks are disabled; panics with a structured report on
    /// the first violation. [`Sim::run_until`] calls this automatically at
    /// the end of every enabled run segment; tests may call it directly at
    /// any quiescent point.
    pub fn audit(&mut self, now: SimTime) {
        if !self.checks.is_enabled() {
            return;
        }
        let mut totals = NetTotals {
            duplicated: self.duplicated,
            in_flight: self.pool.len() as u64,
            ..NetTotals::default()
        };
        for (_, st) in self.monitor.flows() {
            totals.sent += st.sent_pkts;
            totals.delivered += st.delivered_pkts;
            totals.queue_drops += st.queue_drop_pkts;
            totals.link_drops += st.link_drop_pkts;
            totals.ce_marked += st.ce_marked_pkts;
        }
        checks::audit_conservation(&mut self.checks, now, &totals);
        for link in &self.links {
            let snap = LinkAudit {
                id: link.id().0,
                backlog_bytes: link.backlog().as_u64(),
                capacity_bytes: link.queue.capacity_bytes().map(|b| b.as_u64()),
                tokens_bitns: link.tokens_bitns(),
                burst_bitns: link.burst_bitns(),
            };
            checks::audit_link(&mut self.checks, now, &snap);
        }
        if let Some(tel) = self.telemetry.telemetry() {
            let counters = tel.counters();
            checks::audit_telemetry(&mut self.checks, now, &counters, &totals);
        }
    }

    /// A link, for inspecting backlog or delivery counters.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.0 as usize]
    }

    /// Downcast an agent to its concrete type to read results after a run.
    ///
    /// # Panics
    /// Panics if the agent is of a different type or currently executing.
    pub fn agent<T: Agent>(&self, id: AgentId) -> &T {
        let a = self.agents[id.0 as usize]
            .as_ref()
            .expect("agent is executing");
        (a.as_ref() as &dyn Any)
            .downcast_ref::<T>()
            .expect("agent type mismatch")
    }

    /// Mutable variant of [`Network::agent`].
    pub fn agent_mut<T: Agent>(&mut self, id: AgentId) -> &mut T {
        let a = self.agents[id.0 as usize]
            .as_mut()
            .expect("agent is executing");
        (a.as_mut() as &mut dyn Any)
            .downcast_mut::<T>()
            .expect("agent type mismatch")
    }

    fn call_agent(
        &mut self,
        id: AgentId,
        sched: &mut Scheduler<NetEvent>,
        f: impl FnOnce(&mut dyn Agent, &mut Ctx),
    ) {
        let mut agent = self.agents[id.0 as usize]
            .take()
            .expect("re-entrant agent call");
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        {
            let mut ctx = Ctx {
                now: sched.now(),
                agent: id,
                node: self.agent_node[id.0 as usize],
                cmds: &mut cmds,
                telemetry: &mut self.telemetry,
                pool: &mut self.pool,
                next_pkt_id: &mut self.next_pkt_id,
            };
            f(agent.as_mut(), &mut ctx);
        }
        self.agents[id.0 as usize] = Some(agent);
        for cmd in cmds.drain(..) {
            match cmd {
                Command::Send(pkt) => self.send_from(pkt, sched),
                Command::Timer {
                    agent,
                    delay,
                    token,
                } => {
                    sched.schedule_in(delay, NetEvent::AgentTimer { agent, token });
                }
            }
        }
        self.cmd_buf = cmds;
    }

    /// Release a dropped entry's pool slot and account for the drop.
    fn drop_pooled(&mut self, item: QueuedPkt, kind: DropKind, link: LinkId, at: SimTime) {
        self.monitor.on_dropped(item.flow, kind, at);
        match kind {
            DropKind::Queue => {
                self.telemetry
                    .queue_drop(at, item.flow.0, link.0 as u64, item.size.as_u64())
            }
            DropKind::Link => {
                self.telemetry
                    .link_drop(at, item.flow.0, link.0 as u64, item.size.as_u64())
            }
        }
        self.pool.take(item.pkt);
    }

    /// Account and route a packet [`Ctx::send`] already wrote to the pool.
    fn send_from(&mut self, pkt: PktRef, sched: &mut Scheduler<NetEvent>) {
        let (flow, size, src, dst) = {
            let p = self.pool.get(pkt);
            (p.flow, p.size, p.src, p.dst)
        };
        self.monitor.on_sent(flow, size, sched.now());
        if dst == src {
            // Loopback: deliver through the normal arrival path. Same
            // instant → the scheduler's fast lane, no heap traffic.
            sched.schedule_now(NetEvent::Arrive { node: src, pkt });
        } else {
            self.forward(src, pkt, sched);
        }
    }

    fn forward(&mut self, at: NodeId, pkt: PktRef, sched: &mut Scheduler<NetEvent>) {
        let (dst, size, flow, ecn) = {
            let p = self.pool.get(pkt);
            (p.dst, p.size, p.flow, p.ecn)
        };
        let Some(link_id) = self.nodes[at.0 as usize].routes[dst.0 as usize] else {
            panic!(
                "no route from {} to {}",
                self.nodes[at.0 as usize].name, self.nodes[dst.0 as usize].name
            );
        };
        let now = sched.now();
        let item = QueuedPkt {
            pkt,
            size,
            flow,
            ecn,
            enqueued_at: now,
        };
        let link = &mut self.links[link_id.0 as usize];
        // A hop that cannot queue admits (or refuses) the packet without
        // touching its queue; every other link state takes the queue.
        let cut = link.cut_through(size);
        if !cut.unwrap_or_else(|| link.offer(item, now).is_ok()) {
            return self.drop_pooled(item, DropKind::Queue, link_id, now);
        }
        let link = &self.links[link_id.0 as usize];
        // Both observers are no-ops when disabled; skip reading their inputs.
        if self.telemetry.is_enabled() || self.checks.is_enabled() {
            // What the queue holds with this packet in it: on a cut-through
            // hop, the packet alone.
            let backlog = match cut {
                Some(_) => size.as_u64(),
                None => link.backlog().as_u64(),
            };
            let cap = link.queue.capacity_bytes().map(|b| b.as_u64());
            self.telemetry.queue_depth(now, link_id.0 as u64, backlog);
            self.checks.check(
                cap.is_none_or(|c| backlog <= c),
                now,
                "queue-bound",
                || format!("link {}", link_id.0),
                || {
                    format!(
                        "backlog {} B exceeds capacity {} B after enqueue",
                        backlog,
                        cap.unwrap_or(0)
                    )
                },
            );
        }
        if cut.is_some() {
            self.depart(link_id, item, sched);
        } else if !link.wakeup_scheduled {
            // A pending LinkWakeup means the head packet is waiting on
            // tokens; the packet just queued sits behind it, so pumping
            // now would deliver nothing (token accrual is linear and
            // path-independent, so deferring the refill to the wakeup
            // yields a bit-identical balance). Skip the no-op pump.
            self.pump_link(link_id, sched)
        }
    }

    /// Apply one scenario action to a link, record it, account any
    /// evicted packets, and pump the link so the change takes effect at
    /// this exact instant.
    fn apply_scenario_action(
        &mut self,
        id: LinkId,
        action: ScenarioAction,
        sched: &mut Scheduler<NetEvent>,
    ) {
        let now = sched.now();
        self.telemetry
            .link_scenario(now, id.0 as u64, action.wire_code());
        let link = &mut self.links[id.0 as usize];
        match action {
            ScenarioAction::Rate(rate) => link.set_rate(rate, now),
            ScenarioAction::Delay(d) => link.set_delay(d),
            ScenarioAction::Loss(p) => link.set_loss_prob(p),
            ScenarioAction::Duplication(p) => link.set_dup_prob(p),
            ScenarioAction::Up(up) => link.set_up(up, now),
            ScenarioAction::QueueLimit(limit) => {
                let mut dropped = std::mem::take(&mut self.drop_buf);
                link.set_queue_limit(limit, &mut dropped);
                for d in dropped.drain(..) {
                    self.drop_pooled(d, DropKind::Queue, id, now);
                }
                self.drop_buf = dropped;
            }
        }
        if self.checks.is_enabled() {
            let link = &self.links[id.0 as usize];
            let (tokens, burst) = (link.tokens_bitns(), link.burst_bitns());
            let backlog = link.backlog().as_u64();
            let cap = link.queue.capacity_bytes().map(|b| b.as_u64());
            self.checks.check(
                tokens <= burst,
                now,
                "token-conservation",
                || format!("link {}", id.0),
                || {
                    format!(
                        "bucket holds {tokens} bit-ns, burst is {burst} bit-ns \
                         after scenario step"
                    )
                },
            );
            self.checks.check(
                cap.is_none_or(|c| backlog <= c),
                now,
                "queue-bound",
                || format!("link {}", id.0),
                || {
                    format!(
                        "backlog {} B exceeds capacity {} B after scenario step",
                        backlog,
                        cap.unwrap_or(0)
                    )
                },
            );
        }
        self.pump_link(id, sched);
    }

    fn pump_link(&mut self, id: LinkId, sched: &mut Scheduler<NetEvent>) {
        let mut dropped = std::mem::take(&mut self.drop_buf);
        let mut out = std::mem::take(&mut self.deliver_buf);
        let now = sched.now();

        // One activation drains everything the token bank covers; the
        // departures below are per packet and identical in order and
        // randomness to draining one packet per activation.
        let link = &mut self.links[id.0 as usize];
        let wait = link.service_batch(now, usize::MAX, &mut out, &mut dropped);
        for item in out.drain(..) {
            self.depart(id, item, sched);
        }

        let link = &mut self.links[id.0 as usize];
        if let Some(at) = wait {
            if !link.wakeup_scheduled {
                link.wakeup_scheduled = true;
                self.telemetry
                    .link_busy(now, id.0 as u64, at.saturating_since(now));
                sched.schedule_at(at, NetEvent::LinkWakeup(id));
            }
        }
        for d in dropped.drain(..) {
            self.drop_pooled(d, DropKind::Queue, id, now);
        }
        self.drop_buf = dropped;
        self.deliver_buf = out;
    }

    /// Put one packet that has left link `id`'s queue on the wire: the loss
    /// draw, the CE write-back, sojourn telemetry, the jitter draw, the
    /// FIFO arrival clamp, the duplication draw, and the `Arrive` event.
    /// The batch drain and the cut-through both depart through here, so the
    /// order of RNG draws per packet exists once.
    fn depart(&mut self, id: LinkId, item: QueuedPkt, sched: &mut Scheduler<NetEvent>) {
        let now = sched.now();
        let link = &self.links[id.0 as usize];
        let (to, base, jitter, dup) = (link.to(), link.delay(), link.jitter, link.dup_prob);
        let (loss, last_arrival) = (link.loss_prob, link.last_arrival);

        if loss > 0.0 && self.rng.gen::<f64>() < loss {
            return self.drop_pooled(item, DropKind::Link, id, now);
        }
        // The AQM CE-marked this packet on dequeue: write the mark back
        // into the pooled packet so it rides to the receiver, and account
        // it once. On multi-hop paths `forward` copies the (already-Ce)
        // codepoint into the next hop's QueuedPkt, so the pool comparison
        // keeps a packet from being counted at every hop.
        if item.ecn == Ecn::Ce {
            let p = self.pool.get_mut(item.pkt);
            if p.ecn != Ecn::Ce {
                p.ecn = Ecn::Ce;
                self.monitor.on_marked(item.flow);
                self.telemetry
                    .ecn_mark(now, item.flow.0, id.0 as u64, item.size.as_u64());
            }
        }
        if self.telemetry.is_enabled() {
            let sojourn = now.saturating_since(item.enqueued_at);
            self.telemetry
                .queue_sojourn(now, item.flow.0, id.0 as u64, sojourn);
        }
        let extra = if jitter.is_zero() {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos(self.rng.gen_range(0..=jitter.as_nanos()))
        };
        // FIFO-preserving arrival: path jitter is queue-induced in reality
        // and never reorders a flow; artificial reordering would trip TCP's
        // loss detection.
        let arrive_at = (now + base + extra).max(last_arrival);
        self.links[id.0 as usize].last_arrival = arrive_at;
        if dup > 0.0 && self.rng.gen::<f64>() < dup {
            // netem-style duplication: the copy follows the original
            // immediately. Duplicates are not counted as "sent" so loss
            // accounting stays truthful; the clone site tracks them so
            // packet conservation stays an equality.
            self.duplicated += 1;
            let copy = self.pool.clone_of(item.pkt);
            sched.schedule_at(
                arrive_at,
                NetEvent::Arrive {
                    node: to,
                    pkt: copy,
                },
            );
        }
        sched.schedule_at(
            arrive_at,
            NetEvent::Arrive {
                node: to,
                pkt: item.pkt,
            },
        );
    }
}

impl World for Network {
    type Event = NetEvent;

    fn handle(&mut self, event: NetEvent, sched: &mut Scheduler<NetEvent>) {
        self.checks.clock(sched.now());
        match event {
            NetEvent::AgentStart(id) => {
                self.call_agent(id, sched, |a, ctx| a.on_start(ctx));
            }
            NetEvent::AgentTimer { agent, token } => {
                self.call_agent(agent, sched, |a, ctx| a.on_timer(token, ctx));
            }
            NetEvent::LinkWakeup(id) => {
                self.links[id.0 as usize].wakeup_scheduled = false;
                self.pump_link(id, sched);
            }
            NetEvent::Scenario { link, action } => {
                self.apply_scenario_action(link, action, sched);
            }
            NetEvent::Arrive { node, pkt } => {
                if self.pool.get(pkt).dst == node {
                    let pkt = self.pool.take(pkt);
                    let owd = pkt.age(sched.now());
                    self.monitor
                        .on_delivered(pkt.flow, pkt.size, owd, sched.now());
                    let agent = pkt.dst_agent;
                    self.call_agent(agent, sched, |a, ctx| a.on_packet(pkt, ctx));
                } else {
                    self.forward(node, pkt, sched);
                }
            }
        }
    }
}

/// Builds a [`Network`] and wraps it in a ready-to-run [`Sim`].
pub struct NetworkBuilder {
    seed: u64,
    node_names: Vec<String>,
    link_specs: Vec<(NodeId, NodeId, LinkSpec)>,
    agents: Vec<(NodeId, Box<dyn Agent>)>,
    flow_labels: Vec<String>,
    bin: SimDuration,
    telemetry: Option<TelemetryConfig>,
    checks: bool,
}

impl NetworkBuilder {
    /// Start a topology with the given base RNG seed.
    pub fn new(seed: u64) -> Self {
        NetworkBuilder {
            seed,
            node_names: Vec::new(),
            link_specs: Vec::new(),
            agents: Vec::new(),
            flow_labels: Vec::new(),
            bin: SimDuration::from_millis(500),
            telemetry: None,
            checks: false,
        }
    }

    /// Override the monitor's bitrate bin width (default 0.5 s, as in the
    /// paper).
    pub fn bin_width(mut self, bin: SimDuration) -> Self {
        self.bin = bin;
        self
    }

    /// Enable flight-recorder telemetry (typed per-flow events; see
    /// [`gsrepro_simcore::telemetry`]). Disabled by default: the recorder
    /// then compiles down to a null check on every hot-path site.
    pub fn telemetry(mut self, cfg: TelemetryConfig) -> Self {
        self.telemetry = Some(cfg);
        self
    }

    /// Enable runtime invariant oracles (see [`crate::checks`]). Disabled
    /// by default: the handle then compiles down to a null check on every
    /// hot-path site, exactly like the telemetry recorder. Enabled, the
    /// run panics with a structured report on the first violated
    /// conservation law, and [`Sim::run_until`] audits the whole network
    /// at the end of every run segment. Oracles observe only — they
    /// consume no randomness and schedule nothing, so an enabled run is
    /// bit-identical to a disabled one.
    pub fn checks(mut self, on: bool) -> Self {
        self.checks = on;
        self
    }

    /// Add a node.
    pub fn add_node(&mut self, name: impl Into<String>) -> NodeId {
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.into());
        id
    }

    /// Add a unidirectional link.
    pub fn link(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.link_specs.len() as u32);
        self.link_specs.push((from, to, spec));
        id
    }

    /// Add a pair of links in both directions with the same spec.
    pub fn duplex(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        let ab = self.link(a, b, spec.clone());
        let ba = self.link(b, a, spec);
        (ab, ba)
    }

    /// Register an accounting flow.
    pub fn flow(&mut self, label: impl Into<String>) -> FlowId {
        let id = FlowId(self.flow_labels.len() as u32);
        self.flow_labels.push(label.into());
        id
    }

    /// Bind an agent to a node.
    pub fn add_agent(&mut self, node: NodeId, agent: Box<dyn Agent>) -> AgentId {
        let id = AgentId(self.agents.len() as u32);
        self.agents.push((node, agent));
        id
    }

    /// Bind two agents that address each other: `make` is handed the ids
    /// the pair will get — `node_a`'s agent first — and returns the agents
    /// in that order. Ids are handed out in insertion order, and this is the
    /// one place that relies on it.
    pub fn add_pair(
        &mut self,
        node_a: NodeId,
        node_b: NodeId,
        make: impl FnOnce(AgentId, AgentId) -> (Box<dyn Agent>, Box<dyn Agent>),
    ) -> (AgentId, AgentId) {
        let id_a = AgentId(self.agents.len() as u32);
        let id_b = AgentId(id_a.0 + 1);
        let (a, b) = make(id_a, id_b);
        (self.add_agent(node_a, a), self.add_agent(node_b, b))
    }

    /// The two-node testbed in one call: nodes `"server"` and `"client"`,
    /// the `down` link from the first to the second (link 0), and an
    /// unshaped return link with the same propagation delay (link 1).
    pub fn dumbbell(seed: u64, down: LinkSpec) -> (NetworkBuilder, NodeId, NodeId) {
        let mut b = NetworkBuilder::new(seed);
        let server = b.add_node("server");
        let client = b.add_node("client");
        let up = LinkSpec::lan(down.delay);
        b.link(server, client, down);
        b.link(client, server, up);
        (b, server, client)
    }

    /// Compute routes, build the network, and schedule agent starts.
    ///
    /// # Panics
    /// Panics if any node pair with traffic potential is disconnected
    /// (routing uses BFS hop count; ties broken by lower link id).
    pub fn build(self) -> Sim {
        let n = self.node_names.len();
        // Adjacency: node -> (neighbor, link id), in insertion order.
        let mut adj: Vec<Vec<(NodeId, LinkId)>> = vec![Vec::new(); n];
        let mut links = Vec::new();
        for (i, (from, to, spec)) in self.link_specs.iter().enumerate() {
            let id = LinkId(i as u32);
            adj[from.0 as usize].push((*to, id));
            links.push(spec.build(id, *from, *to));
        }

        // BFS from every node to get next-hop tables.
        let mut nodes = Vec::with_capacity(n);
        for (src, name) in self.node_names.iter().enumerate() {
            let mut dist = vec![u32::MAX; n];
            let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
            let mut q = std::collections::VecDeque::new();
            dist[src] = 0;
            q.push_back(src);
            while let Some(u) = q.pop_front() {
                for &(v, l) in &adj[u] {
                    let v = v.0 as usize;
                    if dist[v] == u32::MAX {
                        dist[v] = dist[u] + 1;
                        first_hop[v] = if u == src { Some(l) } else { first_hop[u] };
                        q.push_back(v);
                    }
                }
            }
            nodes.push(Node {
                name: name.clone(),
                routes: first_hop,
            });
        }

        let mut monitor = Monitor::new(self.bin);
        for label in &self.flow_labels {
            monitor.register(label.clone());
        }

        let mut agents = Vec::new();
        let mut agent_node = Vec::new();
        for (node, agent) in self.agents {
            agents.push(Some(agent));
            agent_node.push(node);
        }

        let net = Network {
            nodes,
            links,
            agents,
            agent_node,
            monitor,
            telemetry: match self.telemetry {
                Some(cfg) => Recorder::enabled(cfg),
                None => Recorder::disabled(),
            },
            checks: if self.checks {
                Checks::enabled()
            } else {
                Checks::disabled()
            },
            rng: rng_for(self.seed, 0),
            pool: PacketPool::new(),
            next_pkt_id: 0,
            duplicated: 0,
            cmd_buf: Vec::new(),
            drop_buf: Vec::new(),
            deliver_buf: Vec::new(),
        };

        let mut engine = Engine::new();
        for i in 0..net.agents.len() {
            engine
                .scheduler()
                .schedule_at(SimTime::ZERO, NetEvent::AgentStart(AgentId(i as u32)));
        }
        Sim { engine, net }
    }
}

/// A network together with its engine — the top-level simulation handle.
pub struct Sim {
    engine: Engine<Network>,
    /// The network world; inspect monitors, links, and agents through it.
    pub net: Network,
}

impl Sim {
    /// Advance simulated time to `until` (exclusive; see
    /// [`Engine::run_until`]) under [`Watchdog::default`], panicking with
    /// the [`SimError`] text on a trip. When invariant oracles are enabled
    /// ([`NetworkBuilder::checks`]), the whole network is audited at the
    /// end of the segment.
    pub fn run_until(&mut self, until: SimTime) {
        if let Err(e) = self.run_until_guarded(until, &Watchdog::default()) {
            panic!("{e}");
        }
    }

    /// [`Self::run_until`] under an explicit [`Watchdog`]: a runaway or
    /// livelocked run aborts gracefully into a structured [`SimError`]
    /// instead of spinning. The end-of-segment audit only runs on success
    /// — an abandoned simulation is allowed to be mid-flight inconsistent.
    pub fn run_until_guarded(&mut self, until: SimTime, dog: &Watchdog) -> Result<(), SimError> {
        self.engine.run_until_guarded(&mut self.net, until, dog)?;
        if self.net.checks.is_enabled() {
            self.net.audit(self.engine.now());
        }
        Ok(())
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.engine.now()
    }

    /// Events processed so far (engine-health metric).
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// How many events were scheduled into the past and clamped to `now`
    /// (zero in a well-behaved run; surfaced per run instead of stderr).
    pub fn past_clamps(&self) -> u64 {
        self.engine.past_schedules()
    }

    /// Scheduler occupancy counters for this run (lane/cur/wheel
    /// placement, cascades, cancels, slab high-watermark).
    pub fn sched_stats(&self) -> gsrepro_simcore::SchedStats {
        self.engine.sched_stats()
    }

    /// Utilization helper: overall goodput of `flow` across `[from, to)`.
    pub fn goodput_mbps(&self, flow: FlowId, from: SimTime, to: SimTime) -> f64 {
        self.net.monitor().stats(flow).mean_goodput_mbps(from, to)
    }

    /// Schedule one scenario action at `at` (absolute sim time).
    pub fn schedule_scenario_action(&mut self, link: LinkId, action: ScenarioAction, at: SimTime) {
        self.engine
            .scheduler()
            .schedule_at(at, NetEvent::Scenario { link, action });
    }

    /// Schedule a whole disturbance schedule. Steps are ordinary events:
    /// traced and untraced runs stay bit-identical, and the run reproduces
    /// from (scenario, seed).
    pub fn apply_scenario(&mut self, spec: &ScenarioSpec) {
        self.try_apply_scenario(spec)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// [`Self::apply_scenario`] with validation up front: a spec that
    /// would trip a link-layer assertion mid-run (probability outside
    /// `[0, 1]`, zero shaped rate) or index past the network's links is
    /// rejected as a structured [`SimError::InvalidScenario`] before
    /// anything is scheduled.
    pub fn try_apply_scenario(&mut self, spec: &ScenarioSpec) -> Result<(), SimError> {
        spec.validate_for(self.net.links.len())?;
        for step in &spec.steps {
            self.schedule_scenario_action(step.link, step.action, step.at);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apps::{CbrSource, SinkAgent};
    use crate::queue::QueueSpec;
    use gsrepro_simcore::BitRate;

    fn two_node_sim(rate_mbps: u64, cbr_mbps: u64, seed: u64) -> (Sim, FlowId) {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(rate_mbps),
            Bytes(50_000),
            SimDuration::from_millis(5),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(seed, down);
        let f = b.flow("cbr");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(cbr_mbps),
                Bytes(1200),
            )),
        );
        (b.build(), f)
    }

    #[test]
    fn dumbbell_is_two_nodes_a_down_link_and_a_lan_link_back() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(50_000),
            SimDuration::from_millis(7),
        );
        let (mut b, server, client) = NetworkBuilder::dumbbell(1, down);
        assert_eq!((server, client), (NodeId(0), NodeId(1)));
        // The next link a caller adds is link 2: the dumbbell holds 0 and 1.
        assert_eq!(b.link(server, client, lan_1ms()), LinkId(2));
        let sim = b.build();
        let (dn, up) = (sim.net.link(LinkId(0)), sim.net.link(LinkId(1)));
        assert_eq!((dn.from, dn.to), (server, client));
        assert_eq!((up.from, up.to), (client, server));
        assert_eq!(dn.rate(), Some(BitRate::from_mbps(10)));
        assert_eq!(up.rate(), None, "the return link is unshaped");
        assert_eq!(up.delay(), SimDuration::from_millis(7));
    }

    #[test]
    fn add_pair_hands_the_closure_the_ids_it_returns() {
        let (mut b, s, c) = NetworkBuilder::dumbbell(1, lan_1ms());
        // An unrelated agent first, so the pair does not start at id 0.
        let first = b.add_agent(c, Box::new(SinkAgent::new()));
        let mut seen = None;
        let pair = b.add_pair(s, c, |a, z| {
            seen = Some((a, z));
            (Box::new(SinkAgent::new()), Box::new(SinkAgent::new()))
        });
        assert_eq!(seen, Some(pair));
        assert_eq!(pair, (AgentId(first.0 + 1), AgentId(first.0 + 2)));
        let sim = b.build();
        assert_eq!(sim.net.agent_node[pair.0 .0 as usize], s);
        assert_eq!(sim.net.agent_node[pair.1 .0 as usize], c);
    }

    #[test]
    fn cbr_below_capacity_is_lossless() {
        let (mut sim, f) = two_node_sim(10, 5, 1);
        sim.run_until(SimTime::from_secs(10));
        let st = sim.net.monitor().stats(f);
        assert_eq!(st.dropped_pkts(), 0);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(1), SimTime::from_secs(10));
        assert!((gp - 5.0).abs() < 0.3, "goodput {gp} != 5");
        // One-way delay ≈ propagation (queue stays empty).
        assert!(st.owd.mean() < 7.0, "owd {}", st.owd.mean());
    }

    #[test]
    fn cbr_above_capacity_is_clamped_and_lossy() {
        let (mut sim, f) = two_node_sim(10, 20, 2);
        sim.run_until(SimTime::from_secs(10));
        let st = sim.net.monitor().stats(f);
        let gp = st.mean_goodput_mbps(SimTime::from_secs(1), SimTime::from_secs(10));
        assert!((gp - 10.0).abs() < 0.5, "goodput {gp} should clamp to 10");
        // Half the offered load must drop.
        assert!(st.loss_rate() > 0.4, "loss {}", st.loss_rate());
        // Queue is standing at its limit: OWD ≈ prop + 50 kB / 10 Mb/s = 45 ms.
        assert!(st.owd.mean() > 30.0, "owd {}", st.owd.mean());
    }

    #[test]
    fn determinism_same_seed_same_results() {
        let (mut a, fa) = two_node_sim(10, 20, 7);
        let (mut b2, fb) = two_node_sim(10, 20, 7);
        a.run_until(SimTime::from_secs(5));
        b2.run_until(SimTime::from_secs(5));
        let sa = a.net.monitor().stats(fa);
        let sb = b2.net.monitor().stats(fb);
        assert_eq!(sa.delivered_pkts, sb.delivered_pkts);
        assert_eq!(sa.dropped_pkts(), sb.dropped_pkts());
        assert_eq!(a.events_processed(), b2.events_processed());
    }

    #[test]
    fn multihop_forwarding() {
        let mut b = NetworkBuilder::new(3);
        let s = b.add_node("server");
        let r = b.add_node("router");
        let c = b.add_node("client");
        b.duplex(s, r, LinkSpec::lan(SimDuration::from_millis(2)));
        b.duplex(r, c, LinkSpec::lan(SimDuration::from_millis(3)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(1),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(2));
        let st = sim.net.monitor().stats(f);
        assert!(st.delivered_pkts > 0);
        // OWD = 2 + 3 = 5 ms across two unshaped hops.
        assert!((st.owd.mean() - 5.0).abs() < 0.1, "owd {}", st.owd.mean());
        let sink_agent: &SinkAgent = sim.net.agent(sink);
        assert_eq!(sink_agent.received_pkts(), st.delivered_pkts);
    }

    #[test]
    fn link_fault_injection_drops_packets() {
        let down = LinkSpec::lan(SimDuration::from_millis(1)).with_loss(0.3);
        let (mut b, s, c) = NetworkBuilder::dumbbell(11, down);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(2),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        let st = sim.net.monitor().stats(f);
        let loss = st.link_drop_pkts as f64 / st.sent_pkts as f64;
        assert!((loss - 0.3).abs() < 0.03, "observed loss {loss}");
    }

    #[test]
    fn jitter_spreads_delays() {
        let down =
            LinkSpec::lan(SimDuration::from_millis(5)).with_jitter(SimDuration::from_millis(10));
        let (mut b, s, c) = NetworkBuilder::dumbbell(13, down);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(2),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(10));
        let st = sim.net.monitor().stats(f);
        // Mean extra delay ≈ jitter/2 → total ≈ 10 ms.
        assert!((st.owd.mean() - 10.0).abs() < 1.0, "owd {}", st.owd.mean());
        assert!(st.owd.stddev() > 1.0);
    }

    #[test]
    fn link_rate_changes_take_effect() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(20),
            Bytes(100_000),
            SimDuration::from_millis(2),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(23, down);
        let bottleneck = LinkId(0);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        // Offer 15 Mb/s throughout.
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(15),
                Bytes(1200),
            )),
        );
        let mut sim = b.build();
        // Cut the link to 5 Mb/s for the middle third.
        sim.schedule_scenario_action(
            bottleneck,
            ScenarioAction::Rate(Some(BitRate::from_mbps(5))),
            SimTime::from_secs(10),
        );
        sim.schedule_scenario_action(
            bottleneck,
            ScenarioAction::Rate(Some(BitRate::from_mbps(20))),
            SimTime::from_secs(20),
        );
        sim.run_until(SimTime::from_secs(30));
        let st = sim.net.monitor().stats(f);
        let before = st.mean_goodput_mbps(SimTime::from_secs(2), SimTime::from_secs(10));
        let during = st.mean_goodput_mbps(SimTime::from_secs(12), SimTime::from_secs(20));
        let after = st.mean_goodput_mbps(SimTime::from_secs(22), SimTime::from_secs(30));
        assert!((before - 15.0).abs() < 0.5, "before {before}");
        assert!((during - 5.0).abs() < 0.5, "during {during}");
        assert!((after - 15.0).abs() < 1.0, "after {after}");
        assert!(st.dropped_pkts() > 0, "the 5 Mb/s phase must drop");
    }

    #[test]
    fn scenario_steps_apply_and_record() {
        use gsrepro_simcore::telemetry::EventKind;
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(20),
            Bytes(100_000),
            SimDuration::from_millis(2),
        );
        let (b, s, c) = NetworkBuilder::dumbbell(5, down);
        let mut b = b.telemetry(TelemetryConfig::default());
        let bottleneck = LinkId(0);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(10),
                Bytes(1200),
            )),
        );
        let mut sim = b.build();
        let spec = ScenarioSpec::new()
            .rate(SimTime::from_secs(2), bottleneck, BitRate::from_mbps(5))
            .delay(
                SimTime::from_secs(3),
                bottleneck,
                SimDuration::from_millis(9),
            )
            .loss_window(
                SimTime::from_secs(4),
                SimTime::from_secs(5),
                bottleneck,
                0.5,
            )
            .outage(SimTime::from_secs(6), SimTime::from_secs(7), bottleneck)
            .queue_limit(SimTime::from_secs(8), bottleneck, Bytes(10_000));
        let n_steps = spec.steps.len() as u64;
        sim.apply_scenario(&spec);
        sim.run_until(SimTime::from_secs(10));

        let link = sim.net.link(bottleneck);
        assert_eq!(link.rate(), Some(BitRate::from_mbps(5)));
        assert_eq!(link.delay(), SimDuration::from_millis(9));
        assert!(link.is_up());
        let st = sim.net.monitor().stats(f);
        assert!(st.link_drop_pkts > 0, "loss window must drop packets");
        assert!(st.queue_drop_pkts > 0, "5 Mb/s phase must tail-drop");
        let tel = sim.net.telemetry().telemetry().unwrap();
        let recorded: Vec<_> = tel
            .events()
            .into_iter()
            .filter(|e| e.kind == EventKind::LinkScenario)
            .collect();
        assert_eq!(recorded.len() as u64, n_steps);
        assert!(recorded.iter().all(
            |e| e.flow == gsrepro_simcore::telemetry::GLOBAL_FLOW && e.a == bottleneck.0 as u64
        ));
        // Wire codes, in schedule order: rate, delay, loss on/off, down/up,
        // queue limit.
        let codes: Vec<u64> = recorded.iter().map(|e| e.b).collect();
        assert_eq!(codes, vec![0, 1, 2, 2, 4, 4, 5]);
    }

    #[test]
    fn scenario_outage_pauses_delivery() {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(1_000_000),
            SimDuration::from_millis(1),
        );
        let (mut b, s, c) = NetworkBuilder::dumbbell(9, down);
        let l = LinkId(0);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(5),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        sim.apply_scenario(&ScenarioSpec::new().outage(
            SimTime::from_secs(2),
            SimTime::from_secs(4),
            l,
        ));
        sim.run_until(SimTime::from_secs(6));
        let st = sim.net.monitor().stats(f);
        // New arrivals during the outage are rejected at the link and
        // accounted like queue-overflow drops (the queue here is far too
        // large to overflow on its own).
        assert!(st.queue_drop_pkts > 500, "drops {}", st.queue_drop_pkts);
        // Delivery resumes after the outage.
        let after = st.mean_goodput_mbps(SimTime::from_secs(4), SimTime::from_secs(6));
        assert!((after - 5.0).abs() < 0.5, "after-outage goodput {after}");
        // No goodput inside the dark window (minus the sub-ms tail in flight).
        let during = st.mean_goodput_mbps(SimTime::from_millis(2100), SimTime::from_millis(3900));
        assert!(during < 0.1, "during-outage goodput {during}");
    }

    #[test]
    fn delay_step_spares_in_flight_packets() {
        // A delay step must not touch packets already propagating: their
        // arrivals were scheduled with the delay in force at send time.
        let mut b = NetworkBuilder::new(27).bin_width(SimDuration::from_millis(5));
        let s = b.add_node("s");
        let c = b.add_node("c");
        let l = b.link(s, c, LinkSpec::lan(SimDuration::from_millis(50)));
        b.link(c, s, LinkSpec::lan(SimDuration::from_millis(1)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        // 100 pkt/s: sends at 0, 10 ms, 20 ms, ...
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_kbps(800),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        // At t = 1 s the delay jumps 50 ms -> 200 ms.
        sim.schedule_scenario_action(
            l,
            ScenarioAction::Delay(SimDuration::from_millis(200)),
            SimTime::from_secs(1),
        );
        sim.run_until(SimTime::from_secs(3));
        // 5 ms delivery bins: bin i covers [5i, 5i + 5) ms.
        let delivered = &sim.net.monitor().stats(f).delivered_bins;
        // Packets sent before 1 s keep the 50 ms delay (last arrives at
        // ~1.04 s); the first post-step send (t = 1.0 s) lands at 1.2 s.
        // Nothing arrives inside the gap.
        let gap: f64 = (209..239).map(|i| delivered.bin_or_zero(i)).sum();
        assert_eq!(gap, 0.0, "no arrivals between the two delay regimes");
        let pre: f64 = (200..209).map(|i| delivered.bin_or_zero(i)).sum();
        assert!(pre > 0.0, "in-flight packets still arrive at the old delay");
    }

    #[test]
    fn scenario_runs_are_bit_identical() {
        let run = |telemetry: bool| {
            let down = LinkSpec::bottleneck(
                BitRate::from_mbps(25),
                Bytes(100_000),
                SimDuration::from_millis(2),
            );
            let (mut b, s, c) = NetworkBuilder::dumbbell(77, down);
            if telemetry {
                b = b.telemetry(TelemetryConfig::default());
            }
            let l = LinkId(0);
            let f = b.flow("x");
            let sink = b.add_agent(c, Box::new(SinkAgent::new()));
            b.add_agent(
                s,
                Box::new(CbrSource::new(
                    f,
                    c,
                    sink,
                    BitRate::from_mbps(20),
                    Bytes(1200),
                )),
            );
            let mut sim = b.build();
            sim.apply_scenario(
                &ScenarioSpec::new()
                    .rate(SimTime::from_secs(3), l, BitRate::from_mbps(10))
                    .rate(SimTime::from_secs(6), l, BitRate::from_mbps(25))
                    .loss_window(SimTime::from_secs(7), SimTime::from_secs(8), l, 0.02),
            );
            sim.run_until(SimTime::from_secs(10));
            let st = sim.net.monitor().stats(f);
            (st.delivered_pkts, st.dropped_pkts(), sim.events_processed())
        };
        let a = run(false);
        let b2 = run(false);
        let traced = run(true);
        assert_eq!(a, b2, "same scenario + seed must be bit-identical");
        assert_eq!(a, traced, "tracing must not perturb a scenario run");
    }

    #[test]
    fn duplication_fault_injection() {
        let down = LinkSpec::lan(SimDuration::from_millis(1)).with_duplication(0.25);
        let (mut b, s, c) = NetworkBuilder::dumbbell(17, down);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(2),
                Bytes(1000),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(20));
        let st = sim.net.monitor().stats(f);
        // Delivered ≈ 1.25 × sent: each duplicate arrives as an extra copy.
        let ratio = st.delivered_pkts as f64 / st.sent_pkts as f64;
        assert!((ratio - 1.25).abs() < 0.03, "duplication ratio {ratio}");
        assert_eq!(st.dropped_pkts(), 0);
    }

    #[test]
    fn telemetry_records_queue_dynamics_and_drops() {
        use gsrepro_simcore::telemetry::EventKind;
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(50_000),
            SimDuration::from_millis(5),
        );
        let (b, s, c) = NetworkBuilder::dumbbell(2, down);
        let mut b = b.telemetry(TelemetryConfig::default());
        let f = b.flow("cbr");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        // 20 Mb/s into 10 Mb/s: standing queue, sojourn, and tail drops.
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(20),
                Bytes(1200),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(5));
        let tel = sim.net.telemetry().telemetry().expect("telemetry enabled");
        let events = tel.events();
        let count = |k: EventKind| events.iter().filter(|e| e.kind == k).count();
        assert!(count(EventKind::QueueDepth) > 100, "sampled backlog series");
        assert!(count(EventKind::QueueSojourn) > 100, "sampled sojourns");
        assert!(count(EventKind::QueueDrop) > 0, "tail drops recorded");
        let c = tel.counters();
        assert_eq!(
            c.queue_drops,
            sim.net.monitor().stats(f).queue_drop_pkts,
            "telemetry drop counter must agree with the monitor"
        );
        assert!(c.throttled > 0, "per-packet kinds are sampled");
        // Depth events are link-scope, sojourns belong to the flow.
        assert!(events
            .iter()
            .filter(|e| e.kind == EventKind::QueueDepth)
            .all(|e| e.flow == gsrepro_simcore::telemetry::GLOBAL_FLOW && e.b == 0));
        assert!(events
            .iter()
            .filter(|e| e.kind == EventKind::QueueSojourn)
            .all(|e| e.flow == f.0));
        gsrepro_simcore::telemetry::validate_events(&events).unwrap();
    }

    #[test]
    fn telemetry_disabled_by_default_and_inert() {
        let (mut sim, _) = two_node_sim(10, 20, 2);
        sim.run_until(SimTime::from_secs(2));
        assert!(!sim.net.telemetry().is_enabled());
        assert_eq!(sim.net.telemetry().counters().recorded, 0);
        assert_eq!(sim.past_clamps(), 0);
    }

    /// A sim exercising every oracle input: shaping, scenario re-rates,
    /// loss, duplication, an outage, and a queue-limit shrink.
    fn eventful_sim(checks: bool, telemetry: bool) -> (Sim, FlowId) {
        let down = LinkSpec::bottleneck(
            BitRate::from_mbps(10),
            Bytes(50_000),
            SimDuration::from_millis(2),
        )
        .with_duplication(0.05);
        let (b, s, c) = NetworkBuilder::dumbbell(19, down);
        let mut b = b.checks(checks);
        if telemetry {
            b = b.telemetry(TelemetryConfig::default());
        }
        let l = LinkId(0);
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(12),
                Bytes(1200),
            )),
        );
        let mut sim = b.build();
        sim.apply_scenario(
            &ScenarioSpec::new()
                .rate(SimTime::from_secs(2), l, BitRate::from_mbps(5))
                .rate(SimTime::from_secs(4), l, BitRate::from_mbps(15))
                .loss_window(SimTime::from_secs(5), SimTime::from_secs(6), l, 0.1)
                .outage(SimTime::from_secs(6), SimTime::from_secs(7), l)
                .queue_limit(SimTime::from_secs(8), l, Bytes(10_000)),
        );
        (sim, f)
    }

    #[test]
    fn checks_enabled_eventful_run_is_clean() {
        let (mut sim, f) = eventful_sim(true, true);
        sim.run_until(SimTime::from_secs(10));
        // Every drop cause and the duplication path actually fired, so the
        // conservation identity was non-trivial...
        let st = sim.net.monitor().stats(f);
        assert!(st.queue_drop_pkts > 0);
        assert!(st.link_drop_pkts > 0);
        assert!(st.delivered_pkts > st.sent_pkts - st.dropped_pkts(), "dups");
        // ...and the oracles ran (per-event clock checks alone are ~1/event).
        assert!(sim.net.checks().performed() > 1000);
    }

    #[test]
    fn checks_do_not_perturb_the_simulation() {
        let digest = |checks: bool| {
            let (mut sim, f) = eventful_sim(checks, false);
            sim.run_until(SimTime::from_secs(10));
            let st = sim.net.monitor().stats(f);
            (
                st.delivered_pkts,
                st.dropped_pkts(),
                st.sent_pkts,
                sim.events_processed(),
            )
        };
        assert_eq!(digest(false), digest(true));
    }

    #[test]
    fn checks_disabled_by_default_and_inert() {
        let (mut sim, _) = two_node_sim(10, 20, 2);
        sim.run_until(SimTime::from_secs(1));
        assert!(!sim.net.checks().is_enabled());
        assert_eq!(sim.net.checks().performed(), 0);
        // An explicit audit on a disabled handle is a no-op.
        let now = sim.now();
        sim.net.audit(now);
        assert_eq!(sim.net.checks().performed(), 0);
    }

    /// A 1000-byte CBR source at `cbr_mbps` over one unshaped `spec` link
    /// into a sink, with a LAN link back.
    fn unshaped_sim(mut b: NetworkBuilder, spec: LinkSpec, cbr_mbps: u64) -> (Sim, FlowId, LinkId) {
        let s = b.add_node("s");
        let c = b.add_node("c");
        let l = b.link(s, c, spec);
        b.link(c, s, LinkSpec::lan(SimDuration::from_millis(1)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        let rate = BitRate::from_mbps(cbr_mbps);
        b.add_agent(s, Box::new(CbrSource::new(f, c, sink, rate, Bytes(1000))));
        (b.build(), f, l)
    }

    fn lan_1ms() -> LinkSpec {
        LinkSpec::lan(SimDuration::from_millis(1))
    }

    #[test]
    fn unshaped_hop_below_packet_size_queue_drops() {
        let spec = LinkSpec {
            queue: QueueSpec::DropTail { limit: Bytes(999) },
            ..lan_1ms()
        };
        let (mut sim, f, l) = unshaped_sim(NetworkBuilder::new(31).checks(true), spec, 2);
        sim.run_until(SimTime::from_secs(2));
        let st = sim.net.monitor().stats(f);
        assert!(st.sent_pkts > 100);
        assert_eq!(st.queue_drop_pkts, st.sent_pkts, "every packet tail-drops");
        assert_eq!(st.link_drop_pkts + st.delivered_pkts, 0);
        assert_eq!(sim.net.link(l).delivered_pkts(), 0);
    }

    #[test]
    fn downed_unshaped_link_drops_and_delivers_nothing() {
        let (mut sim, f, l) = unshaped_sim(NetworkBuilder::new(33).checks(true), lan_1ms(), 2);
        sim.apply_scenario(&ScenarioSpec::new().outage(
            SimTime::from_secs(1),
            SimTime::from_secs(2),
            l,
        ));
        sim.run_until(SimTime::from_secs(3));
        let st = sim.net.monitor().stats(f);
        // 250 pkt/s: the dark second's offers are all refused, as queue drops.
        assert!(
            (249..=251).contains(&st.queue_drop_pkts),
            "drops {}",
            st.queue_drop_pkts
        );
        assert_eq!(st.link_drop_pkts, 0);
        let dark = st.mean_goodput_mbps(SimTime::from_millis(1100), SimTime::from_secs(2));
        assert_eq!(dark, 0.0, "nothing crosses a downed link");
        let after = st.mean_goodput_mbps(SimTime::from_millis(2100), SimTime::from_secs(3));
        assert!((after - 2.0).abs() < 0.1, "after-outage goodput {after}");
        assert_eq!(sim.net.link(l).backlog(), Bytes::ZERO);
    }

    #[test]
    fn shaping_an_unshaped_link_queues_and_unshaping_strands_nothing() {
        let (mut sim, f, l) = unshaped_sim(NetworkBuilder::new(35).checks(true), lan_1ms(), 5);
        // 5 Mb/s offered into 2 Mb/s for two seconds: ~750 kB queues in the
        // LAN link's unlimited buffer.
        let two_mbps = ScenarioAction::Rate(Some(BitRate::from_mbps(2)));
        sim.schedule_scenario_action(l, two_mbps, SimTime::from_secs(1));
        sim.schedule_scenario_action(l, ScenarioAction::Rate(None), SimTime::from_secs(3));
        sim.run_until(SimTime::from_millis(2_999));
        assert!(
            sim.net.link(l).backlog() > Bytes(500_000),
            "shaped: queueing"
        );
        // The step back drains the backlog at that instant; packets offered
        // before the token wait it interrupted has fired queue behind it,
        // everything after cuts through again.
        sim.run_until(SimTime::from_secs(5));
        let st = sim.net.monitor().stats(f);
        assert_eq!(st.dropped_pkts(), 0);
        assert_eq!(sim.net.link(l).backlog(), Bytes::ZERO, "nothing stranded");
        assert_eq!(sim.net.link(l).delivered_pkts(), st.sent_pkts);
        let during = st.mean_goodput_mbps(SimTime::from_millis(1_500), SimTime::from_millis(2_500));
        assert!((during - 2.0).abs() < 0.1, "shaped goodput {during}");
        let after = st.mean_goodput_mbps(SimTime::from_secs(4), SimTime::from_secs(5));
        assert!((after - 5.0).abs() < 0.1, "unshaped goodput {after}");
    }

    #[test]
    fn codel_on_an_unshaped_link_delivers_through_its_queue() {
        let spec = LinkSpec {
            queue: QueueSpec::codel_default(Bytes(100_000)),
            ..lan_1ms()
        };
        let (mut sim, f, l) = unshaped_sim(NetworkBuilder::new(37).checks(true), spec, 2);
        sim.run_until(SimTime::from_secs(2));
        let st = sim.net.monitor().stats(f);
        assert_eq!(st.dropped_pkts(), 0);
        assert_eq!(sim.net.link(l).delivered_pkts(), st.sent_pkts);
        assert!((st.owd.mean() - 1.0).abs() < 1e-9, "owd {}", st.owd.mean());
    }

    #[test]
    fn cut_through_records_one_packet_of_depth_and_no_sojourn() {
        use gsrepro_simcore::telemetry::EventKind;
        let b = NetworkBuilder::new(39).telemetry(TelemetryConfig::default());
        let (mut sim, f, l) = unshaped_sim(b, lan_1ms(), 2);
        sim.run_until(SimTime::from_secs(2));
        let events = sim.net.telemetry().telemetry().unwrap().events();
        // Only link `l` carries traffic (the sink never answers): each
        // record is (value, link), and a sojourn belongs to the flow.
        for (kind, value) in [(EventKind::QueueDepth, 1000), (EventKind::QueueSojourn, 0)] {
            let of_kind: Vec<_> = events.iter().filter(|e| e.kind == kind).collect();
            assert!(!of_kind.is_empty(), "{kind:?} recorded");
            assert!(
                of_kind.iter().all(|e| (e.a, e.b) == (value, l.0 as u64)),
                "{kind:?} records {value} on the cut-through link"
            );
        }
        let sojourns = events.iter().filter(|e| e.kind == EventKind::QueueSojourn);
        assert!(sojourns.into_iter().all(|e| e.flow == f.0));
    }

    #[test]
    fn cut_through_runs_one_queue_bound_check_per_admitted_offer() {
        let (mut sim, f, l) = unshaped_sim(NetworkBuilder::new(41).checks(true), lan_1ms(), 2);
        sim.run_until(SimTime::from_secs(2));
        let after_run = sim.net.checks().performed();
        // What the end-of-segment audit alone contributes.
        let now = sim.now();
        sim.net.audit(now);
        let audit = sim.net.checks().performed() - after_run;
        let offers = sim.net.monitor().stats(f).sent_pkts;
        assert_eq!(sim.net.link(l).delivered_pkts(), offers, "all admitted");
        // One clock check per event, one queue-bound per admitted offer.
        assert_eq!(after_run, sim.events_processed() + offers + audit);
    }

    #[test]
    fn hot_path_layouts_are_pinned() {
        use std::mem::size_of;
        // Widening any of these is a per-packet cost on every hop: decide
        // it, do not drift into it.
        assert!(size_of::<Command>() <= 32, "{}", size_of::<Command>());
        assert_eq!(size_of::<QueuedPkt>(), 32);
        assert_eq!(size_of::<NetEvent>(), 24);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn disconnected_send_panics() {
        let mut b = NetworkBuilder::new(1);
        let s = b.add_node("s");
        let c = b.add_node("c");
        // Only a reverse link exists; s cannot reach c.
        b.link(c, s, LinkSpec::lan(SimDuration::from_millis(1)));
        let f = b.flow("x");
        let sink = b.add_agent(c, Box::new(SinkAgent::new()));
        b.add_agent(
            s,
            Box::new(CbrSource::new(
                f,
                c,
                sink,
                BitRate::from_mbps(1),
                Bytes(500),
            )),
        );
        let mut sim = b.build();
        sim.run_until(SimTime::from_secs(1));
    }
}
