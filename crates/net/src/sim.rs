//! The deterministic discrete-event network core.
//!
//! No tokio, no threads, no wall clock: a [`SimNet`] owns a virtual
//! nanosecond clock, a seeded RNG and a single event heap. Nodes are
//! plain indices; a directed link between two nodes carries packets with
//! configurable propagation latency, uniform jitter, Bernoulli loss and
//! probabilistic reordering, and models transmission time (per-packet
//! overhead plus a per-byte rate), so a link serializes its packets —
//! which is where queueing comes from.
//!
//! **Bounded queues and explicit backpressure.** Each link's send queue
//! holds at most `send_queue` packets — [`SimNet::try_send`] hands the
//! packet back instead of queueing a (C+1)-th, and the caller decides
//! what to do with the pressure (the load generator keeps a pooled
//! backlog; a transport blocks the sending stage). On the receive side a
//! link only begins transmitting when the destination node has a free
//! slot (credit-based flow control over `recv_queue`): a full receiver
//! stalls its inbound links until [`SimNet::recv`] drains a packet. Both
//! bounds are visible in the stats as peak queue depths.
//!
//! **Determinism.** Events are ordered by `(virtual time, creation
//! sequence)`, links live in a `BTreeMap` (stall release walks them in
//! key order), and every random draw (loss, jitter, reorder) happens at
//! one well-defined point of event processing — so the same seed and the
//! same call sequence replay the same virtual history, byte for byte.
//! The equivalence suite leans on this: a round delivered over a
//! `SimNet` with zero loss is bit-identical to the in-process drive.

use mixnn_telemetry::{Counter, Gauge, Telemetry, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

/// Cost and bound parameters of one directed link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkConfig {
    /// Propagation delay added to every delivered packet.
    pub latency_ns: u64,
    /// Uniform extra delay in `[0, jitter_ns]` drawn per packet.
    pub jitter_ns: u64,
    /// Probability a transmitted packet is lost in flight.
    pub loss: f64,
    /// Probability a packet takes a slow detour of `reorder_extra_ns`,
    /// arriving after packets transmitted later.
    pub reorder: f64,
    /// The detour delay a reordered packet pays on top of latency and
    /// jitter.
    pub reorder_extra_ns: u64,
    /// Fixed transmission overhead per packet (framing, syscalls,
    /// connection bookkeeping) — the cost batched flushing amortizes.
    pub per_packet_ns: u64,
    /// Serialization time per payload byte (8 ns/B ≈ 1 Gbit/s).
    pub per_byte_ns: u64,
    /// Bound on the link's send queue, in packets (clamped to ≥ 1).
    pub send_queue: usize,
    /// Bound on the *destination node's* receive queue, in packets
    /// (clamped to ≥ 1): a full receiver stalls the link.
    pub recv_queue: usize,
}

impl Default for LinkConfig {
    fn default() -> Self {
        LinkConfig {
            latency_ns: 200_000, // 200 µs — same-region datacenter RTT/2
            jitter_ns: 50_000,
            loss: 0.0,
            reorder: 0.0,
            reorder_extra_ns: 400_000,
            per_packet_ns: 20_000, // 20 µs per flush/packet
            per_byte_ns: 8,        // ≈ 1 Gbit/s
            send_queue: 1024,
            recv_queue: 1024,
        }
    }
}

/// One unit of transmission: a framed burst on the wire.
///
/// The simulator only needs the packet's *size* to cost it, so load
/// generation at 10^5–10^6 clients ships `payload: None` packets —
/// nothing is allocated per client beyond this small struct. Transports
/// carrying real traffic attach the framed bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Bytes on the wire (burst framing included).
    pub bytes: usize,
    /// Logical frames (envelopes) the burst carries — what receivers
    /// count toward round completion.
    pub frames: usize,
    /// Caller-defined tag (the load generator stores the round index).
    pub tag: u64,
    /// The framed burst itself, when the packet carries real traffic.
    pub payload: Option<Vec<u8>>,
}

impl Packet {
    /// A packet carrying real framed bytes.
    pub fn with_payload(payload: Vec<u8>, frames: usize, tag: u64) -> Self {
        Packet {
            bytes: payload.len(),
            frames,
            tag,
            payload: Some(payload),
        }
    }

    /// A size-only packet for load generation: costs `bytes` on the wire
    /// and counts `frames` envelopes, allocating nothing.
    pub fn synthetic(bytes: usize, frames: usize, tag: u64) -> Self {
        Packet {
            bytes,
            frames,
            tag,
            payload: None,
        }
    }
}

/// Cumulative wire statistics of a [`SimNet`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Packets handed to a link for transmission.
    pub packets_sent: u64,
    /// Packets lost in flight.
    pub packets_lost: u64,
    /// Packets delivered into a receive queue.
    pub packets_delivered: u64,
    /// Packets that drew the slow reorder detour at transmission.
    pub packets_reordered: u64,
    /// Wire bytes of every transmitted packet.
    pub bytes_sent: u64,
    /// Deepest any link's send queue ever got.
    pub peak_send_queue: usize,
    /// Deepest any node's receive queue ever got.
    pub peak_recv_queue: usize,
    /// Events the simulator processed.
    pub events_processed: u64,
}

#[derive(Debug)]
struct Link {
    cfg: LinkConfig,
    queue: VecDeque<Packet>,
    /// A `TxReady` event is pending (or a transmission is in progress),
    /// so neither `try_send` nor a stall release may schedule another.
    scheduled: bool,
    /// Transmission is blocked on receiver credit; released by
    /// [`SimNet::recv`] on the destination node.
    stalled: bool,
    peak_queue: usize,
}

#[derive(Debug, Default)]
struct Node {
    rx: VecDeque<(usize, Packet)>,
    /// Receive-queue slots reserved by packets in flight toward this
    /// node (credit-based flow control).
    reserved: usize,
    peak_rx: usize,
}

#[derive(Debug)]
enum EventKind {
    /// The link may start transmitting its next queued packet.
    TxReady { from: usize, to: usize },
    /// A transmitted packet reaches the destination (or its loss is
    /// accounted and its credit released).
    Deliver {
        from: usize,
        to: usize,
        packet: Packet,
        lost: bool,
    },
}

#[derive(Debug)]
struct Event {
    time_ns: u64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        (self.time_ns, self.seq) == (other.time_ns, other.seq)
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time_ns, self.seq).cmp(&(other.time_ns, other.seq))
    }
}

/// The seeded discrete-event network simulator. See the module docs for
/// the model and its determinism contract.
#[derive(Debug)]
pub struct SimNet {
    clock_ns: u64,
    rng: StdRng,
    nodes: Vec<Node>,
    links: BTreeMap<(usize, usize), Link>,
    events: BinaryHeap<Reverse<Event>>,
    next_seq: u64,
    stats: NetStats,
    telemetry: Telemetry,
    vclock: Option<VirtualClock>,
}

impl SimNet {
    /// A fresh simulator at virtual time zero; all loss/jitter/reorder
    /// draws come from a [`StdRng`] seeded with `seed`.
    pub fn new(seed: u64) -> Self {
        SimNet {
            clock_ns: 0,
            rng: StdRng::seed_from_u64(seed),
            nodes: Vec::new(),
            links: BTreeMap::new(),
            events: BinaryHeap::new(),
            next_seq: 0,
            stats: NetStats::default(),
            telemetry: mixnn_telemetry::noop(),
            vclock: None,
        }
    }

    /// Attaches a telemetry registry. If the registry carries a
    /// [`VirtualClock`], the simulator drives it: every event processed
    /// (and every [`SimNet::run_until`] deadline) pushes the virtual
    /// time into the clock, so span and trace timestamps recorded
    /// anywhere in the system are taken in simulated nanoseconds —
    /// byte-identical across reruns of the same scenario.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.vclock = telemetry.virtual_clock();
        if let Some(vc) = &self.vclock {
            vc.set_ns(self.clock_ns);
        }
        self.telemetry = telemetry;
    }

    /// The attached telemetry registry (the shared no-op one by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    fn sync_vclock(&self) {
        if let Some(vc) = &self.vclock {
            vc.set_ns(self.clock_ns);
        }
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self) -> usize {
        self.nodes.push(Node::default());
        self.nodes.len() - 1
    }

    /// Installs (or reconfigures) the directed link `from -> to`.
    ///
    /// # Panics
    ///
    /// Panics if either node id does not exist or the link loops back to
    /// its source — wiring bugs, not runtime conditions.
    pub fn connect(&mut self, from: usize, to: usize, cfg: LinkConfig) {
        assert!(from < self.nodes.len(), "unknown source node {from}");
        assert!(to < self.nodes.len(), "unknown destination node {to}");
        assert_ne!(from, to, "a link cannot loop back to its source");
        let link = self.links.entry((from, to)).or_insert_with(|| Link {
            cfg,
            queue: VecDeque::new(),
            scheduled: false,
            stalled: false,
            peak_queue: 0,
        });
        link.cfg = cfg;
    }

    /// The configuration of link `from -> to`, if connected.
    pub fn link_config(&self, from: usize, to: usize) -> Option<LinkConfig> {
        self.links.get(&(from, to)).map(|l| l.cfg)
    }

    /// Current virtual time in nanoseconds.
    pub fn now_ns(&self) -> u64 {
        self.clock_ns
    }

    /// Cumulative wire statistics.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// Peak send-queue depth of one link, if connected.
    pub fn peak_send_queue(&self, from: usize, to: usize) -> Option<usize> {
        self.links.get(&(from, to)).map(|l| l.peak_queue)
    }

    /// Peak receive-queue depth of one node.
    pub fn peak_recv_queue(&self, node: usize) -> usize {
        self.nodes[node].peak_rx
    }

    fn schedule(&mut self, time_ns: u64, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.events.push(Reverse(Event { time_ns, seq, kind }));
    }

    /// Offers `packet` to link `from -> to`. A full send queue is
    /// **backpressure**: the packet comes straight back as `Err` and
    /// nothing is queued — the caller holds it (or blocks) until the
    /// link drains.
    ///
    /// # Panics
    ///
    /// Panics if the link was never [`SimNet::connect`]ed.
    pub fn try_send(&mut self, from: usize, to: usize, packet: Packet) -> Result<(), Packet> {
        let link = self
            .links
            .get_mut(&(from, to))
            .unwrap_or_else(|| panic!("no link {from} -> {to}"));
        if link.queue.len() >= link.cfg.send_queue.max(1) {
            return Err(packet);
        }
        link.queue.push_back(packet);
        link.peak_queue = link.peak_queue.max(link.queue.len());
        self.stats.peak_send_queue = self.stats.peak_send_queue.max(link.queue.len());
        self.telemetry
            .gauge_max(Gauge::NetPeakSendQueue, self.stats.peak_send_queue as u64);
        if !link.scheduled && !link.stalled {
            link.scheduled = true;
            self.schedule(self.clock_ns, EventKind::TxReady { from, to });
        }
        Ok(())
    }

    /// Pops the next delivered packet at `node` (arrival order), freeing
    /// one receive-queue slot and un-stalling inbound links waiting for
    /// it.
    pub fn recv(&mut self, node: usize) -> Option<(usize, Packet)> {
        let popped = self.nodes[node].rx.pop_front();
        if popped.is_some() {
            self.release_stalled_into(node);
        }
        popped
    }

    /// Re-arms every stalled link into `node` (in deterministic key
    /// order); each re-checks credit when its `TxReady` fires.
    fn release_stalled_into(&mut self, node: usize) {
        let froms: Vec<usize> = self
            .links
            .iter()
            .filter(|(&(_, to), link)| to == node && link.stalled)
            .map(|(&(from, _), _)| from)
            .collect();
        for from in froms {
            let link = self.links.get_mut(&(from, node)).expect("just listed");
            link.stalled = false;
            if !link.scheduled {
                link.scheduled = true;
                self.schedule(self.clock_ns, EventKind::TxReady { from, to: node });
            }
        }
    }

    /// Virtual time of the next pending event, if any.
    pub fn next_event_ns(&self) -> Option<u64> {
        self.events.peek().map(|Reverse(e)| e.time_ns)
    }

    /// Processes the next event, advancing the clock to it. Returns
    /// `false` when idle.
    pub fn step(&mut self) -> bool {
        let Some(Reverse(event)) = self.events.pop() else {
            return false;
        };
        debug_assert!(event.time_ns >= self.clock_ns, "time moves forward");
        self.clock_ns = event.time_ns;
        self.sync_vclock();
        self.stats.events_processed += 1;
        match event.kind {
            EventKind::TxReady { from, to } => self.on_tx_ready(from, to),
            EventKind::Deliver {
                from,
                to,
                packet,
                lost,
            } => self.on_deliver(from, to, packet, lost),
        }
        true
    }

    /// Processes every event up to and including `deadline_ns`, then
    /// advances the clock to the deadline.
    pub fn run_until(&mut self, deadline_ns: u64) {
        while let Some(t) = self.next_event_ns() {
            if t > deadline_ns {
                break;
            }
            self.step();
        }
        self.clock_ns = self.clock_ns.max(deadline_ns);
        self.sync_vclock();
    }

    /// Processes events until the simulator is idle.
    pub fn run_until_idle(&mut self) {
        while self.step() {}
    }

    fn on_tx_ready(&mut self, from: usize, to: usize) {
        let link = self.links.get_mut(&(from, to)).expect("event for a link");
        if link.queue.is_empty() {
            link.scheduled = false;
            return;
        }
        let cfg = link.cfg;
        // Credit check: transmission starts only when the receiver can
        // hold the packet on arrival.
        let node = &self.nodes[to];
        if node.rx.len() + node.reserved >= cfg.recv_queue.max(1) {
            let link = self.links.get_mut(&(from, to)).expect("still present");
            link.scheduled = false;
            link.stalled = true;
            return;
        }
        let link = self.links.get_mut(&(from, to)).expect("still present");
        let packet = link.queue.pop_front().expect("checked non-empty");
        self.nodes[to].reserved += 1;
        self.stats.packets_sent += 1;
        self.stats.bytes_sent += packet.bytes as u64;
        self.telemetry.incr(Counter::NetPacketsSent, 1);
        self.telemetry
            .incr(Counter::NetWireBytes, packet.bytes as u64);
        let tx_done = self.clock_ns + cfg.per_packet_ns + packet.bytes as u64 * cfg.per_byte_ns;
        // All randomness draws happen here, in transmission order.
        let lost = cfg.loss > 0.0 && self.rng.gen_bool(cfg.loss.min(1.0));
        let arrival = if lost {
            tx_done // only the credit release is scheduled
        } else {
            let jitter = if cfg.jitter_ns > 0 {
                self.rng.gen_range(0..=cfg.jitter_ns)
            } else {
                0
            };
            let detour = if cfg.reorder > 0.0 && self.rng.gen_bool(cfg.reorder.min(1.0)) {
                self.stats.packets_reordered += 1;
                self.telemetry.incr(Counter::NetPacketsReordered, 1);
                cfg.reorder_extra_ns
            } else {
                0
            };
            tx_done + cfg.latency_ns + jitter + detour
        };
        self.schedule(
            arrival,
            EventKind::Deliver {
                from,
                to,
                packet,
                lost,
            },
        );
        // The link is free for its next packet once this one is on the
        // wire; `scheduled` stays true until that TxReady runs.
        self.schedule(tx_done, EventKind::TxReady { from, to });
    }

    fn on_deliver(&mut self, from: usize, to: usize, packet: Packet, lost: bool) {
        let node = &mut self.nodes[to];
        node.reserved = node.reserved.saturating_sub(1);
        if lost {
            self.stats.packets_lost += 1;
            self.telemetry.incr(Counter::NetPacketsLost, 1);
            // The reserved slot frees without a delivery; a stalled
            // inbound link may now proceed.
            self.release_stalled_into(to);
            return;
        }
        node.rx.push_back((from, packet));
        node.peak_rx = node.peak_rx.max(node.rx.len());
        self.stats.peak_recv_queue = self.stats.peak_recv_queue.max(node.rx.len());
        self.telemetry
            .gauge_max(Gauge::NetPeakRecvQueue, self.stats.peak_recv_queue as u64);
        self.stats.packets_delivered += 1;
        self.telemetry.incr(Counter::NetPacketsDelivered, 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes(cfg: LinkConfig) -> (SimNet, usize, usize) {
        let mut net = SimNet::new(7);
        let a = net.add_node();
        let b = net.add_node();
        net.connect(a, b, cfg);
        (net, a, b)
    }

    #[test]
    fn packet_arrives_after_latency_and_transmission() {
        let cfg = LinkConfig {
            latency_ns: 1000,
            jitter_ns: 0,
            per_packet_ns: 100,
            per_byte_ns: 2,
            ..LinkConfig::default()
        };
        let (mut net, a, b) = two_nodes(cfg);
        net.try_send(a, b, Packet::synthetic(50, 1, 0)).unwrap();
        net.run_until_idle();
        // tx = 100 + 50·2 = 200; arrival = 200 + 1000.
        assert_eq!(net.now_ns(), 1200);
        let (from, p) = net.recv(b).unwrap();
        assert_eq!((from, p.bytes), (a, 50));
        assert!(net.recv(b).is_none());
    }

    #[test]
    fn transmission_serializes_packets() {
        let cfg = LinkConfig {
            latency_ns: 0,
            jitter_ns: 0,
            per_packet_ns: 100,
            per_byte_ns: 0,
            ..LinkConfig::default()
        };
        let (mut net, a, b) = two_nodes(cfg);
        for i in 0..3 {
            net.try_send(a, b, Packet::synthetic(10, 1, i)).unwrap();
        }
        net.run_until_idle();
        // Three back-to-back 100 ns transmissions.
        assert_eq!(net.now_ns(), 300);
        let tags: Vec<u64> = std::iter::from_fn(|| net.recv(b))
            .map(|(_, p)| p.tag)
            .collect();
        assert_eq!(tags, vec![0, 1, 2]);
    }

    #[test]
    fn send_queue_bound_applies_backpressure() {
        let cfg = LinkConfig {
            send_queue: 2,
            ..LinkConfig::default()
        };
        let (mut net, a, b) = two_nodes(cfg);
        assert!(net.try_send(a, b, Packet::synthetic(1, 1, 0)).is_ok());
        assert!(net.try_send(a, b, Packet::synthetic(1, 1, 1)).is_ok());
        // The third is refused, not queued.
        let refused = net.try_send(a, b, Packet::synthetic(1, 1, 2)).unwrap_err();
        assert_eq!(refused.tag, 2);
        assert_eq!(net.stats().peak_send_queue, 2);
        // Draining the link makes room again.
        net.run_until_idle();
        assert!(net.try_send(a, b, Packet::synthetic(1, 1, 2)).is_ok());
    }

    #[test]
    fn full_receiver_stalls_link_until_recv() {
        let cfg = LinkConfig {
            latency_ns: 0,
            jitter_ns: 0,
            per_packet_ns: 10,
            per_byte_ns: 0,
            recv_queue: 1,
            ..LinkConfig::default()
        };
        let (mut net, a, b) = two_nodes(cfg);
        for i in 0..3 {
            net.try_send(a, b, Packet::synthetic(1, 1, i)).unwrap();
        }
        net.run_until_idle();
        // Only one packet could be delivered; the link is stalled.
        assert_eq!(net.peak_recv_queue(b), 1);
        // recv frees a credit; the stalled link resumes.
        assert_eq!(net.recv(b).unwrap().1.tag, 0);
        net.run_until_idle();
        assert_eq!(net.recv(b).unwrap().1.tag, 1);
        net.run_until_idle();
        assert_eq!(net.recv(b).unwrap().1.tag, 2);
    }

    #[test]
    fn loss_drops_packets_and_counts_them() {
        let cfg = LinkConfig {
            loss: 1.0,
            ..LinkConfig::default()
        };
        let (mut net, a, b) = two_nodes(cfg);
        for i in 0..4 {
            net.try_send(a, b, Packet::synthetic(10, 1, i)).unwrap();
        }
        net.run_until_idle();
        assert!(net.recv(b).is_none());
        assert_eq!(net.stats().packets_lost, 4);
        assert_eq!(net.stats().packets_sent, 4);
    }

    #[test]
    fn reorder_detour_changes_arrival_order_not_content() {
        // Packet 0 takes the detour (reorder = 1.0 for the first draw
        // only would need per-packet control; instead make every packet
        // detour except that transmission order still serializes — so
        // verify with two packets where the first detours past the
        // second by making the detour long and sending one packet on
        // each of two parallel links into the same node).
        let mut net = SimNet::new(3);
        let a = net.add_node();
        let c = net.add_node();
        let b = net.add_node();
        let slow = LinkConfig {
            latency_ns: 100,
            jitter_ns: 0,
            reorder: 1.0,
            reorder_extra_ns: 10_000,
            per_packet_ns: 10,
            per_byte_ns: 0,
            ..LinkConfig::default()
        };
        let fast = LinkConfig {
            latency_ns: 100,
            jitter_ns: 0,
            per_packet_ns: 10,
            per_byte_ns: 0,
            ..LinkConfig::default()
        };
        net.connect(a, b, slow);
        net.connect(c, b, fast);
        net.try_send(a, b, Packet::synthetic(1, 1, 0)).unwrap();
        net.try_send(c, b, Packet::synthetic(1, 1, 1)).unwrap();
        net.run_until_idle();
        // The detoured packet arrives second despite equal send time.
        assert_eq!(net.recv(b).unwrap().1.tag, 1);
        assert_eq!(net.recv(b).unwrap().1.tag, 0);
    }

    #[test]
    fn same_seed_same_history() {
        let run = || {
            let cfg = LinkConfig {
                jitter_ns: 5_000,
                loss: 0.3,
                reorder: 0.2,
                ..LinkConfig::default()
            };
            let (mut net, a, b) = two_nodes(cfg);
            for i in 0..50 {
                net.try_send(a, b, Packet::synthetic(100 + i as usize, 1, i))
                    .unwrap();
            }
            net.run_until_idle();
            let mut arrivals = Vec::new();
            while let Some((_, p)) = net.recv(b) {
                arrivals.push(p.tag);
            }
            (net.now_ns(), arrivals, net.stats())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn run_until_advances_clock_to_deadline() {
        let (mut net, a, b) = two_nodes(LinkConfig::default());
        net.try_send(a, b, Packet::synthetic(10, 1, 0)).unwrap();
        net.run_until(5_000_000);
        assert_eq!(net.now_ns(), 5_000_000);
        assert!(net.recv(b).is_some());
    }
}
