//! [`SimLink`]: round delivery over the simulated wire.
//!
//! Maps the update path's [`Endpoint`]s onto [`SimNet`] nodes — the
//! client population, each cascade hop, the aggregation server — and
//! implements [`RoundLink`] by framing each segment's messages
//! ([`FrameWriter`]), transmitting the bursts under backpressure,
//! driving the event loop, and reassembling the batch by frame sequence
//! number. With zero loss a delivered batch is byte-identical and
//! in-order; lost packets leave the batch incomplete past the deadline
//! and surface as [`LinkError::Timeout`] — which is exactly what the
//! cascade's `FailurePolicy` consumes.

use crate::frame::{parse_burst, FrameWriter};
use crate::sim::{LinkConfig, NetStats, Packet, SimNet};
use mixnn_core::{Endpoint, LinkError, RoundLink};
use mixnn_telemetry::{Counter, Telemetry};

/// When a sender flushes its frame buffer to a peer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Coalesce all of a segment's envelopes into one burst (one
    /// per-packet overhead per round and peer).
    Batched,
    /// Flush every envelope as its own burst — the unamortized baseline
    /// `eval load` measures batching against.
    PerEnvelope,
}

impl FlushPolicy {
    /// Stable lowercase name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            FlushPolicy::Batched => "batched",
            FlushPolicy::PerEnvelope => "per_envelope",
        }
    }
}

/// A simulated network wired for one cascade (or single-proxy)
/// deployment, usable as the coordinator's [`RoundLink`].
///
/// Node layout: node 0 is the client population, nodes `1..=hops` the
/// mixing hops, node `hops + 1` the server. Every segment a route could
/// use is connected with the same base [`LinkConfig`]; individual
/// segments can be degraded afterwards via
/// [`SimLink::set_segment_config`] (loss injection, slow paths).
#[derive(Debug)]
pub struct SimLink {
    net: SimNet,
    hops: usize,
    flush: FlushPolicy,
    timeout_ns: u64,
    writer: FrameWriter,
}

impl SimLink {
    /// Wires a simulated network for `hops` mixing hops with uniform
    /// link parameters. Delivery of a batch fails with
    /// [`LinkError::Timeout`] when it does not complete within
    /// `timeout_ns` of virtual time.
    pub fn new(
        hops: usize,
        seed: u64,
        cfg: LinkConfig,
        flush: FlushPolicy,
        timeout_ns: u64,
    ) -> Self {
        let mut net = SimNet::new(seed);
        let clients = net.add_node();
        let hop_nodes: Vec<usize> = (0..hops).map(|_| net.add_node()).collect();
        let server = net.add_node();
        // Clients may enter at any hop (free-route layouts), hops talk to
        // any later stage in either order, and every hop can reach the
        // server directly (it may be the last survivor of a route).
        for &h in &hop_nodes {
            net.connect(clients, h, cfg);
            net.connect(h, server, cfg);
            for &g in &hop_nodes {
                if g != h {
                    net.connect(h, g, cfg);
                }
            }
        }
        SimLink {
            net,
            hops,
            flush,
            timeout_ns,
            writer: FrameWriter::new(),
        }
    }

    fn node(&self, endpoint: Endpoint) -> Result<usize, LinkError> {
        match endpoint {
            Endpoint::Clients => Ok(0),
            Endpoint::Hop(h) if h < self.hops => Ok(1 + h),
            Endpoint::Server => Ok(1 + self.hops),
            Endpoint::Hop(h) => Err(LinkError::Connection {
                from: endpoint,
                to: endpoint,
                reason: format!("hop {h} is not wired (network has {} hops)", self.hops),
            }),
        }
    }

    /// Reconfigures one segment (e.g. injecting loss on the path into a
    /// single hop while the rest of the network stays healthy).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is not wired — a test-setup bug.
    pub fn set_segment_config(&mut self, from: Endpoint, to: Endpoint, cfg: LinkConfig) {
        let from = self.node(from).expect("wired endpoint");
        let to = self.node(to).expect("wired endpoint");
        self.net.connect(from, to, cfg);
    }

    /// Cumulative wire statistics (bytes, packets, peak queue depths).
    pub fn stats(&self) -> NetStats {
        self.net.stats()
    }

    /// Current virtual time.
    pub fn now_ns(&self) -> u64 {
        self.net.now_ns()
    }

    /// Direct access to the simulator (experiments and tests).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Attaches a telemetry registry to the underlying simulator (which
    /// also drives the registry's [`mixnn_telemetry::VirtualClock`], if
    /// it has one) and to this link's framing/error accounting.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.net.attach_telemetry(telemetry);
    }

    fn deliver_inner(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        let src = self.node(from)?;
        let dst = self.node(to)?;
        if self.net.link_config(src, dst).is_none() {
            return Err(LinkError::Connection {
                from,
                to,
                reason: "segment not wired".into(),
            });
        }
        let expected = messages.len();
        if expected == 0 {
            return Ok(messages);
        }

        // Frame the batch into bursts under the flush policy.
        let mut bursts: Vec<Packet> = Vec::new();
        match self.flush {
            FlushPolicy::Batched => {
                for (seq, message) in messages.iter().enumerate() {
                    self.writer.push(seq as u32, message);
                }
                let frames = self.writer.frames();
                bursts.push(Packet::with_payload(self.writer.flush(), frames, 0));
            }
            FlushPolicy::PerEnvelope => {
                for (seq, message) in messages.iter().enumerate() {
                    self.writer.push(seq as u32, message);
                    bursts.push(Packet::with_payload(self.writer.flush(), 1, seq as u64));
                }
            }
        }
        drop(messages);

        self.net
            .telemetry()
            .incr(Counter::NetBurstsFlushed, bursts.len() as u64);

        // Transmit under backpressure, drive the event loop, reassemble
        // by sequence number.
        let deadline = self.net.now_ns().saturating_add(self.timeout_ns);
        let mut pending: std::collections::VecDeque<Packet> = bursts.into();
        let mut out: Vec<Option<Vec<u8>>> = vec![None; expected];
        let mut received = 0usize;
        loop {
            while let Some(packet) = pending.pop_front() {
                if let Err(refused) = self.net.try_send(src, dst, packet) {
                    pending.push_front(refused);
                    break;
                }
            }
            while let Some((_, packet)) = self.net.recv(dst) {
                let payload = packet.payload.ok_or_else(|| LinkError::Connection {
                    from,
                    to,
                    reason: "size-only packet on a transport segment".into(),
                })?;
                let frames = parse_burst(&payload).map_err(|e| LinkError::Connection {
                    from,
                    to,
                    reason: e.to_string(),
                })?;
                for (seq, data) in frames {
                    let slot = out
                        .get_mut(seq as usize)
                        .ok_or_else(|| LinkError::Connection {
                            from,
                            to,
                            reason: format!("frame seq {seq} out of range"),
                        })?;
                    if slot.is_none() {
                        *slot = Some(data);
                        received += 1;
                    }
                }
            }
            if received == expected {
                break;
            }
            match self.net.next_event_ns() {
                Some(t) if t <= deadline => {
                    self.net.step();
                }
                // Idle with packets lost, or the next arrival is past
                // the deadline: the batch will never complete in time.
                _ => {
                    return Err(LinkError::Timeout {
                        from,
                        to,
                        delivered: received,
                        expected,
                    });
                }
            }
        }
        Ok(out
            .into_iter()
            .map(|m| m.expect("counted complete"))
            .collect())
    }
}

impl RoundLink for SimLink {
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        let result = self.deliver_inner(from, to, messages);
        if result.is_err() {
            self.net.telemetry().incr(Counter::NetLinkErrors, 1);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn messages(n: usize) -> Vec<Vec<u8>> {
        (0..n).map(|i| vec![i as u8; 16 + i]).collect()
    }

    #[test]
    fn delivery_is_identity_in_order_under_zero_loss() {
        for flush in [FlushPolicy::Batched, FlushPolicy::PerEnvelope] {
            let mut link = SimLink::new(
                2,
                11,
                LinkConfig {
                    jitter_ns: 40_000,
                    reorder: 0.5,
                    ..LinkConfig::default()
                },
                flush,
                10_000_000_000,
            );
            let batch = messages(17);
            let out = link
                .deliver(Endpoint::Clients, Endpoint::Hop(0), batch.clone())
                .unwrap();
            assert_eq!(out, batch, "{}", flush.name());
            let out = link
                .deliver(Endpoint::Hop(0), Endpoint::Hop(1), batch.clone())
                .unwrap();
            assert_eq!(out, batch);
            let out = link
                .deliver(Endpoint::Hop(1), Endpoint::Server, batch.clone())
                .unwrap();
            assert_eq!(out, batch);
        }
    }

    #[test]
    fn batched_flush_sends_fewer_packets_than_per_envelope() {
        let run = |flush: FlushPolicy| {
            let mut link = SimLink::new(1, 5, LinkConfig::default(), flush, 10_000_000_000);
            link.deliver(Endpoint::Clients, Endpoint::Hop(0), messages(32))
                .unwrap();
            (link.stats().packets_sent, link.stats().bytes_sent)
        };
        let (batched_packets, batched_bytes) = run(FlushPolicy::Batched);
        let (envelope_packets, envelope_bytes) = run(FlushPolicy::PerEnvelope);
        assert_eq!(batched_packets, 1);
        assert_eq!(envelope_packets, 32);
        assert!(batched_bytes < envelope_bytes, "burst headers amortize");
    }

    #[test]
    fn total_loss_times_out_with_typed_error() {
        let mut link = SimLink::new(
            1,
            5,
            LinkConfig::default(),
            FlushPolicy::PerEnvelope,
            1_000_000_000,
        );
        link.set_segment_config(
            Endpoint::Clients,
            Endpoint::Hop(0),
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::default()
            },
        );
        let err = link
            .deliver(Endpoint::Clients, Endpoint::Hop(0), messages(4))
            .unwrap_err();
        match err {
            LinkError::Timeout {
                delivered,
                expected,
                ..
            } => {
                assert_eq!(delivered, 0);
                assert_eq!(expected, 4);
            }
            other => panic!("expected timeout, got {other}"),
        }
        // A healthy segment still works afterwards.
        let out = link
            .deliver(Endpoint::Hop(0), Endpoint::Server, messages(4))
            .unwrap();
        assert_eq!(out, messages(4));
    }

    #[test]
    fn unwired_hop_is_a_connection_error() {
        let mut link = SimLink::new(
            1,
            5,
            LinkConfig::default(),
            FlushPolicy::Batched,
            1_000_000_000,
        );
        let err = link
            .deliver(Endpoint::Clients, Endpoint::Hop(7), messages(1))
            .unwrap_err();
        assert!(matches!(err, LinkError::Connection { .. }));
    }

    #[test]
    fn empty_batch_delivers_trivially() {
        let mut link = SimLink::new(
            1,
            5,
            LinkConfig::default(),
            FlushPolicy::Batched,
            1_000_000_000,
        );
        let out = link
            .deliver(Endpoint::Clients, Endpoint::Hop(0), Vec::new())
            .unwrap();
        assert!(out.is_empty());
    }
}
