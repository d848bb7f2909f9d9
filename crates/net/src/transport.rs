//! The update transport that crosses the simulated wire.
//!
//! [`NetCascadeTransport`] is the in-process `CascadeTransport` over a
//! [`SimLink`] — the same relay, the same sealing RNG discipline, the same
//! mixing pipeline — with every segment of the update path framed,
//! transmitted under latency/jitter/backpressure and reassembled. Under
//! zero loss the mixed output is bit-identical to the in-process drive
//! (the equivalence proptest pins this); packet loss and stalls surface
//! as `LinkError` timeouts, which the cascade's `FailurePolicy` consumes
//! and the federated loop sees as `FlError::Timeout`. The paper's single
//! proxy over the wire is this transport around a one-hop cascade.

use crate::link::{FlushPolicy, SimLink};
use crate::sim::LinkConfig;
use mixnn_cascade::{CascadeCoordinator, CascadeTransport};
use mixnn_core::RoundTranscript;
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};

/// `CascadeTransport<SimLink>` under its own label, with a wire sized to
/// the cascade: the relay and transcript are the cascade transport's.
/// Build `CascadeTransport::over` directly for coordinator or mutable
/// wire access.
#[derive(Debug)]
pub struct NetCascadeTransport(CascadeTransport<SimLink>);

impl NetCascadeTransport {
    /// Wraps a launched cascade, wiring a simulated network sized to its
    /// hop count. `seed` seeds the participants' sealing entropy and the
    /// wire's jitter stream.
    pub fn new(
        coordinator: CascadeCoordinator,
        seed: u64,
        cfg: LinkConfig,
        flush: FlushPolicy,
        timeout_ns: u64,
    ) -> Self {
        let hops = coordinator.hops().len();
        let link = SimLink::new(hops, seed ^ 0x6e65_745f, cfg, flush, timeout_ns);
        NetCascadeTransport(CascadeTransport::over(coordinator, seed, link))
    }

    /// The simulated wire (stats, virtual time).
    pub fn link(&self) -> &SimLink {
        self.0.link()
    }
}

impl UpdateTransport for NetCascadeTransport {
    fn label(&self) -> &str {
        "mixnn-cascade-net"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        self.0.relay(updates)
    }

    fn transcript(&self) -> Option<&RoundTranscript> {
        self.0.transcript()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_cascade::{FailurePolicy, LinearChain};
    use mixnn_nn::{LayerParams, ModelParams};

    fn updates(c: usize) -> Vec<ModelUpdate> {
        (0..c)
            .map(|i| {
                ModelUpdate::new(
                    i,
                    ModelParams::from_layers(vec![
                        LayerParams::from_values(vec![i as f32; 2]),
                        LayerParams::from_values(vec![-(i as f32); 3]),
                    ]),
                )
            })
            .collect()
    }

    fn cascade_transport(policy: FailurePolicy) -> NetCascadeTransport {
        let chain = Box::new(LinearChain::new(3));
        let (cascade, _) =
            CascadeCoordinator::launch_seeded(vec![2, 3], chain, 17, policy).unwrap();
        NetCascadeTransport::new(
            cascade,
            77,
            LinkConfig::default(),
            FlushPolicy::Batched,
            10_000_000_000,
        )
    }

    #[test]
    fn cascade_relay_over_wire_preserves_slots_and_aggregate() {
        let mut t = cascade_transport(FailurePolicy::Abort);
        let ins = updates(6);
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
        let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
        assert_eq!(in_slots, out_slots);
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
        assert!(t.link().stats().packets_sent > 0, "rounds crossed the wire");
    }
}
