//! The update transport that crosses the simulated wire.
//!
//! [`NetCascadeTransport`] mirrors the in-process `CascadeTransport`
//! exactly — same sealing RNG discipline, same mixing pipeline — but
//! every segment of the update path travels through a [`SimLink`]:
//! framed, transmitted under latency/jitter/backpressure, reassembled.
//! Under zero loss the mixed output is bit-identical to the in-process
//! drive (the equivalence proptest pins this); packet loss and stalls
//! surface as `LinkError` timeouts, which the cascade's `FailurePolicy`
//! consumes and the federated loop sees as `FlError::Timeout`. The
//! paper's single proxy over the wire is this transport around a one-hop
//! cascade.

use crate::link::{FlushPolicy, SimLink};
use crate::sim::LinkConfig;
use mixnn_cascade::CascadeCoordinator;
use mixnn_core::RoundTranscript;
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An [`UpdateTransport`] that routes each round through a mix cascade
/// whose every segment crosses the simulated network.
///
/// Coordinator, hops and server run unchanged — the coordinator's
/// link-aware drive (`run_round_over`) moves batches through the
/// [`SimLink`], so delivery failures trigger the configured
/// `FailurePolicy` exactly as a real wire outage would.
#[derive(Debug)]
pub struct NetCascadeTransport {
    coordinator: CascadeCoordinator,
    link: SimLink,
    /// RNG standing in for the participants' onion-sealing entropy.
    participant_rng: StdRng,
    transcript: Option<RoundTranscript>,
}

impl NetCascadeTransport {
    /// Wraps a launched cascade, wiring a simulated network sized to its
    /// hop count.
    pub fn new(
        coordinator: CascadeCoordinator,
        seed: u64,
        cfg: LinkConfig,
        flush: FlushPolicy,
        timeout_ns: u64,
    ) -> Self {
        let hops = coordinator.hops().len();
        NetCascadeTransport {
            coordinator,
            link: SimLink::new(hops, seed ^ 0x6e65_745f, cfg, flush, timeout_ns),
            participant_rng: StdRng::seed_from_u64(seed),
            transcript: None,
        }
    }

    /// Access to the cascade (per-hop stats, skip state).
    pub fn coordinator(&self) -> &CascadeCoordinator {
        &self.coordinator
    }

    /// The simulated wire (stats, segment reconfiguration).
    pub fn link(&self) -> &SimLink {
        &self.link
    }

    /// Mutable wire access (loss injection in tests).
    pub fn link_mut(&mut self) -> &mut SimLink {
        &mut self.link
    }
}

impl UpdateTransport for NetCascadeTransport {
    fn label(&self) -> &str {
        "mixnn-cascade-net"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        let slot_ids: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let params: Vec<ModelParams> = updates.into_iter().map(|u| u.params).collect();
        // A failed round leaves no transcript behind: an audit must not
        // read the last good round's provenance as this one's.
        let round = self
            .coordinator
            .run_round_over(params, &mut self.participant_rng, &mut self.link)
            .inspect_err(|_| self.transcript = None)?;
        self.transcript = Some(round.audit);
        Ok(slot_ids
            .into_iter()
            .zip(round.mixed)
            .map(|(slot, params)| ModelUpdate::new(slot, params))
            .collect())
    }

    fn transcript(&self) -> Option<&RoundTranscript> {
        self.transcript.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_cascade::FailurePolicy;
    use mixnn_enclave::AttestationService;
    use mixnn_nn::LayerParams;

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
        let mut rng = StdRng::seed_from_u64(61);
        let service = AttestationService::new(&mut rng);
        let cascade =
            CascadeCoordinator::linear(vec![2, 3], 3, 17, policy, &service, &mut rng).unwrap();
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
