//! Plugging the cascade into the federated round loop.

use crate::{CascadeAudit, CascadeCoordinator, CascadeError};
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// An [`UpdateTransport`] that routes each round's updates through a mix
/// cascade instead of a single proxy.
///
/// As with `MixnnTransport`, the observed updates keep the incoming slot
/// ids (the server still sees one connection per slot) while their
/// *contents* are the cascade-mixed updates. Under the linear chain no
/// proper subset of hops can attribute a forwarded layer to a
/// participant; under stratified/free-route layouts the guarantee is
/// per route group — an adversary must cover a client's entire route
/// (see `mixnn_attacks::collusion`).
#[derive(Debug)]
pub struct CascadeTransport {
    coordinator: CascadeCoordinator,
    /// RNG standing in for the participants' onion-sealing entropy.
    participant_rng: StdRng,
    last_audit: Option<CascadeAudit>,
}

impl CascadeTransport {
    /// Wraps a launched cascade.
    pub fn new(coordinator: CascadeCoordinator, seed: u64) -> Self {
        CascadeTransport {
            coordinator,
            participant_rng: StdRng::seed_from_u64(seed),
            last_audit: None,
        }
    }

    /// Access to the cascade (per-hop stats, skip state).
    pub fn coordinator(&self) -> &CascadeCoordinator {
        &self.coordinator
    }

    /// The audit of the most recent round, for experiments (never exposed
    /// in a deployment).
    pub fn last_audit(&self) -> Option<&CascadeAudit> {
        self.last_audit.as_ref()
    }

    fn relay_inner(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, CascadeError> {
        let slot_ids: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let params: Vec<ModelParams> = updates.into_iter().map(|u| u.params).collect();
        let round = self
            .coordinator
            .run_round(&params, &mut self.participant_rng)?;
        self.last_audit = Some(round.audit);
        Ok(slot_ids
            .into_iter()
            .zip(round.mixed)
            .map(|(slot, params)| ModelUpdate::new(slot, params))
            .collect())
    }
}

impl UpdateTransport for CascadeTransport {
    fn label(&self) -> &str {
        "mixnn-cascade"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        self.relay_inner(updates).map_err(FlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailurePolicy;
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

    fn transport(hop_count: usize) -> CascadeTransport {
        let mut rng = StdRng::seed_from_u64(61);
        let service = AttestationService::new(&mut rng);
        let cascade = CascadeCoordinator::linear(
            vec![2, 3],
            hop_count,
            17,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .unwrap();
        CascadeTransport::new(cascade, 77)
    }

    #[test]
    fn relay_preserves_slots_and_aggregate() {
        let mut t = transport(3);
        let ins = updates(6);
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
        let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
        assert_eq!(in_slots, out_slots);
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
        assert_eq!(t.last_audit().unwrap().groups()[0].plans().len(), 3);
    }

    #[test]
    fn relay_actually_mixes() {
        let mut t = transport(2);
        let ins = updates(8);
        let outs = t.relay(ins.clone()).unwrap();
        let changed = ins
            .iter()
            .zip(&outs)
            .filter(|(a, b)| a.params != b.params)
            .count();
        assert!(changed > 0, "no update changed content after cascading");
    }

    #[test]
    fn label_is_mixnn_cascade() {
        let t = transport(1);
        assert_eq!(t.label(), "mixnn-cascade");
    }

    #[test]
    fn transport_errors_surface_as_fl_errors() {
        let mut t = transport(1);
        let err = t.relay(Vec::new()).unwrap_err();
        assert!(matches!(err, FlError::Transport { .. }));
    }
}
