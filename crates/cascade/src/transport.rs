//! Plugging the cascade into the federated round loop.

use crate::CascadeCoordinator;
use mixnn_core::{InProcessLink, RoundLink, RoundTranscript};
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;

/// An [`UpdateTransport`] that routes each round's updates through a mix
/// cascade instead of a single proxy, every inter-stage exchange crossing
/// the link `L` — in process by default, or a simulated wire
/// ([`CascadeTransport::over`]). There is one relay for every link: a
/// successful delivery returns the batch unchanged, so the link moves a
/// round's cost, never its outputs or transcript.
///
/// As with `MixnnTransport`, the observed updates keep the incoming slot
/// ids (the server still sees one connection per slot) while their
/// *contents* are the cascade-mixed updates. Under the linear chain no
/// proper subset of hops can attribute a forwarded layer to a
/// participant; under stratified/free-route layouts the guarantee is
/// per route group — an adversary must cover a client's entire route
/// (see `mixnn_attacks::collusion`).
#[derive(Debug)]
pub struct CascadeTransport<L: RoundLink = InProcessLink> {
    coordinator: CascadeCoordinator,
    link: L,
    /// RNG standing in for the participants' onion-sealing entropy.
    participant_rng: StdRng,
    transcript: Option<RoundTranscript>,
}

impl CascadeTransport {
    /// Wraps a launched cascade, every exchange in process. `seed` seeds
    /// the participants' sealing entropy.
    pub fn new(coordinator: CascadeCoordinator, seed: u64) -> Self {
        CascadeTransport::over(coordinator, seed, InProcessLink)
    }
}

impl<L: RoundLink> CascadeTransport<L> {
    /// Wraps a launched cascade whose every exchange crosses `link`.
    /// `seed` seeds the participants' sealing entropy, exactly as in
    /// [`CascadeTransport::new`].
    pub fn over(coordinator: CascadeCoordinator, seed: u64, link: L) -> Self {
        CascadeTransport {
            coordinator,
            link,
            participant_rng: StdRng::seed_from_u64(seed),
            transcript: None,
        }
    }

    /// Access to the cascade (per-hop stats, skip state).
    pub fn coordinator(&self) -> &CascadeCoordinator {
        &self.coordinator
    }

    /// The link the rounds cross (stats, virtual time).
    pub fn link(&self) -> &L {
        &self.link
    }

    /// Mutable link access (loss injection in tests).
    pub fn link_mut(&mut self) -> &mut L {
        &mut self.link
    }
}

impl<L: RoundLink + fmt::Debug> UpdateTransport for CascadeTransport<L> {
    fn label(&self) -> &str {
        "mixnn-cascade"
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
    use crate::{FailurePolicy, LinearChain};
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
        let chain = Box::new(LinearChain::new(hop_count));
        let (cascade, _) =
            CascadeCoordinator::launch_seeded(vec![2, 3], chain, 17, FailurePolicy::Abort).unwrap();
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
        assert_eq!(t.transcript().unwrap().groups()[0].plans().len(), 3);
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
