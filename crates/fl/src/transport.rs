//! Update transports: the path from participants to the server.

use crate::{FlError, ModelUpdate};
use mixnn_core::RoundTranscript;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The channel through which client updates reach the aggregation server.
///
/// `relay` receives the updates as produced by the participants and returns
/// **what the server observes**. Implementations model the defenses under
/// comparison:
///
/// * [`DirectTransport`] — classic FL: the server sees each participant's
///   exact update, attributed to its sender;
/// * [`NoisyTransport`] — the noisy-gradient baseline (local DP style);
/// * [`mixnn_core::MixnnTransport`] — the paper's proxy (the struct lives
///   in `mixnn-core`; its `UpdateTransport` impl lives below, because this
///   crate owns the trait and depends on the proxy crate).
pub trait UpdateTransport: std::fmt::Debug {
    /// Short name for experiment output (e.g. `"classic-fl"`).
    fn label(&self) -> &str;

    /// Relays a round's updates, returning the server-observed view.
    ///
    /// # Errors
    ///
    /// Implementations return [`FlError`] when updates are malformed or
    /// (for the proxy) fail decryption.
    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError>;

    /// Who sent each layer of the last relayed round, for experiments and
    /// audits (never exposed in a deployment): `Some` after a relay on the
    /// proxy and on both cascade transports, `None` after one that failed
    /// (no transcript outlives the round it describes); `None` on classic
    /// FL, the noisy baseline and the pooled cascade (read its
    /// `last_rounds()`).
    fn transcript(&self) -> Option<&RoundTranscript> {
        None
    }
}

/// Classic FL: updates pass through unchanged, fully attributable.
#[derive(Debug, Clone, Default)]
pub struct DirectTransport;

impl DirectTransport {
    /// Creates the identity transport.
    pub fn new() -> Self {
        DirectTransport
    }
}

impl UpdateTransport for DirectTransport {
    fn label(&self) -> &str {
        "classic-fl"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        Ok(updates)
    }
}

/// The noisy-gradient baseline of §6.1.3: each participant perturbs every
/// scalar of its update with Gaussian noise `N(0, σ²)` before upload, as in
/// local differential privacy.
///
/// Conceptually the noise is added on-device; modelling it in the transport
/// keeps the comparison pipeline uniform. The noise RNG is seeded per
/// transport, so runs are reproducible.
#[derive(Debug)]
pub struct NoisyTransport {
    sigma: f32,
    rng: StdRng,
}

impl NoisyTransport {
    /// Creates the noisy transport with noise scale `sigma`.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or non-finite.
    pub fn new(sigma: f32, seed: u64) -> Self {
        assert!(
            sigma.is_finite() && sigma >= 0.0,
            "noise scale must be non-negative"
        );
        NoisyTransport {
            sigma,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The configured noise scale.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }
}

impl UpdateTransport for NoisyTransport {
    fn label(&self) -> &str {
        "noisy-gradient"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        Ok(updates
            .into_iter()
            .map(|u| ModelUpdate::new(u.client_id, u.params.perturbed(self.sigma, &mut self.rng)))
            .collect())
    }
}

impl UpdateTransport for mixnn_core::MixnnTransport {
    fn label(&self) -> &str {
        "mixnn"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        let slot_ids: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let params = updates.into_iter().map(|u| u.params).collect();
        let mixed = self.relay_round(params).map_err(FlError::from)?;
        Ok(slot_ids
            .into_iter()
            .zip(mixed)
            .map(|(slot, params)| ModelUpdate::new(slot, params))
            .collect())
    }

    fn transcript(&self) -> Option<&RoundTranscript> {
        self.proxy().last_audit()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_nn::{LayerParams, ModelParams};

    fn update(id: usize, v: &[f32]) -> ModelUpdate {
        ModelUpdate::new(
            id,
            ModelParams::from_layers(vec![LayerParams::from_values(v.to_vec())]),
        )
    }

    #[test]
    fn direct_transport_is_identity() {
        let mut t = DirectTransport::new();
        let updates = vec![update(0, &[1.0]), update(1, &[2.0])];
        assert_eq!(t.relay(updates.clone()).unwrap(), updates);
        assert_eq!(t.label(), "classic-fl");
    }

    #[test]
    fn noisy_transport_perturbs_every_update() {
        let mut t = NoisyTransport::new(1.0, 42);
        let updates = vec![update(0, &[1.0, 2.0]), update(1, &[3.0, 4.0])];
        let out = t.relay(updates.clone()).unwrap();
        assert_eq!(out.len(), 2);
        for (o, u) in out.iter().zip(&updates) {
            assert_eq!(o.client_id, u.client_id);
            assert_ne!(o.params, u.params);
        }
    }

    #[test]
    fn zero_sigma_is_identity() {
        let mut t = NoisyTransport::new(0.0, 0);
        let updates = vec![update(0, &[1.5])];
        assert_eq!(t.relay(updates.clone()).unwrap(), updates);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let updates = vec![update(0, &[1.0; 16])];
        let a = NoisyTransport::new(0.5, 9).relay(updates.clone()).unwrap();
        let b = NoisyTransport::new(0.5, 9).relay(updates.clone()).unwrap();
        let c = NoisyTransport::new(0.5, 10).relay(updates).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_sigma_panics() {
        let _ = NoisyTransport::new(-1.0, 0);
    }

    fn mixnn_transport() -> mixnn_core::MixnnTransport {
        mixnn_core::MixnnTransport::launch(
            mixnn_core::MixnnProxyConfig {
                expected_signature: vec![2, 3],
                seed: 3,
                ..mixnn_core::MixnnProxyConfig::default()
            },
            77,
        )
    }

    #[test]
    fn mixnn_transport_preserves_slots_and_aggregate() {
        let mut t = mixnn_transport();
        assert_eq!(t.label(), "mixnn");
        let ins: Vec<ModelUpdate> = (0..6)
            .map(|i| {
                ModelUpdate::new(
                    i,
                    ModelParams::from_layers(vec![
                        LayerParams::from_values(vec![i as f32; 2]),
                        LayerParams::from_values(vec![-(i as f32); 3]),
                    ]),
                )
            })
            .collect();
        let outs = t.relay(ins.clone()).unwrap();
        let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
        let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
        assert_eq!(in_slots, out_slots);
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
    }
}
