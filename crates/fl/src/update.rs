//! Wire types of the federated protocol.

use mixnn_nn::ModelParams;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One participant's model update as observed at some point of the
/// pipeline.
///
/// `client_id` is the identity the *observer associates with the update's
/// transport slot* (e.g. the TCP connection it arrived on) — for classic FL
/// that is the true sender; after the MixNN proxy it is merely the slot
/// index, and the layers inside belong to random participants. Keeping the
/// field makes the inference-evaluation bookkeeping explicit.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelUpdate {
    /// Identity attributed to this update by the observer (see type docs).
    pub client_id: usize,
    /// The per-layer parameters after local refinement.
    pub params: ModelParams,
}

impl ModelUpdate {
    /// Creates an update.
    pub fn new(client_id: usize, params: ModelParams) -> Self {
        ModelUpdate { client_id, params }
    }

    /// The gradient-direction view ∇Sim scores: `returned − disseminated`,
    /// flattened. Returns `None` on signature mismatch.
    pub fn gradient_from(&self, disseminated: &ModelParams) -> Option<Vec<f32>> {
        self.params.delta(disseminated).map(|d| d.flatten())
    }
}

/// What the server sends down at the start of a round.
#[derive(Debug, Clone, PartialEq)]
pub enum Dissemination {
    /// Honest protocol: every participant receives the same global model.
    Broadcast(ModelParams),
    /// Protocol abuse (active ∇Sim, §5): a specific model per participant.
    PerClient(HashMap<usize, ModelParams>),
}

impl Dissemination {
    /// The model participant `client_id` receives, if any.
    pub fn model_for(&self, client_id: usize) -> Option<&ModelParams> {
        match self {
            Dissemination::Broadcast(m) => Some(m),
            Dissemination::PerClient(map) => map.get(&client_id),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_nn::LayerParams;

    fn params(v: &[f32]) -> ModelParams {
        ModelParams::from_layers(vec![LayerParams::from_values(v.to_vec())])
    }

    #[test]
    fn gradient_from_subtracts() {
        let update = ModelUpdate::new(3, params(&[2.0, 3.0]));
        let global = params(&[1.0, 1.0]);
        assert_eq!(update.gradient_from(&global).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn gradient_from_rejects_mismatch() {
        let update = ModelUpdate::new(0, params(&[1.0]));
        let global = params(&[1.0, 2.0]);
        assert!(update.gradient_from(&global).is_none());
    }

    #[test]
    fn dissemination_lookup() {
        let b = Dissemination::Broadcast(params(&[1.0]));
        assert!(b.model_for(42).is_some());

        let mut map = HashMap::new();
        map.insert(1usize, params(&[2.0]));
        let p = Dissemination::PerClient(map);
        assert!(p.model_for(1).is_some());
        assert!(p.model_for(2).is_none());
    }
}
