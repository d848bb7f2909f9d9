//! The aggregation server.

use crate::{FlError, ModelUpdate};
use mixnn_nn::ModelParams;

/// The central aggregation server (step ❸ of Figure 2): averages client
/// updates per layer to form the next global model.
///
/// The server holds only `ModelParams`; it has no access to client data.
/// Whether it is honest, curious or malicious is decided by the code that
/// drives it (see `mixnn-attacks` for the malicious variants).
#[derive(Debug, Clone)]
pub struct AggregationServer {
    global: ModelParams,
    rounds_aggregated: usize,
}

impl AggregationServer {
    /// Creates a server with an initial global model.
    pub fn new(initial: ModelParams) -> Self {
        AggregationServer {
            global: initial,
            rounds_aggregated: 0,
        }
    }

    /// The current global model.
    pub fn global(&self) -> &ModelParams {
        &self.global
    }

    /// Number of aggregations performed.
    pub fn rounds_aggregated(&self) -> usize {
        self.rounds_aggregated
    }

    /// FedAvg: replaces the global model with the per-layer mean of the
    /// updates.
    ///
    /// This is the paper's `Agr` function (§4.2). Because the mean is
    /// computed per layer and is permutation-invariant across updates,
    /// aggregating MixNN-mixed updates yields exactly the same global model
    /// as aggregating the originals — the utility-equivalence theorem the
    /// integration tests verify bitwise.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::EmptyRound`] for an empty slice and
    /// [`FlError::IncompatibleUpdates`] when signatures disagree.
    pub fn aggregate(&mut self, updates: &[ModelUpdate]) -> Result<&ModelParams, FlError> {
        let first = updates.first().ok_or(FlError::EmptyRound)?;
        // `mean` owns the shape invariant; a `None` on a non-empty round
        // is a mismatch, and only then are the signatures materialised.
        let params = updates.iter().map(|u| &u.params);
        self.global = ModelParams::mean(params.clone()).ok_or_else(|| {
            let odd = params.clone().find(|p| !p.same_shape(&first.params));
            FlError::IncompatibleUpdates {
                expected: first.params.signature(),
                actual: odd.map_or_else(Vec::new, ModelParams::signature),
            }
        })?;
        self.rounds_aggregated += 1;
        Ok(&self.global)
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
    fn aggregate_means_updates() {
        let mut server = AggregationServer::new(params(&[0.0, 0.0]));
        let updates = vec![
            ModelUpdate::new(0, params(&[1.0, 3.0])),
            ModelUpdate::new(1, params(&[3.0, 5.0])),
        ];
        let global = server.aggregate(&updates).unwrap();
        assert_eq!(global.layer(0).unwrap().values(), &[2.0, 4.0]);
        assert_eq!(server.rounds_aggregated(), 1);
    }

    #[test]
    fn empty_round_is_rejected() {
        let mut server = AggregationServer::new(params(&[0.0]));
        assert_eq!(server.aggregate(&[]), Err(FlError::EmptyRound));
    }

    #[test]
    fn incompatible_signatures_are_rejected() {
        let mut server = AggregationServer::new(params(&[0.0]));
        let updates = vec![
            ModelUpdate::new(0, params(&[1.0])),
            ModelUpdate::new(1, params(&[1.0, 2.0])),
        ];
        assert_eq!(
            server.aggregate(&updates),
            Err(FlError::IncompatibleUpdates {
                expected: vec![1],
                actual: vec![2],
            })
        );
        // Failed aggregation leaves the global model untouched.
        assert_eq!(server.global(), &params(&[0.0]));
    }

    #[test]
    fn aggregation_is_permutation_invariant() {
        let updates: Vec<ModelUpdate> = (0..5)
            .map(|i| ModelUpdate::new(i, params(&[i as f32, (i * i) as f32])))
            .collect();
        let mut reversed = updates.clone();
        reversed.reverse();
        let mut s1 = AggregationServer::new(params(&[0.0, 0.0]));
        let mut s2 = AggregationServer::new(params(&[0.0, 0.0]));
        assert_eq!(
            s1.aggregate(&updates).unwrap(),
            s2.aggregate(&reversed).unwrap()
        );
    }
}
