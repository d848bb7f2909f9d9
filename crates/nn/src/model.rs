//! The sequential model container.

use crate::layers::Layer;
use crate::loss::{Evaluation, SoftmaxCrossEntropy};
use crate::optimizer::Optimizer;
use crate::params::ModelParams;
use crate::NnError;
use mixnn_tensor::Tensor;

/// A feed-forward stack of layers trained with backpropagation.
///
/// `Sequential` is the model type used by every federated participant. Its
/// federated-learning surface is deliberately parameter-centric:
/// [`Sequential::params`] / [`Sequential::set_params`] move whole models as
/// [`ModelParams`] (one flat vector per trainable layer), which is exactly
/// the representation the MixNN proxy mixes and the server aggregates.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Dense, Relu, Sequential};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut model = Sequential::new();
/// model.push(Dense::new(8, 16, &mut rng));
/// model.push(Relu::new());
/// model.push(Dense::new(16, 2, &mut rng));
/// assert_eq!(model.num_trainable_layers(), 2);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Appends a layer to the stack.
    pub fn push<L: Layer + 'static>(&mut self, layer: L) {
        self.layers.push(Box::new(layer));
    }

    /// Number of layers (including parameter-free ones).
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Number of trainable layers — the "n" in the paper's mixing matrix:
    /// the proxy maintains one mixing list per trainable layer.
    pub fn num_trainable_layers(&self) -> usize {
        self.layers.iter().filter(|l| l.param_len() > 0).count()
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(|l| l.param_len()).sum()
    }

    /// Runs the forward pass.
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (typically a shape mismatch).
    pub fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x)?;
        }
        Ok(x)
    }

    /// Runs the backward pass from the loss gradient, accumulating
    /// parameter gradients in every trainable layer.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if `forward` was not
    /// called first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(())
    }

    /// Applies accumulated gradients through `optimizer` and advances its
    /// timestep, then clears the gradients.
    ///
    /// # Errors
    ///
    /// Returns an error if a layer's parameter buffers are inconsistent
    /// (cannot happen through the public API).
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) -> Result<(), NnError> {
        let mut trainable_idx = 0usize;
        for layer in &mut self.layers {
            if layer.param_len() == 0 {
                continue;
            }
            let mut params = layer.params().expect("trainable layer must expose params");
            let grads = layer.grads().expect("trainable layer must expose grads");
            optimizer.step(trainable_idx, params.values_mut(), grads.values());
            layer.set_params(&params)?;
            layer.zero_grads();
            trainable_idx += 1;
        }
        optimizer.advance();
        Ok(())
    }

    /// One optimization step on a batch: forward, loss, backward, update.
    /// Returns the batch loss before the update.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors from the layers or the loss.
    pub fn train_batch(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: &SoftmaxCrossEntropy,
        optimizer: &mut dyn Optimizer,
    ) -> Result<f32, NnError> {
        let logits = self.forward(x)?;
        let (loss_value, dlogits) = loss.loss_and_grad(&logits, labels)?;
        self.backward(&dlogits)?;
        self.apply_gradients(optimizer)?;
        Ok(loss_value)
    }

    /// Evaluates loss and accuracy on a labelled batch without updating.
    ///
    /// # Errors
    ///
    /// Propagates shape/label errors from the layers or the loss.
    pub fn evaluate(
        &mut self,
        x: &Tensor,
        labels: &[usize],
        loss: &SoftmaxCrossEntropy,
    ) -> Result<Evaluation, NnError> {
        let logits = self.forward(x)?;
        loss.evaluate(&logits, labels)
    }

    /// Extracts the per-layer parameter vectors of all trainable layers.
    pub fn params(&self) -> ModelParams {
        ModelParams::from_layers(
            self.layers
                .iter()
                .filter(|l| l.param_len() > 0)
                .map(|l| l.params().expect("trainable layer must expose params"))
                .collect(),
        )
    }

    /// Loads per-layer parameter vectors into the trainable layers.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::LayerCountMismatch`] if the layer count differs,
    /// or [`NnError::ParamLengthMismatch`] if any vector has the wrong
    /// length (the model is left partially updated only up to the failing
    /// layer; callers treat this as fatal).
    pub fn set_params(&mut self, params: &ModelParams) -> Result<(), NnError> {
        let trainable: Vec<&mut Box<dyn Layer>> = self
            .layers
            .iter_mut()
            .filter(|l| l.param_len() > 0)
            .collect();
        if trainable.len() != params.num_layers() {
            return Err(NnError::LayerCountMismatch {
                expected: trainable.len(),
                actual: params.num_layers(),
            });
        }
        for (i, layer) in trainable.into_iter().enumerate() {
            layer.set_params(params.layer(i).expect("bounds checked"))?;
        }
        Ok(())
    }

    /// Extracts the accumulated gradients of all trainable layers as
    /// per-layer vectors (aligned with [`Sequential::params`]).
    pub fn grads(&self) -> ModelParams {
        ModelParams::from_layers(
            self.layers
                .iter()
                .filter(|l| l.param_len() > 0)
                .map(|l| l.grads().expect("trainable layer must expose grads"))
                .collect(),
        )
    }

    /// Clears accumulated gradients in every layer.
    pub fn zero_grads(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grads();
        }
    }

    /// Per-layer parameter signature (lengths of each trainable layer).
    pub fn signature(&self) -> Vec<usize> {
        self.layers
            .iter()
            .filter(|l| l.param_len() > 0)
            .map(|l| l.param_len())
            .collect()
    }

    /// Layer names in order, for diagnostics.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Adam, Dense, Flatten, LayerParams, Relu, Sgd};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn xor_model(seed: u64) -> Sequential {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut m = Sequential::new();
        m.push(Dense::new(2, 8, &mut rng));
        m.push(Relu::new());
        m.push(Dense::new(8, 2, &mut rng));
        m
    }

    fn xor_data() -> (Tensor, Vec<usize>) {
        let x = Tensor::from_vec(vec![4, 2], vec![0., 0., 0., 1., 1., 0., 1., 1.]).unwrap();
        (x, vec![0, 1, 1, 0])
    }

    #[test]
    fn counts_layers_and_parameters() {
        let m = xor_model(0);
        assert_eq!(m.num_layers(), 3);
        assert_eq!(m.num_trainable_layers(), 2);
        assert_eq!(m.num_parameters(), 2 * 8 + 8 + 8 * 2 + 2);
        assert_eq!(m.signature(), vec![24, 18]);
    }

    #[test]
    fn learns_xor_with_sgd() {
        let mut m = xor_model(42);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Sgd::new(0.5);
        for _ in 0..800 {
            m.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        let eval = m.evaluate(&x, &y, &loss).unwrap();
        assert_eq!(eval.accuracy, 1.0, "XOR not learned, loss {}", eval.loss);
    }

    #[test]
    fn learns_xor_with_adam() {
        let mut m = xor_model(43);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::new();
        let mut opt = Adam::new(0.05);
        for _ in 0..300 {
            m.train_batch(&x, &y, &loss, &mut opt).unwrap();
        }
        let eval = m.evaluate(&x, &y, &loss).unwrap();
        assert_eq!(eval.accuracy, 1.0);
    }

    #[test]
    fn params_round_trip_preserves_outputs() {
        let mut m = xor_model(7);
        let (x, _) = xor_data();
        let out1 = m.forward(&x).unwrap();
        let p = m.params();
        let mut m2 = xor_model(8); // different init
        m2.set_params(&p).unwrap();
        let out2 = m2.forward(&x).unwrap();
        assert_eq!(out1, out2);
    }

    #[test]
    fn set_params_validates_layer_count() {
        let mut m = xor_model(0);
        let p = ModelParams::from_layers(vec![LayerParams::from_values(vec![0.0; 24])]);
        assert!(matches!(
            m.set_params(&p),
            Err(NnError::LayerCountMismatch { .. })
        ));
    }

    #[test]
    fn set_params_validates_lengths() {
        let mut m = xor_model(0);
        let p = ModelParams::from_layers(vec![
            LayerParams::from_values(vec![0.0; 24]),
            LayerParams::from_values(vec![0.0; 99]),
        ]);
        assert!(matches!(
            m.set_params(&p),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn grads_align_with_params() {
        let mut m = xor_model(9);
        let (x, y) = xor_data();
        let loss = SoftmaxCrossEntropy::new();
        let logits = m.forward(&x).unwrap();
        let (_, d) = loss.loss_and_grad(&logits, &y).unwrap();
        m.backward(&d).unwrap();
        let g = m.grads();
        assert_eq!(g.signature(), m.params().signature());
        assert!(g.flatten().iter().any(|&v| v != 0.0));
        m.zero_grads();
        assert!(m.grads().flatten().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn deterministic_training_given_seed() {
        let run = || {
            let mut m = xor_model(11);
            let (x, y) = xor_data();
            let loss = SoftmaxCrossEntropy::new();
            let mut opt = Sgd::new(0.1);
            for _ in 0..50 {
                m.train_batch(&x, &y, &loss, &mut opt).unwrap();
            }
            m.params()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn parameter_free_model_has_empty_params() {
        let mut m = Sequential::new();
        m.push(Flatten::new());
        assert_eq!(m.num_trainable_layers(), 0);
        assert_eq!(m.params().num_layers(), 0);
    }
}
