//! The sequential model container.

use crate::layers::Layer;
use crate::loss::{Evaluation, SoftmaxCrossEntropy};
use crate::optimizer::Optimizer;
use crate::params::{ModelParams, ParamBlock};
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
/// Training allocates only while the model meets a new batch shape. The
/// model keeps two activation-sized buffers: the forward pass ping-pongs
/// between them, each layer reading its input from one and writing its
/// output into the other, and the backward pass reuses them alike for the
/// input gradients. It also keeps the loss gradient, each layer keeps what
/// its own backward pass needs, and the optimizer steps the parameters
/// where they lie. A model's first layer skips its input gradient; a
/// parameter-free or dense first layer runs [`Layer::backward_params`]'s
/// default, which computes it into a fresh tensor.
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
    /// The activations of the forward pass, then the input gradients of
    /// the backward pass: each layer reads one and writes the other.
    buffers: [Tensor; 2],
    /// The loss gradient of the last training batch.
    dlogits: Tensor,
}

impl Sequential {
    /// Creates an empty model.
    pub fn new() -> Self {
        Sequential::default()
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
        self.blocks().count()
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&self) -> usize {
        self.blocks().map(ParamBlock::len).sum()
    }

    /// The trainable layers' parameter blocks, network order.
    fn blocks(&self) -> impl Iterator<Item = &ParamBlock> {
        self.layers.iter().filter_map(|l| l.params())
    }

    fn blocks_mut(&mut self) -> impl Iterator<Item = &mut ParamBlock> {
        self.layers.iter_mut().filter_map(|l| l.params_mut())
    }

    /// Runs the forward pass and lends the output, which the model keeps
    /// until its next pass (an empty model lends `input` back).
    ///
    /// # Errors
    ///
    /// Propagates the first layer error (typically a shape mismatch).
    pub fn forward<'a>(&'a mut self, input: &'a Tensor) -> Result<&'a Tensor, NnError> {
        forward(&mut self.layers, &mut self.buffers, input)
    }

    /// Runs the backward pass from the loss gradient, accumulating
    /// parameter gradients in every trainable layer. The first layer's
    /// input gradient — the gradient of the data — is never computed
    /// ([`Layer::backward_params`]).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if `forward` was not
    /// called first.
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        backward(&mut self.layers, &mut self.buffers, grad_output)
    }

    /// Clears every trainable layer's accumulated gradients.
    pub fn zero_grads(&mut self) {
        self.blocks_mut().for_each(ParamBlock::zero_grads);
    }

    /// Applies accumulated gradients through `optimizer` and advances its
    /// timestep, then clears the gradients.
    ///
    /// Every block is stepped where it lies: trainable layer `i`'s weights
    /// are the optimizer's slot `2i` and its bias slot `2i + 1`. Both
    /// optimizers work element by element, so splitting a layer into two
    /// slots changes no value.
    pub fn apply_gradients(&mut self, optimizer: &mut dyn Optimizer) {
        for (i, block) in self.blocks_mut().enumerate() {
            block.step(i, optimizer);
        }
        optimizer.advance();
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
        let logits = forward(&mut self.layers, &mut self.buffers, x)?;
        let loss_value = loss.loss_and_grad_into(logits, labels, &mut self.dlogits)?;
        backward(&mut self.layers, &mut self.buffers, &self.dlogits)?;
        self.apply_gradients(optimizer);
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
        loss.evaluate(logits, labels)
    }

    /// Extracts the per-layer parameter vectors of all trainable layers.
    pub fn params(&self) -> ModelParams {
        ModelParams::from_layers(self.blocks().map(ParamBlock::to_layer_params).collect())
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
        let trainable = self.num_trainable_layers();
        if trainable != params.num_layers() {
            return Err(NnError::LayerCountMismatch {
                expected: trainable,
                actual: params.num_layers(),
            });
        }
        for (block, layer) in self.blocks_mut().zip(params.iter()) {
            block.load(layer)?;
        }
        Ok(())
    }

    /// Per-layer parameter signature (lengths of each trainable layer).
    pub fn signature(&self) -> Vec<usize> {
        self.blocks().map(ParamBlock::len).collect()
    }

    /// Layer names in order, for diagnostics.
    pub fn layer_names(&self) -> Vec<&'static str> {
        self.layers.iter().map(|l| l.name()).collect()
    }
}

/// [`Sequential::forward`] over `layers`, the activations ping-ponging
/// between `buffers`.
fn forward<'a>(
    layers: &mut [Box<dyn Layer>],
    buffers: &'a mut [Tensor; 2],
    input: &'a Tensor,
) -> Result<&'a Tensor, NnError> {
    // Which buffer holds the last layer's output.
    let mut last = None;
    for layer in layers {
        let [a, b] = &mut *buffers;
        match last {
            None => layer.forward(input, a)?,
            Some(0) => layer.forward(a, b)?,
            Some(_) => layer.forward(b, a)?,
        }
        last = Some(last.map_or(0, |i| 1 - i));
    }
    Ok(last.map_or(input, |i| &buffers[i]))
}

/// [`Sequential::backward`] over `layers`, the input gradients ping-ponging
/// between `buffers`.
fn backward(
    layers: &mut [Box<dyn Layer>],
    buffers: &mut [Tensor; 2],
    grad_output: &Tensor,
) -> Result<(), NnError> {
    let Some((first, rest)) = layers.split_first_mut() else {
        return Ok(());
    };
    let [mut read, mut write] = buffers.each_mut();
    let mut g = grad_output;
    for layer in rest.iter_mut().rev() {
        layer.backward(g, write)?;
        std::mem::swap(&mut read, &mut write);
        g = read;
    }
    first.backward_params(g)
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
        let out1 = m.forward(&x).unwrap().clone();
        let p = m.params();
        let mut m2 = xor_model(8); // different init
        m2.set_params(&p).unwrap();
        let out2 = m2.forward(&x).unwrap();
        assert_eq!(&out1, out2);
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
        let (_, d) = loss.loss_and_grad(logits, &y).unwrap();
        m.backward(&d).unwrap();
        let grads =
            |m: &Sequential| ModelParams::from_layers(m.blocks().map(ParamBlock::grads).collect());
        let g = grads(&m);
        assert_eq!(g.signature(), m.params().signature());
        assert!(g.flatten().iter().any(|&v| v != 0.0));
        m.zero_grads();
        assert!(grads(&m).flatten().iter().all(|&v| v == 0.0));
    }

    /// The parameter gradients of `model` after two backward passes on
    /// `x`, bit for bit the same whether the first layer skips its input
    /// gradient (`Sequential::backward`) or every layer runs its full
    /// `backward`.
    fn assert_first_layer_path_changes_no_gradient(mut model: Sequential, x: &Tensor) {
        let loss = SoftmaxCrossEntropy::new();
        let mut twin = model.clone();
        for _ in 0..2 {
            let logits = model.forward(x).unwrap();
            twin.forward(x).unwrap();
            let labels: Vec<usize> = (0..logits.dims()[0]).map(|i| i % 2).collect();
            let (_, d) = loss.loss_and_grad(logits, &labels).unwrap();
            model.backward(&d).unwrap();
            let mut g = d;
            for layer in twin.layers.iter_mut().rev() {
                let mut dx = Tensor::default();
                layer.backward(&g, &mut dx).unwrap();
                g = dx;
            }
        }
        assert_eq!(model.num_trainable_layers(), twin.num_trainable_layers());
        for (i, (a, b)) in model.blocks().zip(twin.blocks()).enumerate() {
            let (a, b) = (a.grads(), b.grads());
            assert!(
                a.values().iter().any(|&v| v != 0.0),
                "block {i} has no gradient"
            );
            let bits = |p: &LayerParams| p.values().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a), bits(&b), "block {i}");
        }
    }

    #[test]
    fn first_layer_skipping_its_input_gradient_changes_no_parameter_gradient() {
        let mut rng = StdRng::seed_from_u64(34);
        let spec = crate::zoo::InputSpec::new(1, 8, 8);
        let x = Tensor::randn(vec![16, 1, 8, 8], 0.0, 1.0, &mut rng);
        // A convolution first (the paper's models), a locally connected
        // layer first, and a dense layer first (the default path).
        assert_first_layer_path_changes_no_gradient(
            crate::zoo::conv2_fc3(spec, 2, 4, 32, &mut rng),
            &x,
        );
        let mut local = Sequential::new();
        local.push(crate::LocallyConnected2d::new(1, 2, 3, 8, 8, &mut rng));
        local.push(Relu::new());
        local.push(Flatten::new());
        local.push(Dense::new(2 * 6 * 6, 2, &mut rng));
        assert_first_layer_path_changes_no_gradient(local, &x);
        let (x, _) = xor_data();
        assert_first_layer_path_changes_no_gradient(xor_model(34), &x);
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
