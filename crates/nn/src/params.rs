use crate::{NnError, Optimizer};
use mixnn_tensor::Tensor;
use std::fmt;

/// The flat parameter vector of one trainable layer.
///
/// This is the *unit of mixing* in MixNN: the proxy swaps whole
/// `LayerParams` between participants, never individual scalars, so the
/// per-layer aggregation on the server is unchanged.
///
/// # Example
///
/// ```
/// use mixnn_nn::LayerParams;
///
/// let p = LayerParams::from_values(vec![0.5, -0.5]);
/// assert_eq!(p.len(), 2);
/// assert_eq!(p.values()[0], 0.5);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LayerParams(Vec<f32>);

impl LayerParams {
    /// Wraps a flat parameter vector.
    pub fn from_values(values: Vec<f32>) -> Self {
        LayerParams(values)
    }

    /// The parameter values.
    pub fn values(&self) -> &[f32] {
        &self.0
    }

    /// Mutable access to the parameter values.
    pub fn values_mut(&mut self) -> &mut [f32] {
        &mut self.0
    }

    /// Number of parameters.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the layer holds no parameters.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Element-wise `self - other`, or `None` on length mismatch.
    pub fn delta(&self, other: &LayerParams) -> Option<LayerParams> {
        if self.len() != other.len() {
            return None;
        }
        Some(LayerParams(
            self.0
                .iter()
                .zip(other.0.iter())
                .map(|(a, b)| a - b)
                .collect(),
        ))
    }
}

impl fmt::Display for LayerParams {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LayerParams(len={})", self.0.len())
    }
}

/// The trainable state of one layer: its weights and bias, and the
/// gradients accumulating for each, shaped alike.
///
/// This is the one place that knows a layer's wire layout — the weights
/// row-major, then the bias: [`ParamBlock::to_layer_params`] writes it and
/// [`ParamBlock::load`] reads it. Training never leaves the block:
/// [`crate::Sequential::apply_gradients`] steps the optimizer over the
/// weights and the bias where they lie and then zeroes their gradients.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Dense, Layer, LayerParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut dense = Dense::new(2, 1, &mut StdRng::seed_from_u64(0));
/// let block = dense.params_mut().expect("dense layers are trainable");
/// // Weights [[1], [2]], then bias [3].
/// block.load(&LayerParams::from_values(vec![1.0, 2.0, 3.0]))?;
/// assert_eq!(block.to_layer_params().values(), &[1.0, 2.0, 3.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ParamBlock {
    /// Kind of the owning layer, for error messages.
    pub(crate) layer: &'static str,
    pub(crate) weights: Tensor,
    pub(crate) bias: Tensor,
    pub(crate) grad_weights: Tensor,
    pub(crate) grad_bias: Tensor,
}

impl ParamBlock {
    /// A block of `layer`'s `weights` and `bias`, gradients zeroed.
    pub(crate) fn new(layer: &'static str, weights: Tensor, bias: Tensor) -> Self {
        ParamBlock {
            layer,
            grad_weights: Tensor::zeros(weights.dims().to_vec()),
            grad_bias: Tensor::zeros(bias.dims().to_vec()),
            weights,
            bias,
        }
    }

    /// Number of trainable scalars, weights and bias together.
    pub(crate) fn len(&self) -> usize {
        self.weights.len() + self.bias.len()
    }

    /// The values in wire layout: the weights row-major, then the bias.
    pub fn to_layer_params(&self) -> LayerParams {
        let mut values = Vec::with_capacity(self.len());
        values.extend_from_slice(self.weights.data());
        values.extend_from_slice(self.bias.data());
        LayerParams(values)
    }

    /// Loads values laid out as [`ParamBlock::to_layer_params`] writes them.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`], leaving the block as it
    /// was, if `params` holds a different number of values than the block.
    pub fn load(&mut self, params: &LayerParams) -> Result<(), NnError> {
        if params.len() != self.len() {
            return Err(NnError::ParamLengthMismatch {
                layer: self.layer.to_string(),
                expected: self.len(),
                actual: params.len(),
            });
        }
        let (weights, bias) = params.values().split_at(self.weights.len());
        self.weights.data_mut().copy_from_slice(weights);
        self.bias.data_mut().copy_from_slice(bias);
        Ok(())
    }

    /// Clears the accumulated gradients.
    pub(crate) fn zero_grads(&mut self) {
        self.grad_weights.data_mut().fill(0.0);
        self.grad_bias.data_mut().fill(0.0);
    }

    /// Steps `optimizer` over the values in place — the weights as its slot
    /// `2 * index`, the bias as slot `2 * index + 1` — then zeroes the
    /// gradients.
    pub(crate) fn step(&mut self, index: usize, optimizer: &mut dyn Optimizer) {
        optimizer.step(2 * index, self.weights.data_mut(), self.grad_weights.data());
        optimizer.step(2 * index + 1, self.bias.data_mut(), self.grad_bias.data());
        self.zero_grads();
    }
}

/// The full parameter state of a model, one [`LayerParams`] per trainable
/// layer, in network order.
///
/// `ModelParams` is what travels in the federated-learning protocol: the
/// server disseminates one, each client returns one (its locally refined
/// variant), the MixNN proxy permutes per-layer entries across clients, and
/// the server averages them with [`ModelParams::mean`].
///
/// # Example
///
/// ```
/// use mixnn_nn::{LayerParams, ModelParams};
///
/// let a = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
/// let b = ModelParams::from_layers(vec![LayerParams::from_values(vec![3.0])]);
/// let mean = ModelParams::mean(&[a, b]).unwrap();
/// assert_eq!(mean.layer(0).unwrap().values(), &[2.0]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    layers: Vec<LayerParams>,
}

impl ModelParams {
    /// Builds model parameters from per-layer vectors, network order.
    pub fn from_layers(layers: Vec<LayerParams>) -> Self {
        ModelParams { layers }
    }

    /// Number of trainable layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Parameter vector of layer `i`, if present.
    pub fn layer(&self, i: usize) -> Option<&LayerParams> {
        self.layers.get(i)
    }

    /// Iterates over per-layer parameter vectors in network order.
    pub fn iter(&self) -> impl Iterator<Item = &LayerParams> + Clone {
        self.layers.iter()
    }

    /// Iterates mutably over per-layer parameter vectors in network order:
    /// the values can be rewritten, the shape cannot change.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut LayerParams> {
        self.layers.iter_mut()
    }

    /// Consumes the model parameters and returns the per-layer vectors.
    pub fn into_layers(self) -> Vec<LayerParams> {
        self.layers
    }

    /// Total number of scalars across all layers.
    pub fn total_len(&self) -> usize {
        self.layers.iter().map(LayerParams::len).sum()
    }

    /// Per-layer lengths, network order — the model's "wire signature".
    ///
    /// Two `ModelParams` are *compatible* (mixable, aggregatable) iff their
    /// signatures are equal.
    pub fn signature(&self) -> Vec<usize> {
        self.layers.iter().map(LayerParams::len).collect()
    }

    /// Whether `other` has the same [`signature`](Self::signature) — the
    /// one compatibility check behind [`delta`](Self::delta),
    /// [`add`](Self::add), [`mean`](Self::mean) and the distances — without
    /// materialising either signature.
    pub fn same_shape(&self, other: &ModelParams) -> bool {
        self.layers.len() == other.layers.len()
            && self
                .layers
                .iter()
                .zip(other.layers.iter())
                .all(|(a, b)| a.len() == b.len())
    }

    /// Concatenates all layers into one flat vector (the "gradient vector"
    /// view used by ∇Sim and the Fig. 9 neighbour analysis).
    pub fn flatten(&self) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.total_len());
        for l in &self.layers {
            out.extend_from_slice(l.values());
        }
        out
    }

    /// Element-wise `self - other` across all layers, or `None` if the
    /// signatures differ.
    pub fn delta(&self, other: &ModelParams) -> Option<ModelParams> {
        if !self.same_shape(other) {
            return None;
        }
        let layers = self
            .layers
            .iter()
            .zip(other.layers.iter())
            .map(|(a, b)| a.delta(b).expect("signatures checked"))
            .collect();
        Some(ModelParams { layers })
    }

    /// Element-wise sum `self + other`, or `None` if the signatures differ.
    pub fn add(&self, other: &ModelParams) -> Option<ModelParams> {
        if !self.same_shape(other) {
            return None;
        }
        let layers = self
            .layers
            .iter()
            .zip(other.layers.iter())
            .map(|(a, b)| LayerParams(a.0.iter().zip(b.0.iter()).map(|(x, y)| x + y).collect()))
            .collect();
        Some(ModelParams { layers })
    }

    /// Scales every parameter by `s`, returning a new value.
    pub fn scale(&self, s: f32) -> ModelParams {
        ModelParams {
            layers: self
                .layers
                .iter()
                .map(|l| LayerParams(l.0.iter().map(|v| v * s).collect()))
                .collect(),
        }
    }

    /// FedAvg: the per-layer, element-wise mean of a set of compatible model
    /// parameters, given by reference (`&[ModelParams]`, or any cloneable
    /// exact-size iterator of `&ModelParams`).
    ///
    /// Returns `None` if `updates` is empty or the shapes disagree.
    ///
    /// The result is a pure function of each scalar column's *multiset* of
    /// values, so it is **bitwise permutation-invariant even in floating
    /// point**: plain sequential summation would round differently after
    /// MixNN permutes the updates, turning the paper's §4.2 theorem
    /// `Agr(A) = Agr(B)` into an approximation, whereas this mean lets the
    /// equivalence tests assert bitwise equality. Each layer goes through
    /// [`mixnn_tensor::vecmath::mean_into`], which documents the numerics:
    /// the pre-rounding grid, the `2^-43 · max|v|` error bound, the policy
    /// for NaN and ±∞, and why the result is reproducible rather than
    /// correctly rounded.
    pub fn mean<'a, I>(updates: I) -> Option<ModelParams>
    where
        I: IntoIterator<Item = &'a ModelParams>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let updates = updates.into_iter();
        let first = updates.clone().next()?;
        let mut out = ModelParams {
            layers: first
                .layers
                .iter()
                .map(|shape| LayerParams(vec![0.0; shape.len()]))
                .collect(),
        };
        Self::mean_into(updates, &mut out).then_some(out)
    }

    /// [`ModelParams::mean`] written into `out`'s buffers, which must have
    /// the updates' shape: the same bits, and no allocation. Returns
    /// `false`, leaving `out` as it was, if `updates` is empty or any
    /// update's shape differs from `out`'s.
    pub fn mean_into<'a, I>(updates: I, out: &mut ModelParams) -> bool
    where
        I: IntoIterator<Item = &'a ModelParams>,
        I::IntoIter: ExactSizeIterator + Clone,
    {
        let updates = updates.into_iter();
        if updates.len() == 0 || !updates.clone().all(|u| out.same_shape(u)) {
            return false;
        }
        for (l, layer) in out.layers.iter_mut().enumerate() {
            let column = updates.clone().map(|u| u.layers[l].values());
            mixnn_tensor::vecmath::mean_into(column, &mut layer.0);
        }
        true
    }

    /// Adds i.i.d. Gaussian noise `N(0, sigma²)` to every scalar — the
    /// "noisy gradient" baseline of the paper (local-DP style perturbation).
    pub fn perturbed<R: rand::Rng + ?Sized>(&self, sigma: f32, rng: &mut R) -> ModelParams {
        ModelParams {
            layers: self
                .layers
                .iter()
                .map(|l| {
                    LayerParams(
                        l.0.iter()
                            .map(|v| v + sigma * sample_standard_normal(rng))
                            .collect(),
                    )
                })
                .collect(),
        }
    }

    /// L2 distance between the flattened views of two compatible models, or
    /// `None` if signatures differ.
    pub fn l2_distance(&self, other: &ModelParams) -> Option<f32> {
        if !self.same_shape(other) {
            return None;
        }
        Some(mixnn_tensor::vecmath::euclidean_distance(
            &self.flatten(),
            &other.flatten(),
        ))
    }

    /// Cosine similarity between the flattened views, or `None` if
    /// signatures differ.
    pub fn cosine_similarity(&self, other: &ModelParams) -> Option<f32> {
        if !self.same_shape(other) {
            return None;
        }
        Some(mixnn_tensor::vecmath::cosine_similarity(
            &self.flatten(),
            &other.flatten(),
        ))
    }
}

fn sample_standard_normal<R: rand::Rng + ?Sized>(rng: &mut R) -> f32 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    ((-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()) as f32
}

#[cfg(test)]
impl ParamBlock {
    /// The accumulated gradients in wire layout, aligned with
    /// [`ParamBlock::to_layer_params`].
    pub(crate) fn grads(&self) -> LayerParams {
        let mut grads = self.clone();
        std::mem::swap(&mut grads.weights, &mut grads.grad_weights);
        std::mem::swap(&mut grads.bias, &mut grads.grad_bias);
        grads.to_layer_params()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn mp(vals: &[&[f32]]) -> ModelParams {
        ModelParams::from_layers(
            vals.iter()
                .map(|v| LayerParams::from_values(v.to_vec()))
                .collect(),
        )
    }

    #[test]
    fn signature_and_total_len() {
        let p = mp(&[&[1., 2.], &[3.]]);
        assert_eq!(p.signature(), vec![2, 1]);
        assert_eq!(p.total_len(), 3);
        assert_eq!(p.flatten(), vec![1., 2., 3.]);
    }

    #[test]
    fn delta_and_add_are_inverse() {
        let a = mp(&[&[1., 2.], &[3.]]);
        let b = mp(&[&[0.5, 1.0], &[1.0]]);
        let d = a.delta(&b).unwrap();
        let restored = d.add(&b).unwrap();
        assert_eq!(restored, a);
    }

    #[test]
    fn incompatible_signatures_are_rejected() {
        let a = mp(&[&[1., 2.]]);
        let b = mp(&[&[1.]]);
        assert!(a.delta(&b).is_none());
        assert!(a.add(&b).is_none());
        assert!(a.l2_distance(&b).is_none());
        assert!(ModelParams::mean(&[a, b]).is_none());
    }

    #[test]
    fn mean_averages_per_layer() {
        let a = mp(&[&[2., 4.], &[6.]]);
        let b = mp(&[&[0., 0.], &[0.]]);
        let m = ModelParams::mean(&[a, b]).unwrap();
        assert_eq!(m.layer(0).unwrap().values(), &[1., 2.]);
        assert_eq!(m.layer(1).unwrap().values(), &[3.]);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert!(ModelParams::mean(&[]).is_none());
    }

    #[test]
    fn mean_is_bitwise_permutation_invariant() {
        // Values chosen so naive sequential f32 summation differs between
        // orderings; the canonical-order mean must not.
        let updates: Vec<ModelParams> = [1.0e8f32, 1.0, -1.0e8, 0.1, 7.7, -3.3]
            .iter()
            .map(|&v| mp(&[&[v, v * 0.3], &[v * 1.7]]))
            .collect();
        let mut reversed = updates.clone();
        reversed.reverse();
        let mut rotated = updates.clone();
        rotated.rotate_left(2);
        let a = ModelParams::mean(&updates).unwrap();
        assert_eq!(a, ModelParams::mean(&reversed).unwrap());
        assert_eq!(a, ModelParams::mean(&rotated).unwrap());
    }

    #[test]
    fn mean_is_invariant_under_per_layer_mixing() {
        // What the proxy does: each layer permuted across updates on its
        // own, with layers longer than one kernel tile and values whose
        // naive sum depends on the order.
        let len = mixnn_tensor::vecmath::MEAN_TILE + 3;
        let mut rng = StdRng::seed_from_u64(11);
        let mut layers: Vec<Vec<LayerParams>> = (0..2)
            .map(|_| {
                (0..7)
                    .map(|_| {
                        let values = (0..len).map(|_| 10f32.powf(rng.gen_range(-30.0f32..30.0)));
                        LayerParams::from_values(values.collect())
                    })
                    .collect()
            })
            .collect();
        let assemble = |layers: &[Vec<LayerParams>]| -> Vec<ModelParams> {
            (0..7)
                .map(|u| ModelParams::from_layers(layers.iter().map(|l| l[u].clone()).collect()))
                .collect()
        };
        let original = assemble(&layers);
        layers[0].rotate_left(3);
        layers[1].reverse();
        let mixed = assemble(&layers);
        let expected = ModelParams::mean(&original).unwrap();
        assert_eq!(ModelParams::mean(&mixed).unwrap(), expected);
        // Borrowed updates from any exact-size iterator, not only a slice.
        assert_eq!(ModelParams::mean(mixed.iter().rev()).unwrap(), expected);
    }

    #[test]
    fn mean_into_writes_the_mean_over_the_buffers_it_is_given() {
        let updates: Vec<ModelParams> = [1.0e8f32, 1.0, -1.0e8, 0.1, -0.0]
            .iter()
            .map(|&v| mp(&[&[v, -0.0], &[v * 1.7]]))
            .collect();
        let expected = ModelParams::mean(&updates).unwrap();
        let mut out = mp(&[&[f32::NAN, 5.0], &[-0.0]]);
        let at = out.layer(0).unwrap().values().as_ptr();
        assert!(ModelParams::mean_into(&updates, &mut out));
        assert_eq!(out, expected);
        assert_eq!(
            out.layer(0).unwrap().values()[1].to_bits(),
            (-0.0f32).to_bits()
        );
        assert_eq!(out.layer(0).unwrap().values().as_ptr(), at, "no new buffer");
        // Empty, or shaped unlike `out`: refused, `out` untouched.
        assert!(!ModelParams::mean_into(&[], &mut out));
        assert!(!ModelParams::mean_into(&[mp(&[&[1., 2.]])], &mut out));
        let odd = [updates[0].clone(), mp(&[&[1., 2.], &[3., 4.]])];
        assert!(!ModelParams::mean_into(&odd, &mut out));
        assert_eq!(out, expected);
    }

    #[test]
    fn same_shape_matches_signature_equality() {
        let a = mp(&[&[1., 2.], &[3.]]);
        assert!(a.same_shape(&mp(&[&[0., 0.], &[0.]])));
        assert!(!a.same_shape(&mp(&[&[0., 0.]])));
        assert!(!a.same_shape(&mp(&[&[0.], &[0., 0.]])));
        assert!(!a.same_shape(&mp(&[&[0., 0.], &[0.], &[]])));
    }

    #[test]
    fn perturbed_changes_values_deterministically() {
        let p = mp(&[&[0.0; 8]]);
        let n1 = p.perturbed(1.0, &mut StdRng::seed_from_u64(5));
        let n2 = p.perturbed(1.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(n1, n2);
        assert_ne!(n1, p);
        // sigma = 0 must be a no-op.
        let same = p.perturbed(0.0, &mut StdRng::seed_from_u64(5));
        assert_eq!(same, p);
    }

    #[test]
    fn distances() {
        let a = mp(&[&[0., 0.]]);
        let b = mp(&[&[3., 4.]]);
        assert_eq!(a.l2_distance(&b).unwrap(), 5.0);
        let c = mp(&[&[1., 0.]]);
        let d = mp(&[&[2., 0.]]);
        assert!((c.cosine_similarity(&d).unwrap() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn scale_scales_every_layer() {
        let a = mp(&[&[1., 2.], &[3.]]);
        let s = a.scale(2.0);
        assert_eq!(s.flatten(), vec![2., 4., 6.]);
    }
}
