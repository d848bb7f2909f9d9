//! Fully connected (dense) layer.

use crate::layers::Layer;
use crate::{NnError, ParamBlock};
use mixnn_tensor::{init, matmul_into, matmul_nt_into, matmul_tn_into, Gathered, Tensor};
use rand::Rng;

/// A fully connected layer computing `Y = X·W + b`.
///
/// Input is `[batch, in_features]`, output `[batch, out_features]`. The
/// weight matrix is stored `[in_features, out_features]` so the forward pass
/// is a plain matmul. Its [`ParamBlock`] holds `W` as the weights and `b`
/// as the bias, so the flat parameter layout — part of the wire format the
/// MixNN proxy shuffles — is `W` row-major followed by `b`.
///
/// The three products run the `mixnn_tensor` slice kernels over buffers the
/// layer keeps from pass to pass (a copy of its input, the gathered
/// non-zero inputs, the transposed weights, one `dW` block) into the
/// caller's tensors, so once warm a forward and a backward pass allocate
/// nothing. Every kernel writes every element of its output, so no buffer
/// is zero-filled first.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Dense, Layer};
/// use mixnn_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut layer = Dense::new(3, 2, &mut rng);
/// let x = Tensor::ones(vec![4, 3]);
/// let mut y = Tensor::default();
/// layer.forward(&x, &mut y)?;
/// assert_eq!(y.dims(), &[4, 2]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Dense {
    in_features: usize,
    out_features: usize,
    block: ParamBlock,
    cached_input: Option<Tensor>,
    /// Non-zero inputs of one row (forward) or one input feature
    /// (backward), gathered by the products that skip zeros.
    gathered: Vec<Gathered>,
    /// `W` transposed, for the input gradient.
    transposed: Vec<f32>,
    /// `Xᵀ·dY` of one backward pass, summed from +0.0 before it is added
    /// to the accumulated weight gradient.
    dw: Vec<f32>,
}

impl Dense {
    /// Creates a dense layer with Glorot-uniform weights and zero bias.
    pub fn new<R: Rng + ?Sized>(in_features: usize, out_features: usize, rng: &mut R) -> Self {
        Dense {
            in_features,
            out_features,
            block: ParamBlock::new(
                "dense",
                init::glorot_uniform(
                    in_features,
                    out_features,
                    vec![in_features, out_features],
                    rng,
                ),
                Tensor::zeros(vec![out_features]),
            ),
            cached_input: None,
            gathered: Vec::new(),
            transposed: Vec::new(),
            dw: Vec::new(),
        }
    }

    /// Input feature count.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Output feature count.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The weight matrix, `[in_features, out_features]`.
    pub fn weights(&self) -> &Tensor {
        &self.block.weights
    }

    /// The bias vector, `[out_features]`.
    pub fn bias(&self) -> &Tensor {
        &self.block.bias
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        if input.rank() != 2 || input.dims()[1] != self.in_features {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("[batch, {}]", self.in_features),
                actual: input.dims().to_vec(),
            });
        }
        let (batch, inf, of) = (input.dims()[0], self.in_features, self.out_features);
        output.resize(&[batch, of]);
        let (weights, bias) = (self.block.weights.data(), self.block.bias.data());
        matmul_into(
            input.data(),
            weights,
            batch,
            inf,
            of,
            &mut self.gathered,
            output.data_mut(),
        );
        let data = output.data_mut();
        for b in 0..batch {
            for (o, &bias) in data[b * of..][..of].iter_mut().zip(bias) {
                *o += bias;
            }
        }
        let cached = self.cached_input.get_or_insert_with(Tensor::default);
        cached.resize(input.dims());
        cached.data_mut().copy_from_slice(input.data());
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        self.backward_params(grad_output)?;
        // dX = dY · Wᵀ.
        let (batch, inf, of) = (grad_output.dims()[0], self.in_features, self.out_features);
        grad_input.resize(&[batch, inf]);
        matmul_nt_into(
            grad_output.data(),
            self.block.weights.data(),
            batch,
            of,
            inf,
            &mut self.transposed,
            grad_input.data_mut(),
        );
        Ok(())
    }

    /// The weight and bias gradients only: as a model's first layer the
    /// input gradient `dY · Wᵀ` is never read, so it is not computed.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name().to_string(),
            })?;
        if grad_output.rank() != 2
            || grad_output.dims()[1] != self.out_features
            || grad_output.dims()[0] != input.dims()[0]
        {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("[{}, {}]", input.dims()[0], self.out_features),
                actual: grad_output.dims().to_vec(),
            });
        }
        let (batch, inf, of) = (input.dims()[0], self.in_features, self.out_features);
        let dy = grad_output.data();
        // dW = Xᵀ · dY, summed on its own and then accumulated: adding it
        // into the running gradient term by term would change the order in
        // which backward passes over several batches accumulate.
        self.dw.resize(inf * of, 0.0);
        matmul_tn_into(
            input.data(),
            dy,
            batch,
            inf,
            of,
            &mut self.gathered,
            &mut self.dw,
        );
        for (g, &d) in self.block.grad_weights.data_mut().iter_mut().zip(&self.dw) {
            *g += d;
        }
        // db = column sums of dY, accumulated.
        let gb = self.block.grad_bias.data_mut();
        for b in 0..batch {
            for (g, &d) in gb.iter_mut().zip(&dy[b * of..][..of]) {
                *g += d;
            }
        }
        Ok(())
    }

    fn params(&self) -> Option<&ParamBlock> {
        Some(&self.block)
    }

    fn params_mut(&mut self) -> Option<&mut ParamBlock> {
        Some(&mut self.block)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LayerParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 3, &mut rng);
        // Set known parameters: W = rows of ones, b = [1, 2, 3].
        let mut params = vec![1.0f32; 6];
        params.extend_from_slice(&[1.0, 2.0, 3.0]);
        layer.block.load(&LayerParams::from_values(params)).unwrap();
        let x = Tensor::from_vec(vec![1, 2], vec![10.0, 20.0]).unwrap();
        let mut y = Tensor::default();
        layer.forward(&x, &mut y).unwrap();
        assert_eq!(y.data(), &[31.0, 32.0, 33.0]);
    }

    #[test]
    fn forward_rejects_wrong_width() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 3, &mut rng);
        let x = Tensor::zeros(vec![1, 5]);
        assert!(matches!(
            layer.forward(&x, &mut Tensor::default()),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn backward_before_forward_errors() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(2, 3, &mut rng);
        let g = Tensor::zeros(vec![1, 3]);
        assert!(matches!(
            layer.backward(&g, &mut Tensor::default()),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    #[test]
    fn params_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let layer = Dense::new(4, 5, &mut rng);
        let p = layer.block.to_layer_params();
        assert_eq!(p.len(), 4 * 5 + 5);
        let mut other = Dense::new(4, 5, &mut rng);
        other.block.load(&p).unwrap();
        assert_eq!(other.block.to_layer_params(), p);
    }

    #[test]
    fn set_params_rejects_wrong_len() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let bad = LayerParams::from_values(vec![0.0; 3]);
        assert!(matches!(
            layer.block.load(&bad),
            Err(NnError::ParamLengthMismatch { .. })
        ));
    }

    #[test]
    fn gradients_accumulate_until_zeroed() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Tensor::ones(vec![1, 2]);
        let g = Tensor::ones(vec![1, 2]);
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        layer.forward(&x, &mut y).unwrap();
        layer.backward(&g, &mut dx).unwrap();
        let g1 = layer.block.grads();
        layer.forward(&x, &mut y).unwrap();
        layer.backward(&g, &mut dx).unwrap();
        let g2 = layer.block.grads();
        for (a, b) in g1.values().iter().zip(g2.values()) {
            assert!((b - 2.0 * a).abs() < 1e-6);
        }
        layer.block.zero_grads();
        assert!(layer.block.grads().values().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(vec![2, 3], 0.0, 1.0, &mut rng);
        crate::gradcheck::check_layer(Box::new(layer), &x, 1e-2).unwrap();
    }
}
