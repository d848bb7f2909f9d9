//! Activation layers.

use crate::layers::Layer;
use crate::NnError;
use mixnn_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)` element-wise.
///
/// Parameter-free. The layer keeps which of its outputs are positive, and
/// `backward` masks the incoming gradient with that: `v.max(0.0)` is
/// positive exactly when `v` is, for every f32 — a NaN input gives +0.0,
/// and ±0.0 gives ±0.0 — so the mask is the input's without keeping a copy
/// of the input.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Layer, Relu};
/// use mixnn_tensor::Tensor;
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut relu = Relu::new();
/// let x = Tensor::from_vec(vec![3], vec![-1.0, 0.0, 2.0])?;
/// let mut y = Tensor::default();
/// relu.forward(&x, &mut y)?;
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    /// The last forward pass's output shape and whether each output is
    /// positive, `None` before the first.
    last: Option<(Vec<usize>, Vec<bool>)>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { last: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        let (dims, positive) = self.last.get_or_insert_with(Default::default);
        dims.clear();
        dims.extend_from_slice(input.dims());
        output.resize(input.dims());
        positive.resize(input.len(), false);
        let outputs = output.data_mut().iter_mut().zip(positive.iter_mut());
        for ((y, on), &x) in outputs.zip(input.data()) {
            *y = x.max(0.0);
            *on = *y > 0.0;
        }
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        let (dims, positive) =
            self.last
                .as_ref()
                .ok_or_else(|| NnError::BackwardBeforeForward {
                    layer: self.name().to_string(),
                })?;
        if grad_output.dims() != dims.as_slice() {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("{dims:?}"),
                actual: grad_output.dims().to_vec(),
            });
        }
        grad_input.resize(dims);
        let masked = grad_input.data_mut().iter_mut();
        for (dx, (&g, &on)) in masked.zip(grad_output.data().iter().zip(positive)) {
            *dx = if on { g } else { 0.0 };
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::window::hostile;
    use crate::ParamBlock;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.0, 0.5, 3.0]).unwrap();
        let mut y = Tensor::default();
        relu.forward(&x, &mut y).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![3], vec![-1.0, 1.0, 2.0]).unwrap();
        relu.forward(&x, &mut Tensor::default()).unwrap();
        let g = Tensor::from_vec(vec![3], vec![10.0, 10.0, 10.0]).unwrap();
        let mut dx = Tensor::default();
        relu.backward(&g, &mut dx).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        let g = Tensor::zeros(vec![1]);
        assert!(matches!(
            relu.backward(&g, &mut Tensor::default()),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }

    /// The input-sign mask the layer ran before it kept its output's
    /// positivity instead of a copy of its input: the twin its backward
    /// pass is pinned to.
    fn backward_reference(input: &Tensor, grad_output: &Tensor) -> Tensor {
        grad_output
            .zip_map(input, |g, x| if x > 0.0 { g } else { 0.0 })
            .unwrap()
    }

    #[test]
    fn the_output_sign_mask_matches_the_input_sign_mask_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(36);
        let edges = [
            0.0,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
            -f32::NAN,
            f32::MIN_POSITIVE,
            -f32::MIN_POSITIVE,
            f32::from_bits(1),
            -f32::from_bits(1),
        ];
        let mut relu = Relu::new();
        let (mut y, mut dx) = (Tensor::default(), Tensor::default());
        let mut exercised = 0;
        for &batch in &hostile::BATCHES {
            // Every edge value at least once, then about half edge values
            // among hostile's normal values and ±∞, under a gradient
            // carrying ±0.0, ±∞ and NaN.
            let mut x = hostile::input(vec![batch, 3, 4, 4], &mut rng);
            for (i, v) in x.data_mut().iter_mut().enumerate() {
                if i < edges.len() || rng.gen_bool(0.5) {
                    *v = edges[i % edges.len()];
                }
            }
            relu.forward(&x, &mut y).unwrap();
            hostile::assert_bits_eq("forward", y.data(), x.map(|v| v.max(0.0)).data());
            let g = hostile::grad(x.dims().to_vec(), &mut rng);
            relu.backward(&g, &mut dx).unwrap();
            hostile::assert_bits_eq("dx", dx.data(), backward_reference(&x, &g).data());
            exercised += x.len();
        }
        println!("relu mask elements exercised: {exercised}");
    }

    #[test]
    fn has_no_params() {
        let relu = Relu::new();
        assert!(relu.params().is_none());
        assert_eq!(relu.params().map_or(0, ParamBlock::len), 0);
    }

    #[test]
    fn gradient_check_away_from_kink() {
        // Keep inputs away from 0 where ReLU is non-differentiable.
        let x = Tensor::from_fn(vec![2, 6], |i| {
            if i % 2 == 0 {
                1.0 + i as f32
            } else {
                -1.0 - i as f32
            }
        });
        crate::gradcheck::check_layer(Box::new(Relu::new()), &x, 1e-2).unwrap();
    }
}
