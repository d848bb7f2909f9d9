//! Activation layers.

use crate::layers::Layer;
use crate::NnError;
use mixnn_tensor::Tensor;

/// Rectified linear unit: `y = max(0, x)` element-wise.
///
/// Parameter-free; `backward` masks the incoming gradient with the
/// positivity pattern of the cached input.
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
/// let y = relu.forward(&x)?;
/// assert_eq!(y.data(), &[0.0, 0.0, 2.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Relu {
    cached_input: Option<Tensor>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { cached_input: None }
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        self.cached_input = Some(input.clone());
        Ok(input.map(|v| v.max(0.0)))
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let input = self
            .cached_input
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name().to_string(),
            })?;
        if input.dims() != grad_output.dims() {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("{:?}", input.dims()),
                actual: grad_output.dims().to_vec(),
            });
        }
        Ok(grad_output.zip_map(input, |g, x| if x > 0.0 { g } else { 0.0 })?)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ParamBlock;

    #[test]
    fn forward_clamps_negatives() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![4], vec![-2.0, -0.0, 0.5, 3.0]).unwrap();
        let y = relu.forward(&x).unwrap();
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let mut relu = Relu::new();
        let x = Tensor::from_vec(vec![3], vec![-1.0, 1.0, 2.0]).unwrap();
        relu.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![3], vec![10.0, 10.0, 10.0]).unwrap();
        let dx = relu.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 10.0, 10.0]);
    }

    #[test]
    fn backward_requires_forward() {
        let mut relu = Relu::new();
        let g = Tensor::zeros(vec![1]);
        assert!(matches!(
            relu.backward(&g),
            Err(NnError::BackwardBeforeForward { .. })
        ));
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
