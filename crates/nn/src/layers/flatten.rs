//! Flattening layer.

use crate::layers::Layer;
use crate::NnError;
use mixnn_tensor::Tensor;

/// Flattens `[batch, d1, d2, …]` into `[batch, d1·d2·…]`.
///
/// Parameter-free; remembers the input shape so `backward` can restore it.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Flatten, Layer};
/// use mixnn_tensor::Tensor;
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut flatten = Flatten::new();
/// let x = Tensor::zeros(vec![2, 3, 4, 4]);
/// let mut y = Tensor::default();
/// flatten.forward(&x, &mut y)?;
/// assert_eq!(y.dims(), &[2, 48]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct Flatten {
    /// The last forward pass's input shape, `None` before the first.
    input_dims: Option<Vec<usize>>,
}

impl Flatten {
    /// Creates a flatten layer.
    pub fn new() -> Self {
        Flatten { input_dims: None }
    }
}

impl Layer for Flatten {
    fn name(&self) -> &'static str {
        "flatten"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        if input.rank() < 2 {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: "[batch, …] with rank ≥ 2".to_string(),
                actual: input.dims().to_vec(),
            });
        }
        let batch = input.dims()[0];
        let rest: usize = input.dims()[1..].iter().product();
        let dims = self.input_dims.get_or_insert_with(Vec::new);
        dims.clear();
        dims.extend_from_slice(input.dims());
        output.resize(&[batch, rest]);
        output.data_mut().copy_from_slice(input.data());
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        let dims = self
            .input_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name().to_string(),
            })?;
        let (batch, rest) = (dims[0], dims[1..].iter().product::<usize>());
        if grad_output.dims() != [batch, rest] {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("[{batch}, {rest}]"),
                actual: grad_output.dims().to_vec(),
            });
        }
        grad_input.resize(dims);
        grad_input.data_mut().copy_from_slice(grad_output.data());
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_restores_shape() {
        let mut f = Flatten::new();
        let x = Tensor::from_fn(vec![2, 3, 4], |i| i as f32);
        let mut y = Tensor::default();
        f.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[2, 12]);
        let mut dx = Tensor::default();
        f.backward(&y, &mut dx).unwrap();
        assert_eq!(dx.dims(), &[2, 3, 4]);
        assert_eq!(dx.data(), x.data());
    }

    #[test]
    fn rejects_rank_one() {
        let mut f = Flatten::new();
        let x = Tensor::zeros(vec![5]);
        assert!(matches!(
            f.forward(&x, &mut Tensor::default()),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn backward_requires_forward() {
        let mut f = Flatten::new();
        assert!(matches!(
            f.backward(&Tensor::zeros(vec![1, 1]), &mut Tensor::default()),
            Err(NnError::BackwardBeforeForward { .. })
        ));
    }
}
