//! 2-D max pooling.

use crate::layers::Layer;
use crate::NnError;
use mixnn_tensor::Tensor;

/// Max pooling over `[batch, channels, height, width]` inputs with a square
/// window and equal stride.
///
/// Parameter-free. The forward pass records the flat index of each window's
/// maximum so the backward pass routes gradients only to the winning
/// positions (ties go to the first maximal element scanned, row-major).
///
/// # Example
///
/// ```
/// use mixnn_nn::{Layer, MaxPool2d};
/// use mixnn_tensor::Tensor;
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut pool = MaxPool2d::new(2);
/// let x = Tensor::from_fn(vec![1, 1, 4, 4], |i| i as f32);
/// let y = pool.forward(&x)?;
/// assert_eq!(y.dims(), &[1, 1, 2, 2]);
/// assert_eq!(y.data(), &[5.0, 7.0, 13.0, 15.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    window: usize,
    argmax: Vec<usize>,
    input_dims: Option<[usize; 4]>,
}

impl MaxPool2d {
    /// Creates a max-pool layer with a `window`×`window` kernel and stride
    /// equal to the window.
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "pool window must be positive");
        MaxPool2d {
            window,
            argmax: Vec::new(),
            input_dims: None,
        }
    }

    /// The pooling window (and stride).
    pub fn window(&self) -> usize {
        self.window
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
    }

    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError> {
        if input.rank() != 4 || input.dims()[2] < self.window || input.dims()[3] < self.window {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("[batch, c, h≥{0}, w≥{0}]", self.window),
                actual: input.dims().to_vec(),
            });
        }
        let (batch, c, h, w) = (
            input.dims()[0],
            input.dims()[1],
            input.dims()[2],
            input.dims()[3],
        );
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let mut out = Tensor::zeros(vec![batch, c, oh, ow]);
        self.argmax.clear();
        self.argmax.resize(batch * c * oh * ow, 0);
        let x = input.data();
        for b in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut best = f32::NEG_INFINITY;
                        let mut best_idx = 0usize;
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = oy * k + ky;
                                let ix = ox * k + kx;
                                let idx = ((b * c + ch) * h + iy) * w + ix;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        let oidx = ((b * c + ch) * oh + oy) * ow + ox;
                        out.data_mut()[oidx] = best;
                        self.argmax[oidx] = best_idx;
                    }
                }
            }
        }
        self.input_dims = Some([batch, c, h, w]);
        Ok(out)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let dims = self
            .input_dims
            .as_ref()
            .ok_or_else(|| NnError::BackwardBeforeForward {
                layer: self.name().to_string(),
            })?;
        if grad_output.len() != self.argmax.len() {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!("{} elements", self.argmax.len()),
                actual: grad_output.dims().to_vec(),
            });
        }
        let mut dx = Tensor::zeros(dims.to_vec());
        for (oidx, &iidx) in self.argmax.iter().enumerate() {
            dx.data_mut()[iidx] += grad_output.data()[oidx];
        }
        Ok(dx)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 4], vec![1., 9., 2., 3., 4., 5., 8., 6.]).unwrap();
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[9.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 2., 3.]).unwrap();
        pool.forward(&x).unwrap();
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let dx = pool.backward(&g).unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn rejects_window_larger_than_input() {
        let mut pool = MaxPool2d::new(4);
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        assert!(matches!(pool.forward(&x), Err(NnError::BadInput { .. })));
    }

    #[test]
    fn gradient_check_with_distinct_values() {
        // Distinct inputs keep the argmax stable under the probe epsilon.
        let x = Tensor::from_fn(vec![1, 2, 4, 4], |i| (i as f32) * 1.7 % 13.0);
        crate::gradcheck::check_layer(Box::new(MaxPool2d::new(2)), &x, 1e-2).unwrap();
    }

    #[test]
    fn non_divisible_sizes_truncate() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_fn(vec![1, 1, 5, 5], |i| i as f32);
        let y = pool.forward(&x).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
    }
}
