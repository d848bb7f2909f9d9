//! 2-D max pooling.

use crate::layers::Layer;
use crate::NnError;
use mixnn_tensor::Tensor;

/// Max pooling over `[batch, channels, height, width]` inputs with a square
/// window and equal stride.
///
/// Parameter-free. The forward pass records the flat index of each window's
/// maximum so the backward pass routes gradients only to the winning
/// positions (ties go to the first maximal element scanned, row-major; a
/// NaN never wins, and a window with no value above −∞ outputs −∞ and
/// routes to its own first element). 2×2 windows, the paper's, are folded
/// a row pair at a time without a branch. The backward pass adds each
/// output gradient into the input gradient at its window's winner, so the
/// input gradient — unlike any other buffer the layers write — is
/// zero-filled first.
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
/// let mut y = Tensor::default();
/// pool.forward(&x, &mut y)?;
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

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
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
        output.resize(&[batch, c, oh, ow]);
        self.argmax.resize(batch * c * oh * ow, 0);
        let x = input.data();
        let planes = output.data_mut().chunks_exact_mut(oh * ow);
        for (plane, (out, argmax)) in planes
            .zip(self.argmax.chunks_exact_mut(oh * ow))
            .enumerate()
        {
            let rows = out.chunks_exact_mut(ow).zip(argmax.chunks_exact_mut(ow));
            for (oy, (out, argmax)) in rows.enumerate() {
                // Where the first of the output row's `k` input rows starts.
                let top = (plane * h + oy * k) * w;
                if k == 2 {
                    max_of_row_pair(x, top, w, out, argmax);
                } else {
                    max_of_windows(x, top, w, k, out, argmax);
                }
            }
        }
        self.input_dims = Some([batch, c, h, w]);
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
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
        grad_input.resize(dims);
        let dx = grad_input.data_mut();
        dx.fill(0.0);
        for (&at, &g) in self.argmax.iter().zip(grad_output.data()) {
            dx[at] += g;
        }
        Ok(())
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// One output row of `k`×`k` windows whose top-left input is `top`, in
/// row-major scan order: a value wins only if it is strictly greater than
/// the best so far, which starts at −∞ on the window's first element, so
/// ties go to the first maximal element and a NaN never wins.
fn max_of_windows(
    x: &[f32],
    top: usize,
    w: usize,
    k: usize,
    out: &mut [f32],
    argmax: &mut [usize],
) {
    for (ox, (out, argmax)) in out.iter_mut().zip(argmax).enumerate() {
        let first = top + ox * k;
        let (mut best, mut at) = (f32::NEG_INFINITY, first);
        for ky in 0..k {
            for kx in 0..k {
                let idx = first + ky * w + kx;
                if x[idx] > best {
                    best = x[idx];
                    at = idx;
                }
            }
        }
        *out = best;
        *argmax = at;
    }
}

/// [`max_of_windows`] for 2×2 windows: folds the row pair `top`, `top + w`
/// without a branch, in the same scan order with the same strict `>`.
fn max_of_row_pair(x: &[f32], top: usize, w: usize, out: &mut [f32], argmax: &mut [usize]) {
    let ow = out.len();
    let (upper, lower) = (&x[top..][..2 * ow], &x[top + w..][..2 * ow]);
    let argmax = &mut argmax[..ow];
    for ox in 0..ow {
        let i = 2 * ox;
        let scan = [
            (upper[i], i),
            (upper[i + 1], i + 1),
            (lower[i], w + i),
            (lower[i + 1], w + i + 1),
        ];
        let (mut best, mut at) = (f32::NEG_INFINITY, i);
        for (v, idx) in scan {
            let wins = v > best;
            best = if wins { v } else { best };
            at = if wins { idx } else { at };
        }
        out[ox] = best;
        argmax[ox] = top + at;
    }
}

/// The direct loop the layer ran before its 2×2 fold, each window's
/// argmax starting at its own first element: the twin both forward loops
/// are pinned to.
#[cfg(test)]
impl MaxPool2d {
    fn forward_reference(&self, input: &Tensor) -> (Vec<f32>, Vec<usize>) {
        let &[batch, c, h, w] = input.dims() else {
            panic!("rank 4 input");
        };
        let k = self.window;
        let (oh, ow) = (h / k, w / k);
        let x = input.data();
        let (mut out, mut argmax) = (Vec::new(), Vec::new());
        for b in 0..batch {
            for ch in 0..c {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let first = ((b * c + ch) * h + oy * k) * w + ox * k;
                        let (mut best, mut best_idx) = (f32::NEG_INFINITY, first);
                        for ky in 0..k {
                            for kx in 0..k {
                                let idx = ((b * c + ch) * h + oy * k + ky) * w + ox * k + kx;
                                if x[idx] > best {
                                    best = x[idx];
                                    best_idx = idx;
                                }
                            }
                        }
                        out.push(best);
                        argmax.push(best_idx);
                    }
                }
            }
        }
        (out, argmax)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::window::hostile;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn max_pooling_matches_the_direct_loop_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(34);
        // Few distinct values, so windows tie — +0.0 against −0.0 too —
        // and some hold only NaN and −∞.
        let values = [
            -1.0,
            -0.0,
            0.0,
            0.5,
            1.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::NAN,
        ];
        let mut exercised = 0;
        // One input-gradient buffer for every geometry, starting as NaN:
        // the scatter-add must start from zero whatever it held.
        let mut dx = Tensor::full(vec![4096], f32::NAN);
        for window in 1..=3 {
            // Odd extents truncate; 3×9 leaves one output row at window 3.
            for (h, w) in [(4, 4), (5, 7), (7, 5), (8, 8), (3, 9)] {
                let batch = hostile::BATCHES[exercised % hostile::BATCHES.len()];
                let x = Tensor::from_fn(vec![batch, 2, h, w], |_| {
                    values[rng.gen_range(0..values.len())]
                });
                let mut pool = MaxPool2d::new(window);
                let mut y = Tensor::default();
                pool.forward(&x, &mut y).unwrap();
                let (want, want_argmax) = pool.forward_reference(&x);
                hostile::assert_bits_eq("forward", y.data(), &want);
                assert_eq!(pool.argmax, want_argmax, "argmax, window {window}, {h}×{w}");
                let g = Tensor::randn(y.dims().to_vec(), 0.0, 1.0, &mut rng);
                let mut want_dx = vec![0.0; x.len()];
                for (&at, &go) in want_argmax.iter().zip(g.data()) {
                    want_dx[at] += go;
                }
                pool.backward(&g, &mut dx).unwrap();
                hostile::assert_bits_eq("dx", dx.data(), &want_dx);
                exercised += 1;
            }
        }
        println!("max-pool geometries exercised: {exercised}");
    }

    #[test]
    fn a_window_with_no_winner_routes_its_gradient_to_its_own_first_element() {
        // Example 1 is all NaN: no value beats −∞, and its gradient must
        // stay in example 1.
        let mut pool = MaxPool2d::new(2);
        let mut data = vec![1., 2., 3., 4.];
        data.extend([f32::NAN; 4]);
        let x = Tensor::from_vec(vec![2, 1, 2, 2], data).unwrap();
        let mut y = Tensor::default();
        pool.forward(&x, &mut y).unwrap();
        assert_eq!(y.data(), &[4.0, f32::NEG_INFINITY]);
        let g = Tensor::from_vec(vec![2, 1, 1, 1], vec![5.0, 10.0]).unwrap();
        let mut dx = Tensor::default();
        pool.backward(&g, &mut dx).unwrap();
        assert_eq!(dx.data(), &[0., 0., 0., 5., 10., 0., 0., 0.]);
    }

    #[test]
    fn forward_picks_window_maxima() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 4], vec![1., 9., 2., 3., 4., 5., 8., 6.]).unwrap();
        let mut y = Tensor::default();
        pool.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[1, 1, 1, 2]);
        assert_eq!(y.data(), &[9.0, 8.0]);
    }

    #[test]
    fn backward_routes_to_argmax_only() {
        let mut pool = MaxPool2d::new(2);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![1., 9., 2., 3.]).unwrap();
        pool.forward(&x, &mut Tensor::default()).unwrap();
        let g = Tensor::from_vec(vec![1, 1, 1, 1], vec![5.0]).unwrap();
        let mut dx = Tensor::full(vec![4], 1.0);
        pool.backward(&g, &mut dx).unwrap();
        assert_eq!(dx.data(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn rejects_window_larger_than_input() {
        let mut pool = MaxPool2d::new(4);
        let x = Tensor::zeros(vec![1, 1, 2, 2]);
        assert!(matches!(
            pool.forward(&x, &mut Tensor::default()),
            Err(NnError::BadInput { .. })
        ));
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
        let mut y = Tensor::default();
        pool.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
    }
}
