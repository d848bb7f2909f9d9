//! 2-D convolution layer (NCHW).

use crate::layers::window::{Passes, Window};
use crate::layers::Layer;
use crate::{NnError, ParamBlock};
use mixnn_tensor::{init, Tensor};
use rand::Rng;

/// A 2-D convolution over `[batch, in_channels, height, width]` inputs.
///
/// Kernels are `[out_channels, in_channels, kernel, kernel]` with a bias per
/// output channel; stride and symmetric zero padding are configurable. The
/// flat parameter layout is the kernel tensor row-major followed by the
/// biases.
///
/// The forward pass sums batch innermost: it copies the input to
/// `[in_channels][height][width][batch]` order — the copy the layer keeps
/// for its backward pass — and computes each output position for sixteen
/// examples at once, a loop the compiler vectorises. Every output element
/// still sees the direct loop's f32 operations in the direct loop's order
/// (`bias`, then `+= x·w` over the taps inside the input in ascending
/// `(ic, kh, kw)`), so outputs are bit-identical to it. The backward pass
/// takes one output channel at a time and sums its kernel and bias
/// gradients in registers, zero output gradients skipped; every gradient
/// keeps the direct loop's accumulation order: `(b, oy, ox)` for kernels
/// and biases, `(oc, oy, ox)` for the input. As a model's first layer it
/// skips the input gradient ([`Layer::backward_params`]).
///
/// On a CPU with AVX-512 (the `Avx512` rung of `mixnn_cpu::Tier`, detected
/// at run time) both passes run AVX-512 kernels: sixteen examples of an
/// output element per register and up to eight output channels per input
/// load forward; backward, sixteen examples of an input-gradient element
/// per register, and an output channel's 3×3 kernel sums a window row per
/// register, one non-zero output gradient after another. A register only
/// ever holds elements independent of each other, and each element still
/// sees the same multiplies and adds in the same order, unfused, so the
/// outputs and gradients are bit-identical on every rung.
///
/// # Example
///
/// ```
/// use mixnn_nn::{Conv2d, Layer};
/// use mixnn_tensor::Tensor;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let mut conv = Conv2d::new(3, 8, 3, 1, 1, &mut rng);
/// let x = Tensor::zeros(vec![2, 3, 8, 8]);
/// let mut y = Tensor::default();
/// conv.forward(&x, &mut y)?;
/// assert_eq!(y.dims(), &[2, 8, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    block: ParamBlock,
    passes: Passes,
}

impl Conv2d {
    /// Creates a convolution with Glorot-uniform kernels and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` or `stride` is zero.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(stride > 0, "stride must be positive");
        let fan_in = in_channels * kernel * kernel;
        let fan_out = out_channels * kernel * kernel;
        Conv2d {
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            block: ParamBlock::new(
                "conv2d",
                init::glorot_uniform(
                    fan_in,
                    fan_out,
                    vec![out_channels, in_channels, kernel, kernel],
                    rng,
                ),
                Tensor::zeros(vec![out_channels]),
            ),
            passes: Passes::default(),
        }
    }

    /// Output spatial size for an input spatial size, or `None` if the
    /// kernel does not fit.
    pub fn output_size(&self, input: usize) -> Option<usize> {
        let padded = input + 2 * self.padding;
        if padded < self.kernel {
            return None;
        }
        Some((padded - self.kernel) / self.stride + 1)
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The pass geometry for NCHW input `dims`, or `BadInput` if the
    /// channels differ or the kernel does not fit.
    fn window(&self, dims: &[usize]) -> Result<Window, NnError> {
        let bad = || NnError::BadInput {
            layer: "conv2d".to_string(),
            expected: format!("[batch, {}, h, w] with kernel fitting", self.in_channels),
            actual: dims.to_vec(),
        };
        let &[batch, in_c, in_h, in_w] = dims else {
            return Err(bad());
        };
        if in_c != self.in_channels {
            return Err(bad());
        }
        Ok(Window {
            batch,
            in_c,
            out_c: self.out_channels,
            in_h,
            in_w,
            out_h: self.output_size(in_h).ok_or_else(bad)?,
            out_w: self.output_size(in_w).ok_or_else(bad)?,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            shared: true,
        })
    }
}

impl Layer for Conv2d {
    fn name(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        let win = self.window(input.dims())?;
        self.passes.forward(win, input, &self.block, output);
        Ok(())
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        self.passes
            .backward(grad_output, &mut self.block, grad_input)
    }

    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.passes.backward_params(grad_output, &mut self.block)
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

/// The direct loops the layer ran before its batch-innermost forward pass,
/// kept as the twin its passes are pinned to bit for bit.
#[cfg(test)]
impl Conv2d {
    fn forward_reference(&self, input: &Tensor) -> Tensor {
        let (batch, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
        let (oh, ow) = (self.output_size(h).unwrap(), self.output_size(w).unwrap());
        let (ic_n, oc_n, k, s, p) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        );
        let mut out = Tensor::zeros(vec![batch, oc_n, oh, ow]);
        let x = input.data();
        let wt = self.block.weights.data();
        let o = out.data_mut();
        for b in 0..batch {
            for oc in 0..oc_n {
                let bias = self.block.bias.data()[oc];
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias;
                        for ic in 0..ic_n {
                            for kh in 0..k {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix = (ox * s + kw) as isize - p as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = ((b * ic_n + ic) * h + iy as usize) * w + ix as usize;
                                    acc += x[xi] * wt[((oc * ic_n + ic) * k + kh) * k + kw];
                                }
                            }
                        }
                        o[((b * oc_n + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn backward_reference(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let (batch, h, w) = (input.dims()[0], input.dims()[2], input.dims()[3]);
        let (oh, ow) = (self.output_size(h).unwrap(), self.output_size(w).unwrap());
        let (ic_n, oc_n, k, s, p) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        );
        let x = input.data();
        let g = grad_output.data();
        let mut dx = Tensor::zeros(input.dims().to_vec());
        for b in 0..batch {
            for oc in 0..oc_n {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = g[((b * oc_n + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        self.block.grad_bias.data_mut()[oc] += go;
                        for ic in 0..ic_n {
                            for kh in 0..k {
                                let iy = (oy * s + kh) as isize - p as isize;
                                if iy < 0 || iy >= h as isize {
                                    continue;
                                }
                                for kw in 0..k {
                                    let ix = (ox * s + kw) as isize - p as isize;
                                    if ix < 0 || ix >= w as isize {
                                        continue;
                                    }
                                    let xi = ((b * ic_n + ic) * h + iy as usize) * w + ix as usize;
                                    let wi = ((oc * ic_n + ic) * k + kh) * k + kw;
                                    self.block.grad_weights.data_mut()[wi] += go * x[xi];
                                    dx.data_mut()[xi] += go * self.block.weights.data()[wi];
                                }
                            }
                        }
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::window::hostile;
    use crate::LayerParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The direct loops' output for `x` and two hostile output gradients.
    fn expected(conv: &Conv2d, x: &Tensor, rng: &mut StdRng) -> hostile::Expected {
        let mut twin = conv.clone();
        let y = twin.forward_reference(x);
        let steps = (0..2)
            .map(|_| {
                let g = hostile::grad(y.dims().to_vec(), rng);
                let dx = twin.backward_reference(x, &g);
                (g, dx, twin.block.grads().values().to_vec())
            })
            .collect();
        hostile::Expected { y, steps }
    }

    #[test]
    fn batch_innermost_passes_match_the_direct_loops_bit_for_bit() {
        let mut rng = StdRng::seed_from_u64(32);
        let (mut exercised, mut tiers) = (0, Vec::new());
        // One input-gradient buffer for every geometry and rung.
        let mut dx = Tensor::default();
        let mut check = |conv: Conv2d, x: &Tensor, rng: &mut StdRng| {
            let win = conv.window(x.dims()).unwrap();
            let want = expected(&conv, x, rng);
            let layer = (&conv.passes, &conv.block);
            hostile::assert_every_tier(win, layer, x, &want, &mut dx)
        };
        for kernel in 1..=5 {
            for stride in 1..=3 {
                for padding in 0..=3 {
                    // Odd extents; the width is sometimes too small for
                    // the kernel, which must fail the same way in both.
                    let (h, w) = (5 + 2 * (stride % 2), 1 + 2 * ((kernel + padding) % 4));
                    let batch = hostile::BATCHES[exercised % hostile::BATCHES.len()];
                    let mut conv = Conv2d::new(2, 3, kernel, stride, padding, &mut rng);
                    let values = hostile::params(conv.block.len(), 3, &mut rng);
                    conv.block.load(&LayerParams::from_values(values)).unwrap();
                    let x = hostile::input(vec![batch, 2, h, w], &mut rng);
                    if conv.output_size(w).is_none() {
                        assert!(conv.forward(&x, &mut Tensor::default()).is_err());
                        continue;
                    }
                    tiers = check(conv, &x, &mut rng);
                    exercised += 1;
                }
            }
        }
        let geometries = exercised;
        for (in_c, out_c, h, w) in hostile::MODEL_SHAPES {
            for batch in hostile::BATCHES {
                let mut conv = Conv2d::new(in_c, out_c, 3, 1, 1, &mut rng);
                let values = hostile::params(conv.block.len(), out_c, &mut rng);
                conv.block.load(&LayerParams::from_values(values)).unwrap();
                let x = hostile::input(vec![batch, in_c, h, w], &mut rng);
                tiers = check(conv, &x, &mut rng);
                exercised += 1;
            }
        }
        println!("conv geometries exercised: {exercised}");
        println!("window tiers exercised: {tiers:?}");
        assert!(geometries >= 40, "only {geometries} geometries fit");
    }

    #[test]
    fn backward_needs_a_forward_pass_and_its_output_shape() {
        let mut rng = StdRng::seed_from_u64(6);
        let mut conv = Conv2d::new(1, 2, 3, 1, 1, &mut rng);
        let g = Tensor::zeros(vec![1, 2, 4, 4]);
        let mut dx = Tensor::default();
        assert!(matches!(
            conv.backward(&g, &mut dx),
            Err(NnError::BackwardBeforeForward { .. })
        ));
        conv.forward(&Tensor::zeros(vec![1, 1, 4, 4]), &mut Tensor::default())
            .unwrap();
        let wrong = Tensor::zeros(vec![1, 2, 4, 3]);
        assert!(matches!(
            conv.backward(&wrong, &mut dx),
            Err(NnError::BadInput { .. })
        ));
        conv.backward(&g, &mut dx).unwrap();
        assert_eq!(dx.dims(), &[1, 1, 4, 4]);
    }

    #[test]
    fn output_size_arithmetic() {
        let mut rng = StdRng::seed_from_u64(0);
        let conv = Conv2d::new(1, 1, 3, 1, 1, &mut rng);
        assert_eq!(conv.output_size(8), Some(8));
        let conv2 = Conv2d::new(1, 1, 3, 2, 0, &mut rng);
        assert_eq!(conv2.output_size(7), Some(3));
        assert_eq!(conv2.output_size(1), None);
    }

    #[test]
    fn identity_kernel_preserves_input() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 1, 1, 0, &mut rng);
        conv.block
            .load(&LayerParams::from_values(vec![1.0, 0.0]))
            .unwrap();
        let x = Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32);
        let mut y = Tensor::default();
        conv.forward(&x, &mut y).unwrap();
        assert_eq!(y.data(), x.data());
    }

    #[test]
    fn hand_computed_3x3_valid_conv() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut conv = Conv2d::new(1, 1, 2, 1, 0, &mut rng);
        // Kernel [[1, 2], [3, 4]], bias 0.5.
        conv.block
            .load(&LayerParams::from_values(vec![1., 2., 3., 4., 0.5]))
            .unwrap();
        // Input 3x3: 0..9.
        let x = Tensor::from_fn(vec![1, 1, 3, 3], |i| i as f32);
        let mut y = Tensor::default();
        conv.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[1, 1, 2, 2]);
        // Window at (0,0): 0*1 + 1*2 + 3*3 + 4*4 = 27, plus bias.
        assert_eq!(y.data(), &[27.5, 37.5, 57.5, 67.5]);
    }

    #[test]
    fn padding_grows_output() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::randn(vec![1, 2, 5, 5], 0.0, 1.0, &mut rng);
        let mut y = Tensor::default();
        conv.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[1, 3, 5, 5]);
    }

    #[test]
    fn rejects_wrong_channels() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut conv = Conv2d::new(2, 3, 3, 1, 1, &mut rng);
        let x = Tensor::zeros(vec![1, 5, 5, 5]);
        assert!(matches!(
            conv.forward(&x, &mut Tensor::default()),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn param_round_trip() {
        let mut rng = StdRng::seed_from_u64(2);
        let conv = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        assert_eq!(conv.block.len(), 4 * 2 * 9 + 4);
        let p = conv.block.to_layer_params();
        let mut other = Conv2d::new(2, 4, 3, 1, 1, &mut rng);
        other.block.load(&p).unwrap();
        assert_eq!(other.block.to_layer_params(), p);
    }

    #[test]
    fn numerical_gradient_check_no_padding() {
        let mut rng = StdRng::seed_from_u64(3);
        let conv = Conv2d::new(2, 3, 3, 1, 0, &mut rng);
        let x = Tensor::randn(vec![2, 2, 5, 5], 0.0, 1.0, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &x, 2e-2).unwrap();
    }

    #[test]
    fn numerical_gradient_check_with_padding_and_stride() {
        let mut rng = StdRng::seed_from_u64(4);
        let conv = Conv2d::new(1, 2, 3, 2, 1, &mut rng);
        let x = Tensor::randn(vec![1, 1, 6, 6], 0.0, 1.0, &mut rng);
        crate::gradcheck::check_layer(Box::new(conv), &x, 2e-2).unwrap();
    }
}
