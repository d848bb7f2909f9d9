//! Locally connected 2-D layer (unshared convolution).
//!
//! The paper's LFW experiment uses the DeepFace architecture, whose
//! distinguishing component is *locally connected* layers: convolutions
//! whose kernels are **not shared** across spatial positions. This layer
//! provides that building block for the `zoo::deepface_like` model.

use crate::layers::window::{Passes, Window};
use crate::layers::Layer;
use crate::{NnError, ParamBlock};
use mixnn_tensor::{init, Tensor};
use rand::Rng;

/// Locally connected layer: like [`crate::Conv2d`] with `stride`=1 and no
/// padding, but with an independent kernel at every output position.
///
/// Weights have shape
/// `[out_channels, out_h, out_w, in_channels, kernel, kernel]` and biases
/// `[out_channels, out_h, out_w]`; the flat parameter layout is weights then
/// biases, both row-major. Note the parameter count grows with the output
/// area — exactly the property that makes DeepFace-style models large,
/// which the paper's §6.5 memory discussion depends on.
///
/// The passes share [`crate::Conv2d`]'s loops: the forward pass sums batch
/// innermost, sixteen examples at once over a batch-innermost copy of the
/// input, and the backward pass takes one kernel — an output channel and
/// position — at a time, its gradient sums in registers, with zero output
/// gradients skipped. Per element the f32 operations and their order are
/// the direct loop's — `bias` then `+= x·w` in ascending `(ic, kh, kw)`;
/// batch order for a kernel or bias gradient; `(oc, oy, ox)` for the input
/// gradient — so both passes are bit-identical to it. On the `Avx512` rung
/// of `mixnn_cpu::Tier` they run [`crate::Conv2d`]'s AVX-512 kernels, which
/// keep every element's operations and order: the same bits, with the
/// sixteen examples of a position in one register.
#[derive(Debug, Clone)]
pub struct LocallyConnected2d {
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    in_h: usize,
    in_w: usize,
    block: ParamBlock,
    passes: Passes,
}

impl LocallyConnected2d {
    /// Creates a locally connected layer for a fixed input spatial size
    /// `in_h`×`in_w` (the unshared kernels make the layer shape-specific).
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is zero or larger than the input extent.
    pub fn new<R: Rng + ?Sized>(
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        in_h: usize,
        in_w: usize,
        rng: &mut R,
    ) -> Self {
        assert!(kernel > 0, "kernel size must be positive");
        assert!(
            kernel <= in_h && kernel <= in_w,
            "kernel must fit in the input"
        );
        let (out_h, out_w) = (in_h - kernel + 1, in_w - kernel + 1);
        let fan_in = in_channels * kernel * kernel;
        let w_dims = vec![out_channels, out_h, out_w, in_channels, kernel, kernel];
        LocallyConnected2d {
            in_channels,
            out_channels,
            kernel,
            in_h,
            in_w,
            block: ParamBlock::new(
                "locally_connected2d",
                init::glorot_uniform(fan_in, out_channels, w_dims, rng),
                Tensor::zeros(vec![out_channels, out_h, out_w]),
            ),
            passes: Passes::default(),
        }
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.in_h - self.kernel + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.in_w - self.kernel + 1
    }

    /// The pass geometry for a batch of `batch` examples.
    fn window(&self, batch: usize) -> Window {
        Window {
            batch,
            in_c: self.in_channels,
            out_c: self.out_channels,
            in_h: self.in_h,
            in_w: self.in_w,
            out_h: self.out_h(),
            out_w: self.out_w(),
            kernel: self.kernel,
            stride: 1,
            padding: 0,
            shared: false,
        }
    }
}

impl Layer for LocallyConnected2d {
    fn name(&self) -> &'static str {
        "locally_connected2d"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        if input.rank() != 4
            || input.dims()[1] != self.in_channels
            || input.dims()[2] != self.in_h
            || input.dims()[3] != self.in_w
        {
            return Err(NnError::BadInput {
                layer: self.name().to_string(),
                expected: format!(
                    "[batch, {}, {}, {}]",
                    self.in_channels, self.in_h, self.in_w
                ),
                actual: input.dims().to_vec(),
            });
        }
        let win = self.window(input.dims()[0]);
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
impl LocallyConnected2d {
    fn w_idx(&self, oc: usize, oy: usize, ox: usize, ic: usize, kh: usize, kw: usize) -> usize {
        let (oh, ow, icn, k) = (self.out_h(), self.out_w(), self.in_channels, self.kernel);
        ((((oc * oh + oy) * ow + ox) * icn + ic) * k + kh) * k + kw
    }

    fn forward_reference(&self, input: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        let (oh, ow) = (self.out_h(), self.out_w());
        let (icn, ocn, k, h, w) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.in_h,
            self.in_w,
        );
        let mut out = Tensor::zeros(vec![batch, ocn, oh, ow]);
        let x = input.data();
        for b in 0..batch {
            for oc in 0..ocn {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = self.block.bias.data()[(oc * oh + oy) * ow + ox];
                        for ic in 0..icn {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let xi = ((b * icn + ic) * h + oy + kh) * w + ox + kw;
                                    acc += x[xi]
                                        * self.block.weights.data()
                                            [self.w_idx(oc, oy, ox, ic, kh, kw)];
                                }
                            }
                        }
                        out.data_mut()[((b * ocn + oc) * oh + oy) * ow + ox] = acc;
                    }
                }
            }
        }
        out
    }

    fn backward_reference(&mut self, input: &Tensor, grad_output: &Tensor) -> Tensor {
        let batch = input.dims()[0];
        let (oh, ow) = (self.out_h(), self.out_w());
        let (icn, ocn, k, h, w) = (
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.in_h,
            self.in_w,
        );
        let x = input.data();
        let g = grad_output.data();
        let mut dx = Tensor::zeros(input.dims().to_vec());
        for b in 0..batch {
            for oc in 0..ocn {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let go = g[((b * ocn + oc) * oh + oy) * ow + ox];
                        if go == 0.0 {
                            continue;
                        }
                        self.block.grad_bias.data_mut()[(oc * oh + oy) * ow + ox] += go;
                        for ic in 0..icn {
                            for kh in 0..k {
                                for kw in 0..k {
                                    let xi = ((b * icn + ic) * h + oy + kh) * w + ox + kw;
                                    let wi = self.w_idx(oc, oy, ox, ic, kh, kw);
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
    fn expected(lc: &LocallyConnected2d, x: &Tensor, rng: &mut StdRng) -> hostile::Expected {
        let mut twin = lc.clone();
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
        let mut rng = StdRng::seed_from_u64(33);
        let (mut exercised, mut tiers) = (0, Vec::new());
        // One input-gradient buffer for every geometry and rung.
        let mut dx = Tensor::default();
        let mut check = |in_c, out_c, kernel, (h, w), batch, rng: &mut StdRng| {
            let mut lc = LocallyConnected2d::new(in_c, out_c, kernel, h, w, rng);
            let biases = out_c * lc.out_h() * lc.out_w();
            let values = hostile::params(lc.block.len(), biases, rng);
            lc.block.load(&LayerParams::from_values(values)).unwrap();
            let x = hostile::input(vec![batch, in_c, h, w], rng);
            let want = expected(&lc, &x, rng);
            let layer = (&lc.passes, &lc.block);
            hostile::assert_every_tier(lc.window(batch), layer, &x, &want, &mut dx)
        };
        for kernel in 1..=5 {
            for extent in [(5, 7), (7, 5), (9, 9)] {
                let batch = hostile::BATCHES[exercised % hostile::BATCHES.len()];
                tiers = check(2, 3, kernel, extent, batch, &mut rng);
                exercised += 1;
            }
        }
        // `deepface_like`'s layer at the experiments' width, and the
        // model shapes' channel counts at 3×3.
        for (in_c, out_c, h, w) in hostile::MODEL_SHAPES {
            for batch in hostile::BATCHES {
                tiers = check(in_c, out_c, 3, (h.max(3), w.max(3)), batch, &mut rng);
                exercised += 1;
            }
        }
        println!("locally connected geometries exercised: {exercised}");
        println!("window tiers exercised: {tiers:?}");
    }

    #[test]
    fn output_shape_is_valid_convolution_shape() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lc = LocallyConnected2d::new(2, 3, 3, 6, 5, &mut rng);
        let x = Tensor::zeros(vec![2, 2, 6, 5]);
        let mut y = Tensor::default();
        lc.forward(&x, &mut y).unwrap();
        assert_eq!(y.dims(), &[2, 3, 4, 3]);
    }

    #[test]
    fn unshared_weights_differ_across_positions() {
        // With weights set so that position (0,0) has kernel of ones and all
        // others zero, only the first output position responds.
        let mut rng = StdRng::seed_from_u64(0);
        let mut lc = LocallyConnected2d::new(1, 1, 2, 3, 3, &mut rng);
        let mut params = vec![0.0f32; lc.block.len()];
        for p in params.iter_mut().take(4) {
            *p = 1.0;
        }
        lc.block.load(&LayerParams::from_values(params)).unwrap();
        let x = Tensor::ones(vec![1, 1, 3, 3]);
        let mut y = Tensor::default();
        lc.forward(&x, &mut y).unwrap();
        assert_eq!(y.data(), &[4.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn rejects_wrong_spatial_size() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut lc = LocallyConnected2d::new(1, 1, 2, 4, 4, &mut rng);
        let x = Tensor::zeros(vec![1, 1, 5, 5]);
        assert!(matches!(
            lc.forward(&x, &mut Tensor::default()),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn param_count_scales_with_output_area() {
        let mut rng = StdRng::seed_from_u64(0);
        let lc = LocallyConnected2d::new(1, 1, 2, 4, 4, &mut rng);
        // 3x3 output positions, each with a 2x2 kernel + bias.
        assert_eq!(lc.block.len(), 9 * 4 + 9);
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let lc = LocallyConnected2d::new(2, 2, 2, 4, 4, &mut rng);
        let x = Tensor::randn(vec![2, 2, 4, 4], 0.0, 1.0, &mut rng);
        crate::gradcheck::check_layer(Box::new(lc), &x, 2e-2).unwrap();
    }
}
