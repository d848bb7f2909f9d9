//! Activation layers.

use crate::layers::Layer;
use crate::NnError;
use mixnn_cpu::Tier;
use mixnn_tensor::Tensor;

/// Outputs per word of [`Relu`]'s positivity mask.
const WORD: usize = 16;

/// Rectified linear unit: `y = max(0, x)` element-wise.
///
/// Parameter-free. The output is `v` where `v > 0.0` and +0.0 everywhere
/// else — a NaN, −0.0 or negative input gives +0.0. (`f32::max` leaves the
/// sign of a zero result unspecified, and a debug build returns −0.0 for
/// −0.0 where an optimised one returns +0.0, so the select is written
/// out.) The layer keeps which of its outputs are positive, one bit per
/// output, and `backward` masks the incoming gradient with that: an
/// output is positive exactly when its input is, so the mask is the
/// input's without keeping a copy of the input.
///
/// On the [`Tier::Avx512`] rung of the CPU ladder both passes run sixteen
/// elements a register: the forward pass is `vmaxps` against +0.0 (which
/// returns its input only where the input is greater, +0.0 otherwise,
/// NaN included) and its compare mask is the sixteen-bit word the layer
/// keeps; the backward pass keeps the gradient's lanes that word selects
/// and writes +0.0 in the others, as the scalar pass does. Which rung
/// runs is detection alone ([`Tier::best`]).
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
    /// positive — output `i` at bit `i % 16` of word `i / 16` — `None`
    /// before the first.
    last: Option<(Vec<usize>, Vec<u16>)>,
}

impl Relu {
    /// Creates a ReLU activation layer.
    pub fn new() -> Self {
        Relu { last: None }
    }

    /// The rungs with a `Relu` kernel, scalar first. Not an option: the
    /// layer runs [`Tier::best`]; the tests and bench rows run each rung
    /// the host reaches.
    #[doc(hidden)]
    pub const TIERS: &'static [Tier] = &[Tier::Scalar, Tier::Avx512];

    /// [`Layer::forward`] on `tier`: the same output and mask. Panics if
    /// `tier` selects a kernel the CPU cannot run.
    ///
    /// # Errors
    ///
    /// None: every shape is accepted.
    #[doc(hidden)]
    pub fn forward_on(
        &mut self,
        tier: Tier,
        input: &Tensor,
        output: &mut Tensor,
    ) -> Result<(), NnError> {
        let (dims, positive) = self.last.get_or_insert_with(Default::default);
        dims.clear();
        dims.extend_from_slice(input.dims());
        output.resize(input.dims());
        positive.resize(input.len().div_ceil(WORD), 0);
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx512 {
            avx512::forward(input.data(), output.data_mut(), positive);
            return Ok(());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        let outputs = output.data_mut().chunks_mut(WORD).zip(positive.iter_mut());
        for ((ys, word), xs) in outputs.zip(input.data().chunks(WORD)) {
            let mut bits = 0;
            for (t, (y, &x)) in ys.iter_mut().zip(xs).enumerate() {
                *y = if x > 0.0 { x } else { 0.0 };
                bits |= u16::from(*y > 0.0) << t;
            }
            *word = bits;
        }
        Ok(())
    }

    /// [`Layer::backward`] on `tier`: the same input gradient. Panics if
    /// `tier` selects a kernel the CPU cannot run.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    #[doc(hidden)]
    pub fn backward_on(
        &mut self,
        tier: Tier,
        grad_output: &Tensor,
        grad_input: &mut Tensor,
    ) -> Result<(), NnError> {
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
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx512 {
            avx512::backward(grad_output.data(), positive, grad_input.data_mut());
            return Ok(());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        let masked = grad_input.data_mut().chunks_mut(WORD).zip(positive);
        for ((dxs, &word), gs) in masked.zip(grad_output.data().chunks(WORD)) {
            for (t, (dx, &g)) in dxs.iter_mut().zip(gs).enumerate() {
                *dx = if word >> t & 1 == 1 { g } else { 0.0 };
            }
        }
        Ok(())
    }
}

impl Layer for Relu {
    fn name(&self) -> &'static str {
        "relu"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        self.forward_on(Tier::best(), input, output)
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        self.backward_on(Tier::best(), grad_output, grad_input)
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Both passes on the `Avx512` rung, one mask word a register, a ragged
/// end masked. All of the layer's `unsafe` is here, behind safe entries
/// that check the CPU and the lengths first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::WORD;
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;

    /// Panics unless the CPU reaches [`Tier::Avx512`].
    fn check() {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 ReLU selected on a CPU without it"
        );
    }

    /// The lanes of the word starting at element `at` of `len`.
    fn lanes(len: usize, at: usize) -> __mmask16 {
        ((1u32 << (len - at).min(WORD)) - 1) as __mmask16
    }

    /// The scalar forward loop of [`super::Relu::forward_on`].
    pub(super) fn forward(x: &[f32], y: &mut [f32], positive: &mut [u16]) {
        check();
        assert_eq!(x.len(), y.len());
        assert_eq!(positive.len(), x.len().div_ceil(WORD));
        // SAFETY: AVX-512 F was just confirmed; word `i` covers elements
        // `16i..` of `x` and `y`, masked to their common length.
        unsafe { forward_wide(x, y, positive) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn forward_wide(x: &[f32], y: &mut [f32], positive: &mut [u16]) {
        let zero = _mm512_setzero_ps();
        for (i, word) in positive.iter_mut().enumerate() {
            let at = i * WORD;
            let mask = lanes(x.len(), at);
            let v = _mm512_max_ps(_mm512_maskz_loadu_ps(mask, x.as_ptr().add(at)), zero);
            _mm512_mask_storeu_ps(y.as_mut_ptr().add(at), mask, v);
            *word = _mm512_mask_cmp_ps_mask::<_CMP_GT_OQ>(mask, v, zero);
        }
    }

    /// The scalar backward loop of [`super::Relu::backward_on`].
    pub(super) fn backward(g: &[f32], positive: &[u16], dx: &mut [f32]) {
        check();
        assert_eq!(g.len(), dx.len());
        assert_eq!(positive.len(), g.len().div_ceil(WORD));
        // SAFETY: as in `forward`, over `g` and `dx`.
        unsafe { backward_wide(g, positive, dx) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn backward_wide(g: &[f32], positive: &[u16], dx: &mut [f32]) {
        for (i, &word) in positive.iter().enumerate() {
            let at = i * WORD;
            let mask = lanes(g.len(), at);
            let v = _mm512_maskz_loadu_ps(mask & word, g.as_ptr().add(at));
            _mm512_mask_storeu_ps(dx.as_mut_ptr().add(at), mask, v);
        }
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
        let tiers = Tier::runnable(Relu::TIERS);
        println!("relu tiers exercised: {tiers:?}");
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
            let g = hostile::grad(x.dims().to_vec(), &mut rng);
            for &tier in &tiers {
                relu.forward_on(tier, &x, &mut y).unwrap();
                let want = x.map(|v| if v > 0.0 { v } else { 0.0 });
                hostile::assert_bits_eq(&format!("{tier:?} forward"), y.data(), want.data());
                relu.backward_on(tier, &g, &mut dx).unwrap();
                let want = backward_reference(&x, &g);
                hostile::assert_bits_eq(&format!("{tier:?} dx"), dx.data(), want.data());
            }
            exercised += x.len();
        }
        println!("relu mask elements exercised: {exercised}");
    }

    /// Both passes on every rung against the scalar tier, at every length
    /// 1–33 and at `fl_train`'s activation sizes, on hostile values — NaN
    /// payloads of both signs, quiet and signalling, ±0.0, ±∞ and
    /// subnormals of both signs — under a hostile gradient; each pass
    /// writes into a NaN-filled buffer, so every element must be written.
    #[test]
    fn relu_passes_match_the_scalar_tier_on_every_rung_and_length() {
        let tiers = Tier::runnable(Relu::TIERS);
        println!("relu backward tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(53);
        let lengths = (1..=33).chain([64 * 32, 64 * 8 * 4 * 4 + 7]);
        for len in lengths {
            let x = Tensor::from_vec(vec![len], hostile::values(len, &mut rng)).unwrap();
            let g = Tensor::from_vec(vec![len], hostile::values(len, &mut rng)).unwrap();
            let mut scalar = Relu::new();
            let (mut want_y, mut want_dx) = (Tensor::default(), Tensor::default());
            scalar.forward_on(Tier::Scalar, &x, &mut want_y).unwrap();
            scalar.backward_on(Tier::Scalar, &g, &mut want_dx).unwrap();
            hostile::assert_bits_eq(
                "scalar dx",
                want_dx.data(),
                backward_reference(&x, &g).data(),
            );
            for &tier in &tiers {
                let mut relu = Relu::new();
                let mut y = Tensor::full(vec![len], f32::NAN);
                relu.forward_on(tier, &x, &mut y).unwrap();
                assert_eq!(relu.last, scalar.last, "{tier:?} mask, length {len}");
                hostile::assert_bits_eq(&format!("{tier:?} y"), y.data(), want_y.data());
                let mut dx = Tensor::full(vec![len], f32::NAN);
                relu.backward_on(tier, &g, &mut dx).unwrap();
                hostile::assert_bits_eq(&format!("{tier:?} dx"), dx.data(), want_dx.data());
            }
        }
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
