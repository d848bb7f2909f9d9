//! Fully connected (dense) layer.

use crate::layers::Layer;
use crate::{NnError, ParamBlock};
use mixnn_cpu::Tier;
use mixnn_tensor::{init, matmul_into_on, matmul_nt_into_on, matmul_tn_into_on, Gathered, Tensor};
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
/// On the [`Tier::Avx512`] rung of the CPU ladder the products, the bias
/// add, the accumulation of `dW` and the bias gradient's column sums run
/// AVX-512 kernels, with the scalar loops' bits: the bias add and the
/// accumulation are element-wise, and each column sum still adds the
/// batch's rows in order, sixteen columns a register. Which rung runs is
/// detection alone ([`Tier::best`]).
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

    /// The rungs with a `Dense` kernel, scalar first. Not an option: the
    /// layer runs [`Tier::best`]; the tests and bench rows run each rung
    /// the host reaches.
    #[doc(hidden)]
    pub const TIERS: &'static [Tier] = &[Tier::Scalar, Tier::Avx512];

    /// [`Layer::forward`] on `tier`: the same bits. Panics if `tier`
    /// selects a kernel the CPU cannot run.
    ///
    /// # Errors
    ///
    /// As [`Layer::forward`].
    #[doc(hidden)]
    pub fn forward_on(
        &mut self,
        tier: Tier,
        input: &Tensor,
        output: &mut Tensor,
    ) -> Result<(), NnError> {
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
        matmul_into_on(
            tier,
            input.data(),
            weights,
            batch,
            inf,
            of,
            &mut self.gathered,
            output.data_mut(),
        );
        add_bias_on(tier, output.data_mut(), bias);
        let cached = self.cached_input.get_or_insert_with(Tensor::default);
        cached.resize(input.dims());
        cached.data_mut().copy_from_slice(input.data());
        Ok(())
    }

    /// [`Layer::backward`] on `tier`: the same bits. Panics if `tier`
    /// selects a kernel the CPU cannot run.
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
        self.backward_params_on(tier, grad_output)?;
        // dX = dY · Wᵀ.
        let (batch, inf, of) = (grad_output.dims()[0], self.in_features, self.out_features);
        grad_input.resize(&[batch, inf]);
        matmul_nt_into_on(
            tier,
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

    /// [`Layer::backward_params`] on `tier`.
    fn backward_params_on(&mut self, tier: Tier, grad_output: &Tensor) -> Result<(), NnError> {
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
        matmul_tn_into_on(
            tier,
            input.data(),
            dy,
            batch,
            inf,
            of,
            &mut self.gathered,
            &mut self.dw,
        );
        accumulate_on(tier, self.block.grad_weights.data_mut(), &self.dw);
        // db = column sums of dY, accumulated.
        add_column_sums_on(tier, self.block.grad_bias.data_mut(), dy);
        Ok(())
    }
}

impl Layer for Dense {
    fn name(&self) -> &'static str {
        "dense"
    }

    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError> {
        self.forward_on(Tier::best(), input, output)
    }

    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError> {
        self.backward_on(Tier::best(), grad_output, grad_input)
    }

    /// The weight and bias gradients only: as a model's first layer the
    /// input gradient `dY · Wᵀ` is never read, so it is not computed.
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.backward_params_on(Tier::best(), grad_output)
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

/// `out[b][j] += bias[j]` for every row `b` of `out`.
fn add_bias_on(tier: Tier, out: &mut [f32], bias: &[f32]) {
    if bias.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        return avx512::add_bias(out, bias);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for row in out.chunks_exact_mut(bias.len()) {
        for (o, &bias) in row.iter_mut().zip(bias) {
            *o += bias;
        }
    }
}

/// `into[i] += from[i]`.
fn accumulate_on(tier: Tier, into: &mut [f32], from: &[f32]) {
    assert_eq!(into.len(), from.len());
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        return avx512::accumulate(into, from);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for (g, &d) in into.iter_mut().zip(from) {
        *g += d;
    }
}

/// `sums[j] += rows[b][j]` for every row `b` of `rows`, in order.
fn add_column_sums_on(tier: Tier, sums: &mut [f32], rows: &[f32]) {
    if sums.is_empty() {
        return;
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        return avx512::add_column_sums(sums, rows);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for row in rows.chunks_exact(sums.len()) {
        for (g, &d) in sums.iter_mut().zip(row) {
            *g += d;
        }
    }
}

/// The element-wise passes on the `Avx512` rung, sixteen columns a
/// register, a ragged end masked. All of the layer's own `unsafe` is here,
/// behind safe entries that check the CPU and the lengths first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;

    const LANES: usize = 16;

    /// Panics unless the CPU reaches [`Tier::Avx512`].
    fn check() {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 dense pass selected on a CPU without it"
        );
    }

    /// The lanes of `len` columns from `j` on, at most sixteen.
    fn lanes(len: usize, j: usize) -> __mmask16 {
        ((1u32 << (len - j).min(LANES)) - 1) as __mmask16
    }

    /// [`super::add_bias_on`]'s loop.
    pub(super) fn add_bias(out: &mut [f32], bias: &[f32]) {
        check();
        assert!(out.len().is_multiple_of(bias.len()));
        // SAFETY: AVX-512 F was just confirmed; every access is a masked
        // load or store within a row of `out` or within `bias`.
        unsafe { add_bias_wide(out, bias) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn add_bias_wide(out: &mut [f32], bias: &[f32]) {
        let n = bias.len();
        for row in out.chunks_exact_mut(n) {
            for j in (0..n).step_by(LANES) {
                let mask = lanes(n, j);
                let b = _mm512_maskz_loadu_ps(mask, bias.as_ptr().add(j));
                let o = _mm512_maskz_loadu_ps(mask, row.as_ptr().add(j));
                _mm512_mask_storeu_ps(row.as_mut_ptr().add(j), mask, _mm512_add_ps(o, b));
            }
        }
    }

    /// [`super::accumulate_on`]'s loop.
    pub(super) fn accumulate(into: &mut [f32], from: &[f32]) {
        check();
        assert_eq!(into.len(), from.len());
        // SAFETY: as in `add_bias`, within `into` and `from`, which are
        // equally long.
        unsafe { accumulate_wide(into, from) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn accumulate_wide(into: &mut [f32], from: &[f32]) {
        let n = into.len();
        for j in (0..n).step_by(LANES) {
            let mask = lanes(n, j);
            let d = _mm512_maskz_loadu_ps(mask, from.as_ptr().add(j));
            let g = _mm512_maskz_loadu_ps(mask, into.as_ptr().add(j));
            _mm512_mask_storeu_ps(into.as_mut_ptr().add(j), mask, _mm512_add_ps(g, d));
        }
    }

    /// [`super::add_column_sums_on`]'s loop: four registers of columns at
    /// a time, each adding the rows in order.
    pub(super) fn add_column_sums(sums: &mut [f32], rows: &[f32]) {
        check();
        assert!(rows.len().is_multiple_of(sums.len()));
        // SAFETY: as in `add_bias`, within `sums` and each row of `rows`.
        unsafe { add_column_sums_wide(sums, rows) }
    }

    #[target_feature(enable = "avx512f")]
    unsafe fn add_column_sums_wide(sums: &mut [f32], rows: &[f32]) {
        const REGISTERS: usize = 4;
        let n = sums.len();
        for j in (0..n).step_by(REGISTERS * LANES) {
            let mut masks = [0; REGISTERS];
            let mut acc = [_mm512_setzero_ps(); REGISTERS];
            for (z, (mask, acc)) in masks.iter_mut().zip(&mut acc).enumerate() {
                let at = j + z * LANES;
                if at < n {
                    *mask = lanes(n, at);
                    *acc = _mm512_maskz_loadu_ps(*mask, sums.as_ptr().add(at));
                }
            }
            for row in rows.chunks_exact(n) {
                for (z, (&mask, acc)) in masks.iter().zip(&mut acc).enumerate() {
                    if mask != 0 {
                        let d = _mm512_maskz_loadu_ps(mask, row.as_ptr().add(j + z * LANES));
                        *acc = _mm512_add_ps(*acc, d);
                    }
                }
            }
            for (z, (&mask, &acc)) in masks.iter().zip(&acc).enumerate() {
                if mask != 0 {
                    _mm512_mask_storeu_ps(sums.as_mut_ptr().add(j + z * LANES), mask, acc);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::hostile;
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

    /// The bias add, the `dW` accumulation and the bias gradient's column
    /// sums on every rung against their scalar loops, at every width 1–33
    /// (the classifier's 6 among them) and the widths two passes of four
    /// registers leave ragged, over one row, a few and `fl_train`'s batch,
    /// on hostile values: NaN payloads, ±0.0, ±∞ and subnormals.
    #[test]
    fn bias_passes_match_the_scalar_loops_on_every_rung_and_width() {
        let tiers = Tier::runnable(Dense::TIERS);
        println!("dense tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(56);
        for width in (1..=33).chain([64, 65, 130]) {
            for rows in [1, 3, 64] {
                let bias = hostile::values(width, &mut rng);
                let out = hostile::values(rows * width, &mut rng);
                let sums = hostile::values(width, &mut rng);
                let mut want_out = out.clone();
                add_bias_on(Tier::Scalar, &mut want_out, &bias);
                let mut want_acc = out.clone();
                accumulate_on(Tier::Scalar, &mut want_acc[..width], &bias);
                let mut want_sums = sums.clone();
                add_column_sums_on(Tier::Scalar, &mut want_sums, &out);
                for &tier in &tiers {
                    let what = format!("{tier:?} {rows}×{width}");
                    let mut got = out.clone();
                    add_bias_on(tier, &mut got, &bias);
                    hostile::assert_bits_eq(&format!("{what} bias add"), &got, &want_out);
                    let mut got = out.clone();
                    accumulate_on(tier, &mut got[..width], &bias);
                    hostile::assert_bits_eq(&format!("{what} accumulate"), &got, &want_acc);
                    let mut got = sums.clone();
                    add_column_sums_on(tier, &mut got, &out);
                    hostile::assert_bits_eq(&format!("{what} column sums"), &got, &want_sums);
                }
            }
        }
    }

    /// A whole forward and two backward passes on every rung against the
    /// scalar tier, at `fl_train`'s three layer shapes and ragged ones, on
    /// a ReLU-like input (half ±0.0) with an ∞ and a NaN in it and a
    /// hostile output gradient: output, input gradient and accumulated
    /// parameter gradients keep the scalar tier's bits.
    #[test]
    fn dense_passes_match_the_scalar_tier_on_every_rung() {
        let tiers = Tier::runnable(Dense::TIERS);
        println!("dense pass tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(57);
        let shapes = [(32, 32), (32, 16), (16, 6), (1, 1), (7, 33), (33, 17)];
        for (inputs, outputs) in shapes {
            for batch in hostile::BATCHES {
                let template = Dense::new(inputs, outputs, &mut rng);
                let mut x = Tensor::from_fn(vec![batch, inputs], |_| {
                    let v: f32 = rng.gen_range(-1.0..1.0);
                    if v < 0.0 {
                        [0.0, -0.0][rng.gen_range(0..2)]
                    } else {
                        v
                    }
                });
                x.data_mut()[0] = f32::INFINITY;
                x.data_mut()[batch * inputs - 1] = f32::NAN;
                let g = hostile::grad(vec![batch, outputs], &mut rng);
                let run = |tier: Tier| {
                    let mut layer = template.clone();
                    let (mut y, mut dx) = (Tensor::full(vec![1], f32::NAN), Tensor::default());
                    layer.forward_on(tier, &x, &mut y).unwrap();
                    layer.backward_on(tier, &g, &mut dx).unwrap();
                    layer.backward_on(tier, &g, &mut dx).unwrap();
                    (y, dx, layer.block.grads())
                };
                let (want_y, want_dx, want_grads) = run(Tier::Scalar);
                for &tier in &tiers {
                    let (y, dx, grads) = run(tier);
                    let what = format!("{tier:?} {batch}×{inputs}→{outputs}");
                    hostile::assert_bits_eq(&format!("{what} y"), y.data(), want_y.data());
                    hostile::assert_bits_eq(&format!("{what} dx"), dx.data(), want_dx.data());
                    let (got, want) = (grads.values(), want_grads.values());
                    hostile::assert_bits_eq(&format!("{what} grads"), got, want);
                }
            }
        }
    }

    #[test]
    fn numerical_gradient_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Tensor::randn(vec![2, 3], 0.0, 1.0, &mut rng);
        crate::gradcheck::check_layer(Box::new(layer), &x, 1e-2).unwrap();
    }
}
