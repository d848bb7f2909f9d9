//! 2-D max pooling.

use crate::layers::Layer;
use crate::NnError;
use mixnn_cpu::Tier;
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
/// On the [`Tier::Avx512`] rung of the CPU ladder, where every row pair
/// lies end to end and a register's windows span whole rows (even extents,
/// at most eight windows a row, a power of two — the 8×8 and 4×4 planes of
/// every zoo model on every dataset), both 2×2 passes run AVX-512 kernels
/// with the scalar loops' bits. The fold takes sixteen windows from four
/// contiguous loads, each lane making the same four strict `>` steps in
/// the same scan order from −∞. The backward pass writes every
/// input-gradient element once instead of zero-filling and scattering:
/// `+0.0 + g` at each window's winner (windows never overlap, so no
/// position receives two terms), +0.0 elsewhere. Other extents run the
/// scalar loops on every rung. Which rung runs is detection alone
/// ([`Tier::best`]).
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

    /// The rungs with a `MaxPool2d` kernel, scalar first. Not an option:
    /// the layer runs [`Tier::best`]; the tests and bench rows run each
    /// rung the host reaches.
    #[doc(hidden)]
    pub const TIERS: &'static [Tier] = &[Tier::Scalar, Tier::Avx512];

    /// [`Layer::forward`] on `tier`: the same output and winners. Panics
    /// if `tier` selects a kernel the CPU cannot run.
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
        self.input_dims = Some([batch, c, h, w]);
        let x = input.data();
        #[cfg(target_arch = "x86_64")]
        if k == 2 && tier >= Tier::Avx512 && avx512::end_to_end([h, w]) {
            avx512::fold_row_pairs(x, [h, w], output.data_mut(), &mut self.argmax);
            return Ok(());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
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
        #[cfg(target_arch = "x86_64")]
        if self.window == 2 && tier >= Tier::Avx512 && avx512::end_to_end([dims[2], dims[3]]) {
            avx512::spread(grad_output.data(), &self.argmax, [dims[2], dims[3]], dx);
            return Ok(());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        dx.fill(0.0);
        for (&at, &g) in self.argmax.iter().zip(grad_output.data()) {
            dx[at] += g;
        }
        Ok(())
    }
}

impl Layer for MaxPool2d {
    fn name(&self) -> &'static str {
        "maxpool2d"
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

/// The 2×2 fold and the backward spread on the `Avx512` rung. All of the
/// layer's `unsafe` is here, behind safe entries that check the CPU and
/// the lengths first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;

    const LANES: usize = 16;

    /// Panics unless the CPU reaches [`Tier::Avx512`].
    fn check() {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 max pooling selected on a CPU without it"
        );
    }

    /// The first `len` lanes (all of them from [`LANES`] on).
    fn lanes(len: usize) -> __mmask16 {
        ((1u32 << len.min(LANES)) - 1) as __mmask16
    }

    /// [`super::max_of_row_pair`] over every output row of `x`, planes of
    /// `[h, w]` laid out [`end_to_end`]: the same outputs and winners.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`] and `[h, w]` is laid
    /// out [`end_to_end`], or if `x` is not four inputs per element of
    /// `out` and of `argmax`.
    pub(super) fn fold_row_pairs(
        x: &[f32],
        [h, w]: [usize; 2],
        out: &mut [f32],
        argmax: &mut [usize],
    ) {
        check();
        assert!(end_to_end([h, w]));
        assert!(x.len() == 4 * out.len() && argmax.len() == out.len());
        // SAFETY: AVX-512 F and DQ were just confirmed; every load and
        // store is masked to `x`, `out` and `argmax`, whose lengths were
        // just checked.
        unsafe { fold_wide(x, w / 2, out, argmax) }
    }

    /// Whether planes of `[h, w]` are row pairs laid end to end — even
    /// extents — whose windows fill a register's sixteen lanes with whole
    /// rows: at most eight windows a row, a power of two. Then every 2×2
    /// window's four inputs are `x[4o..4o + 4]` rearranged, `o` its output.
    pub(super) fn end_to_end([h, w]: [usize; 2]) -> bool {
        h % 2 == 0 && w % 2 == 0 && w <= 16 && (w / 2).is_power_of_two()
    }

    /// The four scan positions of lane `l` among the 64 inputs of sixteen
    /// windows laid out [`end_to_end`], `ow` a row: its row pair `l / ow`
    /// is `4·ow` inputs long, its window `l % ow` two columns wide.
    fn positions(ow: usize) -> [[i32; LANES]; 4] {
        let w = 2 * ow as i32;
        let first = |l: usize| (l / ow * 4 * ow + l % ow * 2) as i32;
        [0, 1, w, w + 1].map(|offset| std::array::from_fn(|l| first(l) + offset))
    }

    /// Masked load of the lanes `mask` selects from `at`, all zero when
    /// `mask` is empty (and `at` may then lie past the end).
    #[inline(always)]
    unsafe fn load(mask: __mmask16, x: &[f32], at: usize) -> __m512 {
        if mask == 0 {
            _mm512_setzero_ps()
        } else {
            _mm512_maskz_loadu_ps(mask, x.as_ptr().add(at))
        }
    }

    /// The four strict `>` steps of every lane from −∞, the winner's
    /// position starting at the first step's: the scalar scan.
    #[inline(always)]
    unsafe fn scan(steps: [(__m512, __m512i); 4]) -> (__m512, __m512i) {
        let mut best = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut at = steps[0].1;
        for (v, pos) in steps {
            let wins = _mm512_cmp_ps_mask::<_CMP_GT_OQ>(v, best);
            best = _mm512_mask_mov_ps(best, wins, v);
            at = _mm512_mask_mov_epi32(at, wins, pos);
        }
        (best, at)
    }

    /// Stores the winners of `mask`'s lanes: `base` plus each lane's
    /// position.
    #[inline(always)]
    unsafe fn store_winners(
        argmax: &mut [usize],
        o: usize,
        mask: __mmask16,
        base: usize,
        at: __m512i,
    ) {
        let base = _mm512_set1_epi64(base as i64);
        let halves = [
            _mm512_castsi512_si256(at),
            _mm512_extracti64x4_epi64::<1>(at),
        ];
        for (half, pos) in halves.into_iter().enumerate() {
            let mask = (mask >> (8 * half)) as __mmask8;
            if mask != 0 {
                let winners = _mm512_add_epi64(base, _mm512_cvtepu32_epi64(pos));
                let to = argmax.as_mut_ptr().add(o + 8 * half) as *mut i64;
                _mm512_mask_storeu_epi64(to, mask, winners);
            }
        }
    }

    /// Window `o`'s four values are `x[4o..4o + 4]` rearranged, so sixteen
    /// windows come from four registers of contiguous input.
    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn fold_wide(x: &[f32], ow: usize, out: &mut [f32], argmax: &mut [usize]) {
        // Lanes 0–7 read the chunk's first 32 inputs and lanes 8–15 the
        // next 32, which a two-register permute indexes alike by the low
        // five bits of a position.
        let pos = positions(ow).map(|p| _mm512_loadu_si512(p.as_ptr().cast()));
        for o in (0..out.len()).step_by(LANES) {
            let mask = lanes(out.len() - o);
            let inputs = 4 * (out.len() - o);
            let z = [0, 1, 2, 3].map(|q| {
                load(
                    lanes(inputs.saturating_sub(q * LANES)),
                    x,
                    4 * o + q * LANES,
                )
            });
            let steps = pos.map(|p| {
                let low = _mm512_permutex2var_ps(z[0], p, z[1]);
                let high = _mm512_permutex2var_ps(z[2], p, z[3]);
                (_mm512_mask_blend_ps(0xff00, low, high), p)
            });
            let (best, at) = scan(steps);
            _mm512_mask_storeu_ps(out.as_mut_ptr().add(o), mask, best);
            store_winners(argmax, o, mask, 4 * o, at);
        }
    }

    /// The scalar zero-fill and scatter-add of
    /// [`super::MaxPool2d::backward_on`] for planes of `[h, w]` laid out
    /// [`end_to_end`], in one pass that writes every element of `dx`
    /// once: window `o`'s winner gets `+0.0 + g[o]`, its three other
    /// inputs +0.0. Sixteen windows a pass, their 64 inputs four
    /// registers, each input picking its window's winner and gradient by
    /// a permute.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`] and `[h, w]` is
    /// laid out [`end_to_end`], if `dx` is not four inputs per window of
    /// `g`, or if `argmax` does not hold one winner per window.
    pub(super) fn spread(g: &[f32], argmax: &[usize], [h, w]: [usize; 2], dx: &mut [f32]) {
        check();
        assert!(end_to_end([h, w]));
        assert_eq!(g.len(), argmax.len());
        assert_eq!(dx.len(), 4 * g.len());
        // SAFETY: AVX-512 F and DQ were just confirmed; every load and
        // store is masked to `g`, `argmax` and `dx`, whose lengths were
        // just checked.
        unsafe { spread_wide(g, argmax, w / 2, dx) }
    }

    #[target_feature(enable = "avx512f,avx512dq")]
    unsafe fn spread_wide(g: &[f32], argmax: &[usize], ow: usize, dx: &mut [f32]) {
        // Per register `q` of the 64 inputs, the lane of the window each
        // input belongs to, and the input's own position.
        let mut owner = [[0i32; LANES]; 4];
        for pos in positions(ow) {
            for (l, p) in pos.into_iter().enumerate() {
                owner[p as usize / LANES][p as usize % LANES] = l as i32;
            }
        }
        let owner = owner.map(|o| _mm512_loadu_si512(o.as_ptr().cast()));
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let zero = _mm512_setzero_ps();
        for o in (0..g.len()).step_by(LANES) {
            let mask = lanes(g.len() - o);
            let values = _mm512_add_ps(zero, _mm512_maskz_loadu_ps(mask, g.as_ptr().add(o)));
            // Each window's winner as a position among the chunk's inputs.
            let base = _mm512_set1_epi64(4 * o as i64);
            let [low, high] = [0, 1].map(|half| {
                let mask = (mask >> (8 * half)) as __mmask8;
                let at = if mask == 0 {
                    base
                } else {
                    let from = argmax.as_ptr().add(o + 8 * half) as *const i64;
                    _mm512_maskz_loadu_epi64(mask, from)
                };
                _mm512_cvtepi64_epi32(_mm512_sub_epi64(at, base))
            });
            let winners = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(low), high);
            let inputs = 4 * (g.len() - o);
            for (q, &owner) in owner.iter().enumerate() {
                let count = inputs.saturating_sub(q * LANES);
                if count == 0 {
                    break;
                }
                let position = _mm512_add_epi32(lane, _mm512_set1_epi32((q * LANES) as i32));
                let won =
                    _mm512_cmpeq_epi32_mask(_mm512_permutexvar_epi32(owner, winners), position);
                let spread = _mm512_maskz_mov_ps(won, _mm512_permutexvar_ps(owner, values));
                _mm512_mask_storeu_ps(dx.as_mut_ptr().add(4 * o + q * LANES), lanes(count), spread);
            }
        }
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
        let tiers = Tier::runnable(MaxPool2d::TIERS);
        println!("max-pool tiers exercised: {tiers:?}");
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
                let (want, want_argmax) = pool.forward_reference(&x);
                let out_dims = vec![batch, 2, h / window, w / window];
                let g = Tensor::randn(out_dims, 0.0, 1.0, &mut rng);
                let mut want_dx = vec![0.0; x.len()];
                for (&at, &go) in want_argmax.iter().zip(g.data()) {
                    want_dx[at] += go;
                }
                for &tier in &tiers {
                    let what = format!("{tier:?}, window {window}, {h}×{w}");
                    pool.forward_on(tier, &x, &mut y).unwrap();
                    hostile::assert_bits_eq(&format!("{what} forward"), y.data(), &want);
                    assert_eq!(pool.argmax, want_argmax, "{what} argmax");
                    dx.data_mut().fill(f32::NAN);
                    pool.backward_on(tier, &g, &mut dx).unwrap();
                    hostile::assert_bits_eq(&format!("{what} dx"), dx.data(), &want_dx);
                }
                exercised += 1;
            }
        }
        println!("max-pool geometries exercised: {exercised}");
    }

    /// The 2×2 fold and the scatter on every rung against the direct
    /// loop, at every width 1–33 over heights 2–5 (the end-to-end planes
    /// the wide tier takes, ragged ends and the extents it leaves to the
    /// scalar loops), `fl_train`'s two pooling shapes included, on
    /// hostile values: NaN payloads, ±0.0, ±∞,
    /// subnormals and windows that tie, some holding only NaN and −∞.
    /// The gradient carries ±0.0, ±∞ and NaNs too, and every pass writes
    /// into a NaN-filled buffer.
    #[test]
    fn the_two_by_two_fold_matches_the_direct_loop_on_every_rung_and_width() {
        let tiers = Tier::runnable(MaxPool2d::TIERS);
        println!("2x2 max-pool tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(54);
        let ties = [-1.0, -0.0, 0.0, 1.0, f32::NEG_INFINITY, f32::NAN];
        let mut shapes: Vec<[usize; 4]> = (1..=33)
            .flat_map(|w| (2..=5).map(move |h| [3, 2, h, w]))
            .filter(|&[_, _, _, w]| w >= 2)
            .collect();
        shapes.extend([[64, 4, 8, 8], [64, 8, 4, 4], [5, 3, 4, 16], [2, 1, 6, 34]]);
        let mut pool = MaxPool2d::new(2);
        for dims in shapes {
            let len = dims.iter().product();
            let mut values = hostile::values(len, &mut rng);
            for v in values.iter_mut() {
                if rng.gen_bool(0.4) {
                    *v = ties[rng.gen_range(0..ties.len())];
                }
            }
            let x = Tensor::from_vec(dims.to_vec(), values).unwrap();
            let (want, want_argmax) = pool.forward_reference(&x);
            let out_dims = vec![dims[0], dims[1], dims[2] / 2, dims[3] / 2];
            let g = Tensor::from_vec(out_dims, hostile::values(want.len(), &mut rng)).unwrap();
            let mut want_dx = vec![0.0; len];
            for (&at, &go) in want_argmax.iter().zip(g.data()) {
                want_dx[at] += go;
            }
            for &tier in &tiers {
                let what = format!("{tier:?} {dims:?}");
                let mut y = Tensor::full(vec![want.len()], f32::NAN);
                pool.forward_on(tier, &x, &mut y).unwrap();
                hostile::assert_bits_eq(&format!("{what} forward"), y.data(), &want);
                assert_eq!(pool.argmax, want_argmax, "{what} argmax");
                let mut dx = Tensor::full(vec![len], f32::NAN);
                pool.backward_on(tier, &g, &mut dx).unwrap();
                hostile::assert_bits_eq(&format!("{what} dx"), dx.data(), &want_dx);
            }
        }
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
