//! The loops [`crate::Conv2d`] and [`crate::LocallyConnected2d`] share.
//!
//! Both layers slide a `k`×`k` window over an NCHW input; they differ only
//! in where an output position finds its kernel and bias (one per output
//! channel for a convolution, one per output channel *and* position for a
//! locally connected layer), which [`Window`] answers.
//!
//! **Forward, batch innermost.** The input is first copied to
//! `[channel][row][column][batch]` order ([`to_batch_innermost`]); that
//! copy is also what the layer keeps for its backward pass, in place of a
//! clone of the input. Each output position then sums over its taps for
//! [`LANES`] examples at once: the innermost loop runs over a contiguous
//! run of the batch, so the baseline target vectorises it without any SIMD
//! code here, and the running sums stay in registers. Per output element
//! the f32 operations are exactly those of the direct loop — `acc = bias`,
//! then `acc += x·w` for every tap in ascending `(ic, kh, kw)` order — and
//! vector lanes round each operation as the scalar unit does, with no
//! fused multiply-add (Rust never contracts `a * b + c`). So the output is
//! bit-identical to the direct loop's. Taps that fall in the zero padding
//! are left out of the loop bounds rather than added as `0·w`: the sum
//! `-0.0 + 0·w` is `+0.0`, so adding them would change an output whose
//! bias is `-0.0` and whose taps all lie in the padding.
//!
//! **Backward, one kernel at a time.** [`Passes::backward`] makes the
//! kernel unit — an output channel of a convolution, an output channel and
//! position of a locally connected layer — the outer loop, so the unit's
//! kernel and bias gradients are summed in locals (registers, for the 3×3
//! windows the paper's models use) instead of being loaded, added to and
//! stored back once per output gradient. The batch goes through in blocks
//! of examples, each copied out of the batch-innermost input into NCHW
//! order inside a zero border of the layer's padding. Within a block the
//! unit's non-zero output gradients are gathered once, without a branch per
//! gradient, in `(b, oy, ox)` order, and walked once per input channel;
//! each step adds `go·x` to the channel's kernel sums and `go·w` to the
//! input gradient, which a block keeps in the same padded layout. So every
//! kernel and bias gradient still accumulates in `(b, oy, ox)` order and
//! every input gradient in `(oc, oy, ox)` order — per element exactly the
//! direct loop's operations, zero output gradients skipped. A padding tap
//! reads the border's +0.0; for a finite output gradient `go·0` is ±0.0,
//! and adding it leaves a sum unchanged because a sum that starts at +0.0
//! and only receives additions never holds −0.0 under round-to-nearest
//! (what lands in the input gradient's border is dropped). For ±∞ or NaN it
//! would be NaN, so such an output gradient runs with its padding taps
//! skipped. A model's first layer skips the input gradient altogether
//! ([`Passes::backward_params`]): nobody reads the gradient of the data.
//! The batch is not vectorised here: it is a reduction axis for the kernel
//! gradients, and behind ReLU and max pooling three in four output
//! gradients or more are zero, which the gather turns into no work.
//!
//! **The wide tier.** Those loops are the scalar twin. On the
//! [`Tier::Avx512`] rung of the CPU ladder each pass has an AVX-512
//! kernel instead (the `avx512` module), and each output and gradient
//! element still sees exactly the scalar twin's f32 operations in the
//! scalar twin's order: a lane of a vector multiply or add rounds as the
//! scalar unit does, nothing is fused, and what runs side by side is only
//! ever a set of independent elements — sixteen examples of one output
//! element, a kernel unit's `3·3·in_c` sums. The forward pass puts
//! sixteen examples in a register and sums up to eight output channels
//! from each input load. The input gradient is gathered rather than
//! scattered: sixteen examples of one element summed in a register over
//! the output gradients that reach it, in `(oc, oy, ox)` order, a zero
//! gradient's lane masked out of the add as the twin skips it. The kernel
//! and bias gradients keep the twin's hits in `(b, oy, ox)` order, found
//! sixteen candidates per compare, and add each hit to all of a unit's
//! sums at once, a window row in one load from an input laid out channel
//! innermost. Which rung runs is detection alone: the layers pass
//! [`Tier::best`], the tests every rung the host reaches.

use crate::{NnError, ParamBlock};
use mixnn_cpu::Tier;
use mixnn_tensor::Tensor;
use std::ops::Range;

/// The rungs with a windowed-pass kernel, scalar first. Not an option:
/// the layers run [`Tier::best`]; the tests run each rung the host
/// reaches.
#[cfg(test)]
pub(crate) const TIERS: &[Tier] = &[Tier::Scalar, Tier::Avx512];

/// Examples summed together by the forward pass's innermost loop. Sixteen
/// f32 accumulators fit in registers on every x86-64 target (four SSE
/// vectors), giving the adder four independent chains.
pub(crate) const LANES: usize = 16;

/// The geometry of one windowed pass over a batch.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Window {
    pub batch: usize,
    pub in_c: usize,
    pub out_c: usize,
    pub in_h: usize,
    pub in_w: usize,
    pub out_h: usize,
    pub out_w: usize,
    pub kernel: usize,
    pub stride: usize,
    pub padding: usize,
    /// One kernel and bias per output channel (a convolution) rather than
    /// per output channel and position (a locally connected layer).
    pub shared: bool,
}

impl Window {
    /// Scalars in one output position's kernel.
    fn kernel_len(&self) -> usize {
        self.in_c * self.kernel * self.kernel
    }

    /// Index of the first weight of `(oc, oy, ox)`'s kernel.
    fn kernel_at(&self, oc: usize, oy: usize, ox: usize) -> usize {
        let unit = if self.shared {
            oc
        } else {
            (oc * self.out_h + oy) * self.out_w + ox
        };
        unit * self.kernel_len()
    }

    /// Index of `(oc, oy, ox)`'s bias.
    fn bias_at(&self, oc: usize, oy: usize, ox: usize) -> usize {
        if self.shared {
            oc
        } else {
            (oc * self.out_h + oy) * self.out_w + ox
        }
    }

    /// The kernel offsets of output coordinate `o` that land inside an
    /// input extent `n`, i.e. the `kk` with `0 <= o·stride + kk − padding < n`.
    fn taps(&self, o: usize, n: usize) -> Range<usize> {
        let start = o * self.stride;
        let lo = self.padding.saturating_sub(start);
        let hi = (n + self.padding).saturating_sub(start).min(self.kernel);
        lo..hi.max(lo)
    }

    /// Input coordinate of kernel offset `kk` at output coordinate `o`
    /// (only for `kk` in [`Window::taps`]).
    fn input_at(&self, o: usize, kk: usize) -> usize {
        o * self.stride + kk - self.padding
    }
}

/// What a windowed layer keeps from one pass to the next: the last forward
/// pass's geometry and input (batch innermost), and the buffers the
/// backward pass reuses.
#[derive(Debug, Clone, Default)]
pub(crate) struct Passes {
    last: Option<Window>,
    /// The last forward input, `[c][h][w][batch]`.
    input: Vec<f32>,
    /// One backward block: its examples of the input in NCHW order inside
    /// a zero border of the layer's padding, then, when the input gradient
    /// is wanted, that gradient laid out alike.
    padded: Vec<f32>,
    /// One kernel unit's non-zero output gradients in a block.
    hits: Vec<Hit>,
    /// What the wide tier's backward pass keeps.
    #[cfg(target_arch = "x86_64")]
    wide: avx512::Scratch,
}

impl Passes {
    /// Runs the forward pass of `win` (already checked against `input`)
    /// into `out`, every element of it, and keeps what the backward pass
    /// needs.
    pub(crate) fn forward(
        &mut self,
        win: Window,
        input: &Tensor,
        block: &ParamBlock,
        out: &mut Tensor,
    ) {
        self.forward_on(Tier::best(), win, input, block, out);
    }

    /// [`Passes::forward`] on `tier`: the same output.
    pub(crate) fn forward_on(
        &mut self,
        tier: Tier,
        win: Window,
        input: &Tensor,
        block: &ParamBlock,
        out: &mut Tensor,
    ) {
        out.resize(&[win.batch, win.out_c, win.out_h, win.out_w]);
        let (weights, bias) = (block.weights.data(), block.bias.data());
        self.last = Some(win);
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx512 {
            avx512::to_batch_innermost(input.data(), win.batch, &mut self.input);
            return avx512::forward(&win, &self.input, weights, bias, out.data_mut());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        to_batch_innermost(input.data(), win.batch, &mut self.input);
        forward(&win, &self.input, weights, bias, out.data_mut());
    }

    /// Runs the backward pass of the last forward pass: adds to `block`'s
    /// kernel and bias gradients and writes the input gradient into `dx`,
    /// every element of it.
    ///
    /// # Errors
    ///
    /// [`NnError::BackwardBeforeForward`] before any forward pass, and
    /// [`NnError::BadInput`] if `grad_output` is not the last output's shape.
    pub(crate) fn backward(
        &mut self,
        grad_output: &Tensor,
        block: &mut ParamBlock,
        dx: &mut Tensor,
    ) -> Result<(), NnError> {
        self.backward_on(Tier::best(), grad_output, block, Some(dx))
    }

    /// [`Passes::backward`] without the input gradient: adds to `block`'s
    /// kernel and bias gradients only.
    ///
    /// # Errors
    ///
    /// As [`Passes::backward`].
    pub(crate) fn backward_params(
        &mut self,
        grad_output: &Tensor,
        block: &mut ParamBlock,
    ) -> Result<(), NnError> {
        self.backward_on(Tier::best(), grad_output, block, None)
    }

    /// [`Passes::backward`] on `tier`, or [`Passes::backward_params`] when
    /// `dx` is `None`: the same gradients.
    ///
    /// # Errors
    ///
    /// As [`Passes::backward`].
    pub(crate) fn backward_on(
        &mut self,
        tier: Tier,
        grad_output: &Tensor,
        block: &mut ParamBlock,
        dx: Option<&mut Tensor>,
    ) -> Result<(), NnError> {
        let win = self.backward_window(grad_output, block.layer)?;
        let g = grad_output.data();
        let dx = dx.map(|dx| {
            dx.resize(&[win.batch, win.in_c, win.in_h, win.in_w]);
            dx.data_mut()
        });
        #[cfg(target_arch = "x86_64")]
        if tier >= Tier::Avx512 {
            self.wide_backward(win, g, block, dx);
            return Ok(());
        }
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        self.backward_blocks(win, g, block, dx);
        Ok(())
    }

    /// The last forward pass's geometry, checked against `grad_output`.
    fn backward_window(&self, grad_output: &Tensor, layer: &str) -> Result<Window, NnError> {
        let win = self.last.ok_or_else(|| NnError::BackwardBeforeForward {
            layer: layer.to_string(),
        })?;
        let out_dims = [win.batch, win.out_c, win.out_h, win.out_w];
        if grad_output.dims() != out_dims {
            return Err(NnError::BadInput {
                layer: layer.to_string(),
                expected: format!("{out_dims:?}"),
                actual: grad_output.dims().to_vec(),
            });
        }
        Ok(win)
    }

    /// The backward pass over the batch, a block of examples at a time:
    /// adds to `block`'s kernel and bias gradients and, given `dx`, writes
    /// the input gradient there, every element of it (the blocks' padded
    /// gradients are what accumulate, and they start from zero).
    fn backward_blocks(
        &mut self,
        win: Window,
        g: &[f32],
        block: &mut ParamBlock,
        mut dx: Option<&mut [f32]>,
    ) {
        let pad = Padded::of(&win);
        let unit_hw = if win.shared { win.out_h * win.out_w } else { 1 };
        let examples = (BLOCK / unit_hw.max(1)).clamp(1, win.batch.max(1));
        let copies = if dx.is_some() { 2 } else { 1 };
        self.hits.resize(examples * unit_hw, Hit::default());
        self.padded.resize(copies * examples * pad.example, 0.0);
        let (xp, dxp) = self.padded.split_at_mut(examples * pad.example);
        let (weights, kernels, biases) = (
            block.weights.data(),
            block.grad_weights.data_mut(),
            block.grad_bias.data_mut(),
        );
        for b0 in (0..win.batch).step_by(examples) {
            let b = b0..win.batch.min(b0 + examples);
            let span = b.len() * pad.example;
            pad.fill(&win, &self.input, b.clone(), &mut xp[..span]);
            let pass = Block {
                win: &win,
                pad,
                b: b.clone(),
                x: &xp[..span],
                g,
                weights,
            };
            let hits = &mut self.hits;
            // The paper's models use 3×3 windows only; that copy of the
            // loop runs with its bounds known and a kernel's sums in
            // registers.
            match (win.kernel, dx.as_deref_mut()) {
                (3, None) => pass.run::<9, false>(3, hits, kernels, biases, &mut []),
                (k, None) => pass.run::<0, false>(k, hits, kernels, biases, &mut []),
                (k, Some(dx)) => {
                    let dxp = &mut dxp[..span];
                    dxp.fill(0.0);
                    if k == 3 {
                        pass.run::<9, true>(3, hits, kernels, biases, dxp);
                    } else {
                        pass.run::<0, true>(k, hits, kernels, biases, dxp);
                    }
                    pad.crop(&win, dxp, b, dx);
                }
            }
        }
    }

    /// [`Passes::backward_blocks`] on the wide tier. The input gradient
    /// is one pass over the batch ([`avx512::input_grad`]); the kernel and
    /// bias gradients run a chunk of [`LANES`] examples at a time, each
    /// copied into the cell layout ([`Padded::fill_cells`]), or take the
    /// scalar tier's loops for a window [`avx512::sums_fit`] refuses.
    #[cfg(target_arch = "x86_64")]
    fn wide_backward(
        &mut self,
        win: Window,
        g: &[f32],
        block: &mut ParamBlock,
        dx: Option<&mut [f32]>,
    ) {
        let sums_fit = avx512::sums_fit(&win);
        let gt = &mut self.wide.grad;
        if dx.is_some() || (sums_fit && !win.shared) {
            avx512::to_batch_innermost(g, win.batch, gt);
        }
        if let Some(dx) = dx {
            avx512::input_grad(&win, gt, block.weights.data(), dx);
        }
        if !sums_fit {
            return self.backward_blocks(win, g, block, None);
        }
        let pad = Padded::of(&win);
        self.padded.resize(LANES * pad.example, 0.0);
        for b0 in (0..win.batch).step_by(LANES) {
            let b = b0..win.batch.min(b0 + LANES);
            let x = &mut self.padded[..b.len() * pad.example];
            pad.fill_cells(&win, &self.input, b.clone(), x);
            let cells = avx512::Cells {
                win: &win,
                pad,
                b,
                x,
                g,
                gt: &self.wide.grad,
            };
            avx512::kernel_sums(&cells, &mut self.wide.offsets, block);
        }
    }
}

/// Output-gradient candidates a kernel unit gathers per block: enough that
/// the loop over its hits runs long, few enough that the block's examples
/// stay in cache.
const BLOCK: usize = 256;

/// The input extent inside the zero border the backward pass works in.
#[derive(Debug, Clone, Copy)]
struct Padded {
    /// Padded rows and columns of one channel.
    h: usize,
    w: usize,
    /// Scalars in one padded example, all channels.
    example: usize,
}

impl Padded {
    fn of(win: &Window) -> Self {
        let (h, w) = (win.in_h + 2 * win.padding, win.in_w + 2 * win.padding);
        Padded {
            h,
            w,
            example: win.in_c * h * w,
        }
    }

    /// Where input row `y` of channel `c` of the block's example `e`
    /// starts inside the border.
    fn row(&self, win: &Window, e: usize, c: usize, y: usize) -> usize {
        e * self.example + (c * self.h + y + win.padding) * self.w + win.padding
    }

    /// Writes examples `b` of the batch-innermost input `xt` into `into`
    /// (NCHW, zero border).
    fn fill(&self, win: &Window, xt: &[f32], b: Range<usize>, into: &mut [f32]) {
        into.fill(0.0);
        for (e, b) in b.enumerate() {
            for c in 0..win.in_c {
                for y in 0..win.in_h {
                    let from = (c * win.in_h + y) * win.in_w;
                    let row = &mut into[self.row(win, e, c, y)..][..win.in_w];
                    for (x, v) in row.iter_mut().enumerate() {
                        *v = xt[(from + x) * win.batch + b];
                    }
                }
            }
        }
    }

    /// Writes examples `b` of the batch-innermost input `xt` into `into`
    /// in the cell layout, `[example][row][column][channel]` inside a zero
    /// border: a window's row of `k` columns is `k · in_c` adjacent
    /// scalars.
    #[cfg(target_arch = "x86_64")]
    fn fill_cells(&self, win: &Window, xt: &[f32], b: Range<usize>, into: &mut [f32]) {
        into.fill(0.0);
        let (c_n, p) = (win.in_c, win.padding);
        for c in 0..c_n {
            for y in 0..win.in_h {
                for x in 0..win.in_w {
                    let from = ((c * win.in_h + y) * win.in_w + x) * win.batch;
                    let cell = ((y + p) * self.w + x + p) * c_n + c;
                    for (e, &v) in xt[from..][b.clone()].iter().enumerate() {
                        into[e * self.example + cell] = v;
                    }
                }
            }
        }
    }

    /// Copies the inside of the padded input gradient `from`, examples `b`,
    /// into `dx` (NCHW, the whole batch).
    fn crop(&self, win: &Window, from: &[f32], b: Range<usize>, dx: &mut [f32]) {
        for (e, b) in b.enumerate() {
            for c in 0..win.in_c {
                for y in 0..win.in_h {
                    let to = ((b * win.in_c + c) * win.in_h + y) * win.in_w;
                    let row = &from[self.row(win, e, c, y)..][..win.in_w];
                    dx[to..][..win.in_w].copy_from_slice(row);
                }
            }
        }
    }
}

/// Copies an NCHW batch into `into` as `[c][h][w][batch]`, reusing its
/// allocation. The stores run in order and the loads stride: on a Xeon
/// core, 256 examples of 256 scalars copy in ≈ 95 µs this way and in
/// ≈ 270 µs with the strides on the stores.
fn to_batch_innermost(x: &[f32], batch: usize, into: &mut Vec<f32>) {
    into.clear();
    into.resize(x.len(), 0.0);
    if batch == 0 {
        return;
    }
    let plane = x.len() / batch;
    for (i, examples) in into.chunks_exact_mut(batch).enumerate() {
        for (b, v) in examples.iter_mut().enumerate() {
            *v = x[b * plane + i];
        }
    }
}

/// The forward pass: `out` (NCHW) from the batch-innermost input `xt`.
fn forward(win: &Window, xt: &[f32], weights: &[f32], bias: &[f32], out: &mut [f32]) {
    let example_len = win.out_c * win.out_h * win.out_w;
    // A chunk of examples at a time keeps the strided stores into `out`
    // within a few of its examples.
    for_each_chunk(win.batch, |b, lanes| {
        for oc in 0..win.out_c {
            for oy in 0..win.out_h {
                let rows = win.taps(oy, win.in_h);
                for ox in 0..win.out_w {
                    let at = Tap {
                        win,
                        xt,
                        kernel: &weights[win.kernel_at(oc, oy, ox)..][..win.kernel_len()],
                        oy,
                        ox,
                        rows: rows.clone(),
                        cols: win.taps(ox, win.in_w),
                    };
                    let bias = bias[win.bias_at(oc, oy, ox)];
                    let o = (oc * win.out_h + oy) * win.out_w + ox;
                    if lanes == LANES {
                        for (l, v) in at.sum::<LANES>(bias, b).into_iter().enumerate() {
                            out[(b + l) * example_len + o] = v;
                        }
                    } else {
                        for b in b..b + lanes {
                            out[b * example_len + o] = at.sum::<1>(bias, b)[0];
                        }
                    }
                }
            }
        }
    });
}

/// Calls `f(first, len)` over `0..batch` in chunks of [`LANES`] examples,
/// the last one possibly shorter.
fn for_each_chunk(batch: usize, mut f: impl FnMut(usize, usize)) {
    for b in (0..batch).step_by(LANES) {
        f(b, LANES.min(batch - b));
    }
}

/// One output position's window over the batch-innermost input.
struct Tap<'a> {
    win: &'a Window,
    xt: &'a [f32],
    kernel: &'a [f32],
    oy: usize,
    ox: usize,
    rows: Range<usize>,
    cols: Range<usize>,
}

impl Tap<'_> {
    /// `bias + Σ x·w` over the window's valid taps in `(ic, kh, kw)` order,
    /// for examples `b..b + N`.
    #[inline(always)]
    fn sum<const N: usize>(&self, bias: f32, b: usize) -> [f32; N] {
        let win = self.win;
        let (n, k) = (win.batch, win.kernel);
        let mut acc = [bias; N];
        for ic in 0..win.in_c {
            for kh in self.rows.clone() {
                let iy = win.input_at(self.oy, kh);
                let row = (ic * win.in_h + iy) * win.in_w;
                let w_row = &self.kernel[(ic * k + kh) * k..][..k];
                for kw in self.cols.clone() {
                    let ix = win.input_at(self.ox, kw);
                    let w = w_row[kw];
                    let x: &[f32; N] = self.xt[(row + ix) * n + b..][..N]
                        .try_into()
                        .expect("N lanes");
                    for l in 0..N {
                        acc[l] += x[l] * w;
                    }
                }
            }
        }
        acc
    }
}

/// One non-zero output gradient of a kernel unit.
#[derive(Debug, Clone, Copy, Default)]
struct Hit {
    go: f32,
    /// Where its window starts in the padded block, channel 0.
    at: usize,
}

/// What the backward pass reads over one block of examples: their padded
/// input, the whole output gradient and the layer's weights.
struct Block<'a> {
    win: &'a Window,
    pad: Padded,
    b: Range<usize>,
    x: &'a [f32],
    g: &'a [f32],
    weights: &'a [f32],
}

impl Block<'_> {
    /// The backward pass over the block for a `k`×`k` window, `hits` as
    /// scratch: adds to the `kernels` and `biases` gradients and, when
    /// `DX`, to the block's padded input gradient `dx`. With `SUMS == k²`
    /// one input channel's kernel sums live in locals; with `SUMS == 0`
    /// they are added in place.
    ///
    /// A kernel unit — an output channel of a convolution, an output
    /// channel and position of a locally connected layer — is the outer
    /// loop. Its non-zero output gradients in the block are gathered in
    /// `(b, oy, ox)` order, then walked once per input channel, adding into
    /// the input gradient on the way: each kernel and bias gradient sees
    /// its terms in `(b, oy, ox)` order across blocks, and each input
    /// gradient in `(oc, oy, ox)`, as in the direct loop.
    #[inline(always)]
    fn run<const SUMS: usize, const DX: bool>(
        &self,
        k: usize,
        hits: &mut [Hit],
        kernels: &mut [f32],
        biases: &mut [f32],
        dx: &mut [f32],
    ) {
        let win = self.win;
        let (s, pw) = (win.stride, self.pad.w);
        let out_hw = win.out_h * win.out_w;
        let (kernel_len, kk) = (win.kernel_len(), k * k);
        // One bias per kernel unit.
        for (unit, bias) in biases.iter_mut().enumerate() {
            let (oc, oys, oxs) = if win.shared {
                (unit, 0..win.out_h, 0..win.out_w)
            } else {
                let (oy, ox) = (unit % out_hw / win.out_w, unit % win.out_w);
                (unit / out_hw, oy..oy + 1, ox..ox + 1)
            };
            // Without a branch per gradient: the skip's branch would
            // mispredict on about every other hit.
            let mut found = 0;
            for (e, b) in self.b.clone().enumerate() {
                for oy in oys.clone() {
                    let row = ((b * win.out_c + oc) * win.out_h + oy) * win.out_w;
                    let at = e * self.pad.example + oy * s * pw;
                    for (&go, ox) in self.g[row..][oxs.clone()].iter().zip(oxs.clone()) {
                        hits[found] = Hit {
                            go,
                            at: at + ox * s,
                        };
                        found += usize::from(go != 0.0);
                    }
                }
            }
            let hits = &hits[..found];
            let mut sum = *bias;
            for hit in hits {
                sum += hit.go;
            }
            *bias = sum;
            for ic in 0..win.in_c {
                let at = unit * kernel_len + ic * kk;
                let weights = &self.weights[at..][..kk];
                let sums = &mut kernels[at..][..kk];
                if SUMS == 0 {
                    self.channel::<DX>(k, ic, weights, hits, sums, dx);
                } else {
                    let mut local = [0.0; SUMS];
                    local.copy_from_slice(sums);
                    self.channel::<DX>(k, ic, weights, hits, &mut local, dx);
                    sums.copy_from_slice(&local);
                }
            }
        }
    }

    /// Walks `hits` over input channel `ic`, adding `go·x` to the channel's
    /// kernel `sums` and, when `DX`, `go·w` to the input gradient.
    ///
    /// A tap in the padding reads the border's +0.0, and `go·0` is ±0.0
    /// for a finite `go`: adding that leaves a kernel sum unchanged, since
    /// a sum that starts at +0.0 and only receives additions never holds
    /// −0.0 under round-to-nearest, and what it adds to the input
    /// gradient's border is never read. For a non-finite `go` it would be
    /// NaN, so such a hit runs with its padding taps skipped.
    #[inline(always)]
    fn channel<const DX: bool>(
        &self,
        k: usize,
        ic: usize,
        weights: &[f32],
        hits: &[Hit],
        sums: &mut [f32],
        dx: &mut [f32],
    ) {
        let plane = ic * self.pad.h * self.pad.w;
        for &hit in hits {
            if hit.go.is_finite() {
                self.taps::<DX, false>(k, plane, weights, hit, sums, dx);
            } else {
                self.taps::<DX, true>(k, plane, weights, hit, sums, dx);
            }
        }
    }

    /// One hit's taps in `(kh, kw)` order; with `BOUNDED`, only those
    /// inside the input.
    #[inline(always)]
    #[allow(clippy::too_many_arguments)]
    fn taps<const DX: bool, const BOUNDED: bool>(
        &self,
        k: usize,
        plane: usize,
        weights: &[f32],
        hit: Hit,
        sums: &mut [f32],
        dx: &mut [f32],
    ) {
        let (win, pw) = (self.win, self.pad.w);
        let (go, at) = (hit.go, hit.at + plane);
        // The window's padded coordinates, only needed to find the border.
        let (y0, x0) = if BOUNDED {
            let within = hit.at % self.pad.example;
            (within / pw, within % pw)
        } else {
            (0, 0)
        };
        let p = win.padding;
        let inside = |kh: usize, kw: usize| {
            !BOUNDED
                || ((p..p + win.in_h).contains(&(y0 + kh))
                    && (p..p + win.in_w).contains(&(x0 + kw)))
        };
        for kh in 0..k {
            let x = &self.x[at + kh * pw..][..k];
            for kw in 0..k {
                if inside(kh, kw) {
                    sums[kh * k + kw] += go * x[kw];
                }
            }
            if DX {
                let dx = &mut dx[at + kh * pw..][..k];
                for kw in 0..k {
                    if inside(kh, kw) {
                        dx[kw] += go * weights[kh * k + kw];
                    }
                }
            }
        }
    }
}

/// The AVX-512 tier of the windowed passes. Every output and gradient
/// element sees the scalar tier's f32 operations in the scalar tier's
/// order, one element per lane: a vector multiply and a vector add round
/// each lane as the scalar unit rounds it, and nothing here fuses them.
/// What runs side by side is only ever a set of independent elements:
///
/// - **forward**: sixteen examples of one output element (the batch is
///   innermost in the kept input, copied there by gathers), for up to
///   eight output channels at once, each input vector loaded once for all
///   of them; the sums leave by scatter into the NCHW output.
/// - **input gradient**: sixteen examples of one input-gradient element,
///   summed in a register from +0.0 over the windows that cover it in
///   `(oc, oy, ox)` order, from the output gradient laid batch innermost.
///   A zero output gradient's lane is masked out of the add — the direct
///   loop's skip — and a padding tap is never visited, so a non-finite
///   gradient needs no bounded walk here.
/// - **kernel and bias sums**: a kernel unit's non-zero output gradients
///   in the chunk, in `(b, oy, ox)` order: sixteen candidates per compare
///   into a mask of up to 64, then one hit per set bit, lowest first. Each
///   hit adds `go` to the bias and `go · x` to all `3 · 3 · in_c` kernel
///   sums at once, a window row per register set read in one load from
///   the chunk laid out channel innermost. A non-finite `go` masks its
///   padding taps off, as the scalar tier's bounded walk skips them.
///
/// All of the windowed passes' `unsafe` is here, behind safe entries that
/// check the CPU first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{Padded, Window};
    use crate::ParamBlock;
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;
    use std::ops::Range;

    /// Examples per register.
    const LANES: usize = 16;

    /// Panics unless the CPU reaches [`Tier::Avx512`].
    fn check() {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 windowed pass selected on a CPU without it"
        );
    }

    /// The first `len` lanes (all of them from [`LANES`] on).
    fn lanes(len: usize) -> __mmask16 {
        ((1u32 << len.min(LANES)) - 1) as __mmask16
    }

    /// [`super::forward`]: the same output.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`].
    pub(super) fn forward(
        win: &Window,
        xt: &[f32],
        weights: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        check();
        assert_eq!(xt.len(), win.batch * win.in_c * win.in_h * win.in_w);
        assert_eq!(out.len(), win.batch * win.out_c * win.out_h * win.out_w);
        assert_eq!(weights.len(), win.kernel_at(win.out_c, 0, 0));
        assert_eq!(bias.len(), win.bias_at(win.out_c, 0, 0));
        assert!(i32::try_from(win.out_c * win.out_h * win.out_w * LANES).is_ok());
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the feature
        // `forward_wide` enables, and the lengths just checked are the
        // ones its loads and scatters stay within.
        unsafe { forward_wide(win, xt, weights, bias, out) }
    }

    /// One output position over a chunk of examples.
    struct Site<'a> {
        win: &'a Window,
        xt: &'a [f32],
        weights: &'a [f32],
        bias: &'a [f32],
        /// The chunk's first example and its lanes.
        b: usize,
        mask: __mmask16,
        oy: usize,
        ox: usize,
        rows: Range<usize>,
        cols: Range<usize>,
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and the lengths [`forward`] checks.
    #[target_feature(enable = "avx512f")]
    unsafe fn forward_wide(
        win: &Window,
        xt: &[f32],
        weights: &[f32],
        bias: &[f32],
        out: &mut [f32],
    ) {
        let example_len = win.out_c * win.out_h * win.out_w;
        let scatter = strides(example_len);
        for b in (0..win.batch).step_by(LANES) {
            for oy in 0..win.out_h {
                for ox in 0..win.out_w {
                    let site = Site {
                        win,
                        xt,
                        weights,
                        bias,
                        b,
                        mask: lanes(win.batch - b),
                        oy,
                        ox,
                        rows: win.taps(oy, win.in_h),
                        cols: win.taps(ox, win.in_w),
                    };
                    let mut oc = 0;
                    while oc < win.out_c {
                        oc += match win.out_c - oc {
                            8.. => site.channels::<8>(oc, scatter, out),
                            4..=7 => site.channels::<4>(oc, scatter, out),
                            2 | 3 => site.channels::<2>(oc, scatter, out),
                            _ => site.channels::<1>(oc, scatter, out),
                        };
                    }
                }
            }
        }
    }

    /// `0, n, 2n, …`: the scatter offsets of sixteen examples `n` scalars
    /// apart.
    #[target_feature(enable = "avx512f")]
    unsafe fn strides(n: usize) -> __m512i {
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        _mm512_mullo_epi32(lane, _mm512_set1_epi32(n as i32))
    }

    /// [`super::to_batch_innermost`]: the same copy, sixteen examples of
    /// an element per gather and per store, where the scalar loop moves
    /// one at a time.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`].
    pub(super) fn to_batch_innermost(x: &[f32], batch: usize, into: &mut Vec<f32>) {
        check();
        into.clear();
        into.resize(x.len(), 0.0);
        if batch == 0 {
            return;
        }
        let plane = x.len() / batch;
        assert_eq!(plane * batch, x.len());
        assert!(i32::try_from(plane * LANES).is_ok());
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the feature
        // `transpose` enables; `into` is as long as `x`, which holds
        // `batch` examples of `plane` scalars, the bounds `transpose`
        // keeps to.
        unsafe { transpose(x, batch, plane, into) }
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and what [`to_batch_innermost`] checks.
    #[target_feature(enable = "avx512f")]
    unsafe fn transpose(x: &[f32], batch: usize, plane: usize, into: &mut [f32]) {
        let scatter = strides(plane);
        for b in (0..batch).step_by(LANES) {
            let mask = lanes(batch - b);
            let from = x.as_ptr().add(b * plane);
            for i in 0..plane {
                let zero = _mm512_setzero_ps();
                let v = _mm512_mask_i32gather_ps::<4>(zero, mask, scatter, from.add(i));
                _mm512_mask_storeu_ps(into.as_mut_ptr().add(i * batch + b), mask, v);
            }
        }
    }

    impl Site<'_> {
        /// Output channels `oc..oc + G` of the site: `bias`, then `+= x·w`
        /// over the taps inside the input in ascending `(ic, kh, kw)`,
        /// each `x` loaded once for the `G` channels. Returns `G`.
        ///
        /// # Safety
        ///
        /// Requires AVX-512 F and the lengths [`forward`] checks.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn channels<const G: usize>(
            &self,
            oc: usize,
            scatter: __m512i,
            out: &mut [f32],
        ) -> usize {
            let (win, n, k) = (self.win, self.win.batch, self.win.kernel);
            let (oy, ox) = (self.oy, self.ox);
            let mut acc = [_mm512_setzero_ps(); G];
            let mut kernel = [0; G];
            for g in 0..G {
                acc[g] = _mm512_set1_ps(self.bias[win.bias_at(oc + g, oy, ox)]);
                kernel[g] = win.kernel_at(oc + g, oy, ox);
            }
            for ic in 0..win.in_c {
                for kh in self.rows.clone() {
                    let row = (ic * win.in_h + win.input_at(oy, kh)) * win.in_w;
                    let tap = (ic * k + kh) * k;
                    for kw in self.cols.clone() {
                        let at = (row + win.input_at(ox, kw)) * n + self.b;
                        let x = _mm512_maskz_loadu_ps(self.mask, self.xt.as_ptr().add(at));
                        for g in 0..G {
                            // SAFETY: `forward` checked that `weights` holds
                            // every unit's kernel, and `(ic, kh, kw)` lies in
                            // one. Unchecked: the bounds checks cost a fifth
                            // of `fl_train`'s second convolution.
                            let w = *self.weights.get_unchecked(kernel[g] + tap + kw);
                            acc[g] = _mm512_add_ps(acc[g], _mm512_mul_ps(x, _mm512_set1_ps(w)));
                        }
                    }
                }
            }
            let example_len = win.out_c * win.out_h * win.out_w;
            for (g, &sum) in acc.iter().enumerate() {
                let o = ((oc + g) * win.out_h + oy) * win.out_w + ox;
                let at = out.as_mut_ptr().add(self.b * example_len + o);
                _mm512_mask_i32scatter_ps::<4>(at, self.mask, scatter, sum);
            }
            G
        }
    }

    /// Writes the input gradient of the output gradient `gt` (batch
    /// innermost) into `dx` (NCHW), every element of it: per element,
    /// `+= go·w` from +0.0 over the non-zero `go` of the windows that
    /// cover it, in `(oc, oy, ox)` order.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`].
    pub(super) fn input_grad(win: &Window, gt: &[f32], weights: &[f32], dx: &mut [f32]) {
        check();
        assert_eq!(gt.len(), win.batch * win.out_c * win.out_h * win.out_w);
        assert_eq!(dx.len(), win.batch * win.in_c * win.in_h * win.in_w);
        assert_eq!(weights.len(), win.kernel_at(win.out_c, 0, 0));
        assert!(i32::try_from(win.in_c * win.in_h * win.in_w * LANES).is_ok());
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the feature
        // `input_grad_wide` enables, and the lengths just checked are the
        // ones its loads and scatters stay within.
        unsafe { input_grad_wide(win, gt, weights, dx) }
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and the lengths [`input_grad`] checks.
    #[target_feature(enable = "avx512f")]
    unsafe fn input_grad_wide(win: &Window, gt: &[f32], weights: &[f32], dx: &mut [f32]) {
        let scatter = strides(win.in_c * win.in_h * win.in_w);
        for b in (0..win.batch).step_by(LANES) {
            for iy in 0..win.in_h {
                let oys = covering(win, iy, win.out_h);
                for ix in 0..win.in_w {
                    let cell = Cell {
                        win,
                        gt,
                        weights,
                        b,
                        mask: lanes(win.batch - b),
                        iy: iy + win.padding,
                        ix: ix + win.padding,
                        oys: oys.clone(),
                        oxs: covering(win, ix, win.out_w),
                    };
                    let mut ic = 0;
                    while ic < win.in_c {
                        ic += match win.in_c - ic {
                            8.. => cell.channels::<8>(ic, scatter, dx),
                            4..=7 => cell.channels::<4>(ic, scatter, dx),
                            2 | 3 => cell.channels::<2>(ic, scatter, dx),
                            _ => cell.channels::<1>(ic, scatter, dx),
                        };
                    }
                }
            }
        }
    }

    /// The outputs among `n` whose window covers input coordinate `i`,
    /// ascending: the `o` with `o · stride <= i + padding < o · stride +
    /// kernel`.
    fn covering(win: &Window, i: usize, n: usize) -> Range<usize> {
        let at = i + win.padding;
        let first = (at + 1).saturating_sub(win.kernel).div_ceil(win.stride);
        first..(at / win.stride + 1).min(n)
    }

    /// One input position over a chunk of examples: its padded
    /// coordinates and the outputs whose windows cover it.
    struct Cell<'a> {
        win: &'a Window,
        gt: &'a [f32],
        weights: &'a [f32],
        b: usize,
        mask: __mmask16,
        iy: usize,
        ix: usize,
        oys: Range<usize>,
        oxs: Range<usize>,
    }

    impl Cell<'_> {
        /// Input channels `ic..ic + G` of the cell, each `go` loaded once
        /// for the `G` channels. Returns `G`.
        ///
        /// # Safety
        ///
        /// Requires AVX-512 F and the lengths [`input_grad`] checks.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn channels<const G: usize>(
            &self,
            ic: usize,
            scatter: __m512i,
            dx: &mut [f32],
        ) -> usize {
            let (win, n, k, s) = (self.win, self.win.batch, self.win.kernel, self.win.stride);
            let mut acc = [_mm512_setzero_ps(); G];
            for oc in 0..win.out_c {
                for oy in self.oys.clone() {
                    let kh = self.iy - oy * s;
                    for ox in self.oxs.clone() {
                        let kw = self.ix - ox * s;
                        let at = ((oc * win.out_h + oy) * win.out_w + ox) * n + self.b;
                        let go = _mm512_maskz_loadu_ps(self.mask, self.gt.as_ptr().add(at));
                        // `go != 0.0`, which a NaN passes.
                        let hit = _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(go, _mm512_setzero_ps());
                        let tap = win.kernel_at(oc, oy, ox) + (ic * k + kh) * k + kw;
                        for (g, sum) in acc.iter_mut().enumerate() {
                            // SAFETY: `input_grad` checked that `weights`
                            // holds every unit's kernel, and channel
                            // `ic + g < in_c` of it is one.
                            let w = *self.weights.get_unchecked(tap + g * k * k);
                            let term = _mm512_mul_ps(go, _mm512_set1_ps(w));
                            *sum = _mm512_mask_add_ps(*sum, hit, *sum, term);
                        }
                    }
                }
            }
            let example_len = win.in_c * win.in_h * win.in_w;
            let (iy, ix) = (self.iy - win.padding, self.ix - win.padding);
            for (g, &sum) in acc.iter().enumerate() {
                let i = ((ic + g) * win.in_h + iy) * win.in_w + ix;
                let at = dx.as_mut_ptr().add(self.b * example_len + i);
                _mm512_mask_i32scatter_ps::<4>(at, self.mask, scatter, sum);
            }
            G
        }
    }

    /// What the wide backward pass keeps from one call to the next.
    #[derive(Debug, Clone, Default)]
    pub(super) struct Scratch {
        /// The output gradient, `[c][h][w][batch]`.
        pub grad: Vec<f32>,
        /// Per output position of a convolution, where its window starts
        /// in an example's cells.
        pub offsets: Vec<u32>,
    }

    /// One chunk of examples in the cell layout, with the output gradient
    /// as it arrived (`g`, NCHW) and batch innermost (`gt`, read only by a
    /// locally connected layer).
    pub(super) struct Cells<'a> {
        pub win: &'a Window,
        pub pad: Padded,
        pub b: Range<usize>,
        pub x: &'a [f32],
        pub g: &'a [f32],
        pub gt: &'a [f32],
    }

    /// The widest input the kernel-sum kernel takes: a window row of
    /// `3 · in_c` sums in at most three registers.
    const MAX_IN_C: usize = 16;

    /// Whether [`kernel_sums`] takes `win`: a 3×3 window over at most
    /// [`MAX_IN_C`] input channels. Every model of the zoo qualifies; the
    /// rest run the scalar tier's sums.
    pub(super) fn sums_fit(win: &Window) -> bool {
        win.kernel == 3 && win.in_c <= MAX_IN_C
    }

    /// Adds the chunk's terms to every kernel unit's bias and kernel
    /// gradients in `block`: per unit, its non-zero output gradients in
    /// `(b, oy, ox)` order, `go` to the bias and `go·x` to each kernel sum.
    /// `offsets` is scratch.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`], [`sums_fit`] takes
    /// the window and `cells` is laid out as [`Padded::fill_cells`] writes
    /// a chunk of at most [`LANES`] examples.
    pub(super) fn kernel_sums(cells: &Cells<'_>, offsets: &mut Vec<u32>, block: &mut ParamBlock) {
        check();
        let (win, pad) = (cells.win, cells.pad);
        assert!(sums_fit(win), "kernel sums need a 3×3 window");
        assert!(cells.b.end <= win.batch && cells.b.len() <= LANES);
        assert_eq!(pad.example, win.in_c * pad.h * pad.w);
        assert_eq!(cells.x.len(), cells.b.len() * pad.example);
        assert!(u32::try_from(cells.x.len()).is_ok());
        let reach = |o: usize| o.saturating_sub(1) * win.stride + 3;
        assert!(reach(win.out_h) <= pad.h && reach(win.out_w) <= pad.w);
        let out_len = win.batch * win.out_c * win.out_h * win.out_w;
        assert_eq!(cells.g.len(), out_len);
        assert!(win.shared || cells.gt.len() == out_len);
        let (kernels, biases) = (block.grad_weights.data_mut(), block.grad_bias.data_mut());
        assert_eq!(kernels.len(), biases.len() * win.kernel_len());
        assert_eq!(biases.len(), win.bias_at(win.out_c, 0, 0));
        offsets.clear();
        for oy in 0..win.out_h {
            for ox in 0..win.out_w {
                offsets.push(((oy * pad.w + ox) * win.stride * win.in_c) as u32);
            }
        }
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the feature
        // `sums_wide` enables. Every window of the geometry just checked
        // lies inside its padded example, `offsets` holds where each
        // output position's window starts, and a hit's load reads only
        // its window's lanes.
        unsafe {
            match (3 * win.in_c).div_ceil(LANES) {
                1 => sums_wide::<1>(cells, offsets, kernels, biases),
                2 => sums_wide::<2>(cells, offsets, kernels, biases),
                _ => sums_wide::<3>(cells, offsets, kernels, biases),
            }
        }
    }

    /// The non-zero ones among the `len` (at most 64) output gradients
    /// at `run`, as bits: `go != 0.0`, which a NaN passes, sixteen per
    /// compare.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and `run` valid for `len` reads.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn nonzero(run: *const f32, len: usize) -> u64 {
        let mut hits = 0;
        for j in (0..len).step_by(LANES) {
            let mask = lanes(len - j);
            let v = _mm512_maskz_loadu_ps(mask, run.add(j));
            let found = _mm512_mask_cmp_ps_mask::<_CMP_NEQ_UQ>(mask, v, _mm512_setzero_ps());
            hits |= u64::from(found) << j;
        }
        hits
    }

    /// [`kernel_sums`] with a window row in `R` registers: row `kh`'s lane
    /// `kw · in_c + ic` of a unit's `acc` holds its sum `(ic, kh, kw)`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and what [`kernel_sums`] checks and fills.
    #[target_feature(enable = "avx512f")]
    unsafe fn sums_wide<const R: usize>(
        cells: &Cells<'_>,
        offsets: &[u32],
        kernels: &mut [f32],
        biases: &mut [f32],
    ) {
        let (win, pad) = (cells.win, cells.pad);
        let (c_n, p, kernel_len) = (win.in_c, win.padding, win.kernel_len());
        let (out_hw, row_stride, x) = (win.out_h * win.out_w, pad.w * c_n, cells.x.as_ptr());
        // Where each lane's sum lives in a unit's kernel, `[ic][kh][kw]`.
        let mut masks = [0; R];
        let mut index = [[_mm512_setzero_si512(); R]; 3];
        for (r, mask) in masks.iter_mut().enumerate() {
            *mask = lanes((3 * c_n).saturating_sub(r * LANES));
        }
        for (kh, row) in index.iter_mut().enumerate() {
            for (r, v) in row.iter_mut().enumerate() {
                let mut at = [0i32; LANES];
                for (j, at) in at.iter_mut().enumerate() {
                    let (kw, ic) = ((r * LANES + j) / c_n, (r * LANES + j) % c_n);
                    *at = ((ic * 3 + kh) * 3 + kw.min(2)) as i32;
                }
                *v = _mm512_loadu_si512(at.as_ptr().cast());
            }
        }
        // A convolution's unit is an output channel: its candidates are
        // every output position of every example, 64 at a time. A locally
        // connected layer's is an output channel and position: one
        // candidate per example.
        let steps: [u32; LANES] = std::array::from_fn(|e| (e * pad.example) as u32);
        let per_example = out_hw.div_ceil(64);
        let runs = if win.shared {
            cells.b.len() * per_example
        } else {
            1
        };
        for (unit, bias_sum) in biases.iter_mut().enumerate() {
            let kernel = kernels.as_mut_ptr().add(unit * kernel_len);
            let mut acc = [[_mm512_setzero_ps(); R]; 3];
            for (kh, row) in acc.iter_mut().enumerate() {
                for (r, v) in row.iter_mut().enumerate() {
                    let zero = _mm512_setzero_ps();
                    *v = _mm512_mask_i32gather_ps::<4>(zero, masks[r], index[kh][r], kernel);
                }
            }
            let mut bias = *bias_sum;
            for run in 0..runs {
                // The run's gradients, where their windows start, and how
                // many there are.
                let (go, at, base, len) = if win.shared {
                    let (e, j) = (run / per_example, run % per_example * 64);
                    let b = cells.b.start + e;
                    let plane = cells.g.as_ptr().add((b * win.out_c + unit) * out_hw);
                    let len = (out_hw - j).min(64);
                    (plane.add(j), offsets.as_ptr().add(j), e * pad.example, len)
                } else {
                    let go = cells.gt.as_ptr().add(unit * win.batch + cells.b.start);
                    (
                        go,
                        steps.as_ptr(),
                        offsets[unit % out_hw] as usize,
                        cells.b.len(),
                    )
                };
                let mut hits = nonzero(go, len);
                while hits != 0 {
                    let lane = hits.trailing_zeros() as usize;
                    hits &= hits - 1;
                    let (go, at) = (*go.add(lane), base + *at.add(lane) as usize);
                    bias += go;
                    let term = _mm512_set1_ps(go);
                    if go.is_finite() {
                        for (kh, row) in acc.iter_mut().enumerate() {
                            for (r, v) in row.iter_mut().enumerate() {
                                let from = x.add(at + kh * row_stride + r * LANES);
                                let x = _mm512_maskz_loadu_ps(masks[r], from);
                                *v = _mm512_add_ps(*v, _mm512_mul_ps(term, x));
                            }
                        }
                        continue;
                    }
                    // `go · 0.0` would be NaN: the window's padding taps
                    // are masked off, as the scalar tier skips them.
                    let within = at % pad.example / c_n;
                    let (y0, x0) = (within / pad.w, within % pad.w);
                    let mut inside = 0u64;
                    for kw in 0..3 {
                        if (p..p + win.in_w).contains(&(x0 + kw)) {
                            inside |= ((1u64 << c_n) - 1) << (kw * c_n);
                        }
                    }
                    for (kh, row) in acc.iter_mut().enumerate() {
                        if !(p..p + win.in_h).contains(&(y0 + kh)) {
                            continue;
                        }
                        for (r, v) in row.iter_mut().enumerate() {
                            let mask = (inside >> (r * LANES)) as __mmask16;
                            let from = x.add(at + kh * row_stride + r * LANES);
                            let x = _mm512_maskz_loadu_ps(mask, from);
                            *v = _mm512_mask_add_ps(*v, mask, *v, _mm512_mul_ps(term, x));
                        }
                    }
                }
            }
            *bias_sum = bias;
            for (kh, row) in acc.iter().enumerate() {
                for (r, &v) in row.iter().enumerate() {
                    _mm512_mask_i32scatter_ps::<4>(kernel, masks[r], index[kh][r], v);
                }
            }
        }
    }
}

/// Inputs that pin the edge semantics of the windowed layers, and a
/// bit-level comparison, for the differential tests against each layer's
/// direct-loop twin.
#[cfg(test)]
pub(crate) mod hostile {
    use super::{Passes, Window, TIERS};
    use crate::ParamBlock;
    use mixnn_cpu::Tier;
    use mixnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// `(in_c, out_c, h, w)` of the 3×3 windows the zoo's models run, as
    /// the experiments and `fl_train` size them (width 4, 8×8 inputs),
    /// then two shapes that reach what those do not: output and input
    /// channels left over after groups of eight, four and two, a window
    /// row of two registers, and an input too wide for the kernel-sum
    /// kernel.
    pub(crate) const MODEL_SHAPES: [(usize, usize, usize, usize); 7] = [
        (1, 4, 8, 8),
        (3, 4, 8, 8),
        (4, 8, 4, 4),
        (4, 4, 4, 4),
        (8, 8, 2, 2),
        (6, 15, 5, 5),
        (17, 3, 3, 3),
    ];

    /// What the direct loops give for one input: the output, then per
    /// output gradient the input gradient and the accumulated parameter
    /// gradients.
    pub(crate) struct Expected {
        pub y: Tensor,
        pub steps: Vec<(Tensor, Tensor, Vec<f32>)>,
    }

    /// Runs a layer's passes — `passes` and `block` cloned afresh — on
    /// every rung of [`TIERS`] the host reaches over `x` (of geometry
    /// `win`) and `expected`'s output gradients, and panics unless every
    /// output and gradient matches `expected` bit for bit. There are two
    /// steps, so the gradients also accumulate onto non-zero values. The
    /// first writes the input gradient into `dx`, NaN-filled first: every
    /// element must be written. The second skips it, as a model's first
    /// layer does. Returns the rungs run.
    pub(crate) fn assert_every_tier(
        win: Window,
        (passes, block): (&Passes, &ParamBlock),
        x: &Tensor,
        expected: &Expected,
        dx: &mut Tensor,
    ) -> Vec<Tier> {
        let tiers = Tier::runnable(TIERS);
        for &tier in &tiers {
            let (mut passes, mut block) = (passes.clone(), block.clone());
            let mut y = Tensor::full(vec![1], f32::NAN);
            passes.forward_on(tier, win, x, &block, &mut y);
            assert_bits_eq(&format!("{tier:?} forward"), y.data(), expected.y.data());
            for (step, (g, want_dx, want_grads)) in expected.steps.iter().enumerate() {
                dx.data_mut().fill(f32::NAN);
                let wants_dx = step == 0;
                let into = wants_dx.then_some(&mut *dx);
                passes.backward_on(tier, g, &mut block, into).unwrap();
                if wants_dx {
                    assert_bits_eq(&format!("{tier:?} dx"), dx.data(), want_dx.data());
                }
                let grads = block.grads();
                assert_bits_eq(&format!("{tier:?} grads"), grads.values(), want_grads);
            }
        }
        tiers
    }

    /// Batch sizes the differential tests cycle through: one example, a
    /// remainder shorter than a lane chunk, one whole chunk (`lfw`'s
    /// batch) and `fl_train`'s batch.
    pub(crate) const BATCHES: [usize; 4] = [1, 3, 16, 64];

    /// A normal input with a +∞ and a −∞ planted in it.
    pub(crate) fn input(dims: Vec<usize>, rng: &mut StdRng) -> Tensor {
        let mut x = Tensor::randn(dims, 0.0, 1.0, rng);
        let len = x.len();
        x.data_mut()[rng.gen_range(0..len)] = f32::INFINITY;
        x.data_mut()[rng.gen_range(0..len)] = f32::NEG_INFINITY;
        x
    }

    /// An output gradient with 75–90 % zeros, about half of them −0.0,
    /// and a +∞, a −∞ and a NaN planted among the rest.
    pub(crate) fn grad(dims: Vec<usize>, rng: &mut StdRng) -> Tensor {
        let zeros = rng.gen_range(0.75..0.90);
        let mut g = Tensor::from_fn(dims, |_| {
            if rng.gen_bool(zeros) {
                if rng.gen_bool(0.5) {
                    -0.0
                } else {
                    0.0
                }
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        });
        let len = g.len();
        for v in [f32::INFINITY, f32::NEG_INFINITY, f32::NAN] {
            g.data_mut()[rng.gen_range(0..len)] = v;
        }
        g
    }

    /// `len` values, about a third of them edge cases: NaNs of both signs,
    /// quiet and signalling, with payloads; ±0.0; ±∞; subnormals of both
    /// signs; the rest normal, a few of them exactly equal.
    pub(crate) fn values(len: usize, rng: &mut StdRng) -> Vec<f32> {
        (0..len)
            .map(|_| match rng.gen_range(0..24) {
                0 => f32::from_bits(0x7fc0_0000 | rng.gen_range(0..0x0040_0000)),
                1 => f32::from_bits(0xffc0_0000 | rng.gen_range(0..0x0040_0000)),
                2 => f32::from_bits(0x7f80_0000 | rng.gen_range(1..0x0040_0000)),
                3 => 0.0,
                4 => -0.0,
                5 => f32::INFINITY,
                6 => f32::NEG_INFINITY,
                7 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
                8 => -f32::from_bits(rng.gen_range(1..0x0080_0000)),
                9 => [0.5, -0.5][rng.gen_range(0..2)],
                _ => rng.gen_range(-2.0f32..2.0),
            })
            .collect()
    }

    /// Layer parameters with every other bias −0.0.
    pub(crate) fn params(len: usize, biases: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut v: Vec<f32> = (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        for (i, b) in v[len - biases..].iter_mut().enumerate() {
            if i % 2 == 0 {
                *b = -0.0;
            }
        }
        v
    }

    /// Panics unless `a` and `b` hold the same f32 bit patterns, any NaN
    /// matching any NaN.
    ///
    /// Rust leaves the sign and payload of a NaN that arithmetic returns
    /// unspecified: when both operands of an addition are NaN, x86 returns
    /// the first one's, and the compiler may commute the operands. So the
    /// bits of a NaN depend on register allocation, not on the order of
    /// the operations, which is what these tests pin.
    pub(crate) fn assert_bits_eq(what: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if !(x.is_nan() && y.is_nan()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn conv(kernel: usize, stride: usize, padding: usize) -> Window {
        Window {
            batch: 1,
            in_c: 1,
            out_c: 1,
            in_h: 5,
            in_w: 5,
            out_h: 0,
            out_w: 0,
            kernel,
            stride,
            padding,
            shared: true,
        }
    }

    #[test]
    fn taps_are_the_offsets_inside_the_input() {
        for kernel in 1..=5 {
            for stride in 1..=3 {
                for padding in 0..=3 {
                    let win = conv(kernel, stride, padding);
                    let padded = win.in_h + 2 * padding;
                    if padded < kernel {
                        continue;
                    }
                    for o in 0..=(padded - kernel) / stride {
                        let want: Vec<usize> = (0..kernel)
                            .filter(|&kk| {
                                let at = (o * stride + kk) as isize - padding as isize;
                                at >= 0 && at < win.in_h as isize
                            })
                            .collect();
                        let got: Vec<usize> = win.taps(o, win.in_h).collect();
                        assert_eq!(got, want, "k{kernel} s{stride} p{padding} o{o}");
                    }
                }
            }
        }
    }

    #[test]
    fn batch_innermost_transposes_and_reuses_the_buffer() {
        let x: Vec<f32> = (0..12).map(|i| i as f32).collect();
        let mut t = Vec::with_capacity(64);
        let ptr = t.as_ptr();
        to_batch_innermost(&x, 3, &mut t);
        assert_eq!(t, [0., 4., 8., 1., 5., 9., 2., 6., 10., 3., 7., 11.]);
        assert_eq!(t.as_ptr(), ptr);
        // Examples 1 and 2 back in NCHW order, each 2×2 plane inside a
        // zero border of one, and out again.
        let win = Window {
            batch: 3,
            in_h: 2,
            in_w: 2,
            ..conv(3, 1, 1)
        };
        let pad = Padded::of(&win);
        let mut padded = vec![f32::NAN; 2 * pad.example];
        pad.fill(&win, &t, 1..3, &mut padded);
        #[rustfmt::skip]
        let first = [
            0., 0., 0., 0.,
            0., 4., 5., 0.,
            0., 6., 7., 0.,
            0., 0., 0., 0.,
        ];
        assert_eq!(padded[..pad.example], first);
        let mut back = vec![-1.0; x.len()];
        pad.crop(&win, &padded, 1..3, &mut back);
        assert_eq!(back[..4], [-1.0; 4]);
        assert_eq!(back[4..], x[4..]);
    }
}
