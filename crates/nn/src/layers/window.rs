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

use crate::{NnError, ParamBlock};
use mixnn_tensor::Tensor;
use std::ops::Range;

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
        out.resize(&[win.batch, win.out_c, win.out_h, win.out_w]);
        to_batch_innermost(input.data(), win.batch, &mut self.input);
        let (weights, bias) = (block.weights.data(), block.bias.data());
        forward(&win, &self.input, weights, bias, out.data_mut());
        self.last = Some(win);
    }

    /// Runs the backward pass of the last forward pass: adds to `block`'s
    /// kernel and bias gradients and writes the input gradient into `dx`,
    /// every element of it (the blocks' padded gradients are what
    /// accumulate, and they start from zero).
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
        let win = self.backward_window(grad_output, block.layer)?;
        dx.resize(&[win.batch, win.in_c, win.in_h, win.in_w]);
        self.backward_blocks(win, grad_output.data(), block, Some(dx.data_mut()));
        Ok(())
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
        let win = self.backward_window(grad_output, block.layer)?;
        self.backward_blocks(win, grad_output.data(), block, None);
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

    /// The backward pass over the batch, a block of examples at a time.
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
/// allocation.
fn to_batch_innermost(x: &[f32], batch: usize, into: &mut Vec<f32>) {
    into.clear();
    into.resize(x.len(), 0.0);
    if batch == 0 {
        return;
    }
    let plane = x.len() / batch;
    for (b, example) in x.chunks_exact(plane).enumerate() {
        for (i, &v) in example.iter().enumerate() {
            into[i * batch + b] = v;
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

/// Inputs that pin the edge semantics of the windowed layers, and a
/// bit-level comparison, for the differential tests against each layer's
/// direct-loop twin.
#[cfg(test)]
pub(crate) mod hostile {
    use mixnn_tensor::Tensor;
    use rand::rngs::StdRng;
    use rand::Rng;

    /// Batch sizes the differential tests cycle through: one example, a
    /// remainder shorter than a lane chunk, and `fl_train`'s batch.
    pub(crate) const BATCHES: [usize; 3] = [1, 3, 64];

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
