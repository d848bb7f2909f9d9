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
//! **Backward, the direct loop.** [`Passes::backward`] runs the direct loop —
//! `b, oc, oy, ox`, skipping an output gradient equal to zero, then the
//! window's taps — over the input put back in NCHW order, so every
//! gradient element keeps its accumulation order: `(b, oy, ox)` for a
//! kernel or bias gradient and `(oc, oy, ox)` for an input gradient. Two
//! things make it cheaper than before without touching that order: each
//! output row's non-zero columns are gathered without a branch per column
//! before any tap runs, and 3×3 windows get their own copy of the loop
//! with the bounds known. It stays scalar on purpose. The kernel and bias
//! gradients reduce over the batch, so the batch is not a free axis for
//! them; and behind ReLU and max pooling three in four output gradients or
//! more are zero, which the skip turns into no work, while vector lanes
//! would have to do it. Lanes could stand in for the skip by adding +0.0 —
//! exact for a buffer that starts at +0.0 and only receives additions,
//! since under round-to-nearest such a buffer never holds −0.0 — but a
//! batch-innermost input gradient built that way measured slower than the
//! skip at this sparsity.

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
    /// The same input back in NCHW order, for the backward pass.
    nchw: Vec<f32>,
    /// The columns of one output row whose gradient is non-zero.
    hits: Vec<u32>,
}

impl Passes {
    /// Runs the forward pass of `win` (already checked against `input`)
    /// and keeps what the backward pass needs.
    pub(crate) fn forward(&mut self, win: Window, input: &Tensor, block: &ParamBlock) -> Tensor {
        let mut out = Tensor::zeros(vec![win.batch, win.out_c, win.out_h, win.out_w]);
        to_batch_innermost(input.data(), win.batch, &mut self.input);
        let (weights, bias) = (block.weights.data(), block.bias.data());
        forward(&win, &self.input, weights, bias, out.data_mut());
        self.last = Some(win);
        out
    }

    /// Runs the backward pass of the last forward pass: adds to `block`'s
    /// kernel and bias gradients and returns the input gradient.
    ///
    /// # Errors
    ///
    /// [`NnError::BackwardBeforeForward`] before any forward pass, and
    /// [`NnError::BadInput`] if `grad_output` is not the last output's shape.
    pub(crate) fn backward(
        &mut self,
        grad_output: &Tensor,
        block: &mut ParamBlock,
    ) -> Result<Tensor, NnError> {
        let layer = block.layer;
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
        let mut dx = Tensor::zeros(vec![win.batch, win.in_c, win.in_h, win.in_w]);
        from_batch_innermost(&self.input, win.batch, &mut self.nchw);
        self.hits.resize(win.out_w, 0);
        let (x, g, hits) = (&self.nchw, grad_output.data(), &mut self.hits);
        let weights = block.weights.data();
        let (grad_weights, grad_bias) = (block.grad_weights.data_mut(), block.grad_bias.data_mut());
        let dx_data = dx.data_mut();
        // The paper's models use 3×3 windows only; that copy of the loop
        // runs with its bounds known.
        match win.kernel {
            3 => backward(
                &win,
                3,
                x,
                weights,
                g,
                hits,
                grad_weights,
                grad_bias,
                dx_data,
            ),
            k => backward(
                &win,
                k,
                x,
                weights,
                g,
                hits,
                grad_weights,
                grad_bias,
                dx_data,
            ),
        }
        Ok(dx)
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

/// The inverse of [`to_batch_innermost`]: `[c][h][w][batch]` back to
/// NCHW in `into`, reusing its allocation.
fn from_batch_innermost(xt: &[f32], batch: usize, into: &mut Vec<f32>) {
    into.clear();
    into.resize(xt.len(), 0.0);
    if batch == 0 {
        return;
    }
    let plane = xt.len() / batch;
    for (b, example) in into.chunks_exact_mut(plane).enumerate() {
        for (i, v) in example.iter_mut().enumerate() {
            *v = xt[i * batch + b];
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

/// The backward pass for a `k`×`k` window: the direct loop over the NCHW
/// input `x` and output gradient `g`, adding to the kernel and bias
/// gradients and to `dx` (NCHW, +0.0 on entry), with `hits` as scratch for
/// one output row's non-zero columns.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn backward(
    win: &Window,
    k: usize,
    x: &[f32],
    weights: &[f32],
    g: &[f32],
    hits: &mut [u32],
    grad_weights: &mut [f32],
    grad_bias: &mut [f32],
    dx: &mut [f32],
) {
    let (s, p) = (win.stride, win.padding);
    let (in_h, in_w) = (win.in_h as isize, win.in_w as isize);
    let mut rows = g.chunks_exact(win.out_w);
    for b in 0..win.batch {
        for oc in 0..win.out_c {
            for oy in 0..win.out_h {
                let g = rows.next().expect("g holds batch·out_c·out_h rows");
                // The row's columns with a non-zero gradient, in order, found
                // without a branch per column: the skip's branch would mispredict
                // on about every other hit.
                let mut found = 0;
                for (ox, &go) in g.iter().enumerate() {
                    hits[found] = ox as u32;
                    found += usize::from(go != 0.0);
                }
                for &ox in &hits[..found] {
                    let ox = ox as usize;
                    let go = g[ox];
                    grad_bias[win.bias_at(oc, oy, ox)] += go;
                    let kernel = win.kernel_at(oc, oy, ox);
                    for ic in 0..win.in_c {
                        for kh in 0..k {
                            let iy = (oy * s + kh) as isize - p as isize;
                            if iy < 0 || iy >= in_h {
                                continue;
                            }
                            let row = ((b * win.in_c + ic) * win.in_h + iy as usize) * win.in_w;
                            let wi = kernel + (ic * k + kh) * k;
                            for kw in 0..k {
                                let ix = (ox * s + kw) as isize - p as isize;
                                if ix < 0 || ix >= in_w {
                                    continue;
                                }
                                let xi = row + ix as usize;
                                grad_weights[wi + kw] += go * x[xi];
                                dx[xi] += go * weights[wi + kw];
                            }
                        }
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

    /// An output gradient with 75–90 % zeros, about half of them −0.0.
    pub(crate) fn grad(dims: Vec<usize>, rng: &mut StdRng) -> Tensor {
        let zeros = rng.gen_range(0.75..0.90);
        Tensor::from_fn(dims, |_| {
            if rng.gen_bool(zeros) {
                if rng.gen_bool(0.5) {
                    -0.0
                } else {
                    0.0
                }
            } else {
                rng.gen_range(-1.0f32..1.0)
            }
        })
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

    /// Panics unless `a` and `b` hold the same f32 bit patterns.
    pub(crate) fn assert_bits_eq(what: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
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
        let mut back = Vec::new();
        from_batch_innermost(&t, 3, &mut back);
        assert_eq!(back, x);
    }
}
