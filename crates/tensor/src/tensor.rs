use self::rand_distr_shim::StandardNormalShim;
use crate::{Shape, TensorError};
use mixnn_cpu::Tier;
use rand::Rng;
use std::fmt;

#[cfg(target_arch = "x86_64")]
mod avx512;

/// A dense, row-major tensor of `f32` values.
///
/// `Tensor` is the carrier type for model inputs, activations, weights and
/// gradients across the workspace. It deliberately stays small: dense
/// storage, shape-checked operations, no views or broadcasting magic — the
/// reproduction favours auditable numerics over generality.
///
/// # Example
///
/// ```
/// use mixnn_tensor::Tensor;
///
/// # fn main() -> Result<(), mixnn_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.])?;
/// assert_eq!(x.at(&[1, 2])?, 6.0);
/// let doubled = x.map(|v| v * 2.0);
/// assert_eq!(doubled.at(&[0, 0])?, 2.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

/// An empty tensor of shape `[0]`: a buffer for [`Tensor::resize`] to
/// grow.
impl Default for Tensor {
    fn default() -> Self {
        Tensor::zeros(vec![0])
    }
}

impl Tensor {
    // ---------------------------------------------------------------------
    // Constructors
    // ---------------------------------------------------------------------

    /// Creates a tensor of the given shape filled with zeros.
    pub fn zeros(dims: Vec<usize>) -> Self {
        let shape = Shape::new(dims);
        let data = vec![0.0; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor of the given shape filled with ones.
    pub fn ones(dims: Vec<usize>) -> Self {
        Self::full(dims, 1.0)
    }

    /// Creates a tensor of the given shape filled with `value`.
    pub fn full(dims: Vec<usize>, value: f32) -> Self {
        let shape = Shape::new(dims);
        let data = vec![value; shape.volume()];
        Tensor { shape, data }
    }

    /// Creates a tensor from a flat `data` buffer interpreted row-major with
    /// the given shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if `data.len()` does not equal
    /// the shape volume.
    pub fn from_vec(dims: Vec<usize>, data: Vec<f32>) -> Result<Self, TensorError> {
        let shape = Shape::new(dims);
        if shape.volume() != data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: data.len(),
            });
        }
        Ok(Tensor { shape, data })
    }

    /// Creates a tensor whose element at flat offset `i` is `f(i)`.
    pub fn from_fn(dims: Vec<usize>, mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume()).map(&mut f).collect();
        Tensor { shape, data }
    }

    /// Creates the `n`×`n` identity matrix.
    pub fn eye(n: usize) -> Self {
        let mut t = Tensor::zeros(vec![n, n]);
        for i in 0..n {
            t.data[i * n + i] = 1.0;
        }
        t
    }

    /// Creates a tensor with i.i.d. standard-normal entries scaled by
    /// `std` and shifted by `mean`, drawn from `rng`.
    pub fn randn<R: Rng + ?Sized>(dims: Vec<usize>, mean: f32, std: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume())
            .map(|_| mean + std * StandardNormalShim::sample(rng))
            .collect();
        Tensor { shape, data }
    }

    /// Creates a tensor with i.i.d. uniform entries in `[lo, hi)` drawn from
    /// `rng`.
    pub fn rand_uniform<R: Rng + ?Sized>(dims: Vec<usize>, lo: f32, hi: f32, rng: &mut R) -> Self {
        let shape = Shape::new(dims);
        let data = (0..shape.volume()).map(|_| rng.gen_range(lo..hi)).collect();
        Tensor { shape, data }
    }

    // ---------------------------------------------------------------------
    // Accessors
    // ---------------------------------------------------------------------

    /// The shape of the tensor.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Dimension extents, outermost first.
    pub fn dims(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Rank (number of dimensions).
    pub fn rank(&self) -> usize {
        self.shape.rank()
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The flat row-major data buffer.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the flat row-major data buffer.
    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index has the wrong
    /// rank or exceeds any dimension.
    pub fn at(&self, index: &[usize]) -> Result<f32, TensorError> {
        self.shape
            .offset(index)
            .map(|o| self.data[o])
            .ok_or_else(|| TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims().to_vec(),
            })
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] if the index has the wrong
    /// rank or exceeds any dimension.
    pub fn set(&mut self, index: &[usize], value: f32) -> Result<(), TensorError> {
        match self.shape.offset(index) {
            Some(o) => {
                self.data[o] = value;
                Ok(())
            }
            None => Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims().to_vec(),
            }),
        }
    }

    // ---------------------------------------------------------------------
    // Shape manipulation
    // ---------------------------------------------------------------------

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::LengthMismatch`] if the new shape's volume
    /// differs from the element count.
    pub fn reshape(&self, dims: Vec<usize>) -> Result<Tensor, TensorError> {
        let shape = Shape::new(dims);
        if shape.volume() != self.data.len() {
            return Err(TensorError::LengthMismatch {
                expected: shape.volume(),
                actual: self.data.len(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Gives the tensor the shape `dims` in place, reusing both the
    /// extents' and the data's allocations: a buffer a layer or a batch
    /// keeps from pass to pass allocates only when it outgrows what it
    /// held. The first values up to the new length are kept and any
    /// beyond the old length are +0.0, so a caller that does not
    /// overwrite every element fills the tensor first.
    pub fn resize(&mut self, dims: &[usize]) {
        self.shape.set_dims(dims);
        self.data.resize(self.shape.volume(), 0.0);
    }

    /// Transposes a 2-D tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleMatmul`] if the tensor is not 2-D
    /// (the error carries the offending shape on both sides).
    pub fn transpose2d(&self) -> Result<Tensor, TensorError> {
        if self.rank() != 2 {
            return Err(TensorError::IncompatibleMatmul {
                left: self.dims().to_vec(),
                right: self.dims().to_vec(),
            });
        }
        let (r, c) = (self.dims()[0], self.dims()[1]);
        let mut out = Tensor::zeros(vec![c, r]);
        for i in 0..r {
            for j in 0..c {
                out.data[j * r + i] = self.data[i * c + j];
            }
        }
        Ok(out)
    }

    /// Returns row `i` of a 2-D tensor as a slice.
    ///
    /// # Panics
    ///
    /// Panics if the tensor is not 2-D or `i` is out of bounds; this is an
    /// internal hot-path accessor used after shapes are validated.
    pub fn row(&self, i: usize) -> &[f32] {
        assert_eq!(self.rank(), 2, "row() requires a 2-D tensor");
        let c = self.dims()[1];
        &self.data[i * c..(i + 1) * c]
    }

    // ---------------------------------------------------------------------
    // Element-wise operations
    // ---------------------------------------------------------------------

    /// Applies `f` to every element, returning a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&v| f(v)).collect(),
        }
    }

    /// Combines two same-shaped tensors element-wise with `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn zip_map(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(Tensor {
            shape: self.shape.clone(),
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }

    /// Element-wise sum.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn mul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// Matrix multiplication of two 2-D tensors: `(m×k) · (k×n) → (m×n)`,
    /// computed by [`matmul_into`]: element `(i, j)` starts at +0.0 and adds
    /// `self[i][p]·other[p][j]` for `p` ascending, skipping every `p` where
    /// `self[i][p]` is ±0.0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleMatmul`] if either operand is not
    /// 2-D or the inner dimensions disagree.
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 || self.dims()[1] != other.dims()[0] {
            return Err(TensorError::IncompatibleMatmul {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let n = other.dims()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        matmul_into(
            &self.data,
            &other.data,
            m,
            k,
            n,
            &mut Vec::new(),
            &mut out.data,
        );
        Ok(out)
    }

    /// `self · otherᵀ` for 2-D tensors: `(m×k) · (n×k)ᵀ → (m×n)`, computed
    /// by [`matmul_nt_into`]: element `(i, j)` starts at −0.0 and adds
    /// `self[i][p]·other[j][p]` for every `p` ascending, with no zero skip.
    ///
    /// This avoids materialising the transpose in backprop hot paths.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleMatmul`] if either operand is not
    /// 2-D or the `k` dimensions disagree.
    pub fn matmul_nt(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 || self.dims()[1] != other.dims()[1] {
            return Err(TensorError::IncompatibleMatmul {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let (m, k) = (self.dims()[0], self.dims()[1]);
        let n = other.dims()[0];
        let mut out = Tensor::zeros(vec![m, n]);
        matmul_nt_into(
            &self.data,
            &other.data,
            m,
            k,
            n,
            &mut Vec::new(),
            &mut out.data,
        );
        Ok(out)
    }

    /// `selfᵀ · other` for 2-D tensors: `(k×m)ᵀ · (k×n) → (m×n)`, computed
    /// by [`matmul_tn_into`]: element `(i, j)` starts at +0.0 and adds
    /// `self[p][i]·other[p][j]` for `p` ascending, skipping every `p` where
    /// `self[p][i]` is ±0.0.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IncompatibleMatmul`] if either operand is not
    /// 2-D or the `k` dimensions disagree.
    pub fn matmul_tn(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        if self.rank() != 2 || other.rank() != 2 || self.dims()[0] != other.dims()[0] {
            return Err(TensorError::IncompatibleMatmul {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        let (k, m) = (self.dims()[0], self.dims()[1]);
        let n = other.dims()[1];
        let mut out = Tensor::zeros(vec![m, n]);
        matmul_tn_into(
            &self.data,
            &other.data,
            k,
            m,
            n,
            &mut Vec::new(),
            &mut out.data,
        );
        Ok(out)
    }

    // ---------------------------------------------------------------------
    // Reductions
    // ---------------------------------------------------------------------

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Mean of all elements.
    ///
    /// Returns `0.0` for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.data.is_empty() {
            0.0
        } else {
            self.sum() / self.data.len() as f32
        }
    }

    /// Maximum element.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::EmptyTensor`] for an empty tensor.
    pub fn max(&self) -> Result<f32, TensorError> {
        self.data
            .iter()
            .copied()
            .fold(None, |acc: Option<f32>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            })
            .ok_or(TensorError::EmptyTensor)
    }

    /// Frobenius (L2) norm of the whole tensor.
    pub fn norm(&self) -> f32 {
        crate::vecmath::norm(&self.data)
    }

    fn check_same_shape(&self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.dims().to_vec(),
                right: other.dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor{} [", self.shape)?;
        const PREVIEW: usize = 8;
        for (i, v) in self.data.iter().take(PREVIEW).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v:.4}")?;
        }
        if self.data.len() > PREVIEW {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

// -------------------------------------------------------------------------
// Matrix-product kernels
// -------------------------------------------------------------------------
//
// Each product sums an output element in exactly the order its direct loop
// does — one f32 multiply and one f32 add per term, `p` ascending — so the
// result is bit-identical to that loop. What changes is the loop nest: a
// chunk of up to 32 output columns is summed in a local array, which the
// baseline target keeps in vector registers (eight independent SSE
// accumulators for a full chunk), and a row's terms stream through it.
// Lanes round as the scalar unit does and Rust never contracts `a * b + c`
// into a fused multiply-add.
//
// That is the scalar tier. On the `Avx512` rung of the CPU ladder the
// products run the kernels of the `avx512` module instead, with the same
// bits: see there.

/// The rungs with a matrix-product kernel, scalar first. Not an option:
/// the products run [`Tier::best`]; the tests and bench rows run each rung
/// the host reaches.
#[doc(hidden)]
pub const PRODUCT_TIERS: &[Tier] = &[Tier::Scalar, Tier::Avx512];

/// Calls `$chunk::<W>(args.., j)` over the output columns `0..$n`: chunks
/// of 32 while they last, then at most one each of 16, 8, 4, 2 and 1, so
/// a narrow or ragged width (the classifier's 6 is 4 + 2) still runs
/// fixed-width, unrolled lanes rather than a scalar remainder loop.
macro_rules! by_column_chunks {
    ($n:expr, $chunk:ident($($arg:expr),*)) => {{
        let n: usize = $n;
        let mut j = 0;
        while n - j >= 32 {
            $chunk::<32>($($arg,)* j);
            j += 32;
        }
        if n - j >= 16 {
            $chunk::<16>($($arg,)* j);
            j += 16;
        }
        if n - j >= 8 {
            $chunk::<8>($($arg,)* j);
            j += 8;
        }
        if n - j >= 4 {
            $chunk::<4>($($arg,)* j);
            j += 4;
        }
        if n - j >= 2 {
            $chunk::<2>($($arg,)* j);
            j += 2;
        }
        if n - j == 1 {
            $chunk::<1>($($arg,)* j);
        }
    }};
}

/// A non-zero left entry of [`matmul_into`] or [`matmul_tn_into`]: its
/// value and the offset of the right operand's row it multiplies.
pub type Gathered = (f32, usize);

/// `x · w` for row-major `x` (`m×k`) and `w` (`k×n`) into `out` (`m×n`).
///
/// Element `(i, j)` starts at +0.0 and adds `x[i][p]·w[p][j]` for `p`
/// ascending, skipping every `p` where `x[i][p]` is ±0.0 (a NaN is not
/// skipped). The skip is what keeps a zero input from turning an infinite
/// weight into NaN, and it is made without a branch per entry: each row's
/// non-zero entries are first gathered into `gathered` (caller scratch,
/// grown to `k` entries and reused), in ascending `p`, so every element
/// still sees its terms in the direct loop's order. Every element of
/// `out` is written. On the [`Tier::Avx512`] rung an AVX-512 kernel runs
/// instead, with the same bits, and `gathered` is left as it was.
///
/// # Panics
///
/// Panics if a slice's length disagrees with the dimensions.
pub fn matmul_into(
    x: &[f32],
    w: &[f32],
    m: usize,
    k: usize,
    n: usize,
    gathered: &mut Vec<Gathered>,
    out: &mut [f32],
) {
    matmul_into_on(Tier::best(), x, w, m, k, n, gathered, out);
}

/// [`matmul_into`] on `tier`: the same bits. Panics as it does, and if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_into_on(
    tier: Tier,
    x: &[f32],
    w: &[f32],
    m: usize,
    k: usize,
    n: usize,
    gathered: &mut Vec<Gathered>,
    out: &mut [f32],
) {
    assert_eq!(x.len(), m * k, "matmul_into: x is not m×k");
    assert_eq!(w.len(), k * n, "matmul_into: w is not k×n");
    assert_eq!(out.len(), m * n, "matmul_into: out is not m×n");
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        let left = avx512::Left::rows(x, k);
        return avx512::product(left, w, m, k, n, avx512::Start::SkippingZeros, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    gathered.resize(k, (0.0, 0));
    for i in 0..m {
        let mut found = 0;
        for (p, &a) in x[i * k..][..k].iter().enumerate() {
            gathered[found] = (a, p * n);
            found += usize::from(a != 0.0);
        }
        by_column_chunks!(
            n,
            gathered_chunk(&gathered[..found], w, &mut out[i * n..][..n])
        );
    }
}

/// `xᵀ · g` for row-major `x` (`k×m`) and `g` (`k×n`) into `out` (`m×n`).
///
/// Element `(i, j)` starts at +0.0 and adds `x[p][i]·g[p][j]` for `p`
/// ascending, skipping every `p` where `x[p][i]` is ±0.0 (a NaN is not
/// skipped). As in [`matmul_into`], column `i`'s non-zero entries are
/// gathered first, without a branch, in ascending `p`, into `gathered`
/// (caller scratch, grown to `k` entries). Every element of `out` is
/// written. On the [`Tier::Avx512`] rung an AVX-512 kernel runs instead,
/// with the same bits, and `gathered` is left as it was.
///
/// # Panics
///
/// Panics if a slice's length disagrees with the dimensions.
pub fn matmul_tn_into(
    x: &[f32],
    g: &[f32],
    k: usize,
    m: usize,
    n: usize,
    gathered: &mut Vec<Gathered>,
    out: &mut [f32],
) {
    matmul_tn_into_on(Tier::best(), x, g, k, m, n, gathered, out);
}

/// [`matmul_tn_into`] on `tier`: the same bits. Panics as it does, and if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_tn_into_on(
    tier: Tier,
    x: &[f32],
    g: &[f32],
    k: usize,
    m: usize,
    n: usize,
    gathered: &mut Vec<Gathered>,
    out: &mut [f32],
) {
    assert_eq!(x.len(), k * m, "matmul_tn_into: x is not k×m");
    assert_eq!(g.len(), k * n, "matmul_tn_into: g is not k×n");
    assert_eq!(out.len(), m * n, "matmul_tn_into: out is not m×n");
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        let left = avx512::Left::columns(x, m);
        return avx512::product(left, g, m, k, n, avx512::Start::SkippingZeros, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    gathered.resize(k, (0.0, 0));
    for i in 0..m {
        let mut found = 0;
        for p in 0..k {
            let a = x[p * m + i];
            gathered[found] = (a, p * n);
            found += usize::from(a != 0.0);
        }
        by_column_chunks!(
            n,
            gathered_chunk(&gathered[..found], g, &mut out[i * n..][..n])
        );
    }
}

/// `g · wᵀ` for row-major `g` (`m×k`) and `w` (`n×k`) into `out` (`m×n`).
///
/// Element `(i, j)` starts at −0.0 — where `iter::Sum for f32`, and so
/// [`crate::vecmath::dot`], starts — and adds `g[i][p]·w[j][p]` for
/// **every** `p` ascending, with no zero skip, so `0·∞` still lands as
/// NaN and a row of −0.0 products stays −0.0. `w` is first transposed into
/// `transposed` (caller scratch, grown to `k·n`), so the inner loop reads
/// contiguous output columns. Every element of `out` is written. On the
/// [`Tier::Avx512`] rung an AVX-512 kernel sums over `transposed`
/// instead, with the same bits.
///
/// # Panics
///
/// Panics if a slice's length disagrees with the dimensions.
pub fn matmul_nt_into(
    g: &[f32],
    w: &[f32],
    m: usize,
    k: usize,
    n: usize,
    transposed: &mut Vec<f32>,
    out: &mut [f32],
) {
    matmul_nt_into_on(Tier::best(), g, w, m, k, n, transposed, out);
}

/// [`matmul_nt_into`] on `tier`: the same bits. Panics as it does, and if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
#[allow(clippy::too_many_arguments)]
pub fn matmul_nt_into_on(
    tier: Tier,
    g: &[f32],
    w: &[f32],
    m: usize,
    k: usize,
    n: usize,
    transposed: &mut Vec<f32>,
    out: &mut [f32],
) {
    assert_eq!(g.len(), m * k, "matmul_nt_into: g is not m×k");
    assert_eq!(w.len(), n * k, "matmul_nt_into: w is not n×k");
    assert_eq!(out.len(), m * n, "matmul_nt_into: out is not m×n");
    transposed.resize(k * n, 0.0);
    for j in 0..n {
        for p in 0..k {
            transposed[p * n + j] = w[j * k + p];
        }
    }
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        let left = avx512::Left::rows(g, k);
        return avx512::product(left, transposed, m, k, n, avx512::Start::NegativeZero, out);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for i in 0..m {
        by_column_chunks!(
            n,
            transposed_chunk(&g[i * k..][..k], transposed, &mut out[i * n..][..n])
        );
    }
}

/// Columns `j..j + W` of one output row of [`matmul_into`] or
/// [`matmul_tn_into`]: from +0.0, add `a·right[row + j + c]` for each
/// gathered `(a, row)` in order.
#[inline(always)]
fn gathered_chunk<const W: usize>(hits: &[Gathered], right: &[f32], out: &mut [f32], j: usize) {
    let mut acc = [0.0f32; W];
    for &(a, row) in hits {
        let r = &right[row + j..][..W];
        for (s, &b) in acc.iter_mut().zip(r) {
            *s += a * b;
        }
    }
    out[j..][..W].copy_from_slice(&acc);
}

/// Columns `j..j + W` of one output row of [`matmul_nt_into`]: from −0.0,
/// add `g_row[p]·transposed[p][j + c]` for every `p` ascending.
#[inline(always)]
fn transposed_chunk<const W: usize>(g_row: &[f32], transposed: &[f32], out: &mut [f32], j: usize) {
    let n = out.len();
    let mut acc = [-0.0f32; W];
    for (p, &a) in g_row.iter().enumerate() {
        let r = &transposed[p * n + j..][..W];
        for (s, &b) in acc.iter_mut().zip(r) {
            *s += a * b;
        }
    }
    out[j..][..W].copy_from_slice(&acc);
}

/// Minimal Box–Muller standard-normal sampler.
///
/// The `rand` crate alone does not ship a normal distribution (that lives in
/// `rand_distr`, which is outside the allowed dependency set), so we carry a
/// tiny shim. Box–Muller is numerically fine for the f32 scales used here.
mod rand_distr_shim {
    use rand::Rng;

    pub struct StandardNormalShim;

    impl StandardNormalShim {
        pub fn sample<R: Rng + ?Sized>(rng: &mut R) -> f32 {
            // Draw u1 in (0, 1] to avoid ln(0).
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let r = (-2.0 * u1.ln()).sqrt();
            let theta = 2.0 * std::f64::consts::PI * u2;
            (r * theta.cos()) as f32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn from_vec_checks_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        let err = Tensor::from_vec(vec![2, 2], vec![1.0; 3]).unwrap_err();
        assert_eq!(
            err,
            TensorError::LengthMismatch {
                expected: 4,
                actual: 3
            }
        );
    }

    #[test]
    fn indexing_round_trip() {
        let mut t = Tensor::zeros(vec![2, 3]);
        t.set(&[1, 2], 7.5).unwrap();
        assert_eq!(t.at(&[1, 2]).unwrap(), 7.5);
        assert_eq!(t.at(&[0, 0]).unwrap(), 0.0);
        assert!(t.at(&[2, 0]).is_err());
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7., 8., 9., 10., 11., 12.]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.dims(), &[2, 2]);
        assert_eq!(c.data(), &[58., 64., 139., 154.]);
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let mut rng = StdRng::seed_from_u64(7);
        let a = Tensor::randn(vec![3, 4], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(vec![5, 4], 0.0, 1.0, &mut rng);
        let direct = a.matmul_nt(&b).unwrap();
        let via_t = a.matmul(&b.transpose2d().unwrap()).unwrap();
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let mut rng = StdRng::seed_from_u64(8);
        let a = Tensor::randn(vec![4, 3], 0.0, 1.0, &mut rng);
        let b = Tensor::randn(vec![4, 5], 0.0, 1.0, &mut rng);
        let direct = a.matmul_tn(&b).unwrap();
        let via_t = a.transpose2d().unwrap().matmul(&b).unwrap();
        for (x, y) in direct.data().iter().zip(via_t.data()) {
            assert!((x - y).abs() < 1e-5);
        }
    }

    /// `Tensor::matmul` before the slice kernels, verbatim.
    fn matmul_direct(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &b.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out).unwrap()
    }

    /// `Tensor::matmul_nt` before the slice kernels, verbatim.
    fn matmul_nt_direct(a: &Tensor, b: &Tensor) -> Tensor {
        let (m, k) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[0];
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &a.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &b.data[j * k..(j + 1) * k];
                out[i * n + j] = crate::vecmath::dot(a_row, b_row);
            }
        }
        Tensor::from_vec(vec![m, n], out).unwrap()
    }

    /// `Tensor::matmul_tn` before the slice kernels, verbatim.
    fn matmul_tn_direct(a: &Tensor, b: &Tensor) -> Tensor {
        let (k, m) = (a.dims()[0], a.dims()[1]);
        let n = b.dims()[1];
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &a.data[p * m..(p + 1) * m];
            let b_row = &b.data[p * n..(p + 1) * n];
            for (i, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let out_row = &mut out[i * n..(i + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Tensor::from_vec(vec![m, n], out).unwrap()
    }

    /// Panics unless `a` and `b` hold the same f32 bit patterns, any NaN
    /// matching any NaN (Rust leaves an arithmetic NaN's sign and payload
    /// unspecified).
    fn assert_bits_eq(what: &str, a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len(), "{what}: lengths differ");
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            if !(x.is_nan() && y.is_nan()) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
            }
        }
    }

    /// A matrix about half ±0.0, with subnormals, and with ±∞ and NaN
    /// rare enough that most sums stay finite.
    fn hostile(dims: Vec<usize>, rng: &mut StdRng) -> Tensor {
        Tensor::from_fn(dims, |_| match rng.gen_range(0..100) {
            0 => f32::INFINITY,
            1 => f32::NEG_INFINITY,
            2 => f32::NAN,
            3..=7 => {
                f32::from_bits(rng.gen_range(1..0x0080_0000)) * [1.0, -1.0][rng.gen_range(0..2)]
            }
            8..=29 => 0.0,
            30..=49 => -0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
    }

    #[test]
    fn products_match_the_direct_loops_bit_for_bit() {
        let tiers = Tier::runnable(PRODUCT_TIERS);
        println!("product tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(35);
        let (mut gathered, mut transposed) = (Vec::new(), Vec::new());
        let mut geometries = 0;
        for m in [0, 1, 3, 64] {
            for k in [0, 1, 2, 7, 32] {
                for n in 0..=40 {
                    let x = hostile(vec![m, k], &mut rng);
                    let w = hostile(vec![k, n], &mut rng);
                    let want = matmul_direct(&x, &w);
                    // The kernels write every element: start from garbage.
                    let mut out = vec![7.0; m * n];
                    for &tier in &tiers {
                        out.fill(7.0);
                        matmul_into_on(tier, x.data(), w.data(), m, k, n, &mut gathered, &mut out);
                        assert_bits_eq(&format!("matmul {tier:?}"), &out, want.data());
                    }
                    assert_bits_eq("matmul wrapper", x.matmul(&w).unwrap().data(), &out);

                    let wt = hostile(vec![n, k], &mut rng);
                    let want = matmul_nt_direct(&x, &wt);
                    for &tier in &tiers {
                        out.fill(7.0);
                        let (g, w) = (x.data(), wt.data());
                        matmul_nt_into_on(tier, g, w, m, k, n, &mut transposed, &mut out);
                        assert_bits_eq(&format!("matmul_nt {tier:?}"), &out, want.data());
                    }
                    assert_bits_eq("nt wrapper", x.matmul_nt(&wt).unwrap().data(), &out);

                    let xt = hostile(vec![k, m], &mut rng);
                    let g = hostile(vec![k, n], &mut rng);
                    let want = matmul_tn_direct(&xt, &g);
                    for &tier in &tiers {
                        out.fill(7.0);
                        let (x, g) = (xt.data(), g.data());
                        matmul_tn_into_on(tier, x, g, k, m, n, &mut gathered, &mut out);
                        assert_bits_eq(&format!("matmul_tn {tier:?}"), &out, want.data());
                    }
                    assert_bits_eq("tn wrapper", xt.matmul_tn(&g).unwrap().data(), &out);
                    geometries += 1;
                }
            }
        }
        println!("matmul geometries exercised: {geometries}");
    }

    /// What a training step feeds the products: finite operands, the left
    /// one about half ±0.0 as behind ReLU, with subnormals, at every width
    /// 1–33 and row counts around the kernels' row groups — the masked
    /// add the hostile matrices above take is skipped here.
    #[test]
    fn finite_products_match_the_direct_loops_on_every_tier() {
        let tiers = Tier::runnable(PRODUCT_TIERS);
        println!("product tiers exercised on finite operands: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(51);
        let mut finite = |dims: Vec<usize>| {
            Tensor::from_fn(dims, |_| match rng.gen_range(0..10) {
                0 => f32::from_bits(rng.gen_range(1..0x0080_0000)),
                1..=3 => 0.0,
                4 => -0.0,
                _ => rng.gen_range(-2.0f32..2.0),
            })
        };
        let (mut gathered, mut transposed) = (Vec::new(), Vec::new());
        for m in [1, 4, 5, 9, 64] {
            for k in [1, 6, 16, 32] {
                for n in 1..=33 {
                    let (x, w, wt) = (finite(vec![m, k]), finite(vec![k, n]), finite(vec![n, k]));
                    let (xt, g) = (finite(vec![k, m]), finite(vec![k, n]));
                    let mut out = vec![7.0; m * n];
                    for &tier in &tiers {
                        let what = format!("{tier:?} {m}×{k}×{n}");
                        matmul_into_on(tier, x.data(), w.data(), m, k, n, &mut gathered, &mut out);
                        assert_bits_eq(&what, &out, matmul_direct(&x, &w).data());
                        let (g_, w_) = (x.data(), wt.data());
                        matmul_nt_into_on(tier, g_, w_, m, k, n, &mut transposed, &mut out);
                        assert_bits_eq(&what, &out, matmul_nt_direct(&x, &wt).data());
                        let (x_, g_) = (xt.data(), g.data());
                        matmul_tn_into_on(tier, x_, g_, k, m, n, &mut gathered, &mut out);
                        assert_bits_eq(&what, &out, matmul_tn_direct(&xt, &g).data());
                    }
                }
            }
        }
    }

    #[test]
    fn zero_products_keep_each_products_starting_sign() {
        for (k, n) in [(1, 1), (6, 6), (16, 33), (32, 32)] {
            // −0.0·w for a positive w: every term is −0.0.
            let g = Tensor::full(vec![2, k], -0.0);
            let w = Tensor::full(vec![n, k], 0.5);
            let nt = g.matmul_nt(&w).unwrap();
            assert!(nt.data().iter().all(|v| v.to_bits() == (-0.0f32).to_bits()));
            assert_bits_eq("nt", nt.data(), matmul_nt_direct(&g, &w).data());
            // The skipping products never add a term: +0.0, even against ∞.
            let inf = Tensor::full(vec![k, n], f32::INFINITY);
            let zeros = Tensor::full(vec![2, k], -0.0);
            let nn = zeros.matmul(&inf).unwrap();
            assert!(nn.data().iter().all(|v| v.to_bits() == 0));
            let tn = Tensor::full(vec![k, 2], -0.0).matmul_tn(&inf).unwrap();
            assert!(tn.data().iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn matmul_rejects_incompatible() {
        let a = Tensor::zeros(vec![2, 3]);
        let b = Tensor::zeros(vec![2, 3]);
        assert!(matches!(
            a.matmul(&b),
            Err(TensorError::IncompatibleMatmul { .. })
        ));
    }

    #[test]
    fn transpose_involution() {
        let mut rng = StdRng::seed_from_u64(9);
        let a = Tensor::randn(vec![3, 5], 0.0, 1.0, &mut rng);
        let tt = a.transpose2d().unwrap().transpose2d().unwrap();
        assert_eq!(a, tt);
    }

    #[test]
    fn elementwise_ops() {
        let a = Tensor::from_vec(vec![3], vec![1., 2., 3.]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![10., 20., 30.]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[11., 22., 33.]);
        assert_eq!(b.sub(&a).unwrap().data(), &[9., 18., 27.]);
        assert_eq!(a.mul(&b).unwrap().data(), &[10., 40., 90.]);
        assert_eq!(a.scale(2.0).data(), &[2., 4., 6.]);
    }

    #[test]
    fn elementwise_shape_mismatch() {
        let a = Tensor::zeros(vec![2]);
        let b = Tensor::zeros(vec![3]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn reductions() {
        let t = Tensor::from_vec(vec![2, 2], vec![1., 2., 3., 4.]).unwrap();
        assert_eq!(t.sum(), 10.0);
        assert_eq!(t.mean(), 2.5);
        assert_eq!(t.max().unwrap(), 4.0);
    }

    #[test]
    fn randn_is_deterministic_per_seed() {
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = Tensor::randn(vec![16], 0.0, 1.0, &mut r1);
        let b = Tensor::randn(vec![16], 0.0, 1.0, &mut r2);
        assert_eq!(a, b);
    }

    #[test]
    fn randn_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(0);
        let t = Tensor::randn(vec![20_000], 0.0, 1.0, &mut rng);
        assert!(t.mean().abs() < 0.05, "mean {} too far from 0", t.mean());
        let var = t.map(|v| v * v).mean() - t.mean() * t.mean();
        assert!((var - 1.0).abs() < 0.1, "variance {var} too far from 1");
    }

    #[test]
    fn display_previews_elements() {
        let t = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let s = t.to_string();
        assert!(s.contains("1.0000"));
        assert!(s.contains("(2)"));
    }

    #[test]
    fn resize_reuses_both_allocations() {
        let mut t = Tensor::from_fn(vec![2, 3, 4], |i| i as f32);
        let (dims, data) = (t.dims().as_ptr(), t.data().as_ptr());
        t.resize(&[3, 2]);
        assert_eq!(t.dims(), &[3, 2]);
        assert_eq!(t.data(), &[0., 1., 2., 3., 4., 5.]);
        t.resize(&[4, 5, 1]);
        assert_eq!(t.len(), 20);
        assert_eq!(t.data()[..6], [0., 1., 2., 3., 4., 5.]);
        assert_eq!(t.data()[6..], [0.0; 14]);
        assert_eq!((t.dims().as_ptr(), t.data().as_ptr()), (dims, data));
        t.resize(&[0]);
        assert!(t.is_empty());
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![7]).is_err());
    }
}
