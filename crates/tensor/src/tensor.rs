use self::rand_distr_shim::StandardNormalShim;
use crate::{Shape, TensorError};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::fmt;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
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

    /// Applies `f` to every element in place.
    pub fn map_in_place(&mut self, f: impl Fn(f32) -> f32) {
        for v in &mut self.data {
            *v = f(*v);
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

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] if the shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|v| v * s)
    }

    // ---------------------------------------------------------------------
    // Linear algebra
    // ---------------------------------------------------------------------

    /// Matrix multiplication of two 2-D tensors: `(m×k) · (k×n) → (m×n)`.
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
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            let out_row = &mut out[i * n..(i + 1) * n];
            for (p, &a) in a_row.iter().enumerate() {
                if a == 0.0 {
                    continue;
                }
                let b_row = &other.data[p * n..(p + 1) * n];
                for (o, &b) in out_row.iter_mut().zip(b_row.iter()) {
                    *o += a * b;
                }
            }
        }
        Ok(Tensor {
            shape: Shape::new(vec![m, n]),
            data: out,
        })
    }

    /// `self · otherᵀ` for 2-D tensors: `(m×k) · (n×k)ᵀ → (m×n)`.
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
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            let a_row = &self.data[i * k..(i + 1) * k];
            for j in 0..n {
                let b_row = &other.data[j * k..(j + 1) * k];
                out[i * n + j] = crate::vecmath::dot(a_row, b_row);
            }
        }
        Ok(Tensor {
            shape: Shape::new(vec![m, n]),
            data: out,
        })
    }

    /// `selfᵀ · other` for 2-D tensors: `(k×m)ᵀ · (k×n) → (m×n)`.
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
        let mut out = vec![0.0f32; m * n];
        for p in 0..k {
            let a_row = &self.data[p * m..(p + 1) * m];
            let b_row = &other.data[p * n..(p + 1) * n];
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
        Ok(Tensor {
            shape: Shape::new(vec![m, n]),
            data: out,
        })
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
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]).unwrap();
        let r = t.reshape(vec![3, 2]).unwrap();
        assert_eq!(r.dims(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(vec![7]).is_err());
    }
}
