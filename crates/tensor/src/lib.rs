//! Row-major `f32` tensor and linear-algebra substrate for the MixNN
//! reproduction.
//!
//! This crate provides the numerical foundation used by every other crate in
//! the workspace: the [`Tensor`] type with shape-checked element-wise and
//! matrix operations, flat-vector helpers in [`vecmath`] (dot products,
//! cosine similarity, Euclidean distance — the metrics the ∇Sim attack and
//! the robustness analysis of the paper are built on), and weight
//! initialisers in [`init`].
//!
//! The design goal is *determinism*: all randomness is injected through
//! caller-supplied [`rand::Rng`] values so that federated-learning runs are
//! reproducible bit-for-bit, which in turn is what makes the paper's
//! utility-equivalence claim (classic FL and MixNN produce the *same*
//! aggregated model) testable exactly.
//!
//! # Example
//!
//! ```
//! use mixnn_tensor::Tensor;
//!
//! # fn main() -> Result<(), mixnn_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
//! let b = Tensor::eye(2);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.data(), a.data());
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

mod error;
pub mod init;
mod shape;
mod tensor;
pub mod vecmath;

pub use error::TensorError;
pub use shape::Shape;
pub use tensor::{matmul_into, matmul_nt_into, matmul_tn_into, Gathered, Tensor};
#[doc(hidden)]
pub use tensor::{matmul_into_on, matmul_nt_into_on, matmul_tn_into_on, PRODUCT_TIERS};
