//! From-scratch neural-network library for the MixNN reproduction.
//!
//! The paper trains small convolutional networks with TensorFlow; this crate
//! rebuilds the required subset natively in Rust: layers with explicit
//! forward/backward passes ([`Dense`], [`Conv2d`], [`MaxPool2d`],
//! [`LocallyConnected2d`], [`Flatten`], [`Relu`]), a softmax cross-entropy
//! loss, [`Sgd`] and [`Adam`] optimizers, and the [`Sequential`] model
//! container.
//!
//! The crate's most important design decision for MixNN is that **model
//! parameters are exposed per layer as flat vectors** ([`LayerParams`] inside
//! a [`ModelParams`]): the MixNN proxy mixes exactly these per-layer vectors
//! between participants, and FedAvg aggregates them column-wise. Keeping the
//! layer structure first-class makes the mixing operation and its
//! utility-equivalence property direct to implement and test. Each
//! trainable layer keeps its state in one [`ParamBlock`], the only code that
//! knows how a layer's weights and bias lay out in its `LayerParams`.
//!
//! # Example
//!
//! ```
//! use mixnn_nn::{Dense, Relu, Sequential, Sgd, SoftmaxCrossEntropy};
//! use mixnn_tensor::Tensor;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), mixnn_nn::NnError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let mut model = Sequential::new();
//! model.push(Dense::new(4, 8, &mut rng));
//! model.push(Relu::new());
//! model.push(Dense::new(8, 3, &mut rng));
//!
//! let x = Tensor::randn(vec![2, 4], 0.0, 1.0, &mut rng);
//! let y = vec![0usize, 2];
//! let mut opt = Sgd::new(0.1);
//! let loss = SoftmaxCrossEntropy::new();
//! let before = model.evaluate(&x, &y, &loss)?.loss;
//! for _ in 0..20 {
//!     model.train_batch(&x, &y, &loss, &mut opt)?;
//! }
//! let after = model.evaluate(&x, &y, &loss)?.loss;
//! assert!(after < before);
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

mod error;
pub mod gradcheck;
mod layers;
mod loss;
mod model;
mod optimizer;
mod params;
pub mod zoo;

pub use error::NnError;
pub use layers::activation::Relu;
pub use layers::conv::Conv2d;
pub use layers::dense::Dense;
pub use layers::flatten::Flatten;
pub use layers::locally_connected::LocallyConnected2d;
pub use layers::pool::MaxPool2d;
pub use layers::Layer;
pub use loss::{Evaluation, SoftmaxCrossEntropy};
/// The tensor every layer reads and writes, re-exported so a crate that
/// trains models can keep batches and buffers without naming
/// `mixnn-tensor`.
pub use mixnn_tensor::Tensor;
pub use model::Sequential;
pub use optimizer::{Adam, Optimizer, Sgd};
pub use params::{LayerParams, ModelParams, ParamBlock};
