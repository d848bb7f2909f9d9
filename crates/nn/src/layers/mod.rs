//! Layer implementations.
//!
//! Every layer implements the object-safe [`Layer`] trait so that
//! [`crate::Sequential`] can hold a heterogeneous stack. Layers cache the
//! activations they need during `forward` and consume them in `backward`.
//! A trainable layer keeps its weights, bias and their gradients in one
//! [`ParamBlock`]; `backward` adds into the gradients, and they are zeroed
//! only when the optimizer steps the block, so backward passes over several
//! batches accumulate.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod flatten;
pub mod locally_connected;
pub mod pool;
mod window;

use crate::{NnError, ParamBlock};
use mixnn_tensor::Tensor;
use std::fmt::Debug;

/// A differentiable network layer.
///
/// The trait is object-safe: [`crate::Sequential`] stores `Box<dyn Layer>`.
/// A parameter-free layer implements `name`, `forward`, `backward` and
/// `clone_box`; a trainable one also returns its [`ParamBlock`] from
/// [`Layer::params`] and [`Layer::params_mut`], which is all the model
/// needs to move, step and zero its parameters.
///
/// Implementations must be deterministic — given the same input and
/// parameters, `forward` and `backward` must produce identical results, a
/// property the reproduction relies on to verify MixNN's exact utility
/// equivalence.
pub trait Layer: Debug + Send + Sync {
    /// Human-readable layer kind, e.g. `"dense"`.
    fn name(&self) -> &'static str;

    /// Computes the layer output for `input`, caching whatever the backward
    /// pass will need.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input shape is not what the
    /// layer was constructed for.
    fn forward(&mut self, input: &Tensor) -> Result<Tensor, NnError>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients
    /// and returning the gradient with respect to the layer input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no activation is
    /// cached, or [`NnError::BadInput`] on a shape mismatch.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError>;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// a model's first layer: accumulates the parameter gradients only.
    /// The default runs `backward` and drops the input gradient; a layer
    /// that can skip computing it overrides this.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.backward(grad_output).map(drop)
    }

    /// The layer's trainable parameters and their accumulated gradients,
    /// or `None` — the default — for a parameter-free layer (activations,
    /// pooling, flatten).
    fn params(&self) -> Option<&ParamBlock> {
        None
    }

    /// Mutable access to [`Layer::params`]: loading values, and the
    /// optimizer step that updates them in place.
    fn params_mut(&mut self) -> Option<&mut ParamBlock> {
        None
    }

    /// Clones the layer into a box (enables `Clone` for the model).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}
