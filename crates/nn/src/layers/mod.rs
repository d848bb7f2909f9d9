//! Layer implementations.
//!
//! Every layer implements the object-safe [`Layer`] trait so that
//! [`crate::Sequential`] can hold a heterogeneous stack. Both passes write
//! into a tensor the caller keeps — `forward` its output, `backward` the
//! input gradient — resized in place ([`Tensor::resize`]); a layer keeps
//! only what its own backward pass needs of the forward pass (a copy of
//! the input, the winners of a pooling window, the positivity of an
//! activation) and its scratch, in buffers it owns from one pass to the
//! next. So once a model has seen a batch shape, a pass over that shape
//! allocates nothing. A buffer is zero-filled only where its kernel
//! accumulates into it; every other one is overwritten element by element.
//!
//! A trainable layer keeps its weights, bias and their gradients in one
//! [`ParamBlock`]; `backward` adds into the gradients, and they are zeroed
//! only when the optimizer steps the block (or the model is told to zero
//! them), so backward passes over several batches accumulate.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod flatten;
pub mod locally_connected;
pub mod pool;
mod window;

#[cfg(test)]
pub(crate) use window::hostile;

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

    /// Computes the layer output for `input` into `output`, which is
    /// resized to the output's shape in place, keeping whatever the
    /// backward pass will need.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] when the input shape is not what the
    /// layer was constructed for.
    fn forward(&mut self, input: &Tensor, output: &mut Tensor) -> Result<(), NnError>;

    /// Propagates `grad_output` backwards, accumulating parameter gradients
    /// and writing the gradient with respect to the layer input into
    /// `grad_input`, which is resized to the input's shape in place.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] if no activation is
    /// cached, or [`NnError::BadInput`] on a shape mismatch.
    fn backward(&mut self, grad_output: &Tensor, grad_input: &mut Tensor) -> Result<(), NnError>;

    /// [`Layer::backward`] for a layer whose input gradient nobody reads —
    /// a model's first layer: accumulates the parameter gradients only.
    /// The default runs `backward` into a fresh tensor and drops it; a
    /// layer that can skip computing the input gradient overrides this.
    ///
    /// # Errors
    ///
    /// As [`Layer::backward`].
    fn backward_params(&mut self, grad_output: &Tensor) -> Result<(), NnError> {
        self.backward(grad_output, &mut Tensor::default())
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
