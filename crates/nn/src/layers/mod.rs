//! Layer implementations.
//!
//! Every layer implements the object-safe [`Layer`] trait so that
//! [`crate::Sequential`] can hold a heterogeneous stack. Layers cache the
//! activations they need during `forward` and consume them in `backward`;
//! gradient buffers accumulate until [`Layer::zero_grads`] is called, which
//! lets callers implement mini-batch or multi-batch accumulation on top.

pub mod activation;
pub mod conv;
pub mod dense;
pub mod flatten;
pub mod locally_connected;
pub mod pool;
mod window;

use crate::{LayerParams, NnError};
use mixnn_tensor::Tensor;
use std::fmt::Debug;

/// A differentiable network layer.
///
/// The trait is object-safe: [`crate::Sequential`] stores `Box<dyn Layer>`.
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

    /// Flat view of the trainable parameters, or `None` for parameter-free
    /// layers (activations, pooling, flatten).
    fn params(&self) -> Option<LayerParams>;

    /// Loads a flat parameter vector produced by [`Layer::params`].
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ParamLengthMismatch`] if the vector length differs
    /// from the layer's parameter count.
    fn set_params(&mut self, params: &LayerParams) -> Result<(), NnError>;

    /// Flat view of the accumulated parameter gradients, aligned with
    /// [`Layer::params`]; `None` for parameter-free layers.
    fn grads(&self) -> Option<LayerParams>;

    /// Clears the accumulated gradients.
    fn zero_grads(&mut self);

    /// Number of trainable parameters (0 for parameter-free layers).
    fn param_len(&self) -> usize;

    /// Clones the layer into a box (enables `Clone` for the model).
    fn clone_box(&self) -> Box<dyn Layer>;
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Shared helper: validate a parameter vector length against a layer.
pub(crate) fn check_param_len(
    layer: &'static str,
    expected: usize,
    params: &LayerParams,
) -> Result<(), NnError> {
    if params.len() != expected {
        return Err(NnError::ParamLengthMismatch {
            layer: layer.to_string(),
            expected,
            actual: params.len(),
        });
    }
    Ok(())
}
