//! Numerical gradient checking.
//!
//! Every layer's `backward` is verified against central finite differences
//! of its `forward`. This is the safety net that makes a from-scratch
//! backprop implementation trustworthy: if the analytic gradients are right,
//! local SGD/Adam training behaves like any mainstream framework, and the
//! gradient "fingerprints" ∇Sim exploits are faithful to the paper's setup.

use crate::{Layer, NnError};
use mixnn_tensor::Tensor;
use std::error::Error;
use std::fmt;

/// Report of a gradient-check failure.
#[derive(Debug, Clone, PartialEq)]
pub struct GradCheckError {
    /// `"weights"`, `"bias"` or `"input"`: which gradient disagreed.
    pub which: &'static str,
    /// Flat index of the offending scalar within that tensor.
    pub index: usize,
    /// Analytic (backprop) gradient value.
    pub analytic: f32,
    /// Numerical (finite-difference) gradient value.
    pub numeric: f32,
}

impl fmt::Display for GradCheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} gradient mismatch at index {}: analytic {} vs numeric {}",
            self.which, self.index, self.analytic, self.numeric
        )
    }
}

impl Error for GradCheckError {}

/// Errors produced by [`check_layer`].
#[derive(Debug)]
pub enum CheckError {
    /// The layer itself failed during forward/backward.
    Layer(NnError),
    /// Gradients disagreed beyond tolerance.
    Mismatch(GradCheckError),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Layer(e) => write!(f, "layer failed during gradient check: {e}"),
            CheckError::Mismatch(e) => write!(f, "{e}"),
        }
    }
}

impl Error for CheckError {}

impl From<NnError> for CheckError {
    fn from(e: NnError) -> Self {
        CheckError::Layer(e)
    }
}

/// Maximum number of scalar coordinates probed per gradient buffer.
///
/// Finite differences are O(2 · forward) per coordinate; probing a spread
/// subset keeps the check fast on convolution layers while still touching
/// every region of the buffer.
const MAX_PROBES: usize = 48;

fn probe_indices(len: usize) -> Vec<usize> {
    if len <= MAX_PROBES {
        (0..len).collect()
    } else {
        (0..MAX_PROBES).map(|i| i * len / MAX_PROBES).collect()
    }
}

/// The values and gradient of a trainable `layer`'s weights (`t = 0`) or
/// bias (`t = 1`).
fn tensor(layer: &mut dyn Layer, t: usize) -> (&mut [f32], &[f32]) {
    let block = layer
        .params_mut()
        .expect("only trainable layers are probed");
    if t == 0 {
        (block.weights.data_mut(), block.grad_weights.data())
    } else {
        (block.bias.data_mut(), block.grad_bias.data())
    }
}

fn relative_error(a: f32, n: f32) -> f32 {
    (a - n).abs() / 1.0f32.max(a.abs()).max(n.abs())
}

/// Checks a layer's analytic gradients against central finite differences.
///
/// The scalar objective is `L = Σᵢ cᵢ · forward(x)ᵢ` for a fixed,
/// non-uniform weighting `c`, which exercises every output coordinate with a
/// distinct sensitivity. The weight and bias gradients (when the layer has
/// parameters) and the input gradient are verified on a spread subset of
/// coordinates; a probed parameter is perturbed in place in the layer's
/// [`crate::ParamBlock`] and restored afterwards.
///
/// # Errors
///
/// Returns [`CheckError::Mismatch`] when the relative error at any probed
/// coordinate exceeds `tol`, or [`CheckError::Layer`] if the layer rejects
/// its input.
pub fn check_layer(mut layer: Box<dyn Layer>, input: &Tensor, tol: f32) -> Result<(), CheckError> {
    let mut out = Tensor::default();
    layer.forward(input, &mut out)?;
    // Fixed non-uniform weights, deterministic across runs.
    let c = Tensor::from_fn(out.dims().to_vec(), |i| 0.1 + 0.25 * ((i % 7) as f32 - 3.0));

    if let Some(block) = layer.params_mut() {
        block.zero_grads();
    }
    let mut analytic_dx = Tensor::default();
    layer.backward(&c, &mut analytic_dx)?;

    let eps = 1e-2f32;
    let mut objective = |layer: &mut Box<dyn Layer>, x: &Tensor| -> Result<f32, NnError> {
        layer.forward(x, &mut out)?;
        Ok(out
            .data()
            .iter()
            .zip(c.data())
            .map(|(&a, &b)| f64::from(a) * f64::from(b))
            .sum::<f64>() as f32)
    };

    // Parameter gradients. Forward passes leave the accumulated gradients
    // as `backward` left them.
    if layer.params().is_some() {
        for (t, which) in ["weights", "bias"].into_iter().enumerate() {
            for i in probe_indices(tensor(layer.as_mut(), t).0.len()) {
                let (values, grads) = tensor(layer.as_mut(), t);
                let (value, analytic) = (values[i], grads[i]);
                tensor(layer.as_mut(), t).0[i] = value + eps;
                let f_plus = objective(&mut layer, input)?;
                tensor(layer.as_mut(), t).0[i] = value - eps;
                let f_minus = objective(&mut layer, input)?;
                tensor(layer.as_mut(), t).0[i] = value;
                let numeric = (f_plus - f_minus) / (2.0 * eps);
                if relative_error(analytic, numeric) > tol {
                    return Err(CheckError::Mismatch(GradCheckError {
                        which,
                        index: i,
                        analytic,
                        numeric,
                    }));
                }
            }
        }
    }

    // Input gradients.
    for i in probe_indices(input.len()) {
        let mut plus = input.clone();
        plus.data_mut()[i] += eps;
        let f_plus = objective(&mut layer, &plus)?;

        let mut minus = input.clone();
        minus.data_mut()[i] -= eps;
        let f_minus = objective(&mut layer, &minus)?;

        let numeric = (f_plus - f_minus) / (2.0 * eps);
        let analytic = analytic_dx.data()[i];
        if relative_error(analytic, numeric) > tol {
            return Err(CheckError::Mismatch(GradCheckError {
                which: "input",
                index: i,
                analytic,
                numeric,
            }));
        }
    }

    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_indices_cover_small_and_large() {
        assert_eq!(probe_indices(3), vec![0, 1, 2]);
        let big = probe_indices(10_000);
        assert_eq!(big.len(), MAX_PROBES);
        assert_eq!(big[0], 0);
        assert!(big.windows(2).all(|w| w[0] < w[1]));
        assert!(*big.last().unwrap() < 10_000);
    }

    #[test]
    fn relative_error_behaviour() {
        assert_eq!(relative_error(1.0, 1.0), 0.0);
        assert!(relative_error(100.0, 101.0) < 0.02);
        assert!(relative_error(0.0, 0.5) > 0.4);
    }

    #[test]
    fn display_of_mismatch_mentions_indices() {
        let e = GradCheckError {
            which: "input",
            index: 7,
            analytic: 1.0,
            numeric: 2.0,
        };
        let s = e.to_string();
        assert!(s.contains("input") && s.contains('7'));
    }
}
