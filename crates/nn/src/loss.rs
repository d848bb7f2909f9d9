//! Loss functions and evaluation metrics.

use crate::NnError;
use mixnn_tensor::{vecmath, Tensor};

/// Result of evaluating a model on a labelled batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Fraction of correctly classified rows — the paper's *Model Accuracy*
    /// metric (§6.1.2).
    pub accuracy: f32,
}

/// Softmax followed by cross-entropy, fused for numerical stability.
///
/// `loss_and_grad` returns both the scalar loss and the gradient with
/// respect to the logits (`(softmax(z) − onehot(y)) / batch`), which is the
/// textbook fused derivative. Non-finite logits follow
/// [`vecmath::softmax_into`]: a row with a NaN logit has a NaN loss and
/// gradient, so a diverged model does not read as chance; +∞ logits share
/// the row's probability mass.
///
/// # Example
///
/// ```
/// use mixnn_nn::SoftmaxCrossEntropy;
/// use mixnn_tensor::Tensor;
///
/// # fn main() -> Result<(), mixnn_nn::NnError> {
/// let loss = SoftmaxCrossEntropy::new();
/// let logits = Tensor::from_vec(vec![1, 3], vec![10.0, 0.0, 0.0])?;
/// let (l, _grad) = loss.loss_and_grad(&logits, &[0])?;
/// assert!(l < 0.01); // confident and correct → tiny loss
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct SoftmaxCrossEntropy;

impl SoftmaxCrossEntropy {
    /// Creates the loss function.
    pub fn new() -> Self {
        SoftmaxCrossEntropy
    }

    fn validate(&self, logits: &Tensor, labels: &[usize]) -> Result<(usize, usize), NnError> {
        if logits.rank() != 2 {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".to_string(),
                expected: "[batch, classes]".to_string(),
                actual: logits.dims().to_vec(),
            });
        }
        let (batch, classes) = (logits.dims()[0], logits.dims()[1]);
        if batch == 0 {
            return Err(NnError::BadInput {
                layer: "softmax_cross_entropy".to_string(),
                expected: "[batch >= 1, classes]".to_string(),
                actual: logits.dims().to_vec(),
            });
        }
        if labels.len() != batch {
            return Err(NnError::LabelCountMismatch {
                expected: batch,
                actual: labels.len(),
            });
        }
        if let Some(&bad) = labels.iter().find(|&&l| l >= classes) {
            return Err(NnError::LabelOutOfRange {
                label: bad,
                classes,
            });
        }
        Ok((batch, classes))
    }

    /// Computes the mean cross-entropy loss and the gradient w.r.t. the
    /// logits.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BadInput`] for an empty batch or logits that are
    /// not `[batch, classes]`, and [`NnError::LabelCountMismatch`] or
    /// [`NnError::LabelOutOfRange`] on malformed labels.
    pub fn loss_and_grad(
        &self,
        logits: &Tensor,
        labels: &[usize],
    ) -> Result<(f32, Tensor), NnError> {
        let mut grad = Tensor::default();
        let loss = self.loss_and_grad_into(logits, labels, &mut grad)?;
        Ok((loss, grad))
    }

    /// [`SoftmaxCrossEntropy::loss_and_grad`] with the gradient written
    /// into `grad`, which is resized in place and has every element
    /// overwritten; it is left as it was on an error.
    ///
    /// # Errors
    ///
    /// As [`SoftmaxCrossEntropy::loss_and_grad`].
    pub fn loss_and_grad_into(
        &self,
        logits: &Tensor,
        labels: &[usize],
        grad: &mut Tensor,
    ) -> Result<f32, NnError> {
        let (batch, classes) = self.validate(logits, labels)?;
        grad.resize(&[batch, classes]);
        let mut total_loss = 0.0f64;
        for (b, g_row) in grad.data_mut().chunks_exact_mut(classes).enumerate() {
            // The probabilities land in the gradient row, then become it.
            vecmath::softmax_into(logits.row(b), g_row);
            total_loss += -f64::from(clamped(g_row[labels[b]]).ln());
            for (j, g) in g_row.iter_mut().enumerate() {
                *g = (*g - if j == labels[b] { 1.0 } else { 0.0 }) / batch as f32;
            }
        }
        Ok((total_loss / batch as f64) as f32)
    }

    /// Computes loss and accuracy without gradients (evaluation path).
    ///
    /// # Errors
    ///
    /// Same conditions as [`SoftmaxCrossEntropy::loss_and_grad`].
    pub fn evaluate(&self, logits: &Tensor, labels: &[usize]) -> Result<Evaluation, NnError> {
        let (batch, classes) = self.validate(logits, labels)?;
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut probs = vec![0.0; classes];
        for b in 0..batch {
            let row = logits.row(b);
            vecmath::softmax_into(row, &mut probs);
            total_loss += -f64::from(clamped(probs[labels[b]]).ln());
            if vecmath::argmax(row) == labels[b] {
                correct += 1;
            }
        }
        Ok(Evaluation {
            loss: (total_loss / batch as f64) as f32,
            accuracy: correct as f32 / batch as f32,
        })
    }
}

/// A true-class probability floored at 1e-12 before its logarithm, so a
/// confident miss costs about 27.6 rather than +∞; a NaN stays NaN.
fn clamped(p: f32) -> f32 {
    if p.is_nan() {
        p
    } else {
        p.max(1e-12)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confident_correct_prediction_has_low_loss() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1, 2], vec![20.0, -20.0]).unwrap();
        let (l, _) = loss.loss_and_grad(&logits, &[0]).unwrap();
        assert!(l < 1e-6);
    }

    #[test]
    fn uniform_logits_give_log_classes() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(vec![1, 4]);
        let (l, _) = loss.loss_and_grad(&logits, &[2]).unwrap();
        assert!((l - 4.0f32.ln()).abs() < 1e-5);
    }

    #[test]
    fn gradient_sums_to_zero_per_row() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2, 3], vec![1., 2., 3., -1., 0., 1.]).unwrap();
        let (_, grad) = loss.loss_and_grad(&logits, &[0, 2]).unwrap();
        for b in 0..2 {
            let s: f32 = grad.row(b).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2, 3], vec![0.3, -0.2, 0.9, 1.1, 0.0, -0.5]).unwrap();
        let labels = [2usize, 0];
        let (_, grad) = loss.loss_and_grad(&logits, &labels).unwrap();
        let eps = 1e-3;
        for i in 0..logits.len() {
            let mut plus = logits.clone();
            plus.data_mut()[i] += eps;
            let (lp, _) = loss.loss_and_grad(&plus, &labels).unwrap();
            let mut minus = logits.clone();
            minus.data_mut()[i] -= eps;
            let (lm, _) = loss.loss_and_grad(&minus, &labels).unwrap();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (grad.data()[i] - numeric).abs() < 1e-3,
                "index {i}: {} vs {}",
                grad.data()[i],
                numeric
            );
        }
    }

    #[test]
    fn evaluate_counts_accuracy() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![3, 2], vec![2.0, 1.0, 0.0, 5.0, 3.0, 1.0]).unwrap();
        let eval = loss.evaluate(&logits, &[0, 1, 1]).unwrap();
        assert!((eval.accuracy - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn an_infinite_logit_takes_the_mass() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![1, 3], vec![f32::INFINITY, 1.0, 2.0]).unwrap();
        let (l, grad) = loss.loss_and_grad(&logits, &[1]).unwrap();
        assert!((l - 1e-12f32.ln().abs()).abs() < 1e-3, "loss {l}");
        assert_eq!(grad.data(), &[1.0, -1.0, 0.0]);
        let (l, grad) = loss.loss_and_grad(&logits, &[0]).unwrap();
        assert_eq!(l, 0.0);
        assert_eq!(grad.data(), &[0.0, 0.0, 0.0]);
    }

    #[test]
    fn a_nan_logit_makes_its_row_nan() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::from_vec(vec![2, 3], vec![f32::NAN, 1.0, 2.0, 1.0, 2.0, 3.0]).unwrap();
        let (l, grad) = loss.loss_and_grad(&logits, &[1, 2]).unwrap();
        assert!(l.is_nan());
        assert!(grad.row(0).iter().all(|g| g.is_nan()));
        assert!(grad.row(1).iter().all(|g| g.is_finite()));
        let all_nan = Tensor::full(vec![1, 3], f32::NAN);
        assert!(loss.loss_and_grad(&all_nan, &[1]).unwrap().0.is_nan());
        assert!(loss.evaluate(&all_nan, &[1]).unwrap().loss.is_nan());
    }

    #[test]
    fn all_negative_infinite_logits_stay_uniform() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::full(vec![1, 4], f32::NEG_INFINITY);
        let (l, grad) = loss.loss_and_grad(&logits, &[2]).unwrap();
        assert!((l - 4.0f32.ln()).abs() < 1e-6);
        assert_eq!(grad.data(), &[0.25, 0.25, -0.75, 0.25]);
    }

    #[test]
    fn an_empty_batch_is_bad_input() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(vec![0, 3]);
        assert!(matches!(
            loss.loss_and_grad(&logits, &[]),
            Err(NnError::BadInput { .. })
        ));
        assert!(matches!(
            loss.evaluate(&logits, &[]),
            Err(NnError::BadInput { .. })
        ));
    }

    #[test]
    fn rejects_bad_labels() {
        let loss = SoftmaxCrossEntropy::new();
        let logits = Tensor::zeros(vec![2, 2]);
        assert!(matches!(
            loss.loss_and_grad(&logits, &[0]),
            Err(NnError::LabelCountMismatch { .. })
        ));
        assert!(matches!(
            loss.loss_and_grad(&logits, &[0, 5]),
            Err(NnError::LabelOutOfRange { .. })
        ));
    }
}
