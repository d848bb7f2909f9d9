//! Attack evaluation metrics.

use std::collections::HashMap;

/// Inference accuracy: fraction of predictions matching the ground truth,
/// over the keys present in both maps. Returns `None` when nothing
/// overlaps.
///
/// §6.1.2: "we use the classification accuracy of the sensitive attribute
/// to estimate the success of the attribute inference".
pub fn inference_accuracy(
    predictions: &HashMap<usize, usize>,
    truth: &HashMap<usize, usize>,
) -> Option<f32> {
    let mut total = 0usize;
    let mut correct = 0usize;
    for (id, pred) in predictions {
        if let Some(actual) = truth.get(id) {
            total += 1;
            if pred == actual {
                correct += 1;
            }
        }
    }
    if total == 0 {
        None
    } else {
        Some(correct as f32 / total as f32)
    }
}

/// The random-guess baseline against which leakage is judged: `1 /
/// num_classes` for a balanced attribute.
pub fn chance_level(num_classes: usize) -> f32 {
    1.0 / num_classes.max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map(pairs: &[(usize, usize)]) -> HashMap<usize, usize> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn accuracy_counts_overlap_only() {
        let predictions = map(&[(0, 1), (1, 0), (9, 1)]);
        let truth = map(&[(0, 1), (1, 1)]);
        // id 9 has no truth: ignored. 0 correct of... 0→1 correct, 1→0 wrong.
        assert_eq!(inference_accuracy(&predictions, &truth), Some(0.5));
    }

    #[test]
    fn accuracy_none_without_overlap() {
        assert_eq!(inference_accuracy(&map(&[(5, 0)]), &map(&[(6, 0)])), None);
    }

    #[test]
    fn chance_levels_match_paper_figures() {
        // CIFAR10's 3 preference groups → 0.33; gender datasets → 0.5.
        assert!((chance_level(3) - 1.0 / 3.0).abs() < 1e-6);
        assert_eq!(chance_level(2), 0.5);
        assert_eq!(chance_level(0), 1.0);
    }
}
