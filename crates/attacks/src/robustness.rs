//! The §6.4 robustness analysis (Fig. 9).
//!
//! A malicious server could try to undo MixNN by enumerating combinations
//! of the mixed layers to "reconstruct" original updates. The paper's
//! counter-argument is statistical: participants' gradients are so close
//! together that every participant has several *alter egos* within a small
//! Euclidean radius, so pieces are not attributable. Fig. 9 plots the CDF
//! over participants of the number of such close neighbours; `eval fig9`
//! counts them within 1.25 of each other on unit-normalized gradients
//! (cosine ≥ 0.22).

use mixnn_tensor::vecmath;

/// Counts, for every gradient vector, how many *other* vectors lie within
/// `radius` (Euclidean) once every vector is scaled to unit norm.
///
/// Gradients shrink as training converges, so normalization keeps one
/// radius meaningful across rounds. A zero vector stays zero.
///
/// # Panics
///
/// Panics if vectors have inconsistent lengths.
pub fn neighbor_counts(gradients: &[Vec<f32>], radius: f32) -> Vec<usize> {
    let prepared: Vec<Vec<f32>> = gradients
        .iter()
        .map(|g| {
            let n = vecmath::norm(g);
            if n == 0.0 {
                g.clone()
            } else {
                g.iter().map(|v| v / n).collect()
            }
        })
        .collect();
    (0..prepared.len())
        .map(|i| {
            (0..prepared.len())
                .filter(|&j| {
                    j != i && vecmath::euclidean_distance(&prepared[i], &prepared[j]) <= radius
                })
                .count()
        })
        .collect()
}

/// Empirical CDF of integer counts: returns `(value, fraction ≤ value)`
/// pairs in ascending order — the exact series plotted in Fig. 9.
pub fn cdf_of_counts(counts: &[usize]) -> Vec<(usize, f64)> {
    if counts.is_empty() {
        return Vec::new();
    }
    let mut sorted = counts.to_vec();
    sorted.sort_unstable();
    let n = sorted.len() as f64;
    let mut out: Vec<(usize, f64)> = Vec::new();
    for (i, v) in sorted.iter().enumerate() {
        let frac = (i + 1) as f64 / n;
        match out.last_mut() {
            Some((last_v, last_f)) if last_v == v => *last_f = frac,
            _ => out.push((*v, frac)),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbor_counts_basic_geometry() {
        let gradients = vec![
            vec![1.0, 0.0],
            vec![2.0, 0.2], // ≈ 0.1 from #0 on the unit circle
            vec![0.0, 3.0], // > 1.3 from both
        ];
        let counts = neighbor_counts(&gradients, 0.5);
        assert_eq!(counts, vec![1, 1, 0]);
    }

    #[test]
    fn radius_zero_counts_exact_duplicates_only() {
        // [4, 3] has the duplicates' norm but not their direction.
        let gradients = vec![vec![3.0, 4.0], vec![3.0, 4.0], vec![4.0, 3.0]];
        let counts = neighbor_counts(&gradients, 0.0);
        assert_eq!(counts, vec![1, 1, 0]);
    }

    #[test]
    fn normalization_ignores_scale() {
        let gradients = vec![vec![1.0, 0.0], vec![100.0, 0.0]];
        assert_eq!(neighbor_counts(&gradients, 0.5), vec![1, 1]);
    }

    #[test]
    fn zero_vector_survives_normalization() {
        let gradients = vec![vec![0.0, 0.0], vec![0.0, 0.0]];
        let counts = neighbor_counts(&gradients, 0.5);
        assert_eq!(counts, vec![1, 1]);
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_one() {
        let counts = vec![3, 1, 4, 1, 5, 9, 2, 6];
        let cdf = cdf_of_counts(&counts);
        assert!(cdf.windows(2).all(|w| w[0].0 < w[1].0 && w[0].1 <= w[1].1));
        assert!((cdf.last().unwrap().1 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cdf_merges_duplicate_values() {
        let cdf = cdf_of_counts(&[2, 2, 2]);
        assert_eq!(cdf, vec![(2, 1.0)]);
    }

    #[test]
    fn cdf_of_empty_is_empty() {
        assert!(cdf_of_counts(&[]).is_empty());
    }
}
