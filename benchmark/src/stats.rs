//! Order statistics the benchmark reports and gates on.

/// The smallest sample — the gating statistic for round time. On a shared
/// 2-vCPU box noise only ever adds time, so the floor repeats where the
/// median does not (see README.md, "Why the floor").
pub fn floor(samples: &[f64]) -> Option<f64> {
    samples.iter().copied().min_by(f64::total_cmp)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (mean of the two middle samples for an even count).
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    match v.len() {
        0 => None,
        n if n % 2 == 1 => Some(v[n / 2]),
        n => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The highest order statistic that still has **exactly ten samples above
/// it**, with the percentile it stands for (`100 · rank / n`). `None` with
/// fewer than eleven samples: no percentile is supported by so few.
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let n = samples.len();
    if n < 11 {
        return None;
    }
    let rank = n - 10; // 1-based rank of the sample with ten above it
    Some((sorted(samples)[rank - 1], 100.0 * rank as f64 / n as f64))
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method) gives them — the
/// spread the acceptance rule is stated in. Needs two samples.
pub fn quartiles(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let cut = |i: usize| {
        // j = i·(n+1) div 4, delta = i·(n+1) mod 4, clamped like CPython.
        let m = n + 1;
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Run-to-run spread as a share of the median: the inter-quartile distance
/// with two or more samples, 0 with one.
pub fn spread_share(samples: &[f64]) -> f64 {
    match (quartiles(samples), median(samples)) {
        (Some((q1, q3)), Some(m)) if m != 0.0 => (q3 - q1) / m.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled deterministically so the helpers must sort.
        (0..n).map(|i| ((i * 7) % n) as f64 + 1.0).collect()
    }

    #[test]
    fn floor_and_median() {
        assert_eq!(floor(&[]), None);
        assert_eq!(floor(&[3.0, 1.5, 2.0]), Some(1.5));
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }

    #[test]
    fn tail_leaves_exactly_ten_samples_beyond() {
        assert_eq!(tail(&ramp(10)), None);
        for n in [11usize, 24, 120] {
            assert_eq!(ramp(n).iter().filter(|&&s| s > n as f64 - 10.0).count(), 10);
            let (value, pct) = tail(&ramp(n)).unwrap();
            assert_eq!(value, (n - 10) as f64, "n = {n}");
            assert_eq!(ramp(n).iter().filter(|&&s| s > value).count(), 10);
            assert!((pct - 100.0 * (n - 10) as f64 / n as f64).abs() < 1e-12);
        }
        // 11 samples support only the 9th percentile; 120 the 91.7th.
        assert!((tail(&ramp(11)).unwrap().1 - 9.0909).abs() < 1e-3);
        assert!((tail(&ramp(120)).unwrap().1 - 91.6667).abs() < 1e-3);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
        assert_eq!(quartiles(&[4.0, 1.0, 2.0]), Some((1.0, 4.0)));
        // statistics.quantiles([1, 3], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[1.0, 3.0]), Some((0.5, 3.5)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((spread_share(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(spread_share(&[5.0]), 0.0);
        assert_eq!(spread_share(&[2.0, 2.0, 2.0]), 0.0);
    }
}
