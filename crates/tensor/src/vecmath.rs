//! Flat-vector numeric helpers.
//!
//! Model updates in federated learning are, at the transport level, flat
//! `f32` vectors (one per layer). The ∇Sim attack of the paper scores
//! participants by **cosine similarity** between their update and reference
//! directions, and the robustness analysis (Fig. 9) counts neighbours within
//! a **Euclidean** radius. Those primitives live here so that the attack,
//! the proxy and the benches all share one audited implementation.
//!
//! All functions operate on slices and make no allocation unless the result
//! is a vector.

use mixnn_cpu::Tier;

/// Dot product of two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length (programming error on a hot path).
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b.iter()).map(|(&x, &y)| x * y).sum()
}

/// Euclidean (L2) norm.
pub fn norm(a: &[f32]) -> f32 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn euclidean_distance(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "euclidean_distance: length mismatch");
    a.iter()
        .zip(b.iter())
        .map(|(&x, &y)| {
            let d = x - y;
            d * d
        })
        .sum::<f32>()
        .sqrt()
}

/// Cosine similarity between two equal-length slices.
///
/// Returns `0.0` when either vector has zero norm: a zero update carries no
/// directional information, and treating it as orthogonal keeps ∇Sim's
/// argmax well-defined instead of propagating NaN.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn cosine_similarity(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity: length mismatch");
    let na = norm(a);
    let nb = norm(b);
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    (dot(a, b) / (na * nb)).clamp(-1.0, 1.0)
}

/// Scales a slice in place by `alpha`.
pub fn scale(alpha: f32, x: &mut [f32]) {
    for v in x.iter_mut() {
        *v *= alpha;
    }
}

/// Columns per tile of [`mean_into`]: the kernel's scratch is four stack
/// arrays of this length, independent of the layer size.
pub const MEAN_TILE: usize = 256;

/// Element-wise mean of a non-empty set of equal-length vectors.
///
/// This is exactly the FedAvg aggregation function `Agr` of the paper
/// (Section 4.2): the column-wise mean over participant updates, computed
/// by [`mean_into`], so the result is bit-for-bit invariant under
/// per-column permutations of its inputs — the utility-equivalence theorem.
///
/// Returns `None` if `vectors` is empty or the lengths disagree.
pub fn mean_of(vectors: &[&[f32]]) -> Option<Vec<f32>> {
    let first = vectors.first()?;
    let len = first.len();
    if vectors.iter().any(|v| v.len() != len) {
        return None;
    }
    let mut out = vec![0.0f32; len];
    mean_into(vectors.iter().copied(), &mut out);
    Some(out)
}

/// Reproducible column mean: `out[j]` becomes the mean of `row[j]` over
/// `rows`, as a pure function of the column's *multiset* of values — the
/// same bits for every order of the rows.
///
/// Plain floating-point summation rounds differently in different orders.
/// Here each column is pre-rounded onto a grid on which addition is exact
/// (the binned summation of Demmel–Nguyen / ReproBLAS, with one bin). Per
/// tile of [`MEAN_TILE`] columns, two row-major passes over `C = rows.len()`
/// rows:
///
/// 1. `m = max |v|` (exact and commutative). With `E = floor(log2 m)`,
///    clamped to −126 for zero and subnormal columns, and
///    `cl = max(ceil(log2 C), 2)`, the grid is `g = 2^(E+1+cl−53)` and the
///    rounding constant is `K = 1.5 · 2^52 · g`.
/// 2. `S += (f64(v) + K) − K`. Since `|v| < 2^(E+1) ≤ 2^51 · g`, the sum
///    `v + K` lies in the binade of `K`, whose ulp is `g`, so the addend is
///    `v` rounded to a multiple of `g` — a function of `v`, `E` and `C`
///    only. Every partial sum is then a multiple of `g` of magnitude at
///    most `C · 2^(E+1) ≤ 2^53 · g`, which f64 represents exactly: no
///    addition rounds, so no order can matter.
///
/// The result is `(S / C) as f32`. `S` is within `C · g/2` of the exact
/// sum, so the mean is within `g/2` (at most `2^-43 · m` for `C ≤ 1024`)
/// of the exact mean before the final rounding to f32 (half an f32 ulp,
/// plus the f64 rounding of the division). That makes the result
/// *reproducible*, not *correctly rounded*: when the exact mean sits within
/// `g/2` of an f32 rounding boundary the neighbouring f32 may be returned.
/// Values no more than `29 − cl` binades below `m` are already on the grid
/// and enter the sum unrounded (for `C > 2^29` the grid is coarser than f32
/// and even the largest values are rounded).
///
/// Non-finite inputs follow from the same arithmetic and are equally
/// order-independent: a column holding a NaN, or both `+∞` and `−∞`, yields
/// the canonical quiet NaN (`0x7fc0_0000`, whatever the input payloads);
/// otherwise an infinity yields that infinity. A column of zeros yields
/// `−0.0` only if every entry is `−0.0` (as IEEE addition would), so the
/// mean of a single row is that row bit for bit, NaN payloads aside.
///
/// The columns are independent, each seeing its operations in the same
/// order whatever the vector width, so the tiled loops below are also
/// compiled for the [`Tier::Avx512`] rung and run there when the CPU
/// reaches it (the module's [`TIERS`]): the same bits, more columns per
/// instruction.
///
/// # Panics
///
/// Panics if `rows` is empty or a row's length differs from `out.len()`.
pub fn mean_into<'a, I>(rows: I, out: &mut [f32])
where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    mean_into_on(Tier::best(), rows, out);
}

/// The rungs with a [`mean_into`] kernel, scalar first. Not an option:
/// the mean runs [`Tier::best`]; the tests run each rung the host reaches.
#[doc(hidden)]
pub const TIERS: &[Tier] = &[Tier::Scalar, Tier::Avx512];

/// [`mean_into`] on `tier`: the same bits. Panics as it does, and if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn mean_into_on<'a, I>(tier: Tier, rows: I, out: &mut [f32])
where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 mean selected on a CPU without it"
        );
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the only
        // feature `mean_avx512` enables; its body is `mean_tiles`, safe
        // code.
        return unsafe { mean_avx512(rows, out) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    mean_tiles(rows, out);
}

/// [`mean_tiles`] compiled for AVX-512 F.
///
/// # Safety
///
/// Requires AVX-512 F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn mean_avx512<'a, I>(rows: I, out: &mut [f32])
where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    mean_tiles(rows, out);
}

/// The body of [`mean_into`], inlined into each rung's instantiation.
#[inline(always)]
fn mean_tiles<'a, I>(rows: I, out: &mut [f32])
where
    I: ExactSizeIterator<Item = &'a [f32]> + Clone,
{
    const SIGN: u32 = 0x8000_0000;
    const QUIET_NAN: f32 = f32::from_bits(0x7fc0_0000);
    let count = rows.len();
    assert!(count > 0, "mean_into: no rows");
    assert!(
        rows.clone().all(|row| row.len() == out.len()),
        "mean_into: length mismatch"
    );
    let cl = (usize::BITS - (count - 1).leading_zeros()).max(2);
    let divisor = count as f64;

    let mut start = 0;
    for out_tile in out.chunks_mut(MEAN_TILE) {
        let width = out_tile.len();
        let end = start + width;

        // Pass 1: max |v| per column (a NaN never wins the comparison, so
        // the maximum is over the other entries), and the AND of the bit
        // patterns, which keeps the sign bit only if every entry has it.
        let mut amax = [0.0f32; MEAN_TILE];
        let mut all_bits = [u32::MAX; MEAN_TILE];
        for row in rows.clone() {
            let chunk = &row[start..end];
            for ((m, b), &v) in amax[..width]
                .iter_mut()
                .zip(&mut all_bits[..width])
                .zip(chunk)
            {
                let a = f32::from_bits(v.to_bits() & !SIGN);
                *m = if a > *m { a } else { *m };
                *b &= v.to_bits();
            }
        }

        // K = 1.5 · 2^(E+cl), assembled from the biased exponent of the
        // maximum (at least 1, i.e. E ≥ −126; 255 for an infinity, which
        // still gives a finite K).
        let mut k = [0.0f64; MEAN_TILE];
        for (k, m) in k[..width].iter_mut().zip(&amax[..width]) {
            let biased = (m.to_bits() >> 23).max(1);
            *k = f64::from_bits((u64::from(biased + cl + 896) << 52) | (1 << 51));
        }

        // Pass 2: exact accumulation of the grid-rounded values.
        let mut acc = [0.0f64; MEAN_TILE];
        for row in rows.clone() {
            let chunk = &row[start..end];
            for ((s, &k), &v) in acc[..width].iter_mut().zip(&k[..width]).zip(chunk) {
                *s += (f64::from(v) + k) - k;
            }
        }

        for (((o, &s), &m), &b) in out_tile
            .iter_mut()
            .zip(&acc[..width])
            .zip(&amax[..width])
            .zip(&all_bits[..width])
        {
            let mean = (s / divisor) as f32;
            *o = if mean.is_nan() {
                QUIET_NAN
            } else if m == 0.0 {
                f32::from_bits(b & SIGN)
            } else {
                mean
            };
        }
        start = end;
    }
}

/// Index of the maximum element; ties resolve to the first maximal index.
///
/// # Panics
///
/// Panics if the slice is empty.
pub fn argmax(a: &[f32]) -> usize {
    assert!(!a.is_empty(), "argmax of empty slice");
    let mut best = 0;
    let mut best_v = a[0];
    for (i, &v) in a.iter().enumerate().skip(1) {
        if v > best_v {
            best = i;
            best_v = v;
        }
    }
    best
}

/// Numerically stable softmax of a slice: [`softmax_into`] into a new
/// vector.
pub fn softmax(a: &[f32]) -> Vec<f32> {
    let mut out = vec![0.0; a.len()];
    softmax_into(a, &mut out);
    out
}

/// Numerically stable softmax of `logits`, written into `out`.
///
/// Subtracts the maximum before exponentiating. Non-finite logits are not
/// hidden:
///
/// * any NaN makes every output NaN;
/// * otherwise, +∞ logits share the mass equally and the rest get 0;
/// * an all-`-inf` input yields a uniform distribution.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn softmax_into(logits: &[f32], out: &mut [f32]) {
    assert_eq!(logits.len(), out.len(), "softmax_into: length mismatch");
    let mut max = f32::NEG_INFINITY;
    let mut nan = false;
    for &v in logits {
        max = max.max(v);
        nan |= v.is_nan();
    }
    if nan {
        out.fill(f32::NAN);
        return;
    }
    if max == f32::INFINITY {
        let share = 1.0 / logits.iter().filter(|&&v| v == max).count() as f32;
        for (o, &v) in out.iter_mut().zip(logits) {
            *o = if v == max { share } else { 0.0 };
        }
        return;
    }
    if max == f32::NEG_INFINITY {
        out.fill(1.0 / logits.len() as f32);
        return;
    }
    // With a finite maximum every exponential is finite and their sum is
    // at least 1.
    for (o, &v) in out.iter_mut().zip(logits) {
        *o = (v - max).exp();
    }
    let sum: f32 = out.iter().sum();
    for o in out {
        *o /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1., 2., 3.], &[4., 5., 6.]), 32.0);
        assert_eq!(norm(&[3., 4.]), 5.0);
    }

    #[test]
    fn euclidean_distance_basics() {
        assert_eq!(euclidean_distance(&[0., 0.], &[3., 4.]), 5.0);
        assert_eq!(euclidean_distance(&[1., 1.], &[1., 1.]), 0.0);
    }

    #[test]
    fn cosine_parallel_orthogonal_antiparallel() {
        assert!((cosine_similarity(&[1., 0.], &[2., 0.]) - 1.0).abs() < 1e-6);
        assert!(cosine_similarity(&[1., 0.], &[0., 1.]).abs() < 1e-6);
        assert!((cosine_similarity(&[1., 0.], &[-3., 0.]) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_vector_is_zero() {
        assert_eq!(cosine_similarity(&[0., 0.], &[1., 2.]), 0.0);
    }

    #[test]
    fn scale_in_place() {
        let mut y = vec![3., 5., 7.];
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.5, 2.5, 3.5]);
    }

    #[test]
    fn mean_of_vectors() {
        let a = [1.0f32, 2.0];
        let b = [3.0f32, 6.0];
        let m = mean_of(&[&a, &b]).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
        assert!(mean_of(&[]).is_none());
        let c = [1.0f32];
        assert!(mean_of(&[&a, &c]).is_none());
    }

    #[test]
    fn mean_is_permutation_invariant() {
        // The heart of the paper's utility-equivalence argument.
        let vs: Vec<Vec<f32>> = vec![vec![1., 5.], vec![2., 6.], vec![3., 7.]];
        let refs: Vec<&[f32]> = vs.iter().map(|v| v.as_slice()).collect();
        let permuted: Vec<&[f32]> = vec![&vs[2], &vs[0], &vs[1]];
        assert_eq!(mean_of(&refs), mean_of(&permuted));
    }

    #[test]
    fn argmax_basics() {
        assert_eq!(argmax(&[1., 3., 2.]), 1);
        assert_eq!(argmax(&[5., 5.]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_orders() {
        let s = softmax(&[1.0, 2.0, 3.0]);
        let sum: f32 = s.iter().sum();
        assert!((sum - 1.0).abs() < 1e-6);
        assert!(s[2] > s[1] && s[1] > s[0]);
    }

    #[test]
    fn softmax_is_stable_for_large_inputs() {
        let s = softmax(&[1000.0, 1000.0]);
        assert!((s[0] - 0.5).abs() < 1e-6);
        assert!(s.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn softmax_of_empty_is_empty() {
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_does_not_hide_non_finite_logits() {
        assert_eq!(softmax(&[f32::INFINITY, 1.0, 2.0]), [1.0, 0.0, 0.0]);
        let inf = f32::INFINITY;
        assert_eq!(softmax(&[inf, f32::NEG_INFINITY, inf]), [0.5, 0.0, 0.5]);
        assert!(softmax(&[0.0, f32::NAN, 1.0]).iter().all(|v| v.is_nan()));
        assert_eq!(softmax(&[f32::NEG_INFINITY; 4]), [0.25; 4]);
    }
}

/// Property battery for the reproducible column mean ([`mean_into`]).
#[cfg(test)]
mod mean_tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{rngs::StdRng, seq::SliceRandom, Rng, SeedableRng};

    /// Update counts the battery sweeps: the `cl` floor (1–4), powers of
    /// two and their neighbours, and one past `2^10`.
    const COUNTS: [usize; 10] = [1, 2, 3, 4, 5, 8, 64, 256, 1000, 1025];
    const QUIET_NAN_BITS: u32 = 0x7fc0_0000;

    /// The algorithm `ModelParams::mean` shipped before the streaming
    /// kernel, kept as the reference: gather each column, sort it into
    /// `total_cmp` order, sum in f64. (The fold starts from IEEE's additive
    /// identity −0.0 so an all-`−0.0` column keeps its sign, and the sum is
    /// divided by `C` as the kernel does.)
    fn mean_sorted_reference(rows: &[Vec<f32>]) -> Vec<f32> {
        let mut column = vec![0.0f32; rows.len()];
        (0..rows[0].len())
            .map(|j| {
                for (slot, row) in column.iter_mut().zip(rows) {
                    *slot = row[j];
                }
                column.sort_unstable_by(f32::total_cmp);
                let sum = column.iter().fold(-0.0f64, |a, &v| a + f64::from(v));
                (sum / rows.len() as f64) as f32
            })
            .collect()
    }

    /// `cl = max(⌈log2 C⌉, 2)`, derived apart from the kernel.
    fn cl(count: usize) -> i32 {
        (count.next_power_of_two().trailing_zeros() as i32).max(2)
    }

    fn mean_rows(rows: &[Vec<f32>]) -> Vec<f32> {
        let refs: Vec<&[f32]> = rows.iter().map(Vec::as_slice).collect();
        mean_of(&refs).expect("non-empty, equal lengths")
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    fn rows_from_columns(columns: &[Vec<f32>]) -> Vec<Vec<f32>> {
        (0..columns[0].len())
            .map(|r| columns.iter().map(|c| c[r]).collect())
            .collect()
    }

    fn sign(rng: &mut StdRng) -> f32 {
        if rng.gen::<bool>() {
            1.0
        } else {
            -1.0
        }
    }

    /// One finite adversarial value: any bit pattern, a magnitude
    /// log-uniform over 1e-38…1e38, a subnormal, or a signed zero.
    fn adversarial(rng: &mut StdRng) -> f32 {
        match rng.gen_range(0..4u32) {
            0 => loop {
                let v = f32::from_bits(rng.gen::<u32>());
                if v.is_finite() {
                    break v;
                }
            },
            1 => sign(rng) * 10f32.powf(rng.gen_range(-38.0f32..38.0)),
            2 => sign(rng) * f32::from_bits(rng.gen_range(1..0x0080_0000u32)),
            _ => sign(rng) * 0.0,
        }
    }

    /// A finite column of `count` entries: unrelated adversarial values,
    /// heavy cancellation (`x, −x` pairs around a tiny residue), saturation
    /// (one sign, the top of one binade, so the partial sums reach the
    /// `2^53 · g` ceiling, plus a few values off the grid by quarters of
    /// `g`), all subnormal, or all zero.
    fn finite_column(rng: &mut StdRng, count: usize) -> Vec<f32> {
        let mut column: Vec<f32> = match rng.gen_range(0..5u32) {
            0 | 1 => (0..count).map(|_| adversarial(rng)).collect(),
            4 => {
                let cl = cl(count);
                let e = rng.gen_range(-80..=127i32);
                let top = sign(rng) * f32::from_bits((((e + 127) as u32) << 23) | 0x007f_ffff);
                let quarter_g = 2f32.powi(e + cl - 54);
                let small = (count - 1).min(4);
                let mut c = vec![top; count - small];
                c.extend(
                    (0..small).map(|_| sign(rng) * rng.gen_range(1..64u32) as f32 * quarter_g),
                );
                c
            }
            2 => {
                let mut c = Vec::with_capacity(count);
                while c.len() + 2 <= count {
                    let x = adversarial(rng);
                    c.extend([x, -x]);
                }
                c.resize(count, 10f32.powf(rng.gen_range(-38.0f32..0.0)));
                c
            }
            _ => {
                let denormal = rng.gen::<bool>();
                (0..count)
                    .map(|_| {
                        let magnitude = if denormal {
                            rng.gen_range(1..0x0080_0000u32)
                        } else {
                            0
                        };
                        sign(rng) * f32::from_bits(magnitude)
                    })
                    .collect()
            }
        };
        column.shuffle(rng);
        column
    }

    /// A column whose values span at most `29 − cl` binades (zeros aside),
    /// so neither the kernel's grid nor the sorted f64 sum rounds anything.
    fn narrow_column(rng: &mut StdRng, count: usize) -> Vec<f32> {
        let cl = cl(count);
        let top = rng.gen_range(-126 + 29..=127i32);
        (0..count)
            .map(|_| {
                if rng.gen_range(0..8u32) == 0 {
                    return sign(rng) * 0.0;
                }
                let exponent = top - rng.gen_range(0..=29 - cl);
                let mantissa = rng.gen_range(0..0x0080_0000u32);
                sign(rng) * f32::from_bits((((exponent + 127) as u32) << 23) | mantissa)
            })
            .collect()
    }

    /// Fewer columns for the big counts keeps the debug-profile run short.
    fn columns_for(count: usize) -> usize {
        (2048 / count).clamp(2, 24)
    }

    /// Shewchuk's grow-expansion: adds `x` to a non-overlapping expansion
    /// exactly (the partials' sum is the exact real sum of everything
    /// added so far).
    fn grow(partials: &mut Vec<f64>, mut x: f64) {
        let mut kept = 0;
        for j in 0..partials.len() {
            let mut y = partials[j];
            if x.abs() < y.abs() {
                std::mem::swap(&mut x, &mut y);
            }
            let hi = x + y;
            let lo = y - (hi - x);
            if lo != 0.0 {
                partials[kept] = lo;
                kept += 1;
            }
            x = hi;
        }
        partials.truncate(kept);
        partials.push(x);
    }

    /// Sign of an expansion's exact sum: that of its largest non-zero
    /// partial.
    fn expansion_sign(partials: &[f64]) -> f64 {
        partials
            .iter()
            .rev()
            .find(|&&p| p != 0.0)
            .map_or(0.0, |p| p.signum())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// (i) Bitwise invariance under an independent permutation of every
        /// column — what the proxy's per-layer mixing does to the round —
        /// on adversarial columns, non-finite entries included.
        #[test]
        fn permutation_invariant_bit_for_bit(seed in proptest::num::u64::ANY) {
            let mut rng = StdRng::seed_from_u64(seed);
            for count in COUNTS {
                let mut columns: Vec<Vec<f32>> = (0..columns_for(count))
                    .map(|_| finite_column(&mut rng, count))
                    .collect();
                // One column of raw bit patterns: NaNs and infinities.
                columns.push((0..count).map(|_| f32::from_bits(rng.gen::<u32>())).collect());
                let expected = bits(&mean_rows(&rows_from_columns(&columns)));
                for column in &mut columns {
                    column.shuffle(&mut rng);
                }
                let mixed = bits(&mean_rows(&rows_from_columns(&columns)));
                prop_assert_eq!(&mixed, &expected, "count {}", count);
            }
        }

        /// (ii) `|mean − exact| ≤ g/2 + (½ + 2^-29)·ulp_f32(mean)`: the grid
        /// rounding, the final f32 rounding and the f64 rounding of the
        /// division. Checked exactly, scaled by `C`, as the sign of
        /// `C·mean − Σv ∓ C·bound` in expansion arithmetic (every term is an
        /// exact f64).
        #[test]
        fn within_the_documented_error_bound(seed in proptest::num::u64::ANY) {
            let mut rng = StdRng::seed_from_u64(seed);
            for count in COUNTS {
                let columns: Vec<Vec<f32>> = (0..columns_for(count))
                    .map(|_| finite_column(&mut rng, count))
                    .collect();
                let means = mean_rows(&rows_from_columns(&columns));
                for (column, &mean) in columns.iter().zip(&means) {
                    prop_assert!(mean.is_finite());
                    let amax = column.iter().fold(0.0f32, |m, v| m.max(v.abs()));
                    let e = (amax.to_bits() >> 23).max(1) as i32 - 127;
                    let cl = cl(count);
                    let half_g = 2f64.powi(e + cl - 53);
                    let exponent_bits = mean.to_bits() & 0x7f80_0000;
                    let ulp = if exponent_bits == 0 {
                        2f64.powi(-149)
                    } else {
                        f64::from(f32::from_bits(exponent_bits)) * 2f64.powi(-23)
                    };
                    let c = count as f64;
                    let mut error = vec![c * f64::from(mean)];
                    for &v in column {
                        grow(&mut error, -f64::from(v));
                    }
                    let bound = [c * half_g, c * ulp / 2.0, c * ulp * 2f64.powi(-29)];
                    let (mut low, mut high) = (error.clone(), error);
                    for term in bound {
                        grow(&mut low, -term);
                        grow(&mut high, term);
                    }
                    prop_assert!(
                        expansion_sign(&low) <= 0.0 && expansion_sign(&high) >= 0.0,
                        "count {} mean {:e} column {:?}", count, mean, column
                    );
                }
            }
        }

        /// (iii) Where the column's exponent span lets both algorithms sum
        /// exactly, the kernel equals the sorted reference bit for bit.
        #[test]
        fn equals_sorted_reference_when_both_are_exact(seed in proptest::num::u64::ANY) {
            let mut rng = StdRng::seed_from_u64(seed);
            for count in COUNTS {
                let columns: Vec<Vec<f32>> = (0..columns_for(count))
                    .map(|_| narrow_column(&mut rng, count))
                    .collect();
                let rows = rows_from_columns(&columns);
                prop_assert_eq!(
                    bits(&mean_rows(&rows)),
                    bits(&mean_sorted_reference(&rows)),
                    "count {}", count
                );
            }
        }

        /// (iv) Tiling is invisible: at layer lengths around the tile size
        /// every column of the result equals that column averaged alone.
        #[test]
        fn tile_boundaries_do_not_leak(seed in proptest::num::u64::ANY, count in 1usize..6) {
            let mut rng = StdRng::seed_from_u64(seed);
            for len in [0, 1, MEAN_TILE - 1, MEAN_TILE, MEAN_TILE + 1, 2 * MEAN_TILE + 3] {
                let rows: Vec<Vec<f32>> = (0..count)
                    .map(|_| (0..len).map(|_| adversarial(&mut rng)).collect())
                    .collect();
                let whole = mean_rows(&rows);
                prop_assert_eq!(whole.len(), len);
                for (j, &mean) in whole.iter().enumerate() {
                    let alone: Vec<Vec<f32>> = rows.iter().map(|r| vec![r[j]]).collect();
                    prop_assert_eq!(mean.to_bits(), mean_rows(&alone)[0].to_bits());
                }
            }
        }

        /// (v) The mean of `C` copies of `x` is `x` — in particular `C = 1`
        /// returns its input — for every bit pattern but the NaNs, which
        /// all map to the canonical one.
        #[test]
        fn mean_of_copies_is_the_value(x in proptest::num::f32::ANY) {
            let expected = if x.is_nan() { QUIET_NAN_BITS } else { x.to_bits() };
            for count in COUNTS {
                let rows = vec![vec![x]; count];
                prop_assert_eq!(mean_rows(&rows)[0].to_bits(), expected, "count {}", count);
            }
        }
    }

    /// Every order of a small column, via Heap's algorithm.
    fn for_each_permutation(column: &mut Vec<f32>, k: usize, visit: &mut impl FnMut(&[f32])) {
        if k <= 1 {
            visit(column);
            return;
        }
        for i in 0..k {
            for_each_permutation(column, k - 1, visit);
            column.swap(if k.is_multiple_of(2) { i } else { 0 }, k - 1);
        }
    }

    fn assert_every_order(column: &[f32], expected_bits: u32) {
        let mut column = column.to_vec();
        let k = column.len();
        for_each_permutation(&mut column, k, &mut |order| {
            let rows: Vec<Vec<f32>> = order.iter().map(|&v| vec![v]).collect();
            assert_eq!(
                mean_rows(&rows)[0].to_bits(),
                expected_bits,
                "order {order:?}"
            );
        });
    }

    #[test]
    fn non_finite_policy_is_order_independent() {
        let (inf, nan) = (f32::INFINITY, f32::NAN);
        let payload_nan = f32::from_bits(0xffc1_2345);
        // A NaN anywhere, whatever its sign and payload, or both
        // infinities: the canonical quiet NaN.
        assert_every_order(&[1.0, nan, -2.0, 3.0], QUIET_NAN_BITS);
        assert_every_order(&[payload_nan, 0.0, 1e30], QUIET_NAN_BITS);
        assert_every_order(&[nan, inf, -inf, 1.0], QUIET_NAN_BITS);
        assert_every_order(&[inf, -inf, 1.0, -1.0], QUIET_NAN_BITS);
        assert_every_order(&[payload_nan], QUIET_NAN_BITS);
        // Otherwise an infinity wins.
        assert_every_order(&[inf, 1.0, -3.0e38, inf], inf.to_bits());
        assert_every_order(&[-inf, f32::MAX, 0.0, 1e-40], (-inf).to_bits());
    }

    #[test]
    fn zero_and_subnormal_columns_are_exact() {
        let tiny = |n: u32| f32::from_bits(n);
        assert_every_order(&[0.0, -0.0, 0.0], 0.0f32.to_bits());
        assert_every_order(&[-0.0, -0.0, -0.0], (-0.0f32).to_bits());
        assert_every_order(&[tiny(1), tiny(2), tiny(3)], tiny(2).to_bits());
        assert_every_order(&[tiny(5), -tiny(1), 0.0, 0.0], tiny(1).to_bits());
        assert_every_order(&[tiny(0x7f_ffff), -tiny(0x7f_ffff)], 0.0f32.to_bits());
        // The largest finite value does not overflow on the way.
        for count in COUNTS {
            let rows = vec![vec![f32::MAX, -f32::MAX]; count];
            assert_eq!(mean_rows(&rows), vec![f32::MAX, -f32::MAX]);
        }
    }

    /// One column of `count` values of kind `kind`: a NaN among normals,
    /// a +∞, a −∞, both infinities, −0.0 only, zeros of both signs,
    /// subnormals only, mixed binades, or plain normals.
    fn hostile_column(kind: usize, count: usize, rng: &mut StdRng) -> Vec<f32> {
        let mut column: Vec<f32> = (0..count).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
        let mut plant = |v: f32| {
            let at = rng.gen_range(0..count);
            column[at] = v;
        };
        match kind {
            0 => plant(f32::NAN),
            1 => plant(f32::INFINITY),
            2 => plant(f32::NEG_INFINITY),
            3 => {
                plant(f32::INFINITY);
                plant(f32::NEG_INFINITY);
            }
            4 => column.fill(-0.0),
            5 => column.iter_mut().for_each(|v| *v = v.signum() * 0.0),
            6 => column.iter_mut().for_each(|v| *v *= f32::MIN_POSITIVE),
            7 => column
                .iter_mut()
                .for_each(|v| *v *= 2f32.powi(rng.gen_range(-60..60))),
            _ => {}
        }
        column
    }

    #[test]
    fn every_rung_matches_the_scalar_body_bit_for_bit() {
        let tiers = Tier::runnable(TIERS);
        println!("mean tiers exercised: {tiers:?}");
        let mut rng = StdRng::seed_from_u64(48);
        // Two whole tiles and a short one.
        let width = 2 * MEAN_TILE + 37;
        for count in [1, 2, 3, 8, 256, 1024] {
            let columns: Vec<Vec<f32>> = (0..width)
                .map(|j| hostile_column(j % 9, count, &mut rng))
                .collect();
            let rows = rows_from_columns(&columns);
            let refs = || rows.iter().map(Vec::as_slice);
            let mut want = vec![f32::NAN; width];
            mean_into_on(Tier::Scalar, refs(), &mut want);
            for &tier in &tiers {
                let mut got = vec![f32::NAN; width];
                mean_into_on(tier, refs(), &mut got);
                assert_eq!(bits(&got), bits(&want), "{tier:?}, {count} rows");
            }
        }
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mean_into_rejects_ragged_rows() {
        let (a, b) = ([1.0f32, 2.0], [1.0f32]);
        let rows: [&[f32]; 2] = [&a, &b];
        mean_into(rows.iter().copied(), &mut [0.0; 2]);
    }
}
