//! The matrix products on the `Avx512` rung: [`super::matmul_into`],
//! [`super::matmul_tn_into`] and [`super::matmul_nt_into`] with the scalar
//! tier's bits.
//!
//! Each output element still sums its terms in the direct loop's order —
//! one f32 multiply, then one f32 add, `p` ascending, never fused — from
//! the same starting zero. What runs side by side is only ever a set of
//! independent output elements: up to 32 columns of a row (two registers)
//! and, to break the chain of dependent adds each element is, several
//! rows at once — four rows of 32 columns, or eight of 16 or fewer — so
//! eight accumulators are in flight and every loaded right-operand row
//! serves each of those rows.
//!
//! The scalar tier skips a term whose left entry is ±0.0. Adding such a
//! term's product changes nothing when the right entry is finite: the
//! product is ±0.0, and a sum that starts at +0.0 and only receives
//! additions never holds −0.0 under round-to-nearest, so adding ±0.0
//! leaves every value, NaN and ±∞ included, as it was. Only a non-finite
//! right entry would make the product NaN. So a product whose right operand
//! is finite — every training step's — adds every term, and one with a
//! non-finite entry masks a zero left entry's lanes out of the add.

use core::arch::x86_64::*;
use mixnn_cpu::Tier;

/// Columns per register.
const LANES: usize = 16;

/// The left operand of a product: element `(i, p)` at `i·row + p·step`.
#[derive(Clone, Copy)]
pub(super) struct Left<'a> {
    data: &'a [f32],
    row: usize,
    step: usize,
}

impl<'a> Left<'a> {
    /// Row-major `m×k`: `(i, p)` at `i·k + p`.
    pub(super) fn rows(data: &'a [f32], k: usize) -> Self {
        Left {
            data,
            row: k,
            step: 1,
        }
    }

    /// The transpose of row-major `k×m`: `(i, p)` at `p·m + i`.
    pub(super) fn columns(data: &'a [f32], m: usize) -> Self {
        Left {
            data,
            row: 1,
            step: m,
        }
    }
}

/// Where each output element's sum starts, and whether a ±0.0 left entry
/// skips its term.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(super) enum Start {
    /// From +0.0, skipping ±0.0 left entries: `matmul_into`,
    /// `matmul_tn_into`.
    SkippingZeros,
    /// From −0.0, every term: `matmul_nt_into`.
    NegativeZero,
}

/// `out[i][j] = start + Σ_p left(i, p)·right[p][j]` for `i < m`, `j < n`,
/// `p < k` ascending, with the scalar tier's bits.
///
/// # Panics
///
/// Panics unless the CPU reaches [`Tier::Avx512`], or if `left`, `right`
/// or `out` is shorter than the dimensions need.
pub(super) fn product(
    left: Left<'_>,
    right: &[f32],
    m: usize,
    k: usize,
    n: usize,
    start: Start,
    out: &mut [f32],
) {
    assert!(
        Tier::Avx512.available(),
        "AVX-512 product selected on a CPU without it"
    );
    assert!(right.len() >= k * n && out.len() >= m * n);
    if m == 0 || n == 0 {
        return;
    }
    if k > 0 {
        let last = (m - 1) * left.row + (k - 1) * left.step;
        assert!(last < left.data.len());
    }
    // A NaN has every exponent bit set too.
    let finite = right
        .iter()
        .fold(0, |top, v| top.max(v.to_bits() & 0x7fff_ffff))
        < f32::INFINITY.to_bits();
    let masked = start == Start::SkippingZeros && !finite;
    let from = match start {
        Start::SkippingZeros => 0.0,
        Start::NegativeZero => -0.0,
    };
    // SAFETY: the `Avx512` rung just confirmed AVX-512 F, the only feature
    // `product_wide` enables, and every element it reads or writes lies
    // within the lengths just checked.
    unsafe {
        if masked {
            product_wide::<true>(left, right, m, k, n, from, out);
        } else {
            product_wide::<false>(left, right, m, k, n, from, out);
        }
    }
}

/// The first `len` lanes (all of them from [`LANES`] on).
fn lanes(len: usize) -> __mmask16 {
    ((1u32 << len.min(LANES)) - 1) as __mmask16
}

/// # Safety
///
/// Requires AVX-512 F and the lengths [`product`] checks.
#[target_feature(enable = "avx512f")]
unsafe fn product_wide<const MASKED: bool>(
    left: Left<'_>,
    right: &[f32],
    m: usize,
    k: usize,
    n: usize,
    from: f32,
    out: &mut [f32],
) {
    let mut j = 0;
    while j < n {
        let width = (n - j).min(2 * LANES);
        let cols = Columns {
            left,
            right,
            k,
            n,
            from,
            j,
            tail: lanes(width - if width > LANES { LANES } else { 0 }),
        };
        let mut i = 0;
        if width > LANES {
            while m - i >= 4 {
                cols.rows::<4, 2, MASKED>(i, out);
                i += 4;
            }
            while i < m {
                cols.rows::<1, 2, MASKED>(i, out);
                i += 1;
            }
        } else {
            while m - i >= 8 {
                cols.rows::<8, 1, MASKED>(i, out);
                i += 8;
            }
            while i < m {
                cols.rows::<1, 1, MASKED>(i, out);
                i += 1;
            }
        }
        j += width;
    }
}

/// One chunk of up to 32 output columns, `j..`, the last register's
/// lanes cut to `tail`.
struct Columns<'a> {
    left: Left<'a>,
    right: &'a [f32],
    k: usize,
    n: usize,
    from: f32,
    j: usize,
    tail: __mmask16,
}

impl Columns<'_> {
    /// The lanes of register `z` of `Z`.
    #[inline(always)]
    fn mask<const Z: usize>(&self, z: usize) -> __mmask16 {
        if z + 1 == Z {
            self.tail
        } else {
            !0
        }
    }

    /// Rows `i..i + R` of the chunk, `Z` registers each, summed side by
    /// side: every term of every element in the scalar order, a term whose
    /// left entry is ±0.0 masked out of the add when `MASKED`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F, `i + R ≤ m`, and the lengths [`product`]
    /// checks.
    #[inline(always)]
    unsafe fn rows<const R: usize, const Z: usize, const MASKED: bool>(
        &self,
        i: usize,
        out: &mut [f32],
    ) {
        let left = self.left.data.as_ptr();
        let mut acc = [[_mm512_set1_ps(self.from); Z]; R];
        for p in 0..self.k {
            let row = self.right.as_ptr().add(p * self.n + self.j);
            let mut b = [_mm512_setzero_ps(); Z];
            for (z, b) in b.iter_mut().enumerate() {
                *b = _mm512_maskz_loadu_ps(self.mask::<Z>(z), row.add(z * LANES));
            }
            for (r, acc) in acc.iter_mut().enumerate() {
                let at = (i + r) * self.left.row + p * self.left.step;
                let a = _mm512_set1_ps(*left.add(at));
                let on = if MASKED {
                    _mm512_cmp_ps_mask::<_CMP_NEQ_UQ>(a, _mm512_setzero_ps())
                } else {
                    !0
                };
                for (s, &b) in acc.iter_mut().zip(&b) {
                    let term = _mm512_mul_ps(a, b);
                    *s = if MASKED {
                        _mm512_mask_add_ps(*s, on, *s, term)
                    } else {
                        _mm512_add_ps(*s, term)
                    };
                }
            }
        }
        for (r, acc) in acc.iter().enumerate() {
            let row = out.as_mut_ptr().add((i + r) * self.n + self.j);
            for (z, &s) in acc.iter().enumerate() {
                _mm512_mask_storeu_ps(row.add(z * LANES), self.mask::<Z>(z), s);
            }
        }
    }
}
