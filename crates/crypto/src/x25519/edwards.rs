//! The fixed-base comb: X25519 for a base a sender reuses, computed on
//! edwards25519 and read back on the Montgomery u-line.
//!
//! Curve25519 and edwards25519 are birationally equivalent (RFC 7748
//! §4.1): `y = (u − 1)/(u + 1)` and, back, `u = (1 + y)/(1 − y)`. The map
//! is a group isomorphism, so `u(k·P)` is the same field element whichever
//! curve computes it; on the Edwards side a fixed `P` pays for a table
//! once and every multiple after that is ref10's signed radix-16 comb —
//! 64 mixed additions and four doublings where the ladder runs 255 steps.
//!
//! * **Table** ([`FixedBase`]): 32 rows of 8 affine Niels entries,
//!   `table[i][j] = (j + 1)·256ⁱ·P`, stored as `(y + x, y − x, 2d·x·y)`
//!   with every coordinate fully reduced. It is built from a
//!   u-coordinate — `y` from the map, `x` from a square root of
//!   `(y² − 1)/(d·y² + 1)` — with one batched inversion for all 256
//!   entries. Either root will do: `−P = (−x, y)` has the same `u` at
//!   every multiple. A `u` with no Edwards image — a point on the twist,
//!   where that ratio is not a square, or `u = −1`, where the map divides
//!   by zero — gets no table and keeps the ladder.
//! * **Scalar**: the **full clamped scalar** as 64 signed digits in
//!   [−8, 8], `k = Σ eᵢ·16ⁱ`, never reduced mod ℓ. A recipient key need
//!   not lie in the prime-order subgroup (its small-order component is
//!   what clamping's cofactor bits are for), and `k mod ℓ` is a different
//!   multiple of such a point; `k` itself is the multiple the ladder
//!   computes. A clamped scalar is below 2²⁵⁵, so its top digit is at
//!   most 8 and 64 digits hold it.
//! * **Walk**: add the odd digits' entries, double four times, add the
//!   even digits' entries — `Σ e₂ᵢ₊₁·16·256ⁱ·P + Σ e₂ᵢ·256ⁱ·P`. The
//!   addition and doubling formulas (extended coordinates, Hisil–Wong–
//!   Carter–Dawson 2008, `a = −1`) are complete on the whole curve — `d`
//!   is not a square — so low-order and mixed-order points, the identity
//!   and doublings-in-disguise need no special case.
//! * **Output**: the projective pair `(Z + Y, Z − Y)` for the driver's
//!   batched inversion. The identity gives `Z − Y = 0` and so `u = 0`, as
//!   the ladder's point at infinity does; serialization is the ladder's,
//!   so the bytes are the ladder's.
//!
//! **Constant time.** Which row a step reads is its position, not a
//! secret. Within the row every one of the eight entries is read and
//! folded in by a masked move whose mask is `|digit| == j` computed with
//! arithmetic, and the sign negates by a second mask (swap `y ± x`,
//! negate `2d·x·y`). The digit recoding is shifts and adds. No branch and
//! no memory index depends on a scalar bit; a table and the point it is
//! built from are public.

use super::{batch_invert, Fe, KEY_LEN};
use std::fmt;
use std::sync::OnceLock;

/// Table rows: one per pair of radix-16 digits.
pub(super) const ROWS: usize = 32;
/// Entries per row: the multiples 1..=8 a digit's magnitude selects.
pub(super) const ENTRIES: usize = 8;
/// Signed radix-16 digits of a scalar.
pub(super) const DIGITS: usize = 2 * ROWS;

/// Field constants of edwards25519, derived once rather than typed in.
struct Constants {
    /// `d = −121665/121666`.
    d: Fe,
    /// `2·d`, the factor the addition formulas take.
    d2: Fe,
    /// A square root of −1: `2^((p − 1)/4)`, 2 being a non-residue.
    sqrt_m1: Fe,
}

fn constants() -> &'static Constants {
    static CONSTANTS: OnceLock<Constants> = OnceLock::new();
    CONSTANTS.get_or_init(|| {
        let small = |v: u64| Fe([v, 0, 0, 0, 0]);
        let d = Fe::ZERO.sub(&small(121_665)).mul(&small(121_666).invert());
        let two = small(2);
        Constants {
            d,
            d2: d.add(&d),
            sqrt_m1: two.pow22523().square().mul(&two),
        }
    })
}

/// Canonical equality of two field elements.
fn fe_eq(a: &Fe, b: &Fe) -> bool {
    a.to_bytes() == b.to_bytes()
}

/// All ones iff `a == b`, for `a, b < 2⁶³` — arithmetic, no branch.
fn eq_mask(a: u64, b: u64) -> u64 {
    0u64.wrapping_sub((a ^ b).wrapping_sub(1) >> 63)
}

/// A point in extended coordinates `(X : Y : Z : T)`: `x = X/Z`,
/// `y = Y/Z`, `x·y = T/Z`. Every coordinate is a multiplication's
/// output, so carried and fit to be added, subtracted or multiplied.
#[derive(Clone, Copy)]
pub(super) struct Ext {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

impl Ext {
    const IDENTITY: Ext = Ext {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The point with Montgomery u-coordinate `u`, or `None` where `u` has
    /// no image on edwards25519 (a twist point, or `u = −1`).
    pub(super) fn from_montgomery(u: &Fe) -> Option<Ext> {
        let c = constants();
        let u_plus_1 = u.add(&Fe::ONE);
        if u_plus_1.is_zero() {
            return None;
        }
        let y = u.sub(&Fe::ONE).mul(&u_plus_1.invert());
        let yy = y.square();
        // x² = (y² − 1)/(d·y² + 1); the denominator never vanishes, as
        // −1/d is not a square.
        let (num, den) = (yy.sub(&Fe::ONE), c.d.mul(&yy).add(&Fe::ONE));
        // Candidate root num·den³·(num·den⁷)^((p − 5)/8): it squares to
        // ±num/den when num/den is a square at all.
        let den3 = den.square().mul(&den);
        let den7 = den3.square().mul(&den);
        let mut x = num.mul(&den3).mul(&num.mul(&den7).pow22523());
        let check = den.mul(&x.square());
        if !fe_eq(&check, &num) {
            if !check.add(&num).is_zero() {
                return None;
            }
            x = x.mul(&c.sqrt_m1);
        }
        Some(Ext {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// The finishing multiplications every formula shares.
    fn from_efgh(e: &Fe, f: &Fe, g: &Fe, h: &Fe) -> Ext {
        Ext {
            x: e.mul(f),
            y: g.mul(h),
            z: f.mul(g),
            t: e.mul(h),
        }
    }

    /// `self + other`, both projective (table building only).
    pub(super) fn add(&self, other: &Ext) -> Ext {
        let a = self.y.add(&self.x).mul(&other.y.add(&other.x));
        let b = self.y.sub(&self.x).mul(&other.y.sub(&other.x));
        let c = self.t.mul(&other.t.mul(&constants().d2));
        let zz = self.z.mul(&other.z);
        let d = zz.add(&zz);
        Ext::from_efgh(&a.sub(&b), &d.sub(&c), &d.add(&c), &a.add(&b))
    }

    /// `self + q` for an affine Niels `q`: seven multiplications.
    fn add_niels(&self, q: &Niels) -> Ext {
        let a = self.y.add(&self.x).mul(&q.y_plus_x);
        let b = self.y.sub(&self.x).mul(&q.y_minus_x);
        let c = self.t.mul(&q.xy2d);
        let d = self.z.add(&self.z);
        Ext::from_efgh(&a.sub(&b), &d.sub(&c), &d.add(&c), &a.add(&b))
    }

    /// `2·self`. With `a = −1` the textbook `F` and `H` come out negated
    /// here (`2Z² − G` and `X² + Y²`): every output coordinate flips sign,
    /// which is the same projective point. Each subtraction takes a
    /// carried subtrahend, so no limb leaves the multiplication's range.
    fn double(&self) -> Ext {
        let xx = self.x.square();
        let yy = self.y.square();
        let zz = self.z.square();
        let e = self.x.add(&self.y).square().sub(&xx).sub(&yy);
        let g = yy.sub(&xx);
        let f = zz.add(&zz).add(&xx).sub(&yy);
        Ext::from_efgh(&e, &f, &g, &xx.add(&yy))
    }

    /// `u = (1 + y)/(1 − y)` as the projective pair `(Z + Y, Z − Y)`.
    pub(super) fn to_montgomery(self) -> (Fe, Fe) {
        (self.z.add(&self.y), self.z.sub(&self.y))
    }
}

/// A table entry in affine Niels form `(y + x, y − x, 2d·x·y)`, every
/// coordinate fully reduced.
#[derive(Clone, Copy)]
pub(super) struct Niels {
    pub(super) y_plus_x: Fe,
    pub(super) y_minus_x: Fe,
    pub(super) xy2d: Fe,
}

impl Niels {
    /// The identity, what a zero digit selects.
    const IDENTITY: Niels = Niels {
        y_plus_x: Fe::ONE,
        y_minus_x: Fe::ONE,
        xy2d: Fe::ZERO,
    };

    fn cmov(&mut self, other: &Niels, mask: u64) {
        self.y_plus_x.cmov(&other.y_plus_x, mask);
        self.y_minus_x.cmov(&other.y_minus_x, mask);
        self.xy2d.cmov(&other.xy2d, mask);
    }
}

/// A precomputed comb table: the multiples of one base point that the
/// fixed-base comb adds up, 32 rows of 8 affine entries (30 KiB). Both
/// tiers read it: the eight-lane comb re-cuts the entries it selects into
/// its radix-2⁴³ limbs in registers.
///
/// Public data derived from a public point. Built once per base a
/// sender reuses — the curve's base point on first use, a recipient key
/// where it becomes trusted — never per envelope.
pub struct FixedBase {
    rows: Box<[[Niels; ENTRIES]]>,
}

impl fmt::Debug for FixedBase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("FixedBase(..)")
    }
}

impl FixedBase {
    /// Builds the table of the point with u-coordinate `u` (parsed as
    /// [`super::x25519`] parses it: top bit dropped, reduced mod p), or
    /// returns `None` when `u` has no edwards25519 image — a point on the
    /// twist, or `u = −1` — and multiples of it must take the ladder.
    pub fn new(u: &[u8; KEY_LEN]) -> Option<FixedBase> {
        let mut base = Ext::from_montgomery(&Fe::from_bytes(u))?;
        let mut points = Vec::with_capacity(ROWS * ENTRIES);
        for _ in 0..ROWS {
            let mut multiple = base;
            points.push(multiple);
            for _ in 1..ENTRIES {
                multiple = multiple.add(&base);
                points.push(multiple);
            }
            for _ in 0..8 {
                base = base.double();
            }
        }
        // The curve's formulas are complete: no multiple has Z = 0.
        let mut zs: Vec<Fe> = points.iter().map(|p| p.z).collect();
        let mut prefix = vec![Fe::ZERO; zs.len()];
        batch_invert(&mut zs, &mut prefix);
        let d2 = constants().d2;
        let reduced = |fe: Fe| Fe::from_bytes(&fe.to_bytes());
        let entries: Vec<Niels> = points
            .iter()
            .zip(&zs)
            .map(|(p, z_inv)| {
                let (x, y) = (p.x.mul(z_inv), p.y.mul(z_inv));
                Niels {
                    y_plus_x: reduced(y.add(&x)),
                    y_minus_x: reduced(y.sub(&x)),
                    xy2d: reduced(x.mul(&y).mul(&d2)),
                }
            })
            .collect();
        let rows = entries
            .chunks_exact(ENTRIES)
            .map(|row| row.try_into().expect("eight entries per row"))
            .collect();
        Some(FixedBase { rows })
    }

    /// The table of the curve's base point (u = 9), built on first use.
    pub fn basepoint() -> &'static FixedBase {
        static BASEPOINT: OnceLock<FixedBase> = OnceLock::new();
        BASEPOINT.get_or_init(|| {
            FixedBase::new(&super::BASEPOINT).expect("the base point lies on the curve")
        })
    }

    /// The table's rows, row `i` holding `1·256ⁱ·P … 8·256ⁱ·P`.
    pub(super) fn rows(&self) -> &[[Niels; ENTRIES]] {
        &self.rows
    }
}

/// The signed radix-16 digits of a clamped scalar: `k = Σ eᵢ·16ⁱ` with
/// `eᵢ ∈ [−8, 7]` below the top and `e₆₃ ∈ [4, 8]`. Shifts and adds only.
pub(super) fn digits(k: &[u8; KEY_LEN]) -> [i8; DIGITS] {
    let mut e = [0i8; DIGITS];
    for (pair, &byte) in e.chunks_exact_mut(2).zip(k) {
        pair[0] = (byte & 15) as i8;
        pair[1] = (byte >> 4) as i8;
    }
    let mut carry = 0i8;
    for digit in &mut e[..DIGITS - 1] {
        *digit += carry;
        carry = (*digit + 8) >> 4;
        *digit -= carry << 4;
    }
    e[DIGITS - 1] += carry;
    e
}

/// A digit's magnitude and sign (1 if negative), without a branch.
pub(super) fn magnitude_and_sign(digit: i8) -> (u64, u64) {
    let negative = u64::from(digit as u8 >> 7);
    let d = i64::from(digit);
    let magnitude = d - ((-(negative as i64) & d) << 1);
    (magnitude as u64, negative)
}

/// `digit·(row's unit)`: every entry of the row is read and the one
/// `|digit|` names is kept by mask; a negative digit then negates it by
/// mask. A zero digit keeps the identity.
fn select(row: &[Niels; ENTRIES], digit: i8) -> Niels {
    let (magnitude, negative) = magnitude_and_sign(digit);
    let mut t = Niels::IDENTITY;
    for (j, entry) in (1..).zip(row) {
        t.cmov(entry, eq_mask(magnitude, j));
    }
    let negative = 0u64.wrapping_sub(negative);
    Fe::cswap(negative & 1, &mut t.y_plus_x, &mut t.y_minus_x);
    let negated = Fe::ZERO.sub(&t.xy2d);
    t.xy2d.cmov(&negated, negative);
    t
}

/// `k·P` for a pre-clamped `k` and `P`'s table, as the projective
/// Montgomery pair the driver inverts: the scalar tier, and the
/// definition the eight-lane comb must equal lane for lane.
pub(super) fn comb(table: &FixedBase, k: &[u8; KEY_LEN]) -> (Fe, Fe) {
    let e = digits(k);
    let rows = &table.rows;
    let mut h = Ext::IDENTITY;
    for i in (1..DIGITS).step_by(2) {
        h = h.add_niels(&select(&rows[i / 2], e[i]));
    }
    for _ in 0..4 {
        h = h.double();
    }
    for i in (0..DIGITS).step_by(2) {
        h = h.add_niels(&select(&rows[i / 2], e[i]));
    }
    h.to_montgomery()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digits_recompose_the_scalar_within_their_ranges() {
        let scalars = [
            super::super::clamp(&[0; KEY_LEN]),
            super::super::clamp(&[0xff; KEY_LEN]),
            super::super::clamp(&[0x88; KEY_LEN]),
            super::super::clamp(&core::array::from_fn(|i| (i as u8).wrapping_mul(97))),
        ];
        for k in scalars {
            let e = digits(&k);
            assert!(e[..DIGITS - 1].iter().all(|&d| (-8..=7).contains(&d)));
            assert!((4..=8).contains(&e[DIGITS - 1]));
            // Σ eᵢ·16ⁱ, rebuilt byte by byte with signed carries.
            let mut bytes = [0u8; KEY_LEN];
            let mut carry = 0i32;
            for (i, byte) in bytes.iter_mut().enumerate() {
                let v = i32::from(e[2 * i]) + 16 * i32::from(e[2 * i + 1]) + carry;
                *byte = v.rem_euclid(256) as u8;
                carry = v.div_euclid(256);
            }
            assert_eq!(carry, 0);
            assert_eq!(bytes, k);
        }
    }

    #[test]
    fn magnitude_and_sign_cover_every_digit() {
        for digit in -8i8..=8 {
            let (magnitude, negative) = magnitude_and_sign(digit);
            assert_eq!(magnitude, u64::from(digit.unsigned_abs()));
            assert_eq!(negative, u64::from(digit < 0));
        }
    }
}
