//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! Participants derive a shared secret with the enclave's public key; the
//! sealed box then encrypts model updates under keys derived from that
//! secret. Radix-2⁵¹ field arithmetic (five 51-bit limbs, u128
//! intermediate products) with a dedicated `Fe::square` (10 wide
//! multiplies instead of 25) and the addition-chain `Fe::invert` (254
//! squarings + 11 multiplications) carries two algorithms, chosen by the
//! kind of job, never by an option:
//!
//! * **The Montgomery ladder**, for a **variable base** — a point seen
//!   once: every [`x25519`] call, a recipient opening envelopes (each has
//!   its own ephemeral point), a sender's shared secret with a key that
//!   has no table. 255 branch-free steps whose conditional swaps are
//!   masked moves; validated against the RFC vectors, the iterated test
//!   included.
//! * **The fixed-base comb**, for a base a **sender reuses** — the curve's
//!   base point (every ephemeral key) and each attested recipient key
//!   (every shared secret sealed to it). Given the base's precomputed
//!   [`FixedBase`] table, the multiple is ref10's signed radix-16 comb on
//!   edwards25519 — 64 mixed additions and four doublings — read back on
//!   the u-line through RFC 7748 §4.1's birational map (the private
//!   `edwards` module). It uses the full clamped scalar, never reduced
//!   mod ℓ: a recipient key need not lie in the prime-order subgroup,
//!   and only the unreduced scalar gives the multiple the ladder gives.
//!   Its table reads are constant-time — every entry of a row is read and
//!   kept or dropped by an arithmetic mask, the digit's sign negates by
//!   mask — so neither algorithm branches on or indexes by a secret.
//!
//! Many multiplications at once share one driver: the sealed box's
//! prepare phases, [`x25519_multi`] (a scalar *per* point, the ladder
//! rows of the criterion bench) and [`public_key`]. It folds the per-job
//! final inversion into one inversion plus three multiplications per job
//! (Montgomery's trick) — the comb's output is the projective pair the
//! ladder's is, so both serialize through the same code and the bytes
//! are identical — and on AVX-512 IFMA hosts runs eight jobs per
//! `vpmadd52` pass (the private `ifma` module): eight ladders, whose
//! conditional swaps take a per-lane mask so every lane carries its own
//! scalar, or eight combs over **one** table, each row entry broadcast
//! and each lane's digit its own mask — so the driver groups a batch's
//! comb jobs by table. Outputs are bit-identical to [`x25519`] on every
//! tier. The IFMA tier needs the `Ifma` rung of the one CPU ladder in
//! [`crate::cpu`] — AVX-512 F, BW and DQ below it, IFMA on top.

mod edwards;

use crate::cpu::Tier;

pub use edwards::FixedBase;

/// Length of scalars, points and shared secrets in bytes.
pub const KEY_LEN: usize = 32;

/// The Curve25519 base point (u = 9).
pub const BASEPOINT: [u8; KEY_LEN] = {
    let mut b = [0u8; KEY_LEN];
    b[0] = 9;
    b
};

const MASK51: u64 = (1u64 << 51) - 1;
const MASK51_128: u128 = (1u128 << 51) - 1;

/// Field element of GF(2²⁵⁵ − 19) in radix-2⁵¹ representation.
///
/// Invariants: after [`Fe::mul`]/[`Fe::square`]/[`Fe::mul_small`] limbs are
/// `< 2⁵²`; [`Fe::add`] outputs `< 2⁵³`; [`Fe::sub`] outputs `< 2⁵⁴`.
/// [`Fe::mul`] accepts limbs up to `2⁵⁴`, so any two levels of add/sub can
/// feed a multiplication, which the ladder respects.
#[derive(Debug, Clone, Copy)]
struct Fe([u64; 5]);

impl Fe {
    const ZERO: Fe = Fe([0; 5]);
    const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Parses a little-endian 32-byte string, ignoring the top bit (RFC
    /// 7748 §5).
    fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let load = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        Fe([
            load(&bytes[0..8]) & MASK51,
            (load(&bytes[6..14]) >> 3) & MASK51,
            (load(&bytes[12..20]) >> 6) & MASK51,
            (load(&bytes[19..27]) >> 1) & MASK51,
            (load(&bytes[24..32]) >> 12) & MASK51,
        ])
    }

    /// Serializes with full canonical reduction modulo p.
    fn to_bytes(self) -> [u8; 32] {
        let mut h = self.0;
        // Two carry sweeps bring every limb below 2⁵² with the wraparound
        // folded in.
        for _ in 0..2 {
            let mut c;
            c = h[0] >> 51;
            h[0] &= MASK51;
            h[1] += c;
            c = h[1] >> 51;
            h[1] &= MASK51;
            h[2] += c;
            c = h[2] >> 51;
            h[2] &= MASK51;
            h[3] += c;
            c = h[3] >> 51;
            h[3] &= MASK51;
            h[4] += c;
            c = h[4] >> 51;
            h[4] &= MASK51;
            h[0] += 19 * c;
        }
        // Compute q = 1 iff h >= p, by checking whether h + 19 carries past
        // bit 255.
        let mut q = (h[0] + 19) >> 51;
        q = (h[1] + q) >> 51;
        q = (h[2] + q) >> 51;
        q = (h[3] + q) >> 51;
        q = (h[4] + q) >> 51;
        // h := h - q*p  ==  h + 19q, then drop bit 255.
        h[0] += 19 * q;
        let mut c;
        c = h[0] >> 51;
        h[0] &= MASK51;
        h[1] += c;
        c = h[1] >> 51;
        h[1] &= MASK51;
        h[2] += c;
        c = h[2] >> 51;
        h[2] &= MASK51;
        h[3] += c;
        c = h[3] >> 51;
        h[3] &= MASK51;
        h[4] += c;
        h[4] &= MASK51;

        let mut out = [0u8; 32];
        out[0..8].copy_from_slice(&(h[0] | (h[1] << 51)).to_le_bytes());
        out[8..16].copy_from_slice(&((h[1] >> 13) | (h[2] << 38)).to_le_bytes());
        out[16..24].copy_from_slice(&((h[2] >> 26) | (h[3] << 25)).to_le_bytes());
        out[24..32].copy_from_slice(&((h[3] >> 39) | (h[4] << 12)).to_le_bytes());
        out
    }

    fn add(&self, other: &Fe) -> Fe {
        let mut r = [0u64; 5];
        for (limb, (&a, &b)) in r.iter_mut().zip(self.0.iter().zip(other.0.iter())) {
            *limb = a + b;
        }
        Fe(r)
    }

    /// `self - other`, biased by 2p to stay non-negative.
    fn sub(&self, other: &Fe) -> Fe {
        // 2p in radix-2⁵¹: (2⁵² − 38, 2⁵² − 2, …).
        const TWO_P: [u64; 5] = [
            0x000f_ffff_ffff_ffda,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
            0x000f_ffff_ffff_fffe,
        ];
        let mut r = [0u64; 5];
        for i in 0..5 {
            r[i] = self.0[i] + TWO_P[i] - other.0[i];
        }
        Fe(r)
    }

    fn mul(&self, other: &Fe) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let [b0, b1, b2, b3, b4] = other.0;
        // The 19-folds on the 64-bit side: a limb below 2⁵⁴ times 19 stays
        // below 2⁵⁹, so every product is one 64×64→128 multiply.
        let (n1, n2, n3, n4) = (19 * b1, 19 * b2, 19 * b3, 19 * b4);
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        Fe::carry([
            m(a0, b0) + m(a1, n4) + m(a2, n3) + m(a3, n2) + m(a4, n1),
            m(a0, b1) + m(a1, b0) + m(a2, n4) + m(a3, n3) + m(a4, n2),
            m(a0, b2) + m(a1, b1) + m(a2, b0) + m(a3, n4) + m(a4, n3),
            m(a0, b3) + m(a1, b2) + m(a2, b1) + m(a3, b0) + m(a4, n4),
            m(a0, b4) + m(a1, b3) + m(a2, b2) + m(a3, b1) + m(a4, b0),
        ])
    }

    /// Dedicated squaring: the symmetric cross terms collapse 25 wide
    /// multiplies to 10. Accepts the same limb bounds as [`Fe::mul`]
    /// (up to 2⁵⁴): doubles stay below 2⁵⁵ and 19-folds below 2⁵⁹, so
    /// every product is a single 64×64→128 multiply.
    fn square(&self) -> Fe {
        let [a0, a1, a2, a3, a4] = self.0;
        let d0 = a0 << 1;
        let d1 = a1 << 1;
        let n3 = a3 * 19;
        let n4 = a4 * 19;
        let m = |x: u64, y: u64| u128::from(x) * u128::from(y);
        Fe::carry([
            m(a0, a0) + 2 * (m(a1, n4) + m(a2, n3)),
            m(d0, a1) + 2 * m(a2, n4) + m(a3, n3),
            m(d0, a2) + m(a1, a1) + 2 * m(a3, n4),
            m(d0, a3) + m(d1, a2) + m(a4, n4),
            m(d0, a4) + m(d1, a3) + m(a2, a2),
        ])
    }

    /// `self` squared `n` times.
    fn square_n(&self, n: u32) -> Fe {
        let mut r = *self;
        for _ in 0..n {
            r = r.square();
        }
        r
    }

    /// Whether this element is zero mod p.
    fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    fn mul_small(&self, s: u32) -> Fe {
        let mut r = [0u128; 5];
        for (limb, &a) in r.iter_mut().zip(self.0.iter()) {
            *limb = u128::from(a) * u128::from(s);
        }
        Fe::carry(r)
    }

    fn carry(mut r: [u128; 5]) -> Fe {
        let mut c: u128;
        c = r[0] >> 51;
        r[0] &= MASK51_128;
        r[1] += c;
        c = r[1] >> 51;
        r[1] &= MASK51_128;
        r[2] += c;
        c = r[2] >> 51;
        r[2] &= MASK51_128;
        r[3] += c;
        c = r[3] >> 51;
        r[3] &= MASK51_128;
        r[4] += c;
        c = r[4] >> 51;
        r[4] &= MASK51_128;
        r[0] += 19 * c;
        // One more sweep for the wraparound carry.
        c = r[0] >> 51;
        r[0] &= MASK51_128;
        r[1] += c;
        Fe([
            r[0] as u64,
            r[1] as u64,
            r[2] as u64,
            r[3] as u64,
            r[4] as u64,
        ])
    }

    /// Branch-free conditional swap: swaps `a` and `b` iff `swap == 1`.
    fn cswap(swap: u64, a: &mut Fe, b: &mut Fe) {
        let mask = 0u64.wrapping_sub(swap);
        for i in 0..5 {
            let t = mask & (a.0[i] ^ b.0[i]);
            a.0[i] ^= t;
            b.0[i] ^= t;
        }
    }

    /// Branch-free conditional move: `self = other` where `mask` is all
    /// ones, unchanged where it is zero.
    fn cmov(&mut self, other: &Fe, mask: u64) {
        for (a, b) in self.0.iter_mut().zip(&other.0) {
            *a ^= mask & (*a ^ b);
        }
    }

    /// `(z^(2²⁵⁰ − 1), z¹¹)`: the standard Curve25519 addition chain that
    /// both [`Fe::invert`] and [`Fe::pow22523`] finish.
    fn pow_2_250_minus_1(&self) -> (Fe, Fe) {
        let z2 = self.square();
        let z9 = z2.square_n(2).mul(self);
        let z11 = z9.mul(&z2);
        // Exponents below name the all-ones run length: p5 = z^(2⁵ − 1).
        let p5 = z11.square().mul(&z9);
        let p10 = p5.square_n(5).mul(&p5);
        let p20 = p10.square_n(10).mul(&p10);
        let p40 = p20.square_n(20).mul(&p20);
        let p50 = p40.square_n(10).mul(&p10);
        let p100 = p50.square_n(50).mul(&p50);
        let p200 = p100.square_n(100).mul(&p100);
        (p200.square_n(50).mul(&p50), z11)
    }

    /// Multiplicative inverse via Fermat: `self^(p−2)`, p−2 = 2²⁵⁵ − 21
    /// (254 squarings + 11 multiplications). `invert(0) = 0`, which the
    /// ladder relies on for low-order inputs.
    fn invert(&self) -> Fe {
        let (p250, z11) = self.pow_2_250_minus_1();
        // 2²⁵⁵ − 32 + 11 = 2²⁵⁵ − 21.
        p250.square_n(5).mul(&z11)
    }

    /// `self^((p − 5)/8)` = `self^(2²⁵² − 3)`, the square-root exponent
    /// for p ≡ 5 (mod 8).
    fn pow22523(&self) -> Fe {
        self.pow_2_250_minus_1().0.square_n(2).mul(self)
    }
}

/// Montgomery's trick: inverts every nonzero element of `zs` in place
/// with a single field inversion plus three multiplications per element,
/// using `prefix` (same length, contents ignored) as scratch.
/// Zero entries stay zero, matching `invert(0) = 0` — so a low-order
/// point that collapses the ladder to `z = 0` serializes to the same
/// all-zero output on the batched path as on the scalar one.
fn batch_invert(zs: &mut [Fe], prefix: &mut [Fe]) {
    let mut acc = Fe::ONE;
    for (z, pre) in zs.iter().zip(prefix.iter_mut()) {
        *pre = acc;
        if !z.is_zero() {
            acc = acc.mul(z);
        }
    }
    let mut inv = acc.invert();
    for (z, pre) in zs.iter_mut().zip(prefix.iter()).rev() {
        if z.is_zero() {
            continue;
        }
        let original = *z;
        *z = inv.mul(pre);
        inv = inv.mul(&original);
    }
}

/// Clamps a 32-byte scalar per RFC 7748 §5.
fn clamp(scalar: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let mut k = *scalar;
    k[0] &= 248;
    k[31] &= 127;
    k[31] |= 64;
    k
}

/// The X25519 function: scalar multiplication on the Montgomery u-line.
///
/// `scalar` is clamped internally; `point` is a u-coordinate. Returns the
/// resulting u-coordinate.
///
/// # Example
///
/// ```
/// use mixnn_crypto::x25519::{x25519, BASEPOINT};
///
/// let alice_secret = [0x11u8; 32];
/// let bob_secret = [0x22u8; 32];
/// let alice_public = x25519(&alice_secret, &BASEPOINT);
/// let bob_public = x25519(&bob_secret, &BASEPOINT);
/// assert_eq!(
///     x25519(&alice_secret, &bob_public),
///     x25519(&bob_secret, &alice_public),
/// );
/// ```
pub fn x25519(scalar: &[u8; KEY_LEN], point: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let k = clamp(scalar);
    let (x2, z2) = ladder(&k, point);
    x2.mul(&z2.invert()).to_bytes()
}

/// Batched X25519 over the ladder with a scalar **per point**: `out[i] =
/// x25519(scalars[i], points[i])`, every job a variable base.
///
/// The public entry to the driver's ladder tier — what the criterion
/// rows `crypto/x25519/multi_scalar/*` time to re-measure the ladder's
/// lane crossover. The per-point final inversion is shared across the
/// batch with Montgomery's trick (`batch_invert`), and outputs are
/// bit-identical to calling [`x25519`] per pair: the batched inverses are
/// the same field elements, and serialization is canonical. The batch
/// inversion branches on which `z` coordinates are zero — public once
/// the all-zero outputs are rejected by a caller's contributory-behavior
/// check; the ladders themselves stay branch-free in the scalar bits.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn x25519_multi(scalars: &[[u8; KEY_LEN]], points: &[[u8; KEY_LEN]]) -> Vec<[u8; KEY_LEN]> {
    x25519_multi_on(Tier::best(), scalars, points)
}

fn x25519_multi_on(
    tier: Tier,
    scalars: &[[u8; KEY_LEN]],
    points: &[[u8; KEY_LEN]],
) -> Vec<[u8; KEY_LEN]> {
    assert_eq!(scalars.len(), points.len(), "one scalar per point");
    let mut out = Vec::with_capacity(points.len());
    let jobs = scalars
        .iter()
        .zip(points)
        .map(|(k, p)| (*k, Base::Point(*p)));
    scalarmult_each(tier, jobs, |_, u| out.push(u));
    out
}

/// `out[i] = x25519(scalars[i], u)` where `table` is [`FixedBase::new`]`(u)`,
/// through the comb on `tier`; panics if the slices differ in length or
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn fixed_base_on(
    tier: Tier,
    table: &FixedBase,
    scalars: &[[u8; KEY_LEN]],
    out: &mut [[u8; KEY_LEN]],
) {
    assert_eq!(scalars.len(), out.len(), "one output per scalar");
    let jobs = scalars.iter().map(|k| (*k, Base::Table(table)));
    scalarmult_each(tier, jobs, |i, u| out[i] = u);
}

/// The rungs with ladder and comb kernels, scalar first; the tests, the
/// KATs and the bench rows run each one the host reaches.
#[doc(hidden)]
pub const TIERS: &[Tier] = &[Tier::Scalar, Tier::Ifma];

/// What a driver job multiplies its scalar with — which is what picks the
/// algorithm.
#[derive(Clone, Copy)]
pub(crate) enum Base<'a> {
    /// A variable base, as a u-coordinate: the ladder.
    Point([u8; KEY_LEN]),
    /// A base the sender reuses, through its table: the comb.
    Table(&'a FixedBase),
}

/// Jobs per stack-resident chunk of the batched driver. Each chunk
/// shares one field inversion, so the 2·(1 + L·(H−1)) multiplications of
/// any realistic onion (22 on a 5-layer, 3-hop update) pay for exactly
/// one; a longer batch pays one per 64 jobs — under 0.2% of the ladders
/// it follows — and in exchange the driver never touches the heap.
const CHUNK: usize = 64;

/// The batched driver behind the sealed box's prepare phases,
/// [`x25519_multi`] and [`public_key`]: computes `x25519(scalar, base)`
/// for every `(scalar, base)` job — the ladder for a [`Base::Point`], the
/// comb for a [`Base::Table`] — and hands `sink` each result with its job
/// index, in job order.
pub(crate) fn scalarmult_each<'a, I, F>(tier: Tier, jobs: I, mut sink: F)
where
    I: IntoIterator<Item = ([u8; KEY_LEN], Base<'a>)>,
    F: FnMut(usize, [u8; KEY_LEN]),
{
    let mut jobs = jobs.into_iter();
    let mut ks = [[0u8; KEY_LEN]; CHUNK];
    let mut bases = [Base::Point([0; KEY_LEN]); CHUNK];
    let mut xs = [Fe::ZERO; CHUNK];
    let mut zs = [Fe::ZERO; CHUNK];
    let mut prefix = [Fe::ZERO; CHUNK];
    let mut emitted = 0;
    loop {
        let mut n = 0;
        for (scalar, base) in jobs.by_ref().take(CHUNK) {
            ks[n] = clamp(&scalar);
            bases[n] = base;
            n += 1;
        }
        if n == 0 {
            return;
        }
        multiply(tier, &ks[..n], &bases[..n], &mut xs[..n], &mut zs[..n]);
        batch_invert(&mut zs[..n], &mut prefix[..n]);
        for (x2, z2_inv) in xs[..n].iter().zip(&zs[..n]) {
            sink(emitted, x2.mul(z2_inv).to_bytes());
            emitted += 1;
        }
    }
}

/// Projective `(x, z)` of `ks[i] · bases[i]` for pre-clamped scalars: one
/// ladder group for every point job, then one comb group per table, in
/// the order the tables first appear. Grouping is by table identity —
/// public, like the tables — and changes no output.
fn multiply(tier: Tier, ks: &[[u8; KEY_LEN]], bases: &[Base<'_>], xs: &mut [Fe], zs: &mut [Fe]) {
    let mut points = [(0, [0u8; KEY_LEN]); CHUNK];
    let mut n = 0;
    for (i, base) in bases.iter().enumerate() {
        if let Base::Point(point) = base {
            points[n] = (i, *point);
            n += 1;
        }
    }
    ladders(tier, ks, &points[..n], xs, zs);
    let mut grouped = [false; CHUNK];
    let mut group = [0; CHUNK];
    for first in 0..bases.len() {
        let Base::Table(table) = bases[first] else {
            continue;
        };
        if grouped[first] {
            continue;
        }
        let mut n = 0;
        for (i, base) in bases.iter().enumerate().skip(first) {
            if matches!(base, Base::Table(t) if std::ptr::eq(*t, table)) {
                group[n] = i;
                grouped[i] = true;
                n += 1;
            }
        }
        combs(tier, table, ks, &group[..n], xs, zs);
    }
}

/// The ladder over `jobs` — `(index into the chunk, point)` pairs.
///
/// On the IFMA tier the jobs go eight to a pass (a short final group is
/// padded by repeating its first job — same pass cost, surplus lanes
/// discarded); groups too small to pay for a padded pass fall through to
/// the scalar ladder.
fn ladders(
    tier: Tier,
    ks: &[[u8; KEY_LEN]],
    jobs: &[(usize, [u8; KEY_LEN])],
    xs: &mut [Fe],
    zs: &mut [Fe],
) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Ifma {
        while jobs.len() - done >= ifma::MIN_POINTS {
            let group = &jobs[done..jobs.len().min(done + ifma::LANES)];
            let lane = |l: usize| group.get(l).unwrap_or(&group[0]);
            let lane_ks = core::array::from_fn(|l| ks[lane(l).0]);
            let lane_points = core::array::from_fn(|l| lane(l).1);
            let out = ifma::ladder8(&lane_ks, &lane_points);
            for (&(i, _), &(x2, z2)) in group.iter().zip(&out) {
                (xs[i], zs[i]) = (x2, z2);
            }
            done += group.len();
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for &(i, point) in &jobs[done..] {
        (xs[i], zs[i]) = ladder(&ks[i], &point);
    }
}

/// The comb over `jobs` (indices into the chunk), all on `table`.
///
/// On the IFMA tier the jobs go eight to a pass sharing the table, padded
/// as [`ladders`] pads; a group too short to pay for a pass takes the
/// scalar comb.
fn combs(
    tier: Tier,
    table: &FixedBase,
    ks: &[[u8; KEY_LEN]],
    jobs: &[usize],
    xs: &mut [Fe],
    zs: &mut [Fe],
) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Ifma {
        while jobs.len() - done >= ifma::MIN_COMBS {
            let group = &jobs[done..jobs.len().min(done + ifma::LANES)];
            let lane_ks = core::array::from_fn(|l| ks[*group.get(l).unwrap_or(&group[0])]);
            let out = ifma::comb8(table, &lane_ks);
            for (&i, &(x, z)) in group.iter().zip(&out) {
                (xs[i], zs[i]) = (x, z);
            }
            done += group.len();
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for &i in &jobs[done..] {
        (xs[i], zs[i]) = edwards::comb(table, &ks[i]);
    }
}

/// The Montgomery ladder core: projective `(x, z)` of `k · point` for an
/// already-clamped scalar, leaving the final inversion to the caller
/// (immediate for [`x25519`], batched for [`scalarmult_each`]).
fn ladder(k: &[u8; KEY_LEN], point: &[u8; KEY_LEN]) -> (Fe, Fe) {
    let x1 = Fe::from_bytes(point);
    let mut x2 = Fe::ONE;
    let mut z2 = Fe::ZERO;
    let mut x3 = x1;
    let mut z3 = Fe::ONE;
    let mut swap = 0u64;

    for t in (0..255).rev() {
        let k_t = u64::from((k[t / 8] >> (t % 8)) & 1);
        swap ^= k_t;
        Fe::cswap(swap, &mut x2, &mut x3);
        Fe::cswap(swap, &mut z2, &mut z3);
        swap = k_t;

        let a = x2.add(&z2);
        let aa = a.square();
        let b = x2.sub(&z2);
        let bb = b.square();
        let e = aa.sub(&bb);
        let c = x3.add(&z3);
        let d = x3.sub(&z3);
        let da = d.mul(&a);
        let cb = c.mul(&b);
        x3 = da.add(&cb).square();
        z3 = x1.mul(&da.sub(&cb).square());
        x2 = aa.mul(&bb);
        // a24 = (486662 − 2) / 4 = 121665.
        z2 = e.mul(&aa.add(&e.mul_small(121_665)));
    }
    Fe::cswap(swap, &mut x2, &mut x3);
    Fe::cswap(swap, &mut z2, &mut z3);
    (x2, z2)
}

/// AVX-512 IFMA eight-lane Montgomery ladder and fixed-base comb.
///
/// Every X25519 ladder runs the same 255 steps whatever its scalar; only
/// the conditional swaps differ, and those are branch-free masked moves.
/// So eight independent `(scalar, point)` jobs fit the 512-bit `vpmadd52`
/// lanes in lockstep: the scalars' bits are transposed into one `u8` per
/// step (bit `lane` = that lane's scalar bit) and each step's swap takes
/// the byte as a per-lane write mask. One scalar against eight points (a
/// recipient opening a round) is the case where all eight bits agree.
///
/// Every comb over one table likewise runs the same 64 additions and four
/// doublings; only which entry each addition takes differs. So eight
/// scalars on one table share the lanes too: each row entry is broadcast
/// to every lane and kept in a lane where that lane's digit magnitude —
/// compared in a vector, one compare per entry — names it, then negated
/// in the lanes whose digit is negative. Every entry is read on every
/// step, as on the scalar comb.
///
/// Lane field elements use radix-2⁴³ (six limbs): `vpmadd52` truncates
/// operands to 52 bits, and the nine bits of headroom above a carried
/// 43-bit limb let one add/sub level feed a multiplication directly —
/// only multiply outputs are carried, mirroring the scalar radix-2⁵¹
/// discipline.
///
/// A position-`k` product splits at bit 52 (`vpmadd52lo`/`hi`); its high
/// half lands at bit 9 of position `k + 1`. Positions ≥ 6 fold back by
/// 2²⁵⁸ ≡ 8·19 = 152 (mod p). Lane outputs convert to the scalar [`Fe`]
/// for the existing Montgomery-trick batched inversion, so serialization
/// stays canonical and the results are bit-identical to the scalar path.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::edwards::{self, FixedBase, Niels, DIGITS, ENTRIES};
    use super::{Fe, Tier, KEY_LEN};
    use core::arch::x86_64::*;

    /// Jobs processed per ladder or comb pass.
    pub const LANES: usize = 8;
    /// Smallest group worth a (padded) ladder pass. Measured on the
    /// reference box, a pass costs 69 µs whatever its fill against 40 µs
    /// per scalar ladder, so it wins from two jobs up (`cargo bench
    /// --bench crypto`: `x25519/multi_scalar/2` against two
    /// `x25519/scalarmult`) — a lone ladder stays scalar.
    pub const MIN_POINTS: usize = 2;
    /// Smallest group on one table worth a (padded) comb pass. Measured
    /// on the box whose ladder reads the reference 40 µs, a pass costs
    /// ≈ 22 µs whatever its fill against ≈ 10 µs per scalar comb beyond
    /// the shared inversion, so it wins from two jobs up
    /// (`x25519/fixed_base/ifma/2` 23.5 µs against `fixed_base/scalar/2`
    /// 26.4 µs) — a lone comb stays scalar.
    pub const MIN_COMBS: usize = 2;

    const MASK43: u64 = (1 << 43) - 1;
    /// 2²⁵⁸ mod p = 8 · 19.
    const FOLD: u64 = 152;
    /// (486662 − 2) / 4, the ladder's `a24` constant.
    const A24: u64 = 121_665;
    /// 16p in radix-2⁴³: the subtraction bias. Every limb exceeds any
    /// carried subtrahend limb (`< 2⁴³ + 2²⁷`), so lanes never underflow.
    const SIXTEEN_P: [u64; 6] = [
        (1 << 44) - 304,
        (1 << 44) - 2,
        (1 << 44) - 2,
        (1 << 44) - 2,
        (1 << 44) - 2,
        (1 << 44) - 2,
    ];

    /// Eight field elements in radix-2⁴³: register `i` holds limb `i` of
    /// every lane.
    #[derive(Clone, Copy)]
    struct FeV([__m512i; 6]);

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn splat(v: u64) -> __m512i {
        _mm512_set1_epi64(v as i64)
    }

    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn fev_splat(v: u64) -> FeV {
        let mut r = FeV([_mm512_setzero_si512(); 6]);
        r.0[0] = splat(v);
        r
    }

    /// Limb-wise sum; inputs carried (`< 2⁴⁴`), output `< 2⁴⁵`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn add(a: &FeV, b: &FeV) -> FeV {
        let mut r = *a;
        for (r, b) in r.0.iter_mut().zip(&b.0) {
            *r = _mm512_add_epi64(*r, *b);
        }
        r
    }

    /// `a − b`, biased by 16p to stay non-negative; output `< 2⁴⁶`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn sub(a: &FeV, b: &FeV) -> FeV {
        let mut r = *a;
        for ((r, b), &p) in r.0.iter_mut().zip(&b.0).zip(&SIXTEEN_P) {
            *r = _mm512_sub_epi64(_mm512_add_epi64(*r, splat(p)), *b);
        }
        r
    }

    /// One radix-2⁴³ carry sweep with the 2²⁵⁸ ≡ 152 top fold. Accepts
    /// limbs `< 2⁶³`; leaves limbs 1–5 `< 2⁴³` and limb 0 `< 2⁴³ + 2²⁷`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn carry(mut r: [__m512i; 6]) -> FeV {
        let mask = splat(MASK43);
        for k in 0..5 {
            let c = _mm512_srli_epi64::<43>(r[k]);
            r[k] = _mm512_and_si512(r[k], mask);
            r[k + 1] = _mm512_add_epi64(r[k + 1], c);
        }
        let c = _mm512_srli_epi64::<43>(r[5]);
        r[5] = _mm512_and_si512(r[5], mask);
        r[0] = _mm512_add_epi64(r[0], _mm512_mullo_epi64(c, splat(FOLD)));
        FeV(r)
    }

    /// Recombines the split halves of a 12-position product (position
    /// `k`'s high half sits at bit 9 of position `k + 1`), folds
    /// positions 6–11 back by 152 and carries.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn reduce(lo: &[__m512i; 12], hi: &[__m512i; 12]) -> FeV {
        let fold = splat(FOLD);
        let mut r = [_mm512_setzero_si512(); 6];
        for (k, r) in r.iter_mut().enumerate() {
            let at = |p: usize| _mm512_add_epi64(lo[p], _mm512_slli_epi64::<9>(hi[p]));
            *r = _mm512_add_epi64(at(k), _mm512_mullo_epi64(at(k + 6), fold));
        }
        carry(r)
    }

    /// Schoolbook product over `vpmadd52`. Operands up to 2⁴⁶ per limb:
    /// low sums stay below 6·2⁵², shifted high sums below 6·2⁴⁹, and the
    /// 152-fold keeps every accumulator below 2⁶³ for the carry sweep.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul(a: &FeV, b: &FeV) -> FeV {
        let zero = _mm512_setzero_si512();
        let mut lo = [zero; 12];
        let mut hi = [zero; 12];
        for i in 0..6 {
            for j in 0..6 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], a.0[i], b.0[j]);
                hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], a.0[i], b.0[j]);
            }
        }
        reduce(&lo, &hi)
    }

    /// Dedicated squaring: each of the 15 symmetric cross terms is taken
    /// once against a doubled limb, 21 `vpmadd52` product pairs instead of
    /// [`mul`]'s 36. Accepts the same operands (up to 2⁴⁶ per limb): a
    /// doubled limb stays below 2⁴⁷ — inside `vpmadd52`'s 52-bit operand
    /// window — and a position sums at most four low halves (`< 4·2⁵²`)
    /// and high halves below 7·2⁴⁹ after the shift, so the 152-fold still
    /// keeps every accumulator below 2⁶³.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn square(a: &FeV) -> FeV {
        let zero = _mm512_setzero_si512();
        let mut lo = [zero; 12];
        let mut hi = [zero; 12];
        let mut twice = a.0;
        for limb in twice.iter_mut() {
            *limb = _mm512_add_epi64(*limb, *limb);
        }
        for i in 0..6 {
            lo[2 * i] = _mm512_madd52lo_epu64(lo[2 * i], a.0[i], a.0[i]);
            hi[2 * i + 1] = _mm512_madd52hi_epu64(hi[2 * i + 1], a.0[i], a.0[i]);
            for j in i + 1..6 {
                lo[i + j] = _mm512_madd52lo_epu64(lo[i + j], twice[i], a.0[j]);
                hi[i + j + 1] = _mm512_madd52hi_epu64(hi[i + j + 1], twice[i], a.0[j]);
            }
        }
        reduce(&lo, &hi)
    }

    /// Scalar multiple via `vpmullq` (a 43+17-bit product fits 64 bits).
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn mul_small(a: &FeV, s: u64) -> FeV {
        let mut r = a.0;
        for r in r.iter_mut() {
            *r = _mm512_mullo_epi64(*r, splat(s));
        }
        carry(r)
    }

    /// Branch-free conditional swap with a mask bit per lane: lane `i`
    /// swaps iff bit `i` of `swap` is set. A masked-out lane XORs zero
    /// into both sides — the same instructions at the same cost whatever
    /// the (secret) bits are.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn cswap(swap: __mmask8, a: &mut FeV, b: &mut FeV) {
        for (a, b) in a.0.iter_mut().zip(b.0.iter_mut()) {
            let t = _mm512_maskz_xor_epi64(swap, *a, *b);
            *a = _mm512_xor_si512(*a, t);
            *b = _mm512_xor_si512(*b, t);
        }
    }

    /// The lanes' swap schedule: bit `lane` of entry `t` is bit `t` of
    /// `ks[lane]`. Built with shifts and ORs only — no branch or index
    /// depends on a scalar bit.
    fn transpose_bits(ks: &[[u8; KEY_LEN]; LANES]) -> [__mmask8; 255] {
        let mut schedule = [0; 255];
        for (lane, k) in ks.iter().enumerate() {
            for (t, bits) in schedule.iter_mut().enumerate() {
                *bits |= ((k[t / 8] >> (t % 8)) & 1) << lane;
            }
        }
        schedule
    }

    /// Parses a point into radix-2⁴³ limbs, dropping the top bit exactly
    /// as [`Fe::from_bytes`] does (RFC 7748 §5).
    fn point_limbs(p: &[u8; KEY_LEN]) -> [u64; 6] {
        let load = |b: &[u8]| u64::from_le_bytes(b[..8].try_into().expect("8 bytes"));
        [
            load(&p[0..8]) & MASK43,
            (load(&p[5..13]) >> 3) & MASK43,
            (load(&p[10..18]) >> 6) & MASK43,
            (load(&p[16..24]) >> 1) & MASK43,
            (load(&p[21..29]) >> 4) & MASK43,
            (load(&p[24..32]) >> 23) & ((1 << 40) - 1),
        ]
    }

    /// Reassembles one lane's radix-2⁴³ limbs as a scalar radix-2⁵¹
    /// [`Fe`]; `Fe::carry` absorbs the cross-radix spill.
    fn fe_from_limbs(l: [u64; 6]) -> Fe {
        let mut r = [0u128; 5];
        for (k, &limb) in l.iter().enumerate() {
            let bit = 43 * k;
            r[bit / 51] += u128::from(limb) << (bit % 51);
        }
        Fe::carry(r)
    }

    /// Loads eight lanes of radix-2⁴³ limbs (`limbs[lane][i]`).
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn load(limbs: &[[u64; 6]; LANES]) -> FeV {
        let by_limb: [[u64; LANES]; 6] =
            core::array::from_fn(|i| core::array::from_fn(|lane| limbs[lane][i]));
        FeV(core::array::from_fn(|i| {
            _mm512_loadu_si512(by_limb[i].as_ptr().cast())
        }))
    }

    /// Stores the lanes back as scalar field elements.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn store(v: &FeV) -> [Fe; LANES] {
        let mut by_limb = [[0u64; LANES]; 6];
        for (limb, reg) in by_limb.iter_mut().zip(&v.0) {
            _mm512_storeu_si512(limb.as_mut_ptr().cast(), *reg);
        }
        core::array::from_fn(|lane| fe_from_limbs(core::array::from_fn(|i| by_limb[i][lane])))
    }

    /// The Montgomery ladder over eight `(pre-clamped scalar, point)`
    /// jobs, one per lane. Returns each lane's projective `(x, z)` for the
    /// caller's batched inversion; outputs equal the scalar
    /// [`super::ladder`] lane-for-lane.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Ifma`] — callers select this
    /// tier only after checking it.
    pub fn ladder8(
        ks: &[[u8; KEY_LEN]; LANES],
        points: &[[u8; KEY_LEN]; LANES],
    ) -> [(Fe, Fe); LANES] {
        assert!(
            Tier::Ifma.available(),
            "IFMA ladder selected on a CPU without it"
        );
        // SAFETY: the `Ifma` rung was just confirmed; it requires AVX-512
        // F and DQ (from the `Avx512` rung) and IFMA — the features
        // `ladder8_lanes` enables.
        unsafe { ladder8_lanes(ks, points) }
    }

    /// # Safety
    ///
    /// Requires AVX-512 F/DQ/IFMA, i.e. the CPU reaches [`Tier::Ifma`].
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn ladder8_lanes(
        ks: &[[u8; KEY_LEN]; LANES],
        points: &[[u8; KEY_LEN]; LANES],
    ) -> [(Fe, Fe); LANES] {
        let schedule = transpose_bits(ks);
        let x1 = load(&core::array::from_fn(|lane| point_limbs(&points[lane])));

        let mut x2 = fev_splat(1);
        let mut z2 = fev_splat(0);
        let mut x3 = x1;
        let mut z3 = fev_splat(1);
        let mut swap: __mmask8 = 0;

        for &k_t in schedule.iter().rev() {
            swap ^= k_t;
            cswap(swap, &mut x2, &mut x3);
            cswap(swap, &mut z2, &mut z3);
            swap = k_t;

            let a = add(&x2, &z2);
            let aa = square(&a);
            let b = sub(&x2, &z2);
            let bb = square(&b);
            let e = sub(&aa, &bb);
            let c = add(&x3, &z3);
            let d = sub(&x3, &z3);
            let da = mul(&d, &a);
            let cb = mul(&c, &b);
            x3 = square(&add(&da, &cb));
            z3 = mul(&x1, &square(&sub(&da, &cb)));
            x2 = mul(&aa, &bb);
            z2 = mul(&e, &add(&aa, &mul_small(&e, A24)));
        }
        cswap(swap, &mut x2, &mut x3);
        cswap(swap, &mut z2, &mut z3);

        let xs = store(&x2);
        let zs = store(&z2);
        core::array::from_fn(|lane| (xs[lane], zs[lane]))
    }

    /// Eight lanes of a fully reduced radix-2⁵¹ element (every limb
    /// below 2⁵¹), re-cut into radix-2⁴³ limbs: limb `i` is bits
    /// `43i .. 43i + 43` of the value, gathered from the one or two 51-bit
    /// limbs they straddle.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn from_radix51(f: &[__m512i; 5]) -> FeV {
        let mask = splat(MASK43);
        let mut r = [
            f[0],
            _mm512_or_si512(_mm512_srli_epi64::<43>(f[0]), _mm512_slli_epi64::<8>(f[1])),
            _mm512_or_si512(_mm512_srli_epi64::<35>(f[1]), _mm512_slli_epi64::<16>(f[2])),
            _mm512_or_si512(_mm512_srli_epi64::<27>(f[2]), _mm512_slli_epi64::<24>(f[3])),
            _mm512_or_si512(_mm512_srli_epi64::<19>(f[3]), _mm512_slli_epi64::<32>(f[4])),
            _mm512_srli_epi64::<11>(f[4]),
        ];
        for limb in &mut r[..5] {
            *limb = _mm512_and_si512(*limb, mask);
        }
        FeV(r)
    }

    /// Eight points in extended coordinates, one per lane.
    #[derive(Clone, Copy)]
    struct ExtV {
        x: FeV,
        y: FeV,
        z: FeV,
        t: FeV,
    }

    /// The finishing multiplications of [`add_niels`] and [`double`], as
    /// the scalar `Ext::from_efgh`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn from_efgh(e: &FeV, f: &FeV, g: &FeV, h: &FeV) -> ExtV {
        ExtV {
            x: mul(e, f),
            y: mul(g, h),
            z: mul(f, g),
            t: mul(e, h),
        }
    }

    /// `p + q` per lane for an affine Niels `q = [y + x, y − x, 2d·x·y]`.
    /// Every subtrahend is a multiplication's (carried) output and every
    /// operand stays below 2⁴⁶.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn add_niels(p: &ExtV, q: &[FeV; 3]) -> ExtV {
        let a = mul(&add(&p.y, &p.x), &q[0]);
        let b = mul(&sub(&p.y, &p.x), &q[1]);
        let c = mul(&p.t, &q[2]);
        let d = add(&p.z, &p.z);
        from_efgh(&sub(&a, &b), &sub(&d, &c), &add(&d, &c), &add(&a, &b))
    }

    /// `2·p` per lane, the scalar `Ext::double` (same negated `F`, `H`).
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn double(p: &ExtV) -> ExtV {
        let xx = square(&p.x);
        let yy = square(&p.y);
        let zz = square(&p.z);
        let e = sub(&sub(&square(&add(&p.x, &p.y)), &xx), &yy);
        let g = sub(&yy, &xx);
        let f = sub(&add(&add(&zz, &zz), &xx), &yy);
        from_efgh(&e, &f, &g, &add(&xx, &yy))
    }

    /// Each lane's signed digit times the row's unit: every entry of the
    /// row is broadcast, in the table's radix-2⁵¹ limbs, and kept in the
    /// lanes whose `|digit|` it is (a vector compare per entry); what was
    /// kept is re-cut into radix-2⁴³ once, then the lanes whose digit is
    /// negative swap `y ± x` and negate `2d·x·y` by mask. A zero digit
    /// keeps the identity `(1, 1, 0)`.
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn select(row: &[Niels; ENTRIES], magnitudes: &__m512i, negative: __mmask8) -> [FeV; 3] {
        let zero = _mm512_setzero_si512();
        let mut t = [[zero; 5]; 3];
        t[0][0] = splat(1);
        t[1][0] = splat(1);
        for (j, entry) in (1..).zip(row) {
            let pick = _mm512_cmpeq_epi64_mask(*magnitudes, splat(j));
            let coordinates = [&entry.y_plus_x, &entry.y_minus_x, &entry.xy2d];
            for (lanes, fe) in t.iter_mut().zip(coordinates) {
                for (reg, &limb) in lanes.iter_mut().zip(&fe.0) {
                    *reg = _mm512_mask_mov_epi64(*reg, pick, splat(limb));
                }
            }
        }
        let mut y_plus_x = from_radix51(&t[0]);
        let mut y_minus_x = from_radix51(&t[1]);
        let mut xy2d = from_radix51(&t[2]);
        cswap(negative, &mut y_plus_x, &mut y_minus_x);
        let negated = sub(&fev_splat(0), &xy2d);
        for (reg, neg) in xy2d.0.iter_mut().zip(&negated.0) {
            *reg = _mm512_mask_mov_epi64(*reg, negative, *neg);
        }
        [y_plus_x, y_minus_x, xy2d]
    }

    /// The comb over eight pre-clamped scalars on one table, one per lane.
    /// Returns each lane's projective Montgomery pair for the caller's
    /// batched inversion; outputs equal the scalar `edwards::comb`
    /// lane for lane.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Ifma`] — callers select this
    /// tier only after checking it.
    pub fn comb8(table: &FixedBase, ks: &[[u8; KEY_LEN]; LANES]) -> [(Fe, Fe); LANES] {
        assert!(
            Tier::Ifma.available(),
            "IFMA comb selected on a CPU without it"
        );
        // Per digit position, every lane's magnitude (a vector row) and
        // the lanes whose digit is negative (a mask).
        let digits = ks.map(|k| edwards::digits(&k));
        let mut magnitudes = [[0u64; LANES]; DIGITS];
        let mut negative = [0 as __mmask8; DIGITS];
        for (lane, e) in digits.iter().enumerate() {
            for (i, &digit) in e.iter().enumerate() {
                let (magnitude, sign) = edwards::magnitude_and_sign(digit);
                magnitudes[i][lane] = magnitude;
                negative[i] |= (sign as u8) << lane;
            }
        }
        // SAFETY: the `Ifma` rung was just confirmed; it requires AVX-512
        // F and DQ (from the `Avx512` rung) and IFMA — the features
        // `comb8_lanes` enables.
        unsafe { comb8_lanes(table.rows(), &magnitudes, &negative) }
    }

    /// # Safety
    ///
    /// Requires AVX-512 F/DQ/IFMA, i.e. the CPU reaches [`Tier::Ifma`].
    #[target_feature(enable = "avx512f,avx512dq,avx512ifma")]
    unsafe fn comb8_lanes(
        rows: &[[Niels; ENTRIES]],
        magnitudes: &[[u64; LANES]; DIGITS],
        negative: &[__mmask8; DIGITS],
    ) -> [(Fe, Fe); LANES] {
        let mut h = ExtV {
            x: fev_splat(0),
            y: fev_splat(1),
            z: fev_splat(1),
            t: fev_splat(0),
        };
        for i in (1..DIGITS).step_by(2) {
            let magnitude = _mm512_loadu_si512(magnitudes[i].as_ptr().cast());
            h = add_niels(&h, &select(&rows[i / 2], &magnitude, negative[i]));
        }
        for _ in 0..4 {
            h = double(&h);
        }
        for i in (0..DIGITS).step_by(2) {
            let magnitude = _mm512_loadu_si512(magnitudes[i].as_ptr().cast());
            h = add_niels(&h, &select(&rows[i / 2], &magnitude, negative[i]));
        }
        let us = store(&add(&h.z, &h.y));
        let ws = store(&sub(&h.z, &h.y));
        core::array::from_fn(|lane| (us[lane], ws[lane]))
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn dedicated_square_matches_generic_mul_lane_for_lane() {
            if !Tier::Ifma.available() {
                return;
            }
            // Carried operands from the edges of the representation, one
            // per lane; then every add/sub level the ladder feeds a
            // squaring, and the raw documented operand bound 2⁴⁶ − 1.
            let carried: [[u64; 6]; LANES] = [
                [0; 6],
                [1, 0, 0, 0, 0, 0],
                point_limbs(&[0xff; KEY_LEN]),
                [
                    MASK43 + (1 << 27) - 1,
                    MASK43,
                    MASK43,
                    MASK43,
                    MASK43,
                    MASK43,
                ],
                point_limbs(&core::array::from_fn(|i| (i as u8).wrapping_mul(37) ^ 0x5a)),
                point_limbs(&core::array::from_fn(|i| {
                    (i as u8).wrapping_mul(101) ^ 0xc3
                })),
                [MASK43, 0, MASK43, 0, MASK43, 0],
                [0, MASK43, 0, MASK43, 0, MASK43],
            ];
            let rotated: [[u64; 6]; LANES] =
                core::array::from_fn(|lane| carried[(lane + 3) % LANES]);
            let bound = [[(1u64 << 46) - 1; 6]; LANES];
            // SAFETY: the `Ifma` rung was checked above.
            unsafe {
                let (a, b) = (load(&carried), load(&rotated));
                for operand in [a, b, add(&a, &b), sub(&a, &b), sub(&b, &a), load(&bound)] {
                    let squared = store(&square(&operand));
                    let multiplied = store(&mul(&operand, &operand));
                    for (lane, (s, m)) in squared.iter().zip(&multiplied).enumerate() {
                        assert_eq!(s.to_bytes(), m.to_bytes(), "lane {lane}");
                    }
                }
            }
        }

        #[test]
        fn swap_schedule_is_the_bit_transpose_of_the_scalars() {
            let ks: [[u8; KEY_LEN]; LANES] = core::array::from_fn(|lane| {
                core::array::from_fn(|i| {
                    (i as u8)
                        .wrapping_mul(29)
                        .wrapping_add((lane as u8).wrapping_mul(71))
                })
            });
            let schedule = transpose_bits(&ks);
            for (t, bits) in schedule.iter().enumerate() {
                for (lane, k) in ks.iter().enumerate() {
                    assert_eq!((bits >> lane) & 1, (k[t / 8] >> (t % 8)) & 1);
                }
            }
        }
    }
}

/// Derives the public key for a secret scalar: `x25519(secret, 9)`,
/// through the comb over the base point's table.
pub fn public_key(secret: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    let mut public = [0u8; KEY_LEN];
    let job = (*secret, Base::Table(FixedBase::basepoint()));
    scalarmult_each(Tier::best(), [job], |_, u| public = u);
    public
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex32(s: &str) -> [u8; 32] {
        let v: Vec<u8> = (0..64)
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect();
        v.try_into().unwrap()
    }

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// RFC 7748 §5.2, test vector 1.
    #[test]
    fn rfc7748_vector_1() {
        let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
        let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
        let out = x25519(&scalar, &point);
        assert_eq!(
            hex(&out),
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        );
    }

    /// RFC 7748 §5.2, test vector 2.
    #[test]
    fn rfc7748_vector_2() {
        let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
        let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
        let out = x25519(&scalar, &point);
        assert_eq!(
            hex(&out),
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        );
    }

    /// RFC 7748 §6.1: the full Diffie–Hellman exchange.
    #[test]
    fn rfc7748_diffie_hellman() {
        let alice_priv =
            unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob_priv = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = public_key(&alice_priv);
        assert_eq!(
            hex(&alice_pub),
            "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
        );
        let bob_pub = public_key(&bob_priv);
        assert_eq!(
            hex(&bob_pub),
            "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
        );
        let shared_a = x25519(&alice_priv, &bob_pub);
        let shared_b = x25519(&bob_priv, &alice_pub);
        assert_eq!(shared_a, shared_b);
        assert_eq!(
            hex(&shared_a),
            "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
        );
    }

    /// RFC 7748 §5.2 iterated test, 1 iteration.
    #[test]
    fn rfc7748_iterated_once() {
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        let r = x25519(&k, &u);
        u = k;
        k = r;
        let _ = u;
        assert_eq!(
            hex(&k),
            "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079"
        );
    }

    /// RFC 7748 §5.2 iterated test, 1000 iterations. Slow in debug builds —
    /// run with `cargo test --release -- --ignored` to include it.
    #[test]
    #[ignore = "takes ~10s in debug builds; passes in release"]
    fn rfc7748_iterated_thousand() {
        let mut k = BASEPOINT;
        let mut u = BASEPOINT;
        for _ in 0..1000 {
            let r = x25519(&k, &u);
            u = k;
            k = r;
        }
        assert_eq!(
            hex(&k),
            "684cf59ba83309552800ef566f2f4d3c1c3887c49360e3875f2eb94d99532c51"
        );
    }

    #[test]
    fn field_round_trip() {
        let bytes = unhex32("0102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f10");
        let fe = Fe::from_bytes(&bytes);
        assert_eq!(fe.to_bytes(), bytes);
    }

    #[test]
    fn field_inverse() {
        let bytes = unhex32("0900000000000000000000000000000000000000000000000000000000000000");
        let fe = Fe::from_bytes(&bytes);
        let prod = fe.mul(&fe.invert());
        assert_eq!(prod.to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn canonical_reduction_of_p_plus_one() {
        // p + 1 must serialize as 1.
        let p_plus_1 = unhex32("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        let fe = Fe::from_bytes(&p_plus_1);
        // from_bytes drops the top bit only; p+1 < 2^255 so it is parsed
        // in full and must reduce to 1 on serialization.
        assert_eq!(fe.to_bytes(), Fe::ONE.to_bytes());
    }

    #[test]
    fn cswap_behaviour() {
        let mut a = Fe([1, 2, 3, 4, 5]);
        let mut b = Fe([9, 8, 7, 6, 5]);
        Fe::cswap(0, &mut a, &mut b);
        assert_eq!(a.0, [1, 2, 3, 4, 5]);
        Fe::cswap(1, &mut a, &mut b);
        assert_eq!(a.0, [9, 8, 7, 6, 5]);
        assert_eq!(b.0, [1, 2, 3, 4, 5]);
    }

    #[test]
    fn clamping_fixes_bits() {
        let k = clamp(&[0xffu8; 32]);
        assert_eq!(k[0] & 7, 0);
        assert_eq!(k[31] & 128, 0);
        assert_eq!(k[31] & 64, 64);
    }

    #[test]
    fn dedicated_square_matches_generic_mul() {
        // Exercise the full limb range the ladder can feed a squaring:
        // raw parses plus add/sub outputs (limbs up to 2⁵⁴).
        let samples = [
            Fe::ZERO,
            Fe::ONE,
            Fe::from_bytes(&[0xffu8; 32]),
            Fe::from_bytes(&unhex32(
                "0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcd0f",
            )),
        ];
        for a in &samples {
            for b in &samples {
                let wide = a.add(b).sub(&b.sub(a));
                assert_eq!(wide.square().to_bytes(), wide.mul(&wide).to_bytes());
            }
        }
    }

    /// One scalar against many points through the driver, as a recipient
    /// opening a round's envelopes (`SealedBox::prepare_open`) runs it:
    /// the case where every lane's swap bits agree.
    fn batch_on(tier: Tier, secret: &[u8; 32], points: &[[u8; 32]]) -> Vec<[u8; 32]> {
        x25519_multi_on(tier, &vec![*secret; points.len()], points)
    }

    /// `x25519(k, u)` for each scalar through the comb over `u`'s table.
    fn comb_on(tier: Tier, table: &FixedBase, scalars: &[[u8; 32]]) -> Vec<[u8; 32]> {
        let mut out = vec![[0u8; 32]; scalars.len()];
        fixed_base_on(tier, table, scalars, &mut out);
        out
    }

    /// The u-coordinates the ladder tests use as points beyond honest
    /// keys: the low-order u = 0 and u = 1 (and 1 written as p + 1),
    /// p − 1 (≡ −1), p (≡ 0), the all-ones string (top bit set), and the
    /// base point with its top bit set.
    fn edge_points() -> Vec<[u8; 32]> {
        let mut one = [0u8; 32];
        one[0] = 1;
        let mut high_nine = BASEPOINT;
        high_nine[31] |= 0x80;
        vec![
            [0u8; 32],
            one,
            unhex32("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            high_nine,
        ]
    }

    #[test]
    fn batch_matches_per_point_scalarmult() {
        let secret = [0x6bu8; 32];
        let points: Vec<[u8; 32]> = (0u8..7)
            .map(|i| public_key(&[i.wrapping_mul(53).wrapping_add(11); 32]))
            .collect();
        for tier in Tier::runnable(TIERS) {
            let batched = batch_on(tier, &secret, &points);
            for (point, out) in points.iter().zip(&batched) {
                assert_eq!(*out, x25519(&secret, point), "{tier:?}");
            }
            assert!(batch_on(tier, &secret, &[]).is_empty());
        }
    }

    #[test]
    fn batch_preserves_low_order_zero_outputs() {
        // u = 0 and u = 1 are low-order points: clamped scalars are
        // multiples of 8, so the ladder collapses to the all-zero output.
        // Mixed into a batch they must neither change nor be changed by
        // their well-formed neighbours.
        let secret = [0x42u8; 32];
        let zero = [0u8; 32];
        let mut one = [0u8; 32];
        one[0] = 1;
        let good = public_key(&[9u8; 32]);
        let points = [good, zero, one, good];
        for tier in Tier::runnable(TIERS) {
            let batched = batch_on(tier, &secret, &points);
            assert_eq!(batched[0], x25519(&secret, &good));
            assert_eq!(batched[1], [0u8; 32]);
            assert_eq!(batched[2], [0u8; 32]);
            assert_eq!(batched[3], batched[0]);
        }
        assert_eq!(x25519(&secret, &zero), [0u8; 32]);
        assert_eq!(x25519(&secret, &one), [0u8; 32]);
    }

    #[test]
    fn batch_matches_per_point_at_every_group_split() {
        // Cover every vector/scalar split the driver can take on an IFMA
        // host: below MIN_POINTS (all scalar), exactly one padded group, a
        // full group, full group + scalar tail, full group + padded group.
        let secret = [0x2du8; 32];
        let points: Vec<[u8; 32]> = (0u8..21)
            .map(|i| public_key(&[i.wrapping_mul(29).wrapping_add(3); 32]))
            .collect();
        for tier in Tier::runnable(TIERS) {
            for len in [1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 17, 21] {
                let batched = batch_on(tier, &secret, &points[..len]);
                for (point, out) in points[..len].iter().zip(&batched) {
                    assert_eq!(*out, x25519(&secret, point), "{tier:?}, batch len {len}");
                }
            }
        }
    }

    #[test]
    fn batch_matches_per_point_on_edge_points() {
        // Non-canonical and boundary u-coordinates exercise the top-bit
        // masking and reduction of the wide ladder.
        let secret = [0x91u8; 32];
        let mut points = edge_points();
        points.push(BASEPOINT);
        for tier in Tier::runnable(TIERS) {
            let batched = batch_on(tier, &secret, &points);
            for (point, out) in points.iter().zip(&batched) {
                assert_eq!(*out, x25519(&secret, point), "{tier:?}");
            }
        }
    }

    /// Scalars that stress the comb's recoding: all-zero and all-`0xff`
    /// before clamping, every nibble 8 (a carry through all 63 digits),
    /// a top byte whose nibble plus the carry makes the top digit 8,
    /// then pseudo-random ones.
    fn comb_scalars(random: usize) -> Vec<[u8; 32]> {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut top_carry = [0xf8u8; 32];
        top_carry[31] = 0x7f;
        let mut scalars = vec![[0u8; 32], [0xff; 32], [0x88; 32], top_carry];
        let mut rng = StdRng::seed_from_u64(25);
        scalars.extend((0..random).map(|_| {
            let mut k = [0u8; 32];
            rng.fill(&mut k);
            k
        }));
        scalars
    }

    #[test]
    fn comb_matches_the_ladder_on_the_base_point_and_random_keys_on_every_tier() {
        let scalars = comb_scalars(256);
        let mut bases = vec![BASEPOINT];
        bases.extend((0u8..4).map(|i| public_key(&[i.wrapping_mul(77).wrapping_add(2); 32])));
        for u in &bases {
            let table = FixedBase::new(u).expect("a public key lies on the curve");
            let expected: Vec<[u8; 32]> = scalars.iter().map(|k| x25519(k, u)).collect();
            for tier in Tier::runnable(TIERS) {
                assert_eq!(comb_on(tier, &table, &scalars), expected, "{tier:?}");
            }
        }
    }

    #[test]
    fn comb_matches_the_ladder_on_low_order_mixed_order_and_non_canonical_points() {
        // Mixed order: a key plus the order-4 point (u = 1), added on the
        // Edwards side. A clamped scalar kills the small component, which
        // the unreduced scalar does and `k mod ℓ` would not.
        let key = edwards::Ext::from_montgomery(&Fe::from_bytes(&public_key(&[3; 32]))).unwrap();
        let order4 = edwards::Ext::from_montgomery(&Fe::ONE).unwrap();
        let (u, w) = key.add(&order4).to_montgomery();
        let mixed = u.mul(&w.invert()).to_bytes();
        let mut points = edge_points();
        points.push(mixed);
        let scalars = comb_scalars(12);
        let mut tables = 0;
        for u in &points {
            let Some(table) = FixedBase::new(u) else {
                continue;
            };
            tables += 1;
            let expected: Vec<[u8; 32]> = scalars.iter().map(|k| x25519(k, u)).collect();
            for tier in Tier::runnable(TIERS) {
                assert_eq!(
                    comb_on(tier, &table, &scalars),
                    expected,
                    "{tier:?}, u {u:02x?}"
                );
            }
        }
        // All but p − 1 (≡ −1, no Edwards image) have a table.
        assert_eq!(tables, points.len() - 1);
        let mut low_order = points[..2].to_vec();
        low_order.push(points[4]); // p + 1 ≡ 1
        low_order.push(points[3]); // p ≡ 0
        for u in &low_order {
            let table = FixedBase::new(u).expect("u = 0 and u = 1 lie on the curve");
            assert!(comb_on(Tier::Scalar, &table, &scalars)
                .iter()
                .all(|out| *out == [0u8; 32]));
        }
    }

    #[test]
    fn twist_points_and_minus_one_build_no_table() {
        // Euler's criterion on v² = u³ + 486662·u² + u, independently of
        // the table's square root: a square right-hand side is a curve
        // point, a non-square one a twist point.
        let is_square = |z: &Fe| {
            let chi = z.pow22523().square().square().mul(&z.square());
            chi.to_bytes() == Fe::ONE.to_bytes() || z.is_zero()
        };
        let mut twists = 0;
        for small in 2u8..40 {
            let mut bytes = [0u8; 32];
            bytes[0] = small;
            let u = Fe::from_bytes(&bytes);
            let rhs = u
                .square()
                .mul(&u)
                .add(&u.square().mul_small(486_662))
                .add(&u);
            assert_eq!(
                FixedBase::new(&bytes).is_some(),
                is_square(&rhs),
                "u = {small}"
            );
            twists += usize::from(!is_square(&rhs));
        }
        assert!(twists > 0, "the sweep must include twist points");
        let minus_one = unhex32("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f");
        assert!(FixedBase::new(&minus_one).is_none());
    }

    #[test]
    fn ifma_comb_matches_the_scalar_comb_lane_for_lane_at_every_group_size() {
        // Shown by CI (`--nocapture`): a runner without the wide tier says
        // it pinned only the scalar comb.
        println!("x25519 comb tiers exercised: {:?}", Tier::runnable(TIERS));
        // 1..=33 jobs on one table, a different digit pattern per lane:
        // below MIN_COMBS (scalar comb), one padded pass, full passes,
        // full passes + scalar or padded tails.
        let table = FixedBase::new(&public_key(&[0x5c; 32])).unwrap();
        let scalars = comb_scalars(29);
        let expected = comb_on(Tier::Scalar, &table, &scalars);
        for tier in Tier::runnable(TIERS) {
            for len in 1..=scalars.len() {
                assert_eq!(
                    comb_on(tier, &table, &scalars[..len]),
                    expected[..len],
                    "{tier:?}, {len} jobs"
                );
            }
        }
    }

    #[test]
    fn the_driver_groups_comb_jobs_by_table_among_ladder_jobs() {
        // Two tables and bare points interleaved, as `SealedBox::seal` to a
        // bare key (base table + ladder) and `prepare` to keys with tables
        // mix them: every job comes out as its own `x25519`, in job order.
        let keys = [public_key(&[0x11; 32]), public_key(&[0x22; 32])];
        let table = FixedBase::new(&keys[0]).unwrap();
        let scalars = comb_scalars(20);
        let bases: Vec<Base<'_>> = (0..scalars.len())
            .map(|i| match i % 3 {
                0 => Base::Table(FixedBase::basepoint()),
                1 => Base::Table(&table),
                _ => Base::Point(keys[1]),
            })
            .collect();
        let point = |i: usize| [BASEPOINT, keys[0], keys[1]][i % 3];
        for tier in Tier::runnable(TIERS) {
            let mut seen = 0;
            let jobs = scalars.iter().copied().zip(bases.iter().copied());
            scalarmult_each(tier, jobs, |i, u| {
                assert_eq!(i, seen);
                assert_eq!(u, x25519(&scalars[i], &point(i)), "{tier:?}, job {i}");
                seen += 1;
            });
            assert_eq!(seen, scalars.len());
        }
    }

    #[test]
    fn multi_matches_per_pair_at_every_lane_split_on_every_tier() {
        // Shown by CI (`--nocapture`): a runner without the wide tiers
        // says it pinned only the scalar twin.
        println!("x25519 tiers exercised: {:?}", Tier::runnable(TIERS));
        // 1..=33 jobs with distinct scalars *and* points: below
        // MIN_POINTS (scalar ladder), one padded pass, full passes, full
        // passes + scalar tail, full passes + padded pass.
        let scalars: Vec<[u8; 32]> = (0u8..33)
            .map(|i| core::array::from_fn(|j| i.wrapping_mul(59) ^ (j as u8).wrapping_mul(13)))
            .collect();
        let points: Vec<[u8; 32]> = (0u8..33)
            .map(|i| public_key(&[i.wrapping_mul(31).wrapping_add(5); 32]))
            .collect();
        let expected: Vec<[u8; 32]> = scalars
            .iter()
            .zip(&points)
            .map(|(k, p)| x25519(k, p))
            .collect();
        for tier in Tier::runnable(TIERS) {
            for len in 0..=33 {
                assert_eq!(
                    x25519_multi_on(tier, &scalars[..len], &points[..len]),
                    expected[..len],
                    "{tier:?}, {len} jobs"
                );
            }
        }
    }

    #[test]
    fn multi_spans_driver_chunks() {
        // More jobs than one stack chunk: every chunk inverts on its own
        // and the sink still sees every job once, in order.
        let n = 2 * CHUNK + 3;
        let scalars: Vec<[u8; 32]> = (0..n)
            .map(|i| [(i as u8).wrapping_mul(7) | 1; 32])
            .collect();
        let points: Vec<[u8; 32]> = (0..n)
            .map(|i| if i % 5 == 0 { [0u8; 32] } else { BASEPOINT })
            .collect();
        for tier in Tier::runnable(TIERS) {
            let mut seen = 0;
            // Every other base-point job through the comb, so both kinds
            // straddle the chunk boundaries.
            let jobs = scalars.iter().zip(&points).enumerate().map(|(i, (k, p))| {
                let base = if i % 2 == 0 && *p == BASEPOINT {
                    Base::Table(FixedBase::basepoint())
                } else {
                    Base::Point(*p)
                };
                (*k, base)
            });
            scalarmult_each(tier, jobs, |i, u| {
                assert_eq!(i, seen);
                assert_eq!(u, x25519(&scalars[i], &points[i]), "{tier:?}, job {i}");
                seen += 1;
            });
            assert_eq!(seen, n);
        }
    }

    /// The RFC 7748 §5.2 and §6.1 vectors as independent jobs of one
    /// batch — on the IFMA tier, different lanes of one pass, each with
    /// its own scalar and its own point.
    #[test]
    fn rfc7748_vectors_share_one_pass_in_different_lanes() {
        let alice = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
        let bob = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
        let alice_pub = unhex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a");
        let bob_pub = unhex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f");
        let shared = "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742";
        let jobs = [
            (
                unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"),
                unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
                "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552",
            ),
            (
                unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"),
                unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"),
                "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957",
            ),
            (alice, BASEPOINT, &hex(&alice_pub)[..]),
            (bob, BASEPOINT, &hex(&bob_pub)[..]),
            (alice, bob_pub, shared),
            (bob, alice_pub, shared),
            (
                BASEPOINT,
                BASEPOINT,
                "422c8e7a6227d7bca1350b3e2bb7279f7897b87bb6854b783c60e80311ae3079",
            ),
        ];
        let scalars: Vec<[u8; 32]> = jobs.iter().map(|j| j.0).collect();
        let points: Vec<[u8; 32]> = jobs.iter().map(|j| j.1).collect();
        for tier in Tier::runnable(TIERS) {
            let out = x25519_multi_on(tier, &scalars, &points);
            for (got, job) in out.iter().zip(&jobs) {
                assert_eq!(hex(got), job.2, "{tier:?}");
            }
        }
    }

    #[test]
    fn multi_isolates_low_order_points_per_lane() {
        // A low-order point in one lane collapses that lane alone to the
        // all-zero output; neighbours with other scalars are untouched.
        let mut one = [0u8; 32];
        one[0] = 1;
        let good = public_key(&[9u8; 32]);
        let scalars = [[0x42u8; 32], [0x43; 32], [0x44; 32], [0x45; 32], [0x46; 32]];
        let points = [good, [0u8; 32], good, one, good];
        for tier in Tier::runnable(TIERS) {
            let out = x25519_multi_on(tier, &scalars, &points);
            for ((k, p), got) in scalars.iter().zip(&points).zip(&out) {
                assert_eq!(*got, x25519(k, p), "{tier:?}");
            }
            assert_eq!(out[1], [0u8; 32]);
            assert_eq!(out[3], [0u8; 32]);
        }
    }

    #[test]
    #[should_panic(expected = "one scalar per point")]
    fn multi_rejects_mismatched_lengths() {
        x25519_multi(&[[1u8; 32]], &[]);
    }

    #[test]
    fn shared_secret_symmetry_random_keys() {
        // A couple of fixed "random" key pairs beyond the RFC vectors.
        for seed in 0u8..4 {
            let a = [seed.wrapping_mul(37).wrapping_add(1); 32];
            let b = [seed.wrapping_mul(91).wrapping_add(7); 32];
            let pa = public_key(&a);
            let pb = public_key(&b);
            assert_eq!(x25519(&a, &pb), x25519(&b, &pa));
        }
    }
}
