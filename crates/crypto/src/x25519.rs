//! X25519 Diffie–Hellman over Curve25519 (RFC 7748).
//!
//! Participants derive a shared secret with the enclave's public key; the
//! sealed box then encrypts model updates under keys derived from that
//! secret. The implementation follows the RFC 7748 Montgomery ladder with
//! branch-free conditional swaps and radix-2⁵¹ field arithmetic
//! (five 51-bit limbs, u128 intermediate products), validated against the
//! RFC test vectors including the iterated-scalar-multiplication test.
//!
//! The field layer carries the performance: a dedicated `Fe::square`
//! (10 wide multiplies instead of the generic 25) feeds both the ladder
//! — whose per-bit step is square-heavy — and the addition-chain
//! `Fe::invert` (254 squarings + 11 multiplications, down from the
//! naive Fermat loop's 255 + 128).
//!
//! Many scalar multiplications at once — [`x25519_batch`] (one scalar,
//! many points: a hop opening a round's envelopes) and [`x25519_multi`]
//! (a scalar *per* point: a client sealing one onion) — share one driver.
//! It folds the per-job final inversion into one inversion plus three
//! multiplications per job (Montgomery's trick), and on AVX-512 IFMA
//! hosts runs the ladders eight to a pass through a `vpmadd52` kernel
//! (the private `ifma` module) whose conditional swaps take a per-lane
//! mask, so every lane may carry its own scalar. Outputs are
//! bit-identical to [`x25519`] on every tier.

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
        let a: [u128; 5] = [
            u128::from(self.0[0]),
            u128::from(self.0[1]),
            u128::from(self.0[2]),
            u128::from(self.0[3]),
            u128::from(self.0[4]),
        ];
        let b: [u128; 5] = [
            u128::from(other.0[0]),
            u128::from(other.0[1]),
            u128::from(other.0[2]),
            u128::from(other.0[3]),
            u128::from(other.0[4]),
        ];
        let mut r = [0u128; 5];
        r[0] = a[0] * b[0] + 19 * (a[1] * b[4] + a[2] * b[3] + a[3] * b[2] + a[4] * b[1]);
        r[1] = a[0] * b[1] + a[1] * b[0] + 19 * (a[2] * b[4] + a[3] * b[3] + a[4] * b[2]);
        r[2] = a[0] * b[2] + a[1] * b[1] + a[2] * b[0] + 19 * (a[3] * b[4] + a[4] * b[3]);
        r[3] = a[0] * b[3] + a[1] * b[2] + a[2] * b[1] + a[3] * b[0] + 19 * (a[4] * b[4]);
        r[4] = a[0] * b[4] + a[1] * b[3] + a[2] * b[2] + a[3] * b[1] + a[4] * b[0];
        Fe::carry(r)
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

    /// Multiplicative inverse via Fermat: `self^(p−2)`, p−2 = 2²⁵⁵ − 21,
    /// computed with the standard Curve25519 addition chain (254
    /// squarings + 11 multiplications). `invert(0) = 0`, which the
    /// ladder relies on for low-order inputs.
    fn invert(&self) -> Fe {
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
        let p250 = p200.square_n(50).mul(&p50);
        // 2²⁵⁵ − 32 + 11 = 2²⁵⁵ − 21.
        p250.square_n(5).mul(&z11)
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

/// Batched X25519: one scalar against many points, as the sealed box
/// uses it to derive a round's shared secrets from one recipient secret
/// and many ephemeral points.
///
/// The per-point final inversion — the single most expensive field
/// operation — is shared across the batch with Montgomery's trick
/// (`batch_invert`). Outputs are bit-identical to calling [`x25519`]
/// per point: the batched inverses are the same field elements, and
/// serialization is canonical.
///
/// Note the batch inversion branches on which `z` coordinates are zero
/// (public information once the all-zero outputs are rejected by the
/// caller's contributory-behavior check); the per-point ladder itself
/// stays branch-free in the scalar bits.
pub fn x25519_batch(scalar: &[u8; KEY_LEN], points: &[[u8; KEY_LEN]]) -> Vec<[u8; KEY_LEN]> {
    let mut out = Vec::with_capacity(points.len());
    let jobs = points.iter().map(|point| (*scalar, *point));
    scalarmult_each(Tier::best(), jobs, |_, u| out.push(u));
    out
}

/// Batched X25519 with a scalar **per point**: `out[i] = x25519(scalars[i],
/// points[i])`, as a client sealing an onion needs it (every envelope has
/// its own ephemeral secret, multiplied once with the base point and once
/// with a hop key).
///
/// Shares the driver of [`x25519_batch`] — same batched inversion, same
/// lane kernel, same note on what the inversion may branch on — and is
/// bit-identical to calling [`x25519`] per pair.
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
    let jobs = scalars.iter().zip(points).map(|(k, p)| (*k, *p));
    scalarmult_each(tier, jobs, |_, u| out.push(u));
    out
}

/// Which ladder implementation the batched driver fills lanes with.
///
/// An argument rather than ambient state so the tests can pin every
/// tier the host supports against the scalar definition; production
/// callers pass [`Tier::best`]. Outputs do not depend on the tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// One radix-2⁵¹ [`ladder`] per job.
    Scalar,
    /// Eight jobs per pass of the AVX-512 IFMA kernel; groups too small
    /// to pay for a pass take the scalar ladder. Only [`Tier::best`] hands
    /// this out, and only on a CPU that has the kernel.
    Ifma,
}

impl Tier {
    /// The fastest tier the running CPU supports.
    pub(crate) fn best() -> Tier {
        #[cfg(target_arch = "x86_64")]
        if ifma::available() {
            return Tier::Ifma;
        }
        Tier::Scalar
    }

    /// Every tier the running CPU supports, scalar first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Tier> {
        let mut tiers = vec![Tier::Scalar];
        if Tier::best() == Tier::Ifma {
            tiers.push(Tier::Ifma);
        }
        tiers
    }
}

/// Jobs per stack-resident chunk of the batched driver. Each chunk
/// shares one field inversion, so the 2·L·H ladders of any realistic
/// onion (30 on a 5-layer, 3-hop update) pay for exactly one; a longer
/// batch pays one per 64 jobs — under 0.2% of the ladders it follows —
/// and in exchange the driver never touches the heap.
const CHUNK: usize = 64;

/// The batched driver behind [`x25519_batch`], [`x25519_multi`] and the
/// sealed box's prepare phase: computes `x25519(scalar, point)` for every
/// `(scalar, point)` job and hands `sink` each result with its job index,
/// in job order.
pub(crate) fn scalarmult_each<I, F>(tier: Tier, jobs: I, mut sink: F)
where
    I: IntoIterator<Item = ([u8; KEY_LEN], [u8; KEY_LEN])>,
    F: FnMut(usize, [u8; KEY_LEN]),
{
    let mut jobs = jobs.into_iter();
    let mut ks = [[0u8; KEY_LEN]; CHUNK];
    let mut points = [[0u8; KEY_LEN]; CHUNK];
    let mut xs = [Fe::ZERO; CHUNK];
    let mut zs = [Fe::ZERO; CHUNK];
    let mut prefix = [Fe::ZERO; CHUNK];
    let mut emitted = 0;
    loop {
        let mut n = 0;
        for (scalar, point) in jobs.by_ref().take(CHUNK) {
            ks[n] = clamp(&scalar);
            points[n] = point;
            n += 1;
        }
        if n == 0 {
            return;
        }
        ladders(tier, &ks[..n], &points[..n], &mut xs[..n], &mut zs[..n]);
        batch_invert(&mut zs[..n], &mut prefix[..n]);
        for (x2, z2_inv) in xs[..n].iter().zip(&zs[..n]) {
            sink(emitted, x2.mul(z2_inv).to_bytes());
            emitted += 1;
        }
    }
}

/// Projective `(x, z)` of `ks[i] · points[i]` for pre-clamped scalars.
///
/// On the IFMA tier the jobs go eight to a pass (a short final group is
/// padded by repeating its first job — same pass cost, surplus lanes
/// discarded); groups too small to pay for a padded pass fall through to
/// the scalar ladder.
fn ladders(
    tier: Tier,
    ks: &[[u8; KEY_LEN]],
    points: &[[u8; KEY_LEN]],
    xs: &mut [Fe],
    zs: &mut [Fe],
) {
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::Ifma {
        while ks.len() - done >= ifma::MIN_POINTS {
            let n = (ks.len() - done).min(ifma::LANES);
            let mut lane_ks = [ks[done]; ifma::LANES];
            let mut lane_points = [points[done]; ifma::LANES];
            lane_ks[..n].copy_from_slice(&ks[done..done + n]);
            lane_points[..n].copy_from_slice(&points[done..done + n]);
            let out = ifma::ladder8(&lane_ks, &lane_points);
            for (lane, &(x2, z2)) in out.iter().take(n).enumerate() {
                xs[done + lane] = x2;
                zs[done + lane] = z2;
            }
            done += n;
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    for i in done..ks.len() {
        (xs[i], zs[i]) = ladder(&ks[i], &points[i]);
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

/// AVX-512 IFMA eight-lane Montgomery ladder.
///
/// Every X25519 ladder runs the same 255 steps whatever its scalar; only
/// the conditional swaps differ, and those are branch-free masked moves.
/// So eight independent `(scalar, point)` jobs fit the 512-bit `vpmadd52`
/// lanes in lockstep: the scalars' bits are transposed into one `u8` per
/// step (bit `lane` = that lane's scalar bit) and each step's swap takes
/// the byte as a per-lane write mask. One scalar against eight points
/// ([`super::x25519_batch`]) is the case where all eight bits agree.
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
    use super::{Fe, KEY_LEN};
    use core::arch::x86_64::*;
    use std::sync::OnceLock;

    /// Jobs processed per ladder pass.
    pub const LANES: usize = 8;
    /// Smallest group worth a (padded) vector pass. Measured on the
    /// reference box, a pass costs 69 µs whatever its fill against 40 µs
    /// per scalar ladder, so it wins from two jobs up (`cargo bench
    /// --bench crypto`: `x25519/multi_scalar/2` against two
    /// `x25519/scalarmult`) — a lone ladder stays scalar.
    pub const MIN_POINTS: usize = 2;

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

    /// Whether the running CPU has the required AVX-512 subsets (cached).
    pub fn available() -> bool {
        static AVAILABLE: OnceLock<bool> = OnceLock::new();
        *AVAILABLE.get_or_init(|| {
            std::arch::is_x86_feature_detected!("avx512ifma")
                && std::arch::is_x86_feature_detected!("avx512dq")
        })
    }

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
    /// Panics unless [`available`] — callers select this tier only after
    /// checking it.
    pub fn ladder8(
        ks: &[[u8; KEY_LEN]; LANES],
        points: &[[u8; KEY_LEN]; LANES],
    ) -> [(Fe, Fe); LANES] {
        assert!(available(), "IFMA ladder selected on a CPU without it");
        // SAFETY: `available()` just confirmed AVX-512 F (implied by the
        // other two), DQ and IFMA — the features `ladder8_lanes` enables.
        unsafe { ladder8_lanes(ks, points) }
    }

    /// # Safety
    ///
    /// Requires AVX-512 F/DQ/IFMA, i.e. [`available`] returned `true`.
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

    #[cfg(test)]
    mod tests {
        use super::*;

        #[test]
        fn dedicated_square_matches_generic_mul_lane_for_lane() {
            if !available() {
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
            // SAFETY: `available()` checked above.
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

/// Derives the public key for a secret scalar: `x25519(secret, 9)`.
pub fn public_key(secret: &[u8; KEY_LEN]) -> [u8; KEY_LEN] {
    x25519(secret, &BASEPOINT)
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

    #[test]
    fn batch_matches_per_point_scalarmult() {
        let secret = [0x6bu8; 32];
        let points: Vec<[u8; 32]> = (0u8..7)
            .map(|i| public_key(&[i.wrapping_mul(53).wrapping_add(11); 32]))
            .collect();
        let batched = x25519_batch(&secret, &points);
        for (point, out) in points.iter().zip(&batched) {
            assert_eq!(*out, x25519(&secret, point));
        }
        assert!(x25519_batch(&secret, &[]).is_empty());
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
        let batched = x25519_batch(&secret, &points);
        assert_eq!(batched[0], x25519(&secret, &good));
        assert_eq!(batched[1], [0u8; 32]);
        assert_eq!(batched[2], [0u8; 32]);
        assert_eq!(batched[3], batched[0]);
        assert_eq!(x25519(&secret, &zero), [0u8; 32]);
        assert_eq!(x25519(&secret, &one), [0u8; 32]);
    }

    #[test]
    fn batch_matches_per_point_at_every_group_split() {
        // Cover every vector/scalar split the batch driver can take on an
        // IFMA host: below MIN_POINTS (all scalar), exactly one padded
        // group, a full group, full group + scalar tail, full group +
        // padded group. On other hosts this degenerates to scalar-vs-
        // scalar, which must still agree.
        let secret = [0x2du8; 32];
        let points: Vec<[u8; 32]> = (0u8..21)
            .map(|i| public_key(&[i.wrapping_mul(29).wrapping_add(3); 32]))
            .collect();
        for len in [1, 2, 3, 4, 5, 7, 8, 9, 11, 12, 16, 17, 21] {
            let batched = x25519_batch(&secret, &points[..len]);
            for (point, out) in points[..len].iter().zip(&batched) {
                assert_eq!(*out, x25519(&secret, point), "batch len {len}");
            }
        }
    }

    #[test]
    fn batch_matches_per_point_on_edge_points() {
        // Non-canonical and boundary u-coordinates exercise the top-bit
        // masking and reduction of the wide ladder: p − 1, p, p + 1, the
        // all-ones string (top bit set), and 2²⁵⁵ − 1 − 19 ≡ p via the
        // dropped bit.
        let secret = [0x91u8; 32];
        let points = [
            unhex32("ecffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("edffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("eeffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff7f"),
            unhex32("ffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffff"),
            BASEPOINT,
            [0u8; 32],
        ];
        let batched = x25519_batch(&secret, &points);
        for (point, out) in points.iter().zip(&batched) {
            assert_eq!(*out, x25519(&secret, point));
        }
    }

    #[test]
    fn multi_matches_per_pair_at_every_lane_split_on_every_tier() {
        // Shown by CI (`--nocapture`): a runner without the wide tiers
        // says it pinned only the scalar twin.
        println!("x25519 tiers exercised: {:?}", Tier::supported());
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
        for tier in Tier::supported() {
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
        for tier in Tier::supported() {
            let mut seen = 0;
            let jobs = scalars.iter().zip(&points).map(|(k, p)| (*k, *p));
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
        for tier in Tier::supported() {
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
        for tier in Tier::supported() {
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
