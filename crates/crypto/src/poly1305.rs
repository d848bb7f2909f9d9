//! The Poly1305 one-time authenticator (RFC 8439 §2.5) and the AEAD tag
//! built on it (§2.8).
//!
//! Authenticates every sealed box: the tag is the polynomial
//! `Σ mᵢ·r^(n−i) mod 2¹³⁰ − 5`, plus `s`, over the message's 16-byte
//! blocks `mᵢ` (each with a 2¹²⁸ bit on top), under a key `r ‖ s` that
//! must never authenticate two messages — the sealed box draws it from
//! the envelope's own ChaCha20 keystream, so it never does.
//!
//! The accumulator and `r` live in radix-2⁴⁴ limbs (44/44/42 bits), the
//! layout whose column products `vpmadd52` takes directly:
//!
//! | tier | blocks per pass | engaged from | needs rung |
//! |---|---|---|---|
//! | AVX-512 IFMA | 8 | 128 B | [`Tier::Ifma`] |
//! | scalar | 1 | the tail | — |
//!
//! The scalar tier is Horner's rule one block at a time, `h ← (h + m)·r`,
//! with `u128` column sums and the wrap 2¹³² ≡ 20 folded into `s = 20·r`;
//! it is the definition, and it absorbs whatever the wide tier's pass
//! size does not divide — the AEAD's 32-byte AAD, the tail under 128
//! bytes and the length block. The wide tier is the same polynomial
//! regrouped: lane `j` of eight runs Horner in `r⁸` over blocks `j`,
//! `j + 8`, …, the last pass multiplies lane `j` by `r^(8−j)` instead,
//! and the lanes' sum is the scalar accumulator after the same blocks
//! (congruent mod p, not limb-identical; the tag is). The accumulator a
//! pass starts from enters in lane 0. Nothing branches on or indexes by
//! a secret on either tier; the final reduction selects `h` or `h − p`
//! by mask.
//!
//! Callers hand whole slices ([`poly1305`], [`aead_tag`]), so there is
//! no buffering state. The tier is the rung of the one CPU ladder in
//! [`crate::cpu`] — detection alone, no option; the tests pass each rung
//! of [`TIERS`] the host reaches as an argument.

use crate::cpu::Tier;

/// Key length in bytes: `r` (clamped on use) then `s`.
pub const KEY_LEN: usize = 32;
/// Tag length in bytes.
pub const TAG_LEN: usize = 16;

/// Bytes per polynomial coefficient.
const BLOCK: usize = 16;
const MASK44: u64 = (1 << 44) - 1;
const MASK42: u64 = (1 << 42) - 1;
/// The 2¹²⁸ bit a whole block carries above its sixteen bytes, as it
/// falls in limb 2 (weight 2⁸⁸).
const HIBIT: u64 = 1 << 40;

/// A value mod 2¹³⁰ − 5 in radix 2⁴⁴: `l[0] + l[1]·2⁴⁴ + l[2]·2⁸⁸`.
type Limbs = [u64; 3];

/// The rungs with a Poly1305 kernel, scalar first. Not an option —
/// [`poly1305`] and [`aead_tag`] run [`Tier::best`]; the tests, the KATs
/// and the bench rows `crypto/poly1305/<tier>/*` run each one the host
/// reaches.
#[doc(hidden)]
pub const TIERS: &[Tier] = &[Tier::Scalar, Tier::Ifma];

/// Splits sixteen little-endian bytes into 44/44/40-bit limbs.
fn block_limbs(block: &[u8]) -> Limbs {
    let t0 = u64::from_le_bytes(block[..8].try_into().expect("16-byte block"));
    let t1 = u64::from_le_bytes(block[8..16].try_into().expect("16-byte block"));
    [t0 & MASK44, ((t0 >> 44) | (t1 << 20)) & MASK44, t1 >> 24]
}

/// One round of parallel carries: every limb's overflow moves up one
/// place at once, limb 2's wrapping to limb 0 times five (2¹³⁰ ≡ 5). The
/// value mod p is unchanged; limbs below 2⁶¹ come out below their width
/// plus `5·2¹⁹`.
fn carry([l0, l1, l2]: Limbs) -> Limbs {
    [
        (l0 & MASK44) + 5 * (l2 >> 42),
        (l1 & MASK44) + (l0 >> 44),
        (l2 & MASK42) + (l1 >> 44),
    ]
}

/// `h·r mod 2¹³⁰ − 5` with limbs below 2⁴⁴ + 2¹⁷ (2⁴² + 2¹³ on top).
/// Accepts `h` limbs up to 2⁴⁹ (a lane sum plus a block) and `r` limbs as
/// this function leaves them.
fn mul(h: Limbs, r: Limbs) -> Limbs {
    let wide = |a: u64, b: u64| u128::from(a) * u128::from(b);
    let ([h0, h1, h2], [r0, r1, r2]) = (h, r);
    // Columns 3 and 4 wrap to columns 0 and 1: 2¹³² = 4·2¹³⁰ ≡ 20.
    let (s1, s2) = (20 * r1, 20 * r2);
    let d0 = wide(h0, r0) + wide(h1, s2) + wide(h2, s1);
    let d1 = wide(h0, r1) + wide(h1, r0) + wide(h2, s2);
    let d2 = wide(h0, r2) + wide(h1, r1) + wide(h2, r0);
    // Two parallel rounds rather than one serial sweep — a third of the
    // dependency chain the next block waits on. The columns are below
    // 2¹⁰⁰, so the first round's carries fit 2⁵⁸.
    carry([
        (d0 as u64 & MASK44) + 5 * (d2 >> 42) as u64,
        (d1 as u64 & MASK44) + (d0 >> 44) as u64,
        (d2 as u64 & MASK42) + (d1 >> 44) as u64,
    ])
}

/// A Poly1305 computation under one (one-time) key.
struct Poly1305 {
    r: Limbs,
    h: Limbs,
    s: u128,
}

impl Poly1305 {
    fn new(key: &[u8; KEY_LEN]) -> Self {
        let mut r = u128::from_le_bytes(key[..16].try_into().expect("16 of 32 bytes"));
        // The RFC's clamp: the top four bits of every 32-bit word and the
        // bottom two of the upper three are clear.
        r &= 0x0fff_fffc_0fff_fffc_0fff_fffc_0fff_ffff;
        Poly1305 {
            r: block_limbs(&r.to_le_bytes()),
            h: [0; 3],
            s: u128::from_le_bytes(key[16..].try_into().expect("16 of 32 bytes")),
        }
    }

    /// Absorbs one sixteen-byte block: `h ← (h + block + hibit·2⁸⁸)·r`.
    /// `hibit` is [`HIBIT`] for a whole block and zero for the one-shot
    /// MAC's last, `0x01`-terminated one.
    fn block(&mut self, block: &[u8], hibit: u64) {
        let m = block_limbs(block);
        let sum = [
            self.h[0] + m[0],
            self.h[1] + m[1],
            self.h[2] + (m[2] | hibit),
        ];
        self.h = mul(sum, self.r);
    }

    /// Absorbs whole blocks, `tier`'s wide passes first.
    fn blocks(&mut self, tier: Tier, data: &[u8]) {
        debug_assert_eq!(data.len() % BLOCK, 0);
        #[cfg(target_arch = "x86_64")]
        let data = if tier >= Tier::Ifma && data.len() >= ifma::GROUP {
            let (wide, tail) = data.split_at(data.len() - data.len() % ifma::GROUP);
            // r¹ … r⁸ as `mul` carries them, three products deep.
            let r = self.r;
            let r2 = mul(r, r);
            let (r3, r4) = (mul(r2, r), mul(r2, r2));
            let powers = [
                r,
                r2,
                r3,
                r4,
                mul(r4, r),
                mul(r4, r2),
                mul(r4, r3),
                mul(r4, r4),
            ];
            self.h = ifma::absorb(&powers, self.h, wide);
            tail
        } else {
            data
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        for block in data.chunks_exact(BLOCK) {
            self.block(block, HIBIT);
        }
    }

    /// Absorbs the whole blocks of `data` and returns what is left over —
    /// fewer than sixteen bytes, zero-padded, with their count — for the
    /// caller to terminate its own way.
    fn absorb(&mut self, tier: Tier, data: &[u8]) -> Option<([u8; BLOCK], usize)> {
        let (whole, rest) = data.split_at(data.len() - data.len() % BLOCK);
        self.blocks(tier, whole);
        (!rest.is_empty()).then(|| {
            let mut padded = [0u8; BLOCK];
            padded[..rest.len()].copy_from_slice(rest);
            (padded, rest.len())
        })
    }

    /// `(h mod 2¹³⁰ − 5) + s mod 2¹²⁸`.
    fn finalize(self) -> [u8; TAG_LEN] {
        // Two carry sweeps take limbs of up to 2⁶² (a lane sum is below
        // 2⁴⁸) to 44/44/42 bits, bar a last carry of at most one into
        // limb 1; the arithmetic below does not need it propagated.
        let [mut h0, mut h1, mut h2] = self.h;
        for _ in 0..2 {
            h1 += h0 >> 44;
            h2 += h1 >> 44;
            h0 = (h0 & MASK44) + 5 * (h2 >> 42);
            h1 &= MASK44;
            h2 &= MASK42;
        }
        h1 += h0 >> 44;
        h0 &= MASK44;
        // g = h − p = h + 5 − 2¹³⁰: it is the residue iff it did not
        // borrow. Selected by mask, not by branch.
        let g0 = h0 + 5;
        let g1 = h1 + (g0 >> 44);
        let g2 = (h2 + (g1 >> 44)).wrapping_sub(1 << 42);
        let take_g = (g2 >> 63).wrapping_sub(1);
        let pick = |h: u64, g: u64| (h & !take_g) | (g & take_g);
        let (h0, h1, h2) = (
            pick(h0, g0 & MASK44),
            pick(h1, g1 & MASK44),
            pick(h2, g2 & MASK42),
        );
        // Bits from 2¹²⁸ up fall off the shift, which is the `mod 2¹²⁸`.
        let residue = u128::from(h0)
            .wrapping_add(u128::from(h1) << 44)
            .wrapping_add(u128::from(h2) << 88);
        residue.wrapping_add(self.s).to_le_bytes()
    }
}

/// [`poly1305`] with `tier` as the widest kernel allowed; panics if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn poly1305_on(tier: Tier, key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    if let Some((mut last, len)) = mac.absorb(tier, message) {
        // A short last block is closed by a 1 byte in place of the 2¹²⁸
        // bit.
        last[len] = 1;
        mac.block(&last, 0);
    }
    mac.finalize()
}

/// [`aead_tag`] with `tier` as the widest kernel allowed.
pub(crate) fn aead_tag_on(
    tier: Tier,
    key: &[u8; KEY_LEN],
    aad: &[u8],
    ciphertext: &[u8],
) -> [u8; TAG_LEN] {
    let mut mac = Poly1305::new(key);
    for part in [aad, ciphertext] {
        if let Some((padded, _)) = mac.absorb(tier, part) {
            mac.block(&padded, HIBIT);
        }
    }
    let mut lengths = [0u8; BLOCK];
    lengths[..8].copy_from_slice(&(aad.len() as u64).to_le_bytes());
    lengths[8..].copy_from_slice(&(ciphertext.len() as u64).to_le_bytes());
    mac.block(&lengths, HIBIT);
    mac.finalize()
}

/// Computes the Poly1305 tag of `message` under the one-time `key`
/// (RFC 8439 §2.5).
///
/// A key must authenticate **one** message: two tags under one key give
/// `r` away.
///
/// # Example
///
/// ```
/// use mixnn_crypto::poly1305::poly1305;
///
/// let tag = poly1305(&[7u8; 32], b"one message under this key");
/// assert_ne!(tag, poly1305(&[7u8; 32], b"One message under this key"));
/// ```
pub fn poly1305(key: &[u8; KEY_LEN], message: &[u8]) -> [u8; TAG_LEN] {
    poly1305_on(Tier::best(), key, message)
}

/// The RFC 8439 §2.8 AEAD tag: Poly1305 under the one-time `key` over
/// `aad ‖ pad16 ‖ ciphertext ‖ pad16 ‖ le64(aad.len()) ‖
/// le64(ciphertext.len())`, without materialising that message.
pub fn aead_tag(key: &[u8; KEY_LEN], aad: &[u8], ciphertext: &[u8]) -> [u8; TAG_LEN] {
    aead_tag_on(Tier::best(), key, aad, ciphertext)
}

/// AVX-512 IFMA eight-lane Poly1305.
///
/// Register `k` of an accumulator holds limb `k` of eight partial sums,
/// lane `j` taking blocks `j`, `j + 8`, … of the input. A pass adds eight
/// consecutive blocks and multiplies every lane by `r⁸` — by `r^(8−j)` in
/// lane `j` on the last pass, which leaves `Σ lanes` equal to the serial
/// Horner result.
///
/// The product is the scalar tier's three columns over `vpmadd52`: each
/// 52-bit-operand product splits at bit 52, the low half staying in its
/// column and the high half weighing 2⁵² = 2⁸·2⁴⁴ over it — so it joins
/// the next column shifted left by eight, and column 2's high half wraps
/// to column 0 times 2¹³² ≡ 20. Carries run in parallel, one step each
/// (limb `k`'s overflow into limb `k + 1`, limb 2's times five into limb
/// 0): that bounds every limb by 2⁴⁴ + 2¹⁷, which is all the next pass's
/// 52-bit operand window asks for.
#[cfg(target_arch = "x86_64")]
mod ifma {
    use super::{Limbs, Tier, BLOCK, HIBIT, MASK42, MASK44};
    use core::arch::x86_64::*;

    /// Blocks per pass.
    pub const LANES: usize = 8;
    /// Bytes per pass.
    pub const GROUP: usize = LANES * BLOCK;

    /// Absorbs `data`, a whole number of eight-block groups, into the
    /// accumulator `h` (limbs below 2⁴⁹: the scalar tier's, or an earlier
    /// call's), given `powers[k] = r^(k+1)` as the scalar `mul` carries
    /// them. Returns the new accumulator with limbs below 2⁴⁸ — congruent
    /// to, not limb-identical with, the scalar tier's.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Ifma`] — callers select this
    /// tier only after checking it — or if `data` is empty or ragged.
    pub fn absorb(powers: &[Limbs; LANES], h: Limbs, data: &[u8]) -> Limbs {
        assert!(
            Tier::Ifma.available(),
            "IFMA Poly1305 selected on a CPU without it"
        );
        assert!(
            !data.is_empty() && data.len().is_multiple_of(GROUP),
            "the wide tier takes whole eight-block groups"
        );
        // SAFETY: the `Ifma` rung was just confirmed; it requires AVX-512
        // F (from the `Avx512` rung) and IFMA, the features `absorb_lanes`
        // enables, and `data` is a whole number of 128-byte groups, which
        // is all its loads read.
        unsafe { absorb_lanes(powers, h, data) }
    }

    /// One multiplier per lane: the limbs of `r^k` and of `20·r^k`.
    struct Multiplier {
        r: [__m512i; 3],
        s1: __m512i,
        s2: __m512i,
    }

    /// The multiplier whose lanes hold the limbs `r`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and IFMA, i.e. the CPU reaches [`Tier::Ifma`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn multiplier(r: [__m512i; 3]) -> Multiplier {
        // 20 = 2⁴ + 2².
        let times20 =
            |x: __m512i| _mm512_add_epi64(_mm512_slli_epi64::<4>(x), _mm512_slli_epi64::<2>(x));
        Multiplier {
            r,
            s1: times20(r[1]),
            s2: times20(r[2]),
        }
    }

    /// `a·by mod 2¹³⁰ − 5` in every lane. `a` limbs below 2⁵⁰ and `by`
    /// as the scalar `mul` carries it keep every column sum below 2⁵⁷.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and IFMA, i.e. the CPU reaches [`Tier::Ifma`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn mul(a: [__m512i; 3], by: &Multiplier) -> [__m512i; 3] {
        let zero = _mm512_setzero_si512();
        let [r0, r1, r2] = by.r;
        let (s1, s2) = (by.s1, by.s2);
        // The scalar tier's columns, low and high halves apart.
        let columns = [[r0, s2, s1], [r1, r0, s2], [r2, r1, r0]];
        let mut lo = [zero; 3];
        let mut hi = [zero; 3];
        for (k, column) in columns.iter().enumerate() {
            for (&limb, &factor) in a.iter().zip(column) {
                lo[k] = _mm512_madd52lo_epu64(lo[k], limb, factor);
                hi[k] = _mm512_madd52hi_epu64(hi[k], limb, factor);
            }
        }
        // 20·2⁸ = 2¹² + 2¹⁰.
        let wrapped = _mm512_add_epi64(
            _mm512_slli_epi64::<12>(hi[2]),
            _mm512_slli_epi64::<10>(hi[2]),
        );
        let d0 = _mm512_add_epi64(lo[0], wrapped);
        let d1 = _mm512_add_epi64(lo[1], _mm512_slli_epi64::<8>(hi[0]));
        let d2 = _mm512_add_epi64(lo[2], _mm512_slli_epi64::<8>(hi[1]));

        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let mask42 = _mm512_set1_epi64(MASK42 as i64);
        let c0 = _mm512_srli_epi64::<44>(d0);
        let c1 = _mm512_srli_epi64::<44>(d1);
        let c2 = _mm512_srli_epi64::<42>(d2);
        let five_c2 = _mm512_add_epi64(c2, _mm512_slli_epi64::<2>(c2));
        [
            _mm512_add_epi64(_mm512_and_si512(d0, mask44), five_c2),
            _mm512_add_epi64(_mm512_and_si512(d1, mask44), c0),
            _mm512_add_epi64(_mm512_and_si512(d2, mask42), c1),
        ]
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and IFMA, i.e. the CPU reaches [`Tier::Ifma`],
    /// and `data.len()` a multiple of [`GROUP`].
    #[target_feature(enable = "avx512f,avx512ifma")]
    unsafe fn absorb_lanes(powers: &[Limbs; LANES], h: Limbs, data: &[u8]) -> Limbs {
        let every_lane = multiplier(powers[LANES - 1].map(|limb| _mm512_set1_epi64(limb as i64)));
        // Lane `j` closes with r^(8−j).
        let [p1, p2, p3, p4, p5, p6, p7, p8] = powers.map(|power| power.map(|limb| limb as i64));
        let last = multiplier(core::array::from_fn(|k| {
            _mm512_setr_epi64(p8[k], p7[k], p6[k], p5[k], p4[k], p3[k], p2[k], p1[k])
        }));
        // Even and odd quadwords of two vectors: the low and the high
        // eight bytes of eight consecutive blocks.
        let low_halves = _mm512_setr_epi64(0, 2, 4, 6, 8, 10, 12, 14);
        let high_halves = _mm512_setr_epi64(1, 3, 5, 7, 9, 11, 13, 15);
        let mask44 = _mm512_set1_epi64(MASK44 as i64);
        let hibit = _mm512_set1_epi64(HIBIT as i64);

        // The running accumulator rides in lane 0, ahead of block 0.
        let mut acc: [__m512i; 3] =
            core::array::from_fn(|k| _mm512_maskz_set1_epi64(1, h[k] as i64));
        let groups = data.chunks_exact(GROUP);
        let passes = groups.len();
        for (pass, group) in groups.enumerate() {
            let at = group.as_ptr();
            // SAFETY: `group` is exactly 128 readable bytes; the
            // unaligned loads have no alignment demand.
            let (v0, v1) = (
                _mm512_loadu_si512(at.cast()),
                _mm512_loadu_si512(at.add(64).cast()),
            );
            let t0 = _mm512_permutex2var_epi64(v0, low_halves, v1);
            let t1 = _mm512_permutex2var_epi64(v0, high_halves, v1);
            let m = [
                _mm512_and_si512(t0, mask44),
                _mm512_and_si512(
                    _mm512_or_si512(_mm512_srli_epi64::<44>(t0), _mm512_slli_epi64::<20>(t1)),
                    mask44,
                ),
                _mm512_or_si512(_mm512_srli_epi64::<24>(t1), hibit),
            ];
            let sum = [
                _mm512_add_epi64(acc[0], m[0]),
                _mm512_add_epi64(acc[1], m[1]),
                _mm512_add_epi64(acc[2], m[2]),
            ];
            let by = if pass + 1 == passes {
                &last
            } else {
                &every_lane
            };
            acc = mul(sum, by);
        }
        acc.map(|limb| _mm512_reduce_add_epi64(limb) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex(s: &str) -> Vec<u8> {
        let s: String = s.split_whitespace().collect();
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    /// An independent definition for the differential tests: the RFC's
    /// `a = (a + n)·r mod p` over little-endian base-2³² schoolbook
    /// integers, fully reduced after every block. Shares no code, radix
    /// or reduction strategy with the kernels above.
    mod reference {
        const N: usize = 10;
        type Int = [u32; N];

        fn from_le_bytes(bytes: &[u8]) -> Int {
            let mut out = [0u32; N];
            for (i, &b) in bytes.iter().enumerate() {
                out[i / 4] |= u32::from(b) << (8 * (i % 4));
            }
            out
        }

        fn add(a: &Int, b: &Int) -> Int {
            let mut out = [0u32; N];
            let mut carry = 0u64;
            for i in 0..N {
                let t = u64::from(a[i]) + u64::from(b[i]) + carry;
                out[i] = t as u32;
                carry = t >> 32;
            }
            assert_eq!(carry, 0, "reference integer overflow");
            out
        }

        fn mul(a: &Int, b: &Int) -> Int {
            let mut out = [0u32; N];
            for i in 0..N {
                let mut carry = 0u64;
                for j in 0..N {
                    let product = u64::from(a[i]) * u64::from(b[j]);
                    if i + j >= N {
                        assert_eq!(product, 0, "reference integer overflow");
                        continue;
                    }
                    let t = u64::from(out[i + j]) + product + carry;
                    out[i + j] = t as u32;
                    carry = t >> 32;
                }
                assert_eq!(carry, 0, "reference integer overflow");
            }
            out
        }

        /// `a >> 130`.
        fn high(a: &Int) -> Int {
            core::array::from_fn(|i| {
                let at = |k: usize| a.get(k).copied().unwrap_or(0);
                (at(i + 4) >> 2) | (at(i + 5) << 30)
            })
        }

        /// `a mod 2¹³⁰`.
        fn low(a: &Int) -> Int {
            let mut out = [0u32; N];
            out[..4].copy_from_slice(&a[..4]);
            out[4] = a[4] & 3;
            out
        }

        fn small(v: u32) -> Int {
            let mut out = [0u32; N];
            out[0] = v;
            out
        }

        /// `a mod 2¹³⁰ − 5`: fold 2¹³⁰ ≡ 5 until nothing is left above
        /// bit 130, then subtract p once if still at or above it (seen
        /// as: adding 5 carries into bit 130).
        fn mod_p(mut a: Int) -> Int {
            while high(&a) != [0; N] {
                a = add(&low(&a), &mul(&high(&a), &small(5)));
            }
            let plus_five = add(&a, &small(5));
            if high(&plus_five) != [0; N] {
                low(&plus_five)
            } else {
                a
            }
        }

        pub fn poly1305(key: &[u8; 32], message: &[u8]) -> [u8; 16] {
            let mut r_bytes: [u8; 16] = key[..16].try_into().unwrap();
            for i in [3, 7, 11, 15] {
                r_bytes[i] &= 15;
            }
            for i in [4, 8, 12] {
                r_bytes[i] &= 252;
            }
            let r = from_le_bytes(&r_bytes);
            let mut acc = [0u32; N];
            for block in message.chunks(16) {
                let mut n = block.to_vec();
                n.push(1);
                acc = mod_p(mul(&add(&acc, &from_le_bytes(&n)), &r));
            }
            let tag = add(&acc, &from_le_bytes(&key[16..]));
            let mut out = [0u8; 16];
            for (i, byte) in out.iter_mut().enumerate() {
                *byte = (tag[i / 4] >> (8 * (i % 4))) as u8;
            }
            out
        }

        /// §2.8's `mac_data`, materialised.
        pub fn mac_data(aad: &[u8], ciphertext: &[u8]) -> Vec<u8> {
            let mut data = Vec::new();
            for part in [aad, ciphertext] {
                data.extend_from_slice(part);
                data.resize(data.len().next_multiple_of(16), 0);
            }
            data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
            data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
            data
        }
    }

    fn pattern(len: usize, salt: usize) -> Vec<u8> {
        (0..len).map(|i| ((i + salt) * 37 % 251) as u8).collect()
    }

    const KEY: [u8; 32] = [
        0x85, 0xd6, 0xbe, 0x78, 0x57, 0x55, 0x6d, 0x33, 0x7f, 0x44, 0x52, 0xfe, 0x42, 0xd5, 0x06,
        0xa8, 0x01, 0x03, 0x80, 0x8a, 0xfb, 0x0d, 0xb2, 0xfd, 0x4a, 0xbf, 0xf6, 0xaf, 0x41, 0x49,
        0xf5, 0x1b,
    ];

    /// RFC 8439 §2.5.2. Thirty-four bytes never reach a wide pass: the
    /// vector pins the scalar tier and the reference, and the
    /// differential tests below pin the wide tier to both.
    #[test]
    fn rfc8439_vector_holds_on_every_tier() {
        // Shown by CI (`--nocapture`): a runner without the wide tiers
        // says it pinned only the scalar twin.
        println!("poly1305 tiers exercised: {:?}", Tier::runnable(TIERS));
        let tag = unhex("a8061dc1305136c6c22b8baf0c0127a9");
        for tier in Tier::runnable(TIERS) {
            let got = poly1305_on(tier, &KEY, b"Cryptographic Forum Research Group");
            assert_eq!(got.to_vec(), tag, "{tier:?}");
        }
        assert_eq!(
            reference::poly1305(&KEY, b"Cryptographic Forum Research Group").to_vec(),
            tag
        );
    }

    /// Every tier equals the independent reference at every length from
    /// empty to two wide passes plus a ragged tail, at aligned and
    /// unaligned buffer offsets.
    #[test]
    fn every_tier_matches_the_reference_at_every_length_and_offset() {
        let buffer = pattern(2 * 128 + 17 + 3, 0);
        for offset in [0usize, 1, 3] {
            for len in 0..=2 * 128 + 17 {
                let message = &buffer[offset..offset + len];
                let expected = reference::poly1305(&KEY, message);
                for tier in Tier::runnable(TIERS) {
                    assert_eq!(
                        poly1305_on(tier, &KEY, message),
                        expected,
                        "{tier:?}, len {len}, offset {offset}"
                    );
                }
            }
        }
    }

    /// The benchmark's two envelope sizes: a small update's 23,048 bytes
    /// (180 wide passes and a one-block tail) and 2 MiB.
    #[test]
    fn every_tier_matches_the_reference_on_update_sized_messages() {
        for len in [23_048usize, 2 << 20] {
            let message = pattern(len, len);
            let expected = reference::poly1305(&KEY, &message);
            for tier in Tier::runnable(TIERS) {
                assert_eq!(
                    poly1305_on(tier, &KEY, &message),
                    expected,
                    "{tier:?}, {len}"
                );
            }
        }
    }

    /// Inputs that fill every limb: an all-ones key (so `r` sits at its
    /// clamped maximum and `s` wraps the final addition), all-ones
    /// messages (every block 2¹²⁸ − 1 under its high bit), and messages
    /// whose blocks are p − 1 truncated to sixteen bytes — over lengths
    /// that end in every tier's tail and on its pass boundary.
    #[test]
    fn limb_saturating_inputs_match_the_reference() {
        let max_key = [0xffu8; 32];
        let mut max_r_zero_s = [0xffu8; 32];
        max_r_zero_s[16..].fill(0);
        // p − 1 = 2¹³⁰ − 6: its low sixteen bytes are fa ff … ff.
        let mut p_minus_1 = [0xffu8; 16];
        p_minus_1[0] = 0xfa;
        for key in [max_key, max_r_zero_s, KEY] {
            for len in [16usize, 48, 127, 128, 129, 256, 384, 1024 + 16, 4096] {
                let messages = [
                    vec![0xffu8; len],
                    p_minus_1.iter().copied().cycle().take(len).collect(),
                ];
                for message in messages {
                    let expected = reference::poly1305(&key, &message);
                    for tier in Tier::runnable(TIERS) {
                        assert_eq!(
                            poly1305_on(tier, &key, &message),
                            expected,
                            "{tier:?}, len {len}"
                        );
                    }
                }
            }
        }
    }

    /// The final reduction's own edges, which only a chosen accumulator
    /// reaches: residues on either side of p, and limbs as loose as a
    /// lane sum leaves them. A zero key makes the tag `h mod p mod 2¹²⁸`.
    #[test]
    fn finalize_reduces_the_residues_around_p() {
        let with_h = |h: Limbs| {
            let mut mac = Poly1305::new(&[0u8; 32]);
            mac.h = h;
            u128::from_le_bytes(mac.finalize())
        };
        // p − 1, p, p + 1 and 2¹³⁰ − 1 = p + 4.
        assert_eq!(with_h([MASK44 - 5, MASK44, MASK42]), u128::MAX - 5);
        assert_eq!(with_h([MASK44 - 4, MASK44, MASK42]), 0);
        assert_eq!(with_h([MASK44 - 3, MASK44, MASK42]), 1);
        assert_eq!(with_h([MASK44, MASK44, MASK42]), 4);
        // l = 8·(2⁴⁴ − 1) in every limb. l·2⁸⁸ = 31·2¹³⁰ + (2⁴² − 8)·2⁸⁸
        // ≡ 155 + 2¹³⁰ − 2⁹¹, l·2⁴⁴ = 2⁹¹ − 2⁴⁷ and l = 2⁴⁷ − 8 sum to
        // 2¹³⁰ + 147 ≡ 152.
        assert_eq!(with_h([8 * MASK44; 3]), 152);
    }

    /// The AEAD tag equals the reference MAC of the materialised
    /// `mac_data` at every split between AAD, wide groups and tail — and
    /// so with a non-zero accumulator entering the wide passes whenever
    /// the AAD is not empty.
    #[test]
    fn aead_tag_matches_the_materialised_mac_data_at_every_split() {
        let buffer = pattern(40 + 3 * 128 + 17, 5);
        for aad_len in [0usize, 1, 12, 16, 31, 32, 33] {
            let (aad, rest) = buffer.split_at(aad_len);
            for ct_len in (0..=2 * 128 + 17).chain([3 * 128, 3 * 128 + 1]) {
                let ciphertext = &rest[..ct_len];
                let expected = reference::poly1305(&KEY, &reference::mac_data(aad, ciphertext));
                for tier in Tier::runnable(TIERS) {
                    assert_eq!(
                        aead_tag_on(tier, &KEY, aad, ciphertext),
                        expected,
                        "{tier:?}, aad {aad_len}, ciphertext {ct_len}"
                    );
                }
            }
        }
    }

    /// Wide passes continue whatever accumulator the blocks before them
    /// left, however the input is cut into calls.
    #[test]
    fn split_calls_continue_the_accumulator_on_every_tier() {
        let message = pattern(16 + 128 + 256 + 48, 9);
        let expected = reference::poly1305(&KEY, &message);
        for tier in Tier::runnable(TIERS) {
            let mut mac = Poly1305::new(&KEY);
            let (a, rest) = message.split_at(16);
            let (b, rest) = rest.split_at(128);
            let (c, d) = rest.split_at(256);
            for part in [a, b, c, d] {
                mac.blocks(tier, part);
            }
            assert_eq!(mac.finalize(), expected, "{tier:?}");
        }
    }

    /// The bench rows iterate `Tier::runnable(TIERS)`: it lists every
    /// rung of `TIERS` the host reaches, scalar first, and its widest
    /// rung is the kernel `Tier::best` dispatches to, so production runs
    /// exactly what the widest row measures and every row computes the
    /// same tag.
    #[test]
    fn best_tier_is_the_widest_supported_and_the_bench_hook_lists_them_all() {
        assert!(TIERS.windows(2).all(|pair| pair[0] < pair[1]), "{TIERS:?}");
        let listed = Tier::runnable(TIERS);
        assert_eq!(listed.first(), Some(&Tier::Scalar));
        let expected: Vec<Tier> = TIERS
            .iter()
            .copied()
            .filter(|t| *t <= Tier::best())
            .collect();
        assert_eq!(listed, expected);
        let message = pattern(1500, 1);
        for tier in listed {
            assert_eq!(
                poly1305_on(tier, &KEY, &message),
                poly1305(&KEY, &message),
                "{}",
                tier.name()
            );
        }
        assert_eq!(
            aead_tag(&KEY, b"aad", &message),
            poly1305(&KEY, &reference::mac_data(b"aad", &message))
        );
    }
}
