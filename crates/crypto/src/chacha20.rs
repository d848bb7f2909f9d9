//! The ChaCha20 stream cipher (RFC 8439).
//!
//! Encrypts the serialized model updates inside sealed boxes. ChaCha20 is
//! the natural choice for the enclave setting: constant-time by
//! construction (add–rotate–xor only) and fast in plain portable code.
//!
//! [`ChaCha20::apply_keystream`] runs the widest kernel the CPU has over
//! as much of the buffer as that kernel's pass size divides, then hands
//! the rest down:
//!
//! | tier | blocks per pass | engaged from | needs rung |
//! |---|---|---|---|
//! | AVX-512 | 16 | 1024 B | [`Tier::Avx512`] (F + BW + DQ) |
//! | AVX2 | 8 | 512 B | [`Tier::Avx2`] |
//! | scalar | 1 | the tail | — |
//!
//! Every wide kernel holds one state word per vector, one lane per block
//! counter. The AVX-512 kernel rotates with native `vprold`, transposes
//! the sixteen finished words back into sixteen contiguous blocks in
//! registers, and XORs them into the buffer with 64-byte loads and
//! stores. A stretch close enough to the counter limit that a wide pass
//! would overflow it falls to the narrower kernels, so the keystream is
//! bit-identical to the one-block-at-a-time definition at every length
//! and counter. The tier is the rung of the one CPU ladder in
//! [`crate::cpu`] — detection alone, no option; the tests pass each rung
//! of [`TIERS`] the host reaches as an argument instead. An AVX-512F host
//! without BW and DQ (Xeon Phi) stops at the `Avx2` rung and runs the
//! eight-block kernel.
//!
//! The 32-bit block counter is a hard limit, not a wrapping one: asking
//! for keystream past block `u32::MAX` (256 GiB under one key/nonce)
//! panics instead of silently reusing blocks. The sealed box spends
//! block 0 on its one-time Poly1305 key (RFC 8439 §2.6) and encrypts the
//! payload from block 1.

use crate::cpu::Tier;

/// Key length in bytes.
pub const KEY_LEN: usize = 32;
/// Nonce length in bytes (IETF variant).
pub const NONCE_LEN: usize = 12;

/// Bytes per keystream block.
const BLOCK: usize = 64;

/// A ChaCha20 cipher instance for one (key, nonce) pair.
///
/// # Example
///
/// ```
/// use mixnn_crypto::chacha20::ChaCha20;
///
/// let key = [7u8; 32];
/// let nonce = [9u8; 12];
/// let mut buf = *b"attack at dawn";
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
/// assert_ne!(&buf, b"attack at dawn");
/// ChaCha20::new(&key, &nonce, 0).apply_keystream(&mut buf);
/// assert_eq!(&buf, b"attack at dawn");
/// ```
#[derive(Debug, Clone)]
pub struct ChaCha20 {
    state: [u32; 16],
    /// Set once the counter has produced its last block; the next request
    /// panics rather than wrap around and reuse keystream.
    exhausted: bool,
}

/// The rungs with a keystream kernel, scalar first. Not an option —
/// [`ChaCha20::apply_keystream`] runs [`Tier::best`]; the tests and the
/// bench rows `crypto/chacha20/<tier>/*` run each one the host reaches.
#[doc(hidden)]
pub const TIERS: &[Tier] = &[Tier::Scalar, Tier::Avx2, Tier::Avx512];

/// Eight-block AVX2 kernel: each 256-bit vector holds one state word
/// across eight consecutive block counters. Same add–rotate–xor math as
/// the scalar block, eight counters at a time; the block dispatch
/// guarantees the output is bit-identical to the scalar definition.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use crate::cpu::Tier;
    use core::arch::x86_64::*;

    /// Blocks per pass.
    pub const LANES: usize = 8;

    /// 32-bit left rotation of every lane by a constant amount (the shift
    /// intrinsics require immediate counts).
    macro_rules! rotl {
        ($v:expr, $n:literal) => {
            _mm256_or_si256(
                _mm256_slli_epi32::<$n>($v),
                _mm256_srli_epi32::<{ 32 - $n }>($v),
            )
        };
    }

    #[inline(always)]
    unsafe fn quarter_round(x: &mut [__m256i; 16], a: usize, b: usize, c: usize, d: usize) {
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl!(_mm256_xor_si256(x[d], x[a]), 16);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl!(_mm256_xor_si256(x[b], x[c]), 12);
        x[a] = _mm256_add_epi32(x[a], x[b]);
        x[d] = rotl!(_mm256_xor_si256(x[d], x[a]), 8);
        x[c] = _mm256_add_epi32(x[c], x[d]);
        x[b] = rotl!(_mm256_xor_si256(x[b], x[c]), 7);
    }

    /// XORs the keystream blocks at counters `state[12]..` into `data`, a
    /// whole number of eight-block passes. The caller guarantees the
    /// counter does not overflow within `data`.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx2`] — callers select this
    /// tier only after checking it.
    pub fn xor_blocks(state: &[u32; 16], data: &mut [u8]) {
        assert!(
            Tier::Avx2.available(),
            "AVX2 keystream selected on a CPU without it"
        );
        // SAFETY: the `Avx2` rung was just confirmed; it requires AVX2,
        // the one feature `xor_blocks_lanes` enables.
        unsafe { xor_blocks_lanes(state, data) }
    }

    /// # Safety
    ///
    /// Requires AVX2, i.e. the CPU reaches [`Tier::Avx2`].
    #[target_feature(enable = "avx2")]
    unsafe fn xor_blocks_lanes(state: &[u32; 16], data: &mut [u8]) {
        debug_assert_eq!(data.len() % (LANES * 64), 0);
        let mut init: [__m256i; 16] = core::array::from_fn(|i| _mm256_set1_epi32(state[i] as i32));
        init[12] = _mm256_add_epi32(init[12], _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
        for chunk in data.chunks_exact_mut(LANES * 64) {
            let mut x = init;
            for _ in 0..10 {
                // Column rounds.
                quarter_round(&mut x, 0, 4, 8, 12);
                quarter_round(&mut x, 1, 5, 9, 13);
                quarter_round(&mut x, 2, 6, 10, 14);
                quarter_round(&mut x, 3, 7, 11, 15);
                // Diagonal rounds.
                quarter_round(&mut x, 0, 5, 10, 15);
                quarter_round(&mut x, 1, 6, 11, 12);
                quarter_round(&mut x, 2, 7, 8, 13);
                quarter_round(&mut x, 3, 4, 9, 14);
            }
            let mut words = [[0u32; LANES]; 16];
            for (slot, (&xi, &start)) in words.iter_mut().zip(x.iter().zip(init.iter())) {
                _mm256_storeu_si256(slot.as_mut_ptr().cast(), _mm256_add_epi32(xi, start));
            }
            for lane in 0..LANES {
                for (i, slot) in words.iter().enumerate() {
                    let keystream = slot[lane].to_le_bytes();
                    let base = lane * 64 + i * 4;
                    for (byte, &k) in chunk[base..base + 4].iter_mut().zip(keystream.iter()) {
                        *byte ^= k;
                    }
                }
            }
            init[12] = _mm256_add_epi32(init[12], _mm256_set1_epi32(LANES as i32));
        }
    }
}

/// Sixteen-block AVX-512 kernel: each 512-bit vector holds one state
/// word across sixteen consecutive block counters, so the twenty rounds
/// run entirely in the sixteen state registers with native `vprold`
/// rotates. The finished words are transposed in registers — 4×4 within
/// each 128-bit lane by `unpck{l,h}{dq,qdq}`, then 4×4 across lanes by
/// `vshufi32x4` — so every vector holds one whole 64-byte block, which is
/// XORed into the buffer with one load and one store.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use crate::cpu::Tier;
    use core::arch::x86_64::*;

    /// Blocks per pass.
    pub const LANES: usize = 16;

    macro_rules! quarter_round {
        ($x:ident, $a:literal, $b:literal, $c:literal, $d:literal) => {
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32::<16>(_mm512_xor_si512($x[$d], $x[$a]));
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32::<12>(_mm512_xor_si512($x[$b], $x[$c]));
            $x[$a] = _mm512_add_epi32($x[$a], $x[$b]);
            $x[$d] = _mm512_rol_epi32::<8>(_mm512_xor_si512($x[$d], $x[$a]));
            $x[$c] = _mm512_add_epi32($x[$c], $x[$d]);
            $x[$b] = _mm512_rol_epi32::<7>(_mm512_xor_si512($x[$b], $x[$c]));
        };
    }

    /// XORs the keystream blocks at counters `state[12]..` into `data`, a
    /// whole number of sixteen-block passes. The caller guarantees the
    /// counter does not overflow within `data`.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`] — callers select
    /// this tier only after checking it.
    pub fn xor_blocks(state: &[u32; 16], data: &mut [u8]) {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 keystream selected on a CPU without it"
        );
        // SAFETY: the `Avx512` rung was just confirmed; it requires
        // AVX-512F, the one feature `xor_blocks_lanes` enables.
        unsafe { xor_blocks_lanes(state, data) }
    }

    /// Word-major to block-major: on entry `x[w]` holds word `w` of blocks
    /// `0..16` (lane `b` = block `b`); on return `x[b]` holds words
    /// `0..16` of block `b`.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn transpose(x: &mut [__m512i; 16]) {
        // Within each 128-bit lane `j`: `y[4g + k]` gathers words
        // `4g..4g + 4` of block `4j + k`.
        let mut y = [_mm512_setzero_si512(); 16];
        for g in 0..4 {
            let lo01 = _mm512_unpacklo_epi32(x[4 * g], x[4 * g + 1]);
            let hi01 = _mm512_unpackhi_epi32(x[4 * g], x[4 * g + 1]);
            let lo23 = _mm512_unpacklo_epi32(x[4 * g + 2], x[4 * g + 3]);
            let hi23 = _mm512_unpackhi_epi32(x[4 * g + 2], x[4 * g + 3]);
            y[4 * g] = _mm512_unpacklo_epi64(lo01, lo23);
            y[4 * g + 1] = _mm512_unpackhi_epi64(lo01, lo23);
            y[4 * g + 2] = _mm512_unpacklo_epi64(hi01, hi23);
            y[4 * g + 3] = _mm512_unpackhi_epi64(hi01, hi23);
        }
        // Across lanes: block `4j + k` is lane `j` of `y[k]`, `y[4 + k]`,
        // `y[8 + k]`, `y[12 + k]`, in that word order.
        for k in 0..4 {
            let ab_lo = _mm512_shuffle_i32x4::<0x44>(y[k], y[4 + k]);
            let ab_hi = _mm512_shuffle_i32x4::<0xee>(y[k], y[4 + k]);
            let cd_lo = _mm512_shuffle_i32x4::<0x44>(y[8 + k], y[12 + k]);
            let cd_hi = _mm512_shuffle_i32x4::<0xee>(y[8 + k], y[12 + k]);
            x[k] = _mm512_shuffle_i32x4::<0x88>(ab_lo, cd_lo);
            x[4 + k] = _mm512_shuffle_i32x4::<0xdd>(ab_lo, cd_lo);
            x[8 + k] = _mm512_shuffle_i32x4::<0x88>(ab_hi, cd_hi);
            x[12 + k] = _mm512_shuffle_i32x4::<0xdd>(ab_hi, cd_hi);
        }
    }

    /// # Safety
    ///
    /// Requires AVX-512F, i.e. the CPU reaches [`Tier::Avx512`].
    #[target_feature(enable = "avx512f")]
    unsafe fn xor_blocks_lanes(state: &[u32; 16], data: &mut [u8]) {
        debug_assert_eq!(data.len() % (LANES * 64), 0);
        let mut init: [__m512i; 16] = core::array::from_fn(|i| _mm512_set1_epi32(state[i] as i32));
        init[12] = _mm512_add_epi32(
            init[12],
            _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15),
        );
        for chunk in data.chunks_exact_mut(LANES * 64) {
            let mut x = init;
            for _ in 0..10 {
                // Column rounds.
                quarter_round!(x, 0, 4, 8, 12);
                quarter_round!(x, 1, 5, 9, 13);
                quarter_round!(x, 2, 6, 10, 14);
                quarter_round!(x, 3, 7, 11, 15);
                // Diagonal rounds.
                quarter_round!(x, 0, 5, 10, 15);
                quarter_round!(x, 1, 6, 11, 12);
                quarter_round!(x, 2, 7, 8, 13);
                quarter_round!(x, 3, 4, 9, 14);
            }
            for (xi, &start) in x.iter_mut().zip(init.iter()) {
                *xi = _mm512_add_epi32(*xi, start);
            }
            transpose(&mut x);
            for (block, &keystream) in chunk.chunks_exact_mut(64).zip(x.iter()) {
                let at = block.as_mut_ptr().cast::<__m512i>();
                // SAFETY: `block` is exactly 64 writable bytes; the
                // unaligned load/store forms have no alignment demand.
                _mm512_storeu_si512(at, _mm512_xor_si512(_mm512_loadu_si512(at), keystream));
            }
            init[12] = _mm512_add_epi32(init[12], _mm512_set1_epi32(LANES as i32));
        }
    }
}

impl ChaCha20 {
    /// Creates a cipher with the given 256-bit key, 96-bit nonce and
    /// initial block counter.
    pub fn new(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32) -> Self {
        let mut state = [0u32; 16];
        // "expand 32-byte k"
        state[0] = 0x6170_7865;
        state[1] = 0x3320_646e;
        state[2] = 0x7962_2d32;
        state[3] = 0x6b20_6574;
        for i in 0..8 {
            state[4 + i] =
                u32::from_le_bytes([key[i * 4], key[i * 4 + 1], key[i * 4 + 2], key[i * 4 + 3]]);
        }
        state[12] = counter;
        for i in 0..3 {
            state[13 + i] = u32::from_le_bytes([
                nonce[i * 4],
                nonce[i * 4 + 1],
                nonce[i * 4 + 2],
                nonce[i * 4 + 3],
            ]);
        }
        ChaCha20 {
            state,
            exhausted: false,
        }
    }

    #[inline(always)]
    fn quarter_round(state: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(16);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(12);
        state[a] = state[a].wrapping_add(state[b]);
        state[d] = (state[d] ^ state[a]).rotate_left(8);
        state[c] = state[c].wrapping_add(state[d]);
        state[b] = (state[b] ^ state[c]).rotate_left(7);
    }

    /// Produces the 64-byte keystream block for the current counter and
    /// advances the counter.
    ///
    /// # Panics
    ///
    /// Panics once the 32-bit block counter is spent (after the block at
    /// counter `u32::MAX`): continuing would wrap the counter and reuse
    /// keystream under the same key/nonce.
    fn next_block(&mut self) -> [u8; 64] {
        assert!(
            !self.exhausted,
            "ChaCha20 block counter exhausted: keystream would repeat under this key/nonce"
        );
        let mut working = self.state;
        for _ in 0..10 {
            // Column rounds.
            Self::quarter_round(&mut working, 0, 4, 8, 12);
            Self::quarter_round(&mut working, 1, 5, 9, 13);
            Self::quarter_round(&mut working, 2, 6, 10, 14);
            Self::quarter_round(&mut working, 3, 7, 11, 15);
            // Diagonal rounds.
            Self::quarter_round(&mut working, 0, 5, 10, 15);
            Self::quarter_round(&mut working, 1, 6, 11, 12);
            Self::quarter_round(&mut working, 2, 7, 8, 13);
            Self::quarter_round(&mut working, 3, 4, 9, 14);
        }
        let mut out = [0u8; 64];
        for i in 0..16 {
            let word = working[i].wrapping_add(self.state[i]);
            out[i * 4..(i + 1) * 4].copy_from_slice(&word.to_le_bytes());
        }
        self.advance(1);
        out
    }

    /// Blocks the counter can still produce (the one at `u32::MAX` is the
    /// last).
    #[cfg(target_arch = "x86_64")]
    fn blocks_left(&self) -> u64 {
        if self.exhausted {
            0
        } else {
            u64::from(u32::MAX - self.state[12]) + 1
        }
    }

    /// Moves the counter past `blocks` produced blocks (at most
    /// `blocks_left`). Consuming the block at `u32::MAX` parks
    /// the counter there and marks the cipher exhausted — the same end
    /// state whichever kernel produced the block.
    fn advance(&mut self, blocks: u64) {
        match u32::try_from(u64::from(self.state[12]) + blocks) {
            Ok(next) => self.state[12] = next,
            Err(_) => {
                self.state[12] = u32::MAX;
                self.exhausted = true;
            }
        }
    }

    /// Runs one wide `kernel` (`lanes` blocks per pass) over as many whole
    /// passes as `data` holds and the counter still allows; returns the
    /// bytes it covered.
    #[cfg(target_arch = "x86_64")]
    fn wide_passes(
        &mut self,
        data: &mut [u8],
        lanes: usize,
        kernel: fn(&[u32; 16], &mut [u8]),
    ) -> usize {
        let by_counter = self.blocks_left() / lanes as u64;
        let passes =
            (data.len() / (lanes * BLOCK)).min(by_counter.try_into().unwrap_or(usize::MAX));
        let covered = passes * lanes * BLOCK;
        if covered > 0 {
            kernel(&self.state, &mut data[..covered]);
            self.advance((passes * lanes) as u64);
        }
        covered
    }

    /// XORs the keystream into `data` in place (encryption and decryption
    /// are the same operation).
    ///
    /// # Panics
    ///
    /// Panics if `data` needs keystream past block counter `u32::MAX`
    /// (256 GiB under one key/nonce) — see `ChaCha20::next_block`.
    pub fn apply_keystream(&mut self, data: &mut [u8]) {
        self.apply_keystream_on(Tier::best(), data);
    }

    /// [`ChaCha20::apply_keystream`] with `tier` as the widest kernel
    /// allowed.
    fn apply_keystream_on(&mut self, tier: Tier, data: &mut [u8]) {
        #[cfg(target_arch = "x86_64")]
        let data = {
            let mut offset = 0;
            if tier >= Tier::Avx512 {
                offset += self.wide_passes(&mut data[offset..], avx512::LANES, avx512::xor_blocks);
            }
            if tier >= Tier::Avx2 {
                offset += self.wide_passes(&mut data[offset..], avx2::LANES, avx2::xor_blocks);
            }
            &mut data[offset..]
        };
        #[cfg(not(target_arch = "x86_64"))]
        let _ = tier;
        for chunk in data.chunks_mut(BLOCK) {
            let block = self.next_block();
            for (byte, &k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }
}

/// One-shot convenience: XORs the ChaCha20 keystream (counter starting at
/// `counter`) into `data`.
///
/// # Panics
///
/// Panics if `data` needs keystream past block counter `u32::MAX` — see
/// [`ChaCha20::apply_keystream`].
pub fn xor_keystream(key: &[u8; KEY_LEN], nonce: &[u8; NONCE_LEN], counter: u32, data: &mut [u8]) {
    ChaCha20::new(key, nonce, counter).apply_keystream(data);
}

/// [`xor_keystream`] with `tier` as the widest kernel allowed; panics as
/// it does, and if `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn xor_keystream_on(
    tier: Tier,
    key: &[u8; KEY_LEN],
    nonce: &[u8; NONCE_LEN],
    counter: u32,
    data: &mut [u8],
) {
    ChaCha20::new(key, nonce, counter).apply_keystream_on(tier, data);
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

    /// RFC 8439 §2.3.2: the keystream block test vector.
    #[test]
    fn rfc8439_block_function() {
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce_bytes = unhex("000000090000004a00000000");
        let nonce: [u8; 12] = nonce_bytes.try_into().unwrap();
        let mut cipher = ChaCha20::new(&key, &nonce, 1);
        let block = cipher.next_block();
        let expected = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4 c7d1f4c733c068030422aa9ac3d46c4e \
             d2826446079faa0914c2d705d98b02a2 b5129cd1de164eb9cbd083e8a2503c4e",
        );
        assert_eq!(block.to_vec(), expected);
    }

    /// RFC 8439 §2.4.2: the "Ladies and Gentlemen" encryption vector.
    #[test]
    fn rfc8439_encryption() {
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let nonce_bytes = unhex("000000000000004a00000000");
        let nonce: [u8; 12] = nonce_bytes.try_into().unwrap();
        let mut data = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.".to_vec();
        xor_keystream(&key, &nonce, 1, &mut data);
        let expected = unhex(
            "6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b \
             f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8 \
             07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736 \
             5af90bbf74a35be6b40b8eedf2785e42 874d",
        );
        assert_eq!(data, expected);
    }

    #[test]
    fn round_trip_various_lengths() {
        let key = [0x42u8; 32];
        let nonce = [0x24u8; 12];
        for len in [0usize, 1, 63, 64, 65, 127, 128, 1000] {
            let original: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
            let mut buf = original.clone();
            xor_keystream(&key, &nonce, 0, &mut buf);
            if len > 0 {
                assert_ne!(buf, original, "len {len} did not change");
            }
            xor_keystream(&key, &nonce, 0, &mut buf);
            assert_eq!(buf, original, "len {len} did not round-trip");
        }
    }

    #[test]
    fn different_nonce_gives_different_keystream() {
        let key = [1u8; 32];
        let mut a = vec![0u8; 64];
        let mut b = vec![0u8; 64];
        xor_keystream(&key, &[0u8; 12], 0, &mut a);
        xor_keystream(&key, &[1u8; 12], 0, &mut b);
        assert_ne!(a, b);
    }

    /// Reference implementation for the equivalence tests: one scalar
    /// block at a time, straight from the RFC definition.
    fn scalar_keystream(cipher: &ChaCha20, data: &mut [u8]) {
        let mut scalar = cipher.clone();
        for chunk in data.chunks_mut(64) {
            let block = scalar.next_block();
            for (byte, &k) in chunk.iter_mut().zip(block.iter()) {
                *byte ^= k;
            }
        }
    }

    /// The last usable block is the one at counter `u32::MAX`; the scalar
    /// path, and a wide pass handing its tail to it, must stop exactly
    /// there.
    #[test]
    fn counter_near_max_produces_final_blocks() {
        let key = [2u8; 32];
        let nonce = [4u8; 12];
        // Scalar path: three blocks starting at MAX - 2 are fine.
        let mut buf = vec![0u8; 192];
        ChaCha20::new(&key, &nonce, u32::MAX - 2).apply_keystream(&mut buf);
        // Nine blocks ending exactly at MAX: one eight-block pass where
        // the host has it, then the scalar tail produces block MAX. They
        // must equal the scalar blocks.
        let mut split = vec![0u8; 576];
        ChaCha20::new(&key, &nonce, u32::MAX - 8).apply_keystream(&mut split);
        let mut scalar = vec![0u8; 576];
        scalar_keystream(&ChaCha20::new(&key, &nonce, u32::MAX - 8), &mut scalar);
        assert_eq!(split, scalar);
        assert_eq!(&split[384..], &buf[..]);
    }

    #[test]
    #[should_panic(expected = "block counter exhausted")]
    fn counter_overflow_panics_instead_of_wrapping() {
        let mut cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX);
        let mut buf = vec![0u8; 128];
        // Block at u32::MAX succeeds; the 65th byte needs the wrapped
        // counter and must panic.
        cipher.apply_keystream(&mut buf);
    }

    #[test]
    #[should_panic(expected = "block counter exhausted")]
    fn counter_overflow_panics_after_scalar_tail() {
        // 640 bytes starting at MAX - 8: an eight-block pass and one
        // scalar block consume the remaining counters, the tenth block
        // must panic.
        let mut cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX - 8);
        let mut buf = vec![0u8; 640];
        cipher.apply_keystream(&mut buf);
    }

    /// The eight-block entry path (taken on AVX2 hosts for >= 512 B) must
    /// stop exactly at the counter limit too: eight blocks ending at MAX
    /// equal the scalar blocks, and the next byte panics.
    #[test]
    fn counter_near_max_matches_scalar_on_wide_path() {
        let key = [6u8; 32];
        let nonce = [8u8; 12];
        let mut wide = vec![0u8; 512];
        ChaCha20::new(&key, &nonce, u32::MAX - 7).apply_keystream(&mut wide);
        let mut scalar = vec![0u8; 512];
        scalar_keystream(&ChaCha20::new(&key, &nonce, u32::MAX - 7), &mut scalar);
        assert_eq!(wide, scalar);
    }

    #[test]
    #[should_panic(expected = "block counter exhausted")]
    fn counter_overflow_panics_after_wide_tail() {
        // 576 bytes starting at MAX - 7: the first eight blocks consume
        // the remaining counters, the ninth must panic.
        let mut cipher = ChaCha20::new(&[0u8; 32], &[0u8; 12], u32::MAX - 7);
        let mut buf = vec![0u8; 576];
        cipher.apply_keystream(&mut buf);
    }

    #[test]
    fn counter_advances_across_blocks() {
        // Applying to 128 bytes at once must equal two 64-byte applications
        // with counters 0 and 1.
        let key = [9u8; 32];
        let nonce = [3u8; 12];
        let mut whole = vec![0u8; 128];
        xor_keystream(&key, &nonce, 0, &mut whole);
        let mut first = vec![0u8; 64];
        let mut second = vec![0u8; 64];
        xor_keystream(&key, &nonce, 0, &mut first);
        xor_keystream(&key, &nonce, 1, &mut second);
        assert_eq!(&whole[..64], &first[..]);
        assert_eq!(&whole[64..], &second[..]);
    }

    fn tier_cipher(tier: Tier, cipher: &ChaCha20, data: &mut [u8]) {
        cipher.clone().apply_keystream_on(tier, data);
    }

    /// RFC 8439 §2.3.2 and §2.4.2 on every tier the host supports. The
    /// block vector (counter 1) is read out of a 2 KiB + 65 B zero buffer
    /// keyed from counter 0 and from counter 1, so it comes out of lane 1
    /// and lane 0 of every wide kernel, not only out of the scalar tail.
    #[test]
    fn rfc8439_vectors_hold_on_every_tier() {
        // Shown by CI (`--nocapture`): a runner without the wide tiers
        // says it pinned only the scalar twin.
        println!("chacha20 tiers exercised: {:?}", Tier::runnable(TIERS));
        let key: [u8; 32] = (0..32u8).collect::<Vec<_>>().try_into().unwrap();
        let block_nonce: [u8; 12] = unhex("000000090000004a00000000").try_into().unwrap();
        let block = unhex(
            "10f1e7e4d13b5915500fdd1fa32071c4 c7d1f4c733c068030422aa9ac3d46c4e \
             d2826446079faa0914c2d705d98b02a2 b5129cd1de164eb9cbd083e8a2503c4e",
        );
        let text_nonce: [u8; 12] = unhex("000000000000004a00000000").try_into().unwrap();
        let plaintext = b"Ladies and Gentlemen of the class of '99: If I could offer you only one tip for the future, sunscreen would be it.";
        let ciphertext = unhex(
            "6e2e359a2568f98041ba0728dd0d6981 e97e7aec1d4360c20a27afccfd9fae0b \
             f91b65c5524733ab8f593dabcd62b357 1639d624e65152ab8f530c359f0861d8 \
             07ca0dbf500d6a6156a38e088a22b65e 52bc514d16ccf806818ce91ab7793736 \
             5af90bbf74a35be6b40b8eedf2785e42 874d",
        );
        for tier in Tier::runnable(TIERS) {
            for counter in [0u32, 1] {
                let mut stream = vec![0u8; 2 * 1024 + 65];
                tier_cipher(
                    tier,
                    &ChaCha20::new(&key, &block_nonce, counter),
                    &mut stream,
                );
                let at = 64 * (1 - counter as usize);
                assert_eq!(&stream[at..at + 64], &block[..], "{tier:?}, from {counter}");
            }
            let mut text = plaintext.to_vec();
            tier_cipher(tier, &ChaCha20::new(&key, &text_nonce, 1), &mut text);
            assert_eq!(text, ciphertext, "{tier:?}");
        }
    }

    /// Every tier equals the scalar definition at every length from empty
    /// to two sixteen-block passes plus a ragged tail, at aligned and
    /// unaligned buffer offsets.
    #[test]
    fn every_tier_matches_scalar_at_every_length_and_offset() {
        let key = [0x3cu8; 32];
        let nonce = [0x71u8; 12];
        let cipher = ChaCha20::new(&key, &nonce, 5);
        let pattern: Vec<u8> = (0..2 * 1024 + 65 + 3)
            .map(|i| (i * 29 % 251) as u8)
            .collect();
        for offset in [0usize, 1, 3] {
            for len in 0..=2 * 1024 + 65 {
                let mut expected = pattern[offset..offset + len].to_vec();
                scalar_keystream(&cipher, &mut expected);
                for tier in Tier::runnable(TIERS) {
                    let mut actual = pattern.clone();
                    tier_cipher(tier, &cipher, &mut actual[offset..offset + len]);
                    assert_eq!(
                        &actual[offset..offset + len],
                        &expected[..],
                        "{tier:?}, len {len}, offset {offset}"
                    );
                    // Nothing outside the slice moved.
                    assert_eq!(&actual[..offset], &pattern[..offset]);
                    assert_eq!(&actual[offset + len..], &pattern[offset + len..]);
                }
            }
        }
    }

    /// The counter limit on every tier: a request ending exactly on block
    /// `u32::MAX` equals the scalar blocks however the passes split, one
    /// byte more panics, and a request the widest pass cannot take whole
    /// (21 blocks left) falls through the narrower tiers bit-identically.
    #[test]
    fn counter_limit_holds_on_every_tier() {
        let key = [6u8; 32];
        let nonce = [8u8; 12];
        for tier in Tier::runnable(TIERS) {
            for blocks in [1u32, 3, 4, 8, 16, 21, 32, 37] {
                let cipher = ChaCha20::new(&key, &nonce, u32::MAX - (blocks - 1));
                let mut expected = vec![0u8; blocks as usize * 64];
                scalar_keystream(&cipher, &mut expected);
                let mut actual = vec![0u8; expected.len()];
                tier_cipher(tier, &cipher, &mut actual);
                assert_eq!(actual, expected, "{tier:?}, last {blocks} blocks");

                let overflow = std::panic::catch_unwind(|| {
                    let mut buf = vec![0u8; blocks as usize * 64 + 1];
                    tier_cipher(tier, &cipher, &mut buf);
                });
                let message = *overflow
                    .expect_err("keystream past u32::MAX must panic")
                    .downcast::<&str>()
                    .expect("assert! with a literal message");
                assert!(
                    message.contains("block counter exhausted"),
                    "{tier:?}: {message}"
                );
            }
        }
    }

    /// A cipher driven in several calls ends in the same state on every
    /// tier: splitting a buffer at pass-size multiples gives the whole
    /// buffer's keystream (what the sealed box relies on: block 0 for
    /// the one-time MAC key, then the payload from block 1).
    #[test]
    fn split_calls_continue_the_keystream_on_every_tier() {
        let key = [0x11u8; 32];
        let nonce = [0x22u8; 12];
        let mut expected = vec![0u8; 4096 + 100];
        scalar_keystream(&ChaCha20::new(&key, &nonce, 9), &mut expected);
        for tier in Tier::runnable(TIERS) {
            let mut cipher = ChaCha20::new(&key, &nonce, 9);
            let mut actual = vec![0u8; expected.len()];
            let (a, rest) = actual.split_at_mut(1024);
            let (b, c) = rest.split_at_mut(2048);
            cipher.apply_keystream_on(tier, a);
            cipher.apply_keystream_on(tier, b);
            cipher.apply_keystream_on(tier, c);
            assert_eq!(actual, expected, "{tier:?}");
        }
    }

    /// The bench rows iterate `Tier::runnable(TIERS)`: it lists every
    /// rung of `TIERS` the host reaches, scalar first, and its widest
    /// rung is the kernel `Tier::best` dispatches to, so production runs
    /// exactly what the widest row measures and every row computes the
    /// same keystream.
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
        let mut reference = vec![0u8; 1500];
        xor_keystream(&[1; 32], &[2; 12], 3, &mut reference);
        for tier in listed {
            let mut buf = vec![0u8; 1500];
            xor_keystream_on(tier, &[1; 32], &[2; 12], 3, &mut buf);
            assert_eq!(buf, reference, "{}", tier.name());
        }
    }
}
