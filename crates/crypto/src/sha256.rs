//! SHA-256 (FIPS 180-4).
//!
//! Used for the enclave's attestation measurement, HMAC, and HKDF key
//! derivation. Incremental API plus a one-shot convenience function;
//! validated against the FIPS/NIST short-message vectors.
//!
//! The compression function is multi-block: `update` feeds every full
//! block of its input through one `compress_blocks` call, which runs the
//! SHA-NI (`sha` + `ssse3` + `sse4.1`) kernel when the CPU has it and the
//! portable scalar rounds otherwise. Two messages of one length hash
//! together through [`Sha256Pair`]: each step compresses one block of
//! each, and on SHA-NI the two round chains interleave — one chain alone
//! leaves the unit waiting on its own latency. The paired kernel's
//! portable twin is two single compressions. HKDF in the sealed box runs
//! the same paired compression over fixed blocks. A hasher picks its `Tier` once, at
//! construction, from [`mixnn_cpu::sha_ni`] alone — SHA-NI ships
//! independently of AVX-512, so it is probed beside the CPU ladder, not
//! on it, and there is no option; the tests construct one hasher per
//! supported tier instead. Both tiers implement the same FIPS 180-4
//! function and are pinned by the same vectors, so the choice is
//! invisible to callers.

/// Output size of SHA-256 in bytes.
pub const DIGEST_LEN: usize = 32;

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// The initial hash value.
pub(crate) const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Incremental SHA-256 hasher.
///
/// # Example
///
/// ```
/// use mixnn_crypto::sha256::Sha256;
///
/// let mut h = Sha256::new();
/// h.update(b"ab");
/// h.update(b"c");
/// let digest = h.finalize();
/// assert_eq!(digest, mixnn_crypto::sha256::digest(b"abc"));
/// ```
#[derive(Debug, Clone)]
pub struct Sha256(Streams<1>);

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh hasher.
    pub fn new() -> Self {
        Self::on(Tier::best())
    }

    /// A fresh hasher whose compressions run on `tier`.
    pub(crate) fn on(tier: Tier) -> Self {
        Sha256(Streams::on(tier))
    }

    /// Feeds `data` into the hash.
    pub fn update(&mut self, data: &[u8]) {
        self.0.update([data]);
    }

    /// Finishes and returns the 32-byte digest.
    pub fn finalize(self) -> [u8; DIGEST_LEN] {
        let [digest] = self.0.finalize();
        digest
    }
}

/// Two SHA-256 hashers fed in lockstep: every call hands each message
/// the same number of bytes, so both fill their blocks together and each
/// block of one is compressed in the same pass as the other's — on SHA-NI
/// two independent round chains interleaved, where one chain leaves the
/// unit waiting on its own results. The digests are those of two
/// [`Sha256`]s.
///
/// # Example
///
/// ```
/// use mixnn_crypto::sha256::{digest, Sha256Pair};
///
/// let mut pair = Sha256Pair::new();
/// pair.update(b"ab", b"xy");
/// pair.update(b"c", b"z");
/// assert_eq!(pair.finalize(), [digest(b"abc"), digest(b"xyz")]);
/// ```
#[derive(Debug, Clone)]
pub struct Sha256Pair(Streams<2>);

impl Default for Sha256Pair {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256Pair {
    /// Creates two fresh hashers.
    pub fn new() -> Self {
        Self::on(Tier::best())
    }

    /// Two fresh hashers whose compressions run on `tier`.
    pub(crate) fn on(tier: Tier) -> Self {
        Sha256Pair(Streams::on(tier))
    }

    /// Feeds `a` into the first hash and `b` into the second.
    ///
    /// # Panics
    ///
    /// Panics if `a` and `b` differ in length.
    pub fn update(&mut self, a: &[u8], b: &[u8]) {
        assert_eq!(a.len(), b.len(), "a pair is fed in lockstep");
        self.0.update([a, b]);
    }

    /// Finishes and returns both digests, the first hash's first.
    pub fn finalize(self) -> [[u8; DIGEST_LEN]; 2] {
        self.0.finalize()
    }
}

/// `N` hashers that have absorbed messages of one length: their block
/// buffers fill together, so every compression takes one block of each.
#[derive(Debug, Clone)]
struct Streams<const N: usize> {
    tier: Tier,
    states: [[u32; 8]; N],
    buffers: [[u8; 64]; N],
    buffer_len: usize,
    total_len: u64,
}

impl<const N: usize> Streams<N> {
    fn on(tier: Tier) -> Self {
        Streams {
            tier,
            states: [H0; N],
            buffers: [[0u8; 64]; N],
            buffer_len: 0,
            total_len: 0,
        }
    }

    /// Feeds `data[i]` into hash `i`; every part has the same length.
    fn update(&mut self, mut data: [&[u8]; N]) {
        let len = data[0].len();
        debug_assert!(data.iter().all(|part| part.len() == len));
        self.total_len = self.total_len.wrapping_add(len as u64);
        if self.buffer_len > 0 {
            let (at, take) = (self.buffer_len, (64 - self.buffer_len).min(len));
            for (buffer, part) in self.buffers.iter_mut().zip(&mut data) {
                buffer[at..at + take].copy_from_slice(&part[..take]);
                *part = &part[take..];
            }
            self.buffer_len += take;
            if self.buffer_len == 64 {
                self.compress_buffers();
                self.buffer_len = 0;
            }
        }
        let full = data[0].len() / 64 * 64;
        if full > 0 {
            compress_streams(self.tier, &mut self.states, data.map(|part| &part[..full]));
        }
        let rest = data[0].len() - full;
        if rest > 0 {
            for (buffer, part) in self.buffers.iter_mut().zip(data) {
                buffer[..rest].copy_from_slice(&part[full..]);
            }
            self.buffer_len = rest;
        }
    }

    /// Pads every buffered block in one fill — `0x80`, zeros, the 64-bit
    /// big-endian bit length, spilling into a second block when the
    /// length does not fit — and returns the digests.
    fn finalize(mut self) -> [[u8; DIGEST_LEN]; N] {
        let bit_len = self.total_len.wrapping_mul(8);
        let at = self.buffer_len;
        for buffer in &mut self.buffers {
            buffer[at] = 0x80;
            buffer[at + 1..].fill(0);
        }
        if at >= 56 {
            self.compress_buffers();
            for buffer in &mut self.buffers {
                buffer.fill(0);
            }
        }
        for buffer in &mut self.buffers {
            buffer[56..].copy_from_slice(&bit_len.to_be_bytes());
        }
        self.compress_buffers();
        self.states.map(|state| state_bytes(&state))
    }

    fn compress_buffers(&mut self) {
        let blocks = self.buffers;
        compress_streams(
            self.tier,
            &mut self.states,
            core::array::from_fn(|i| &blocks[i][..]),
        );
    }
}

/// A state's words as digest bytes (big-endian).
pub(crate) fn state_bytes(state: &[u32; 8]) -> [u8; DIGEST_LEN] {
    let mut out = [0u8; DIGEST_LEN];
    for (bytes, word) in out.chunks_exact_mut(4).zip(state) {
        bytes.copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// Compresses `blocks[i]` into `states[i]` for every stream: two streams
/// through the paired kernel, one through the single.
fn compress_streams<const N: usize>(tier: Tier, states: &mut [[u32; 8]; N], blocks: [&[u8]; N]) {
    if let ([a, b], [blocks_a, blocks_b]) = (states.as_mut_slice(), blocks.as_slice()) {
        return compress_pair(tier, a, b, blocks_a, blocks_b);
    }
    for (state, blocks) in states.iter_mut().zip(blocks) {
        compress_blocks(tier, state, blocks);
    }
}

/// Which compression kernel a hasher runs.
///
/// An argument rather than ambient state so the tests can pin every tier
/// the host supports to the same vectors; production callers get
/// [`Tier::best`] through [`Sha256::new`]. Digests do not depend on the
/// tier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Tier {
    /// The FIPS 180-4 rounds in plain scalar code.
    Portable,
    /// The x86-64 `sha` extension. Only [`Tier::best`] hands this out,
    /// and only on a CPU that has the kernel.
    ShaNi,
}

impl Tier {
    /// The fastest tier the running CPU supports.
    pub(crate) fn best() -> Tier {
        if mixnn_cpu::sha_ni() {
            Tier::ShaNi
        } else {
            Tier::Portable
        }
    }

    /// Every tier the running CPU supports, portable first.
    #[cfg(test)]
    pub(crate) fn supported() -> Vec<Tier> {
        let mut tiers = vec![Tier::Portable];
        if Tier::best() == Tier::ShaNi {
            tiers.push(Tier::ShaNi);
        }
        tiers
    }
}

/// Runs the SHA-256 compression function over `blocks` (whose length must
/// be a multiple of 64) on `tier`.
pub(crate) fn compress_blocks(tier: Tier, state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::ShaNi {
        return shani::compress_blocks(state, blocks);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    compress_blocks_portable(state, blocks);
}

/// Runs the compression function over `blocks_a` into `a` and over
/// `blocks_b` into `b` — equal lengths, multiples of 64 — on `tier`: on
/// SHA-NI the two messages' rounds interleave in one pass, in portable
/// code it is two [`compress_blocks`] calls.
pub(crate) fn compress_pair(
    tier: Tier,
    a: &mut [u32; 8],
    b: &mut [u32; 8],
    blocks_a: &[u8],
    blocks_b: &[u8],
) {
    debug_assert_eq!(blocks_a.len(), blocks_b.len());
    #[cfg(target_arch = "x86_64")]
    if tier == Tier::ShaNi {
        return shani::compress_pair(a, b, blocks_a, blocks_b);
    }
    compress_blocks(tier, a, blocks_a);
    compress_blocks(tier, b, blocks_b);
}

fn compress_blocks_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, chunk) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        state[0] = state[0].wrapping_add(a);
        state[1] = state[1].wrapping_add(b);
        state[2] = state[2].wrapping_add(c);
        state[3] = state[3].wrapping_add(d);
        state[4] = state[4].wrapping_add(e);
        state[5] = state[5].wrapping_add(f);
        state[6] = state[6].wrapping_add(g);
        state[7] = state[7].wrapping_add(h);
    }
}

/// SHA-NI compression kernel (x86-64 `sha` extension), selected at runtime
/// so the baseline build still runs everywhere.
#[cfg(target_arch = "x86_64")]
mod shani {
    use super::K;
    use mixnn_cpu::sha_ni;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Compresses `blocks` (whole 64-byte blocks; a ragged tail is
    /// ignored) into `state`.
    ///
    /// # Panics
    ///
    /// Panics unless [`sha_ni`] — callers select this tier only
    /// after checking it.
    pub fn compress_blocks(state: &mut [u32; 8], blocks: &[u8]) {
        assert!(sha_ni(), "SHA-NI selected on a CPU without it");
        // SAFETY: `sha_ni()` just confirmed sha, ssse3 and sse4.1 —
        // the features `compress_ni` enables.
        unsafe { compress_ni([state], [blocks]) }
    }

    /// Compresses `blocks_a` into `a` and `blocks_b` into `b`, the two
    /// messages' rounds interleaved.
    ///
    /// # Panics
    ///
    /// Panics unless [`sha_ni`], or if the two inputs differ in length.
    pub fn compress_pair(a: &mut [u32; 8], b: &mut [u32; 8], blocks_a: &[u8], blocks_b: &[u8]) {
        assert!(sha_ni(), "SHA-NI selected on a CPU without it");
        assert_eq!(
            blocks_a.len(),
            blocks_b.len(),
            "a pair compresses in lockstep"
        );
        // SAFETY: as in `compress_blocks`; both inputs hold the same
        // number of whole blocks, which is all `compress_ni` reads.
        unsafe { compress_ni([a, b], [blocks_a, blocks_b]) }
    }

    /// Compresses the whole blocks of `blocks[s]` into `states[s]` for
    /// each of `N` streams, one block of every stream per step: the
    /// streams' round chains are independent, so the unit runs them
    /// interleaved.
    ///
    /// # Safety
    ///
    /// Requires the `sha`, `ssse3` and `sse4.1` features, i.e.
    /// [`sha_ni`] returned `true`, and every `blocks[s]` at least as
    /// long as `blocks[0]`.
    #[target_feature(enable = "sha,ssse3,sse4.1")]
    unsafe fn compress_ni<const N: usize>(states: [&mut [u32; 8]; N], blocks: [&[u8]; N]) {
        // Big-endian message words → little-endian u32 lanes.
        let mask = _mm_set_epi8(12, 13, 14, 15, 8, 9, 10, 11, 4, 5, 6, 7, 0, 1, 2, 3);

        // Repack each linear state into the ABEF/CDGH register layout the
        // sha256rnds2 instruction works on.
        let mut abef = [_mm_setzero_si128(); N];
        let mut cdgh = [_mm_setzero_si128(); N];
        for (s, state) in states.iter().enumerate() {
            let dcba = _mm_loadu_si128(state.as_ptr().cast::<__m128i>());
            let hgfe = _mm_loadu_si128(state.as_ptr().add(4).cast::<__m128i>());
            let cdab = _mm_shuffle_epi32(dcba, 0xb1);
            let efgh = _mm_shuffle_epi32(hgfe, 0x1b);
            abef[s] = _mm_alignr_epi8(cdab, efgh, 8);
            cdgh[s] = _mm_blend_epi16(efgh, cdab, 0xf0);
        }

        for block in 0..blocks[0].len() / 64 {
            let (abef_save, cdgh_save) = (abef, cdgh);
            // Four message-schedule vectors of four words each per
            // stream, updated in place: at round group `r` (rounds
            // 4r..4r+4), `w[s][r % 4]` holds the current words and is
            // overwritten with the words for round group `r + 4`.
            let mut w: [[__m128i; 4]; N] = core::array::from_fn(|s| {
                let p = blocks[s].as_ptr().add(64 * block);
                core::array::from_fn(|i| {
                    _mm_shuffle_epi8(_mm_loadu_si128(p.add(16 * i).cast::<__m128i>()), mask)
                })
            });
            for r in 0..16 {
                let k = _mm_loadu_si128(K.as_ptr().add(4 * r).cast::<__m128i>());
                for s in 0..N {
                    let w = &mut w[s];
                    let wk = _mm_add_epi32(w[r & 3], k);
                    cdgh[s] = _mm_sha256rnds2_epu32(cdgh[s], abef[s], wk);
                    abef[s] = _mm_sha256rnds2_epu32(abef[s], cdgh[s], _mm_shuffle_epi32(wk, 0x0e));
                    if r < 12 {
                        let across = _mm_alignr_epi8(w[(r + 3) & 3], w[(r + 2) & 3], 4);
                        let partial = _mm_sha256msg1_epu32(w[r & 3], w[(r + 1) & 3]);
                        w[r & 3] =
                            _mm_sha256msg2_epu32(_mm_add_epi32(partial, across), w[(r + 3) & 3]);
                    }
                }
            }
            for s in 0..N {
                abef[s] = _mm_add_epi32(abef[s], abef_save[s]);
                cdgh[s] = _mm_add_epi32(cdgh[s], cdgh_save[s]);
            }
        }

        // Unpack ABEF/CDGH back into the linear states.
        for (s, state) in states.into_iter().enumerate() {
            let feba = _mm_shuffle_epi32(abef[s], 0x1b);
            let dchg = _mm_shuffle_epi32(cdgh[s], 0xb1);
            let dcba = _mm_blend_epi16(feba, dchg, 0xf0);
            let hgfe = _mm_alignr_epi8(dchg, feba, 8);
            _mm_storeu_si128(state.as_mut_ptr().cast::<__m128i>(), dcba);
            _mm_storeu_si128(state.as_mut_ptr().add(4).cast::<__m128i>(), hgfe);
        }
    }
}

/// One-shot SHA-256.
pub fn digest(data: &[u8]) -> [u8; DIGEST_LEN] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    #[test]
    fn fips_vector_empty() {
        assert_eq!(
            hex(&digest(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn fips_vector_abc() {
        assert_eq!(
            hex(&digest(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn fips_vector_448_bits() {
        assert_eq!(
            hex(&digest(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn fips_vector_896_bits() {
        assert_eq!(
            hex(&digest(
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu"
            )),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
        );
    }

    #[test]
    fn million_a() {
        let mut h = Sha256::new();
        let chunk = [b'a'; 1000];
        for _ in 0..1000 {
            h.update(&chunk);
        }
        assert_eq!(
            hex(&h.finalize()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn incremental_equals_oneshot_for_all_split_points() {
        let data: Vec<u8> = (0..200u8).collect();
        let expected = digest(&data);
        for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 199, 200] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), expected, "split at {split}");
        }
    }

    /// Every supported tier must agree with the portable rounds on
    /// multi-block inputs of every residue class.
    #[test]
    fn dispatched_kernel_matches_portable() {
        for tier in Tier::supported() {
            for blocks in [1usize, 2, 3, 4, 7] {
                let data: Vec<u8> = (0..blocks * 64).map(|i| (i % 251) as u8).collect();
                let mut fast = H0;
                compress_blocks(tier, &mut fast, &data);
                let mut portable = H0;
                compress_blocks_portable(&mut portable, &data);
                assert_eq!(fast, portable, "{tier:?}, {blocks} blocks");
            }
        }
    }

    fn digest_on(tier: Tier, data: &[u8]) -> [u8; DIGEST_LEN] {
        let mut h = Sha256::on(tier);
        h.update(data);
        h.finalize()
    }

    /// The FIPS 180-4 vectors, the million-`a` vector and the split-point
    /// sweep on every tier the host supports — `Sha256::new` only ever
    /// exercises the best one.
    #[test]
    fn fips_vectors_and_split_points_hold_on_every_tier() {
        // Shown by CI (`--nocapture`): a runner without the wide tiers
        // says it pinned only the scalar twin.
        println!("sha256 tiers exercised: {:?}", Tier::supported());
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        let data: Vec<u8> = (0..200u8).collect();
        for tier in Tier::supported() {
            for (message, expected) in vectors {
                assert_eq!(hex(&digest_on(tier, message)), expected, "{tier:?}");
            }
            let mut h = Sha256::on(tier);
            for _ in 0..1000 {
                h.update(&[b'a'; 1000]);
            }
            assert_eq!(
                hex(&h.finalize()),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{tier:?}"
            );
            let expected = digest_on(tier, &data);
            assert_eq!(expected, digest_on(Tier::Portable, &data), "{tier:?}");
            for split in [0, 1, 55, 56, 63, 64, 65, 127, 128, 199, 200] {
                let mut h = Sha256::on(tier);
                h.update(&data[..split]);
                h.update(&data[split..]);
                assert_eq!(h.finalize(), expected, "{tier:?}, split at {split}");
            }
        }
    }

    /// The paired compression on every tier equals two single ones —
    /// on blocks of one to seven, with the two states apart — and a
    /// `Sha256Pair` gives the FIPS 180-4 digests in either position at
    /// every split point, the million-`a` vector paired with its
    /// one-byte variant included.
    #[test]
    fn fips_vectors_hold_in_a_pair_and_the_paired_compression_is_two_single_ones() {
        println!("sha256 pair tiers exercised: {:?}", Tier::supported());
        let vectors: [(&[u8], &str); 4] = [
            (b"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc", "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (
                b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu",
                "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1",
            ),
        ];
        for tier in Tier::supported() {
            for blocks in 1usize..=7 {
                let a: Vec<u8> = (0..blocks * 64).map(|i| (i % 251) as u8).collect();
                let b: Vec<u8> = (0..blocks * 64).map(|i| (i * 7 % 253) as u8).collect();
                let (mut pair_a, mut pair_b) = (H0, H0);
                pair_b[3] ^= 0x5a5a;
                let (mut single_a, mut single_b) = (pair_a, pair_b);
                compress_pair(tier, &mut pair_a, &mut pair_b, &a, &b);
                compress_blocks_portable(&mut single_a, &a);
                compress_blocks_portable(&mut single_b, &b);
                assert_eq!(
                    [pair_a, pair_b],
                    [single_a, single_b],
                    "{tier:?}, {blocks} blocks"
                );
            }
            for (message, expected) in vectors {
                let mut other = message.to_vec();
                other.iter_mut().for_each(|b| *b ^= 0x20);
                for split in 0..=message.len() {
                    let mut pair = Sha256Pair::on(tier);
                    pair.update(&message[..split], &other[..split]);
                    pair.update(&message[split..], &other[split..]);
                    let [first, second] = pair.finalize();
                    assert_eq!(hex(&first), expected, "{tier:?}, split {split}");
                    assert_eq!(second, digest_on(Tier::Portable, &other), "{tier:?}");
                    let mut swapped = Sha256Pair::on(tier);
                    swapped.update(&other, message);
                    assert_eq!(hex(&swapped.finalize()[1]), expected, "{tier:?}");
                }
            }
            let mut pair = Sha256Pair::on(tier);
            let (a, mut b) = ([b'a'; 1000], [b'a'; 1000]);
            b[999] = b'b';
            for _ in 0..1000 {
                pair.update(&a, &b);
            }
            let [million_a, variant] = pair.finalize();
            assert_eq!(
                hex(&million_a),
                "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0",
                "{tier:?}"
            );
            let mut single = Sha256::on(Tier::Portable);
            for _ in 0..1000 {
                single.update(&b);
            }
            assert_eq!(variant, single.finalize(), "{tier:?}");
        }
    }

    #[test]
    #[should_panic(expected = "a pair is fed in lockstep")]
    fn a_pair_rejects_parts_of_different_lengths() {
        Sha256Pair::new().update(b"ab", b"c");
    }

    #[test]
    fn block_boundary_lengths() {
        // Lengths straddling the 55/56-byte padding boundary are the classic
        // off-by-one territory.
        for len in 50..70 {
            let data = vec![0xa5u8; len];
            let mut h = Sha256::new();
            for b in &data {
                h.update(std::slice::from_ref(b));
            }
            assert_eq!(h.finalize(), digest(&data), "len {len}");
        }
    }
}
