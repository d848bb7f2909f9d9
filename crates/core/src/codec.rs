//! Wire format for model updates.
//!
//! Participants serialize their per-layer parameter vectors with this codec
//! before sealing them to the enclave; the proxy decodes inside the
//! enclave. The format is versioned and explicitly little-endian for
//! payloads (headers are big-endian, as everywhere else on the wire).
//!
//! # Version 1 — full-precision f32
//!
//! ```text
//! magic   u32  = 0x4d49584e ("MIXN")
//! version u8   = 1
//! layers  u32
//! repeat layers times:
//!     len  u32
//!     data len × f32 (LE)
//! ```
//!
//! # Version 2 — affine int8 quantization, optional top-k sparsification
//!
//! A v2 **layer frame** opens with a sentinel no v1 layer can produce (a
//! length of `u32::MAX` would need 16 GiB of payload), so v1 and v2 frames
//! coexist and decoders auto-detect:
//!
//! ```text
//! sentinel u32  = 0xffffffff
//! version  u8   = 2
//! mode     u8          // 0 = dense int8, 1 = top-k int8
//! len      u32         // original parameter count
//! k        u32         // top-k only: kept parameter count
//! scale    f32 (LE)    // quantization step
//! zero     f32 (LE)    // zero point (value of quant level 0)
//! indices  k × 1..4 B  // top-k only: kept positions, ascending,
//!                      //   width = bytes needed for len-1
//! quants   len (dense) or k (top-k) × u8
//! ```
//!
//! Dequantization is `zero + q · scale` (f64 intermediate, so a
//! full-f32-range layer cannot overflow); positions a top-k frame dropped
//! decode to `0.0`.
//!
//! **Size determinism is a privacy requirement, not an optimization.** A
//! v2 frame's length is a pure function of `(len, CompressionConfig)` —
//! never of the parameter values: `k` derives from `len` and the
//! configured keep ratio, and the index width derives from `len` alone.
//! Per-layer envelope sizes are adversary-visible metadata in the cascade
//! (every hop and every wiretap sees them), so any content-dependent
//! length — entropy coding, value-dependent sparsity, varint indices —
//! would fingerprint clients by their update contents and shrink the
//! anonymity set the mix provides. [`encoded_layer_len_with`] is that
//! function, and the encoders `debug_assert` against it.
//!
//! **Decoders never trust a declared length.** A top-k header names a
//! `len` far larger than its payload (that is the point of
//! sparsification), so the decoders enforce the encode-side invariant
//! `len ≤ 1024·k` — the keep ratio is clamped to at least 1/1024, so
//! every frame a conforming encoder can emit satisfies it — before
//! allocating anything; a crafted ~30-byte frame can therefore never
//! name a multi-gigabyte allocation. All frame-size arithmetic is done
//! in `u64`, so a near-`u32::MAX` header cannot wrap a `usize`
//! computation on 32-bit targets either. One private reader does all of
//! it — a borrowed view, parsed where the frame lies — and every public
//! door composes that view; the `*_expecting` doors additionally reject a
//! frame whose declared geometry differs from the round's signature
//! before a value buffer exists.
//!
//! # Encoder tiers
//!
//! The lossy encoder runs the widest kernel the CPU has:
//!
//! | tier | select | emit and range fold | quantise | needs rung |
//! |---|---|---|---|---|
//! | AVX-512 | top two digits bracketed from a sample, the last by 16-lane mask compares | 16-lane masks, compressed index stores | kept values gathered back by index, 16 per step | [`Tier::Avx512`] (F + BW + DQ; the kernels enable F + BW) |
//! | scalar | three counting passes over flag bytes | flag bytes, one kept value at a time | one value at a time | — |
//!
//! The scalar tier is the definition; the wide tier emits byte-identical
//! frames (the same cut, the same f64 division per value, the same
//! first-seen rule for a `±0.0` bound). The tier is the rung of the one
//! CPU ladder in [`mixnn_cpu`] — detection alone, no option; the
//! tests pass each rung of [`TIERS`] the host reaches as an argument
//! instead.

use crate::ProxyError;
use bytes::{Buf, BufMut};
use mixnn_cpu::Tier;
use mixnn_crypto::sha256::{Sha256, Sha256Pair};
use mixnn_nn::{LayerParams, ModelParams};

/// Format magic: `"MIXN"` as a big-endian u32.
pub const MAGIC: u32 = 0x4d49_584e;
/// The full-precision f32 format version.
pub const VERSION: u8 = 1;
/// The quantized/sparsified format version.
pub const VERSION_V2: u8 = 2;
/// First four bytes of a v2 layer frame — an impossible v1 length.
pub const V2_SENTINEL: u32 = 0xffff_ffff;

/// Dense int8: every position carries one quantized byte.
const MODE_DENSE: u8 = 0;
/// Top-k int8: only the `k` largest-magnitude positions are kept.
const MODE_TOPK: u8 = 1;

/// v2 frame header bytes before the payload: sentinel + version + mode +
/// len + scale + zero.
const V2_DENSE_HEADER: usize = 4 + 1 + 1 + 4 + 4 + 4;
/// The top-k header additionally carries `k`.
const V2_TOPK_HEADER: usize = V2_DENSE_HEADER + 4;

/// How a participant compresses its update layers on the wire.
///
/// Every variant produces **signature-derived, content-independent**
/// encoded lengths: two updates with the same layer signature (and every
/// hop-generated dummy) encode to byte-length-identical frames, so sealing
/// them yields length-identical ciphertexts and compression adds no
/// linkability side channel (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum CompressionConfig {
    /// Version 1: full-precision f32, `4 + 4·len` bytes per layer.
    #[default]
    F32,
    /// Version 2 dense: per-layer affine int8, `18 + len` bytes per layer.
    Int8,
    /// Version 2 top-k: affine int8 over the `k` largest-magnitude values,
    /// `k = max(1, ⌈len · keep_per_1024 / 1024⌉)`, with fixed-budget index
    /// encoding — `22 + k · (index_width(len) + 1)` bytes per layer.
    Int8TopK {
        /// Kept parameters per 1024, rounded up per layer (clamped to
        /// `1..=1024` at encode time so a zero keeps the floor of one).
        keep_per_1024: u16,
    },
}

impl CompressionConfig {
    /// The default top-k keep ratio: one parameter in four.
    pub const DEFAULT_KEEP_PER_1024: u16 = 256;

    /// Top-k at the default keep ratio (1/4).
    pub fn int8_top_k() -> Self {
        CompressionConfig::Int8TopK {
            keep_per_1024: Self::DEFAULT_KEEP_PER_1024,
        }
    }

    /// Whether this is the uncompressed v1 format.
    pub fn is_f32(self) -> bool {
        self == CompressionConfig::F32
    }

    /// Short label for experiment output.
    pub fn name(self) -> &'static str {
        match self {
            CompressionConfig::F32 => "f32",
            CompressionConfig::Int8 => "int8",
            CompressionConfig::Int8TopK { .. } => "int8+topk",
        }
    }

    /// Parameters kept for a layer of `len` values — a pure function of
    /// `(len, self)`, **never** of the values (size determinism).
    pub fn kept(self, len: usize) -> usize {
        match self {
            CompressionConfig::F32 | CompressionConfig::Int8 => len,
            CompressionConfig::Int8TopK { keep_per_1024 } => {
                if len == 0 {
                    return 0;
                }
                let keep = u64::from(keep_per_1024).clamp(1, 1024);
                (len as u64 * keep).div_ceil(1024).max(1).min(len as u64) as usize
            }
        }
    }
}

/// Bytes per stored index for a layer of `len` values: the smallest width
/// that addresses `0..len` — derived from `len` alone, never from which
/// indices an update actually keeps.
fn index_width(len: usize) -> usize {
    if len <= 1 << 8 {
        1
    } else if len <= 1 << 16 {
        2
    } else if len <= 1 << 24 {
        3
    } else {
        4
    }
}

/// Serialized size in bytes for a model with the given layer signature.
pub fn encoded_len(signature: &[usize]) -> usize {
    encoded_len_with(signature, CompressionConfig::F32)
}

/// Serialized size of [`encode_params_with`] output — signature-derived,
/// content-independent.
pub fn encoded_len_with(signature: &[usize], compression: CompressionConfig) -> usize {
    4 + 1
        + 4
        + signature
            .iter()
            .map(|&l| encoded_layer_len_with(l, compression))
            .sum::<usize>()
}

/// Serialized size in bytes of one layer under [`encode_layer`].
pub fn encoded_layer_len(layer_len: usize) -> usize {
    encoded_layer_len_with(layer_len, CompressionConfig::F32)
}

/// Serialized size of one layer frame under `compression` — a pure
/// function of `(layer_len, compression)`. This being content-independent
/// is what keeps every client's (and every dummy's) sealed envelopes
/// byte-length-identical per layer.
pub fn encoded_layer_len_with(layer_len: usize, compression: CompressionConfig) -> usize {
    match compression {
        CompressionConfig::F32 => 4 + 4 * layer_len,
        CompressionConfig::Int8 => V2_DENSE_HEADER + layer_len,
        CompressionConfig::Int8TopK { .. } => {
            let k = compression.kept(layer_len);
            V2_TOPK_HEADER + k * (index_width(layer_len) + 1)
        }
    }
}

/// The **finite** values seen so far, as a running `[min, max]`, and the
/// affine quantization step they imply. Non-finite values never enter the
/// range (they are quantized against it, saturating).
#[derive(Debug)]
struct FiniteRange {
    min: f32,
    max: f32,
}

impl FiniteRange {
    const EMPTY: FiniteRange = FiniteRange {
        min: f32::INFINITY,
        max: f32::NEG_INFINITY,
    };

    /// Branch-free: a non-finite `v` is replaced by the identity of each
    /// fold. Of two equal bounds (±0.0) the one seen first stays.
    fn include(&mut self, v: f32) {
        let (lo, hi) = if v.is_finite() {
            (v, v)
        } else {
            (f32::INFINITY, f32::NEG_INFINITY)
        };
        self.min = if lo < self.min { lo } else { self.min };
        self.max = if hi > self.max { hi } else { self.max };
    }

    /// `(zero, scale)` with `zero = min`, `scale = (max − min) / 255` (f64
    /// intermediate so a full-f32-range layer yields a finite scale). No
    /// finite value at all gives `(0, 0)`; a constant layer gets scale
    /// `0`, so every quant level dequantizes back to the constant.
    fn affine(self) -> (f32, f32) {
        if self.min > self.max {
            return (0.0, 0.0);
        }
        let scale = ((f64::from(self.max) - f64::from(self.min)) / 255.0) as f32;
        (self.min, scale)
    }
}

/// `round((v − zero) / scale)` saturated into `0..=255`, rounding half
/// away from zero without a libm call: the saturating cast truncates
/// (NaN → 0, anything below `zero` → 0, +∞ → 255), `x − t` is exact for
/// every `x` the cast did not saturate, and the saturating add keeps 255
/// at 255. A zero scale collapses every finite value onto the zero point.
/// Bit-identical to `x.round() as u8` for every input (pinned against
/// `quantize_reference`).
fn quantize(v: f32, zero: f32, scale: f32) -> u8 {
    let x = (f64::from(v) - f64::from(zero)) / f64::from(scale);
    let t = x as u8;
    t.saturating_add(u8::from(x - f64::from(t) >= 0.5))
}

/// The definition [`quantize`] must reproduce.
#[cfg(test)]
fn quantize_reference(v: f32, zero: f32, scale: f32) -> u8 {
    ((f64::from(v) - f64::from(zero)) / f64::from(scale)).round() as u8
}

/// `zero + q · scale` in f64, rounded once to f32.
fn dequantize(q: u8, zero: f32, scale: f32) -> f32 {
    (f64::from(zero) + f64::from(q) * f64::from(scale)) as f32
}

/// Every level of [`dequantize`] for one frame's `(zero, scale)`: decoding
/// a quant byte is then one load.
fn dequant_table(zero: f32, scale: f32) -> [f32; 256] {
    std::array::from_fn(|q| dequantize(q as u8, zero, scale))
}

// ---- top-k selection ---------------------------------------------------
//
// The top-k set is defined by a total order: larger `total_cmp(|v|)`
// first (so NaN ranks above +∞), lower index first among equals. For a
// non-negative float `total_cmp` is the order of the bit patterns, so the
// order on magnitudes is the integer order on the 31-bit *key* below, and
// the set is "every key above the k-th largest, plus the lowest-index
// entries equal to it" — found by counting, never by comparing entries
// with each other.

/// Sign-stripped bit pattern: monotone in `total_cmp(|v|)`.
fn magnitude_key(v: f32) -> u32 {
    v.to_bits() & 0x7fff_ffff
}

/// The key's radix digits, most significant first: 11 + 10 + 10 bits.
const TOP_DIGIT_BITS: u32 = 11;
const LOW_DIGIT_BITS: u32 = 10;
const TOP_DIGITS: usize = 1 << TOP_DIGIT_BITS;
const LOW_DIGITS: usize = 1 << LOW_DIGIT_BITS;

/// Occurrences of each value of one digit, counted in two halves (even
/// and odd positions): on a layer whose values all share a digit the
/// increments would otherwise form one store-to-load chain.
type DigitCounts<const D: usize> = [[u32; D]; 2];

/// Walks the digit values from the top until `need` entries are covered:
/// returns the digit holding the `need`-th largest entry and how many of
/// that digit's entries are still needed. Steps eight digits at a time
/// while it can, so the (mostly empty) exponent range above a layer's
/// values costs little.
fn locate_digit<const D: usize>(counts: &DigitCounts<D>, need: usize) -> (u32, usize) {
    let at = |d: usize| counts[0][d] as usize + counts[1][d] as usize;
    let mut above = 0;
    let mut end = D;
    while end > 8 {
        let step: usize = (end - 8..end).map(at).sum();
        if above + step >= need {
            break;
        }
        above += step;
        end -= 8;
    }
    for d in (0..end).rev() {
        if above + at(d) >= need {
            return (d as u32, need - above);
        }
        above += at(d);
    }
    unreachable!("`need` never exceeds the number of entries counted")
}

/// Values per block of the flag-then-visit passes.
const BLOCK: usize = 64;

/// One flag byte per value of a block (at most [`BLOCK`] values; the rest
/// stay 0) — a loop the compiler vectorizes.
fn block_flags(block: &[f32], classify: impl Fn(u32) -> u8) -> [u8; BLOCK] {
    let mut flags = [0u8; BLOCK];
    for (flag, &v) in flags.iter_mut().zip(block) {
        *flag = classify(magnitude_key(v));
    }
    flags
}

/// Bit `j` of the result is bit `bit` of `flags[j]`: eight flag bytes at a
/// time, gathered into one byte by a carry-free multiply.
fn flag_bits(flags: &[u8; BLOCK], bit: u32) -> u64 {
    let mut bits = 0u64;
    for (j, chunk) in flags.chunks_exact(8).enumerate() {
        let lanes = u64::from_le_bytes(chunk.try_into().expect("chunks of 8"));
        let ones = (lanes >> bit) & 0x0101_0101_0101_0101;
        bits |= (ones.wrapping_mul(0x0102_0408_1020_4080) >> 56) << (8 * j);
    }
    bits
}

/// Counts the top digit of every key.
fn count_top_digit(values: &[f32]) -> DigitCounts<TOP_DIGITS> {
    let mut counts = [[0u32; TOP_DIGITS]; 2];
    for (i, &v) in values.iter().enumerate() {
        counts[i & 1][(magnitude_key(v) >> (2 * LOW_DIGIT_BITS)) as usize] += 1;
    }
    counts
}

/// Counts the 10-bit digit at `shift` over the keys whose bits above it
/// equal `prefix`. Few keys match, so a block is flagged first and only
/// the flagged positions are visited.
fn count_low_digit(values: &[f32], prefix: u32, shift: u32) -> DigitCounts<LOW_DIGITS> {
    let mut counts = [[0u32; LOW_DIGITS]; 2];
    let above = shift + LOW_DIGIT_BITS;
    for block in values.chunks(BLOCK) {
        let flags = block_flags(block, |key| u8::from(key >> above == prefix));
        let mut matching = flag_bits(&flags, 0);
        while matching != 0 {
            let j = matching.trailing_zeros() as usize;
            let digit = (magnitude_key(block[j]) >> shift) as usize % LOW_DIGITS;
            counts[j & 1][digit] += 1;
            matching &= matching - 1;
        }
    }
    counts
}

/// Where a layer's top-k set ends: it holds every value whose magnitude
/// key exceeds `key`, plus the first `ties` (lowest-index) values whose
/// key equals it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopKCut {
    key: u32,
    ties: usize,
}

/// Finds the cut of the `k` largest-magnitude values (all of them when
/// `k ≥ values.len()`) in three counting passes, one per key digit — the
/// pass structure depends on nothing but the length. Deterministic: ties
/// break toward the lower index under a total order (`total_cmp` on
/// `|v|`, so NaN ranks above +∞ and is kept — it quantizes to the zero
/// point rather than silently vanishing). This is the scalar tier, the
/// definition; the encoder runs the widest tier the CPU has (see the
/// module docs).
///
/// # Panics
///
/// Panics on a layer longer than `u32::MAX` values — the wire format has
/// no length for it.
pub fn top_k_cut(values: &[f32], k: usize) -> TopKCut {
    assert!(
        u32::try_from(values.len()).is_ok(),
        "layer lengths are u32 on the wire"
    );
    let need = k.min(values.len());
    let (top, need) = locate_digit(&count_top_digit(values), need);
    let (mid, need) = locate_digit(&count_low_digit(values, top, LOW_DIGIT_BITS), need);
    let prefix = top << LOW_DIGIT_BITS | mid;
    let (low, ties) = locate_digit(&count_low_digit(values, prefix, 0), need);
    TopKCut {
        key: prefix << LOW_DIGIT_BITS | low,
        ties,
    }
}

/// Writes the indices of the set `cut` describes into `index_area` —
/// ascending, `W` big-endian bytes each, exactly filling it — and returns
/// the range of the kept finite values. One pass: a block is flagged
/// (above the cut key / equal to it), the first still-needed ties join the
/// kept mask, and only kept positions are visited.
fn emit_top_k<const W: usize>(values: &[f32], cut: TopKCut, index_area: &mut [u8]) -> FiniteRange {
    let mut ties = cut.ties;
    let mut range = FiniteRange::EMPTY;
    let mut slots = index_area.chunks_exact_mut(W);
    for (b, block) in values.chunks(BLOCK).enumerate() {
        // 2 above the cut key, 1 equal to it, 0 below.
        let flags = block_flags(block, |key| {
            u8::from(key > cut.key) + u8::from(key >= cut.key)
        });
        let mut kept = flag_bits(&flags, 1);
        let mut equal = flag_bits(&flags, 0);
        while equal != 0 && ties > 0 {
            kept |= equal & equal.wrapping_neg();
            equal &= equal - 1;
            ties -= 1;
        }
        while kept != 0 {
            let j = kept.trailing_zeros() as usize;
            let index = (b * BLOCK + j) as u32;
            slots
                .next()
                .expect("the cut keeps exactly k values")
                .copy_from_slice(&index.to_be_bytes()[4 - W..]);
            range.include(block[j]);
            kept &= kept - 1;
        }
    }
    debug_assert!(slots.next().is_none(), "the cut keeps exactly k values");
    range
}

/// One stored index: `W` big-endian bytes.
fn read_index<const W: usize>(bytes: &[u8]) -> usize {
    let mut be = [0u8; 4];
    be[4 - W..].copy_from_slice(bytes);
    u32::from_be_bytes(be) as usize
}

/// The top-k payload of one frame, written in place: indices into
/// `index_area`, then the kept values quantized against their own range
/// into `quant_area`. Returns that range's `(zero, scale)`.
fn encode_top_k<const W: usize>(
    values: &[f32],
    index_area: &mut [u8],
    quant_area: &mut [u8],
) -> (f32, f32) {
    let cut = top_k_cut(values, quant_area.len());
    let (zero, scale) = emit_top_k::<W>(values, cut, index_area).affine();
    for (quant, index) in quant_area.iter_mut().zip(index_area.chunks_exact(W)) {
        *quant = quantize(values[read_index::<W>(index)], zero, scale);
    }
    (zero, scale)
}

/// The dense payload of one frame, written in place: every value quantized
/// against the range of the finite ones into `quants`. Returns that
/// range's `(zero, scale)`.
fn encode_dense(values: &[f32], quants: &mut [u8]) -> (f32, f32) {
    let mut range = FiniteRange::EMPTY;
    values.iter().for_each(|&v| range.include(v));
    let (zero, scale) = range.affine();
    for (quant, &v) in quants.iter_mut().zip(values) {
        *quant = quantize(v, zero, scale);
    }
    (zero, scale)
}

/// The rungs with a lossy-encoder kernel, scalar first. Not an option —
/// the encoder runs [`Tier::best`]; the tests and the bench rows
/// `codec/encode/<tier>/*` and `codec/topk/select/<tier>/*` run each one
/// the host reaches.
#[doc(hidden)]
pub const TIERS: &[Tier] = &[Tier::Scalar, Tier::Avx512];

/// [`top_k_cut`] on `tier`: the same cut. Panics as it does, and if
/// `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn top_k_cut_on(tier: Tier, values: &[f32], k: usize) -> TopKCut {
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        return avx512::top_k_cut(values, k);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    top_k_cut(values, k)
}

/// [`encode_top_k`] on `tier`, with `width`-byte indices: the same payload.
fn encode_top_k_on(
    tier: Tier,
    width: usize,
    values: &[f32],
    index_area: &mut [u8],
    quant_area: &mut [u8],
) -> (f32, f32) {
    #[cfg(target_arch = "x86_64")]
    if tier >= Tier::Avx512 {
        return avx512::encode_top_k(values, width, index_area, quant_area);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = tier;
    match width {
        1 => encode_top_k::<1>(values, index_area, quant_area),
        2 => encode_top_k::<2>(values, index_area, quant_area),
        3 => encode_top_k::<3>(values, index_area, quant_area),
        _ => encode_top_k::<4>(values, index_area, quant_area),
    }
}

/// The AVX-512 tier of the lossy encoder. Every per-value decision of the
/// scalar tier — above the cut key, equal to it, finite, inside a digit
/// prefix — is one lane of a 16-bit mask here, so a step needs no flag
/// bytes and kept lanes are compressed rather than visited:
///
/// - **select**: a layer of [`BRACKET_FROM`](avx512::BRACKET_FROM) values
///   or more finds its top two digits through a bracket read off a
///   strided sample — one pass counts the keys above the bracket by mask
///   popcount and histograms the keys inside it by both digits at once —
///   and counts them as the scalar tier does when the sample misled; the
///   last digit counts the lanes a mask compare put under the prefix.
/// - **emit**: a step's kept indices are compressed into one register,
///   shuffled into big-endian `W`-byte entries and stored under a byte
///   mask; the kept finite values fold into lane-wise min/max registers.
/// - **quantise**: the written indices are read back sixteen at a time and
///   their values gathered, and each lane takes the scalar tier's f64
///   subtract, divide and round-half-up.
///
/// A lane-wise fold forgets visiting order, which decides only which zero
/// a `±0.0` bound keeps; [`first_zero_wins`](avx512::first_zero_wins)
/// restores the scalar rule. All of the codec's `unsafe` is here, behind
/// safe entries that check the CPU first.
#[cfg(target_arch = "x86_64")]
mod avx512 {
    use super::{
        count_top_digit, locate_digit, magnitude_key, DigitCounts, FiniteRange, TopKCut,
        LOW_DIGITS, LOW_DIGIT_BITS, TOP_DIGITS,
    };
    use core::arch::x86_64::*;
    use mixnn_cpu::Tier;

    /// Values per step.
    const LANES: usize = 16;
    /// The key of +∞: every key below it is a finite value's.
    const INFINITY_KEY: u32 = 0x7f80_0000;
    /// Bits of a key below its top digit.
    const TOP_SHIFT: u32 = 2 * LOW_DIGIT_BITS;
    /// The shortest layer whose top two digits are bracketed from a
    /// sample; a shorter one is counted in full.
    pub(super) const BRACKET_FROM: usize = 1 << 14;
    /// Steps of values in the sample, evenly strided over the layer.
    const SAMPLE_STEPS: usize = 512;
    /// The most top digits a bracket may span.
    const BRACKET_DIGITS: u32 = 4;

    /// [`super::top_k_cut`]: the same cut.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`] — callers select this
    /// tier only after checking it — and on a layer longer than `u32::MAX`
    /// values.
    pub fn top_k_cut(values: &[f32], k: usize) -> TopKCut {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 codec selected on a CPU without it"
        );
        assert!(
            u32::try_from(values.len()).is_ok(),
            "layer lengths are u32 on the wire"
        );
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F and BW, the
        // features `cut` enables; it reads `values` through masked loads
        // of in-bounds lanes and bounds-checked indexing only.
        unsafe { cut(values, k.min(values.len())) }
    }

    /// [`super::encode_top_k`] with `width`-byte indices: the same payload.
    ///
    /// # Panics
    ///
    /// As [`top_k_cut`], and unless `index_area` holds one entry per byte
    /// of `quant_area`.
    pub fn encode_top_k(
        values: &[f32],
        width: usize,
        index_area: &mut [u8],
        quant_area: &mut [u8],
    ) -> (f32, f32) {
        match width {
            1 => top_k_payload::<1>(values, index_area, quant_area),
            2 => top_k_payload::<2>(values, index_area, quant_area),
            3 => top_k_payload::<3>(values, index_area, quant_area),
            _ => top_k_payload::<4>(values, index_area, quant_area),
        }
    }

    /// [`encode_top_k`] at one index width.
    fn top_k_payload<const W: usize>(
        values: &[f32],
        index_area: &mut [u8],
        quant_area: &mut [u8],
    ) -> (f32, f32) {
        let cut = top_k_cut(values, quant_area.len());
        assert_eq!(
            index_area.len(),
            W * quant_area.len(),
            "one index entry per kept value"
        );
        // SAFETY: `top_k_cut` just confirmed AVX-512 F and BW, the
        // features `emit` enables; it loads only in-bounds lanes of
        // `values` and stores only into bounds-checked subslices of
        // `index_area`, under a byte mask no longer than the subslice.
        let range = unsafe { emit::<W>(values, cut, index_area) };
        let (zero, scale) = first_zero_wins(range, values).affine();
        // SAFETY: as above, for `quantize_kept`, which reads `index_area`
        // through masked loads no longer than each chunk, clamps every
        // gathered index into `values`, and stores only into chunks of
        // `quant_area` under a lane mask no longer than the chunk.
        unsafe { quantize_kept::<W>(values, index_area, zero, scale, quant_area) };
        (zero, scale)
    }

    /// [`super::encode_dense`]: the same payload.
    ///
    /// # Panics
    ///
    /// Panics unless the CPU reaches [`Tier::Avx512`], and unless `quants`
    /// holds a byte per value.
    pub fn encode_dense(values: &[f32], quants: &mut [u8]) -> (f32, f32) {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 codec selected on a CPU without it"
        );
        assert_eq!(values.len(), quants.len(), "one quant byte per value");
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F and BW, the
        // features `finite_range` enables; it loads only in-bounds lanes.
        let range = unsafe { finite_range(values) };
        let (zero, scale) = first_zero_wins(range, values).affine();
        // SAFETY: as above, for `quantize_all`, which stores only into
        // bounds-checked subslices of `quants` of at most sixteen bytes,
        // under a lane mask no longer than the subslice.
        unsafe { quantize_all(values, zero, scale, quants) };
        (zero, scale)
    }

    /// `range` as [`FiniteRange::include`] leaves it, given that a
    /// lane-wise fold found its bounds: a nonzero bound has one bit
    /// pattern, but of the two zeros the scalar fold keeps whichever came
    /// first. `values` is the layer the folded values came from, whose
    /// first zero was folded whenever a zero bound was — every zero of a
    /// dense frame is, and a zero has the smallest key, so the zeros a
    /// top-k cut keeps are the layer's first `ties`.
    pub(super) fn first_zero_wins(mut range: FiniteRange, values: &[f32]) -> FiniteRange {
        if range.min == 0.0 || range.max == 0.0 {
            let first = *values
                .iter()
                .find(|&&v| v == 0.0)
                .expect("a zero bound was folded");
            if range.min == 0.0 {
                range.min = first;
            }
            if range.max == 0.0 {
                range.max = first;
            }
        }
        range
    }

    /// Whether the bracket, not the full count, found the top and middle
    /// digits of the `need`-th largest key of `values`.
    #[cfg(test)]
    pub(super) fn bracket_holds(values: &[f32], need: usize) -> bool {
        assert!(
            Tier::Avx512.available(),
            "AVX-512 codec selected on a CPU without it"
        );
        // SAFETY: the `Avx512` rung just confirmed AVX-512 F and BW, the
        // features `bracketed_prefix` enables.
        unsafe { bracketed_prefix(values, need) }.is_some()
    }

    /// The lanes a step keeps: every lane above the cut key and, while
    /// ties remain, the lowest lanes equal to it.
    fn keep(above: u16, equal: u16, ties: &mut usize) -> u16 {
        let equal_count = equal.count_ones() as usize;
        if equal_count <= *ties {
            *ties -= equal_count;
            return above | equal;
        }
        let (mut kept, mut equal) = (above, equal);
        for _ in 0..*ties {
            kept |= equal & equal.wrapping_neg();
            equal &= equal - 1;
        }
        *ties = 0;
        kept
    }

    /// Lanes `0..n` of a step.
    fn lanes(n: usize) -> u16 {
        if n >= LANES {
            u16::MAX
        } else {
            (1 << n) - 1
        }
    }

    /// The step of `values` at `at < values.len()`: its values, their
    /// magnitude keys and the mask of lanes inside the layer (lanes past
    /// its end are zero and outside the mask).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn load(values: &[f32], at: usize) -> (__m512, __m512i, u16) {
        let valid = lanes(values.len() - at);
        // Masked-out lanes are neither read nor faulted on, and the rest
        // lie in `values[at..]`.
        let v = _mm512_maskz_loadu_ps(valid, values.as_ptr().add(at));
        let key = _mm512_and_si512(_mm512_castps_si512(v), _mm512_set1_epi32(0x7fff_ffff));
        (v, key, valid)
    }

    /// # Safety
    ///
    /// Requires AVX-512 F and BW, i.e. the CPU reaches [`Tier::Avx512`].
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn cut(values: &[f32], need: usize) -> TopKCut {
        let (prefix, need) = bracketed_prefix(values, need).unwrap_or_else(|| {
            let (top, need) = locate_digit(&count_top_digit(values), need);
            let (mid, need) = locate_digit(&count_low_digit(values, top, LOW_DIGIT_BITS), need);
            (top << LOW_DIGIT_BITS | mid, need)
        });
        let (low, ties) = locate_digit(&count_low_digit(values, prefix, 0), need);
        TopKCut {
            key: prefix << LOW_DIGIT_BITS | low,
            ties,
        }
    }

    /// The top and middle digits of the `need`-th largest key, and how
    /// many keys under that 21-bit prefix are still needed — by a bracket.
    /// A strided sample names the top digits the key should lie between;
    /// one pass counts the keys above them and histograms the keys inside
    /// by top digit and middle digit at once (at most [`BRACKET_DIGITS`]
    /// top digits, told apart by their two low bits), and the histogram
    /// is walked as the scalar tier walks its first two. `None` — count
    /// in full — for a short layer, for a sample spread over more top
    /// digits, or when the sample misled and the key lies outside the
    /// bracket.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn bracketed_prefix(values: &[f32], need: usize) -> Option<(u32, usize)> {
        if values.len() < BRACKET_FROM || need == 0 {
            return None;
        }
        let mut sample: DigitCounts<TOP_DIGITS> = [[0; TOP_DIGITS]; 2];
        let mut sampled = 0;
        let every = (values.len() / LANES / SAMPLE_STEPS).max(1);
        for step in values.chunks_exact(LANES).step_by(every) {
            for (j, &v) in step.iter().enumerate() {
                sample[j & 1][(magnitude_key(v) >> TOP_SHIFT) as usize] += 1;
            }
            sampled += LANES;
        }
        // The key's rank in the sample, give or take a margin several
        // standard deviations wide for a sample of the layer's own
        // distribution.
        let rank = (need * sampled).div_ceil(values.len());
        let margin = sampled / 32 + 32;
        let (high, _) = locate_digit(&sample, rank.saturating_sub(margin).max(1));
        let (low, _) = locate_digit(&sample, (rank + margin).min(sampled));
        if high - low >= BRACKET_DIGITS {
            return None;
        }
        let ceiling = high << TOP_SHIFT | ((1 << TOP_SHIFT) - 1);
        let (counts, mut above) = count_digit::<{ BRACKET_DIGITS as usize * LOW_DIGITS }>(
            values,
            low << TOP_SHIFT,
            ceiling,
            LOW_DIGIT_BITS,
        );
        if above >= need {
            return None;
        }
        for top in (low..=high).rev() {
            let at = (top % BRACKET_DIGITS) as usize * LOW_DIGITS;
            let mids: DigitCounts<LOW_DIGITS> = [0, 1].map(|half| {
                counts[half][at..at + LOW_DIGITS]
                    .try_into()
                    .expect("one top digit's middle digits")
            });
            let inside: usize = mids.iter().flatten().map(|&c| c as usize).sum();
            if above + inside >= need {
                let (mid, need) = locate_digit(&mids, need - above);
                return Some((top << LOW_DIGIT_BITS | mid, need));
            }
            above += inside;
        }
        None
    }

    /// [`super::count_low_digit`]: the same counts.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn count_low_digit(values: &[f32], prefix: u32, shift: u32) -> DigitCounts<LOW_DIGITS> {
        let above = shift + LOW_DIGIT_BITS;
        let floor = prefix << above;
        count_digit::<LOW_DIGITS>(values, floor, floor | ((1 << above) - 1), shift).0
    }

    /// Keys held back before they are counted.
    const PENDING: usize = 256;

    /// The occurrences of digit `(key >> shift) % D` among the keys in
    /// `floor..=ceiling`, and how many keys lie above `ceiling`. A step's
    /// keys inside are compressed into a buffer that is counted whenever
    /// it fills, so no branch follows the data lane by lane; a step with
    /// none (almost every step of the last digit's pass) stores nothing.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn count_digit<const D: usize>(
        values: &[f32],
        floor: u32,
        ceiling: u32,
        shift: u32,
    ) -> (DigitCounts<D>, usize) {
        let mut counts = [[0u32; D]; 2];
        let count = |counts: &mut DigitCounts<D>, keys: &[u32]| {
            for (i, &key) in keys.iter().enumerate() {
                counts[i & 1][(key >> shift) as usize % D] += 1;
            }
        };
        let (floor, ceiling) = (
            _mm512_set1_epi32(floor as i32),
            _mm512_set1_epi32(ceiling as i32),
        );
        let mut pending = [0u32; PENDING + LANES];
        let (mut held, mut above) = (0, 0);
        for at in (0..values.len()).step_by(LANES) {
            let (_, key, valid) = load(values, at);
            let over = _mm512_mask_cmpgt_epu32_mask(valid, key, ceiling);
            let inside = _mm512_mask_cmpge_epu32_mask(valid, key, floor) & !over;
            above += over.count_ones() as usize;
            if inside == 0 {
                continue;
            }
            let slots = &mut pending[held..held + LANES];
            _mm512_storeu_si512(
                slots.as_mut_ptr().cast(),
                _mm512_maskz_compress_epi32(inside, key),
            );
            held += inside.count_ones() as usize;
            if held >= PENDING {
                count(&mut counts, &pending[..held]);
                held = 0;
            }
        }
        count(&mut counts, &pending[..held]);
        (counts, above)
    }

    /// The shuffles between sixteen indices, one `u32` per lane, and their
    /// big-endian `W`-byte entries packed at the front of a register: on
    /// the way out `pack` moves each index's low `W` bytes, most
    /// significant first, to the front of its 128-bit lane and `compact`
    /// moves each lane's `W` dwords of entries next to the previous
    /// lane's; on the way back `spread` and `unpack` undo them. A byte
    /// index of `-128` clears its target.
    struct Shuffles {
        pack: [i8; 64],
        compact: [i32; LANES],
        spread: [i32; LANES],
        unpack: [i8; 64],
    }

    fn shuffles<const W: usize>() -> Shuffles {
        let mut shuffles = Shuffles {
            pack: [-128; 64],
            compact: [0; LANES],
            spread: [0; LANES],
            unpack: [-128; 64],
        };
        for lane in 0..4 {
            for index in 0..4 {
                // Byte `byte` of an entry is byte `W − 1 − byte` of its
                // little-endian index.
                for byte in 0..W {
                    let entry = W * index + byte;
                    let little = 4 * index + W - 1 - byte;
                    shuffles.pack[16 * lane + entry] = little as i8;
                    shuffles.unpack[16 * lane + little] = entry as i8;
                }
            }
            for dword in 0..W {
                shuffles.compact[W * lane + dword] = (4 * lane + dword) as i32;
                shuffles.spread[4 * lane + dword] = (W * lane + dword) as i32;
            }
        }
        shuffles
    }

    /// [`super::emit_top_k`]: the same index bytes and the same bounds up
    /// to the sign of a zero one (see [`first_zero_wins`]).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn emit<const W: usize>(
        values: &[f32],
        cut: TopKCut,
        index_area: &mut [u8],
    ) -> FiniteRange {
        let shuffles = shuffles::<W>();
        let pack = _mm512_loadu_si512(shuffles.pack.as_ptr().cast());
        let compact = _mm512_loadu_si512(shuffles.compact.as_ptr().cast());
        let lane = _mm512_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let cut_key = _mm512_set1_epi32(cut.key as i32);
        let infinity = _mm512_set1_epi32(INFINITY_KEY as i32);
        let mut min = _mm512_set1_ps(f32::INFINITY);
        let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
        let mut ties = cut.ties;
        let mut written = 0;
        for at in (0..values.len()).step_by(LANES) {
            let (v, key, valid) = load(values, at);
            let kept = keep(
                _mm512_mask_cmpgt_epu32_mask(valid, key, cut_key),
                _mm512_mask_cmpeq_epi32_mask(valid, key, cut_key),
                &mut ties,
            );
            if kept == 0 {
                continue;
            }
            let count = kept.count_ones() as usize;
            let indices = _mm512_add_epi32(_mm512_set1_epi32(at as i32), lane);
            let entries = _mm512_permutexvar_epi32(
                compact,
                _mm512_shuffle_epi8(_mm512_maskz_compress_epi32(kept, indices), pack),
            );
            let slots = &mut index_area[W * written..W * (written + count)];
            // `slots` holds 1..=64 bytes: the mask covers exactly it.
            _mm512_mask_storeu_epi8(
                slots.as_mut_ptr().cast(),
                u64::MAX >> (64 - slots.len()),
                entries,
            );
            written += count;
            let finite = _mm512_mask_cmplt_epu32_mask(kept, key, infinity);
            min = _mm512_mask_min_ps(min, finite, v, min);
            max = _mm512_mask_max_ps(max, finite, v, max);
        }
        debug_assert_eq!(
            W * written,
            index_area.len(),
            "the cut keeps exactly k values"
        );
        fold_lanes(min, max)
    }

    /// The range of sixteen lane minima and maxima (unfilled lanes hold
    /// the fold identities ±∞, which do not enter it).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    unsafe fn fold_lanes(min: __m512, max: __m512) -> FiniteRange {
        let mut lanes = [0f32; 2 * LANES];
        _mm512_storeu_ps(lanes.as_mut_ptr(), min);
        _mm512_storeu_ps(lanes[LANES..].as_mut_ptr(), max);
        let mut range = FiniteRange::EMPTY;
        lanes.iter().for_each(|&v| range.include(v));
        range
    }

    /// The range of the finite values, lane-wise (see
    /// [`first_zero_wins`]).
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    unsafe fn finite_range(values: &[f32]) -> FiniteRange {
        let infinity = _mm512_set1_epi32(INFINITY_KEY as i32);
        let mut min = _mm512_set1_ps(f32::INFINITY);
        let mut max = _mm512_set1_ps(f32::NEG_INFINITY);
        for at in (0..values.len()).step_by(LANES) {
            let (v, key, valid) = load(values, at);
            let finite = _mm512_mask_cmplt_epu32_mask(valid, key, infinity);
            min = _mm512_mask_min_ps(min, finite, v, min);
            max = _mm512_mask_max_ps(max, finite, v, max);
        }
        fold_lanes(min, max)
    }

    /// A frame's `(zero, scale)` in every f64 lane.
    struct Levels {
        zero: __m512d,
        scale: __m512d,
    }

    impl Levels {
        /// # Safety
        ///
        /// Requires AVX-512 F.
        #[target_feature(enable = "avx512f")]
        unsafe fn new(zero: f32, scale: f32) -> Levels {
            Levels {
                zero: _mm512_set1_pd(f64::from(zero)),
                scale: _mm512_set1_pd(f64::from(scale)),
            }
        }

        /// [`super::quantize`] of sixteen values, one level per 32-bit
        /// lane.
        ///
        /// # Safety
        ///
        /// Requires AVX-512 F.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn of(&self, v: __m512) -> __m512i {
            let high = _mm256_castpd_ps(_mm512_extractf64x4_pd::<1>(_mm512_castps_pd(v)));
            self.of_halves(_mm512_castps512_ps256(v), high)
        }

        /// [`Levels::of`] of the sixteen values `low`, then `high`.
        ///
        /// # Safety
        ///
        /// Requires AVX-512 F.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn of_halves(&self, low: __m256, high: __m256) -> __m512i {
            let (low, low_up) = self.truncate(_mm512_cvtps_pd(low));
            let (high, high_up) = self.truncate(_mm512_cvtps_pd(high));
            let levels = _mm512_inserti64x4::<1>(_mm512_castsi256_si512(low), high);
            let up = u16::from(low_up) | u16::from(high_up) << 8;
            _mm512_mask_add_epi32(levels, up, levels, _mm512_set1_epi32(1))
        }

        /// Eight lanes of [`super::quantize`] before its last step: the
        /// saturating cast `t` of `x = (v − zero) / scale` and whether
        /// `x − t ≥ 0.5`. `x` is clamped into `[0, 255]` first — `max`
        /// returns its second operand, 0, when `x` is NaN — which changes
        /// no level: below the range the cast gives 0 and `x − 0 < 0.5`,
        /// above it 255 and the add saturates.
        ///
        /// # Safety
        ///
        /// Requires AVX-512 F.
        #[target_feature(enable = "avx512f")]
        #[inline]
        unsafe fn truncate(&self, v: __m512d) -> (__m256i, u8) {
            let x = _mm512_div_pd(_mm512_sub_pd(v, self.zero), self.scale);
            let x = _mm512_min_pd(_mm512_max_pd(x, _mm512_setzero_pd()), _mm512_set1_pd(255.0));
            let t = _mm512_cvttpd_epi32(x);
            let fraction = _mm512_sub_pd(x, _mm512_cvtepi32_pd(t));
            (
                t,
                _mm512_cmp_pd_mask::<_CMP_GE_OQ>(fraction, _mm512_set1_pd(0.5)),
            )
        }
    }

    /// Writes the low byte of lanes `0..slots.len()` (at most sixteen) of
    /// `levels` into `slots`.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    #[inline]
    unsafe fn store_levels(slots: &mut [u8], levels: __m512i) {
        _mm512_mask_cvtepi32_storeu_epi8(slots.as_mut_ptr().cast(), lanes(slots.len()), levels);
    }

    /// Every value quantized into `quants`, sixteen per step.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F.
    #[target_feature(enable = "avx512f")]
    unsafe fn quantize_all(values: &[f32], zero: f32, scale: f32, quants: &mut [u8]) {
        let levels = Levels::new(zero, scale);
        for at in (0..values.len()).step_by(LANES) {
            let (v, _, _) = load(values, at);
            let end = values.len().min(at + LANES);
            store_levels(&mut quants[at..end], levels.of(v));
        }
    }

    /// The kept values quantized into `quant_area`, sixteen at a time:
    /// their indices are read back from `index_area`, where [`emit`] wrote
    /// them, and their values gathered.
    ///
    /// # Safety
    ///
    /// Requires AVX-512 F and BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn quantize_kept<const W: usize>(
        values: &[f32],
        index_area: &[u8],
        zero: f32,
        scale: f32,
        quant_area: &mut [u8],
    ) {
        let Some(last) = values.len().checked_sub(1) else {
            return;
        };
        let shuffles = shuffles::<W>();
        let spread = _mm512_loadu_si512(shuffles.spread.as_ptr().cast());
        let unpack = _mm512_loadu_si512(shuffles.unpack.as_ptr().cast());
        // Every index `emit` wrote lies in the layer already; the clamp
        // keeps each gather inside it whatever `index_area` holds.
        let last = _mm512_set1_epi32(last as i32);
        let levels = Levels::new(zero, scale);
        for (entries, quants) in index_area
            .chunks(LANES * W)
            .zip(quant_area.chunks_mut(LANES))
        {
            // `entries` holds 1..=64 bytes: the mask covers exactly it.
            let bytes =
                _mm512_maskz_loadu_epi8(u64::MAX >> (64 - entries.len()), entries.as_ptr().cast());
            let indices = _mm512_shuffle_epi8(_mm512_permutexvar_epi32(spread, bytes), unpack);
            let indices = _mm512_min_epu32(indices, last);
            let valid = lanes(quants.len());
            let low = _mm512_mask_i64gather_ps::<4>(
                _mm256_setzero_ps(),
                valid as u8,
                _mm512_cvtepu32_epi64(_mm512_castsi512_si256(indices)),
                values.as_ptr(),
            );
            let high = _mm512_mask_i64gather_ps::<4>(
                _mm256_setzero_ps(),
                (valid >> 8) as u8,
                _mm512_cvtepu32_epi64(_mm512_extracti64x4_epi64::<1>(indices)),
                values.as_ptr(),
            );
            store_levels(quants, levels.of_halves(low, high));
        }
    }
}

/// The definition [`top_k_cut`] and [`emit_top_k`] must reproduce: indices
/// of the `k` largest-magnitude values, ascending, by selection under the
/// total order itself.
#[cfg(test)]
fn top_k_indices_reference(values: &[f32], k: usize) -> Vec<u32> {
    let rank = |a: u32, b: u32| {
        values[b as usize]
            .abs()
            .total_cmp(&values[a as usize].abs())
            .then(a.cmp(&b))
    };
    let mut idx: Vec<u32> = (0..values.len() as u32).collect();
    if k < idx.len() {
        // The comparator is a total order, so the *set* landing before
        // position k is unique however the partition shuffles internally.
        idx.select_nth_unstable_by(k, |&a, &b| rank(a, b));
        idx.truncate(k);
    }
    idx.sort_unstable();
    idx
}

/// Bulk LE write: `values` into `dst` (exactly `4 · values.len()` bytes),
/// 4-byte chunks instead of per-value `put_f32_le` calls — one bounds
/// check per chunk, vectorizable, no incremental capacity growth.
fn write_f32_le_bulk(dst: &mut [u8], values: &[f32]) {
    debug_assert_eq!(dst.len(), 4 * values.len());
    for (chunk, &v) in dst.chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
}

/// [`write_f32_le_bulk`] appending to `out`: the bytes go straight into
/// its spare capacity, never zero-filled first.
fn extend_f32_le(out: &mut Vec<u8>, values: &[f32]) {
    let len = 4 * values.len();
    out.reserve(len);
    let spare = &mut out.spare_capacity_mut()[..len];
    for (chunk, &v) in spare.chunks_exact_mut(4).zip(values) {
        for (byte, b) in chunk.iter_mut().zip(v.to_le_bytes()) {
            byte.write(b);
        }
    }
    // SAFETY: the loop above initialised the first `len` bytes of spare
    // capacity, which `reserve` made at least `len` long.
    unsafe { out.set_len(out.len() + len) };
}

/// Bulk LE read: the inverse of [`write_f32_le_bulk`], value by value.
fn read_f32_le_bulk(src: &[u8]) -> impl Iterator<Item = f32> + '_ {
    debug_assert_eq!(src.len() % 4, 0);
    src.chunks_exact(4)
        .map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]]))
}

/// Encodes model parameters into the v1 wire format.
///
/// # Example
///
/// ```
/// use mixnn_core::codec;
/// use mixnn_nn::{LayerParams, ModelParams};
///
/// # fn main() -> Result<(), mixnn_core::ProxyError> {
/// let params = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0, 2.0])]);
/// let bytes = codec::encode_params(&params);
/// assert_eq!(codec::decode_params(&bytes)?, params);
/// # Ok(())
/// # }
/// ```
pub fn encode_params(params: &ModelParams) -> Vec<u8> {
    encode_params_with(params, CompressionConfig::F32)
}

/// Encodes model parameters under `compression`: v1 for
/// [`CompressionConfig::F32`], otherwise a version-2 MIXN body whose
/// layers are self-delimiting v2 frames ([`encode_layer_with`]).
pub fn encode_params_with(params: &ModelParams, compression: CompressionConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_len_with(&params.signature(), compression));
    encode_params_into(&mut out, params, compression);
    out
}

/// Appends the body [`encode_params_with`] returns to `out`, encoding it
/// in place — for a caller that lays the body out behind a header of its
/// own (a sealed box's, sealed in place around it). Exactly
/// `encoded_len_with(&params.signature(), compression)` bytes are
/// appended; reserve them first and nothing is reallocated.
pub fn encode_params_into(out: &mut Vec<u8>, params: &ModelParams, compression: CompressionConfig) {
    let start = out.len();
    out.put_u32(MAGIC);
    out.put_u8(if compression.is_f32() {
        VERSION
    } else {
        VERSION_V2
    });
    out.put_u32(wire_len(params.num_layers()));
    for layer in params.iter() {
        encode_layer_into(out, layer, compression);
    }
    debug_assert_eq!(
        out.len() - start,
        encoded_len_with(&params.signature(), compression),
        "encoded length must be content-free"
    );
}

/// Decodes model parameters from the wire format (v1 or v2,
/// auto-detected from the version byte).
///
/// # Errors
///
/// Returns [`ProxyError::UnsupportedCodecVersion`] for a version this
/// build does not speak, and [`ProxyError::Codec`] on truncation, bad
/// magic, malformed v2 frames or trailing garbage.
pub fn decode_params(bytes: &[u8]) -> Result<ModelParams, ProxyError> {
    let body = ParamsBody::parse(bytes)?;
    body.read(LayerFrame::decode).map(ModelParams::from_layers)
}

/// [`decode_params`], but the caller states the layer signature the body
/// must carry (from the round's configuration). The declared geometry of
/// every frame is walked structurally — headers only, no value buffer —
/// and compared to `expected_signature` **before** anything is decoded,
/// so a crafted body cannot force allocations the signature does not
/// authorize.
///
/// This is [`decode_params_into`] over fresh zeros, allocated once the
/// body has passed both checks: the same values, bit for bit, and the
/// same error for every body.
///
/// # Errors
///
/// [`ProxyError::SignatureMismatch`] (carrying the full expected and
/// declared signatures) when the declared layer lengths differ, plus
/// every condition of [`decode_params`]. Structural malformation is
/// reported as [`ProxyError::Codec`], taking precedence over the
/// signature comparison — exactly what decode-then-compare reported.
pub fn decode_params_expecting(
    bytes: &[u8],
    expected_signature: &[usize],
) -> Result<ModelParams, ProxyError> {
    let body = ParamsBody::expecting(bytes, expected_signature)?;
    let mut out = ModelParams::from_layers(
        expected_signature
            .iter()
            .map(|&len| LayerParams::from_values(vec![0.0; len]))
            .collect(),
    );
    body.write(&mut out)?;
    Ok(out)
}

/// [`decode_params_expecting`] into the caller's update, which must
/// already have the layer lengths `expected_signature` names: nothing is
/// allocated, and every position of `out` is overwritten — a top-k
/// frame's dropped positions with `0.0` — so what `out` held before never
/// shows through. Bit for bit the values [`decode_params_expecting`]
/// returns: what the proxy runs to decode a round into the updates its
/// participants handed over.
///
/// # Errors
///
/// Exactly those of [`decode_params_expecting`], in the same precedence,
/// all reported before anything is written: on any error `out` is
/// untouched.
///
/// # Panics
///
/// Panics if `out`'s layer lengths are not `expected_signature`.
pub fn decode_params_into(
    bytes: &[u8],
    expected_signature: &[usize],
    out: &mut ModelParams,
) -> Result<(), ProxyError> {
    assert!(
        has_signature(out, expected_signature),
        "the decode target must have the expected signature"
    );
    ParamsBody::expecting(bytes, expected_signature)?.write(out)
}

/// Whether `params` has the layer lengths `signature` names, compared in
/// place.
pub(crate) fn has_signature(params: &ModelParams, signature: &[usize]) -> bool {
    params.num_layers() == signature.len()
        && params
            .iter()
            .zip(signature)
            .all(|(layer, &len)| layer.len() == len)
}

/// A params body past its header: the frames of a version-`version` body
/// that declares `layer_count` of them, and must end with the last.
struct ParamsBody<'a> {
    version: u8,
    layer_count: usize,
    frames: &'a [u8],
}

impl<'a> ParamsBody<'a> {
    /// Reads the body header: magic, version, a plausible layer count.
    fn parse(mut bytes: &'a [u8]) -> Result<Self, ProxyError> {
        if bytes.remaining() < 9 {
            return Err(malformed("header truncated"));
        }
        if bytes.get_u32() != MAGIC {
            return Err(malformed("bad magic"));
        }
        let version = bytes.get_u8();
        if version != VERSION && version != VERSION_V2 {
            return Err(ProxyError::UnsupportedCodecVersion { version });
        }
        let layer_count = bytes.get_u32() as usize;
        // Sanity bound: each declared layer needs at least its length header.
        if layer_count > bytes.remaining() / 4 + 1 {
            return Err(malformed("implausible layer count"));
        }
        Ok(ParamsBody {
            version,
            layer_count,
            frames: bytes,
        })
    }

    /// [`ParamsBody::parse`], then the pre-pass: every frame validated
    /// and its declared length compared to `expected` where it lies,
    /// before a value buffer exists. Structure is reported before the
    /// signature, and the declared signature is only built for the
    /// mismatch error.
    fn expecting(bytes: &'a [u8], expected: &[usize]) -> Result<Self, ProxyError> {
        let body = Self::parse(bytes)?;
        let mut matches = body.layer_count == expected.len();
        let mut expected_lens = expected.iter();
        body.walk(|frame| {
            frame.validate()?;
            matches &= expected_lens.next() == Some(&frame.len);
            Ok(())
        })?;
        if !matches {
            return Err(ProxyError::SignatureMismatch {
                expected: expected.to_vec(),
                actual: body.read(|frame| Ok(frame.len))?,
            });
        }
        Ok(body)
    }

    /// Hands every frame to `visit`, in order; the body must end with the
    /// last of them.
    fn walk(
        &self,
        mut visit: impl FnMut(&LayerFrame<'a>) -> Result<(), ProxyError>,
    ) -> Result<(), ProxyError> {
        let mut bytes = self.frames;
        for _ in 0..self.layer_count {
            let frame = LayerFrame::parse(bytes, Some(self.version), None)?;
            visit(&frame)?;
            bytes = frame.rest;
        }
        if !bytes.is_empty() {
            return Err(malformed("trailing bytes after last layer"));
        }
        Ok(())
    }

    /// What `read` takes from each frame.
    fn read<T>(
        &self,
        read: impl Fn(&LayerFrame<'a>) -> Result<T, ProxyError>,
    ) -> Result<Vec<T>, ProxyError> {
        let mut out = Vec::with_capacity(self.layer_count);
        self.walk(|frame| {
            out.push(read(frame)?);
            Ok(())
        })?;
        Ok(out)
    }

    /// Decodes every frame over the matching layer of `out`, which a
    /// [`ParamsBody::expecting`] pre-pass pinned to the frames' lengths.
    fn write(&self, out: &mut ModelParams) -> Result<(), ProxyError> {
        let mut layers = out.iter_mut();
        self.walk(|frame| {
            let layer = layers.next().expect("the pre-pass pinned the layer count");
            frame.decode_into(layer.values_mut())
        })
    }
}

/// SHA-256 digest of a **single layer's** canonical encoding
/// ([`encode_layer`]).
///
/// This is the cascade's cover-stripping primitive: mixing permutes every
/// layer *independently* across a group's slots, so a cover update's
/// layers scatter over different output slots — a whole-model digest can
/// never find them again. Per-layer digests can: hops announce the digest
/// of each cover layer they generated, and the server drops matching layer
/// blobs from the mixed outputs without ever learning which slot (or which
/// co-arrived layers) the cover came from.
///
/// The digest is always over the **canonical v1 encoding** of the layer's
/// bit-exact values. Under a lossy wire codec the values the server
/// decodes are the *dequantized* ones, so announce
/// `layer_digest(&canonical_layer(layer, compression))` — the digest of
/// what the wire will deliver, not of the pre-quantization original — or,
/// holding the frame itself, [`frame_digest`].
///
/// The frame is streamed into the hash 1,024 values at a time through a
/// stack buffer; it is never built.
pub fn layer_digest(layer: &LayerParams) -> [u8; 32] {
    values_digest(layer.values())
}

/// [`layer_digest`] of the layer holding `values`.
fn values_digest(values: &[f32]) -> [u8; 32] {
    let mut hash = Sha256::new();
    hash.update(&wire_len(values.len()).to_be_bytes());
    let mut chunk = [0u8; 4 * DIGEST_CHUNK];
    for part in values.chunks(DIGEST_CHUNK) {
        let bytes = &mut chunk[..4 * part.len()];
        write_f32_le_bulk(bytes, part);
        hash.update(bytes);
    }
    hash.finalize()
}

/// How many values [`layer_digest`] converts to wire bytes per hash update.
const DIGEST_CHUNK: usize = 1024;

/// [`layer_digest`] of two layers at once: `[layer_digest(a),
/// layer_digest(b)]`. Layers of one length — one layer of two updates of
/// a signature — hash in lockstep through a [`Sha256Pair`], both streamed
/// through one stack chunk (half of it each), so each SHA-256 pass
/// compresses a block of each; layers of different lengths hash one
/// after the other.
pub fn layer_digest_pair(a: &LayerParams, b: &LayerParams) -> [[u8; 32]; 2] {
    let (a, b) = (a.values(), b.values());
    if a.len() != b.len() {
        return [values_digest(a), values_digest(b)];
    }
    let mut hash = Sha256Pair::new();
    let header = wire_len(a.len()).to_be_bytes();
    hash.update(&header, &header);
    let mut chunk = [0u8; 4 * DIGEST_CHUNK];
    let (bytes_a, bytes_b) = chunk.split_at_mut(2 * DIGEST_CHUNK);
    for (part_a, part_b) in a.chunks(DIGEST_CHUNK / 2).zip(b.chunks(DIGEST_CHUNK / 2)) {
        let (bytes_a, bytes_b) = (
            &mut bytes_a[..4 * part_a.len()],
            &mut bytes_b[..4 * part_b.len()],
        );
        write_f32_le_bulk(bytes_a, part_a);
        write_f32_le_bulk(bytes_b, part_b);
        hash.update(bytes_a, bytes_b);
    }
    hash.finalize()
}

/// [`layer_digest`] of the layer `frame` decodes to: what a sender that
/// has just encoded a frame announces, without a second encode. A v1
/// frame is the canonical encoding already and is hashed where it lies; a
/// v2 frame is decoded into `scratch` (kept by the caller, grown to the
/// longest layer once) and its values hashed.
///
/// # Errors
///
/// Every condition of [`decode_layer`].
pub fn frame_digest(frame: &[u8], scratch: &mut Vec<f32>) -> Result<[u8; 32], ProxyError> {
    sole_frame(frame, None, |layer| {
        if layer.version == VERSION {
            return Ok(mixnn_crypto::sha256::digest(frame));
        }
        scratch.clear();
        scratch.resize(layer.len, 0.0);
        layer.decode_into(scratch.as_mut_slice())?;
        Ok(values_digest(scratch))
    })
}

/// The value a decoder recovers after one encode/decode trip of `layer`
/// under `compression` — the *canonical post-wire form*.
///
/// For [`CompressionConfig::F32`] this is the identity (the v1 round trip
/// is bit-exact). For the lossy v2 modes it is the dequantized layer, and
/// it is **stable**: decoding is a deterministic function of the frame
/// bytes, so everyone who decodes the same frame — every server replica, a
/// coordinator pre-computing a cover digest — recovers bit-identical
/// values. (Re-*encoding* a decoded layer is not guaranteed to reproduce
/// the frame; canonicalize values, never frames.)
pub fn canonical_layer(layer: &LayerParams, compression: CompressionConfig) -> LayerParams {
    if compression.is_f32() {
        return layer.clone();
    }
    decode_layer(&encode_layer_with(layer, compression))
        .expect("a frame this codec just encoded decodes")
}

/// [`canonical_layer`] over every layer of a model.
pub fn canonical_params(params: &ModelParams, compression: CompressionConfig) -> ModelParams {
    if compression.is_f32() {
        return params.clone();
    }
    ModelParams::from_layers(
        params
            .iter()
            .map(|l| canonical_layer(l, compression))
            .collect(),
    )
}

/// Encodes a **single** layer's parameter vector in the v1 format:
/// `len u32` followed by `len` little-endian f32s.
///
/// This is the innermost plaintext of a cascade onion — each neural-network
/// layer travels as its own independently encrypted blob, so the per-layer
/// framing cannot reference the rest of the model.
pub fn encode_layer(layer: &LayerParams) -> Vec<u8> {
    encode_layer_with(layer, CompressionConfig::F32)
}

/// Encodes a single layer under `compression`: the v1 frame for
/// [`CompressionConfig::F32`], otherwise a v2 frame (see the module docs).
/// The output length is exactly
/// `encoded_layer_len_with(layer.len(), compression)` for **any** values.
pub fn encode_layer_with(layer: &LayerParams, compression: CompressionConfig) -> Vec<u8> {
    let mut out = Vec::with_capacity(encoded_layer_len_with(layer.len(), compression));
    encode_layer_into(&mut out, layer, compression);
    out
}

/// Appends the frame [`encode_layer_with`] returns to `out`, encoding it
/// in place — for callers that lay a frame out inside a larger buffer
/// (the params body, an onion blob behind its envelope headers). Exactly
/// `encoded_layer_len_with(layer.len(), compression)` bytes are appended.
pub fn encode_layer_into(out: &mut Vec<u8>, layer: &LayerParams, compression: CompressionConfig) {
    encode_layer_on(Tier::best(), out, layer, compression);
}

/// [`encode_layer_into`] with `tier` as the widest kernel: the same frame.
/// Panics if `tier` selects a kernel the CPU cannot run.
#[doc(hidden)]
pub fn encode_layer_on(
    tier: Tier,
    out: &mut Vec<u8>,
    layer: &LayerParams,
    compression: CompressionConfig,
) {
    let values = layer.values();
    let start = out.len();
    let len = encoded_layer_len_with(values.len(), compression);
    // The v1 frame is the header then the values, appended into reserved
    // capacity as is; the v2 kernels write into a zero-filled frame.
    match compression {
        CompressionConfig::F32 => {
            out.reserve(len);
            out.extend_from_slice(&wire_len(values.len()).to_be_bytes());
            extend_f32_le(out, values);
        }
        CompressionConfig::Int8 => {
            out.resize(start + len, 0);
            let (header, quants) = out[start..].split_at_mut(V2_DENSE_HEADER);
            let (zero, scale) = match tier {
                #[cfg(target_arch = "x86_64")]
                tier if tier >= Tier::Avx512 => avx512::encode_dense(values, quants),
                _ => encode_dense(values, quants),
            };
            write_v2_header(header, values.len(), None, zero, scale);
        }
        CompressionConfig::Int8TopK { .. } => {
            let k = compression.kept(values.len());
            let width = index_width(values.len());
            out.resize(start + len, 0);
            let (header, payload) = out[start..].split_at_mut(V2_TOPK_HEADER);
            let (index_area, quant_area) = payload.split_at_mut(k * width);
            let (zero, scale) = encode_top_k_on(tier, width, values, index_area, quant_area);
            write_v2_header(header, values.len(), Some(k), zero, scale);
        }
    }
}

/// A length field of a header: every count on the wire is a `u32`.
///
/// # Panics
///
/// Panics past `u32::MAX` — the frame could not say how long it is.
fn wire_len(len: usize) -> u32 {
    u32::try_from(len).expect("layer lengths are u32 on the wire")
}

/// Fills a v2 frame header: dense when `k` is `None`, top-k otherwise
/// (`header` is exactly [`V2_DENSE_HEADER`] or [`V2_TOPK_HEADER`] bytes).
fn write_v2_header(header: &mut [u8], len: usize, k: Option<usize>, zero: f32, scale: f32) {
    header[..4].copy_from_slice(&V2_SENTINEL.to_be_bytes());
    header[4] = VERSION_V2;
    header[5] = if k.is_some() { MODE_TOPK } else { MODE_DENSE };
    header[6..10].copy_from_slice(&wire_len(len).to_be_bytes());
    if let Some(k) = k {
        header[10..14].copy_from_slice(&wire_len(k).to_be_bytes());
    }
    let (scale_at, zero_at) = (header.len() - 8, header.len() - 4);
    header[scale_at..zero_at].copy_from_slice(&scale.to_le_bytes());
    header[zero_at..].copy_from_slice(&zero.to_le_bytes());
}

/// Decodes a single layer frame, auto-detecting v1 vs v2 from the
/// sentinel.
///
/// # Errors
///
/// Returns [`ProxyError::UnsupportedCodecVersion`] for a sentinel-opened
/// frame with an unknown version byte, and [`ProxyError::Codec`] on
/// truncation, malformed v2 headers or trailing bytes.
pub fn decode_layer(bytes: &[u8]) -> Result<LayerParams, ProxyError> {
    sole_frame(bytes, None, LayerFrame::decode)
}

/// Structurally validates one layer frame **without decompressing**: every
/// header field is checked, the frame's declared geometry must account for
/// exactly `bytes.len()`, and a top-k frame's indices must be in-range,
/// strictly ascending (the canonical encoding) — but no f32 is converted
/// and no value buffer is allocated. This is what an intermediate hop can
/// afford to run on every unwrapped blob at line rate.
///
/// Returns the frame's wire version.
///
/// # Errors
///
/// Same conditions as [`decode_layer`].
pub fn validate_layer_frame(bytes: &[u8]) -> Result<u8, ProxyError> {
    sole_frame(bytes, None, LayerFrame::validate)
}

/// The parameter count a layer frame *declares* in its header — a cheap
/// header peek (no payload validation, no allocation) for checking a
/// frame against an expected signature before decoding it.
///
/// # Errors
///
/// Returns [`ProxyError::UnsupportedCodecVersion`] for an unknown
/// sentinel-opened version and [`ProxyError::Codec`] on a truncated
/// header.
pub fn declared_layer_len(bytes: &[u8]) -> Result<usize, ProxyError> {
    LayerFrame::declared(bytes, None).map(|(_, len)| len)
}

/// [`decode_layer`], but the caller states how many parameters the frame
/// must carry (from the round's layer signature). A mismatched declared
/// count is rejected as [`ProxyError::SignatureMismatch`] **before** any
/// allocation, so a crafted header can never force a buffer the
/// signature does not authorize.
///
/// # Errors
///
/// [`ProxyError::SignatureMismatch`] on a declared-length mismatch, plus
/// every condition of [`decode_layer`].
pub fn decode_layer_expecting(
    bytes: &[u8],
    expected_len: usize,
) -> Result<LayerParams, ProxyError> {
    sole_frame(bytes, Some(expected_len), LayerFrame::decode)
}

/// [`decode_layer_expecting`] into the caller's buffer: the frame must
/// declare exactly `out.len()` parameters, and every position of `out` is
/// overwritten — a top-k frame's dropped positions with `0.0` — so what
/// `out` held before never shows through. Bit for bit the values
/// [`decode_layer_expecting`] returns (that door is this one, into a fresh
/// buffer), with no allocation: what the server runs to decode a round
/// into the updates it consumed.
///
/// # Errors
///
/// [`ProxyError::SignatureMismatch`] when the frame declares another
/// length, reported before anything is written; otherwise every condition
/// of [`decode_layer`], after which `out` may hold part of the frame.
pub fn decode_layer_into(bytes: &[u8], out: &mut [f32]) -> Result<(), ProxyError> {
    sole_frame(bytes, Some(out.len()), |frame| frame.decode_into(out))
}

/// [`validate_layer_frame`], but additionally pins the frame's declared
/// parameter count to the round's signature — what the last hop runs on
/// every unwrapped blob, so a frame that would make the server allocate
/// anything other than `expected_len` values is charged to the ingest.
///
/// # Errors
///
/// [`ProxyError::SignatureMismatch`] on a declared-length mismatch, plus
/// every condition of [`validate_layer_frame`].
pub fn validate_layer_frame_expecting(bytes: &[u8], expected_len: usize) -> Result<u8, ProxyError> {
    sole_frame(bytes, Some(expected_len), LayerFrame::validate)
}

/// The doors whose buffer is one frame and nothing else: what `read`
/// rejects is reported before bytes that follow the frame are.
fn sole_frame<'a, T>(
    bytes: &'a [u8],
    expected_len: Option<usize>,
    read: impl FnOnce(&LayerFrame<'a>) -> Result<T, ProxyError>,
) -> Result<T, ProxyError> {
    let frame = LayerFrame::parse(bytes, None, expected_len)?;
    let out = read(&frame)?;
    if !frame.rest.is_empty() {
        return Err(malformed("trailing bytes after layer data"));
    }
    Ok(out)
}

/// A structural rejection: the bytes are not a frame this codec writes.
fn malformed(reason: &str) -> ProxyError {
    ProxyError::Codec {
        reason: reason.to_string(),
    }
}

/// The first `n` bytes of a v2 frame: its header up to the field the
/// caller is about to read.
fn v2_header(bytes: &[u8], n: usize) -> Result<&[u8], ProxyError> {
    bytes
        .get(..n)
        .ok_or_else(|| malformed("v2 header truncated"))
}

/// One MIXN layer frame, parsed where it lies; nothing else reads a
/// header. [`LayerFrame::parse`] negotiates the version, checks every
/// header field and bounds the payload against the buffer; no index is
/// read and no value converted until a door asks.
#[derive(Default)]
struct LayerFrame<'a> {
    version: u8,
    /// The parameter count the header declares.
    len: usize,
    /// v2: the quantization step and zero point.
    scale: f32,
    zero: f32,
    /// Top-k only: the kept positions, `index_width(len)` bytes each.
    indices: Option<&'a [u8]>,
    /// `len` little-endian f32s (v1), or one quant byte per position
    /// (dense) or per kept position (top-k).
    values: &'a [u8],
    /// What follows the frame in the buffer it was parsed from.
    rest: &'a [u8],
}

impl<'a> LayerFrame<'a> {
    /// Stage one, the header alone: the frame's wire version and the
    /// parameter count it declares. `body` is the version of the params
    /// body the frame lies in, which fixes the frame's; a standalone frame
    /// (`None`) is v2 if and only if it opens with the sentinel.
    fn declared(bytes: &[u8], body: Option<u8>) -> Result<(u8, usize), ProxyError> {
        if !bytes.starts_with(&V2_SENTINEL.to_be_bytes()) {
            if body == Some(VERSION_V2) {
                return Err(malformed("v2 body carries a layer without the v2 sentinel"));
            }
            if bytes.len() < 4 {
                return Err(malformed("layer header truncated"));
            }
            return Ok((VERSION, (&bytes[..4]).get_u32() as usize));
        }
        if body == Some(VERSION) {
            // A v2 frame must never be misread as a v1 layer.
            return Err(malformed("v1 layer length collides with the v2 sentinel"));
        }
        // A sentinel with no version byte is a truncated v2 header, not a
        // v1 layer of u32::MAX values; an unknown version is a
        // *negotiation* failure, distinct from malformed structure.
        let version = v2_header(bytes, 5)?[4];
        if version != VERSION_V2 {
            return Err(ProxyError::UnsupportedCodecVersion { version });
        }
        Ok((VERSION_V2, (&v2_header(bytes, 10)?[6..]).get_u32() as usize))
    }

    /// Parses the frame at the front of `bytes` (which may extend past
    /// it). `expected_len` pins the declared parameter count to the
    /// round's signature straight after the header stage, so a mis-sized
    /// frame is reported before a malformed one.
    fn parse(
        bytes: &'a [u8],
        body: Option<u8>,
        expected_len: Option<usize>,
    ) -> Result<Self, ProxyError> {
        let (version, len) = Self::declared(bytes, body)?;
        if let Some(expected) = expected_len.filter(|&expected| expected != len) {
            return Err(ProxyError::SignatureMismatch {
                expected: vec![expected],
                actual: vec![len],
            });
        }
        if version == VERSION {
            let data = &bytes[4..];
            // u64 compare: `4·len` may wrap usize on 32-bit targets.
            if (data.len() as u64) < 4 * len as u64 {
                return Err(malformed("layer data truncated"));
            }
            let (values, rest) = data.split_at(4 * len);
            return Ok(LayerFrame {
                version,
                len,
                values,
                rest,
                ..Default::default()
            });
        }
        let (header, k) = match v2_header(bytes, V2_DENSE_HEADER)?[5] {
            MODE_DENSE => (&bytes[..V2_DENSE_HEADER], None),
            MODE_TOPK => {
                let header = v2_header(bytes, V2_TOPK_HEADER)?;
                (header, Some((&header[10..]).get_u32() as usize))
            }
            _ => return Err(malformed("unknown v2 layer mode")),
        };
        if k.is_some_and(|k| k > len) {
            return Err(malformed(
                "top-k frame keeps more values than the layer holds",
            ));
        }
        // Encode-side invariant: the keep ratio is clamped to ≥ 1/1024, so
        // every conforming frame has k ≥ ⌈len/1024⌉. Enforcing it here
        // bounds the decode allocation by the frame's actual payload — a
        // crafted header with a huge `len` and a tiny self-consistent `k`
        // must be rejected before any `len`-sized buffer exists.
        if k.is_some_and(|k| len as u64 > 1024 * k as u64) {
            return Err(malformed(
                "top-k frame declares more values than any keep ratio allows",
            ));
        }
        let mut levels = &header[header.len() - 8..];
        let (scale, zero) = (levels.get_f32_le(), levels.get_f32_le());
        // u64 frame-size arithmetic: a near-u32::MAX header must not wrap a
        // usize computation on 32-bit targets into a "valid" smaller size.
        let index_len = k.map_or(0, |k| k as u64 * index_width(len) as u64);
        let quant_len = k.unwrap_or(len);
        let payload = &bytes[header.len()..];
        if (payload.len() as u64) < index_len + quant_len as u64 {
            return Err(malformed("v2 layer payload truncated"));
        }
        // Bounded by the buffer length, so this fits in usize.
        let (indices, payload) = payload.split_at(index_len as usize);
        let (values, rest) = payload.split_at(quant_len);
        Ok(LayerFrame {
            version,
            len,
            scale,
            zero,
            indices: k.map(|_| indices),
            values,
            rest,
        })
    }

    /// The one walk over a top-k frame's indices (any other frame has
    /// none): each must be in range and above its predecessor — the
    /// canonical encoding — before `visit` sees it with its quant byte.
    fn for_each_kept(&self, visit: impl FnMut(usize, u8)) -> Result<(), ProxyError> {
        match index_width(self.len) {
            1 => self.walk_indices::<1>(visit),
            2 => self.walk_indices::<2>(visit),
            3 => self.walk_indices::<3>(visit),
            _ => self.walk_indices::<4>(visit),
        }
    }

    fn walk_indices<const W: usize>(
        &self,
        mut visit: impl FnMut(usize, u8),
    ) -> Result<(), ProxyError> {
        // The lowest index the next entry may carry.
        let mut floor = 0;
        let indices = self.indices.unwrap_or_default();
        for (index, &quant) in indices.chunks_exact(W).zip(self.values) {
            let idx = read_index::<W>(index);
            if idx >= self.len {
                return Err(malformed("top-k index out of range"));
            }
            if idx < floor {
                return Err(malformed("top-k indices must be strictly ascending"));
            }
            floor = idx + 1;
            visit(idx, quant);
        }
        Ok(())
    }

    /// Structural validation without the value work: rejects exactly the
    /// frames [`LayerFrame::decode`] would. Returns the wire version.
    fn validate(&self) -> Result<u8, ProxyError> {
        self.for_each_kept(|_, _| {})?;
        Ok(self.version)
    }

    /// The layer's values in a fresh buffer. A value buffer exists only
    /// from here on — the header has passed the `len ≤ 1024·k` and
    /// payload-bounds checks.
    fn decode(&self) -> Result<LayerParams, ProxyError> {
        let mut values = Vec::new();
        self.decode_into(&mut values)?;
        Ok(LayerParams::from_values(values))
    }

    /// The one f32 read, the one dequantize, into `out`: written value by
    /// value for the frame kinds that store every value, zeroed and then
    /// scattered for top-k.
    fn decode_into<S: ValueSink + ?Sized>(&self, out: &mut S) -> Result<(), ProxyError> {
        if self.version == VERSION {
            out.put_all(read_f32_le_bulk(self.values));
            return Ok(());
        }
        let levels = dequant_table(self.zero, self.scale);
        if self.indices.is_some() {
            // Positions the frame dropped are 0.0.
            let values = out.zeroed(self.len);
            self.for_each_kept(|idx, q| values[idx] = levels[usize::from(q)])
        } else {
            out.put_all(self.values.iter().map(|&q| levels[usize::from(q)]));
            Ok(())
        }
    }
}

/// Where [`LayerFrame::decode_into`] writes a layer's `len` values: a
/// fresh, empty vector that grows to hold them (no pass before the
/// values), or a caller's slice of exactly `len` values, overwritten.
trait ValueSink {
    /// Takes the layer's values, in order.
    fn put_all(&mut self, values: impl Iterator<Item = f32>);
    /// `len` zeros, for a top-k frame to overwrite where it kept values.
    fn zeroed(&mut self, len: usize) -> &mut [f32];
}

impl ValueSink for Vec<f32> {
    fn put_all(&mut self, values: impl Iterator<Item = f32>) {
        debug_assert!(self.is_empty());
        self.extend(values);
    }

    fn zeroed(&mut self, len: usize) -> &mut [f32] {
        debug_assert!(self.is_empty());
        // Zeroed memory straight from the allocator: untouched pages stay
        // unfaulted until a kept value lands on them.
        *self = vec![0.0; len];
        self
    }
}

impl ValueSink for [f32] {
    fn put_all(&mut self, values: impl Iterator<Item = f32>) {
        for (out, v) in self.iter_mut().zip(values) {
            *out = v;
        }
    }

    fn zeroed(&mut self, len: usize) -> &mut [f32] {
        debug_assert_eq!(self.len(), len);
        self.fill(0.0);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![1.0, -2.5, 3.25]),
            LayerParams::from_values(vec![0.0]),
            LayerParams::from_values(vec![f32::MIN_POSITIVE, f32::MAX]),
        ])
    }

    const MODES: [CompressionConfig; 3] = [
        CompressionConfig::F32,
        CompressionConfig::Int8,
        CompressionConfig::Int8TopK { keep_per_1024: 256 },
    ];

    #[test]
    fn round_trip_preserves_exact_bits() {
        let p = sample();
        let decoded = decode_params(&encode_params(&p)).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn encoded_len_matches_reality() {
        let p = sample();
        assert_eq!(encode_params(&p).len(), encoded_len(&p.signature()));
        for mode in MODES {
            assert_eq!(
                encode_params_with(&p, mode).len(),
                encoded_len_with(&p.signature(), mode),
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn empty_model_round_trips() {
        let p = ModelParams::from_layers(vec![]);
        assert_eq!(decode_params(&encode_params(&p)).unwrap(), p);
        for mode in MODES {
            assert_eq!(
                decode_params(&encode_params_with(&p, mode)).unwrap(),
                p,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn truncation_anywhere_is_rejected() {
        for mode in MODES {
            let bytes = encode_params_with(&sample(), mode);
            for cut in 0..bytes.len() {
                assert!(
                    decode_params(&bytes[..cut]).is_err(),
                    "{}: truncation at {cut} accepted",
                    mode.name()
                );
            }
        }
    }

    #[test]
    fn bad_magic_and_version_are_rejected() {
        let mut bytes = encode_params(&sample());
        bytes[0] ^= 0xff;
        assert!(matches!(
            decode_params(&bytes),
            Err(ProxyError::Codec { .. })
        ));
        let mut bytes = encode_params(&sample());
        bytes[4] = 99; // version
        let err = decode_params(&bytes).unwrap_err();
        assert!(matches!(
            err,
            ProxyError::UnsupportedCodecVersion { version: 99 }
        ));
        assert!(err.to_string().contains("version 99"));
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        for mode in MODES {
            let mut bytes = encode_params_with(&sample(), mode);
            bytes.push(0);
            let err = decode_params(&bytes).unwrap_err();
            assert!(err.to_string().contains("trailing"), "{}", mode.name());
        }
    }

    #[test]
    fn empty_layers_round_trip() {
        // Zero-length layers are legal (e.g. a bias-free layer slot) and
        // must survive next to populated ones — in every mode.
        let p = ModelParams::from_layers(vec![
            LayerParams::from_values(vec![]),
            LayerParams::from_values(vec![1.5]),
            LayerParams::from_values(vec![]),
        ]);
        let bytes = encode_params(&p);
        assert_eq!(bytes.len(), encoded_len(&p.signature()));
        assert_eq!(decode_params(&bytes).unwrap(), p);
        for mode in MODES {
            let bytes = encode_params_with(&p, mode);
            assert_eq!(bytes.len(), encoded_len_with(&p.signature(), mode));
            let decoded = decode_params(&bytes).unwrap();
            assert_eq!(decoded.signature(), p.signature(), "{}", mode.name());
        }
    }

    #[test]
    fn large_layer_round_trips_at_size_edge() {
        // One deliberately large layer (64 Ki scalars ≈ 256 KiB on the
        // wire) — the biggest single allocation the tests exercise.
        let n = 1 << 16;
        let values: Vec<f32> = (0..n).map(|i| i as f32 * 0.5 - 1000.0).collect();
        let p = ModelParams::from_layers(vec![
            LayerParams::from_values(values),
            LayerParams::from_values(vec![]),
        ]);
        let bytes = encode_params(&p);
        assert_eq!(bytes.len(), encoded_len(&p.signature()));
        assert_eq!(decode_params(&bytes).unwrap(), p);
    }

    #[test]
    fn implausible_layer_count_is_rejected_without_allocating() {
        // A header advertising u32::MAX layers with no payload must be
        // rejected by the sanity bound, not die attempting a huge reserve.
        let mut bytes = Vec::new();
        bytes.put_u32(MAGIC);
        bytes.put_u8(VERSION);
        bytes.put_u32(u32::MAX);
        let err = decode_params(&bytes).unwrap_err();
        assert!(err.to_string().contains("implausible"));
    }

    #[test]
    fn single_layer_round_trips_bit_exactly() {
        for values in [vec![], vec![1.5f32], vec![f32::MAX, -0.0, 3.25]] {
            let layer = LayerParams::from_values(values);
            let bytes = encode_layer(&layer);
            assert_eq!(bytes.len(), encoded_layer_len(layer.len()));
            assert_eq!(decode_layer(&bytes).unwrap(), layer);
        }
    }

    #[test]
    fn single_layer_truncation_and_trailing_are_rejected() {
        for mode in MODES {
            let layer = LayerParams::from_values(vec![1.0, 2.0]);
            let bytes = encode_layer_with(&layer, mode);
            for cut in 0..bytes.len() {
                assert!(
                    decode_layer(&bytes[..cut]).is_err(),
                    "{}: truncation at {cut}",
                    mode.name()
                );
                assert!(
                    validate_layer_frame(&bytes[..cut]).is_err(),
                    "{}: truncated frame validated at {cut}",
                    mode.name()
                );
            }
            let mut extra = bytes.clone();
            extra.push(0);
            assert!(decode_layer(&extra)
                .unwrap_err()
                .to_string()
                .contains("trailing"));
            assert!(validate_layer_frame(&extra).is_err());
        }
    }

    #[test]
    fn layer_digest_is_stable_and_bit_sensitive() {
        let a = LayerParams::from_values(vec![1.0, 2.5]);
        assert_eq!(layer_digest(&a), layer_digest(&a.clone()));
        let b = LayerParams::from_values(vec![1.0, 2.500001]);
        assert_ne!(layer_digest(&a), layer_digest(&b));
        // -0.0 and +0.0 compare equal but encode differently: the digest
        // follows the bytes, not `PartialEq`.
        let neg = LayerParams::from_values(vec![-0.0]);
        let pos = LayerParams::from_values(vec![0.0]);
        assert_ne!(layer_digest(&neg), layer_digest(&pos));
        // A layer's digest matches the digest of the same bytes wherever
        // they travel — the property cover stripping relies on.
        assert_eq!(
            layer_digest(&a),
            mixnn_crypto::sha256::digest(&encode_layer(&a))
        );
    }

    #[test]
    fn streamed_layer_digest_hashes_the_v1_frame() {
        // Lengths around the 1,024-value chunk seams, then the payloads
        // `PartialEq` cannot tell apart.
        let mut rng = StdRng::seed_from_u64(0xd16e);
        let mut layers: Vec<LayerParams> = [0, 1, 1023, 1024, 1025, 4097]
            .into_iter()
            .map(|n| LayerParams::from_values((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect()))
            .collect();
        layers.push(LayerParams::from_values(vec![-0.0; 1025]));
        layers.push(LayerParams::from_values(vec![
            f32::NAN,
            -f32::NAN,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xff80_0001),
        ]));
        for layer in &layers {
            let frame = encode_layer(layer);
            let expected = mixnn_crypto::sha256::digest(&frame);
            assert_eq!(layer_digest(layer), expected, "{} values", layer.len());
            assert_eq!(frame_digest(&frame, &mut Vec::new()).unwrap(), expected);
        }
    }

    /// The pair helper equals two `layer_digest`s at lengths around its
    /// half-chunk seams, on the payloads `PartialEq` cannot tell apart,
    /// and on layers of different lengths.
    #[test]
    fn layer_digest_pair_is_two_layer_digests() {
        let mut rng = StdRng::seed_from_u64(0x9a12);
        let mut random =
            |n: usize| LayerParams::from_values((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
        let mut pairs: Vec<(LayerParams, LayerParams)> = [0, 1, 13, 511, 512, 513, 1024, 4097]
            .into_iter()
            .map(|n| (random(n), random(n)))
            .collect();
        pairs.push((random(1025), random(1025)));
        let same = random(700);
        pairs.push((same.clone(), same));
        pairs.push((
            LayerParams::from_values(vec![-0.0; 600]),
            LayerParams::from_values(vec![0.0; 600]),
        ));
        pairs.push((
            LayerParams::from_values(vec![f32::NAN, f32::from_bits(0x7fc0_1234)]),
            LayerParams::from_values(vec![-f32::NAN, f32::from_bits(0xff80_0001)]),
        ));
        pairs.push((random(3), random(1030)));
        pairs.push((random(0), random(64)));
        for (a, b) in &pairs {
            assert_eq!(
                layer_digest_pair(a, b),
                [layer_digest(a), layer_digest(b)],
                "{} and {} values",
                a.len(),
                b.len()
            );
        }
    }

    #[test]
    fn frame_digest_is_the_digest_of_the_decoded_layer() {
        let mut rng = StdRng::seed_from_u64(0xf4a3);
        let mut scratch = vec![7.0; 3];
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            for n in [1, 130, 1025, 2048] {
                let layer =
                    LayerParams::from_values((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect());
                let frame = encode_layer_with(&layer, mode);
                assert_eq!(
                    frame_digest(&frame, &mut scratch).unwrap(),
                    layer_digest(&canonical_layer(&layer, mode)),
                    "{} at {n}",
                    mode.name()
                );
            }
        }
    }

    #[test]
    fn nan_and_special_values_survive() {
        let p = ModelParams::from_layers(vec![LayerParams::from_values(vec![
            f32::INFINITY,
            f32::NEG_INFINITY,
            -0.0,
        ])]);
        let d = decode_params(&encode_params(&p)).unwrap();
        let v = d.layer(0).unwrap().values();
        assert_eq!(v[0], f32::INFINITY);
        assert_eq!(v[1], f32::NEG_INFINITY);
        assert!(v[2] == 0.0 && v[2].is_sign_negative());
    }

    // ---- v2: quantization semantics --------------------------------

    #[test]
    fn int8_dense_bounds_error_by_one_step() {
        let values: Vec<f32> = (0..512).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let layer = LayerParams::from_values(values.clone());
        let decoded = decode_layer(&encode_layer_with(&layer, CompressionConfig::Int8)).unwrap();
        let (min, max) = values
            .iter()
            .fold((f32::INFINITY, f32::NEG_INFINITY), |(lo, hi), &v| {
                (lo.min(v), hi.max(v))
            });
        let step = (max - min) / 255.0;
        for (orig, deq) in values.iter().zip(decoded.values()) {
            assert!((orig - deq).abs() <= step, "|{orig} - {deq}| > step {step}");
        }
    }

    #[test]
    fn constant_layer_dequantizes_to_the_constant() {
        let layer = LayerParams::from_values(vec![0.75; 16]);
        let decoded = decode_layer(&encode_layer_with(&layer, CompressionConfig::Int8)).unwrap();
        assert_eq!(decoded, layer);
    }

    #[test]
    fn non_finite_values_quantize_without_poisoning_the_range() {
        let layer =
            LayerParams::from_values(vec![f32::NAN, f32::INFINITY, f32::NEG_INFINITY, 1.0, -1.0]);
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let decoded = decode_layer(&encode_layer_with(&layer, mode)).unwrap();
            // The range derives from the finite values only, so every
            // dequantized value is finite and within a quantization step
            // of [-1, 1] (the f32 scale rounds, so the top level can land
            // one ULP past the true max).
            let step = 2.0 / 255.0;
            for &v in decoded.values() {
                assert!(v.is_finite(), "{}: {v}", mode.name());
                assert!(v.abs() <= 1.0 + step, "{}: {v}", mode.name());
            }
        }
        // An all-non-finite layer decodes to zeros, not a poisoned range.
        let wild = LayerParams::from_values(vec![f32::NAN, f32::INFINITY]);
        let decoded = decode_layer(&encode_layer_with(&wild, CompressionConfig::Int8)).unwrap();
        assert_eq!(decoded.values(), &[0.0, 0.0]);
    }

    #[test]
    fn top_k_keeps_the_largest_magnitudes_and_zeroes_the_rest() {
        let layer = LayerParams::from_values(vec![0.1, -8.0, 0.2, 6.0, -0.3, 0.05, 4.0, 0.0]);
        // 8 values at 256/1024 keep ratio -> k = 2.
        let decoded = decode_layer(&encode_layer_with(
            &layer,
            CompressionConfig::Int8TopK { keep_per_1024: 256 },
        ))
        .unwrap();
        let v = decoded.values();
        assert!(v[1] != 0.0 && v[3] != 0.0, "largest magnitudes kept: {v:?}");
        for (i, &x) in v.iter().enumerate() {
            if i != 1 && i != 3 {
                assert_eq!(x, 0.0, "dropped position {i} must decode to zero");
            }
        }
        // The kept values stay within a quantization step of the originals.
        assert!((v[1] + 8.0).abs() <= (6.0f32 - -8.0) / 255.0);
        assert!((v[3] - 6.0).abs() <= (6.0f32 - -8.0) / 255.0);
    }

    #[test]
    fn kept_count_is_content_independent() {
        let cfg = CompressionConfig::int8_top_k();
        for len in [0usize, 1, 2, 3, 4, 5, 130, 512, 1024, 2048, 1 << 20] {
            let k = cfg.kept(len);
            assert!(k <= len);
            if len > 0 {
                assert!(k >= 1, "non-empty layers keep at least one value");
            }
            // ceil(len/4) at the default ratio.
            assert_eq!(k, len.div_ceil(4).max(usize::from(len > 0)));
        }
    }

    #[test]
    fn v2_lengths_are_content_independent() {
        // Same length, wildly different contents -> byte-identical frame
        // lengths. This is the privacy property everything downstream
        // (route-group size uniformity, dummy indistinguishability)
        // inherits.
        for mode in MODES {
            for len in [0usize, 1, 7, 130, 256, 257, 2048] {
                let zeros = LayerParams::from_values(vec![0.0; len]);
                let ramp = LayerParams::from_values((0..len).map(|i| i as f32 * 123.456).collect());
                let wild = LayerParams::from_values(
                    (0..len)
                        .map(|i| if i % 3 == 0 { f32::NAN } else { -1e30 })
                        .collect(),
                );
                let expect = encoded_layer_len_with(len, mode);
                for layer in [&zeros, &ramp, &wild] {
                    assert_eq!(
                        encode_layer_with(layer, mode).len(),
                        expect,
                        "{} len {len}",
                        mode.name()
                    );
                }
            }
        }
    }

    #[test]
    fn canonical_layer_is_idempotent_through_the_wire() {
        let layer = LayerParams::from_values((0..300).map(|i| (i as f32).cos() * 2.5).collect());
        for mode in MODES {
            let canonical = canonical_layer(&layer, mode);
            // Decoding the frame the encoder produced yields the canonical
            // values bit-exactly — the property cover stripping relies on.
            let wire = encode_layer_with(&layer, mode);
            assert_eq!(decode_layer(&wire).unwrap(), canonical, "{}", mode.name());
            // And canonicalizing twice is a fixed point.
            assert_eq!(
                canonical_layer(&canonical, mode),
                canonical,
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    fn structural_validation_matches_decodability() {
        for mode in MODES {
            let layer = LayerParams::from_values((0..64).map(|i| i as f32 - 31.5).collect());
            let bytes = encode_layer_with(&layer, mode);
            let expected_version = if mode.is_f32() { VERSION } else { VERSION_V2 };
            assert_eq!(validate_layer_frame(&bytes).unwrap(), expected_version);
        }
    }

    #[test]
    fn v2_rejects_unknown_version_mode_and_bad_indices() {
        let layer = LayerParams::from_values(vec![1.0, -2.0, 3.0, -4.0]);
        let good = encode_layer_with(&layer, CompressionConfig::int8_top_k());

        // Unknown version under the sentinel -> typed negotiation error.
        let mut bad = good.clone();
        bad[4] = 7;
        assert!(matches!(
            decode_layer(&bad),
            Err(ProxyError::UnsupportedCodecVersion { version: 7 })
        ));
        assert!(matches!(
            validate_layer_frame(&bad),
            Err(ProxyError::UnsupportedCodecVersion { version: 7 })
        ));

        // Unknown mode.
        let mut bad = good.clone();
        bad[5] = 9;
        assert!(decode_layer(&bad).unwrap_err().to_string().contains("mode"));

        // k > len.
        let mut bad = good.clone();
        bad[10..14].copy_from_slice(&100u32.to_be_bytes());
        assert!(decode_layer(&bad)
            .unwrap_err()
            .to_string()
            .contains("more values"));

        // Out-of-range index.
        let mut bad = good.clone();
        bad[V2_TOPK_HEADER] = 200; // 4-value layer, width 1
        assert!(decode_layer(&bad)
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        // Non-ascending indices (canonical encoding violated).
        let layer8 = LayerParams::from_values(vec![5.0, 4.0, 3.0, 2.0, 1.0, 0.5, 0.25, 0.125]);
        let frame = encode_layer_with(&layer8, CompressionConfig::Int8TopK { keep_per_1024: 512 });
        let mut bad = frame.clone();
        // k = 4 here; swap the first two index bytes to break ordering.
        bad.swap(V2_TOPK_HEADER, V2_TOPK_HEADER + 1);
        assert!(decode_layer(&bad)
            .unwrap_err()
            .to_string()
            .contains("ascending"));
    }

    /// A structurally self-consistent top-k frame with arbitrary header
    /// geometry: valid sentinel/version/mode, ascending in-range indices
    /// `0..k`, `k` quant bytes.
    fn crafted_topk_frame(len: u32, k: u32) -> Vec<u8> {
        let width = index_width(len as usize);
        let mut frame = Vec::new();
        frame.put_u32(V2_SENTINEL);
        frame.put_u8(VERSION_V2);
        frame.put_u8(MODE_TOPK);
        frame.put_u32(len);
        frame.put_u32(k);
        frame.put_f32_le(1.0);
        frame.put_f32_le(0.0);
        for i in 0..k {
            frame.extend_from_slice(&i.to_be_bytes()[4 - width..]);
        }
        frame.extend(std::iter::repeat_n(0x7f, k as usize));
        frame
    }

    #[test]
    fn huge_len_topk_frame_is_rejected_without_allocating() {
        // The allocation-DoS shape: ~30 wire bytes declaring a ~16 GiB
        // layer. Structurally valid everywhere except the keep-ratio
        // invariant — every decode path must reject it from the header.
        let frame = crafted_topk_frame(u32::MAX - 1, 1);
        assert!(
            frame.len() < 32,
            "the attack is cheap: {} bytes",
            frame.len()
        );
        for err in [
            decode_layer(&frame).unwrap_err(),
            validate_layer_frame(&frame).unwrap_err(),
            decode_layer_expecting(&frame, (u32::MAX - 1) as usize).unwrap_err(),
            validate_layer_frame_expecting(&frame, (u32::MAX - 1) as usize).unwrap_err(),
        ] {
            assert!(err.to_string().contains("keep ratio"), "{err}");
        }
        // And through the params body decoder.
        let mut body = Vec::new();
        body.put_u32(MAGIC);
        body.put_u8(VERSION_V2);
        body.put_u32(1);
        body.extend_from_slice(&frame);
        assert!(decode_params(&body).is_err());
        assert!(decode_params_expecting(&body, &[(u32::MAX - 1) as usize]).is_err());
    }

    #[test]
    fn topk_len_is_accepted_exactly_up_to_the_keep_ratio_bound() {
        // len = 1024·k is what a keep_per_1024 = 1 encoder legitimately
        // produces; one more value has no conforming encoder.
        let ok = crafted_topk_frame(2048, 2);
        assert_eq!(validate_layer_frame(&ok).unwrap(), VERSION_V2);
        assert_eq!(decode_layer(&ok).unwrap().len(), 2048);
        assert!(decode_layer(&crafted_topk_frame(2049, 2)).is_err());
    }

    #[test]
    fn expecting_decoders_pin_the_declared_length() {
        for mode in MODES {
            let layer = LayerParams::from_values(vec![1.0, -2.0, 3.0]);
            let frame = encode_layer_with(&layer, mode);
            assert_eq!(declared_layer_len(&frame).unwrap(), 3, "{}", mode.name());
            assert_eq!(
                decode_layer_expecting(&frame, 3).unwrap(),
                decode_layer(&frame).unwrap(),
                "{}",
                mode.name()
            );
            assert!(validate_layer_frame_expecting(&frame, 3).is_ok());
            // Any other expected length is the typed signature error,
            // reported before any value buffer is allocated.
            let err = decode_layer_expecting(&frame, 4).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProxyError::SignatureMismatch { ref expected, ref actual }
                        if expected == &[4] && actual == &[3]
                ),
                "{}: {err}",
                mode.name()
            );
            assert!(validate_layer_frame_expecting(&frame, 4).is_err());
        }
    }

    #[test]
    fn decode_layer_into_overwrites_every_position_as_decode_layer_expecting_decodes() {
        let bits = |values: &[f32]| values.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let smooth: Vec<f32> = (0..300).map(|i| (i as f32 * 0.37).sin() * 3.0).collect();
        let mut special = smooth.clone();
        special[..6].copy_from_slice(&[
            f32::NAN,
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ]);
        for (values, mode) in [
            (special, CompressionConfig::F32),
            (smooth.clone(), CompressionConfig::Int8),
            (smooth, CompressionConfig::Int8TopK { keep_per_1024: 256 }),
        ] {
            let len = values.len();
            let frame = encode_layer_with(&LayerParams::from_values(values), mode);
            let fresh = decode_layer_expecting(&frame, len).unwrap();
            if !mode.is_f32() && mode != CompressionConfig::Int8 {
                assert!(
                    fresh.values().iter().any(|v| v.to_bits() == 0),
                    "top-k drops positions, which decode to +0.0"
                );
            }
            // A NaN or −0.0 left anywhere would show in the bits: every
            // position is written, a dropped one with +0.0.
            for fill in [f32::NAN, -0.0] {
                let mut out = vec![fill; len];
                decode_layer_into(&frame, &mut out).unwrap();
                assert_eq!(
                    bits(&out),
                    bits(fresh.values()),
                    "{} over {fill}",
                    mode.name()
                );
            }
            // A target of any other length is the typed signature error,
            // reported before anything is written.
            for wrong in [len - 1, len + 1] {
                let mut out = vec![f32::NAN; wrong];
                assert_eq!(
                    decode_layer_into(&frame, &mut out),
                    Err(ProxyError::SignatureMismatch {
                        expected: vec![wrong],
                        actual: vec![len],
                    }),
                    "{}",
                    mode.name()
                );
                assert_eq!(bits(&out), bits(&vec![f32::NAN; wrong]), "{}", mode.name());
            }
        }
    }

    #[test]
    fn decode_params_expecting_pins_the_signature() {
        let p = sample();
        let signature = p.signature();
        for mode in MODES {
            let bytes = encode_params_with(&p, mode);
            assert_eq!(
                decode_params_expecting(&bytes, &signature).unwrap(),
                decode_params(&bytes).unwrap(),
                "{}",
                mode.name()
            );
            let err = decode_params_expecting(&bytes, &[9, 9, 9]).unwrap_err();
            assert!(
                matches!(
                    err,
                    ProxyError::SignatureMismatch { ref expected, ref actual }
                        if expected == &[9, 9, 9] && actual == &signature
                ),
                "{}: {err}",
                mode.name()
            );
            // Malformation still takes precedence over the mismatch.
            let mut truncated = bytes.clone();
            truncated.pop();
            assert!(matches!(
                decode_params_expecting(&truncated, &signature).unwrap_err(),
                ProxyError::Codec { .. }
            ));
        }
    }

    #[test]
    fn decode_params_into_overwrites_every_position_as_decode_params_expecting_decodes() {
        let bits = |p: &ModelParams| p.flatten().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let filled = |signature: &[usize], fill: f32| {
            ModelParams::from_layers(
                signature
                    .iter()
                    .map(|&len| LayerParams::from_values(vec![fill; len]))
                    .collect(),
            )
        };
        let layer = |len: usize, phase: f32| {
            LayerParams::from_values((0..len).map(|i| (i as f32 * 0.37 + phase).sin()).collect())
        };
        let smooth =
            ModelParams::from_layers(vec![layer(300, 0.0), layer(3, 1.0), layer(1000, 2.0)]);
        let mut special = smooth.clone();
        special.iter_mut().next().unwrap().values_mut()[..6].copy_from_slice(&[
            f32::NAN,
            -0.0,
            0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
        ]);
        let signature = smooth.signature();
        for (p, mode) in [
            (special, CompressionConfig::F32),
            (smooth.clone(), CompressionConfig::Int8),
            (smooth, CompressionConfig::Int8TopK { keep_per_1024: 256 }),
        ] {
            let bytes = encode_params_with(&p, mode);
            let fresh = decode_params_expecting(&bytes, &signature).unwrap();
            // A NaN or −0.0 left anywhere would show in the bits: every
            // position is written, a dropped one with +0.0.
            for fill in [f32::NAN, -0.0] {
                let mut out = filled(&signature, fill);
                decode_params_into(&bytes, &signature, &mut out).unwrap();
                assert_eq!(bits(&out), bits(&fresh), "{} over {fill}", mode.name());
            }
            // A rejected body writes nothing: not on a signature mismatch,
            // not on a malformation.
            let mut wrong = signature.clone();
            wrong[1] += 1;
            let mut out = filled(&wrong, f32::NAN);
            assert_eq!(
                decode_params_into(&bytes, &wrong, &mut out),
                Err(ProxyError::SignatureMismatch {
                    expected: wrong.clone(),
                    actual: signature.clone(),
                }),
                "{}",
                mode.name()
            );
            assert_eq!(
                bits(&out),
                bits(&filled(&wrong, f32::NAN)),
                "{}",
                mode.name()
            );
            let mut out = filled(&signature, f32::NAN);
            assert!(matches!(
                decode_params_into(&bytes[..bytes.len() - 1], &signature, &mut out),
                Err(ProxyError::Codec { .. })
            ));
            assert_eq!(
                bits(&out),
                bits(&filled(&signature, f32::NAN)),
                "{}",
                mode.name()
            );
        }
    }

    #[test]
    #[should_panic(expected = "the decode target must have the expected signature")]
    fn decode_params_into_needs_a_target_of_the_expected_signature() {
        let p = sample();
        let bytes = encode_params(&p);
        let mut short = ModelParams::from_layers(vec![LayerParams::from_values(vec![0.0; 3])]);
        let _ = decode_params_into(&bytes, &p.signature(), &mut short);
    }

    #[test]
    fn bare_sentinel_is_a_truncated_v2_header_not_a_v1_layer() {
        let bytes = V2_SENTINEL.to_be_bytes();
        let err = decode_layer(&bytes).unwrap_err();
        assert!(err.to_string().contains("v2 header truncated"));
    }

    // ---- error precedence, per door ----------------------------------

    /// One frame of each kind, broken once in every way that leaves its
    /// header stage readable: `(what, body version, declared len, frame,
    /// reason)`.
    fn broken_frames() -> Vec<(String, u8, usize, Vec<u8>, &'static str)> {
        let mut out = Vec::new();
        for (kind, len, mode) in [
            ("v1", 6, CompressionConfig::F32),
            ("dense", 6, CompressionConfig::Int8),
            (
                "topk/1",
                8,
                CompressionConfig::Int8TopK { keep_per_1024: 512 },
            ),
            ("topk/2", 300, CompressionConfig::int8_top_k()),
        ] {
            let layer = LayerParams::from_values((0..len).map(|i| i as f32 - 2.5).collect());
            let good = encode_layer_with(&layer, mode);
            let version = if mode.is_f32() { VERSION } else { VERSION_V2 };
            let mut push = |what: &str, frame: Vec<u8>, reason| {
                out.push((format!("{kind}: {what}"), version, len, frame, reason));
            };
            let truncated = good[..good.len() - 1].to_vec();
            if version == VERSION {
                push("truncated payload", truncated, "layer data truncated");
                continue;
            }
            push("truncated payload", truncated, "v2 layer payload truncated");
            let mut bad = good.clone();
            bad[5] = 9;
            push("unknown mode", bad, "unknown v2 layer mode");
            if mode == CompressionConfig::Int8 {
                continue;
            }
            let width = index_width(len);
            let (first, second) = (V2_TOPK_HEADER, V2_TOPK_HEADER + width);
            let mut bad = good.clone();
            for i in 0..width {
                bad.swap(first + i, second + i);
            }
            push(
                "out-of-order index",
                bad,
                "top-k indices must be strictly ascending",
            );
            let mut bad = good.clone();
            bad[first..second].copy_from_slice(&(len as u32).to_be_bytes()[4 - width..]);
            push("out-of-range index", bad, "top-k index out of range");
        }
        out
    }

    fn one_layer_body(version: u8, frame: &[u8]) -> Vec<u8> {
        let mut body = Vec::new();
        body.put_u32(MAGIC);
        body.put_u8(version);
        body.put_u32(1);
        body.extend_from_slice(frame);
        body
    }

    fn codec_error(reason: &str) -> ProxyError {
        ProxyError::Codec {
            reason: reason.to_string(),
        }
    }

    #[test]
    fn a_missized_frame_is_reported_before_a_malformed_one_but_a_malformed_body_first() {
        for (what, version, len, frame, reason) in broken_frames() {
            // The layer doors pin the header first …
            let mismatch = ProxyError::SignatureMismatch {
                expected: vec![len + 1],
                actual: vec![len],
            };
            assert_eq!(
                decode_layer_expecting(&frame, len + 1),
                Err(mismatch.clone()),
                "{what}"
            );
            assert_eq!(
                validate_layer_frame_expecting(&frame, len + 1),
                Err(mismatch.clone()),
                "{what}"
            );
            assert_eq!(
                decode_layer_into(&frame, &mut vec![0.0; len + 1]),
                Err(mismatch),
                "{what}"
            );
            // … and report the malformation once the length agrees;
            assert_eq!(
                decode_layer_expecting(&frame, len),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                validate_layer_frame_expecting(&frame, len),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                decode_layer_into(&frame, &mut vec![0.0; len]),
                Err(codec_error(reason)),
                "{what}"
            );
            // the params doors report structure first, as their docs say.
            assert_eq!(
                decode_params_expecting(&one_layer_body(version, &frame), &[len + 1]),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                decode_params_into_target(&one_layer_body(version, &frame), len + 1),
                (Err(codec_error(reason)), true),
                "{what}"
            );
        }
    }

    #[test]
    fn every_door_gives_the_same_reason_for_a_malformed_frame() {
        let v1 = encode_layer(&LayerParams::from_values(vec![1.0, 2.0]));
        let dense = encode_layer_with(
            &LayerParams::from_values(vec![1.0, 2.0]),
            CompressionConfig::Int8,
        );
        let mut cases = broken_frames();
        let mut push = |what: &str, version, frame: &[u8], reason| {
            cases.push((what.to_string(), version, 2, frame.to_vec(), reason));
        };
        push(
            "v1: header truncated",
            VERSION,
            &v1[..2],
            "layer header truncated",
        );
        push(
            "v2: header truncated",
            VERSION_V2,
            &dense[..12],
            "v2 header truncated",
        );
        for (what, version, len, frame, reason) in cases {
            assert_eq!(decode_layer(&frame), Err(codec_error(reason)), "{what}");
            assert_eq!(
                decode_layer_into(&frame, &mut vec![0.0; len]),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                validate_layer_frame(&frame),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                frame_digest(&frame, &mut Vec::new()),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                decode_params(&one_layer_body(version, &frame)),
                Err(codec_error(reason)),
                "{what}"
            );
            assert_eq!(
                decode_params_into_target(&one_layer_body(version, &frame), len),
                (Err(codec_error(reason)), true),
                "{what}"
            );
        }
        // Trailing bytes are about the end of the buffer, so the body has
        // its own message for them.
        for (version, good) in [(VERSION, v1), (VERSION_V2, dense)] {
            let mut frame = good;
            frame.push(0);
            let reason = "trailing bytes after layer data";
            assert_eq!(decode_layer(&frame), Err(codec_error(reason)));
            assert_eq!(
                decode_layer_into(&frame, &mut [0.0; 2]),
                Err(codec_error(reason))
            );
            assert_eq!(validate_layer_frame(&frame), Err(codec_error(reason)));
            assert_eq!(
                frame_digest(&frame, &mut Vec::new()),
                Err(codec_error(reason))
            );
            assert_eq!(
                decode_params(&one_layer_body(version, &frame)),
                Err(codec_error("trailing bytes after last layer"))
            );
            assert_eq!(
                decode_params_into_target(&one_layer_body(version, &frame), 2),
                (Err(codec_error("trailing bytes after last layer")), true)
            );
        }
    }

    /// [`decode_params_into`] a one-layer target of `len` NaNs: the
    /// outcome, and whether the target is still all NaN.
    fn decode_params_into_target(body: &[u8], len: usize) -> (Result<(), ProxyError>, bool) {
        let mut target =
            ModelParams::from_layers(vec![LayerParams::from_values(vec![f32::NAN; len])]);
        let outcome = decode_params_into(body, &[len], &mut target);
        (outcome, target.flatten().iter().all(|v| v.is_nan()))
    }

    #[test]
    fn v2_params_round_trip_is_stable() {
        // decode(encode(p)) is lossy, but decode is a pure function of the
        // frame bytes: re-decoding yields bit-identical values, and the
        // decoded values match `canonical_params`.
        let p = sample();
        for mode in [CompressionConfig::Int8, CompressionConfig::int8_top_k()] {
            let wire = encode_params_with(&p, mode);
            let once = decode_params(&wire).unwrap();
            let twice = decode_params(&wire).unwrap();
            assert_eq!(once, twice, "{}", mode.name());
            assert_eq!(once, canonical_params(&p, mode), "{}", mode.name());
        }
    }

    #[test]
    fn reference_model_meets_the_compression_budget() {
        // The §6 reference signature must compress ≥4x against v1 at the
        // default top-k ratio — the acceptance gate of the v2 codec, pinned
        // here at the frame level (the load experiment re-checks it with
        // seal and burst overhead included).
        let signature = [2048usize, 2048, 1024, 512, 130];
        let f32_bytes: usize = signature.iter().map(|&l| encoded_layer_len(l)).sum();
        let topk: usize = signature
            .iter()
            .map(|&l| encoded_layer_len_with(l, CompressionConfig::int8_top_k()))
            .sum();
        assert!(
            f32_bytes as f64 / topk as f64 >= 4.0,
            "{f32_bytes} / {topk} < 4x"
        );
    }

    // ---- kernels pinned to their references --------------------------

    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The encoder as it was before the counting select and the in-place
    /// payload: comparator selection, a gathered copy of the kept values,
    /// `min`/`max` folds and libm rounding. Every frame
    /// [`encode_layer_with`] emits must equal this one byte for byte.
    fn reference_frame(layer: &LayerParams, compression: CompressionConfig) -> Vec<u8> {
        /// The bounds of the finite values by the documented rule: the
        /// first value no later one is strictly below (above), so of
        /// `±0.0` the one seen first.
        fn range(values: &[f32]) -> (f32, f32) {
            let finite = || values.iter().copied().filter(|v| v.is_finite());
            let min = finite().fold(f32::INFINITY, |min, v| if v < min { v } else { min });
            let max = finite().fold(f32::NEG_INFINITY, |max, v| if v > max { v } else { max });
            if min > max {
                return (0.0, 0.0);
            }
            (min, ((f64::from(max) - f64::from(min)) / 255.0) as f32)
        }
        let values = layer.values();
        let mut out = Vec::new();
        match compression {
            CompressionConfig::F32 => {
                out.put_u32(values.len() as u32);
                values.iter().for_each(|&v| out.put_f32_le(v));
            }
            CompressionConfig::Int8 => {
                let (zero, scale) = range(values);
                out.put_u32(V2_SENTINEL);
                out.put_u8(VERSION_V2);
                out.put_u8(MODE_DENSE);
                out.put_u32(values.len() as u32);
                out.put_f32_le(scale);
                out.put_f32_le(zero);
                out.extend(values.iter().map(|&v| quantize_reference(v, zero, scale)));
            }
            CompressionConfig::Int8TopK { .. } => {
                let k = compression.kept(values.len());
                let kept = top_k_indices_reference(values, k);
                let kept_values: Vec<f32> = kept.iter().map(|&i| values[i as usize]).collect();
                let (zero, scale) = range(&kept_values);
                let width = index_width(values.len());
                out.put_u32(V2_SENTINEL);
                out.put_u8(VERSION_V2);
                out.put_u8(MODE_TOPK);
                out.put_u32(values.len() as u32);
                out.put_u32(k as u32);
                out.put_f32_le(scale);
                out.put_f32_le(zero);
                for &i in &kept {
                    out.extend_from_slice(&i.to_be_bytes()[4 - width..]);
                }
                out.extend(
                    kept_values
                        .iter()
                        .map(|&v| quantize_reference(v, zero, scale)),
                );
            }
        }
        out
    }

    /// The top-k payload on `tier` as an index list: width 4 whatever the
    /// length, so the widest entry runs on every layer.
    fn top_k_indices_on(tier: Tier, values: &[f32], k: usize) -> Vec<u32> {
        let kept = k.min(values.len());
        let (mut indices, mut quants) = (vec![0u8; 4 * kept], vec![0u8; kept]);
        encode_top_k_on(tier, 4, values, &mut indices, &mut quants);
        indices
            .chunks_exact(4)
            .map(|index| read_index::<4>(index) as u32)
            .collect()
    }

    /// Lengths either side of every place a tier changes how it walks a
    /// layer: the wide tier's sixteen-lane step, the scalar tier's
    /// 64-value block, and the length from which the wide select brackets
    /// its top two digits (`avx512::BRACKET_FROM`).
    const SEAM_LENGTHS: [usize; 9] = [15, 16, 17, 63, 64, 65, 16_383, 16_384, 16_385];

    const ADVERSARIAL_KINDS: usize = 10;
    const ADVERSARIAL_LENGTHS: [usize; 15] = [
        0, 1, 2, 15, 16, 17, 63, 64, 65, 130, 2048, 16_383, 16_384, 16_385, 65_537,
    ];

    /// Layers built to break a counting select: one bucket at every
    /// level (kind 0, the all-equal worst case), signed zeros, a handful
    /// of magnitudes (so ties straddle any k), non-finite mixes,
    /// subnormals, raw bit patterns, the Gaussians the benchmark feeds it,
    /// and two decoys for the wide select's sample, one loud where it
    /// looks and quiet elsewhere, one the other way round.
    fn adversarial_layer(kind: usize, len: usize, rng: &mut StdRng) -> Vec<f32> {
        let gaussian = |rng: &mut StdRng, sigma: f64| {
            let (u, v) = (1.0 - rng.gen::<f64>(), rng.gen::<f64>());
            ((-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos() * sigma) as f32
        };
        // The wide select samples 512 evenly strided steps of sixteen.
        let every = (len / 16 / 512).max(1);
        let sampled = |i: usize| (i / 16).is_multiple_of(every);
        let constant = f32::from_bits(rng.gen());
        (0..len)
            .map(|i| match kind % ADVERSARIAL_KINDS {
                0 => constant,
                1 => [0.0, -0.0][rng.gen_range(0..2usize)],
                2 => [1.0, -1.0, 1.000_000_1, 0.5, -2.0][rng.gen_range(0..5usize)],
                3 => [
                    f32::NAN,
                    -f32::NAN,
                    f32::INFINITY,
                    f32::NEG_INFINITY,
                    3.0,
                    -0.25,
                ][rng.gen_range(0..6usize)],
                4 => f32::from_bits(rng.gen::<u32>() & 0x807f_ffff),
                5 => f32::from_bits(rng.gen()),
                6 => gaussian(rng, 1e-3),
                7 => gaussian(rng, 1e-1),
                8 => gaussian(rng, if sampled(i) { 1e3 } else { 1e-3 }),
                _ => gaussian(rng, if sampled(i) { 1e-3 } else { 1e3 }),
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(64))]

        #[test]
        fn counting_select_matches_the_comparator_select(
            seed in proptest::num::u64::ANY,
            kind in 0..ADVERSARIAL_KINDS,
            length in 0..ADVERSARIAL_LENGTHS.len(),
        ) {
            let n = ADVERSARIAL_LENGTHS[length];
            let values = adversarial_layer(kind, n, &mut StdRng::seed_from_u64(seed));
            for k in [0, 1, n.div_ceil(4), n.saturating_sub(1), n] {
                let expected = top_k_indices_reference(&values, k);
                for tier in Tier::runnable(TIERS) {
                    proptest::prop_assert_eq!(
                        top_k_indices_on(tier, &values, k),
                        expected.clone(),
                        "{:?} kind {} n {} k {}", tier, kind, n, k
                    );
                }
            }
        }

        #[test]
        fn frames_match_the_reference_encoder_byte_for_byte(
            seed in proptest::num::u64::ANY,
            kind in 0..ADVERSARIAL_KINDS,
            length in 0..ADVERSARIAL_LENGTHS.len(),
            keep_per_1024 in 0u16..1100,
        ) {
            let n = ADVERSARIAL_LENGTHS[length];
            let layer = LayerParams::from_values(
                adversarial_layer(kind, n, &mut StdRng::seed_from_u64(seed)),
            );
            for mode in [
                CompressionConfig::F32,
                CompressionConfig::Int8,
                CompressionConfig::int8_top_k(),
                CompressionConfig::Int8TopK { keep_per_1024 },
            ] {
                let expected = reference_frame(&layer, mode);
                for tier in Tier::runnable(TIERS) {
                    // Appending behind other bytes lays down the same frame.
                    let mut behind = vec![0xa5; 7];
                    encode_layer_on(tier, &mut behind, &layer, mode);
                    proptest::prop_assert!(
                        behind[..7] == [0xa5; 7] && behind[7..] == expected,
                        "{:?} {:?} kind {} n {}", tier, mode, kind, n
                    );
                }
            }
        }
    }

    /// Every supported tier against the references at every seam length
    /// and for every adversarial kind: the cut itself, the top-k payload
    /// at every index width that addresses the layer (width 4 at every
    /// length, through the same test-only path as `top_k_indices_on`),
    /// and whole dense and top-k frames.
    #[test]
    fn every_tier_matches_the_references_at_every_seam_and_width() {
        // Shown by CI (`--nocapture`): a runner without AVX-512 F and BW
        // says it pinned only the scalar twin.
        println!("codec tiers exercised: {:?}", Tier::runnable(TIERS));
        #[cfg(target_arch = "x86_64")]
        assert!(SEAM_LENGTHS.contains(&avx512::BRACKET_FROM));
        let mut rng = StdRng::seed_from_u64(27);
        for kind in 0..ADVERSARIAL_KINDS {
            for n in SEAM_LENGTHS {
                let layer = LayerParams::from_values(adversarial_layer(kind, n, &mut rng));
                let values = layer.values();
                let topk = CompressionConfig::int8_top_k();
                let k = topk.kept(n);
                let kept = top_k_indices_reference(values, k);
                let frame = reference_frame(&layer, topk);
                let header = &frame[..V2_TOPK_HEADER];
                let quants = &frame[frame.len() - k..];
                for tier in Tier::runnable(TIERS) {
                    let what = format!("{tier:?} kind {kind} n {n}");
                    assert_eq!(
                        top_k_cut_on(tier, values, k),
                        top_k_cut(values, k),
                        "{what}"
                    );
                    for width in index_width(n)..=4 {
                        let (mut indices, mut quant_area) = (vec![0u8; width * k], vec![0u8; k]);
                        let (zero, scale) =
                            encode_top_k_on(tier, width, values, &mut indices, &mut quant_area);
                        let expected: Vec<u8> = kept
                            .iter()
                            .flat_map(|i| i.to_be_bytes()[4 - width..].to_vec())
                            .collect();
                        assert_eq!(indices, expected, "{what} width {width}");
                        assert_eq!(quant_area, quants, "{what} width {width}");
                        assert_eq!(header[14..18], scale.to_le_bytes(), "{what}");
                        assert_eq!(header[18..22], zero.to_le_bytes(), "{what}");
                    }
                    for mode in [CompressionConfig::Int8, topk] {
                        let mut out = Vec::new();
                        encode_layer_on(tier, &mut out, &layer, mode);
                        assert!(out == reference_frame(&layer, mode), "{what} {mode:?}");
                    }
                }
            }
        }
    }

    /// A bound that is a signed zero keeps the sign of the zero the fold
    /// met first (`FiniteRange::include`'s rule), on every tier, for dense
    /// and top-k frames, whichever zero comes first, and wherever the two
    /// zeros fall among the sixteen lanes. Only the minimum is on the
    /// wire (as the zero point); a zero maximum must still leave the
    /// frame equal to the reference's.
    #[test]
    fn a_zero_bound_keeps_the_sign_of_the_first_zero_on_every_tier() {
        let keep_all = CompressionConfig::Int8TopK {
            keep_per_1024: 1024,
        };
        for (first, second) in [(0.0f32, -0.0f32), (-0.0, 0.0)] {
            // Lanes ordered with the indices, against them, and shared.
            for (at_first, at_second) in [(3, 5), (3, 20), (5, 19), (14, 16), (3, 19)] {
                for sign in [1.0f32, -1.0] {
                    // Zero is the minimum of a positive layer, the maximum
                    // of a negative one.
                    let mut values: Vec<f32> = (0..48).map(|i| sign * (1.0 + i as f32)).collect();
                    values[at_first] = first;
                    values[at_second] = second;
                    let layer = LayerParams::from_values(values);
                    for mode in [CompressionConfig::Int8, keep_all] {
                        let expected = reference_frame(&layer, mode);
                        let zero_at = if mode == keep_all { 18 } else { 14 };
                        if sign > 0.0 {
                            assert_eq!(
                                expected[zero_at..zero_at + 4],
                                first.to_le_bytes(),
                                "{mode:?}"
                            );
                        }
                        for tier in Tier::runnable(TIERS) {
                            let mut out = Vec::new();
                            encode_layer_on(tier, &mut out, &layer, mode);
                            assert!(
                                out == expected,
                                "{tier:?} {mode:?} first {first:?} at {at_first}, {at_second}"
                            );
                        }
                    }
                }
            }
            // Top-k keeping some zeros: four magnitudes, then zeros of
            // alternating sign; k = 16 keeps the first twelve zeros.
            let mut values = vec![4.0f32, 3.0, 2.0, 1.0];
            values.extend((0..60).map(|i| if i % 2 == 0 { first } else { second }));
            let layer = LayerParams::from_values(values);
            let mode = CompressionConfig::int8_top_k();
            let expected = reference_frame(&layer, mode);
            assert_eq!(expected[18..22], first.to_le_bytes());
            for tier in Tier::runnable(TIERS) {
                let mut out = Vec::new();
                encode_layer_on(tier, &mut out, &layer, mode);
                assert!(out == expected, "{tier:?} first {first:?}");
            }
        }
    }

    /// The wide select's bracket is what runs on the benchmark's
    /// Gaussians; raw bit patterns spread it over too many top digits and
    /// both decoys mislead it, so those fall back to the full count — and
    /// the tests above pin that every path cuts the same.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn the_bracket_holds_on_gaussians_and_falls_back_on_decoys() {
        if !Tier::Avx512.available() {
            return;
        }
        let mut rng = StdRng::seed_from_u64(11);
        for n in [avx512::BRACKET_FROM, 262_144] {
            let need = CompressionConfig::int8_top_k().kept(n);
            for (kind, holds) in [(5, false), (6, true), (7, true), (8, false), (9, false)] {
                let values = adversarial_layer(kind, n, &mut rng);
                assert_eq!(
                    avx512::bracket_holds(&values, need),
                    holds,
                    "kind {kind} n {n}"
                );
            }
        }
        // Below the threshold the top digits are always counted in full.
        let short = adversarial_layer(6, avx512::BRACKET_FROM - 1, &mut rng);
        assert!(!avx512::bracket_holds(&short, short.len() / 4));
    }

    #[cfg(target_pointer_width = "64")]
    #[test]
    fn header_lengths_stop_at_u32_max() {
        assert_eq!(wire_len(u32::MAX as usize), u32::MAX);
        let past = std::panic::catch_unwind(|| wire_len(u32::MAX as usize + 1));
        let message = *past
            .expect_err("a length past u32::MAX has no field")
            .downcast::<String>()
            .expect("expect() panics with a formatted message");
        assert!(
            message.contains("layer lengths are u32 on the wire"),
            "{message}"
        );
    }

    #[test]
    fn quantize_matches_libm_rounding_everywhere() {
        let ranges = [
            (0.0f32, 1.0f32),
            (-1.0, 2.0 / 255.0),
            (-0.0, 0.0),
            (3.5, 0.0),
            (-3.0e-3, 2.4e-5),
            (
                f32::MIN,
                ((f64::from(f32::MAX) - f64::from(f32::MIN)) / 255.0) as f32,
            ),
            (1.0e-40, 1.0e-42),
            (-7.25, f32::MIN_POSITIVE),
        ];
        for (zero, scale) in ranges {
            let check = |v: f32| {
                assert_eq!(
                    quantize(v, zero, scale),
                    quantize_reference(v, zero, scale),
                    "v {v:e} ({:#010x}) zero {zero:e} scale {scale:e}",
                    v.to_bits()
                );
            };
            // Every half-way point, a few ulps to either side, one level
            // outside the range at both ends.
            for level in -1i32..=256 {
                let half = (f64::from(zero) + (f64::from(level) + 0.5) * f64::from(scale)) as f32;
                for ulps in -2i32..=2 {
                    check(f32::from_bits(half.to_bits().wrapping_add_signed(ulps)));
                }
            }
            // A prime stride over every bit pattern: both signs, NaN
            // payloads, subnormals.
            (0..=u32::MAX)
                .step_by(65_521)
                .for_each(|bits| check(f32::from_bits(bits)));
            for v in [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
                check(v);
            }
        }
    }

    #[test]
    fn decoded_levels_are_dequantize_bit_for_bit() {
        // Header fields are attacker-chosen on the decode side, so the
        // table must agree for non-finite `(zero, scale)` too.
        let headers = [
            (0.0f32, 1.0f32),
            (-1.5, 0.011_764_706),
            (f32::MIN, f32::MAX),
            (f32::NAN, 1.0),
            (0.0, f32::INFINITY),
            (f32::NEG_INFINITY, f32::INFINITY),
            (1.0e-40, 1.0e-45),
        ];
        for (zero, scale) in headers {
            let mut frame = vec![0u8; V2_DENSE_HEADER];
            write_v2_header(&mut frame, 256, None, zero, scale);
            frame.extend(0..=u8::MAX);
            let decoded = decode_layer(&frame).unwrap();
            for (q, level) in (0..=u8::MAX).zip(decoded.values()) {
                assert_eq!(
                    level.to_bits(),
                    dequantize(q, zero, scale).to_bits(),
                    "level {q} of zero {zero:e} scale {scale:e}"
                );
            }
        }
    }

    #[test]
    fn cut_is_total_in_k() {
        // k = 0 keeps nothing, k ≥ n keeps everything — also of an empty
        // layer — without a special case in the select.
        for tier in Tier::runnable(TIERS) {
            assert!(top_k_indices_on(tier, &[], 0).is_empty());
            assert!(top_k_indices_on(tier, &[], 3).is_empty());
            let values = [0.0, -0.0, f32::NAN, 1.0];
            assert!(top_k_indices_on(tier, &values, 0).is_empty());
            assert_eq!(top_k_indices_on(tier, &values, 4), [0, 1, 2, 3]);
            assert_eq!(top_k_indices_on(tier, &values, 9), [0, 1, 2, 3]);
            // NaN outranks everything; the zeros tie and the lower index
            // wins.
            assert_eq!(top_k_indices_on(tier, &values, 1), [2]);
            assert_eq!(top_k_indices_on(tier, &values, 3), [0, 2, 3]);
        }
    }
}
