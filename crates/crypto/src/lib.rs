//! Cryptographic primitives for the MixNN enclave, implemented from
//! scratch.
//!
//! The paper's participants encrypt their model updates with the public key
//! of the SGX enclave so only the MixNN proxy can read them (§4.1/§4.3).
//! This crate provides the construction stack for that channel:
//!
//! * [`sha256`] — SHA-256 (FIPS 180-4),
//! * [`hmac`] — HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869),
//! * [`chacha20`] — the ChaCha20 stream cipher (RFC 8439),
//! * [`poly1305`] — the Poly1305 one-time authenticator and the AEAD tag
//!   built on it (RFC 8439 §2.5, §2.8),
//! * [`x25519`] — X25519 Diffie–Hellman over Curve25519 (RFC 7748),
//! * [`sealed_box`] — the hybrid public-key encryption used on the wire:
//!   ephemeral X25519 → HKDF → ChaCha20-Poly1305 with the ephemeral key
//!   as associated data; `eph_pub (32) ‖ tag (16) ‖ ciphertext`. Every
//!   envelope has its own ephemeral key, so the AEAD's key and nonce —
//!   and with them the one-time Poly1305 key — never repeat.
//!
//! Every primitive is validated against the official test vectors in its
//! module's tests, so measured decryption costs in the §6.5 benches are
//! representative of a real deployment.
//!
//! # The batched hot path
//!
//! Decryption dominates the proxy's per-round cost (§6.5), so the stack
//! is built as batched kernels behind the scalar APIs — each one
//! bit-identical to the scalar definition and pinned by the same RFC/FIPS
//! vectors. There is one ladder of wide tiers, [`mixnn_cpu::Tier`] — `Scalar`,
//! `Avx2`, `Avx512` (F + BW + DQ), `Ifma` — each rung needing every
//! feature below it; each kernel names the rung it needs, and SHA-NI is
//! probed beside the ladder ([`mixnn_cpu::sha_ni`]), not on it. An AVX-512F
//! host without BW and DQ (Xeon Phi) stops at `Avx2`, so its ChaCha20
//! runs the eight-block kernel.
//!
//! * SHA-256 compresses all full blocks of an `update` in one multi-block
//!   call and dispatches at runtime to the x86-64 SHA-NI kernel when the
//!   CPU has it; two equal-length messages compress in lockstep, their
//!   round chains interleaved ([`sha256::Sha256Pair`]) — the cascade's
//!   cover stripping hashes one layer of two slots that way;
//! * HMAC keys precompute their ipad/opad schedule once
//!   ([`hmac::HmacKey`]); the sealed box derives its key and nonce — one
//!   HKDF-Extract, two expands — over fixed, pre-padded blocks, ten
//!   compressions in six dependent steps, each independent two paired;
//! * ChaCha20 generates sixteen keystream blocks per pass from the
//!   `Avx512` rung, eight from `Avx2`, one in portable code, and XORs
//!   them into the buffer where it lies ([`chacha20`]);
//! * Poly1305 absorbs sixteen blocks per pass over `vpmadd52` from the
//!   `Ifma` rung — two independent chains of eight lanes, from 256 bytes
//!   — and one per step in portable code ([`poly1305`]) — the
//!   per-byte cost of an envelope is the keystream's plus this, and
//!   HMAC-SHA256 is off the payload path;
//! * X25519 runs two algorithms, chosen by the kind of job ([`x25519`]):
//!   the Montgomery ladder for a variable base — a point seen once — and
//!   a fixed-base comb on edwards25519 over a precomputed table
//!   ([`x25519::FixedBase`]) for a base the sender reuses: the base point
//!   for every ephemeral key, and each attested recipient key, held as a
//!   [`SealingKey`], for every shared secret sealed to it. The comb takes
//!   the full clamped scalar, never reduced mod ℓ (a recipient key need
//!   not lie in the prime-order subgroup), reads every table entry of a
//!   row and keeps one by mask, and yields the ladder's bytes. Both run
//!   eight lanes on one IFMA field product, which folds 2²⁵⁸ ≡ 152 into
//!   an operand before multiplying — `152·b` per limb in one `vpmadd52`
//!   — so its products land in six positions, with no `vpmullq` in it;
//! * [`sealed_box::SealedBox::prepare_open`] derives the shared secrets
//!   of a round's envelopes together — every ephemeral point a variable
//!   base, so eight ladders per IFMA pass (the `Ifma` rung) — with one
//!   Montgomery-trick field inversion across the batch, and each
//!   [`PreparedOpen`] then verifies and decrypts its envelope in place;
//! * [`sealed_box::SealedBox::prepare`] does the same for everything one
//!   sender seals — an onion's `1 + layers × (hops − 1)` envelopes, each
//!   under its own ephemeral key — grouping the combs by table so eight
//!   share an IFMA pass, and each [`PreparedSeal`] then encrypts in place
//!   in its output buffer. What a group too small for that pass leaves —
//!   a single seal's comb on the base point's table and its comb on the
//!   recipient key's, an onion's leftovers — goes two combs to a pass,
//!   four lanes splitting each one's table rows, so a participant's one
//!   seal per round takes one IFMA pass.
//!
//! # Contributory behavior
//!
//! X25519 maps low-order peer points to the all-zero shared secret. The
//! sealed box rejects that secret on both ends
//! ([`CryptoError::LowOrderPoint`], RFC 7748 §6.1), so a malicious
//! participant cannot force predictable envelope keys, and the ChaCha20
//! block counter panics instead of wrapping (keystream reuse) after 256
//! GiB under one key/nonce.
//!
//! # Security caveat
//!
//! This is a **research reproduction**: the algorithms are the real ones and
//! pass their RFC vectors, but the implementation has not been hardened
//! against timing side channels beyond the basics ([`ct_eq`] for tag
//! comparison, branch-free ladder steps and masked comb-table reads in
//! `x25519`). Do not lift it into a
//! production system.

#![deny(missing_docs)]
#![deny(missing_debug_implementations)]

pub mod chacha20;
mod error;
pub mod hmac;
pub mod poly1305;
pub mod sealed_box;
pub mod sha256;
pub mod x25519;

pub use error::CryptoError;
pub use sealed_box::{
    KeyPair, PreparedOpen, PreparedSeal, PublicKey, Recipient, SealedBox, SealingKey, SecretKey,
};

/// Constant-time equality of two byte slices.
///
/// Returns `false` immediately on length mismatch (the length is public in
/// all uses here); otherwise examines every byte regardless of where the
/// first difference occurs.
///
/// # Example
///
/// ```
/// assert!(mixnn_crypto::ct_eq(b"abc", b"abc"));
/// assert!(!mixnn_crypto::ct_eq(b"abc", b"abd"));
/// assert!(!mixnn_crypto::ct_eq(b"abc", b"ab"));
/// ```
pub fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    if a.len() != b.len() {
        return false;
    }
    let mut diff = 0u8;
    for (&x, &y) in a.iter().zip(b.iter()) {
        diff |= x ^ y;
    }
    diff == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ct_eq_matches_equality() {
        assert!(ct_eq(&[], &[]));
        assert!(ct_eq(&[1, 2, 3], &[1, 2, 3]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2, 4]));
        assert!(!ct_eq(&[1, 2, 3], &[1, 2]));
        assert!(!ct_eq(&[0xff], &[0x7f]));
    }
}
