//! HMAC-SHA256 (RFC 2104) and HKDF (RFC 5869).
//!
//! HKDF derives the per-envelope ChaCha20 key and nonce from the X25519
//! shared secret; HMAC is what HKDF is made of, and signs the enclave's
//! attestation quotes. Neither touches an envelope's payload — that is
//! [`crate::poly1305`]'s. Validated against the RFC 4231 and RFC 5869
//! test vectors.
//!
//! [`HmacKey`] is the reusable form: the ipad/opad key blocks are
//! absorbed into two hasher states once at construction, so every MAC
//! under the same key (HKDF-Expand's block loop) skips two compressions —
//! half the total for the short messages HKDF feeds it. [`hkdf_extract`]
//! and [`hkdf_expand_into`] are the general path, pinned by RFC 5869.
//!
//! The sealed box derives every envelope's key and nonce from inputs of
//! fixed length — a 64-byte salt, a 32-byte secret and PRK, two fixed
//! infos — so it runs HKDF over fixed blocks instead: both pads of a key
//! in one paired compression (`key_states`), each message padded in place
//! into the one block after its key's (`tail_block`, `expand_block`), no
//! hasher, buffer or clone. Its tests pin it to the general path.

use crate::sha256::{self, digest, Sha256, DIGEST_LEN};

const BLOCK_LEN: usize = 64;

/// A precomputed HMAC-SHA256 key schedule.
///
/// Holds the inner and outer hasher states with their ipad/opad key
/// blocks already compressed; [`HmacKey::mac`] clones them instead of
/// re-deriving the key block per call.
///
/// # Example
///
/// ```
/// use mixnn_crypto::hmac::{hmac_sha256, HmacKey};
///
/// let key = HmacKey::new(b"key");
/// assert_eq!(key.mac(b"message"), hmac_sha256(b"key", b"message"));
/// ```
#[derive(Debug, Clone)]
pub struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    /// Builds the schedule for `key`. Keys longer than the SHA-256 block
    /// size are hashed first, per RFC 2104.
    pub fn new(key: &[u8]) -> Self {
        let mut key_block = [0u8; BLOCK_LEN];
        if key.len() > BLOCK_LEN {
            key_block[..DIGEST_LEN].copy_from_slice(&digest(key));
        } else {
            key_block[..key.len()].copy_from_slice(key);
        }

        let mut ipad = [0x36u8; BLOCK_LEN];
        let mut opad = [0x5cu8; BLOCK_LEN];
        for i in 0..BLOCK_LEN {
            ipad[i] ^= key_block[i];
            opad[i] ^= key_block[i];
        }

        let mut inner = Sha256::new();
        inner.update(&ipad);
        let mut outer = Sha256::new();
        outer.update(&opad);
        HmacKey { inner, outer }
    }

    /// Computes `HMAC-SHA256(key, message)`.
    pub fn mac(&self, message: &[u8]) -> [u8; DIGEST_LEN] {
        let mut inner = self.inner.clone();
        inner.update(message);
        self.finish(inner)
    }

    /// The outer hash over a finished inner one (a clone of `self.inner`
    /// that has absorbed the message).
    fn finish(&self, inner: Sha256) -> [u8; DIGEST_LEN] {
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Computes `HMAC-SHA256(key, message)`.
///
/// Keys longer than the SHA-256 block size are hashed first, per RFC 2104.
/// For repeated MACs under one key, build an [`HmacKey`] instead.
///
/// # Example
///
/// ```
/// let tag = mixnn_crypto::hmac::hmac_sha256(b"key", b"message");
/// assert_eq!(tag.len(), 32);
/// ```
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; DIGEST_LEN] {
    HmacKey::new(key).mac(message)
}

/// HKDF-Extract: `PRK = HMAC(salt, ikm)`.
///
/// An empty salt behaves as a zero-filled digest-length salt per RFC 5869.
pub fn hkdf_extract(salt: &[u8], ikm: &[u8]) -> [u8; DIGEST_LEN] {
    if salt.is_empty() {
        hmac_sha256(&[0u8; DIGEST_LEN], ikm)
    } else {
        hmac_sha256(salt, ikm)
    }
}

/// HKDF-Expand: derives `len` bytes of output keying material from a PRK
/// and context `info`.
///
/// # Panics
///
/// Panics if `len > 255 * 32` (the RFC 5869 limit — a programming error for
/// our fixed-size derivations).
pub fn hkdf_expand(prk: &[u8; DIGEST_LEN], info: &[u8], len: usize) -> Vec<u8> {
    hkdf_expand_keyed(&HmacKey::new(prk), info, len)
}

/// HKDF-Expand with a prebuilt PRK schedule, so several expansions from
/// one extract (the sealed box derives two) share the key setup.
///
/// # Panics
///
/// Panics if `len > 255 * 32`, as [`hkdf_expand`] does.
pub fn hkdf_expand_keyed(prk: &HmacKey, info: &[u8], len: usize) -> Vec<u8> {
    let mut okm = vec![0u8; len];
    hkdf_expand_into(prk, info, &mut okm);
    okm
}

/// [`hkdf_expand_keyed`] into a caller-provided buffer: fills all of `okm`
/// without allocating, for the fixed-size keys of the sealed box.
///
/// # Panics
///
/// Panics if `okm.len() > 255 * 32`, as [`hkdf_expand`] does.
pub fn hkdf_expand_into(prk: &HmacKey, info: &[u8], okm: &mut [u8]) {
    assert!(okm.len() <= 255 * DIGEST_LEN, "hkdf output too long");
    let mut t: Option<[u8; DIGEST_LEN]> = None;
    for (i, chunk) in okm.chunks_mut(DIGEST_LEN).enumerate() {
        let counter = [u8::try_from(i + 1).expect("at most 255 blocks")];
        // T(i) = HMAC(PRK, T(i − 1) ‖ info ‖ i), absorbed part by part.
        let mut inner = prk.inner.clone();
        if let Some(prev) = &t {
            inner.update(prev);
        }
        inner.update(info);
        inner.update(&counter);
        let block = prk.finish(inner);
        chunk.copy_from_slice(&block[..chunk.len()]);
        t = Some(block);
    }
}

/// The ipad and opad states of `key` — at most one block, zero-padded —
/// in one paired compression: the fixed-block HMAC the sealed box
/// derives its keys with.
pub(crate) fn key_states(tier: sha256::Tier, key: &[u8]) -> [[u32; 8]; 2] {
    let mut pads = [[0x36u8; BLOCK_LEN], [0x5cu8; BLOCK_LEN]];
    for pad in &mut pads {
        for (byte, k) in pad.iter_mut().zip(key) {
            *byte ^= k;
        }
    }
    let [mut inner, mut outer] = [sha256::H0; 2];
    sha256::compress_pair(tier, &mut inner, &mut outer, &pads[0], &pads[1]);
    [inner, outer]
}

/// The one padded block that closes an HMAC hash whose message is
/// `message` (at most 55 bytes) after the 64-byte key block: `message`,
/// `0x80`, zeros and the 64-bit big-endian bit length of the two.
pub(crate) const fn tail_block(message: &[u8]) -> [u8; BLOCK_LEN] {
    assert!(message.len() < BLOCK_LEN - 8, "one block after the key's");
    let mut block = [0u8; BLOCK_LEN];
    let mut i = 0;
    while i < message.len() {
        block[i] = message[i];
        i += 1;
    }
    block[message.len()] = 0x80;
    let bits = ((BLOCK_LEN + message.len()) as u64 * 8).to_be_bytes();
    let mut i = 0;
    while i < 8 {
        block[BLOCK_LEN - 8 + i] = bits[i];
        i += 1;
    }
    block
}

/// [`tail_block`] of HKDF-Expand's first message, `info ‖ 0x01`: T(1),
/// all of a digest-length output.
pub(crate) const fn expand_block(info: &[u8]) -> [u8; BLOCK_LEN] {
    let mut message = [0u8; BLOCK_LEN - 9];
    let mut i = 0;
    while i < info.len() {
        message[i] = info[i];
        i += 1;
    }
    message[info.len()] = 1;
    let (first, _) = message.split_at(info.len() + 1);
    tail_block(first)
}

/// Convenience: HKDF extract-then-expand in one call.
pub fn hkdf(salt: &[u8], ikm: &[u8], info: &[u8], len: usize) -> Vec<u8> {
    let prk = hkdf_extract(salt, ikm);
    hkdf_expand(&prk, info, len)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // RFC 4231 test case 1.
    #[test]
    fn rfc4231_case_1() {
        let key = vec![0x0b; 20];
        let tag = hmac_sha256(&key, b"Hi There");
        assert_eq!(
            hex(&tag),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
        );
    }

    // RFC 4231 test case 2 ("Jefe").
    #[test]
    fn rfc4231_case_2() {
        let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        assert_eq!(
            hex(&tag),
            "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
        );
    }

    // RFC 4231 test case 3: 20×0xaa key, 50×0xdd data.
    #[test]
    fn rfc4231_case_3() {
        let key = vec![0xaa; 20];
        let data = vec![0xdd; 50];
        let tag = hmac_sha256(&key, &data);
        assert_eq!(
            hex(&tag),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
    }

    // RFC 4231 test case 6: key longer than the block size.
    #[test]
    fn rfc4231_case_6_long_key() {
        let key = vec![0xaa; 131];
        let tag = hmac_sha256(
            &key,
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        assert_eq!(
            hex(&tag),
            "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
        );
    }

    // RFC 5869 test case 1.
    #[test]
    fn rfc5869_case_1() {
        let ikm = vec![0x0b; 22];
        let salt = unhex("000102030405060708090a0b0c");
        let info = unhex("f0f1f2f3f4f5f6f7f8f9");
        let prk = hkdf_extract(&salt, &ikm);
        assert_eq!(
            hex(&prk),
            "077709362c2e32df0ddc3f0dc47bba6390b6c73bb50f9c3122ec844ad7c2b3e5"
        );
        let okm = hkdf_expand(&prk, &info, 42);
        assert_eq!(
            hex(&okm),
            "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf34007208d5b887185865"
        );
    }

    // RFC 5869 test case 3: empty salt and info.
    #[test]
    fn rfc5869_case_3_empty_salt_info() {
        let ikm = vec![0x0b; 22];
        let okm = hkdf(&[], &ikm, &[], 42);
        assert_eq!(
            hex(&okm),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d9d201395faa4b61a96c8"
        );
    }

    #[test]
    fn hkdf_lengths() {
        let okm = hkdf(b"salt", b"ikm", b"info", 100);
        assert_eq!(okm.len(), 100);
        let short = hkdf(b"salt", b"ikm", b"info", 5);
        assert_eq!(short.len(), 5);
        assert_eq!(&okm[..5], &short[..]);
    }

    /// The precomputed schedule must agree with HMAC written out from
    /// RFC 2104 — `H((K ⊕ opad) ‖ H((K ⊕ ipad) ‖ m))` over one-shot
    /// digests — across key-length classes (short, block-size,
    /// hashed-down).
    #[test]
    fn hmac_key_matches_one_shot() {
        let message: Vec<u8> = (0..150u8).collect();
        for key_len in [0usize, 1, 32, 63, 64, 65, 131] {
            let key = vec![0xc3u8; key_len];
            let mut block = if key_len > BLOCK_LEN {
                digest(&key).to_vec()
            } else {
                key.clone()
            };
            block.resize(BLOCK_LEN, 0);
            let pad = |with: u8| block.iter().map(|b| b ^ with).collect::<Vec<u8>>();
            let inner = digest(&[pad(0x36), message.clone()].concat());
            let expected = digest(&[pad(0x5c), inner.to_vec()].concat());
            assert_eq!(
                HmacKey::new(&key).mac(&message),
                expected,
                "key len {key_len}"
            );
        }
    }

    #[test]
    fn hmac_differs_on_key_and_message() {
        let a = hmac_sha256(b"k1", b"m");
        let b = hmac_sha256(b"k2", b"m");
        let c = hmac_sha256(b"k1", b"n");
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
