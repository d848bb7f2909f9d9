//! Known-answer tests pinning every hand-rolled primitive against published
//! vectors, exercised through the crate's *public* API (the per-module unit
//! tests cover internals; this suite guards the exported surface).
//!
//! Sources: FIPS 180-4 / NIST examples (SHA-256), RFC 4231 (HMAC-SHA256),
//! RFC 5869 (HKDF), RFC 7748 (X25519), RFC 8439 (ChaCha20, Poly1305 and
//! the AEAD construction the sealed box is built on).

use mixnn_cpu::Tier;
use mixnn_crypto::hmac::{hkdf, hmac_sha256};
use mixnn_crypto::{chacha20, poly1305, sha256, x25519};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.chars().filter(|c| !c.is_whitespace()).collect();
    assert!(s.len().is_multiple_of(2), "odd-length hex string");
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

fn unhex32(s: &str) -> [u8; 32] {
    unhex(s).try_into().unwrap()
}

// ---------------------------------------------------------------------------
// SHA-256 — FIPS 180-4 examples
// ---------------------------------------------------------------------------

#[test]
fn sha256_fips_one_block_message() {
    assert_eq!(
        hex(&sha256::digest(b"abc")),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
}

#[test]
fn sha256_fips_empty_message() {
    assert_eq!(
        hex(&sha256::digest(b"")),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
}

#[test]
fn sha256_fips_two_block_message() {
    assert_eq!(
        hex(&sha256::digest(
            b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
        )),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

#[test]
fn sha256_streaming_matches_oneshot_on_fips_input() {
    let message = b"abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn\
                    hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu";
    let mut hasher = sha256::Sha256::new();
    for chunk in message.chunks(7) {
        hasher.update(chunk);
    }
    let streamed = hasher.finalize();
    assert_eq!(
        hex(&streamed),
        "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    );
    assert_eq!(streamed, sha256::digest(message));
}

// ---------------------------------------------------------------------------
// HMAC-SHA256 — RFC 4231 (cases 4, 5 and 7 are not covered by the unit
// tests; 1–3 pin the public API against the same vectors the units use)
// ---------------------------------------------------------------------------

#[test]
fn hmac_rfc4231_case_1() {
    let tag = hmac_sha256(&[0x0b; 20], b"Hi There");
    assert_eq!(
        hex(&tag),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    );
}

#[test]
fn hmac_rfc4231_case_2() {
    let tag = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
    assert_eq!(
        hex(&tag),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    );
}

#[test]
fn hmac_rfc4231_case_3() {
    let tag = hmac_sha256(&[0xaa; 20], &[0xdd; 50]);
    assert_eq!(
        hex(&tag),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    );
}

#[test]
fn hmac_rfc4231_case_4() {
    let key: Vec<u8> = (0x01..=0x19).collect();
    let tag = hmac_sha256(&key, &[0xcd; 50]);
    assert_eq!(
        hex(&tag),
        "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
    );
}

#[test]
fn hmac_rfc4231_case_5_truncated() {
    // The RFC publishes only the first 128 bits of this tag.
    let tag = hmac_sha256(&[0x0c; 20], b"Test With Truncation");
    assert_eq!(hex(&tag[..16]), "a3b6167473100ee06e0c796c2955552b");
}

#[test]
fn hmac_rfc4231_case_6_long_key() {
    let tag = hmac_sha256(
        &[0xaa; 131],
        b"Test Using Larger Than Block-Size Key - Hash Key First",
    );
    assert_eq!(
        hex(&tag),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    );
}

#[test]
fn hmac_rfc4231_case_7_long_key_and_data() {
    let tag = hmac_sha256(
        &[0xaa; 131],
        &b"This is a test using a larger than block-size key and a larger t\
           han block-size data. The key needs to be hashed before being use\
           d by the HMAC algorithm."[..],
    );
    assert_eq!(
        hex(&tag),
        "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
    );
}

// ---------------------------------------------------------------------------
// HKDF — RFC 5869 test case 1
// ---------------------------------------------------------------------------

#[test]
fn hkdf_rfc5869_case_1() {
    let ikm = [0x0b; 22];
    let salt = unhex("000102030405060708090a0b0c");
    let info = unhex("f0f1f2f3f4f5f6f7f8f9");
    let okm = hkdf(&salt, &ikm, &info, 42);
    assert_eq!(
        hex(&okm),
        "3cb25f25faacd57a90434f64d0362f2a2d2d0a90cf1a5a4c5db02d56ecc4c5bf\
         34007208d5b887185865"
    );
}

// ---------------------------------------------------------------------------
// X25519 — RFC 7748
// ---------------------------------------------------------------------------

#[test]
fn x25519_rfc7748_vector_1() {
    let scalar = unhex32("a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4");
    let point = unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c");
    assert_eq!(
        hex(&x25519::x25519(&scalar, &point)),
        "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
    );
}

#[test]
fn x25519_rfc7748_vector_2() {
    let scalar = unhex32("4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d");
    let point = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
    assert_eq!(
        hex(&x25519::x25519(&scalar, &point)),
        "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
    );
}

#[test]
fn x25519_rfc7748_diffie_hellman() {
    let alice_secret = unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a");
    let bob_secret = unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb");
    let alice_public = x25519::public_key(&alice_secret);
    let bob_public = x25519::public_key(&bob_secret);
    assert_eq!(
        hex(&alice_public),
        "8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"
    );
    assert_eq!(
        hex(&bob_public),
        "de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"
    );
    let shared_ab = x25519::x25519(&alice_secret, &bob_public);
    let shared_ba = x25519::x25519(&bob_secret, &alice_public);
    assert_eq!(shared_ab, shared_ba);
    assert_eq!(
        hex(&shared_ab),
        "4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742"
    );
}

/// §6.1's key pairs and shared secret out of the fixed-base comb, on every
/// comb tier the host supports: both public keys over the base point's
/// table, the shared secret over each public key's table — and
/// `x25519::public_key`, which takes the comb.
#[test]
fn x25519_rfc7748_diffie_hellman_through_the_comb_on_every_tier() {
    let secrets = [
        unhex32("77076d0a7318a57d3c16c17251b26645df4c2f87ebc0992ab177fba51db92c2a"),
        unhex32("5dab087e624a8a4b79e17f8b83800ee66f3bb1292618b6fd1c2f8b27ff88e0eb"),
    ];
    let publics = [
        unhex32("8520f0098930a754748b7ddcb43ef75a0dbf3a0d26381af4eba4a98eaa9b4e6a"),
        unhex32("de9edb7d7b7dc1b4d35b61c2ece435373f8343c85b78674dadfc7e146f882b4f"),
    ];
    let shared = unhex32("4a5d9d5ba4ce2de1728e3bf480350f25e07e21c947d19e3376f09b3c1e161742");
    assert_eq!(x25519::public_key(&secrets[0]), publics[0]);
    assert_eq!(x25519::public_key(&secrets[1]), publics[1]);
    let tiers = Tier::runnable(x25519::TIERS);
    assert_eq!(tiers[0], Tier::Scalar);
    for tier in tiers {
        let mut out = [[0u8; 32]; 2];
        x25519::fixed_base_on(tier, x25519::FixedBase::basepoint(), &secrets, &mut out);
        assert_eq!(out, publics, "{tier:?}");
        for (secret, peer) in [(secrets[0], publics[1]), (secrets[1], publics[0])] {
            let table = x25519::FixedBase::new(&peer).expect("RFC keys lie on the curve");
            let mut out = [[0u8; 32]; 1];
            x25519::fixed_base_on(tier, &table, &[secret], &mut out);
            assert_eq!(out[0], shared, "{tier:?}");
        }
    }
}

/// The comb equals the ladder through the public API on every tier: one
/// eight-lane group and a scalar tail on one table, for the base point, a
/// key and RFC 7748 §5.2 vector 1's point. Vector 2's point (top bit set,
/// and on the twist once it is dropped) and u = 2 have no Edwards image:
/// no table, and multiples of them stay on the ladder.
#[test]
fn x25519_fixed_base_equals_the_ladder_on_every_tier() {
    let scalars: Vec<[u8; 32]> = (0u8..11)
        .map(|i| core::array::from_fn(|j| i.wrapping_mul(97) ^ (j as u8).wrapping_mul(29)))
        .collect();
    let points = [
        x25519::BASEPOINT,
        x25519::public_key(&[0x33; 32]),
        unhex32("e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"),
    ];
    for point in &points {
        let table = x25519::FixedBase::new(point).expect("a curve point");
        let expected: Vec<[u8; 32]> = scalars.iter().map(|k| x25519::x25519(k, point)).collect();
        for tier in Tier::runnable(x25519::TIERS) {
            let mut out = vec![[0u8; 32]; scalars.len()];
            x25519::fixed_base_on(tier, &table, &scalars, &mut out);
            assert_eq!(out, expected, "{tier:?}");
        }
    }
    let mut two = [0u8; 32];
    two[0] = 2;
    let vector_2 = unhex32("e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493");
    for twist in [two, vector_2] {
        assert!(x25519::FixedBase::new(&twist).is_none());
    }
}

// ---------------------------------------------------------------------------
// ChaCha20 — RFC 8439
// ---------------------------------------------------------------------------

#[test]
fn chacha20_rfc8439_keystream_block() {
    // §2.3.2: encrypting all-zero bytes yields the raw keystream block.
    let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
    let nonce = unhex("000000090000004a00000000").try_into().unwrap();
    let mut block = [0u8; 64];
    chacha20::xor_keystream(&key, &nonce, 1, &mut block);
    assert_eq!(
        hex(&block),
        "10f1e7e4d13b5915500fdd1fa32071c4c7d1f4c733c068030422aa9ac3d46c4e\
         d2826446079faa0914c2d705d98b02a2b5129cd1de164eb9cbd083e8a2503c4e"
    );
}

#[test]
fn chacha20_rfc8439_sunscreen_encryption() {
    // §2.4.2: the "Ladies and Gentlemen" plaintext under counter 1.
    let key: [u8; 32] = (0u8..32).collect::<Vec<_>>().try_into().unwrap();
    let nonce = unhex("000000000000004a00000000").try_into().unwrap();
    let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
                     offer you only one tip for the future, sunscreen would be it."
        .to_vec();
    chacha20::xor_keystream(&key, &nonce, 1, &mut data);
    assert_eq!(
        hex(&data),
        "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b\
         f91b65c5524733ab8f593dabcd62b3571639d624e65152ab8f530c359f0861d8\
         07ca0dbf500d6a6156a38e088a22b65e52bc514d16ccf806818ce91ab7793736\
         5af90bbf74a35be6b40b8eedf2785e42874d"
    );
    // Decryption is the same keystream XOR.
    chacha20::xor_keystream(&key, &nonce, 1, &mut data);
    assert!(data.starts_with(b"Ladies and Gentlemen"));
}

// ---------------------------------------------------------------------------
// Poly1305 and the ChaCha20-Poly1305 AEAD construction — RFC 8439, on every
// tier the host supports
// ---------------------------------------------------------------------------

#[test]
fn poly1305_rfc8439_tag() {
    // §2.5.2.
    let key = unhex32("85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b");
    let message = b"Cryptographic Forum Research Group";
    let tiers = Tier::runnable(poly1305::TIERS);
    assert_eq!(tiers[0], Tier::Scalar);
    for tier in tiers {
        assert_eq!(
            hex(&poly1305::poly1305_on(tier, &key, message)),
            "a8061dc1305136c6c22b8baf0c0127a9",
            "{tier:?}"
        );
    }
    assert_eq!(
        hex(&poly1305::poly1305(&key, message)),
        "a8061dc1305136c6c22b8baf0c0127a9"
    );
}

#[test]
fn chacha20_poly1305_rfc8439_aead() {
    // §2.8.2, step by step as the sealed box takes them: the one-time key
    // out of keystream block 0, the payload from block 1, the tag over
    // the padded AAD, the padded ciphertext and both lengths.
    let key: [u8; 32] = (0x80u8..0xa0).collect::<Vec<_>>().try_into().unwrap();
    let nonce = unhex("070000004041424344454647").try_into().unwrap();
    let aad = unhex("50515253c0c1c2c3c4c5c6c7");
    let mut data = b"Ladies and Gentlemen of the class of '99: If I could \
                     offer you only one tip for the future, sunscreen would be it."
        .to_vec();

    let mut block0 = [0u8; 64];
    chacha20::xor_keystream(&key, &nonce, 0, &mut block0);
    let one_time_key: [u8; 32] = block0[..32].try_into().unwrap();
    assert_eq!(
        hex(&one_time_key),
        "7bac2b252db447af09b67a55a4e955840ae1d6731075d9eb2a9375783ed553ff"
    );

    chacha20::xor_keystream(&key, &nonce, 1, &mut data);
    assert_eq!(
        hex(&data),
        "d31a8d34648e60db7b86afbc53ef7ec2a4aded51296e08fea9e2b5a736ee62d6\
         3dbea45e8ca9671282fafb69da92728b1a71de0a9e060b2905d6a5b67ecd3b36\
         92ddbd7f2d778b8c9803aee328091b58fab324e4fad675945585808b4831d7bc\
         3ff4def08e4b7a9de576d26586cec64b6116"
    );

    let tag = "1ae10b594f09e26a7e902ecbd0600691";
    assert_eq!(hex(&poly1305::aead_tag(&one_time_key, &aad, &data)), tag);
    // The same tag from the materialised `mac_data`, per tier.
    let mut mac_data = aad.clone();
    mac_data.resize(16, 0);
    mac_data.extend_from_slice(&data);
    mac_data.resize(16 + data.len().next_multiple_of(16), 0);
    mac_data.extend_from_slice(&(aad.len() as u64).to_le_bytes());
    mac_data.extend_from_slice(&(data.len() as u64).to_le_bytes());
    for tier in Tier::runnable(poly1305::TIERS) {
        let got = poly1305::poly1305_on(tier, &one_time_key, &mac_data);
        assert_eq!(hex(&got), tag, "{tier:?}");
    }
}
