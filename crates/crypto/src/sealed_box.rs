//! Sealed-box hybrid public-key encryption.
//!
//! This is the wire format participants use to encrypt model updates to the
//! MixNN enclave (§4.1: *"they are encrypted with the public key of the
//! enclave to ensure that only the MixNN proxy is able to read and process
//! them"*). Construction:
//!
//! 1. sender generates an ephemeral X25519 key pair;
//! 2. `shared = X25519(ephemeral_secret, recipient_public)`;
//! 3. `key material = HKDF(salt = eph_pub ‖ recipient_pub, ikm = shared)`,
//!    split into a ChaCha20 key, a nonce and an HMAC key;
//! 4. ciphertext = ChaCha20(plaintext), tag = HMAC-SHA256 over
//!    `eph_pub ‖ ciphertext` (encrypt-then-MAC).
//!
//! Wire layout: `eph_pub (32) ‖ tag (32) ‖ ciphertext`.
//!
//! Three properties worth calling out:
//!
//! * **Contributory behavior** (RFC 7748 §6.1): a low-order peer point
//!   makes the X25519 output all-zero, and every key above would be
//!   attacker-predictable. Sealing ([`SealedBox::prepare`], and so
//!   [`SealedBox::seal`]) and opening ([`SealedBox::open`]) both reject
//!   the all-zero shared secret with [`CryptoError::LowOrderPoint`].
//! * **Two-phase sealing**: steps 1–2 do not depend on the plaintext, so
//!   [`SealedBox::prepare`] runs them for *many* envelopes of one sender
//!   at once — every ephemeral secret drawn from the caller's RNG in
//!   envelope order, then all `2·n` scalar multiplications through the
//!   batched X25519 driver (the one behind [`x25519::x25519_multi`]:
//!   eight ladders per pass on AVX-512 IFMA hosts, one shared field
//!   inversion). Each [`PreparedSeal`] then runs steps 3–4 over its
//!   plaintext, in place in the output buffer. [`SealedBox::seal`] is
//!   the batch of one; bytes and RNG position are identical however
//!   envelopes are grouped. Every envelope still has its **own**
//!   ephemeral key: equal `eph_pub`s would link the envelopes that carry
//!   them.
//! * **Batched opening**: [`SealedBox::open_batch`] opens many envelopes
//!   addressed to one recipient, sharing the final field inversion and
//!   the ladder passes across the batch ([`x25519::x25519_batch`]).
//!   Results are bit-identical to per-envelope [`SealedBox::open`].

use crate::chacha20;
use crate::hmac::{hkdf_expand_into, hkdf_extract, HmacKey};
use crate::x25519;
use crate::CryptoError;
use rand::Rng;
use std::fmt;

/// An X25519 public key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PublicKey([u8; 32]);

impl PublicKey {
    /// Wraps raw public-key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        PublicKey(bytes)
    }

    /// The raw bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// An X25519 secret key. The `Debug` impl redacts the key material.
#[derive(Clone)]
pub struct SecretKey([u8; 32]);

impl SecretKey {
    /// Wraps raw secret-key bytes.
    pub fn from_bytes(bytes: [u8; 32]) -> Self {
        SecretKey(bytes)
    }

    /// The raw bytes. Handle with care.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

impl fmt::Debug for SecretKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SecretKey(redacted)")
    }
}

/// An X25519 key pair, as held by the MixNN enclave (`k_pub`, `k_priv` in
/// the paper's notation).
#[derive(Debug, Clone)]
pub struct KeyPair {
    secret: SecretKey,
    public: PublicKey,
}

impl KeyPair {
    /// Generates a key pair from the given RNG.
    ///
    /// # Example
    ///
    /// ```
    /// use mixnn_crypto::KeyPair;
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// let kp = KeyPair::generate(&mut StdRng::seed_from_u64(1));
    /// assert_ne!(kp.public().as_bytes(), &[0u8; 32]);
    /// ```
    pub fn generate<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut secret = [0u8; 32];
        rng.fill(&mut secret);
        Self::from_secret(SecretKey::from_bytes(secret))
    }

    /// Builds the key pair for an existing secret.
    pub fn from_secret(secret: SecretKey) -> Self {
        let public = PublicKey(x25519::public_key(secret.as_bytes()));
        KeyPair { secret, public }
    }

    /// The public half.
    pub fn public(&self) -> &PublicKey {
        &self.public
    }

    /// The secret half.
    pub fn secret(&self) -> &SecretKey {
        &self.secret
    }
}

/// Byte overhead of a sealed box over its plaintext.
pub const OVERHEAD: usize = 64;

const INFO_KEY: &[u8] = b"mixnn sealed box v1 key";
const INFO_NONCE: &[u8] = b"mixnn sealed box v1 nonce";
const INFO_MAC: &[u8] = b"mixnn sealed box v1 mac";

/// Sealed-box encryption to a recipient public key.
///
/// Stateless namespace struct; see the module docs for the construction.
///
/// # Example
///
/// ```
/// use mixnn_crypto::{KeyPair, SealedBox};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_crypto::CryptoError> {
/// let mut rng = StdRng::seed_from_u64(7);
/// let enclave = KeyPair::generate(&mut rng);
/// let boxed = SealedBox::seal(b"model update", enclave.public(), &mut rng)?;
/// let plain = SealedBox::open(&boxed, &enclave)?;
/// assert_eq!(plain, b"model update");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct SealedBox;

struct DerivedKeys {
    cipher_key: [u8; 32],
    nonce: [u8; 12],
    mac_key: [u8; 32],
}

/// One envelope's content-independent half: a fresh ephemeral public key
/// and the (contributory-checked) shared secret with its recipient, ready
/// to seal exactly one plaintext. Made by [`SealedBox::prepare`].
///
/// Sealing consumes the value — a second plaintext under the same
/// ephemeral key would reuse the ChaCha20 keystream. The `Debug` impl
/// redacts the secret.
pub struct PreparedSeal {
    eph_pub: [u8; 32],
    shared: [u8; 32],
    recipient: [u8; 32],
}

impl fmt::Debug for PreparedSeal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PreparedSeal(redacted)")
    }
}

impl PreparedSeal {
    /// Seals `plaintext` into a fresh envelope, `OVERHEAD` bytes longer.
    pub fn seal(self, plaintext: &[u8]) -> Vec<u8> {
        let mut envelope = Vec::with_capacity(OVERHEAD + plaintext.len());
        envelope.resize(OVERHEAD, 0);
        envelope.extend_from_slice(plaintext);
        self.seal_in_place(&mut envelope);
        envelope
    }

    /// Seals in place: on entry `envelope[OVERHEAD..]` holds the plaintext
    /// (the first `OVERHEAD` bytes are overwritten); on return the whole
    /// slice is the sealed box `eph_pub ‖ tag ‖ ciphertext`. An onion
    /// builder nests envelopes this way in one buffer, each wrapping the
    /// tail that starts `OVERHEAD` bytes further in.
    ///
    /// # Panics
    ///
    /// Panics if `envelope` is shorter than `OVERHEAD`.
    pub fn seal_in_place(self, envelope: &mut [u8]) {
        assert!(
            envelope.len() >= OVERHEAD,
            "no room for the envelope header"
        );
        let keys = SealedBox::derive(&self.shared, &self.eph_pub, &self.recipient);
        let (header, ciphertext) = envelope.split_at_mut(OVERHEAD);
        chacha20::xor_keystream(&keys.cipher_key, &keys.nonce, 0, ciphertext);
        let tag = HmacKey::new(&keys.mac_key).mac_parts(&[&self.eph_pub, ciphertext]);
        header[..32].copy_from_slice(&self.eph_pub);
        header[32..].copy_from_slice(&tag);
    }
}

impl SealedBox {
    fn derive(shared: &[u8; 32], eph_pub: &[u8; 32], recipient_pub: &[u8; 32]) -> DerivedKeys {
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(eph_pub);
        salt[32..].copy_from_slice(recipient_pub);
        // One HKDF-Extract, three expands under a shared PRK schedule,
        // straight into the fixed-size keys.
        let prk = hkdf_extract(&salt, shared);
        let prk_key = HmacKey::new(&prk);
        let mut keys = DerivedKeys {
            cipher_key: [0; 32],
            nonce: [0; 12],
            mac_key: [0; 32],
        };
        hkdf_expand_into(&prk_key, INFO_KEY, &mut keys.cipher_key);
        hkdf_expand_into(&prk_key, INFO_NONCE, &mut keys.nonce);
        hkdf_expand_into(&prk_key, INFO_MAC, &mut keys.mac_key);
        keys
    }

    /// Encrypts `plaintext` to `recipient`, drawing ephemeral key material
    /// from `rng`. The output is `OVERHEAD` bytes longer than the input.
    /// This is [`SealedBox::prepare`] for one envelope followed by
    /// [`PreparedSeal::seal`].
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] if `recipient` is a
    /// low-order point (the RFC 7748 §6.1 contributory-behavior check) —
    /// sealing to it would yield attacker-predictable keys.
    pub fn seal<R: Rng + ?Sized>(
        plaintext: &[u8],
        recipient: &PublicKey,
        rng: &mut R,
    ) -> Result<Vec<u8>, CryptoError> {
        let prepared = Self::prepare([recipient], rng)?;
        let only = prepared.into_iter().next();
        Ok(only.expect("one envelope per recipient").seal(plaintext))
    }

    /// The content-independent phase of sealing, for all of one sender's
    /// envelopes at once: draws one 32-byte ephemeral secret per recipient
    /// from `rng`, **in `recipients` order** (exactly the draws a loop of
    /// [`SealedBox::seal`] calls would make), then derives every ephemeral
    /// public key and shared secret through the batched X25519 driver.
    /// Returns one [`PreparedSeal`] per recipient, in order.
    ///
    /// Batch only what a single sender seals: the ladders of one batch run
    /// in one process. Every envelope gets its own ephemeral key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] if any recipient is a
    /// low-order point, as [`SealedBox::seal`] does. How far `rng` has
    /// advanced is then unspecified (the batch draws every secret before
    /// it checks any).
    pub fn prepare<'a, I, R>(recipients: I, rng: &mut R) -> Result<Vec<PreparedSeal>, CryptoError>
    where
        I: IntoIterator<Item = &'a PublicKey>,
        R: Rng + ?Sized,
    {
        Self::prepare_on(x25519::Tier::best(), recipients, rng)
    }

    fn prepare_on<'a, I, R>(
        tier: x25519::Tier,
        recipients: I,
        rng: &mut R,
    ) -> Result<Vec<PreparedSeal>, CryptoError>
    where
        I: IntoIterator<Item = &'a PublicKey>,
        R: Rng + ?Sized,
    {
        let pending: Vec<([u8; 32], [u8; 32])> = recipients
            .into_iter()
            .map(|recipient| {
                let mut secret = [0u8; 32];
                rng.fill(&mut secret);
                (secret, recipient.0)
            })
            .collect();
        // Two ladders per envelope under its own secret: `k·G`, then `k·H`.
        let jobs = pending
            .iter()
            .flat_map(|&(k, recipient)| [(k, x25519::BASEPOINT), (k, recipient)]);
        let mut prepared: Vec<PreparedSeal> = Vec::with_capacity(pending.len());
        let mut eph_pub = [0u8; 32];
        x25519::scalarmult_each(tier, jobs, |job, u| {
            if job % 2 == 0 {
                eph_pub = u;
            } else {
                prepared.push(PreparedSeal {
                    eph_pub,
                    shared: u,
                    recipient: pending[job / 2].1,
                });
            }
        });
        if prepared.iter().any(|p| p.shared == [0u8; 32]) {
            return Err(CryptoError::LowOrderPoint);
        }
        Ok(prepared)
    }

    /// Decrypts a sealed box with the recipient's key pair.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::BadLength`] if the message is shorter than
    /// the header, [`CryptoError::LowOrderPoint`] if the sender's
    /// ephemeral point is low-order (contributory-behavior check), or
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify
    /// (wrong key, truncation, or tampering).
    pub fn open(sealed: &[u8], recipient: &KeyPair) -> Result<Vec<u8>, CryptoError> {
        if sealed.len() < OVERHEAD {
            return Err(CryptoError::BadLength {
                expected: "at least 64 bytes",
                actual: sealed.len(),
            });
        }
        let eph_pub: [u8; 32] = sealed[..32].try_into().expect("length checked");
        let shared = x25519::x25519(recipient.secret().as_bytes(), &eph_pub);
        Self::open_with_shared(sealed, &shared, recipient)
    }

    /// Opens a batch of envelopes addressed to `recipient`, amortizing the
    /// shared-secret derivation: one clamp and bit schedule for the whole
    /// batch, and one field inversion shared across it
    /// ([`x25519::x25519_batch`]).
    ///
    /// Returns one result per envelope, in input order, each **exactly**
    /// what [`SealedBox::open`] would have returned for that envelope —
    /// including every failure mode, mid-batch. A malformed or tampered
    /// envelope affects only its own slot.
    pub fn open_batch<T: AsRef<[u8]>>(
        sealed: &[T],
        recipient: &KeyPair,
    ) -> Vec<Result<Vec<u8>, CryptoError>> {
        // Undersized envelopes are rejected up front; only well-formed
        // ones enter the batched ladder.
        let mut results: Vec<Option<Result<Vec<u8>, CryptoError>>> = sealed
            .iter()
            .map(|s| {
                let s = s.as_ref();
                (s.len() < OVERHEAD).then_some(Err(CryptoError::BadLength {
                    expected: "at least 64 bytes",
                    actual: s.len(),
                }))
            })
            .collect();
        let eph_pubs: Vec<[u8; 32]> = sealed
            .iter()
            .zip(&results)
            .filter(|(_, slot)| slot.is_none())
            .map(|(s, _)| s.as_ref()[..32].try_into().expect("length checked"))
            .collect();
        let shareds = x25519::x25519_batch(recipient.secret().as_bytes(), &eph_pubs);
        let mut shareds = shareds.into_iter();
        for (slot, s) in results.iter_mut().zip(sealed) {
            if slot.is_none() {
                let shared = shareds.next().expect("one shared secret per envelope");
                *slot = Some(Self::open_with_shared(s.as_ref(), &shared, recipient));
            }
        }
        results
            .into_iter()
            .map(|slot| slot.expect("every envelope resolved"))
            .collect()
    }

    /// The tail of [`SealedBox::open`] after the scalar multiplication:
    /// contributory check, key derivation, tag verification, decryption.
    /// `sealed` is already length-checked.
    fn open_with_shared(
        sealed: &[u8],
        shared: &[u8; 32],
        recipient: &KeyPair,
    ) -> Result<Vec<u8>, CryptoError> {
        if *shared == [0u8; 32] {
            return Err(CryptoError::LowOrderPoint);
        }
        let eph_pub: [u8; 32] = sealed[..32].try_into().expect("length checked");
        let tag: [u8; 32] = sealed[32..64].try_into().expect("length checked");
        let ciphertext = &sealed[64..];

        let keys = Self::derive(shared, &eph_pub, recipient.public().as_bytes());
        let expected_tag = HmacKey::new(&keys.mac_key).mac_parts(&[&eph_pub, ciphertext]);
        if !crate::ct_eq(&expected_tag, &tag) {
            return Err(CryptoError::AuthenticationFailed);
        }

        let mut plaintext = ciphertext.to_vec();
        chacha20::xor_keystream(&keys.cipher_key, &keys.nonce, 0, &mut plaintext);
        Ok(plaintext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn recipient() -> (KeyPair, StdRng) {
        let mut rng = StdRng::seed_from_u64(99);
        let kp = KeyPair::generate(&mut rng);
        (kp, rng)
    }

    #[test]
    fn round_trip() {
        let (kp, mut rng) = recipient();
        for len in [0usize, 1, 31, 32, 33, 1000, 10_000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 7 % 256) as u8).collect();
            let sealed = SealedBox::seal(&msg, kp.public(), &mut rng).unwrap();
            assert_eq!(sealed.len(), msg.len() + OVERHEAD);
            let opened = SealedBox::open(&sealed, &kp).unwrap();
            assert_eq!(opened, msg, "len {len}");
        }
    }

    #[test]
    fn tampering_is_detected() {
        let (kp, mut rng) = recipient();
        let sealed = SealedBox::seal(b"secret update", kp.public(), &mut rng).unwrap();
        for i in 0..sealed.len() {
            let mut bad = sealed.clone();
            bad[i] ^= 0x01;
            assert_eq!(
                SealedBox::open(&bad, &kp),
                Err(CryptoError::AuthenticationFailed),
                "flip at byte {i} was not detected"
            );
        }
    }

    #[test]
    fn truncation_is_rejected() {
        let (kp, mut rng) = recipient();
        let sealed = SealedBox::seal(b"msg", kp.public(), &mut rng).unwrap();
        assert!(matches!(
            SealedBox::open(&sealed[..10], &kp),
            Err(CryptoError::BadLength { .. })
        ));
        // Truncating ciphertext (but keeping the header) must fail auth.
        assert_eq!(
            SealedBox::open(&sealed[..sealed.len() - 1], &kp),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn wrong_recipient_cannot_open() {
        let (kp, mut rng) = recipient();
        let other = KeyPair::generate(&mut rng);
        let sealed = SealedBox::seal(b"for the enclave only", kp.public(), &mut rng).unwrap();
        assert_eq!(
            SealedBox::open(&sealed, &other),
            Err(CryptoError::AuthenticationFailed)
        );
    }

    #[test]
    fn sealing_is_randomized() {
        let (kp, mut rng) = recipient();
        let a = SealedBox::seal(b"same message", kp.public(), &mut rng).unwrap();
        let b = SealedBox::seal(b"same message", kp.public(), &mut rng).unwrap();
        assert_ne!(a, b, "ephemeral keys must differ");
    }

    #[test]
    fn sealing_to_low_order_recipient_is_rejected() {
        // u = 0 and u = 1 are low-order points on the Montgomery u-line:
        // any clamped scalar (a multiple of 8) collapses them to the
        // all-zero shared secret. RFC 7748 §6.1 contributory behavior.
        let mut rng = StdRng::seed_from_u64(5);
        for low_order in [[0u8; 32], {
            let mut u = [0u8; 32];
            u[0] = 1;
            u
        }] {
            let bad = PublicKey::from_bytes(low_order);
            assert_eq!(
                SealedBox::seal(b"update", &bad, &mut rng),
                Err(CryptoError::LowOrderPoint)
            );
        }
    }

    #[test]
    fn opening_low_order_ephemeral_is_rejected() {
        let (kp, _) = recipient();
        for low_order in [[0u8; 32], {
            let mut u = [0u8; 32];
            u[0] = 1;
            u
        }] {
            // Forge an envelope whose ephemeral point is low-order. Before
            // the contributory check this would derive keys from the
            // all-zero shared secret; now it must fail closed.
            let mut forged = vec![0u8; OVERHEAD + 16];
            forged[..32].copy_from_slice(&low_order);
            assert_eq!(
                SealedBox::open(&forged, &kp),
                Err(CryptoError::LowOrderPoint)
            );
            assert_eq!(
                SealedBox::open_batch(&[forged], &kp),
                vec![Err(CryptoError::LowOrderPoint)]
            );
        }
    }

    #[test]
    fn open_batch_matches_per_envelope_open() {
        let (kp, mut rng) = recipient();
        let mut batch: Vec<Vec<u8>> = (0..5u8)
            .map(|i| {
                SealedBox::seal(&vec![i; 10 * usize::from(i) + 1], kp.public(), &mut rng).unwrap()
            })
            .collect();
        // Mix in every failure mode mid-batch: tampering, truncation
        // below the header, and a low-order ephemeral point.
        batch[1][40] ^= 0x80;
        batch[2].truncate(63);
        for b in &mut batch[3][..32] {
            *b = 0;
        }
        let batched = SealedBox::open_batch(&batch, &kp);
        assert_eq!(batched.len(), batch.len());
        for (envelope, result) in batch.iter().zip(&batched) {
            assert_eq!(*result, SealedBox::open(envelope, &kp));
        }
        assert!(batched[0].is_ok());
        assert_eq!(batched[1], Err(CryptoError::AuthenticationFailed));
        assert!(matches!(batched[2], Err(CryptoError::BadLength { .. })));
        assert_eq!(batched[3], Err(CryptoError::LowOrderPoint));
        assert!(batched[4].is_ok());
        assert!(SealedBox::open_batch::<Vec<u8>>(&[], &kp).is_empty());
    }

    /// The sealing loop as it was before the two-phase split — scalar
    /// X25519 per ladder, `Vec`-returning HKDF, copy-then-append tail —
    /// kept as the definition the batched path must reproduce bit for bit.
    fn seal_reference(plaintext: &[u8], recipient: &PublicKey, rng: &mut StdRng) -> Vec<u8> {
        use crate::hmac::hkdf_expand_keyed;
        let eph = KeyPair::generate(rng);
        let eph_pub = eph.public().as_bytes();
        let shared = x25519::x25519(eph.secret().as_bytes(), recipient.as_bytes());
        assert_ne!(shared, [0u8; 32], "reference is for well-formed recipients");
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(eph_pub);
        salt[32..].copy_from_slice(recipient.as_bytes());
        let prk_key = HmacKey::new(&hkdf_extract(&salt, &shared));
        let key: [u8; 32] = hkdf_expand_keyed(&prk_key, INFO_KEY, 32)
            .try_into()
            .unwrap();
        let nonce: [u8; 12] = hkdf_expand_keyed(&prk_key, INFO_NONCE, 12)
            .try_into()
            .unwrap();
        let mac = hkdf_expand_keyed(&prk_key, INFO_MAC, 32);
        let mut ciphertext = plaintext.to_vec();
        chacha20::xor_keystream(&key, &nonce, 0, &mut ciphertext);
        let tag = HmacKey::new(&mac).mac_parts(&[eph_pub, &ciphertext]);
        [&eph_pub[..], &tag, &ciphertext].concat()
    }

    #[test]
    fn seal_matches_the_scalar_reference_and_its_rng_position() {
        let (kp, rng) = recipient();
        let (mut batched, mut reference) = (rng.clone(), rng);
        for len in [0usize, 1, 63, 64, 65, 255, 256, 257, 5000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            assert_eq!(
                SealedBox::seal(&msg, kp.public(), &mut batched).unwrap(),
                seal_reference(&msg, kp.public(), &mut reference),
                "len {len}"
            );
        }
        assert_eq!(batched.gen::<u64>(), reference.gen::<u64>());
    }

    #[test]
    fn prepare_matches_the_scalar_reference_at_every_lane_split_on_every_tier() {
        // 1..=17 envelopes → 2..=34 ladders: below MIN_POINTS, one padded
        // pass, full passes with scalar and padded tails. Recipients
        // cycle over three keys, as an onion's hops do.
        let mut rng = StdRng::seed_from_u64(1234);
        let hops: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        for tier in x25519::Tier::supported() {
            for n in 1..=17usize {
                let recipients: Vec<&PublicKey> = (0..n).map(|i| hops[i % 3].public()).collect();
                let (mut batched, mut reference) = (rng.clone(), rng.clone());
                let prepared =
                    SealedBox::prepare_on(tier, recipients.iter().copied(), &mut batched).unwrap();
                assert_eq!(prepared.len(), n);
                for (i, (p, r)) in prepared.into_iter().zip(&recipients).enumerate() {
                    let msg = vec![i as u8; 7 * i];
                    assert_eq!(
                        p.seal(&msg),
                        seal_reference(&msg, r, &mut reference),
                        "{tier:?}, envelope {i} of {n}"
                    );
                }
                assert_eq!(
                    batched.gen::<u64>(),
                    reference.gen::<u64>(),
                    "{tier:?}, rng position after {n} envelopes"
                );
            }
        }
    }

    #[test]
    fn nested_in_place_sealing_matches_sealing_the_sealed() {
        let mut rng = StdRng::seed_from_u64(77);
        let hops: Vec<KeyPair> = (0..3).map(|_| KeyPair::generate(&mut rng)).collect();
        let plain = b"innermost layer plaintext".to_vec();
        let (mut batched, mut reference) = (rng.clone(), rng);
        // Innermost envelope first, as the draws go.
        let route: Vec<&PublicKey> = hops.iter().rev().map(KeyPair::public).collect();
        let mut nested = vec![0u8; route.len() * OVERHEAD];
        nested.extend_from_slice(&plain);
        let prepared = SealedBox::prepare(route.iter().copied(), &mut batched).unwrap();
        for (depth, p) in prepared.into_iter().enumerate() {
            let start = (route.len() - 1 - depth) * OVERHEAD;
            p.seal_in_place(&mut nested[start..]);
        }
        let mut expected = plain.clone();
        for key in &route {
            expected = seal_reference(&expected, key, &mut reference);
        }
        assert_eq!(nested, expected);
        let mut opened = nested;
        for kp in &hops {
            opened = SealedBox::open(&opened, kp).unwrap();
        }
        assert_eq!(opened, plain);
    }

    #[test]
    fn prepare_rejects_a_low_order_recipient_anywhere_in_the_batch() {
        let mut rng = StdRng::seed_from_u64(5);
        let good = *KeyPair::generate(&mut rng).public();
        let mut one = [0u8; 32];
        one[0] = 1;
        let bad = PublicKey::from_bytes(one);
        for tier in x25519::Tier::supported() {
            for position in 0..6 {
                let mut recipients = [good; 6];
                recipients[position] = bad;
                let err = SealedBox::prepare_on(tier, &recipients, &mut rng).unwrap_err();
                assert_eq!(err, CryptoError::LowOrderPoint, "{tier:?}, slot {position}");
            }
            assert!(SealedBox::prepare_on(tier, &[], &mut rng)
                .unwrap()
                .is_empty());
        }
    }

    #[test]
    fn prepared_seal_debug_is_redacted() {
        let (kp, mut rng) = recipient();
        let prepared = SealedBox::prepare([kp.public()], &mut rng).unwrap();
        assert_eq!(format!("{:?}", prepared[0]), "PreparedSeal(redacted)");
    }

    #[test]
    #[should_panic(expected = "no room for the envelope header")]
    fn seal_in_place_needs_header_room() {
        let (kp, mut rng) = recipient();
        let prepared = SealedBox::prepare([kp.public()], &mut rng).unwrap();
        prepared
            .into_iter()
            .next()
            .unwrap()
            .seal_in_place(&mut [0u8; OVERHEAD - 1]);
    }

    #[test]
    fn secret_key_debug_is_redacted() {
        let (kp, _) = recipient();
        let s = format!("{:?}", kp.secret());
        assert!(s.contains("redacted"));
        assert!(
            !s.contains(&format!("{:?}", kp.secret().as_bytes())),
            "Debug output must not render the key bytes"
        );
    }

    #[test]
    fn keypair_public_matches_secret() {
        let (kp, _) = recipient();
        let expected = crate::x25519::public_key(kp.secret().as_bytes());
        assert_eq!(kp.public().as_bytes(), &expected);
    }
}
