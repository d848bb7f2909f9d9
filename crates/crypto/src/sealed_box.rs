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
//!    expanded into a ChaCha20 key and a nonce;
//! 4. the RFC 8439 §2.8 AEAD under that key and nonce, with
//!    `AAD = eph_pub`: the one-time Poly1305 key is the first 32 bytes of
//!    keystream block 0, ciphertext = plaintext XOR the keystream from
//!    block 1, tag = Poly1305 over `eph_pub ‖ ciphertext ‖ pad16 ‖
//!    le64(32) ‖ le64(len)`.
//!
//! Wire layout: `eph_pub (32) ‖ tag (16) ‖ ciphertext`. That is the one
//! envelope format: there is no version byte, and anything else —
//! an envelope of the retired encrypt-then-HMAC format included — fails
//! the tag check like any other forgery.
//!
//! Four properties worth calling out:
//!
//! * **The one-time key is one-time**: Poly1305 gives its key away to
//!   whoever sees two tags under it. Every envelope has its own ephemeral
//!   X25519 key, the HKDF salt binds it, and so ChaCha20 key, nonce and
//!   the Poly1305 key drawn from them never repeat — the RFC's nonce
//!   discipline holds with nothing for a sender to count. The tag covers
//!   `eph_pub` (as AAD), the ciphertext and both lengths; the recipient's
//!   key is bound through the HKDF salt.
//! * **Contributory behavior** (RFC 7748 §6.1): a low-order peer point
//!   makes the X25519 output all-zero, and every key above would be
//!   attacker-predictable. Sealing ([`SealedBox::prepare`], and so
//!   [`SealedBox::seal`]) and opening ([`SealedBox::open`]) both reject
//!   the all-zero shared secret with [`CryptoError::LowOrderPoint`].
//! * **Two-phase sealing**: steps 1–2 do not depend on the plaintext, so
//!   [`SealedBox::prepare`] runs them for *many* envelopes of one sender
//!   at once — every ephemeral secret drawn from the caller's RNG in
//!   envelope order, then all `2·n` scalar multiplications through the
//!   batched X25519 driver with one shared field inversion. Both bases
//!   of a seal are ones the sender reuses, so both multiplications take
//!   the fixed-base comb ([`x25519`]'s two algorithms): `k·G` over the
//!   base point's table, `k·H` over the table of the recipient's
//!   [`SealingKey`] — made once, where the key is attested. A bare
//!   [`PublicKey`] has no table, and its `k·H` takes the ladder. On
//!   AVX-512 IFMA hosts the driver runs eight combs on one table per
//!   pass. Each [`PreparedSeal`] then runs steps 3–4 over its
//!   plaintext, in place in the output buffer. [`SealedBox::seal`] is
//!   the batch of one to a bare key; bytes and RNG position are
//!   identical however envelopes are grouped and whichever algorithm
//!   computed them. Every envelope still has its **own** ephemeral key:
//!   equal `eph_pub`s would link the envelopes that carry them.
//! * **Two-phase, in-place opening**: the recipient's scalar
//!   multiplication does not depend on the ciphertext either, so
//!   [`SealedBox::prepare_open`] runs it for many envelopes addressed to
//!   one recipient in shared ladder passes — every ephemeral point is a
//!   variable base, seen once — with one shared field inversion (the
//!   batched driver again). Each [`PreparedOpen`] then
//!   verifies the tag over the ciphertext and decrypts it **where it
//!   lies** ([`PreparedOpen::open_in_place`]): a buffer that fails any
//!   check is left byte-for-byte untouched, and one that passes holds the
//!   plaintext at `sealed[OVERHEAD..]` without a second buffer ever
//!   existing. That is the one verify-and-decrypt implementation;
//!   [`SealedBox::open`] and [`SealedBox::open_batch`] run the same
//!   verification on a borrowed envelope, then copy the ciphertext out
//!   and decrypt the copy in place, so every way of opening returns the
//!   same bytes and the same error — and none allocates for an envelope
//!   that fails.

use crate::chacha20::ChaCha20;
use crate::cpu::Tier;
use crate::hmac::{hkdf_expand_into, hkdf_extract, HmacKey};
use crate::poly1305;
use crate::x25519;
use crate::x25519::Base;
use crate::CryptoError;
use rand::Rng;
use std::fmt;
use std::sync::Arc;

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

/// A recipient key made ready for sealing: the [`PublicKey`] and its
/// fixed-base comb table ([`x25519::FixedBase`]), shared by every clone.
///
/// Made once where a key becomes trusted — a participant verifying an
/// enclave's quote, a coordinator launching its hops — never per
/// envelope: the table costs ≈ 0.17 ms and 30 KiB, and every shared secret
/// sealed to the key then takes the comb instead of the ladder. A key
/// with no edwards25519 image (a point on the twist) has no table and
/// seals through the ladder, to the same bytes. The table is public data
/// derived from the public key.
#[derive(Clone)]
pub struct SealingKey {
    public: PublicKey,
    table: Option<Arc<x25519::FixedBase>>,
}

impl SealingKey {
    /// Builds the key's table.
    pub fn new(public: PublicKey) -> Self {
        SealingKey {
            public,
            table: x25519::FixedBase::new(&public.0).map(Arc::new),
        }
    }
}

impl fmt::Debug for SealingKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SealingKey")
            .field("public", &self.public)
            .field("table", &self.table.is_some())
            .finish()
    }
}

/// Equal keys have equal tables: a table is a function of its key.
impl PartialEq for SealingKey {
    fn eq(&self, other: &Self) -> bool {
        self.public == other.public
    }
}

impl Eq for SealingKey {}

mod private {
    /// Keeps [`super::Recipient`] to the crate's two key types.
    pub trait Sealed {}
    impl Sealed for super::PublicKey {}
    impl Sealed for super::SealingKey {}
}

/// What [`SealedBox::prepare`] addresses envelopes to. The kind of key
/// picks the algorithm for the shared secret: a [`SealingKey`] the comb
/// over its table, a bare [`PublicKey`] the ladder. The bytes are the
/// same.
pub trait Recipient: private::Sealed {
    /// The key envelopes are addressed to.
    fn public_key(&self) -> &PublicKey;

    /// The key's comb table, if it has one.
    fn table(&self) -> Option<&x25519::FixedBase>;
}

impl Recipient for PublicKey {
    fn public_key(&self) -> &PublicKey {
        self
    }

    fn table(&self) -> Option<&x25519::FixedBase> {
        None
    }
}

impl Recipient for SealingKey {
    fn public_key(&self) -> &PublicKey {
        &self.public
    }

    fn table(&self) -> Option<&x25519::FixedBase> {
        self.table.as_deref()
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

/// The header size, once, as a literal both [`OVERHEAD`] and the
/// [`CryptoError::BadLength`] text are made from.
macro_rules! overhead {
    () => {
        48
    };
}

/// Byte overhead of a sealed box over its plaintext: the ephemeral public
/// key and the Poly1305 tag.
pub const OVERHEAD: usize = overhead!();
const _: () = assert!(OVERHEAD == x25519::KEY_LEN + poly1305::TAG_LEN);

const INFO_KEY: &[u8] = b"mixnn sealed box v2 key";
const INFO_NONCE: &[u8] = b"mixnn sealed box v2 nonce";

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

/// One envelope's AEAD state: the one-time Poly1305 key (keystream block
/// 0) and the cipher left at block 1, where the payload's keystream
/// starts.
struct Aead {
    one_time_key: [u8; poly1305::KEY_LEN],
    payload: ChaCha20,
}

impl Aead {
    /// The tag over `eph_pub ‖ ciphertext` and their lengths.
    fn tag(&self, eph_pub: &[u8; 32], ciphertext: &[u8]) -> [u8; poly1305::TAG_LEN] {
        poly1305::aead_tag(&self.one_time_key, eph_pub, ciphertext)
    }

    /// XORs the payload keystream into `body` — encryption and decryption
    /// alike, always where the bytes lie.
    fn crypt(&mut self, body: &mut [u8]) {
        self.payload.apply_keystream(body);
    }
}

/// One envelope's content-independent half: a fresh ephemeral public key
/// and the (contributory-checked) shared secret with its recipient, ready
/// to seal exactly one plaintext. Made by [`SealedBox::prepare`].
///
/// Sealing consumes the value — a second plaintext under the same
/// ephemeral key would reuse the ChaCha20 keystream and the one-time
/// Poly1305 key. The `Debug` impl redacts the secret.
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
        let mut aead = SealedBox::derive(&self.shared, &self.eph_pub, &self.recipient);
        let (header, ciphertext) = envelope.split_at_mut(OVERHEAD);
        aead.crypt(ciphertext);
        let tag = aead.tag(&self.eph_pub, ciphertext);
        header[..32].copy_from_slice(&self.eph_pub);
        header[32..].copy_from_slice(&tag);
    }
}

/// One envelope's recipient-side, content-independent half: the
/// (contributory-checked) shared secret between the recipient's key and
/// the envelope's ephemeral point, ready to open exactly that envelope.
/// Made by [`SealedBox::prepare_open`].
///
/// Opening consumes the value. Handing it a different envelope is safe —
/// the keys derived for the wrong ephemeral point fail the tag check.
/// The `Debug` impl redacts the secret.
pub struct PreparedOpen {
    shared: [u8; 32],
    recipient: [u8; 32],
}

impl fmt::Debug for PreparedOpen {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PreparedOpen(redacted)")
    }
}

impl PreparedOpen {
    /// The contributory-behavior check every way of opening goes through.
    fn checked(shared: [u8; 32], recipient: &KeyPair) -> Result<Self, CryptoError> {
        if shared == [0u8; 32] {
            return Err(CryptoError::LowOrderPoint);
        }
        Ok(PreparedOpen {
            shared,
            recipient: recipient.public().0,
        })
    }

    /// Opens in place: on entry `sealed` is the whole envelope
    /// `eph_pub ‖ tag ‖ ciphertext`; on success `sealed[OVERHEAD..]` holds
    /// the plaintext (the header bytes are left as they were). The tag is
    /// verified over the ciphertext before a byte of it is decrypted, so
    /// on any error `sealed` is untouched.
    ///
    /// # Errors
    ///
    /// [`CryptoError::BadLength`] if `sealed` is shorter than the header,
    /// [`CryptoError::AuthenticationFailed`] if the tag does not verify.
    pub fn open_in_place(self, sealed: &mut [u8]) -> Result<(), CryptoError> {
        self.verify(sealed)?.crypt(&mut sealed[OVERHEAD..]);
        Ok(())
    }

    /// Opens a borrowed envelope into a fresh plaintext buffer: verifies
    /// it where it lies, then copies the ciphertext out and decrypts the
    /// copy in place. Nothing is allocated for an envelope that fails.
    ///
    /// # Errors
    ///
    /// As [`PreparedOpen::open_in_place`].
    pub fn open(self, sealed: &[u8]) -> Result<Vec<u8>, CryptoError> {
        let mut aead = self.verify(sealed)?;
        let mut plaintext = sealed[OVERHEAD..].to_vec();
        aead.crypt(&mut plaintext);
        Ok(plaintext)
    }

    /// The one verification every way of opening goes through: length,
    /// key derivation, tag over `eph_pub ‖ ciphertext`. Returns the
    /// cipher the (now authenticated) ciphertext decrypts under.
    fn verify(self, sealed: &[u8]) -> Result<Aead, CryptoError> {
        plaintext_len(sealed.len())?;
        let (header, ciphertext) = sealed.split_at(OVERHEAD);
        let eph_pub: [u8; 32] = header[..32].try_into().expect("length checked");
        let aead = SealedBox::derive(&self.shared, &eph_pub, &self.recipient);
        if !crate::ct_eq(&aead.tag(&eph_pub, ciphertext), &header[32..]) {
            return Err(CryptoError::AuthenticationFailed);
        }
        Ok(aead)
    }
}

/// The plaintext length a sealed box of `sealed_len` bytes carries.
///
/// # Errors
///
/// [`CryptoError::BadLength`] if `sealed_len` cannot even hold the
/// header — the check every way of opening makes first, exposed so that
/// a caller accounting for the plaintext before opening (the enclave's
/// EPC charge) rejects such a blob with the same error.
pub fn plaintext_len(sealed_len: usize) -> Result<usize, CryptoError> {
    sealed_len
        .checked_sub(OVERHEAD)
        .ok_or(CryptoError::BadLength {
            expected: concat!("at least ", overhead!(), " bytes"),
            actual: sealed_len,
        })
}

impl SealedBox {
    fn derive(shared: &[u8; 32], eph_pub: &[u8; 32], recipient_pub: &[u8; 32]) -> Aead {
        let mut salt = [0u8; 64];
        salt[..32].copy_from_slice(eph_pub);
        salt[32..].copy_from_slice(recipient_pub);
        // One HKDF-Extract, two expands under a shared PRK schedule,
        // straight into the fixed-size key and nonce.
        let prk = hkdf_extract(&salt, shared);
        let prk_key = HmacKey::new(&prk);
        let (mut key, mut nonce) = ([0u8; 32], [0u8; 12]);
        hkdf_expand_into(&prk_key, INFO_KEY, &mut key);
        hkdf_expand_into(&prk_key, INFO_NONCE, &mut nonce);
        // Keystream block 0 yields the one-time key (its other half is
        // discarded) and leaves the cipher at block 1.
        let mut payload = ChaCha20::new(&key, &nonce, 0);
        let mut block0 = [0u8; 64];
        payload.apply_keystream(&mut block0);
        let one_time_key = block0[..32].try_into().expect("32 of 64 bytes");
        Aead {
            one_time_key,
            payload,
        }
    }

    /// Encrypts `plaintext` to `recipient`, drawing ephemeral key material
    /// from `rng`. The output is `OVERHEAD` bytes longer than the input.
    /// This is [`SealedBox::prepare`] for one envelope followed by
    /// [`PreparedSeal::seal`]: the ephemeral key through the base point's
    /// comb, the shared secret — `recipient` being a bare key, with no
    /// table — through the ladder. A sender that reuses the key seals to
    /// its [`SealingKey`] through [`SealedBox::prepare`] instead.
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
    /// public key (the base point's comb) and shared secret (the
    /// recipient's comb, or the ladder for a bare [`PublicKey`]) through
    /// the batched X25519 driver. Returns one [`PreparedSeal`] per
    /// recipient, in order.
    ///
    /// Batch only what a single sender seals: the multiplications of one
    /// batch run in one process. Every envelope gets its own ephemeral key.
    ///
    /// # Errors
    ///
    /// Returns [`CryptoError::LowOrderPoint`] if any recipient is a
    /// low-order point, as [`SealedBox::seal`] does. How far `rng` has
    /// advanced is then unspecified (the batch draws every secret before
    /// it checks any).
    pub fn prepare<'a, I, K, R>(
        recipients: I,
        rng: &mut R,
    ) -> Result<Vec<PreparedSeal>, CryptoError>
    where
        I: IntoIterator<Item = &'a K>,
        K: Recipient + ?Sized + 'a,
        R: Rng + ?Sized,
    {
        Self::prepare_on(Tier::best(), recipients, rng)
    }

    fn prepare_on<'a, I, K, R>(
        tier: Tier,
        recipients: I,
        rng: &mut R,
    ) -> Result<Vec<PreparedSeal>, CryptoError>
    where
        I: IntoIterator<Item = &'a K>,
        K: Recipient + ?Sized + 'a,
        R: Rng + ?Sized,
    {
        let pending: Vec<([u8; 32], &K)> = recipients
            .into_iter()
            .map(|recipient| {
                let mut secret = [0u8; 32];
                rng.fill(&mut secret);
                (secret, recipient)
            })
            .collect();
        // Two multiplications per envelope under its own secret: `k·G`
        // through the base point's table, then `k·H`.
        let base = Base::Table(x25519::FixedBase::basepoint());
        let jobs = pending.iter().flat_map(|&(k, recipient)| {
            let shared = match recipient.table() {
                Some(table) => Base::Table(table),
                None => Base::Point(recipient.public_key().0),
            };
            [(k, base), (k, shared)]
        });
        let mut prepared: Vec<PreparedSeal> = Vec::with_capacity(pending.len());
        let mut eph_pub = [0u8; 32];
        x25519::scalarmult_each(tier, jobs, |job, u| {
            if job % 2 == 0 {
                eph_pub = u;
            } else {
                prepared.push(PreparedSeal {
                    eph_pub,
                    shared: u,
                    recipient: pending[job / 2].1.public_key().0,
                });
            }
        });
        if prepared.iter().any(|p| p.shared == [0u8; 32]) {
            return Err(CryptoError::LowOrderPoint);
        }
        Ok(prepared)
    }

    /// The content-independent phase of opening, for a batch of envelopes
    /// addressed to `recipient`: derives every shared secret through the
    /// batched X25519 driver — every ephemeral point is a variable base,
    /// so the ladder: shared ladder passes, one field inversion. Returns
    /// one result per envelope, in input order.
    ///
    /// An envelope shorter than the header is
    /// [`CryptoError::BadLength`] and never enters the ladder; one whose
    /// ephemeral point is low-order is [`CryptoError::LowOrderPoint`].
    /// Either affects only its own slot.
    pub fn prepare_open<T: AsRef<[u8]>>(
        sealed: &[T],
        recipient: &KeyPair,
    ) -> Vec<Result<PreparedOpen, CryptoError>> {
        let secret = recipient.secret().as_bytes();
        let jobs = sealed
            .iter()
            .map(AsRef::as_ref)
            .filter(|s| s.len() >= OVERHEAD)
            .map(|s| Base::Point(s[..32].try_into().expect("length checked")))
            .map(|eph_pub| (*secret, eph_pub));
        let mut shareds = Vec::with_capacity(sealed.len());
        x25519::scalarmult_each(Tier::best(), jobs, |_, shared| shareds.push(shared));
        let mut shareds = shareds.into_iter();
        sealed
            .iter()
            .map(|s| {
                plaintext_len(s.as_ref().len())?;
                let shared = shareds.next().expect("one ladder per well-formed envelope");
                PreparedOpen::checked(shared, recipient)
            })
            .collect()
    }

    /// [`SealedBox::prepare_open`] for one envelope, without the batch's
    /// bookkeeping.
    fn prepare_open_one(sealed: &[u8], recipient: &KeyPair) -> Result<PreparedOpen, CryptoError> {
        plaintext_len(sealed.len())?;
        let eph_pub: [u8; 32] = sealed[..32].try_into().expect("length checked");
        let shared = x25519::x25519(recipient.secret().as_bytes(), &eph_pub);
        PreparedOpen::checked(shared, recipient)
    }

    /// Decrypts a sealed box with the recipient's key pair, in place: on
    /// success the plaintext is `sealed[OVERHEAD..]`; on any error
    /// `sealed` is untouched ([`PreparedOpen::open_in_place`]).
    ///
    /// # Errors
    ///
    /// Exactly those of [`SealedBox::open`].
    pub fn open_in_place(sealed: &mut [u8], recipient: &KeyPair) -> Result<(), CryptoError> {
        Self::prepare_open_one(sealed, recipient)?.open_in_place(sealed)
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
        Self::prepare_open_one(sealed, recipient)?.open(sealed)
    }

    /// Opens a batch of envelopes addressed to `recipient`, amortizing the
    /// shared-secret derivation ([`SealedBox::prepare_open`]).
    ///
    /// Returns one result per envelope, in input order, each **exactly**
    /// what [`SealedBox::open`] would have returned for that envelope —
    /// including every failure mode, mid-batch. A malformed or tampered
    /// envelope affects only its own slot.
    pub fn open_batch<T: AsRef<[u8]>>(
        sealed: &[T],
        recipient: &KeyPair,
    ) -> Vec<Result<Vec<u8>, CryptoError>> {
        Self::prepare_open(sealed, recipient)
            .into_iter()
            .zip(sealed)
            .map(|(prepared, s)| prepared?.open(s.as_ref()))
            .collect()
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

    /// An envelope of the retired format (encrypt-then-HMAC-SHA256, 64-byte
    /// header), sealed by the last commit that wrote it for
    /// [`recipient`]'s key and RNG. It is not parsed, negotiated or
    /// recognised: it is a forgery, on every door.
    #[test]
    fn a_v1_hmac_envelope_is_an_authentication_failure() {
        let v1: Vec<u8> = "dd27a625f15ab8e9eb55b514e702b592a9dd5d18f95272a4b69e18306d6ccf2d\
                           d0b0e56a4ec5d79f9e177f7ee73bc590bbbb8a337c7001103138b7bd12de2c42\
                           950bf29c8682c11b76723c0c4ee4d610cdef717c1691213377c87ffdd6d5fcb1"
            .as_bytes()
            .chunks(2)
            .map(|pair| u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap())
            .collect();
        assert_eq!(v1.len(), 64 + 32);
        let (kp, mut rng) = recipient();
        assert_eq!(
            SealedBox::open(&v1, &kp),
            Err(CryptoError::AuthenticationFailed)
        );
        let mut buffer = v1.clone();
        assert_eq!(
            SealedBox::open_in_place(&mut buffer, &kp),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(buffer, v1, "a failed open touched the buffer");
        let good = |rng: &mut StdRng| SealedBox::seal(b"current", kp.public(), rng).unwrap();
        let batch = [good(&mut rng), v1, good(&mut rng)];
        let opened = SealedBox::open_batch(&batch, &kp);
        assert_eq!(opened[0].as_deref(), Ok(&b"current"[..]));
        assert_eq!(opened[1], Err(CryptoError::AuthenticationFailed));
        assert_eq!(opened[2].as_deref(), Ok(&b"current"[..]));
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
            assert_eq!(
                SealedBox::prepare([&SealingKey::new(bad)], &mut rng).unwrap_err(),
                CryptoError::LowOrderPoint
            );
        }
    }

    #[test]
    fn a_key_without_a_table_seals_through_the_ladder_to_the_same_bytes() {
        // u = 2 is on the twist and u = p − 1 ≡ −1 has no Edwards image:
        // neither gets a table, and sealing to its `SealingKey` is sealing
        // to the bare key — same bytes, same error, same RNG position.
        let mut two = [0u8; 32];
        two[0] = 2;
        let mut minus_one = [0xffu8; 32];
        minus_one[0] = 0xec;
        minus_one[31] = 0x7f;
        let rng = StdRng::seed_from_u64(6);
        for u in [two, minus_one] {
            let key = PublicKey::from_bytes(u);
            let sealing = SealingKey::new(key);
            assert!(sealing.table().is_none(), "{u:02x?}");
            let (mut a, mut b) = (rng.clone(), rng.clone());
            let prepared = SealedBox::prepare([&sealing], &mut a).map(|mut p| p.remove(0));
            assert_eq!(
                prepared.map(|p| p.seal(b"update")),
                SealedBox::seal(b"update", &key, &mut b)
            );
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
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
        batch[2].truncate(OVERHEAD - 1);
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

    /// The construction written out from the module docs and RFC 8439
    /// §2.8 — both X25519 multiplications on the scalar ladder,
    /// `Vec`-returning HKDF, keystream block 0 and the payload keyed
    /// apart, `mac_data` materialised and MACed in one shot on the scalar
    /// tier — kept as the definition the batched, in-place path (combs
    /// included) must reproduce bit for bit.
    fn seal_reference(plaintext: &[u8], recipient: &PublicKey, rng: &mut StdRng) -> Vec<u8> {
        use crate::chacha20::xor_keystream;
        use crate::hmac::hkdf_expand_keyed;
        let mut secret = [0u8; 32];
        rng.fill(&mut secret);
        let eph_pub = &x25519::x25519(&secret, &x25519::BASEPOINT);
        let shared = x25519::x25519(&secret, recipient.as_bytes());
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
        let mut block0 = [0u8; 64];
        xor_keystream(&key, &nonce, 0, &mut block0);
        let one_time_key: [u8; 32] = block0[..32].try_into().unwrap();
        let mut ciphertext = plaintext.to_vec();
        xor_keystream(&key, &nonce, 1, &mut ciphertext);
        let mut mac_data = eph_pub.to_vec();
        mac_data.extend_from_slice(&ciphertext);
        mac_data.resize(mac_data.len().next_multiple_of(16), 0);
        mac_data.extend_from_slice(&32u64.to_le_bytes());
        mac_data.extend_from_slice(&(ciphertext.len() as u64).to_le_bytes());
        let tag = poly1305::poly1305_on(Tier::Scalar, &one_time_key, &mac_data);
        [&eph_pub[..], &tag, &ciphertext].concat()
    }

    #[test]
    fn seal_matches_the_scalar_reference_and_its_rng_position() {
        // To a `SealingKey` (two combs) and to the bare key (a comb and
        // the ladder), alternately on one RNG.
        let (kp, rng) = recipient();
        let sealing = SealingKey::new(*kp.public());
        let (mut batched, mut reference) = (rng.clone(), rng);
        for len in [0usize, 1, 63, 64, 65, 255, 256, 257, 5000] {
            let msg: Vec<u8> = (0..len).map(|i| (i * 13 % 251) as u8).collect();
            let prepared = SealedBox::prepare([&sealing], &mut batched).unwrap();
            assert_eq!(
                prepared.into_iter().next().unwrap().seal(&msg),
                seal_reference(&msg, kp.public(), &mut reference),
                "len {len}, sealing key"
            );
            assert_eq!(
                SealedBox::seal(&msg, kp.public(), &mut batched).unwrap(),
                seal_reference(&msg, kp.public(), &mut reference),
                "len {len}, public key"
            );
        }
        assert_eq!(batched.gen::<u64>(), reference.gen::<u64>());
    }

    #[test]
    fn prepare_matches_the_scalar_reference_at_every_lane_split_on_every_tier() {
        // 1..=17 envelopes → 1..=17 jobs on the base table and up to six
        // on each key's: below MIN_COMBS, one padded pass, full passes
        // with scalar and padded tails. Recipients cycle over three keys,
        // as an onion's hops do.
        let mut rng = StdRng::seed_from_u64(1234);
        let hops: Vec<SealingKey> = (0..3)
            .map(|_| SealingKey::new(*KeyPair::generate(&mut rng).public()))
            .collect();
        for tier in Tier::runnable(x25519::TIERS) {
            for n in 1..=17usize {
                let recipients: Vec<&SealingKey> = (0..n).map(|i| &hops[i % 3]).collect();
                let (mut batched, mut reference) = (rng.clone(), rng.clone());
                let prepared =
                    SealedBox::prepare_on(tier, recipients.iter().copied(), &mut batched).unwrap();
                assert_eq!(prepared.len(), n);
                for (i, (p, r)) in prepared.into_iter().zip(&recipients).enumerate() {
                    let msg = vec![i as u8; 7 * i];
                    assert_eq!(
                        p.seal(&msg),
                        seal_reference(&msg, r.public_key(), &mut reference),
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
        let route: Vec<SealingKey> = hops
            .iter()
            .rev()
            .map(|kp| SealingKey::new(*kp.public()))
            .collect();
        let mut nested = vec![0u8; route.len() * OVERHEAD];
        nested.extend_from_slice(&plain);
        let prepared = SealedBox::prepare(&route, &mut batched).unwrap();
        for (depth, p) in prepared.into_iter().enumerate() {
            let start = (route.len() - 1 - depth) * OVERHEAD;
            p.seal_in_place(&mut nested[start..]);
        }
        let mut expected = plain.clone();
        for key in &route {
            expected = seal_reference(&expected, key.public_key(), &mut reference);
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
        // u = 1 lies on the curve, so its `SealingKey` has a table and the
        // all-zero secret comes out of the comb.
        let (good_key, bad_key) = (SealingKey::new(good), SealingKey::new(bad));
        for tier in Tier::runnable(x25519::TIERS) {
            for position in 0..6 {
                let mut recipients = [good; 6];
                recipients[position] = bad;
                let err = SealedBox::prepare_on(tier, &recipients, &mut rng).unwrap_err();
                assert_eq!(err, CryptoError::LowOrderPoint, "{tier:?}, slot {position}");
                let mut keys = vec![&good_key; 6];
                keys[position] = &bad_key;
                let err = SealedBox::prepare_on(tier, keys, &mut rng).unwrap_err();
                assert_eq!(
                    err,
                    CryptoError::LowOrderPoint,
                    "{tier:?}, key slot {position}"
                );
            }
            assert!(
                SealedBox::prepare_on(tier, Vec::<&SealingKey>::new(), &mut rng)
                    .unwrap()
                    .is_empty()
            );
        }
    }

    #[test]
    fn prepared_open_debug_is_redacted_and_a_foreign_envelope_fails_closed() {
        let (kp, mut rng) = recipient();
        let mine = SealedBox::seal(b"mine", kp.public(), &mut rng).unwrap();
        let other = SealedBox::seal(b"other", kp.public(), &mut rng).unwrap();
        let mut prepared = SealedBox::prepare_open(&[&mine], &kp);
        let prepared = prepared.pop().unwrap().unwrap();
        assert_eq!(format!("{prepared:?}"), "PreparedOpen(redacted)");
        // The secret belongs to `mine`'s ephemeral key: under it another
        // envelope's tag cannot verify, and its bytes stay as they were.
        let mut buffer = other.clone();
        assert_eq!(
            prepared.open_in_place(&mut buffer),
            Err(CryptoError::AuthenticationFailed)
        );
        assert_eq!(buffer, other);
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
