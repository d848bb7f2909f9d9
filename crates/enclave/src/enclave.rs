//! The enclave runtime object.

use crate::{AttestationService, EnclaveError, EpcBudget, Measurement, Quote};
use mixnn_crypto::{sealed_box, CryptoError, KeyPair, PreparedOpen, PublicKey, SealedBox};
use rand::Rng;

/// Configuration of a simulated enclave.
#[derive(Debug, Clone)]
pub struct EnclaveConfig {
    /// Canonical description of the code to be measured (MRENCLAVE input).
    pub code_identity: Vec<u8>,
    /// Usable EPC bytes. Defaults to the paper's 96 MiB.
    pub epc_limit: usize,
}

impl Default for EnclaveConfig {
    fn default() -> Self {
        EnclaveConfig {
            code_identity: b"mixnn proxy enclave v1".to_vec(),
            epc_limit: crate::memory::DEFAULT_USABLE_EPC,
        }
    }
}

/// A launched (simulated) SGX enclave: key pair, measurement and memory
/// budget.
///
/// The MixNN proxy runs inside one of these. Participants verify the
/// enclave's [`Quote`] (binding the code measurement to the enclave public
/// key) before encrypting their model updates to it.
///
/// # Example
///
/// ```
/// use mixnn_enclave::{AttestationService, Enclave, EnclaveConfig};
/// use mixnn_crypto::SealedBox;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_enclave::EnclaveError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let service = AttestationService::new(&mut rng);
/// let enclave = Enclave::launch(EnclaveConfig::default(), &service, &mut rng);
///
/// // A participant verifies the quote, then encrypts to the enclave.
/// let expected = Enclave::expected_measurement(&EnclaveConfig::default());
/// assert!(service.verify_quote(enclave.quote(), &expected));
/// let sealed = SealedBox::seal(b"update", enclave.public_key(), &mut rng)?;
/// assert_eq!(enclave.decrypt(&sealed)?, b"update");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Enclave {
    keypair: KeyPair,
    measurement: Measurement,
    quote: Quote,
    memory: EpcBudget,
}

impl Enclave {
    /// Launches an enclave: measures the code, generates the key pair and
    /// obtains a quote binding the public key to the measurement.
    pub fn launch<R: Rng + ?Sized>(
        config: EnclaveConfig,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Self {
        let measurement = Measurement::of_code(&config.code_identity);
        let keypair = KeyPair::generate(rng);
        // Bind the enclave's encryption key into the quote's report data so
        // a man in the middle cannot substitute its own key.
        let report_data = mixnn_crypto::sha256::digest(keypair.public().as_bytes());
        let quote = attestation.issue_quote(measurement, &report_data);
        Enclave {
            keypair,
            measurement,
            quote,
            memory: EpcBudget::strict(config.epc_limit),
        }
    }

    /// The measurement a verifier should expect for a given configuration.
    pub fn expected_measurement(config: &EnclaveConfig) -> Measurement {
        Measurement::of_code(&config.code_identity)
    }

    /// The enclave's public encryption key (`k_pub` in the paper).
    pub fn public_key(&self) -> &PublicKey {
        self.keypair.public()
    }

    /// The enclave's code measurement.
    pub fn measurement(&self) -> &Measurement {
        &self.measurement
    }

    /// The launch-time attestation quote (report data = SHA-256 of the
    /// public key).
    pub fn quote(&self) -> &Quote {
        &self.quote
    }

    /// Verifies that this enclave's quote binds its own public key — the
    /// check a participant performs before provisioning.
    pub fn quote_binds_key(&self) -> bool {
        self.quote.binds_key(self.keypair.public())
    }

    /// Memory accounting handle. The budget's counters are atomic, so this
    /// shared handle is all the proxy needs to charge and release EPC bytes.
    pub fn memory(&self) -> &EpcBudget {
        &self.memory
    }

    /// Decrypts a sealed box addressed to the enclave, charging the
    /// plaintext against the EPC budget for the duration of the call.
    ///
    /// # Errors
    ///
    /// Returns [`EnclaveError::Crypto`] with
    /// [`CryptoError::BadLength`] if the blob is shorter than the sealed-box
    /// overhead (rejected up front, before any EPC charge),
    /// [`EnclaveError::MemoryExhausted`] if the plaintext does not fit in
    /// the EPC (strict mode), or [`EnclaveError::Crypto`] if decryption
    /// fails.
    pub fn decrypt(&self, sealed: &[u8]) -> Result<Vec<u8>, EnclaveError> {
        // A blob too short to carry the sealed-box header is rejected
        // here: charged as a zero-byte allocation it would let garbage
        // bypass EPC accounting entirely.
        let plaintext_len = sealed_box::plaintext_len(sealed.len())?;
        self.memory.allocate(plaintext_len)?;
        let result = SealedBox::open(sealed, &self.keypair);
        // The transient decryption buffer is released either way.
        self.memory.free(plaintext_len)?;
        Ok(result?)
    }

    /// The pure half of batched ingestion: derives the shared secret of
    /// every sealed box in `sealed` together (shared X25519 ladder passes,
    /// one Montgomery-trick inversion — where the per-envelope decryption
    /// savings come from) **without** touching the EPC budget or any
    /// ciphertext. One result per input, in order.
    ///
    /// Open each envelope with its [`PreparedOpen`] — in place when the
    /// caller owns the buffer — and pair the outcome with
    /// [`Enclave::charge_opened`] to replay the exact EPC accounting
    /// [`Enclave::decrypt`] would have performed.
    pub fn prepare_open<T: AsRef<[u8]>>(
        &self,
        sealed: &[T],
    ) -> Vec<Result<PreparedOpen, CryptoError>> {
        SealedBox::prepare_open(sealed, &self.keypair)
    }

    /// Replays [`Enclave::decrypt`]'s EPC accounting for one envelope of
    /// `sealed_len` bytes whose cryptographic opening — into a fresh
    /// buffer (`T = Vec<u8>`) or in place (`T = ()`) — was performed
    /// through [`Enclave::prepare_open`].
    ///
    /// For every blob `s`,
    /// `decrypt(s) == charge_opened(s.len(), SealedBox::open(s, keypair))`
    /// — same result, same sequence of EPC operations. Batched callers use
    /// this to interleave their own allocations between envelopes in the
    /// exact order sequential ingestion would, so accept/reject patterns
    /// under tight EPC budgets are bit-for-bit identical.
    ///
    /// # Errors
    ///
    /// Exactly those of [`Enclave::decrypt`].
    pub fn charge_opened<T>(
        &self,
        sealed_len: usize,
        opened: Result<T, CryptoError>,
    ) -> Result<T, EnclaveError> {
        let plaintext_len = sealed_box::plaintext_len(sealed_len)?;
        self.memory.allocate(plaintext_len)?;
        // Decryption itself is pure; the transient buffer decrypt() charges
        // for the duration of SealedBox::open is released immediately.
        self.memory.free(plaintext_len)?;
        Ok(opened?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn launch() -> (Enclave, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(3);
        let service = AttestationService::new(&mut rng);
        let enclave = Enclave::launch(EnclaveConfig::default(), &service, &mut rng);
        (enclave, service, rng)
    }

    #[test]
    fn quote_verifies_against_expected_measurement() {
        let (enclave, service, _) = launch();
        let expected = Enclave::expected_measurement(&EnclaveConfig::default());
        assert!(service.verify_quote(enclave.quote(), &expected));
        assert!(enclave.quote_binds_key());
    }

    #[test]
    fn different_code_gets_different_measurement() {
        let (enclave, service, mut rng) = launch();
        let evil_config = EnclaveConfig {
            code_identity: b"evil proxy".to_vec(),
            ..EnclaveConfig::default()
        };
        let evil = Enclave::launch(evil_config, &service, &mut rng);
        let expected = Enclave::expected_measurement(&EnclaveConfig::default());
        assert!(!service.verify_quote(evil.quote(), &expected));
        let _ = enclave;
    }

    #[test]
    fn decrypt_round_trip_and_memory_release() {
        let (enclave, _, mut rng) = launch();
        let sealed = SealedBox::seal(b"gradient bytes", enclave.public_key(), &mut rng).unwrap();
        let plain = enclave.decrypt(&sealed).unwrap();
        assert_eq!(plain, b"gradient bytes");
        // Transient buffer must be freed after decryption.
        assert_eq!(enclave.memory().stats().allocated, 0);
        assert!(enclave.memory().stats().high_water > 0);
    }

    #[test]
    fn decrypt_rejects_oversized_updates_in_strict_mode() {
        let mut rng = StdRng::seed_from_u64(4);
        let service = AttestationService::new(&mut rng);
        let config = EnclaveConfig {
            epc_limit: 16,
            ..EnclaveConfig::default()
        };
        let enclave = Enclave::launch(config, &service, &mut rng);
        let sealed = SealedBox::seal(&[0u8; 64], enclave.public_key(), &mut rng).unwrap();
        assert!(matches!(
            enclave.decrypt(&sealed),
            Err(EnclaveError::MemoryExhausted { .. })
        ));
    }

    #[test]
    fn garbage_ciphertext_fails_cleanly() {
        let (enclave, _, _) = launch();
        assert!(enclave.decrypt(&[0u8; 100]).is_err());
        assert_eq!(enclave.memory().stats().allocated, 0);
    }

    /// A blob shorter than the sealed-box overhead must be rejected before
    /// any EPC charge. The old `saturating_sub` path charged it as a
    /// zero-byte allocation, letting truncated garbage slip past the
    /// accounting.
    #[test]
    fn undersized_blob_rejected_before_epc_charge() {
        let (enclave, _, _) = launch();
        for len in [0usize, 1, 32, sealed_box::OVERHEAD - 1] {
            assert!(matches!(
                enclave.decrypt(&vec![0u8; len]),
                Err(EnclaveError::Crypto(CryptoError::BadLength { actual, .. })) if actual == len
            ));
        }
        // Up-front rejection: no allocation was ever attempted.
        assert_eq!(enclave.memory().stats().high_water, 0);
        assert_eq!(enclave.memory().stats().allocated, 0);
    }

    /// `prepare_open` + `charge_opened` — the proxy's ingest — must agree
    /// with per-blob `decrypt`, the reference: results and EPC accounting,
    /// across good, tampered, truncated and undersized envelopes.
    #[test]
    fn prepared_opens_match_sequential_decrypt() {
        let (enclave, _, mut rng) = launch();
        let mut blobs: Vec<Vec<u8>> = (0..4u8)
            .map(|i| SealedBox::seal(&[i; 40], enclave.public_key(), &mut rng).unwrap())
            .collect();
        blobs[1][70] ^= 0xff; // tampered ciphertext
        blobs.push(vec![0u8; 10]); // undersized
        blobs.push(Vec::new()); // empty

        let batched: Vec<_> = enclave
            .prepare_open(&blobs)
            .into_iter()
            .zip(&blobs)
            .map(|(prepared, b)| enclave.charge_opened(b.len(), prepared.and_then(|p| p.open(b))))
            .collect();
        let after_batched = enclave.memory().stats();
        assert_eq!(after_batched.allocated, 0);
        let sequential: Vec<_> = blobs.iter().map(|b| enclave.decrypt(b)).collect();
        assert_eq!(batched, sequential);
        assert!(batched[0].is_ok());
        assert!(matches!(
            batched[1],
            Err(EnclaveError::Crypto(CryptoError::AuthenticationFailed))
        ));
        assert!(matches!(
            batched[4],
            Err(EnclaveError::Crypto(CryptoError::BadLength { .. }))
        ));
        // The second pass charged and released exactly what the first did.
        assert_eq!(enclave.memory().stats().allocated, 0);
        assert_eq!(
            enclave.memory().stats().high_water,
            after_batched.high_water
        );
    }

    /// `charge_opened` replays `decrypt`'s EPC trace: a blob whose
    /// plaintext would not fit is rejected with `MemoryExhausted` even if
    /// its cryptographic opening succeeded.
    #[test]
    fn charge_opened_enforces_epc_budget() {
        let mut rng = StdRng::seed_from_u64(5);
        let service = AttestationService::new(&mut rng);
        let config = EnclaveConfig {
            epc_limit: 16,
            ..EnclaveConfig::default()
        };
        let enclave = Enclave::launch(config, &service, &mut rng);
        let sealed = SealedBox::seal(&[7u8; 64], enclave.public_key(), &mut rng).unwrap();
        let opened = SealedBox::open(&sealed, &enclave.keypair);
        assert!(opened.is_ok());
        assert!(matches!(
            enclave.charge_opened(sealed.len(), opened),
            Err(EnclaveError::MemoryExhausted { .. })
        ));
    }
}
