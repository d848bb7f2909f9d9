//! Remote attestation (simulated).
//!
//! Real SGX attestation proves to a remote party that a specific enclave
//! binary (identified by its MRENCLAVE measurement) runs on genuine
//! hardware. MixNN participants rely on this before provisioning: they only
//! trust the proxy because the quote shows it runs the published mixing
//! code (§2.5: "Enclaves can be attested to prove that the code running in
//! the enclave is the one intended").
//!
//! Simulation: the [`AttestationService`] plays Intel's role with an
//! HMAC-SHA256 "platform key" standing in for the EPID/DCAP signing chain.
//! The trust argument is identical — a verifier checks (1) the quote's
//! signature chains to the platform, (2) the measurement equals the
//! expected code hash.

use mixnn_crypto::hmac::hmac_sha256;
use mixnn_crypto::sha256;
use rand::Rng;
use std::fmt;

/// An enclave code measurement (MRENCLAVE): SHA-256 of the enclave binary.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Measurement([u8; 32]);

impl Measurement {
    /// Measures "code" — here, a canonical byte description of the enclave
    /// program (the reproduction uses the proxy's configuration string).
    pub fn of_code(code: &[u8]) -> Self {
        Measurement(sha256::digest(code))
    }

    /// Raw digest bytes.
    pub fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }
}

/// A signed attestation quote.
///
/// Binds a [`Measurement`] to caller-chosen `report_data` (conventionally a
/// hash of the enclave's public key, so the attested identity and the
/// encryption key cannot be split by a man in the middle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quote {
    measurement: Measurement,
    report_data: Vec<u8>,
    signature: [u8; 32],
}

impl Quote {
    /// The attested code measurement.
    pub fn measurement(&self) -> &Measurement {
        &self.measurement
    }

    /// The caller-bound report data.
    pub fn report_data(&self) -> &[u8] {
        &self.report_data
    }

    /// Whether this quote binds `public_key` — the convention used by every
    /// enclave in this workspace is report data = SHA-256 of the enclave's
    /// public encryption key, so the attested identity and the key a
    /// participant encrypts to cannot be split by a man in the middle.
    /// This is the single home of that invariant; verifiers must not
    /// re-derive it.
    pub fn binds_key(&self, public_key: &mixnn_crypto::PublicKey) -> bool {
        self.report_data == sha256::digest(public_key.as_bytes())
    }
}

/// The (simulated) platform attestation authority.
///
/// Its `Debug` output is redacted: the platform key signs every quote, so
/// whoever reads it can forge one for any measurement.
#[derive(Clone)]
pub struct AttestationService {
    platform_key: [u8; 32],
}

impl fmt::Debug for AttestationService {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "AttestationService(redacted)")
    }
}

impl AttestationService {
    /// Provisions a platform with a fresh signing key.
    pub fn new<R: Rng + ?Sized>(rng: &mut R) -> Self {
        let mut platform_key = [0u8; 32];
        rng.fill(&mut platform_key);
        AttestationService { platform_key }
    }

    fn sign_payload(&self, measurement: &Measurement, report_data: &[u8]) -> [u8; 32] {
        let mut payload = Vec::with_capacity(32 + report_data.len());
        payload.extend_from_slice(measurement.as_bytes());
        payload.extend_from_slice(report_data);
        hmac_sha256(&self.platform_key, &payload)
    }

    /// Issues a quote for an enclave with `measurement`, binding
    /// `report_data`.
    pub fn issue_quote(&self, measurement: Measurement, report_data: &[u8]) -> Quote {
        Quote {
            signature: self.sign_payload(&measurement, report_data),
            measurement,
            report_data: report_data.to_vec(),
        }
    }

    /// Verifies a quote's platform signature and that its measurement
    /// equals `expected`.
    ///
    /// Returns `true` only when both checks pass. Participants call this
    /// before encrypting updates to the proxy.
    pub fn verify_quote(&self, quote: &Quote, expected: &Measurement) -> bool {
        let sig_ok = mixnn_crypto::ct_eq(
            &self.sign_payload(&quote.measurement, &quote.report_data),
            &quote.signature,
        );
        sig_ok && &quote.measurement == expected
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn service() -> AttestationService {
        AttestationService::new(&mut StdRng::seed_from_u64(1))
    }

    #[test]
    fn measurement_is_deterministic() {
        assert_eq!(
            Measurement::of_code(b"proxy v1"),
            Measurement::of_code(b"proxy v1")
        );
        assert_ne!(
            Measurement::of_code(b"proxy v1"),
            Measurement::of_code(b"proxy v2")
        );
    }

    #[test]
    fn valid_quote_verifies() {
        let svc = service();
        let m = Measurement::of_code(b"mixnn proxy");
        let q = svc.issue_quote(m, b"pubkey hash");
        assert!(svc.verify_quote(&q, &m));
    }

    #[test]
    fn wrong_measurement_fails() {
        let svc = service();
        let m = Measurement::of_code(b"mixnn proxy");
        let q = svc.issue_quote(m, b"data");
        let other = Measurement::of_code(b"evil proxy");
        assert!(!svc.verify_quote(&q, &other));
    }

    #[test]
    fn tampered_report_data_fails() {
        let svc = service();
        let m = Measurement::of_code(b"mixnn proxy");
        let mut q = svc.issue_quote(m, b"data");
        q.report_data = b"DATA".to_vec();
        assert!(!svc.verify_quote(&q, &m));
    }

    #[test]
    fn debug_prints_no_byte_of_the_platform_key() {
        for seed in 0..8 {
            let svc = AttestationService::new(&mut StdRng::seed_from_u64(seed));
            let text = format!("{svc:?} {svc:#?}");
            // No byte in decimal, as a derived `Debug` prints an array...
            assert!(!text.contains(|c: char| c.is_ascii_digit()), "{text}");
            // ...nor any two consecutive bytes in hex, either case.
            for pair in svc.platform_key.windows(2) {
                let hex = format!("{:02x}{:02x}", pair[0], pair[1]);
                assert!(!text.contains(&hex), "{text} holds {hex}");
                assert!(!text.contains(&hex.to_uppercase()), "{text} holds {hex}");
            }
        }
    }

    #[test]
    fn quote_from_other_platform_fails() {
        let svc = service();
        let rogue = AttestationService::new(&mut StdRng::seed_from_u64(2));
        let m = Measurement::of_code(b"mixnn proxy");
        let q = rogue.issue_quote(m, b"data");
        assert!(!svc.verify_quote(&q, &m));
    }
}
