use std::error::Error;
use std::fmt;

/// Error type for cryptographic operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// A ciphertext failed authentication (wrong key, truncation or
    /// tampering). No plaintext is released.
    AuthenticationFailed,
    /// Input had an invalid length for the operation.
    BadLength {
        /// What the operation expected, e.g. `"at least 48 bytes"`.
        expected: &'static str,
        /// Length actually supplied.
        actual: usize,
    },
    /// A public key or scalar was structurally invalid (e.g. the all-zero
    /// shared secret produced by a low-order point).
    InvalidKey,
    /// The X25519 exchange produced the all-zero shared secret: the peer
    /// point was low-order, so the "shared" secret would be attacker-
    /// predictable. Rejected per the RFC 7748 §6.1 contributory-behavior
    /// check.
    LowOrderPoint,
}

impl fmt::Display for CryptoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CryptoError::AuthenticationFailed => write!(f, "ciphertext authentication failed"),
            CryptoError::BadLength { expected, actual } => {
                write!(f, "invalid input length: expected {expected}, got {actual}")
            }
            CryptoError::InvalidKey => write!(f, "invalid key material"),
            CryptoError::LowOrderPoint => {
                write!(f, "low-order point: X25519 shared secret is all zero")
            }
        }
    }
}

impl Error for CryptoError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_without_period() {
        for e in [
            CryptoError::AuthenticationFailed,
            CryptoError::BadLength {
                expected: "32 bytes",
                actual: 31,
            },
            CryptoError::InvalidKey,
            CryptoError::LowOrderPoint,
        ] {
            let s = e.to_string();
            assert!(s.chars().next().unwrap().is_lowercase());
            assert!(!s.ends_with('.'));
        }
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CryptoError>();
    }
}
