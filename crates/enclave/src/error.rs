use mixnn_crypto::CryptoError;
use std::error::Error;
use std::fmt;

/// Error type for enclave operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EnclaveError {
    /// An allocation would exceed the usable EPC.
    MemoryExhausted {
        /// Bytes requested by the allocation.
        requested: usize,
        /// Bytes still available inside the EPC.
        available: usize,
    },
    /// A free was attempted for more bytes than are allocated (accounting
    /// bug in the caller).
    FreeUnderflow {
        /// Bytes the caller tried to free.
        requested: usize,
        /// Bytes currently allocated.
        allocated: usize,
    },
    /// A cryptographic step failed (decryption, quote verification).
    Crypto(CryptoError),
    /// A quote did not match the expected enclave measurement.
    MeasurementMismatch,
}

impl fmt::Display for EnclaveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EnclaveError::MemoryExhausted {
                requested,
                available,
            } => write!(
                f,
                "enclave memory exhausted: requested {requested} bytes, {available} available"
            ),
            EnclaveError::FreeUnderflow {
                requested,
                allocated,
            } => write!(
                f,
                "free underflow: tried to free {requested} bytes with {allocated} allocated"
            ),
            EnclaveError::Crypto(e) => write!(f, "enclave crypto failure: {e}"),
            EnclaveError::MeasurementMismatch => {
                write!(f, "quote does not match the expected enclave measurement")
            }
        }
    }
}

impl Error for EnclaveError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EnclaveError::Crypto(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CryptoError> for EnclaveError {
    fn from(e: CryptoError) -> Self {
        EnclaveError::Crypto(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crypto_errors_convert_with_source() {
        let e: EnclaveError = CryptoError::AuthenticationFailed.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn messages_mention_numbers() {
        let e = EnclaveError::MemoryExhausted {
            requested: 100,
            available: 10,
        };
        let s = e.to_string();
        assert!(s.contains("100") && s.contains("10"));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<EnclaveError>();
    }
}
