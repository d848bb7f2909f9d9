use mixnn_core::{LinkError, ProxyError};
use mixnn_crypto::CryptoError;
use std::error::Error;
use std::fmt;

/// Error type for the mix cascade.
#[derive(Debug, Clone, PartialEq)]
pub enum CascadeError {
    /// A hop failed while processing a round (decryption failure, EPC
    /// exhaustion, malformed inner blob, plan failure).
    Hop {
        /// Index of the failing hop in the cascade's hop list.
        hop: usize,
        /// The underlying proxy-level failure.
        source: ProxyError,
    },
    /// An onion message could not be decoded from its wire framing.
    Onion {
        /// Human-readable decode failure.
        reason: String,
    },
    /// A hop's attestation quote failed verification — the client must not
    /// encrypt to it.
    Attestation {
        /// Index of the unverifiable hop.
        hop: usize,
    },
    /// Sealing an onion envelope to a hop key failed — the key is
    /// low-order or otherwise unusable, so encrypting to it would leak the
    /// update.
    Seal {
        /// The underlying crypto failure.
        source: CryptoError,
    },
    /// Every hop of the cascade has been skipped; there is no chain left
    /// to route through.
    NoActiveHops,
    /// A round was started with no updates.
    EmptyRound,
    /// An update's layer signature does not match the cascade's configured
    /// model.
    SignatureMismatch {
        /// Signature the cascade expects.
        expected: Vec<usize>,
        /// Signature observed.
        actual: Vec<usize>,
    },
    /// The topology produced a route the coordinator cannot drive: an
    /// empty route, a hop index out of range or a hop visited twice.
    Topology {
        /// Human-readable constraint violation.
        reason: String,
    },
    /// An audit operation was handed data that does not fit its recorded
    /// plans (wrong update count or layer shape).
    Audit {
        /// Human-readable dimension mismatch.
        reason: String,
    },
    /// A mix pool was misconfigured or driven inconsistently (zero
    /// threshold, a pooled transport without a virtual clock to measure
    /// deadlines on, a stripped round whose cover count disagrees with
    /// what was injected).
    Pool {
        /// Human-readable constraint violation.
        reason: String,
    },
    /// The wire failed to deliver a round segment between two stages of
    /// the update path (timeout on lost packets, stalled or refused
    /// connection). Under `FailurePolicy::Skip` the receiving hop is
    /// marked down instead and the round retries on the surviving routes;
    /// under `FailurePolicy::Abort` this error surfaces.
    Link {
        /// The underlying delivery failure, carrying the segment's
        /// endpoints.
        source: LinkError,
    },
}

impl fmt::Display for CascadeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CascadeError::Hop { hop, source } => write!(f, "cascade hop {hop} failed: {source}"),
            CascadeError::Onion { reason } => write!(f, "malformed onion message: {reason}"),
            CascadeError::Attestation { hop } => {
                write!(f, "hop {hop} failed attestation; refusing to encrypt to it")
            }
            CascadeError::Seal { source } => {
                write!(f, "refusing to seal to an unusable hop key: {source}")
            }
            CascadeError::NoActiveHops => write!(f, "no active hops left in the cascade"),
            CascadeError::EmptyRound => write!(f, "cascade round started with no updates"),
            CascadeError::SignatureMismatch { expected, actual } => write!(
                f,
                "update signature {actual:?} does not match cascade model {expected:?}"
            ),
            CascadeError::Topology { reason } => write!(f, "unsupported topology: {reason}"),
            CascadeError::Audit { reason } => write!(f, "audit failure: {reason}"),
            CascadeError::Pool { reason } => write!(f, "mix pool misuse: {reason}"),
            CascadeError::Link { source } => write!(f, "wire delivery failed: {source}"),
        }
    }
}

impl Error for CascadeError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CascadeError::Hop { source, .. } => Some(source),
            CascadeError::Seal { source } => Some(source),
            CascadeError::Link { source } => Some(source),
            _ => None,
        }
    }
}

impl From<CascadeError> for mixnn_fl::FlError {
    fn from(e: CascadeError) -> Self {
        match &e {
            // A wire timeout keeps its type across the layer boundary so
            // FL callers can distinguish "the network stalled" (retry the
            // round) from "the transport is misconfigured" (don't).
            CascadeError::Link { source } if source.is_timeout() => mixnn_fl::FlError::Timeout {
                message: e.to_string(),
            },
            _ => mixnn_fl::FlError::Transport {
                message: e.to_string(),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hop_error_carries_source() {
        let e = CascadeError::Hop {
            hop: 2,
            source: ProxyError::InsufficientUpdates { have: 0, need: 1 },
        };
        assert!(e.source().is_some());
        assert!(e.to_string().contains("hop 2"));
    }

    #[test]
    fn converts_to_fl_transport_error() {
        let e = CascadeError::NoActiveHops;
        let fl: mixnn_fl::FlError = e.into();
        assert!(matches!(fl, mixnn_fl::FlError::Transport { .. }));
        assert!(fl.to_string().contains("no active hops"));
    }

    #[test]
    fn link_timeout_converts_to_typed_fl_timeout() {
        let timeout = CascadeError::Link {
            source: LinkError::Timeout {
                from: mixnn_core::Endpoint::Hop(0),
                to: mixnn_core::Endpoint::Hop(1),
                delivered: 2,
                expected: 5,
            },
        };
        assert!(timeout.source().is_some());
        let fl: mixnn_fl::FlError = timeout.into();
        assert!(matches!(fl, mixnn_fl::FlError::Timeout { .. }));
        assert!(fl.to_string().contains("2/5"));

        // A non-timeout wire failure stays a generic transport error.
        let refused = CascadeError::Link {
            source: LinkError::Connection {
                from: mixnn_core::Endpoint::Hop(0),
                to: mixnn_core::Endpoint::Server,
                reason: "closed".into(),
            },
        };
        let fl: mixnn_fl::FlError = refused.into();
        assert!(matches!(fl, mixnn_fl::FlError::Transport { .. }));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CascadeError>();
    }
}
