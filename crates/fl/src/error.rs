use mixnn_data::DataError;
use mixnn_nn::NnError;
use std::error::Error;
use std::fmt;

/// Error type for the federated-learning pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum FlError {
    /// A model operation failed (shape/label problems).
    Nn(NnError),
    /// A dataset operation failed.
    Data(DataError),
    /// A round was attempted with no participating clients.
    EmptyRound,
    /// The [`crate::FlConfig`] holds a value training cannot run with.
    InvalidConfig {
        /// Which value is wrong and why.
        reason: String,
    },
    /// Client updates cannot be aggregated because their layer signatures
    /// disagree (different architectures on the wire).
    IncompatibleUpdates {
        /// Signature of the first update.
        expected: Vec<usize>,
        /// Signature of the offending update.
        actual: Vec<usize>,
    },
    /// A client id was not found in the simulation.
    UnknownClient {
        /// The offending id.
        client_id: usize,
    },
    /// The transport between participants and server failed (e.g. the
    /// MixNN proxy rejected a ciphertext).
    Transport {
        /// Human-readable failure description from the transport.
        message: String,
    },
    /// The transport timed out waiting for a round segment to arrive —
    /// packets were lost or a connection stalled past its deadline.
    /// Distinct from [`FlError::Transport`] so callers can treat it as
    /// transient (the round may succeed on retry or under a skip policy).
    Timeout {
        /// Human-readable description of the timed-out segment.
        message: String,
    },
}

impl fmt::Display for FlError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlError::Nn(e) => write!(f, "model failure during federated round: {e}"),
            FlError::Data(e) => write!(f, "data failure during federated round: {e}"),
            FlError::EmptyRound => write!(f, "cannot run a federated round with zero clients"),
            FlError::InvalidConfig { reason } => {
                write!(f, "invalid federated configuration: {reason}")
            }
            FlError::IncompatibleUpdates { expected, actual } => write!(
                f,
                "incompatible update signatures: expected {expected:?}, got {actual:?}"
            ),
            FlError::UnknownClient { client_id } => {
                write!(f, "client {client_id} is not part of the simulation")
            }
            FlError::Transport { message } => write!(f, "transport failure: {message}"),
            FlError::Timeout { message } => write!(f, "transport timeout: {message}"),
        }
    }
}

impl Error for FlError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FlError::Nn(e) => Some(e),
            FlError::Data(e) => Some(e),
            _ => None,
        }
    }
}

impl From<NnError> for FlError {
    fn from(e: NnError) -> Self {
        FlError::Nn(e)
    }
}

impl From<DataError> for FlError {
    fn from(e: DataError) -> Self {
        FlError::Data(e)
    }
}

impl From<mixnn_core::ProxyError> for FlError {
    fn from(e: mixnn_core::ProxyError) -> Self {
        FlError::Transport {
            message: e.to_string(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_preserve_source() {
        let e: FlError = NnError::LayerCountMismatch {
            expected: 2,
            actual: 1,
        }
        .into();
        assert!(e.source().is_some());
        let e: FlError = DataError::IndexOutOfRange { index: 1, len: 0 }.into();
        assert!(e.source().is_some());
    }

    #[test]
    fn proxy_errors_convert_to_transport_failures() {
        let e: FlError = mixnn_core::ProxyError::InsufficientUpdates { have: 0, need: 1 }.into();
        assert!(matches!(e, FlError::Transport { .. }));
        assert!(e.to_string().contains("needs 1 updates"));
    }

    #[test]
    fn timeout_is_distinct_from_generic_transport_failure() {
        let t = FlError::Timeout {
            message: "hop 1 -> hop 2 stalled".into(),
        };
        assert!(t.to_string().contains("transport timeout"));
        assert!(!matches!(t, FlError::Transport { .. }));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<FlError>();
    }
}
