//! The wire-delivery trait surface between update-path stages.
//!
//! Every exchange on the MixNN update path moves a *round batch* — one
//! `Vec<u8>` wire blob per client slot, in slot order — between two
//! [`Endpoint`]s: the client population into the first proxy, proxy to
//! proxy along a cascade route, and the last proxy into the aggregation
//! server. [`RoundLink`] abstracts that segment delivery so the same
//! coordinator code drives rounds over an in-process call
//! ([`InProcessLink`]) or over a simulated network (`mixnn-net`'s
//! `SimLink`) — and so delivery failures (timeouts, dropped connections)
//! surface as typed [`LinkError`]s the cascade's failure policy can act
//! on.
//!
//! The contract that keeps network transport a pure *cost* knob, never a
//! semantics knob: a successful [`RoundLink::deliver`] returns exactly the
//! messages it was handed, byte-for-byte, **in their original order** —
//! the wire may delay, batch, fragment or reorder packets internally, but
//! reassembly restores the logical batch before the receiving stage sees
//! it (sequence-numbered frames, exactly like a TCP stream restores byte
//! order). Anything else is a failed delivery.

use std::error::Error;
use std::fmt;

/// A logical endpoint on the update path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// The client population (sender of the round's initial onions).
    Clients,
    /// Mixing proxy `hop` (cascade hop index; `Hop(0)` is the single
    /// proxy in a one-proxy deployment).
    Hop(usize),
    /// The aggregation server.
    Server,
}

impl fmt::Display for Endpoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Endpoint::Clients => write!(f, "clients"),
            Endpoint::Hop(h) => write!(f, "hop {h}"),
            Endpoint::Server => write!(f, "server"),
        }
    }
}

/// A failed segment delivery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinkError {
    /// Not every message of the batch arrived before the deadline —
    /// packets were lost or the link stalled past its timeout.
    Timeout {
        /// Sending endpoint of the failed segment.
        from: Endpoint,
        /// Receiving endpoint of the failed segment.
        to: Endpoint,
        /// Messages that did arrive in time.
        delivered: usize,
        /// Messages the batch carried.
        expected: usize,
    },
    /// The connection refused the batch outright (no route, closed peer,
    /// or a frame the receiver could not parse).
    Connection {
        /// Sending endpoint of the failed segment.
        from: Endpoint,
        /// Receiving endpoint of the failed segment.
        to: Endpoint,
        /// Human-readable failure description.
        reason: String,
    },
}

impl LinkError {
    /// The endpoint pair of the failed segment.
    pub fn segment(&self) -> (Endpoint, Endpoint) {
        match self {
            LinkError::Timeout { from, to, .. } | LinkError::Connection { from, to, .. } => {
                (*from, *to)
            }
        }
    }

    /// Whether the failure was a delivery timeout (lost or stalled
    /// packets) rather than an outright connection failure.
    pub fn is_timeout(&self) -> bool {
        matches!(self, LinkError::Timeout { .. })
    }
}

impl fmt::Display for LinkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LinkError::Timeout {
                from,
                to,
                delivered,
                expected,
            } => write!(
                f,
                "delivery {from} -> {to} timed out: {delivered}/{expected} messages arrived"
            ),
            LinkError::Connection { from, to, reason } => {
                write!(f, "connection {from} -> {to} failed: {reason}")
            }
        }
    }
}

impl Error for LinkError {}

/// Delivery of one round batch between two update-path stages.
///
/// Implementations must be **order- and content-preserving on success**
/// (see the module docs); they are free to model any cost — latency,
/// queueing, framing — and to fail with a typed [`LinkError`] when the
/// wire loses or stalls the batch.
pub trait RoundLink {
    /// Delivers `messages` from `from` to `to`, returning the batch as
    /// the receiver observes it (equal to `messages` on success).
    ///
    /// # Errors
    ///
    /// Returns a [`LinkError`] when the batch does not arrive complete —
    /// lost packets, a stalled connection past its timeout, or a refused
    /// connection.
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError>;

    /// `true` when delivery is the identity at zero cost (no queueing, no
    /// mutable wire state); real network links return `false` (the
    /// default). Informational: the coordinator no longer consults it —
    /// there is one drive, and it hits every link in the canonical
    /// sequential order.
    fn is_transparent(&self) -> bool {
        false
    }
}

/// The in-process link: delivery is the identity function, the wire
/// costs nothing and never fails — the reference semantics every real
/// link must reproduce on its success path.
#[derive(Debug, Clone, Copy, Default)]
pub struct InProcessLink;

impl RoundLink for InProcessLink {
    fn deliver(
        &mut self,
        _from: Endpoint,
        _to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        Ok(messages)
    }

    fn is_transparent(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn in_process_link_is_identity_and_transparent() {
        let mut link = InProcessLink;
        let batch = vec![vec![1u8, 2, 3], vec![4u8]];
        let out = link
            .deliver(Endpoint::Clients, Endpoint::Hop(0), batch.clone())
            .unwrap();
        assert_eq!(out, batch);
        assert!(link.is_transparent());
    }

    #[test]
    fn link_error_reports_segment_and_kind() {
        let e = LinkError::Timeout {
            from: Endpoint::Hop(1),
            to: Endpoint::Hop(2),
            delivered: 3,
            expected: 8,
        };
        assert!(e.is_timeout());
        assert_eq!(e.segment(), (Endpoint::Hop(1), Endpoint::Hop(2)));
        assert!(e.to_string().contains("3/8"));
        assert!(e.to_string().contains("hop 1"));

        let c = LinkError::Connection {
            from: Endpoint::Hop(0),
            to: Endpoint::Server,
            reason: "closed".into(),
        };
        assert!(!c.is_timeout());
        assert!(c.to_string().contains("server"));
    }

    #[test]
    fn endpoints_display() {
        assert_eq!(Endpoint::Clients.to_string(), "clients");
        assert_eq!(Endpoint::Hop(3).to_string(), "hop 3");
        assert_eq!(Endpoint::Server.to_string(), "server");
    }

    #[test]
    fn link_error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<LinkError>();
    }
}
