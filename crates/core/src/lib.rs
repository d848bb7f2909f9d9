//! **MixNN** — the paper's contribution: a proxy that mixes neural-network
//! layers between federated-learning participants before they reach the
//! aggregation server.
//!
//! # How it works
//!
//! Participants send their per-layer model updates to the proxy instead of
//! the server, encrypted to the proxy's (simulated) SGX enclave. The proxy
//! reshuffles **whole layers across participants** — the update forwarded
//! in slot *i* contains layer 1 from one participant, layer 2 from another,
//! and so on — then forwards the mixed updates. Because FedAvg averages
//! each layer across all updates and the mix is a per-layer permutation,
//! **the aggregated global model is bit-for-bit identical** to classic FL
//! (§4.2 of the paper; encoded here as tests and properties). What changes
//! is that no forwarded update is the gradient of any single participant,
//! which destroys the per-user fingerprint that attribute-inference attacks
//! like ∇Sim exploit.
//!
//! # Crate layout
//!
//! * [`MixPlan`] — the one mixing construction, the paper's §4.2 batch
//!   matrix: [`MixPlan::for_round`] draws it (Latin whenever the model has
//!   no more layers than the round has participants) and
//!   [`MixPlan::apply_owned`] moves each layer into its output slot. The
//!   proxy and every cascade hop mix through exactly these two calls;
//! * [`RoundTranscript`] — the record of one round's mixing: its route
//!   groups ([`RouteGroup`]), each hop's plan, and which slots were real.
//!   The proxy's round is the one-hop case; the cascade records one group
//!   per route. Experiments invert it and the collusion adversary reads
//!   it;
//! * [`MixnnProxy`] — the deployed object: enclave-resident, attested,
//!   decrypts sealed updates, buffers the round, mixes it, exposes
//!   §6.5-style cost statistics; one in-order ingest routine derives eight
//!   updates' shared secrets per pass, then opens and commits each before
//!   the next is charged;
//! * [`MixnnTransport`] — plugs the proxy into the `mixnn-fl` round loop
//!   (the `UpdateTransport` impl itself lives in `mixnn_fl`, which depends
//!   on this crate);
//! * [`SpentBuffers`] — the one rule for writing a message into a buffer
//!   an earlier round is done with, and the generation a round driver
//!   keeps between rounds;
//! * [`codec`] — the serialized update wire format.
//!
//! # Quickstart
//!
//! ```
//! use mixnn_core::{MixnnProxy, MixnnProxyConfig};
//! use mixnn_enclave::AttestationService;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! # fn main() -> Result<(), mixnn_core::ProxyError> {
//! let mut rng = StdRng::seed_from_u64(0);
//! let attestation = AttestationService::new(&mut rng);
//! let config = MixnnProxyConfig {
//!     expected_signature: vec![6, 4], // two layers: 6 and 4 parameters
//!     ..MixnnProxyConfig::default()
//! };
//! let proxy = MixnnProxy::launch(config, &attestation, &mut rng);
//!
//! // Participants verify the enclave before trusting it:
//! assert!(proxy.verify_against(&attestation));
//! # Ok(())
//! # }
//! ```

#![deny(missing_docs)]

pub mod codec;
mod error;
mod link;
mod mixer;
mod proxy;
mod spent;
mod transport;

pub use error::ProxyError;
pub use link::{Endpoint, InProcessLink, LinkError, RoundLink};
pub use mixer::{shard_seed, MixPlan, RoundTranscript, RouteGroup};
pub use proxy::{MixnnProxy, MixnnProxyConfig, ProxyStats, INGEST_BATCH};
pub use spent::SpentBuffers;
pub use transport::{MixnnTransport, TransportMode};
