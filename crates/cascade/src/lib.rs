//! **Mix cascade** — multi-hop onion-routed chains of MixNN proxies.
//!
//! The single-proxy MixNN deployment concentrates all mixing trust in one
//! enclave: whoever observes that proxy's plaintext view can attribute
//! every (client, layer) pair. The paper frames MixNN after mix networks,
//! and mix networks get their strength from *chains* — so this subsystem
//! routes client updates through a configurable cascade of proxies
//! instead of exactly one:
//!
//! ```text
//!  client c:  layer l ──bₗ = seal k₁(seal k₂(plain))
//!             update  ──seal k₀(b₀ … b_{L-1})──▶ hop 0 ─▶ hop 1 ─▶ hop 2 ─▶ server
//!                                                 σ₀       σ₁       σ₂
//! ```
//!
//! Each client onion-encrypts every neural-network layer separately — one
//! [`mixnn_crypto::SealedBox`] envelope per hop after the first, innermost
//! for the last proxy — and wraps the framed blobs in one envelope for the
//! first hop, which receives them together anyway ([`OnionUpdate`]). The
//! entry hop unwraps that envelope, every later hop `i` exactly its own
//! envelope on every (client, layer) blob; each applies a fresh per-layer
//! permutation `σᵢ` (a `mixnn_core::MixPlan` over **opaque ciphertext**)
//! and forwards re-framed onions to hop `i+1`. Only the last hop uncovers
//! plaintext layers — by which point the (client, layer) assignment has
//! been re-drawn by every hop in the chain.
//!
//! **The privacy claim this buys:** the composed assignment is
//! `σ = σ_{n-1} ∘ … ∘ σ₀`, and an adversary must know *every* factor to
//! invert it. Any proper subset of colluding hops leaves at least one
//! unknown uniform permutation in the composition, so the residual
//! anonymity set of every (client, layer) pair stays the full round —
//! linkability degrades **only when all hops collude**
//! (`mixnn_attacks::collusion` computes this from the hops' actual plans).
//!
//! **The utility claim is unchanged:** every `σᵢ` is a per-layer
//! permutation, so their composition conserves each layer's multiset and
//! FedAvg aggregation is bit-for-bit identical — [`CascadeAudit::unmix`]
//! inverts the whole chain as a checkable witness.
//!
//! # Route groups: stratified and free-route layouts
//!
//! Clients need not all take the same chain. A [`CascadeTopology`] assigns
//! every client slot a route, and the coordinator partitions each round
//! into **route groups** — clients sharing one exact route — driving each
//! group through its hops as a *partial round*: a hop mixes only the
//! (client, layer) envelopes that actually traversed it, and a hop off
//! every route mixes nothing. Three layouts ship:
//!
//! * [`LinearChain`] — the classic cascade: one group of all `C` clients,
//!   `n` hops of latency, anonymity set `C` against any proper-subset
//!   adversary;
//! * [`StratifiedLayout`] — one seeded hop per stratum: latency = strata,
//!   anonymity set = the clients that drew the same hop in every stratum;
//! * [`FreeRoute`] — per-client seeded hop subsets: the shortest routes
//!   and the smallest groups (a unique route mixes with nobody).
//!
//! Because each onion envelope is sealed to a specific hop key, blobs can
//! never cross between groups whose remaining routes differ — a client's
//! anonymity set is therefore **bounded by its route group**, and a
//! colluding hop subset links exactly the clients whose whole route it
//! covers (`mixnn_attacks::collusion::analyze_routed_collusion` computes
//! the per-client sets; `eval topology` sweeps all three layouts). See
//! `docs/ARCHITECTURE.md` for the full threat model.
//!
//! # Crate layout
//!
//! * [`CascadeTopology`] / [`LinearChain`] / [`StratifiedLayout`] /
//!   [`FreeRoute`] — which hops a client's onion traverses, and
//!   [`route_groups`] to partition a round;
//! * [`OnionUpdate`] — the onion wire format (MIXC version 2);
//! * [`CascadeHop`] — one enclave-resident proxy: attested, EPC-budgeted,
//!   `ProxyStats`-accounted, mixing blobs it cannot read;
//! * [`CascadeClient`] — builds onions from the hops' **attested** keys;
//! * [`CascadeCoordinator`] — drives rounds end-to-end with configurable
//!   skip-or-abort failure semantics ([`FailurePolicy`]), one partial
//!   round per route group, audited by [`CascadeAudit`] — one sequential
//!   drive with one failure handler (see `docs/ARCHITECTURE.md`, "The
//!   round drive");
//! * [`CascadeTransport`] — plugs the cascade into `mixnn_fl` rounds as an
//!   [`mixnn_fl::UpdateTransport`];
//! * [`MixPool`] / [`PooledCoordinator`] / [`PooledCascadeTransport`] —
//!   **continuous** mixing: arrivals pool until `k` are buffered or a
//!   deadline (on the telemetry clock) elapses, and every fired partial
//!   round is padded with hop-generated cover traffic up to the k-floor —
//!   byte-indistinguishable on the wire, stripped only at the server
//!   boundary by content digest ([`PaddedRound::server_outputs`]). See
//!   `docs/ARCHITECTURE.md`, "Continuous mixing & cover traffic".

#![deny(missing_docs)]

mod client;
mod coordinator;
mod error;
mod hop;
mod onion;
mod pool;
mod topology;
mod transport;

pub use client::CascadeClient;
pub use coordinator::{
    CascadeAudit, CascadeConfig, CascadeCoordinator, CascadeRound, FailurePolicy, PaddedRound,
    RouteGroupAudit,
};
pub use error::CascadeError;
pub use hop::{CascadeHop, CascadeHopConfig, HopDescriptor, HOP_CODE_IDENTITY};
pub use onion::OnionUpdate;
pub use pool::{
    MixPool, PoolBatch, PoolConfig, PoolTrigger, PooledCascadeTransport, PooledCoordinator,
    PooledRound,
};
pub use topology::{
    route_groups, validate_route, CascadeTopology, FreeRoute, LinearChain, RouteGroup,
    StratifiedLayout,
};
pub use transport::CascadeTransport;
