//! Federated-learning substrate for the MixNN reproduction.
//!
//! Implements the classic FL pipeline of the paper's Figure 2: the server
//! disseminates a global model (❶), participants refine it locally on data
//! that never leaves the device (❷), and the server aggregates the
//! returned per-layer parameter updates by averaging (❸).
//!
//! Two aspects are deliberately first-class because the paper's threat
//! model needs them:
//!
//! * **The disseminated model** — every participant of a round trains from
//!   the one model the server sends ([`FlSimulation::run_round_with`]):
//!   the global model for an honest server, or, for the active ∇Sim
//!   attack (§5), a crafted model broadcast in its place.
//! * **[`UpdateTransport`]** — the path updates take from participants to
//!   the server is pluggable: [`DirectTransport`] (classic FL, the server
//!   sees who sent what), [`NoisyTransport`] (the local-DP style noisy
//!   gradient baseline of §6.1.3), and — in the `mixnn-core` crate — the
//!   MixNN proxy itself.
//!
//! Everything is deterministic per seed; client training runs in parallel
//! threads with per-client derived seeds, so results are reproducible
//! regardless of thread scheduling.

#![deny(missing_docs)]

mod client;
mod config;
mod error;
mod server;
mod simulation;
mod transport;
mod update;

pub use client::{train_local, FlClient, LocalTrainer};
pub use config::FlConfig;
pub use error::FlError;
pub use server::AggregationServer;
pub use simulation::{map_chunked, FlSimulation, RoundOutcome};
pub use transport::{DirectTransport, NoisyTransport, UpdateTransport};
pub use update::ModelUpdate;
