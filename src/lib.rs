//! # MixNN — facade crate
//!
//! Reproduction of *"MixNN: Protection of Federated Learning Against
//! Inference Attacks by Mixing Neural Network Layers"* (MIDDLEWARE 2022).
//!
//! This crate re-exports the whole workspace behind one dependency so that
//! examples and downstream users can write `use mixnn::...` for everything:
//!
//! * [`tensor`] — dense f32 tensors and vector math,
//! * [`nn`] — neural-network layers, losses and optimizers,
//! * [`data`] — synthetic federated datasets with sensitive attributes,
//! * [`fl`] — the federated-learning substrate (clients, server, rounds),
//! * [`proxy`] — **the paper's contribution**: the layer-mixing proxy,
//! * [`cascade`] — multi-hop onion-routed chains of mixing proxies,
//! * [`net`] — a deterministic simulated network (frame batching, load
//!   generation) the cascade and proxy can run over,
//! * [`telemetry`] — deterministic, aggregate-only metrics and round
//!   tracing with privacy-audited Prometheus/JSON exporters,
//! * [`attacks`] — the ∇Sim attribute-inference attack,
//! * [`crypto`] / [`enclave`] — the (simulated) SGX substrate the proxy
//!   runs in.
//!
//! See the repository `README.md` for a quickstart and
//! `docs/ARCHITECTURE.md` ("Crate map") for the full system inventory.

#![deny(missing_docs)]

pub use mixnn_attacks as attacks;
pub use mixnn_cascade as cascade;
pub use mixnn_core as proxy;
pub use mixnn_crypto as crypto;
pub use mixnn_data as data;
pub use mixnn_enclave as enclave;
pub use mixnn_fl as fl;
pub use mixnn_net as net;
pub use mixnn_nn as nn;
pub use mixnn_telemetry as telemetry;
pub use mixnn_tensor as tensor;
