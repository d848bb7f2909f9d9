//! **∇Sim** — the similarity-based attribute-inference attack of the MixNN
//! paper (§5), plus the robustness analysis of §6.4.
//!
//! ∇Sim exploits the privacy vulnerability of gradient descent: the update
//! a participant returns is the direction that minimizes *its own data's*
//! loss, so it carries a fingerprint of that data — including sensitive
//! attributes uncorrelated with the main task. The attack:
//!
//! 1. pools auxiliary data per sensitive-attribute class (the adversary's
//!    background knowledge, §3);
//! 2. trains one **attack model** per class from the current global model
//!    using the *same* local-training routine the victims run;
//! 3. scores each observed update by cosine similarity between its gradient
//!    direction and each class's reference direction;
//! 4. predicts the class with the highest (accumulated) score.
//!
//! The attack is **passive** when the adversary just watches the honest
//! protocol, and **active** when the malicious server disseminates a
//! crafted model **equidistant** from the per-class attack models so every
//! class's pull is maximally distinguishable ([`GradSim::equidistant_model`]).
//!
//! Attacks read what the server held. [`ServerLog::record`] is the one
//! loop here that drives FL: per round it keeps who took part, the model
//! the server disseminated and the updates it received, in arrival order.
//! An attack is a function over a `&ServerLog` and never takes a
//! transport's transcript — who really sent which layer is ground truth
//! the server does not see. [`InferenceExperiment`] records a log against
//! any transport (classic FL, noisy gradient, MixNN) and folds ∇Sim over
//! it into the per-round inference accuracies of Figures 7 and 8.
//!
//! Beyond the paper, [`collusion`] models the adversary the **mix
//! cascade** (`mixnn-cascade`) is built against: a subset of compromised
//! hops pooling their plaintext views to link forwarded layers back to
//! participants. One analysis, [`analyze_routed_collusion`], reads a
//! round's `mixnn_core::RoundTranscript` and covers the single proxy (one
//! hop), the uniform chain (one route group) and the stratified/free-route
//! layouts whose clients mix in per-route groups, and computes per-client
//! anonymity sets.

#![deny(missing_docs)]

pub mod collusion;
mod driver;
mod error;
mod gradsim;
mod log;
pub mod robustness;

pub use collusion::{analyze_routed_collusion, RoutedCollusionReport};
pub use driver::{AttackMode, InferenceExperiment, InferenceResult};
pub use error::AttackError;
pub use gradsim::{AttackSession, GradSim, GradSimConfig};
pub use log::ServerLog;

#[cfg(test)]
mod metrics;
