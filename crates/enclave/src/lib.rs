//! Simulated Intel SGX enclave runtime for the MixNN proxy.
//!
//! The paper deploys the proxy inside an SGX enclave (§2.5, §4.3) and its
//! §6.5 evaluation hinges on two enclave realities, both of which this
//! crate models faithfully:
//!
//! * **EPC memory budget** — "only 96 MB out of the 128 reserved for the
//!   enclave can be used by applications"; exceeding it forces expensive
//!   encrypted paging, which the proxy never does. [`EpcBudget`] enforces
//!   exactly that arithmetic: an allocation past the limit fails.
//! * **Attestation** — enclaves prove the code they run ([`Measurement`],
//!   [`Quote`], [`AttestationService`]); participants only provision their
//!   updates after verifying the quote.
//!
//! The cryptography (quotes, the enclave key pair) is real —
//! borrowed from [`mixnn_crypto`] — only the *isolation* is simulated,
//! since no SGX hardware is available in this environment. The substitution
//! is recorded in `docs/ARCHITECTURE.md` ("Crate map"; "Threat model" puts
//! compromise of the simulated enclave out of scope).
//!
//! The simulated enclave has no memory-access side channel, and this crate
//! models none. §4.3's ORAM suggestion is not reproduced: the batch mix
//! indexes its buffer by a secret plan, which on real SGX would reveal the
//! plan through the access pattern ("Threat model", out of scope).

#![deny(missing_docs)]

mod attestation;
mod enclave;
mod error;
mod memory;

pub use attestation::{AttestationService, Measurement, Quote};
pub use enclave::{Enclave, EnclaveConfig};
pub use error::EnclaveError;
pub use memory::{EpcBudget, MemoryStats};
