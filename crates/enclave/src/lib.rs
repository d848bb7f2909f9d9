//! Simulated Intel SGX enclave runtime for the MixNN proxy.
//!
//! The paper deploys the proxy inside an SGX enclave (§2.5, §4.3) and its
//! §6.5 evaluation hinges on three enclave realities, all of which this
//! crate models faithfully:
//!
//! * **EPC memory budget** — "only 96 MB out of the 128 reserved for the
//!   enclave can be used by applications"; exceeding it forces expensive
//!   encrypted paging, which the proxy never does. [`EpcBudget`] enforces
//!   exactly that arithmetic: an allocation past the limit fails.
//! * **Attestation** — enclaves prove the code they run ([`Measurement`],
//!   [`Quote`], [`AttestationService`]); participants only provision their
//!   updates after verifying the quote.
//! * **Side-channel discipline** — memory access must not depend on the
//!   data (§4.3). [`ObliviousBuffer`] provides linear-scan
//!   (ZeroTrace-style) storage whose access pattern is independent of the
//!   accessed index.
//!
//! The cryptography (quotes, the enclave key pair) is real —
//! borrowed from [`mixnn_crypto`] — only the *isolation* is simulated,
//! since no SGX hardware is available in this environment. The substitution
//! is recorded in `docs/ARCHITECTURE.md` ("Crate map"; "Threat model" puts
//! compromise of the simulated enclave out of scope).

#![deny(missing_docs)]

mod attestation;
mod enclave;
mod error;
mod memory;
mod oblivious;

pub use attestation::{AttestationService, Measurement, Quote};
pub use enclave::{Enclave, EnclaveConfig};
pub use error::EnclaveError;
pub use memory::{EpcBudget, MemoryStats};
pub use oblivious::ObliviousBuffer;
