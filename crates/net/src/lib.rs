//! # mixnn-net — the simulated wire under the MixNN update path
//!
//! Everything upstream of this crate moves a round's updates between
//! stages by function call. This crate puts a *network* there — without
//! giving up determinism or pulling in an async runtime:
//!
//! - [`SimNet`] is a seeded discrete-event simulator: virtual
//!   nanosecond clock, per-link latency/jitter/loss/reordering, bounded
//!   send/receive queues with explicit backpressure (a refused
//!   [`SimNet::try_send`] hands the packet back; a full receiver stalls
//!   its inbound links until drained).
//! - [`FrameWriter`] / [`parse_burst`] implement the MIXB burst codec:
//!   length-prefixed, sequence-numbered frames coalesced into one
//!   packet per peer and flush — the transmission analogue of the
//!   crypto layer's batched decrypt.
//! - [`SimLink`] implements the coordinator-facing `RoundLink` over the
//!   simulator, so [`NetCascadeTransport`] runs the unchanged
//!   cascade/server stack across the wire (the single proxy over the wire
//!   is a one-hop chain); wire timeouts surface as typed `LinkError`s
//!   that the cascade's `FailurePolicy` (skip or abort) consumes.
//! - [`run_load`] drives 10^5–10^6 size-only simulated clients
//!   ([`Packet::synthetic`]) through the chain and reports sustained
//!   updates/s, latency percentile samples, peak queue depths and
//!   wire-byte accounting — the data behind `eval load`.

#![deny(missing_docs)]

mod frame;
mod link;
mod load;
mod sim;
mod transport;

pub use frame::{
    burst_overhead_bytes, parse_burst, FrameError, FrameWriter, BURST_HEADER_BYTES, BURST_MAGIC,
    BURST_VERSION, FRAME_HEADER_BYTES,
};
pub use link::{FlushPolicy, SimLink};
pub use load::{arrival_offset, run_load, run_load_with, LoadConfig, LoadError, LoadOutcome};
pub use sim::{LinkConfig, NetStats, Packet, SimNet};
pub use transport::NetCascadeTransport;
