//! Digest helpers shared by the golden-round tests.
//!
//! A golden digest is SHA-256 over everything a cascade round makes
//! observable that must not drift between commits: the encoded `mixed`
//! outputs, every audit plan's source table, each hop's non-timing
//! [`ProxyStats`](mixnn_core::ProxyStats) counters and EPC
//! [`MemoryStats`](mixnn_enclave::MemoryStats), and one `u64` drawn from
//! the caller's RNG after the round (so the sealing-entropy consumption is
//! pinned too).

#![allow(dead_code)] // each test binary uses its own subset

use mixnn_cascade::{CascadeAudit, CascadeCoordinator, CascadeRound, PaddedRound};
use mixnn_core::codec;
use mixnn_crypto::sha256::Sha256;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Deterministic, value-diverse updates: `clients` models of `signature`.
pub fn updates(clients: usize, signature: &[usize], seed: u64) -> Vec<ModelParams> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|_| {
            ModelParams::from_layers(
                signature
                    .iter()
                    .map(|&len| {
                        LayerParams::from_values(
                            (0..len).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
                        )
                    })
                    .collect(),
            )
        })
        .collect()
}

/// Incremental SHA-256 with length-prefixed fields.
pub struct Golden(Sha256);

impl Golden {
    pub fn new() -> Self {
        Golden(Sha256::new())
    }

    pub fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    pub fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    pub fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.update(b);
    }

    pub fn params(&mut self, params: &[ModelParams]) {
        self.u64(params.len() as u64);
        for p in params {
            self.bytes(&codec::encode_params(p));
        }
    }

    pub fn audit(&mut self, audit: &CascadeAudit) {
        self.u64(audit.clients() as u64);
        self.u64(audit.groups().len() as u64);
        for group in audit.groups() {
            self.usizes(group.slots());
            self.usizes(group.route());
            for plan in group.plans() {
                self.u64(plan.participants() as u64);
                self.u64(plan.layers() as u64);
                for l in 0..plan.layers() {
                    for i in 0..plan.participants() {
                        self.u64(plan.source(l, i).expect("in range") as u64);
                    }
                }
            }
        }
    }

    pub fn round(&mut self, round: &CascadeRound) {
        self.params(&round.mixed);
        self.audit(&round.audit);
        self.usizes(&round.chain);
        self.usizes(&round.skipped_this_round);
    }

    pub fn padded(&mut self, padded: &PaddedRound) {
        self.round(&padded.round);
        self.u64(padded.real as u64);
        self.u64(padded.dummy_digests.len() as u64);
        for dummy in &padded.dummy_digests {
            for layer in dummy {
                self.0.update(layer);
            }
        }
        self.params(&padded.server_outputs().expect("cover strips cleanly"));
    }

    /// Every hop's non-timing counters and EPC state, plus the skip flags.
    pub fn hops(&mut self, cascade: &CascadeCoordinator) {
        for hop in cascade.hops() {
            let s = hop.stats();
            for v in [
                s.updates_received,
                s.updates_forwarded,
                s.updates_rejected,
                s.bytes_received,
                s.bytes_rejected,
            ] {
                self.u64(v);
            }
            let m = hop.memory_stats();
            self.u64(m.allocated as u64);
            self.u64(m.limit as u64);
            self.u64(m.high_water as u64);
            self.u64(m.paging_events);
            self.u64(m.paged_out as u64);
        }
        self.usizes(&cascade.skipped_hops());
    }

    /// Draws the post-round `u64` from the caller's RNG and finishes.
    pub fn finish(mut self, rng: &mut StdRng) -> String {
        self.u64(rng.gen());
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// Compares every `(scenario, digest)` against its recorded constant. On a
/// drift the assertion prints the full actual table, so re-recording on
/// the commit that means to change the bytes is a copy-paste.
pub fn check(actual: &[(String, String)], expected: &str) {
    let actual: String = actual
        .iter()
        .map(|(name, digest)| format!("{name} {digest}\n"))
        .collect();
    assert_eq!(actual, expected, "golden digests drifted");
}
