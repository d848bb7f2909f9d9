//! Digest helpers shared by the golden-round tests.
//!
//! A scenario has **two** golden digests, so that a deliberate change of
//! the wire format can be re-recorded without loosening what does not
//! depend on it:
//!
//! * the *round* digest is framing-independent — SHA-256 over the encoded
//!   `mixed` outputs, every audit plan's source table, the chain and the
//!   skipped hops, the cover digests and stripped server outputs of a
//!   padded round, and each hop's `updates_{received,forwarded,rejected}`.
//!   Nothing in it moves when message bytes or sealing entropy do;
//! * the *wire* digest is framing-dependent — each hop's `bytes_received`
//!   / `bytes_rejected`, its EPC
//!   [`MemoryStats`](mixnn_enclave::MemoryStats), and one `u64` drawn
//!   from the caller's RNG after the round (so the sealing-entropy
//!   consumption is pinned too).

#![allow(dead_code)] // each test binary uses its own subset

use mixnn_cascade::{CascadeCoordinator, CascadeRound, PaddedRound};
use mixnn_core::{codec, RoundTranscript};
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
struct Digest(Sha256);

impl Digest {
    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
    }

    fn usizes(&mut self, vs: &[usize]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.u64(v as u64);
        }
    }

    fn bytes(&mut self, b: &[u8]) {
        self.u64(b.len() as u64);
        self.0.update(b);
    }

    fn params(&mut self, params: &[ModelParams]) {
        self.u64(params.len() as u64);
        for p in params {
            self.bytes(&codec::encode_params(p));
        }
    }

    fn hex(self) -> String {
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

/// One scenario's pair of digests, fed side by side.
pub struct Golden {
    round: Digest,
    wire: Digest,
}

impl Golden {
    pub fn new() -> Self {
        Golden {
            round: Digest(Sha256::new()),
            wire: Digest(Sha256::new()),
        }
    }

    fn audit(&mut self, audit: &RoundTranscript) {
        let g = &mut self.round;
        g.u64(audit.clients() as u64);
        g.u64(audit.groups().len() as u64);
        for group in audit.groups() {
            g.usizes(group.slots());
            g.usizes(group.route());
            for plan in group.plans() {
                g.u64(plan.participants() as u64);
                g.u64(plan.layers() as u64);
                for l in 0..plan.layers() {
                    for i in 0..plan.participants() {
                        g.u64(plan.source(l, i).expect("in range") as u64);
                    }
                }
            }
        }
    }

    pub fn round(&mut self, round: &CascadeRound) {
        self.round.params(&round.mixed);
        self.audit(&round.audit);
        self.round.usizes(&round.audit.hops());
        self.round.usizes(&round.skipped_this_round);
    }

    pub fn padded(&mut self, padded: &PaddedRound) {
        self.round(&padded.round);
        let g = &mut self.round;
        g.u64(padded.round.audit.real() as u64);
        g.u64(padded.dummy_digests.len() as u64);
        for dummy in &padded.dummy_digests {
            for layer in dummy {
                g.0.update(layer);
            }
        }
        g.params(&padded.server_outputs().expect("cover strips cleanly"));
    }

    /// Every hop's update counters and the skip flags (round digest); its
    /// byte counters and EPC state (wire digest).
    pub fn hops(&mut self, cascade: &CascadeCoordinator) {
        for hop in cascade.hops() {
            let s = hop.stats();
            for v in [s.updates_received, s.updates_forwarded, s.updates_rejected] {
                self.round.u64(v);
            }
            for v in [s.bytes_received, s.bytes_rejected] {
                self.wire.u64(v);
            }
            let m = hop.memory_stats();
            self.wire.u64(m.allocated as u64);
            self.wire.u64(m.limit as u64);
            self.wire.u64(m.high_water as u64);
            self.wire.u64(m.paging_events);
            self.wire.u64(m.paged_out as u64);
        }
        self.round.usizes(&cascade.skipped_hops());
    }

    /// Draws the post-round `u64` from the caller's RNG into the wire
    /// digest and finishes both: `(round, wire)`.
    pub fn finish(mut self, rng: &mut StdRng) -> (String, String) {
        self.wire.u64(rng.gen());
        (self.round.hex(), self.wire.hex())
    }
}

/// Compares every scenario's `(round, wire)` digests against the two
/// recorded tables. On a drift the panic names the half that moved and
/// prints both actual tables, so re-recording on the commit that means to
/// change the bytes is a copy-paste — of the *wire* table only, unless the
/// PR means to change what rounds output.
pub fn check(actual: &[(String, (String, String))], expected_round: &str, expected_wire: &str) {
    let table = |pick: fn(&(String, String)) -> &String| -> String {
        actual
            .iter()
            .map(|(name, digests)| format!("{name} {}\n", pick(digests)))
            .collect()
    };
    let (round, wire) = (table(|d| &d.0), table(|d| &d.1));
    let drifted = match (round == expected_round, wire == expected_wire) {
        (true, true) => return,
        (false, _) => "framing-independent: outputs, plans, chain or update counters changed",
        (true, false) => "framing-dependent: bytes, EPC charges or caller-RNG consumption changed",
    };
    panic!("golden digests drifted ({drifted})\nround table:\n{round}\nwire table:\n{wire}");
}
