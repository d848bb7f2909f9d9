//! One proxy of the cascade.
//!
//! A [`CascadeHop`] is the cascade's analogue of `mixnn_core::MixnnProxy`:
//! an enclave-resident, attested service. The difference is what it mixes —
//! an intermediate hop never sees plaintext parameters, only the next
//! envelope of each onion layer, so it shuffles **opaque blobs** with a
//! fresh [`MixPlan`] per batch and forwards re-framed ciphertext. The EPC
//! budget, attestation story and §6.5-style [`ProxyStats`] accounting are
//! the same machinery the single-proxy pipeline uses.
//!
//! Under stratified and free-route layouts a hop mixes **partial rounds**:
//! the coordinator hands it one [`CascadeHop::mix_round`] call per route
//! group that traverses it, each carrying only that group's (client,
//! layer) envelopes. A hop on no route receives no calls at all. Nothing
//! in the hop changes for this — a batch is a batch — which is the point:
//! partial-round mixing is purely a routing decision.
//!
//! # Ingest
//!
//! The hop owns the messages it was delivered and works inside them. A
//! round is ingested in windows of [`INGEST_BATCH`] onions. For a window
//! the hop first parses every message's framing where it lies and checks
//! the per-onion structure and the round's uniformity (one kind, one
//! depth) — stopping the window short at the first onion that fails —
//! and derives this hop's shared secret for **all** the window's
//! envelopes in one batched key agreement: eight entry envelopes fill one
//! eight-lane ladder pass, eight onions of five layers fill five, where
//! onion by onion they would take eight passes at 5⁄8 fill. That
//! look-ahead is pure: no ciphertext is touched and nothing is charged.
//! Then, **one onion at a time in submission order**, the hop opens the
//! onion's envelopes in place, charges the unwrapped blobs against the
//! EPC, validates what the unwrap exposed and counts the onion — so at
//! most one uncharged plaintext exists at any moment, and errors,
//! counters and EPC traces are those of an onion-by-onion loop. The first
//! onion that fails any step fails the whole round and releases every
//! byte charged so far.
//!
//! A client's *entry* message carries one envelope around an inner frame
//! (see `onion.rs`): the entry hop opens it, checks the frame it
//! uncovered — inner kind, one envelope shallower, the round's layer
//! count — and mixes that frame's blobs as they are, still sealed to the
//! next hop. Every later hop receives inner messages and opens one
//! envelope per layer.
//!
//! After a successful ingest the plan is applied to slices of the
//! delivered messages and every outgoing message is written exactly once:
//! one buffer copy per blob per hop, the floor while a mix gathers blobs
//! from different messages into one contiguous message. The copy goes
//! into a buffer an earlier stage has finished with when the caller has
//! one to offer, and the hop's own delivered messages are handed back the
//! same way, so along a route only the first hop maps fresh memory.

use crate::onion::{self, OnionView};
use crate::CascadeError;
use mixnn_core::{shard_seed, MixPlan, ProxyError, ProxyStats, INGEST_BATCH};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{CryptoError, PreparedOpen, PublicKey};
use mixnn_enclave::{AttestationService, Enclave, EnclaveConfig, Measurement, Quote};
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Counter, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::ops::Range;
use std::time::Instant;

/// Canonical code identity of the published cascade-hop enclave binary.
/// Every hop of a chain must measure to this; configs that override the
/// enclave settings should keep deriving `code_identity` from this one
/// constant so a typo'd copy cannot silently self-attest under a
/// different identity.
pub const HOP_CODE_IDENTITY: &[u8] = b"mixnn cascade hop v1";

/// Configuration of one cascade hop.
#[derive(Debug, Clone)]
pub struct CascadeHopConfig {
    /// Enclave settings (EPC limit, code identity).
    pub enclave: EnclaveConfig,
    /// RNG seed for this hop's mixing decisions.
    pub seed: u64,
}

impl Default for CascadeHopConfig {
    fn default() -> Self {
        CascadeHopConfig {
            enclave: EnclaveConfig {
                code_identity: HOP_CODE_IDENTITY.to_vec(),
                ..EnclaveConfig::default()
            },
            seed: 0,
        }
    }
}

/// What a participant needs to verify a hop before encrypting to it: its
/// quote, its public key, and the measurement the published hop code
/// should produce.
#[derive(Debug, Clone)]
pub struct HopDescriptor {
    /// The hop's attestation quote.
    pub quote: Quote,
    /// The enclave public key the onion layer for this hop is sealed to.
    pub public_key: PublicKey,
    /// Measurement of the published hop code.
    pub expected_measurement: Measurement,
}

/// One mixing proxy in the chain.
#[derive(Debug)]
pub struct CascadeHop {
    index: usize,
    enclave: Enclave,
    expected_measurement: Measurement,
    rng: StdRng,
    dummy_seed: u64,
    /// The round's per-layer parameter counts. The length is the number
    /// of blobs every onion must carry; the entries let the last hop pin
    /// each unwrapped frame's declared geometry to the signature.
    signature: Vec<usize>,
    stats: ProxyStats,
    telemetry: Telemetry,
}

/// What every onion of one round must agree on: the message kind and the
/// number of envelopes left. Fixed by the round's first onion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RoundShape {
    entry: bool,
    depth: u8,
}

/// The shared secrets a window's key agreement derived, in envelope order.
type Prepared = std::vec::IntoIter<Result<PreparedOpen, CryptoError>>;

/// A successfully ingested round.
struct IngestedRound {
    /// The delivered messages, every envelope addressed to this hop
    /// opened in place.
    messages: Vec<Vec<u8>>,
    /// Where the unwrapped blobs lie: `signature.len()` ranges per
    /// message, in message then layer order.
    blobs: Vec<Range<usize>>,
    /// EPC bytes still charged for those blobs.
    charged: usize,
    /// Envelopes left on every unwrapped blob.
    depth: u8,
}

impl CascadeHop {
    /// Launches the hop inside a fresh enclave.
    ///
    /// `index` is the hop's position in the coordinator's hop list (used
    /// in error reports); `signature` is the model's per-layer parameter
    /// counts — its length is the number of per-layer blobs every onion
    /// must carry, and the last hop of a chain validates each unwrapped
    /// frame's declared geometry against the corresponding entry.
    pub fn launch<R: Rng + ?Sized>(
        index: usize,
        config: CascadeHopConfig,
        signature: &[usize],
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Self {
        let expected_measurement = Enclave::expected_measurement(&config.enclave);
        let enclave = Enclave::launch(config.enclave, attestation, rng);
        CascadeHop {
            index,
            enclave,
            expected_measurement,
            rng: StdRng::seed_from_u64(config.seed),
            // A stream disjoint from the mixing RNG: cover generation must
            // never perturb plan draws, or padded rounds would stop being
            // comparable with unpadded ones. The tag is an arbitrary
            // constant far above any layer index shard_seed sees.
            dummy_seed: shard_seed(config.seed, 0x00c0_ffee),
            signature: signature.to_vec(),
            stats: ProxyStats::default(),
            telemetry: mixnn_telemetry::noop(),
        }
    }

    /// Attaches a telemetry registry (the coordinator propagates its own
    /// handle here). Counters mirror the hop's [`ProxyStats`].
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// Mirrors an absorbed stats delta, and the envelopes opened for the
    /// onions it accepted, into the telemetry counters.
    fn record_absorb(&self, delta: &ProxyStats, envelopes: u64) {
        self.telemetry
            .incr(Counter::CascadeUpdatesIngested, delta.updates_received);
        self.telemetry
            .incr(Counter::CascadeUpdatesRejected, delta.updates_rejected);
        self.telemetry
            .incr(Counter::CascadeUpdatesForwarded, delta.updates_forwarded);
        self.telemetry
            .incr(Counter::CascadeBytesReceived, delta.bytes_received);
        self.telemetry
            .incr(Counter::CascadeEnvelopesOpened, envelopes);
    }

    /// The hop's position in the cascade.
    pub fn index(&self) -> usize {
        self.index
    }

    /// The enclave public key this hop's onion envelope is sealed to.
    pub fn public_key(&self) -> &PublicKey {
        self.enclave.public_key()
    }

    /// The hop's attestation quote.
    pub fn quote(&self) -> &Quote {
        self.enclave.quote()
    }

    /// Everything a participant needs to attest this hop.
    pub fn descriptor(&self) -> HopDescriptor {
        HopDescriptor {
            quote: self.enclave.quote().clone(),
            public_key: *self.enclave.public_key(),
            expected_measurement: self.expected_measurement,
        }
    }

    /// Full participant-side verification of this hop's quote and key
    /// binding.
    pub fn verify_against(&self, attestation: &AttestationService) -> bool {
        attestation.verify_quote(self.quote(), &self.expected_measurement)
            && self.enclave.quote_binds_key()
    }

    /// Cost statistics for this hop (the §6.5-style breakdown).
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// Enclave memory statistics.
    pub fn memory_stats(&self) -> mixnn_enclave::MemoryStats {
        self.enclave.memory().stats()
    }

    fn hop_err(&self, source: ProxyError) -> CascadeError {
        CascadeError::Hop {
            hop: self.index,
            source,
        }
    }

    fn free_charged(&self, charged: usize, context: &str) {
        self.enclave
            .memory()
            .free(charged)
            .unwrap_or_else(|_| panic!("EPC accounting underflow {context}"));
    }

    /// The look-ahead half of one onion's ingest, free of crypto and EPC:
    /// parses the framing where it lies, checks the per-onion structure
    /// and the round's uniformity (`shape` carries what the onions before
    /// this one agreed on), and appends the ranges of the envelopes
    /// addressed to this hop — one for an entry message, one per layer
    /// otherwise.
    fn check_framing(
        &self,
        wire: &[u8],
        shape: &mut Option<RoundShape>,
        envelopes: &mut Vec<Range<usize>>,
    ) -> Result<(), CascadeError> {
        let view = OnionView::parse(wire)?;
        if !view.is_entry() && view.num_layers() != self.signature.len() {
            return Err(self.signature_mismatch(view.num_layers()));
        }
        if view.hops_remaining() == 0 {
            return Err(CascadeError::Onion {
                reason: "no sealed envelopes left for this hop".to_string(),
            });
        }
        let own = RoundShape {
            entry: view.is_entry(),
            depth: view.hops_remaining(),
        };
        match *shape {
            Some(seen) if seen.depth != own.depth => {
                return Err(CascadeError::Onion {
                    reason: format!(
                        "mixed onion depths in one round: {} vs {}",
                        seen.depth, own.depth
                    ),
                });
            }
            Some(seen) if seen.entry != own.entry => {
                return Err(CascadeError::Onion {
                    reason: "entry and inner messages mixed in one round".to_string(),
                });
            }
            _ => *shape = Some(own),
        }
        envelopes.extend(view.blob_ranges());
        Ok(())
    }

    fn signature_mismatch(&self, layers: usize) -> CascadeError {
        self.hop_err(ProxyError::SignatureMismatch {
            expected: vec![self.signature.len()],
            actual: vec![layers],
        })
    }

    /// Opens one envelope in place with the secret the window prepared for
    /// it, replaying the transient decrypt charge.
    fn open_envelope(&self, sealed: &mut [u8], prepared: &mut Prepared) -> Result<(), ProxyError> {
        let opened = prepared
            .next()
            .expect("one prepared secret per envelope")
            .and_then(|secret| secret.open_in_place(sealed));
        Ok(self.enclave.charge_opened(sealed.len(), opened)?)
    }

    /// One onion's turn: opens its envelopes in place, charges every
    /// unwrapped blob while it waits in a mixing list and appends where it
    /// lies to `blobs`. Returns the bytes still charged; a failing onion
    /// frees its own charges first.
    fn open_onion(
        &self,
        wire: &mut [u8],
        shape: RoundShape,
        envelopes: &[Range<usize>],
        prepared: &mut Prepared,
        blobs: &mut Vec<Range<usize>>,
    ) -> Result<usize, CascadeError> {
        let last = shape.depth == 1;
        let mut charged = 0usize;
        let fail = |charged: usize, e: ProxyError| {
            self.free_charged(charged, "while failing an onion");
            self.hop_err(e)
        };
        if !shape.entry {
            for (layer_idx, envelope) in envelopes.iter().enumerate() {
                let blob = envelope.start + OVERHEAD..envelope.end;
                self.open_envelope(&mut wire[envelope.clone()], prepared)
                    .and_then(|()| self.charge_unwrapped(&wire[blob.clone()], layer_idx, last))
                    .map_err(|e| fail(charged, e))?;
                charged += blob.len();
                blobs.push(blob);
            }
            return Ok(charged);
        }
        let envelope = &envelopes[0];
        self.open_envelope(&mut wire[envelope.clone()], prepared)
            .map_err(|e| self.hop_err(e))?;
        // Authenticated now, but by a sender this hop does not trust: the
        // frame the envelope wrapped is checked like any other framing.
        let at = envelope.start + OVERHEAD;
        let inner = OnionView::parse(&wire[at..envelope.end])?;
        if inner.is_entry() {
            return Err(CascadeError::Onion {
                reason: "an entry envelope wraps another entry message".to_string(),
            });
        }
        if inner.hops_remaining() != shape.depth - 1 {
            return Err(CascadeError::Onion {
                reason: format!(
                    "inner frame of depth {} under an entry envelope of depth {}",
                    inner.hops_remaining(),
                    shape.depth
                ),
            });
        }
        if inner.num_layers() != self.signature.len() {
            return Err(self.signature_mismatch(inner.num_layers()));
        }
        for (layer_idx, blob) in inner.blob_ranges().enumerate() {
            let blob = at + blob.start..at + blob.end;
            self.charge_unwrapped(&wire[blob.clone()], layer_idx, last)
                .map_err(|e| fail(charged, e))?;
            charged += blob.len();
            blobs.push(blob);
        }
        Ok(charged)
    }

    /// Charges one unwrapped blob while it waits in a mixing list (the
    /// transient decrypt buffer was charged and released inside
    /// `charge_opened`). When this hop is last the unwrap exposed the
    /// layer's plaintext frame: validate its structure (v1 or v2, headers
    /// and exact geometry — no decompression, no float work) *and* pin its
    /// declared parameter count to the round signature, so a malformed or
    /// mis-sized frame is charged to this ingest instead of surfacing (or
    /// allocating) at the server. A blob that fails holds no charge.
    fn charge_unwrapped(
        &self,
        blob: &[u8],
        layer_idx: usize,
        last: bool,
    ) -> Result<(), ProxyError> {
        self.enclave.memory().allocate(blob.len())?;
        if last {
            let expected = self.signature[layer_idx];
            if let Err(e) = mixnn_core::codec::validate_layer_frame_expecting(blob, expected) {
                self.free_charged(blob.len(), "while failing an onion");
                return Err(e);
            }
        }
        Ok(())
    }

    /// Ingests a whole round in submission order, opening every message in
    /// place, a window of [`INGEST_BATCH`] onions at a time: framing and
    /// key agreement for the window, then one onion after the other (see
    /// the module docs). The first failing onion fails the round and
    /// releases every charge. `delta` accumulates the §6.5 counters, and
    /// `opened` the envelopes of the accepted onions, either way.
    fn ingest_round(
        &self,
        mut incoming: Vec<Vec<u8>>,
        delta: &mut ProxyStats,
        opened: &mut u64,
    ) -> Result<IngestedRound, CascadeError> {
        let mut blobs = Vec::with_capacity(incoming.len() * self.signature.len());
        let mut charged_total = 0usize;
        let mut shape: Option<RoundShape> = None;
        let mut envelopes: Vec<Range<usize>> = Vec::new();
        for window in incoming.chunks_mut(INGEST_BATCH) {
            let t0 = Instant::now();
            envelopes.clear();
            // The window's first failing onion, by position. Bad framing
            // ends the window early and waits here until the onions ahead
            // of it had their turn.
            let mut failed: Option<(usize, CascadeError)> = None;
            for (i, wire) in window.iter().enumerate() {
                if let Err(e) = self.check_framing(wire, &mut shape, &mut envelopes) {
                    failed = Some((i, e));
                    break;
                }
            }
            let admitted = failed.as_ref().map_or(window.len(), |&(i, _)| i);
            delta.store_seconds += t0.elapsed().as_secs_f64();

            let t1 = Instant::now();
            if admitted > 0 {
                let shape = shape.expect("an admitted onion fixed the shape");
                let per_onion = if shape.entry { 1 } else { self.signature.len() };
                let sealed: Vec<&[u8]> = window
                    .iter()
                    .zip(envelopes.chunks(per_onion))
                    .flat_map(|(wire, ranges)| ranges.iter().map(|r| &wire[r.clone()]))
                    .collect();
                let mut prepared = self.enclave.prepare_open(&sealed).into_iter();
                drop(sealed);
                let turns = window.iter_mut().zip(envelopes.chunks(per_onion));
                for (i, (wire, ranges)) in turns.enumerate() {
                    match self.open_onion(wire, shape, ranges, &mut prepared, &mut blobs) {
                        Ok(charged) => {
                            delta.bytes_received += wire.len() as u64;
                            delta.updates_received += 1;
                            charged_total += charged;
                            *opened += per_onion as u64;
                        }
                        Err(e) => {
                            failed = Some((i, e));
                            break;
                        }
                    }
                }
            }
            delta.decrypt_seconds += t1.elapsed().as_secs_f64();
            if let Some((i, e)) = failed {
                let len = window[i].len() as u64;
                delta.bytes_received += len;
                delta.updates_rejected += 1;
                delta.bytes_rejected += len;
                self.free_charged(charged_total, "while failing a round");
                return Err(e);
            }
        }
        let shape = shape.expect("non-empty round saw a shape");
        Ok(IngestedRound {
            messages: incoming,
            blobs,
            charged: charged_total,
            depth: shape.depth - 1,
        })
    }

    /// Draws the round's plan, applies it to the opened blobs where they
    /// lie and frames the outputs; releases the round's EPC charges on
    /// both paths.
    fn finish_round(
        &mut self,
        ingested: IngestedRound,
        spent: &mut Vec<Vec<u8>>,
        delta: &mut ProxyStats,
    ) -> Result<(Vec<Vec<u8>>, MixPlan), CascadeError> {
        let t0 = Instant::now();
        let IngestedRound {
            messages,
            blobs,
            charged,
            depth,
        } = ingested;
        let rows: Vec<Vec<&[u8]>> = messages
            .iter()
            .zip(blobs.chunks(self.signature.len()))
            .map(|(wire, blobs)| blobs.iter().map(|blob| &wire[blob.clone()]).collect())
            .collect();
        // The shared round-plan policy (`MixPlan::for_round`) keeps this
        // hop's mixing semantics identical to the single proxy's. The plan
        // is drawn only after a fully successful ingest, so a failed round
        // never advances the hop's RNG stream.
        let mixed = MixPlan::for_round(rows.len(), self.signature.len(), &mut self.rng)
            .and_then(|plan| Ok((plan.apply_owned(rows)?, plan)));
        let (mixed, plan) = match mixed {
            Ok(out) => out,
            Err(e) => {
                self.free_charged(charged, "while failing a round");
                return Err(self.hop_err(e));
            }
        };
        let outgoing: Vec<Vec<u8>> = mixed
            .iter()
            .map(|layers| onion::frame(depth, layers, spent.pop().unwrap_or_default()))
            .collect();
        // The last borrow of the delivered messages: they are spent now.
        drop(mixed);
        spent.extend(messages);
        self.free_charged(charged, "after mixing");
        delta.mix_seconds += t0.elapsed().as_secs_f64();
        delta.updates_forwarded += outgoing.len() as u64;
        Ok((outgoing, plan))
    }

    /// Processes one round of delivered messages: unwraps this hop's
    /// envelope on every (client, layer) blob inside the message that
    /// carried it, draws a fresh [`MixPlan`], shuffles the blobs across
    /// clients per layer, and frames the outputs for the next hop (or,
    /// after the last hop, for the server).
    ///
    /// `spent` carries message buffers whose contents are dead (any
    /// capacity, possibly none at all): the hop writes its outgoing
    /// messages into them before it allocates, and on success leaves the
    /// delivered messages — spent by then — in their place, for the next
    /// stage. It never changes a byte of the result.
    ///
    /// The round is all-or-nothing: any failure — malformed framing, a
    /// ciphertext this hop cannot open, EPC exhaustion — releases every
    /// byte charged so far and fails the whole round, so the coordinator
    /// can apply its skip-or-abort policy. The plan is returned for audits
    /// and experiments (in a deployment it never leaves the enclave).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Onion`] for framing violations,
    /// [`CascadeError::Hop`] for enclave/plan failures, and
    /// [`CascadeError::EmptyRound`] for an empty round.
    pub fn mix_delivered(
        &mut self,
        incoming: Vec<Vec<u8>>,
        spent: &mut Vec<Vec<u8>>,
    ) -> Result<(Vec<Vec<u8>>, MixPlan), CascadeError> {
        if incoming.is_empty() {
            return Err(CascadeError::EmptyRound);
        }
        let mut delta = ProxyStats::default();
        let mut envelopes = 0u64;
        let result = self
            .ingest_round(incoming, &mut delta, &mut envelopes)
            .and_then(|ingested| self.finish_round(ingested, spent, &mut delta));
        self.stats.absorb(&delta);
        self.record_absorb(&delta, envelopes);
        result
    }

    /// [`CascadeHop::mix_delivered`] for a caller that keeps its batch:
    /// copies the messages, then processes the copies. Same outputs, plan,
    /// errors, stats and EPC accounting.
    ///
    /// # Errors
    ///
    /// Exactly those of [`CascadeHop::mix_delivered`].
    pub fn mix_round(
        &mut self,
        incoming: &[Vec<u8>],
    ) -> Result<(Vec<Vec<u8>>, MixPlan), CascadeError> {
        self.mix_delivered(incoming.to_vec(), &mut Vec::new())
    }

    /// Generates one cover ("dummy") update for this hop.
    ///
    /// The parameters follow the same wire signature as real updates and
    /// are sealed by the coordinator exactly like a client's, so on the
    /// wire a dummy is byte-indistinguishable from real traffic (same
    /// envelope count, same ciphertext length, fresh randomness). The
    /// *values* are drawn from a per-hop stream keyed by `(dummy_seed,
    /// nonce)` — independent of the mixing RNG, so injecting cover never
    /// changes the plans a round would draw. Deterministic per nonce: the
    /// coordinator re-derives the digest the server strips by, and
    /// replaying a seed reproduces the exact cover bytes.
    pub fn generate_dummy(&self, signature: &[usize], nonce: u64) -> ModelParams {
        let mut rng = StdRng::seed_from_u64(shard_seed(self.dummy_seed, nonce as usize));
        ModelParams::from_layers(
            signature
                .iter()
                .map(|&len| {
                    LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::OnionUpdate;
    use mixnn_nn::{LayerParams, ModelParams};

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![(i * 10) as f32; 2]),
        ])
    }

    fn launch_chain(
        n: usize,
        signature: &[usize],
    ) -> (Vec<CascadeHop>, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(11);
        let service = AttestationService::new(&mut rng);
        let hops = (0..n)
            .map(|i| {
                CascadeHop::launch(
                    i,
                    CascadeHopConfig {
                        seed: 100 + i as u64,
                        ..CascadeHopConfig::default()
                    },
                    signature,
                    &service,
                    &mut rng,
                )
            })
            .collect();
        (hops, service, rng)
    }

    fn onions(hops: &[CascadeHop], c: usize, rng: &mut StdRng) -> Vec<Vec<u8>> {
        let keys: Vec<PublicKey> = hops.iter().map(|h| *h.public_key()).collect();
        (0..c)
            .map(|i| OnionUpdate::build(&params(i), &keys, rng).unwrap().encode())
            .collect()
    }

    #[test]
    fn hop_verifies_against_the_platform() {
        let (hops, service, _) = launch_chain(2, &[3, 2]);
        for h in &hops {
            assert!(h.verify_against(&service));
            let d = h.descriptor();
            assert!(service.verify_quote(&d.quote, &d.expected_measurement));
        }
    }

    #[test]
    fn two_hop_round_restores_layer_multiset_and_frees_memory() {
        let (mut hops, _, mut rng) = launch_chain(2, &[3, 2]);
        let batch = onions(&hops, 5, &mut rng);

        let (batch, plan0) = hops[0].mix_round(&batch).unwrap();
        let (batch, plan1) = hops[1].mix_round(&batch).unwrap();
        assert!(plan0.is_column_bijective());
        assert!(plan1.is_column_bijective());

        let originals: Vec<ModelParams> = (0..5).map(params).collect();
        let outputs: Vec<ModelParams> = batch
            .iter()
            .map(|wire| {
                OnionUpdate::decode(wire)
                    .unwrap()
                    .into_params(&[3, 2])
                    .unwrap()
            })
            .collect();
        // Per-layer multiset conservation ⇒ identical mean.
        assert_eq!(ModelParams::mean(&originals), ModelParams::mean(&outputs));
        for h in &hops {
            assert_eq!(h.memory_stats().allocated, 0);
            assert_eq!(h.stats().updates_received, 5);
            assert_eq!(h.stats().updates_forwarded, 5);
        }
    }

    #[test]
    fn garbage_wire_fails_the_round_and_leaks_nothing() {
        let (mut hops, _, mut rng) = launch_chain(1, &[3, 2]);
        let mut batch = onions(&hops, 3, &mut rng);
        batch[1] = vec![0u8; 40];
        assert!(hops[0].mix_round(&batch).is_err());
        assert_eq!(hops[0].memory_stats().allocated, 0);
        assert_eq!(hops[0].stats().updates_rejected, 1);
        assert_eq!(hops[0].stats().bytes_rejected, 40);
    }

    #[test]
    fn tampered_envelope_fails_authentication() {
        let (mut hops, _, mut rng) = launch_chain(1, &[3, 2]);
        let mut batch = onions(&hops, 3, &mut rng);
        let last = batch[0].len() - 1;
        batch[0][last] ^= 1;
        let err = hops[0].mix_round(&batch).unwrap_err();
        assert!(matches!(err, CascadeError::Hop { hop: 0, .. }));
        assert_eq!(hops[0].memory_stats().allocated, 0);
    }

    #[test]
    fn epc_exhaustion_fails_the_round_cleanly() {
        let mut rng = StdRng::seed_from_u64(12);
        let service = AttestationService::new(&mut rng);
        let mut hop = CascadeHop::launch(
            0,
            CascadeHopConfig {
                enclave: EnclaveConfig {
                    // One update fits — its 47-byte inner frame while the
                    // entry envelope is opened, then its 28 bytes of blobs —
                    // a round does not.
                    epc_limit: 48,
                    code_identity: HOP_CODE_IDENTITY.to_vec(),
                },
                seed: 5,
            },
            &[3, 2],
            &service,
            &mut rng,
        );
        let keys = [*hop.public_key()];
        let batch: Vec<Vec<u8>> = (0..4)
            .map(|i| {
                OnionUpdate::build(&params(i), &keys, &mut rng)
                    .unwrap()
                    .encode()
            })
            .collect();
        let err = hop.mix_round(&batch).unwrap_err();
        assert!(matches!(
            err,
            CascadeError::Hop {
                source: ProxyError::Enclave(mixnn_enclave::EnclaveError::MemoryExhausted { .. }),
                ..
            }
        ));
        assert_eq!(hop.memory_stats().allocated, 0, "failed round must free");
        // One update's blobs fit, the second's do not: the counters show
        // exactly that prefix.
        let stats = hop.stats();
        assert_eq!((stats.updates_received, stats.updates_rejected), (1, 1));
        assert_eq!(stats.bytes_rejected, batch[1].len() as u64);
        assert_eq!(
            stats.bytes_received,
            (batch[0].len() + batch[1].len()) as u64
        );
    }

    #[test]
    fn mixed_depth_round_is_rejected_before_decryption_and_leaks_nothing() {
        let (mut hops, _, mut rng) = launch_chain(2, &[3, 2]);
        let mut batch = onions(&hops, 4, &mut rng);
        // Onion 2 sealed for a single hop: depth 1 among depth-2 peers.
        let keys = [*hops[0].public_key()];
        batch[2] = OnionUpdate::build(&params(9), &keys, &mut rng)
            .unwrap()
            .encode();
        let err = hops[0].mix_round(&batch).unwrap_err();
        assert!(err.to_string().contains("mixed onion depths"), "{err}");
        assert_eq!(hops[0].memory_stats().allocated, 0);
        let stats = hops[0].stats();
        assert_eq!((stats.updates_received, stats.updates_rejected), (2, 1));
        assert_eq!(stats.bytes_rejected, batch[2].len() as u64);
    }

    #[test]
    fn fully_unwrapped_round_is_rejected() {
        let (mut hops, _, mut rng) = launch_chain(1, &[3, 2]);
        let batch = onions(&hops, 3, &mut rng);
        let (unwrapped, _) = hops[0].mix_round(&batch).unwrap();
        // Feeding the plaintext-bearing output back into a hop must fail:
        // no envelope is addressed to it.
        let err = hops[0].mix_round(&unwrapped).unwrap_err();
        assert!(err.to_string().contains("no sealed envelopes"));
    }
}
