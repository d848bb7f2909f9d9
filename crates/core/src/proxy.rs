//! The deployed MixNN proxy.
//!
//! # Ingest
//!
//! There is one ingest routine (`MixnnProxy::ingest_sealed`, private to
//! this crate) behind the proxy's two ways in, and it is strictly in
//! submission order. The shared secrets of eight sealed
//! updates (`INGEST_BATCH`, one full pass of the eight-lane X25519
//! ladder) are derived together — pure key agreement: no ciphertext is
//! touched, nothing is charged — then each update in turn is opened,
//! replays the decrypt charge, is decoded and validated, charges its
//! buffer footprint and is committed before the next one is even
//! decrypted. At most one uncharged plaintext exists at any time, and
//! nothing is ever charged ahead of its commit, so the EPC sees exactly the sequence a
//! one-by-one loop would produce — [`MixnnProxy::submit_encrypted`] *is*
//! that routine with a batch of one, and [`MixnnProxy::mix_sealed_round`]
//! is that routine over a whole round followed by the mix.
//!
//! # Mix
//!
//! The proxy mixes one way, the §4.2 batch construction: it buffers the
//! round, draws one [`MixPlan::for_round`] from its enclave RNG and moves
//! every layer into its output slot with [`MixPlan::apply_owned`] — the
//! same two calls a cascade hop makes.
//!
//! # Failure unit
//!
//! A rejected update is counted and skipped, and leaves what the proxy
//! already holds untouched: that is the whole contract of
//! `submit_encrypted`, whose caller decides what a rejection means. A
//! *round* handed over through `mix_sealed_round` is all-or-nothing, like
//! a cascade hop's: if any of its updates is rejected the call returns
//! that first error and the proxy holds nothing afterwards — no buffered
//! update, no EPC charge — so a failed round can neither wedge the enclave
//! nor leak its accepted updates into the next round's mix.

use crate::{codec, MixPlan, ProxyError};
use mixnn_crypto::PublicKey;
use mixnn_enclave::{AttestationService, Enclave, EnclaveConfig, Measurement, Quote};
use mixnn_nn::ModelParams;
use mixnn_telemetry::{Component, Counter, Distribution, Span, Telemetry, TraceKind};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// Configuration of a MixNN proxy instance.
#[derive(Debug, Clone, Default)]
pub struct MixnnProxyConfig {
    /// Layer signature of the model being proxied — launch-time
    /// configuration, as a cascade hop's is (§4.3: the memory allocation
    /// "according to the considered neural network models \[is\]
    /// initialized at the creation of the enclave"). It is never inferred
    /// from traffic: a proxy launched with the empty default rejects every
    /// update with [`ProxyError::SignatureMismatch`].
    pub expected_signature: Vec<usize>,
    /// Enclave settings (EPC limit, code identity).
    pub enclave: EnclaveConfig,
    /// RNG seed for mixing decisions inside the enclave.
    pub seed: u64,
}

/// Sealed updates whose shared secrets the proxy's ingest — and a cascade
/// hop's — derives per batched key agreement: the lane
/// count of the AVX-512 IFMA ladder, whose pass costs the same whatever
/// its fill, so every lane carries an envelope. Only the 32-byte secrets
/// wait for their turn — each update is decrypted when it is charged and
/// committed, never ahead of it.
pub const INGEST_BATCH: usize = 8;

/// §6.5-style cost accounting for the proxy pipeline.
///
/// The paper reports per-update decryption (0.17 s), storage (0.02 s) and
/// mixing (0.03 s) times for its models; these counters regenerate that
/// breakdown for ours.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ProxyStats {
    /// Encrypted updates received.
    pub updates_received: u64,
    /// Mixed updates forwarded to the server.
    pub updates_forwarded: u64,
    /// Updates rejected (bad ciphertext, wrong signature).
    pub updates_rejected: u64,
    /// Ciphertext bytes received.
    pub bytes_received: u64,
    /// Ciphertext bytes belonging to rejected updates (a subset of
    /// [`ProxyStats::bytes_received`]).
    pub bytes_rejected: u64,
    /// Total seconds spent decrypting.
    pub decrypt_seconds: f64,
    /// Total seconds spent decoding and storing into the round buffer.
    pub store_seconds: f64,
    /// Total seconds spent mixing.
    pub mix_seconds: f64,
}

impl ProxyStats {
    /// Adds another record into this one, field by field.
    pub fn absorb(&mut self, other: &ProxyStats) {
        self.updates_received += other.updates_received;
        self.updates_forwarded += other.updates_forwarded;
        self.updates_rejected += other.updates_rejected;
        self.bytes_received += other.bytes_received;
        self.bytes_rejected += other.bytes_rejected;
        self.decrypt_seconds += other.decrypt_seconds;
        self.store_seconds += other.store_seconds;
        self.mix_seconds += other.mix_seconds;
    }
}

/// The MixNN proxy: an enclave-resident service that receives encrypted
/// per-layer model updates, mixes layers across participants and forwards
/// the mixed updates to the aggregation server.
///
/// See the crate docs for the privacy argument. The proxy's public surface
/// mirrors a deployment: participants fetch [`MixnnProxy::quote`] and
/// [`MixnnProxy::public_key`], verify, then submit sealed updates via
/// [`MixnnProxy::submit_encrypted`] (a transport hands over a whole round
/// through [`MixnnProxy::mix_sealed_round`]); the server-facing side emits
/// mixed updates.
#[derive(Debug)]
pub struct MixnnProxy {
    enclave: Enclave,
    expected_measurement: Measurement,
    signature: Vec<usize>,
    batch_buffer: Vec<ModelParams>,
    /// The enclave's mixing entropy: one [`MixPlan::for_round`] draw per
    /// round, as a cascade hop draws its plans.
    rng: StdRng,
    last_plan: Option<MixPlan>,
    stats: ProxyStats,
    telemetry: Telemetry,
}

impl MixnnProxy {
    /// Launches the proxy inside a fresh enclave and obtains its
    /// attestation quote.
    pub fn launch<R: Rng + ?Sized>(
        config: MixnnProxyConfig,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Self {
        let expected_measurement = Enclave::expected_measurement(&config.enclave);
        let enclave = Enclave::launch(config.enclave, attestation, rng);
        MixnnProxy {
            enclave,
            expected_measurement,
            signature: config.expected_signature,
            batch_buffer: Vec::new(),
            rng: StdRng::seed_from_u64(config.seed),
            last_plan: None,
            stats: ProxyStats::default(),
            telemetry: mixnn_telemetry::noop(),
        }
    }

    /// Attaches a telemetry registry. Hooks are always wired (the default
    /// handle is the shared no-op registry).
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The attached telemetry handle (the no-op registry by default).
    pub fn telemetry(&self) -> &Telemetry {
        &self.telemetry
    }

    /// The enclave public key participants encrypt to (`k_pub`).
    pub fn public_key(&self) -> &PublicKey {
        self.enclave.public_key()
    }

    /// The enclave's attestation quote.
    pub fn quote(&self) -> &Quote {
        self.enclave.quote()
    }

    /// Full participant-side verification: the quote is signed by the
    /// platform, attests the expected code, and binds this proxy's public
    /// key.
    pub fn verify_against(&self, attestation: &AttestationService) -> bool {
        attestation.verify_quote(self.quote(), &self.expected_measurement)
            && self.enclave.quote_binds_key()
    }

    /// Cost statistics (the §6.5 numbers).
    pub fn stats(&self) -> ProxyStats {
        self.stats
    }

    /// Enclave memory statistics (per-update consumption, high-water mark).
    pub fn memory_stats(&self) -> mixnn_enclave::MemoryStats {
        self.enclave.memory().stats()
    }

    /// The mixing plan of the most recent round — the one drawn by
    /// [`MixnnProxy::mix_batch`] — for experiments and audits (never
    /// exposed in a deployment).
    pub fn last_plan(&self) -> Option<&MixPlan> {
        self.last_plan.as_ref()
    }

    /// Updates currently buffered inside the enclave.
    pub fn buffered(&self) -> usize {
        self.batch_buffer.len()
    }

    /// Ingests one encrypted update and buffers it until
    /// [`MixnnProxy::mix_batch`].
    ///
    /// The plaintext is charged against the enclave's EPC budget while
    /// buffered. This is the proxy's one ingest routine with a batch of one
    /// (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::Enclave`] for decryption/memory failures,
    /// [`ProxyError::Codec`] for malformed plaintext and
    /// [`ProxyError::SignatureMismatch`] for foreign models. Rejected
    /// updates are counted and leave the proxy state unchanged.
    pub fn submit_encrypted(&mut self, sealed: &[u8]) -> Result<(), ProxyError> {
        self.ingest_sealed(&[sealed])
            .pop()
            .expect("one result per sealed update")
    }

    /// Ingests sealed updates in submission order, returning one result
    /// per input in input order: each batch
    /// of eight shares one key-agreement pass, then every update of it is
    /// opened, charged, decoded, validated and committed before the next
    /// (see the module docs). A rejected update is counted and skipped;
    /// the rest of the round is still ingested.
    pub(crate) fn ingest_sealed<T: AsRef<[u8]>>(
        &mut self,
        sealed: &[T],
    ) -> Vec<Result<(), ProxyError>> {
        let mut results = Vec::with_capacity(sealed.len());
        for batch in sealed.chunks(INGEST_BATCH) {
            let t0 = Instant::now();
            let prepared = self.enclave.prepare_open(batch);
            // The batch shares its ladder passes; attribute them evenly.
            let ladder_seconds = t0.elapsed().as_secs_f64() / batch.len() as f64;
            for (prepared, sealed) in prepared.into_iter().zip(batch) {
                let sealed = sealed.as_ref();
                let sealed_len = sealed.len();
                let t1 = Instant::now();
                let opened = prepared.and_then(|p| p.open(sealed));
                let decrypt_seconds = ladder_seconds + t1.elapsed().as_secs_f64();
                self.stats.bytes_received += sealed_len as u64;
                let result = self.commit_opened(sealed_len, opened, decrypt_seconds);
                if result.is_err() {
                    self.stats.updates_rejected += 1;
                    self.stats.bytes_rejected += sealed_len as u64;
                    self.telemetry.incr(Counter::CoreUpdatesRejected, 1);
                }
                results.push(result);
            }
        }
        results
    }

    /// One opened update's turn: replay the decrypt charge, decode and
    /// validate, charge the buffer footprint, buffer the update. On any
    /// error every charge taken here has been released and the proxy state
    /// is unchanged (the caller counts the rejection).
    fn commit_opened(
        &mut self,
        sealed_len: usize,
        opened: Result<Vec<u8>, mixnn_crypto::CryptoError>,
        decrypt_seconds: f64,
    ) -> Result<(), ProxyError> {
        let plaintext = self.enclave.charge_opened(sealed_len, opened)?;
        let t0 = Instant::now();
        // The declared geometry is pinned to the configured signature
        // before any value buffer is allocated, so a crafted header cannot
        // name an allocation the round never authorized — and a foreign
        // model is rejected here, whatever arrived before it.
        let params = codec::decode_params_expecting(&plaintext, &self.signature)?;
        // Charge the decoded update against the EPC while it sits in the
        // buffer.
        self.enclave.memory().allocate(Self::footprint(&params))?;
        // The update only got this far if the sealed envelope opened.
        self.telemetry.incr(Counter::CoreEnvelopesOpened, 1);
        self.batch_buffer.push(params);
        self.stats.decrypt_seconds += decrypt_seconds;
        self.stats.store_seconds += t0.elapsed().as_secs_f64();
        self.stats.updates_received += 1;
        self.telemetry.incr(Counter::CoreUpdatesCommitted, 1);
        self.telemetry
            .incr(Counter::CoreBytesReceived, sealed_len as u64);
        Ok(())
    }

    /// One whole proxy round over sealed bytes: ingest every update in
    /// submission order, then mix the batch. All or nothing, like a
    /// cascade hop's `mix_delivered`.
    ///
    /// # Errors
    ///
    /// The first rejected update's error, or the mixing error of an empty
    /// round. A round with a rejected update forwards nothing and leaves
    /// the proxy holding nothing: every buffered update — the round's
    /// accepted ones and any an earlier [`MixnnProxy::submit_encrypted`]
    /// left — is dropped and its EPC charge released, so
    /// [`MixnnProxy::buffered`] and the enclave's allocation read zero.
    /// The received / rejected counters keep what the ingest counted.
    pub fn mix_sealed_round<T: AsRef<[u8]>>(
        &mut self,
        sealed: &[T],
    ) -> Result<Vec<ModelParams>, ProxyError> {
        self.telemetry.trace(
            Component::Core,
            None,
            TraceKind::IngestStaged {
                updates: sealed.len() as u64,
            },
        );
        let results = self.ingest_sealed(sealed);
        let accepted = results.iter().filter(|r| r.is_ok()).count() as u64;
        self.telemetry.trace(
            Component::Core,
            None,
            TraceKind::IngestCommitted {
                accepted,
                rejected: results.len() as u64 - accepted,
            },
        );
        if let Some(e) = results.into_iter().find_map(Result::err) {
            self.take_held()?;
            return Err(e);
        }
        self.mix_batch()
    }

    /// Takes every buffered update and releases its EPC charge.
    fn take_held(&mut self) -> Result<Vec<ModelParams>, ProxyError> {
        let held = std::mem::take(&mut self.batch_buffer);
        let charged = held.iter().map(Self::footprint).sum();
        self.enclave.memory().free(charged)?;
        Ok(held)
    }

    /// EPC bytes a decoded update is charged while it sits in the buffer
    /// (4 bytes per scalar, as in §6.5's per-update footprint).
    fn footprint(update: &ModelParams) -> usize {
        update.total_len() * std::mem::size_of::<f32>()
    }

    /// Mixes everything buffered and returns the mixed updates in slot
    /// order, freeing the enclave memory they occupied. The plan is
    /// [`MixPlan::for_round`] over the buffer, exactly as a cascade hop
    /// draws its own; every buffered update already matches the launch
    /// signature, which ingest enforced.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] if nothing is buffered.
    pub fn mix_batch(&mut self) -> Result<Vec<ModelParams>, ProxyError> {
        let _span = self.telemetry.span(Span::CoreMixBatch);
        let t0 = Instant::now();
        // The plan is drawn while the proxy still owns the buffer, so a
        // failed mix leaves it intact; after that the layers are moved
        // into their output slots, never cloned.
        let plan =
            MixPlan::for_round(self.batch_buffer.len(), self.signature.len(), &mut self.rng)?;
        let rows = self
            .take_held()?
            .into_iter()
            .map(ModelParams::into_layers)
            .collect();
        let mixed: Vec<ModelParams> = plan
            .apply_owned(rows)
            .expect("the plan was drawn for exactly this buffer")
            .into_iter()
            .map(ModelParams::from_layers)
            .collect();
        self.stats.mix_seconds += t0.elapsed().as_secs_f64();
        self.stats.updates_forwarded += mixed.len() as u64;
        self.last_plan = Some(plan);
        self.telemetry.incr(Counter::CoreBatchesMixed, 1);
        self.telemetry
            .observe(Distribution::CoreMixBatchUpdates, mixed.len() as u64);
        self.telemetry.trace(
            Component::Core,
            None,
            TraceKind::BatchMixed {
                updates: mixed.len() as u64,
            },
        );
        Ok(mixed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_crypto::sealed_box::OVERHEAD as SEAL_OVERHEAD;
    use mixnn_crypto::SealedBox;
    use mixnn_nn::LayerParams;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![(i * 10) as f32; 2]),
        ])
    }

    fn launch() -> (MixnnProxy, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(0);
        let service = AttestationService::new(&mut rng);
        let config = MixnnProxyConfig {
            expected_signature: vec![3, 2],
            seed: 11,
            ..MixnnProxyConfig::default()
        };
        let proxy = MixnnProxy::launch(config, &service, &mut rng);
        (proxy, service, rng)
    }

    fn seal(proxy: &MixnnProxy, p: &ModelParams, rng: &mut StdRng) -> Vec<u8> {
        SealedBox::seal(&codec::encode_params(p), proxy.public_key(), rng).unwrap()
    }

    #[test]
    fn launch_produces_verifiable_proxy() {
        let (proxy, service, _) = launch();
        assert!(proxy.verify_against(&service));
    }

    #[test]
    fn batch_pipeline_end_to_end() {
        let (mut proxy, _, mut rng) = launch();
        let originals: Vec<ModelParams> = (0..5).map(params).collect();
        for p in &originals {
            let sealed = seal(&proxy, p, &mut rng);
            proxy.submit_encrypted(&sealed).unwrap();
        }
        assert_eq!(proxy.buffered(), 5);
        let mixed = proxy.mix_batch().unwrap();
        assert_eq!(mixed.len(), 5);
        assert_eq!(ModelParams::mean(&originals), ModelParams::mean(&mixed));
        // Memory was charged and released.
        assert_eq!(proxy.memory_stats().allocated, 0);
        assert!(proxy.memory_stats().high_water >= 5 * 5 * 4);
        let stats = proxy.stats();
        assert_eq!(stats.updates_received, 5);
        assert_eq!(stats.updates_forwarded, 5);
        assert!(stats.decrypt_seconds > 0.0);
    }

    #[test]
    fn garbage_ciphertext_is_rejected_and_counted() {
        let (mut proxy, _, _) = launch();
        assert!(proxy.submit_encrypted(&[0u8; 80]).is_err());
        let stats = proxy.stats();
        assert_eq!(stats.updates_rejected, 1);
        assert_eq!(stats.bytes_rejected, 80);
        assert_eq!(stats.bytes_received, 80);
        assert_eq!(proxy.buffered(), 0);
    }

    #[test]
    fn wrong_signature_is_rejected() {
        let (mut proxy, _, mut rng) = launch();
        let alien = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
        let sealed = seal(&proxy, &alien, &mut rng);
        let sealed_len = sealed.len() as u64;
        assert!(matches!(
            proxy.submit_encrypted(&sealed),
            Err(ProxyError::SignatureMismatch { .. })
        ));
        // Rejected update must not leak memory, and its bytes are counted.
        assert_eq!(proxy.memory_stats().allocated, 0);
        assert_eq!(proxy.stats().bytes_rejected, sealed_len);
    }

    #[test]
    fn empty_batch_mix_fails_cleanly() {
        let (mut proxy, _, _) = launch();
        assert_eq!(
            proxy.mix_batch(),
            Err(ProxyError::InsufficientUpdates { have: 0, need: 1 })
        );
    }

    #[test]
    fn signature_inference_from_first_update() {
        // There is none: an unconfigured proxy rejects even the first
        // update, typed, and adopts nothing from it.
        let mut rng = StdRng::seed_from_u64(1);
        let service = AttestationService::new(&mut rng);
        let mut proxy = MixnnProxy::launch(MixnnProxyConfig::default(), &service, &mut rng);
        for _ in 0..2 {
            let sealed = seal(&proxy, &params(0), &mut rng);
            match proxy.submit_encrypted(&sealed) {
                Err(ProxyError::SignatureMismatch { expected, actual }) => {
                    assert!(expected.is_empty());
                    assert_eq!(actual, vec![3, 2]);
                }
                other => panic!("expected a signature mismatch, got {other:?}"),
            }
        }
        assert_eq!(proxy.memory_stats().allocated, 0);

        // On a configured proxy a foreign update after an accepted one is
        // rejected and its EPC charge released.
        let (mut proxy, _, mut rng) = launch();
        let sealed = seal(&proxy, &params(0), &mut rng);
        proxy.submit_encrypted(&sealed).unwrap();
        let alien = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
        let sealed = seal(&proxy, &alien, &mut rng);
        assert!(proxy.submit_encrypted(&sealed).is_err());
        let accepted_footprint = params(0).total_len() * std::mem::size_of::<f32>();
        assert_eq!(proxy.memory_stats().allocated, accepted_footprint);
    }

    #[test]
    fn memory_exhaustion_propagates() {
        let mut rng = StdRng::seed_from_u64(2);
        let service = AttestationService::new(&mut rng);
        let config = MixnnProxyConfig {
            expected_signature: vec![3, 2],
            enclave: mixnn_enclave::EnclaveConfig {
                epc_limit: 30, // fits one 20-byte update + decrypt buffer, not three
                ..Default::default()
            },
            ..MixnnProxyConfig::default()
        };
        let mut proxy = MixnnProxy::launch(config, &service, &mut rng);
        let mut failures = 0;
        for i in 0..3 {
            let sealed = seal(&proxy, &params(i), &mut rng);
            if matches!(
                proxy.submit_encrypted(&sealed),
                Err(ProxyError::Enclave(
                    mixnn_enclave::EnclaveError::MemoryExhausted { .. }
                ))
            ) {
                failures += 1;
            }
        }
        assert!(failures > 0, "EPC limit was never enforced");
    }

    #[test]
    fn batched_ingest_matches_a_submit_encrypted_loop() {
        // Twenty-one updates — two full ingest batches and a ragged tail,
        // garbage mid-round — under a roomy EPC and under one that fits
        // four buffered updates plus one decrypt buffer but not a fifth
        // update, where the accept/reject pattern depends on nothing being
        // charged ahead of its commit.
        let footprint = params(0).total_len() * std::mem::size_of::<f32>();
        let plaintext = codec::encode_params(&params(0)).len();
        let tight = 3 * footprint + plaintext + footprint / 2;
        for epc_limit in [mixnn_enclave::EnclaveConfig::default().epc_limit, tight] {
            let build = || {
                let mut rng = StdRng::seed_from_u64(0);
                let service = AttestationService::new(&mut rng);
                let config = MixnnProxyConfig {
                    expected_signature: vec![3, 2],
                    seed: 11,
                    enclave: mixnn_enclave::EnclaveConfig {
                        epc_limit,
                        ..Default::default()
                    },
                };
                (MixnnProxy::launch(config, &service, &mut rng), rng)
            };
            // Same launch seed, same enclave key: one sealed round serves
            // both proxies.
            let (mut batched, mut rng) = build();
            let (mut looped, _) = build();
            let mut sealed: Vec<Vec<u8>> = (0..21)
                .map(|i| seal(&batched, &params(i), &mut rng))
                .collect();
            // Garbage with a 16-byte body: small enough for the tight
            // budget to charge, so it fails as a forgery, not on EPC.
            sealed[5] = vec![0u8; SEAL_OVERHEAD + 16];

            let render = |r: Result<(), ProxyError>| match r {
                Ok(()) => "ok".to_string(),
                Err(e) => format!("err {e}"),
            };
            let a: Vec<String> = batched
                .ingest_sealed(&sealed)
                .into_iter()
                .map(render)
                .collect();
            let b: Vec<String> = sealed
                .iter()
                .map(|s| render(looped.submit_encrypted(s)))
                .collect();
            assert_eq!(a, b, "epc_limit={epc_limit}");
            assert!(a.iter().any(|r| r.starts_with("ok")));
            let exhausted = a.iter().filter(|r| r.contains("exhausted")).count();
            assert_eq!(exhausted > 0, epc_limit == tight, "{a:?}");
            assert_eq!(batched.stats(), {
                // Wall-clock fields aside, the counters agree.
                let mut s = looped.stats();
                s.decrypt_seconds = batched.stats().decrypt_seconds;
                s.store_seconds = batched.stats().store_seconds;
                s
            });
            assert_eq!(
                batched.stats().bytes_rejected,
                sealed[5].len() as u64 + exhausted as u64 * sealed[0].len() as u64
            );
            assert_eq!(batched.memory_stats(), looped.memory_stats());
            assert_eq!(batched.mix_batch().unwrap(), looped.mix_batch().unwrap());
            assert_eq!(batched.memory_stats().allocated, 0);
        }
    }

    #[test]
    fn a_rejected_update_fails_the_sealed_round_and_the_proxy_holds_nothing() {
        let (mut proxy, _, mut rng) = launch();
        let mut sealed: Vec<Vec<u8>> = (0..4).map(|i| seal(&proxy, &params(i), &mut rng)).collect();
        sealed.insert(2, vec![0u8; 64]); // garbage ciphertext mid-round
        assert!(matches!(
            proxy.mix_sealed_round(&sealed),
            Err(ProxyError::Enclave(_))
        ));
        // Counted like a per-update caller's, forwarded nowhere.
        let stats = proxy.stats();
        assert_eq!(stats.updates_received, 4);
        assert_eq!(stats.updates_rejected, 1);
        assert_eq!(stats.bytes_rejected, 64);
        assert_eq!(stats.updates_forwarded, 0);
        // Nothing of the failed round is left to leak into the next.
        assert_eq!(proxy.buffered(), 0);
        assert_eq!(proxy.memory_stats().allocated, 0);
        let inputs: Vec<ModelParams> = (10..13).map(params).collect();
        let sealed: Vec<Vec<u8>> = inputs.iter().map(|p| seal(&proxy, p, &mut rng)).collect();
        let outputs = proxy.mix_sealed_round(&sealed).unwrap();
        assert_eq!(outputs.len(), 3);
        assert_eq!(ModelParams::mean(&inputs), ModelParams::mean(&outputs));
        assert_eq!(proxy.stats().updates_forwarded, 3);
        assert_eq!(proxy.memory_stats().allocated, 0);
    }

    #[test]
    fn a_foreign_first_update_cannot_rebind_the_proxy() {
        // The signature is launch-time configuration: a foreign update
        // arriving first is the one rejected — not the honest ones after
        // it — and the next all-honest round commits.
        let (mut proxy, _, mut rng) = launch();
        let alien = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
        let mut sealed = vec![seal(&proxy, &alien, &mut rng)];
        sealed.extend((0..3).map(|i| seal(&proxy, &params(i), &mut rng)));
        match proxy.mix_sealed_round(&sealed) {
            Err(ProxyError::SignatureMismatch { expected, actual }) => {
                assert_eq!(expected, vec![3, 2]);
                assert_eq!(actual, vec![1]);
            }
            other => panic!("expected a signature mismatch, got {other:?}"),
        }
        assert_eq!(proxy.stats().updates_rejected, 1);
        assert_eq!(proxy.buffered(), 0);
        assert_eq!(proxy.memory_stats().allocated, 0);

        let inputs: Vec<ModelParams> = (10..13).map(params).collect();
        let sealed: Vec<Vec<u8>> = inputs.iter().map(|p| seal(&proxy, p, &mut rng)).collect();
        let outputs = proxy.mix_sealed_round(&sealed).unwrap();
        assert_eq!(ModelParams::mean(&inputs), ModelParams::mean(&outputs));
        assert_eq!(proxy.memory_stats().allocated, 0);
    }
}
