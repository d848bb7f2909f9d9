//! Plugging the proxy into the federated round loop.

use crate::codec::CompressionConfig;
use crate::{codec, MixnnProxy, ProxyError, SpentBuffers};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::{SealedBox, SealingKey};
use mixnn_nn::ModelParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// How a [`MixnnTransport`] carries a round: sealed, always. There is no
/// `Plaintext` variant — every caller, the paper figures included, runs
/// the path that ships. The type keeps its one variant only because the
/// pinned `benchmark/` package names `TransportMode::Encrypted`; it and
/// [`MixnnTransport::new`]'s `mode` argument go in the next PR that may
/// edit `benchmark/` (ROADMAP item 2, beside `RoundLink::is_transparent`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportMode {
    /// Participants seal updates to the enclave key; the proxy decrypts
    /// inside the enclave (the full §4 pipeline).
    Encrypted,
}

/// Routes each round's updates through a [`MixnnProxy`].
///
/// In the federated loop this serves as an `UpdateTransport` (the trait
/// impl lives in `mixnn_fl`, which depends on this crate): the observed
/// updates keep the **slot ids** of the incoming ones (the server still
/// sees one connection per participant slot); their *contents* are the
/// mixed updates. This is exactly the paper's deployment: the server
/// receives C updates it cannot attribute.
///
/// # Example
///
/// ```
/// use mixnn_core::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
/// use mixnn_enclave::AttestationService;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut rng = StdRng::seed_from_u64(0);
/// let service = AttestationService::new(&mut rng);
/// let config = MixnnProxyConfig {
///     expected_signature: vec![6, 4],
///     ..MixnnProxyConfig::default()
/// };
/// let proxy = MixnnProxy::launch(config, &service, &mut rng);
/// let transport = MixnnTransport::new(proxy, TransportMode::Encrypted, 1);
/// assert!(transport.proxy().stats().updates_received == 0);
/// ```
#[derive(Debug)]
pub struct MixnnTransport {
    proxy: MixnnProxy,
    /// The proxy's key as the participants seal to it, its comb table
    /// built here — the simulation's stand-in for every participant
    /// attesting the enclave once.
    sealing_key: SealingKey,
    compression: CompressionConfig,
    /// RNG standing in for the participants' sealing entropy.
    participant_rng: StdRng,
    /// Last round's envelopes: the proxy only borrows them, so the next
    /// round seals into them instead of into fresh pages.
    envelopes: SpentBuffers,
}

impl MixnnTransport {
    /// Wraps a launched proxy. `seed` seeds the participants' sealing
    /// entropy; `_mode` has one value (see [`TransportMode`]).
    pub fn new(proxy: MixnnProxy, _mode: TransportMode, seed: u64) -> Self {
        MixnnTransport {
            sealing_key: SealingKey::new(*proxy.public_key()),
            proxy,
            compression: CompressionConfig::F32,
            participant_rng: StdRng::seed_from_u64(seed),
            envelopes: SpentBuffers::default(),
        }
    }

    /// Sets the wire compression participants encode with before sealing.
    /// Round-wide, like the model signature: every participant of a round
    /// must share it or envelope sizes become a fingerprint.
    #[must_use]
    pub fn with_compression(mut self, compression: CompressionConfig) -> Self {
        self.compression = compression;
        self
    }

    /// The wire compression this transport seals with.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Access to the proxy (stats, memory, last plan).
    pub fn proxy(&self) -> &MixnnProxy {
        &self.proxy
    }

    /// Runs one proxy round over plain parameters, returning the mixed
    /// updates in slot order — the transport core `mixnn_fl`'s
    /// `UpdateTransport` impl (and any other caller) builds on.
    ///
    /// # Errors
    ///
    /// Propagates the proxy's rejection of any update in the round; the
    /// round then fails whole and the proxy holds nothing
    /// ([`MixnnProxy::mix_sealed_round`]).
    pub fn relay_round(
        &mut self,
        params: Vec<ModelParams>,
    ) -> Result<Vec<ModelParams>, ProxyError> {
        // One RNG stands in for all participants' sealing entropy; each
        // participant encodes its update behind the envelope's header room
        // and seals it there, in its one buffer — last round's envelope
        // when it fits.
        let mut spent = self.envelopes.take();
        let sealed: Vec<Vec<u8>> = params
            .iter()
            .map(|p| {
                let body = codec::encoded_len_with(&p.signature(), self.compression);
                let spent = spent.pop().unwrap_or_default();
                let mut envelope = SpentBuffers::reuse(spent, OVERHEAD + body);
                envelope.resize(OVERHEAD, 0);
                codec::encode_params_into(&mut envelope, p, self.compression);
                let prepared = SealedBox::prepare([&self.sealing_key], &mut self.participant_rng)
                    .expect("attested enclave keys are never low-order");
                prepared
                    .into_iter()
                    .next()
                    .expect("one envelope per recipient")
                    .seal_in_place(&mut envelope);
                envelope
            })
            .collect();
        let mixed = self.proxy.mix_sealed_round(&sealed);
        self.envelopes.keep(sealed);
        mixed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MixnnProxyConfig;
    use mixnn_enclave::{AttestationService, EnclaveConfig, EnclaveError};
    use mixnn_nn::LayerParams;

    // Slot preservation and the `UpdateTransport` impl itself are covered
    // in `mixnn_fl::transport` (which hosts the impl); these tests pin the
    // round core.

    fn updates(c: usize) -> Vec<ModelParams> {
        (0..c)
            .map(|i| {
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 2]),
                    LayerParams::from_values(vec![-(i as f32); 3]),
                ])
            })
            .collect()
    }

    fn transport() -> MixnnTransport {
        transport_with_epc(EnclaveConfig::default().epc_limit)
    }

    fn transport_with_epc(epc_limit: usize) -> MixnnTransport {
        launch(vec![2, 3], epc_limit)
    }

    fn launch(expected_signature: Vec<usize>, epc_limit: usize) -> MixnnTransport {
        let mut rng = StdRng::seed_from_u64(5);
        let service = AttestationService::new(&mut rng);
        let proxy = MixnnProxy::launch(
            MixnnProxyConfig {
                expected_signature,
                seed: 3,
                enclave: EnclaveConfig {
                    epc_limit,
                    ..EnclaveConfig::default()
                },
            },
            &service,
            &mut rng,
        );
        MixnnTransport::new(proxy, TransportMode::Encrypted, 77)
    }

    #[test]
    fn encrypted_batch_preserves_aggregate_and_count() {
        let mut t = transport();
        let ins = updates(6);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
    }

    #[test]
    fn a_round_the_epc_cannot_hold_fails_clean_and_the_next_round_commits() {
        let footprint = updates(1)[0].total_len() * std::mem::size_of::<f32>();
        let decrypt_buffer = codec::encode_params(&updates(1)[0]).len();
        let mut t = transport_with_epc(4 * footprint + decrypt_buffer);
        let err = t.relay_round(updates(6)).unwrap_err();
        assert!(
            matches!(
                err,
                ProxyError::Enclave(EnclaveError::MemoryExhausted { .. })
            ),
            "{err}"
        );
        // The failed round released everything it had charged …
        assert_eq!(t.proxy().buffered(), 0);
        assert_eq!(t.proxy().memory_stats().allocated, 0);
        // … so a round that fits a fresh proxy fits this one, and mixes
        // only its own updates.
        let ins = updates(9).split_off(6);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
        assert_eq!(t.proxy().memory_stats().allocated, 0);
    }

    /// Two layers of 2,000 and 3,000 values: an `Int8` envelope is well
    /// under half an `F32` one.
    fn wide_updates(c: usize) -> Vec<ModelParams> {
        (0..c)
            .map(|i| {
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 2000]),
                    LayerParams::from_values(vec![-(i as f32); 3000]),
                ])
            })
            .collect()
    }

    /// Where each kept envelope lies, with its capacity and length.
    fn kept(t: &mut MixnnTransport) -> Vec<(*const u8, usize, usize)> {
        let envelopes = t.envelopes.take();
        let kept = envelopes
            .iter()
            .map(|e| (e.as_ptr(), e.capacity(), e.len()))
            .collect();
        t.envelopes.keep(envelopes);
        kept
    }

    #[test]
    fn a_round_reseals_last_rounds_envelopes_while_they_fit() {
        let mut t = launch(vec![2000, 3000], EnclaveConfig::default().epc_limit);
        let ins = wide_updates(6);
        let sorted = |mut v: Vec<(*const u8, usize, usize)>| {
            v.sort_unstable();
            v
        };
        t.relay_round(ins.clone()).unwrap();
        let first = sorted(kept(&mut t));
        assert_eq!(first.len(), 6);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&outs));
        assert_eq!(sorted(kept(&mut t)), first, "the same six buffers");

        // Under a codec that shrinks every envelope below half its buffer
        // the buffers are let go: each envelope is an exact allocation.
        let mut t = t.with_compression(CompressionConfig::Int8);
        let outs = t.relay_round(ins.clone()).unwrap();
        assert_eq!(outs.len(), 6);
        let int8 = kept(&mut t);
        assert!(int8
            .iter()
            .all(|&(_, capacity, len)| capacity == len && 2 * len < first[0].1));

        // A smaller round keeps only its own envelopes.
        t.relay_round(ins[..4].to_vec()).unwrap();
        assert_eq!(kept(&mut t).len(), 4);
    }

    #[test]
    fn debug_counts_the_kept_envelopes_instead_of_printing_them() {
        let mut t = launch(vec![2000, 3000], EnclaveConfig::default().epc_limit);
        t.relay_round(wide_updates(6)).unwrap();
        let printed = format!("{t:?}");
        let capacity: usize = kept(&mut t).iter().map(|&(_, capacity, _)| capacity).sum();
        assert!(
            printed.contains(&format!(
                "SpentBuffers {{ buffers: 6, capacity: {capacity} }}"
            )),
            "{printed}"
        );
        assert!(printed.len() < 4096, "{} bytes of Debug", printed.len());
    }

    #[test]
    fn updates_are_actually_mixed() {
        let mut t = transport();
        let ins = updates(8);
        let outs = t.relay_round(ins.clone()).unwrap();
        let changed = ins.iter().zip(&outs).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "no update changed content after mixing");
    }
}
