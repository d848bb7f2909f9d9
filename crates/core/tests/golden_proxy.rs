//! Cross-commit golden digests of the single-proxy round — the twin of
//! `mixnn-cascade`'s `golden_rounds.rs`.
//!
//! Two tables, as there: the *round* digests — output bytes, plans,
//! counters, EPC charges of per-update [`MixnnProxy::submit_encrypted`]
//! and of [`MixnnTransport::relay_round`] — were recorded on commit
//! f992ffd and pass **unedited** on that commit and on every later one,
//! so none of it can drift unnoticed now that there is no parallel
//! front-end left to compare the in-order ingest against. The *RNG* table
//! — the caller's next draw after the rounds, i.e. how much entropy launch
//! and sealing consumed — was re-recorded by the PR that stopped
//! `Enclave::launch` drawing 32 bytes it discarded.

// `..MixnnProxyConfig::default()` is a no-op since PR 14 wherever the
// literal names every remaining field, but the parent commit needs it.
#![allow(clippy::needless_update)]

use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{MixnnProxy, MixnnProxyConfig, MixnnTransport, ProxyError, TransportMode};
use mixnn_crypto::sealed_box::OVERHEAD;
use mixnn_crypto::sha256::Sha256;
use mixnn_crypto::SealedBox;
use mixnn_enclave::{AttestationService, EnclaveConfig};
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The sealed-box header when `GOLDEN_ROUND` was recorded. The proxy's
/// byte counters enter the digest as envelopes with that header would
/// have counted them, so a change of the header alone — every envelope
/// shorter or longer by the same amount — leaves the table unedited while
/// any other change of what is counted still moves it.
const RECORDED_OVERHEAD: u64 = 64;

const SIGNATURE: &[usize] = &[6, 4, 2];
/// Large enough for top-k to drop values and int8 to quantise visibly.
const WIDE_SIGNATURE: &[usize] = &[96, 40];

fn updates(clients: usize, signature: &[usize], seed: u64) -> Vec<ModelParams> {
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

struct Golden(Sha256);

impl Golden {
    fn u64(&mut self, v: u64) {
        self.0.update(&v.to_le_bytes());
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

    /// The proxy's non-timing counters, its EPC state and the last plan's
    /// source table.
    fn proxy(&mut self, proxy: &MixnnProxy) {
        let s = proxy.stats();
        let as_recorded = |bytes: u64, envelopes: u64| {
            bytes + envelopes * RECORDED_OVERHEAD - envelopes * OVERHEAD as u64
        };
        for v in [
            s.updates_received,
            s.updates_forwarded,
            s.updates_rejected,
            // Received bytes count every envelope, received updates only
            // the committed ones.
            as_recorded(s.bytes_received, s.updates_received + s.updates_rejected),
            as_recorded(s.bytes_rejected, s.updates_rejected),
        ] {
            self.u64(v);
        }
        let m = proxy.memory_stats();
        self.u64(m.allocated as u64);
        self.u64(m.limit as u64);
        self.u64(m.high_water as u64);
        self.u64(m.paging_events);
        self.u64(m.paged_out as u64);
        self.u64(proxy.buffered() as u64);
        if let Some(plan) = proxy.last_plan() {
            self.u64(plan.participants() as u64);
            self.u64(plan.layers() as u64);
            for l in 0..plan.layers() {
                for i in 0..plan.participants() {
                    self.u64(plan.source(l, i).expect("in range") as u64);
                }
            }
        }
    }

    /// `(round digest, the caller RNG's next draw)`.
    fn finish(self, rng: &mut StdRng) -> (String, String) {
        let round = self.0.finalize().into_iter().map(|b| format!("{b:02x}"));
        (round.collect(), format!("{:016x}", rng.gen::<u64>()))
    }
}

fn launch(config: MixnnProxyConfig, seed: u64) -> (MixnnProxy, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let proxy = MixnnProxy::launch(config, &service, &mut rng);
    (proxy, rng)
}

/// A budget that fits four buffered updates plus one decrypt buffer, so
/// the fifth update of a round is accepted and the rest of it rejected:
/// the accept/reject pattern itself is the golden value.
fn tight_epc_config() -> MixnnProxyConfig {
    MixnnProxyConfig {
        expected_signature: SIGNATURE.to_vec(),
        seed: 13,
        enclave: EnclaveConfig {
            epc_limit: 280,
            ..EnclaveConfig::default()
        },
        ..MixnnProxyConfig::default()
    }
}

fn seal(proxy: &MixnnProxy, p: &ModelParams, rng: &mut StdRng) -> Vec<u8> {
    SealedBox::seal(&codec::encode_params(p), proxy.public_key(), rng).expect("attested key")
}

/// Per-update ingest of two rounds; each outcome (accepted or the typed
/// error text) is part of the digest.
fn submit_rounds(mut proxy: MixnnProxy, mut rng: StdRng, clients: usize) -> (String, String) {
    let mut g = Golden(Sha256::new());
    for r in 0..2 {
        for p in updates(clients, SIGNATURE, 100 + r) {
            let sealed = seal(&proxy, &p, &mut rng);
            match proxy.submit_encrypted(&sealed) {
                Ok(()) => g.u64(0),
                Err(e) => {
                    g.u64(2);
                    g.bytes(e.to_string().as_bytes());
                }
            }
        }
        g.params(&proxy.mix_batch().expect("buffered round"));
        g.proxy(&proxy);
    }
    g.finish(&mut rng)
}

fn relay_rounds(compression: CompressionConfig, signature: &[usize]) -> (String, String) {
    let (proxy, mut rng) = launch(
        MixnnProxyConfig {
            expected_signature: signature.to_vec(),
            seed: 23,
            ..MixnnProxyConfig::default()
        },
        7,
    );
    let mut transport =
        MixnnTransport::new(proxy, TransportMode::Encrypted, 99).with_compression(compression);
    let mut g = Golden(Sha256::new());
    for r in 0..2 {
        // 11 is not a multiple of the ingest batch of 4: the ragged tail
        // is part of what is pinned.
        let mixed = transport
            .relay_round(updates(11, signature, 200 + r))
            .expect("round commits");
        g.params(&mixed);
        g.proxy(transport.proxy());
    }
    g.finish(&mut rng)
}

fn scenarios() -> Vec<(String, (String, String))> {
    let mut out = Vec::new();

    let (proxy, rng) = launch(
        MixnnProxyConfig {
            expected_signature: SIGNATURE.to_vec(),
            seed: 11,
            ..MixnnProxyConfig::default()
        },
        1,
    );
    out.push(("submit_batch".to_string(), submit_rounds(proxy, rng, 9)));

    let (proxy, rng) = launch(tight_epc_config(), 2);
    out.push((
        "submit_tight_epc".to_string(),
        submit_rounds(proxy, rng, 10),
    ));

    for (name, compression, signature) in [
        ("relay_batch_f32", CompressionConfig::F32, SIGNATURE),
        ("relay_batch_int8", CompressionConfig::Int8, WIDE_SIGNATURE),
        (
            "relay_batch_int8_topk",
            CompressionConfig::int8_top_k(),
            WIDE_SIGNATURE,
        ),
    ] {
        out.push((name.to_string(), relay_rounds(compression, signature)));
    }

    out
}

#[test]
fn tight_epc_scenario_both_accepts_and_rejects() {
    // Guards the scenario above against a vacuous pattern.
    let (mut proxy, mut rng) = launch(tight_epc_config(), 2);
    let results: Vec<Result<(), ProxyError>> = updates(10, SIGNATURE, 100)
        .iter()
        .map(|p| {
            let sealed = seal(&proxy, p, &mut rng);
            proxy.submit_encrypted(&sealed)
        })
        .collect();
    assert!(results.iter().any(Result::is_ok));
    assert!(results.iter().any(|r| matches!(
        r,
        Err(ProxyError::Enclave(
            mixnn_enclave::EnclaveError::MemoryExhausted { .. }
        ))
    )));
}

#[test]
fn proxy_digests_match_the_recorded_sequential_path() {
    // On a drift the panic prints both actual tables.
    let scenarios = scenarios();
    let table = |pick: fn(&(String, String)) -> &String| -> String {
        scenarios
            .iter()
            .map(|(name, halves)| format!("{name} {}\n", pick(halves)))
            .collect()
    };
    let (round, rng) = (table(|h| &h.0), table(|h| &h.1));
    assert!(
        round == GOLDEN_ROUND && rng == GOLDEN_RNG,
        "golden digests drifted\nround table:\n{round}\nrng table:\n{rng}"
    );
}

/// Recorded on f992ffd and never edited, except `submit_tight_epc`: its
/// scenario became a batch proxy under a tight budget when the streaming
/// mixer was deleted, and its row was recorded by running that scenario on
/// the deleting commit's parent, 43dc142.
const GOLDEN_ROUND: &str = "\
submit_batch 6d49917fb8b8978efd0e2e3b805c53954dbcbb7d045f228f6955760dffa7efe5
submit_tight_epc 6eeef7f0272653cc6048b16b029f604c435c0ca483720b2c1f4c36aae0c2ece7
relay_batch_f32 395701d78718882321f9908c3a5da1ae496bc99b35d976babfa4bc2c09cdd316
relay_batch_int8 024d2ce2f460de73b91c7494018d81a31da12aab358b8522305d17154416dc31
relay_batch_int8_topk 14056d58df1b04361c647952137250eaa0b6f3303dcc39272e8da4729a827830
";

/// Re-recorded whenever launch or sealing draws a different amount.
const GOLDEN_RNG: &str = "\
submit_batch 4d964f26d490de19
submit_tight_epc facc241d638bf5bb
relay_batch_f32 fb797f4d139c03dd
relay_batch_int8 fb797f4d139c03dd
relay_batch_int8_topk fb797f4d139c03dd
";
