//! Cross-commit golden digests of the single-proxy round — the twin of
//! `mixnn-cascade`'s `golden_rounds.rs`.
//!
//! Recorded from the sequential path of commit e11645a (per-update
//! [`MixnnProxy::submit_encrypted`], and [`MixnnTransport::relay_round`]
//! at its default worker count). The file compiles and passes **unedited**
//! on that commit and on every later one, so the proxy's output bytes,
//! plans, counters, EPC charges and sealing-RNG consumption cannot drift
//! unnoticed now that there is no parallel front-end left to compare the
//! in-order ingest against.

// `..MixnnProxyConfig::default()` is a no-op since PR 14 wherever the
// literal names every remaining field, but the parent commit needs it.
#![allow(clippy::needless_update)]

use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{
    MixingStrategy, MixnnProxy, MixnnProxyConfig, MixnnTransport, ProxyError, TransportMode,
};
use mixnn_crypto::sha256::Sha256;
use mixnn_crypto::SealedBox;
use mixnn_enclave::{AttestationService, EnclaveConfig};
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

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

    /// The proxy's non-timing counters, its EPC state and the last batch
    /// plan's source table. `high_water` is left out where the parent's
    /// transport staged four footprint charges ahead of their commits (the
    /// streaming relay): that overshoot is gone by design, everything else
    /// is pinned.
    fn proxy(&mut self, proxy: &MixnnProxy, with_high_water: bool) {
        let s = proxy.stats();
        for v in [
            s.updates_received,
            s.updates_forwarded,
            s.updates_rejected,
            s.bytes_received,
            s.bytes_rejected,
        ] {
            self.u64(v);
        }
        let m = proxy.memory_stats();
        self.u64(m.allocated as u64);
        self.u64(m.limit as u64);
        if with_high_water {
            self.u64(m.high_water as u64);
        }
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

    fn finish(mut self, rng: &mut StdRng) -> String {
        self.u64(rng.gen());
        self.0
            .finalize()
            .iter()
            .map(|b| format!("{b:02x}"))
            .collect()
    }
}

fn launch(config: MixnnProxyConfig, seed: u64) -> (MixnnProxy, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let proxy = MixnnProxy::launch(config, &service, &mut rng);
    (proxy, rng)
}

/// A budget that fits the k = 2 warm-up lists plus one decrypt buffer but
/// not the steady-state peak: the accept/reject pattern itself is the
/// golden value.
fn tight_epc_config() -> MixnnProxyConfig {
    MixnnProxyConfig {
        strategy: MixingStrategy::Streaming { k: 2 },
        expected_signature: SIGNATURE.to_vec(),
        seed: 13,
        enclave: EnclaveConfig {
            epc_limit: 160,
            ..EnclaveConfig::default()
        },
        ..MixnnProxyConfig::default()
    }
}

fn seal(proxy: &MixnnProxy, p: &ModelParams, rng: &mut StdRng) -> Vec<u8> {
    SealedBox::seal(&codec::encode_params(p), proxy.public_key(), rng).expect("attested key")
}

/// Per-update ingest of two rounds; each outcome (accepted, emitted
/// or the typed error text) is part of the digest.
fn submit_rounds(mut proxy: MixnnProxy, mut rng: StdRng, clients: usize) -> String {
    let mut g = Golden(Sha256::new());
    for r in 0..2 {
        for p in updates(clients, SIGNATURE, 100 + r) {
            let sealed = seal(&proxy, &p, &mut rng);
            match proxy.submit_encrypted(&sealed) {
                Ok(None) => g.u64(0),
                Ok(Some(out)) => {
                    g.u64(1);
                    g.params(&[out]);
                }
                Err(e) => {
                    g.u64(2);
                    g.bytes(e.to_string().as_bytes());
                }
            }
        }
        match proxy.strategy() {
            MixingStrategy::Batch => g.params(&proxy.mix_batch().expect("buffered round")),
            MixingStrategy::Streaming { .. } => g.params(&proxy.flush().expect("flush")),
        }
        g.proxy(&proxy, true);
    }
    g.finish(&mut rng)
}

fn relay_rounds(
    strategy: MixingStrategy,
    compression: CompressionConfig,
    signature: &[usize],
) -> String {
    let (proxy, mut rng) = launch(
        MixnnProxyConfig {
            strategy,
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
        g.proxy(transport.proxy(), strategy == MixingStrategy::Batch);
    }
    g.finish(&mut rng)
}

fn scenarios() -> Vec<(String, String)> {
    let mut out = Vec::new();

    for (name, strategy) in [
        ("submit_batch", MixingStrategy::Batch),
        ("submit_streaming_k3", MixingStrategy::Streaming { k: 3 }),
    ] {
        let (proxy, rng) = launch(
            MixnnProxyConfig {
                strategy,
                expected_signature: SIGNATURE.to_vec(),
                seed: 11,
                ..MixnnProxyConfig::default()
            },
            1,
        );
        out.push((name.to_string(), submit_rounds(proxy, rng, 9)));
    }

    // Signature adopted from the first update instead of configured.
    let (proxy, rng) = launch(
        MixnnProxyConfig {
            strategy: MixingStrategy::Streaming { k: 3 },
            seed: 11,
            ..MixnnProxyConfig::default()
        },
        1,
    );
    out.push((
        "submit_streaming_k3_inferred_signature".to_string(),
        submit_rounds(proxy, rng, 9),
    ));

    let (proxy, rng) = launch(tight_epc_config(), 2);
    out.push((
        "submit_tight_epc".to_string(),
        submit_rounds(proxy, rng, 10),
    ));

    for (name, strategy, compression, signature) in [
        (
            "relay_batch_f32",
            MixingStrategy::Batch,
            CompressionConfig::F32,
            SIGNATURE,
        ),
        (
            "relay_batch_int8",
            MixingStrategy::Batch,
            CompressionConfig::Int8,
            WIDE_SIGNATURE,
        ),
        (
            "relay_batch_int8_topk",
            MixingStrategy::Batch,
            CompressionConfig::int8_top_k(),
            WIDE_SIGNATURE,
        ),
        (
            "relay_streaming_k3_f32",
            MixingStrategy::Streaming { k: 3 },
            CompressionConfig::F32,
            SIGNATURE,
        ),
    ] {
        out.push((
            name.to_string(),
            relay_rounds(strategy, compression, signature),
        ));
    }

    out
}

#[test]
fn tight_epc_scenario_both_accepts_and_rejects() {
    // Guards the scenario above against a vacuous pattern.
    let (mut proxy, mut rng) = launch(tight_epc_config(), 2);
    let results: Vec<Result<Option<ModelParams>, ProxyError>> = updates(10, SIGNATURE, 100)
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
    // On a drift the assertion prints the full actual table.
    let actual: String = scenarios()
        .iter()
        .map(|(name, digest)| format!("{name} {digest}\n"))
        .collect();
    assert_eq!(actual, GOLDEN, "golden digests drifted");
}

const GOLDEN: &str = "\
submit_batch 63ce3e58d2ab6454e5e1d22b0519bf8e2b6b36321b953e246cdae527b6b83da4
submit_streaming_k3 535a819a45d8e7e91c084cc0a4bed666f565d31583b98b7096aecb1c2e5abf22
submit_streaming_k3_inferred_signature 535a819a45d8e7e91c084cc0a4bed666f565d31583b98b7096aecb1c2e5abf22
submit_tight_epc 8e6181ef9065712e76d463f0ee1fb5b065007d6ba1b4040dc53767c5b1c44400
relay_batch_f32 61af5896828224bface917181b3e6269a24494e44009e723720e9c927eed5d1e
relay_batch_int8 393e731e0fc118da711aadb83bf267661c530f1ff5fb4c53795865578590b925
relay_batch_int8_topk ef28424b8b1c4c61195f1456c8a52e9167e82f482b534a22e92035e0d0f9f2bf
relay_streaming_k3_f32 083d38f86294ee72ffdd388829bc8cb2fa6352bcf8d13dba34769676e2f396cd
";
