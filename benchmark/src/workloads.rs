//! The six workloads: how each is built from the seed, how one closed-loop
//! round is driven through `UpdateTransport::relay` →
//! `AggregationServer::aggregate` (or `FlSimulation::run_round`), and the
//! correctness gate its outputs must pass. README.md says why each exists.
//!
//! Every config is built with `..Default::default()` or a public
//! constructor and no `Parallelism` field is ever named: the benchmark
//! measures what a user gets out of the box, so deleting a knob or changing
//! a default needs no edit here.

use crate::alloc::{self, AllocCount};
use mixnn_cascade::{
    CascadeCoordinator, CascadeTransport, FailurePolicy, PoolConfig, PooledCascadeTransport,
    PooledCoordinator, StratifiedLayout,
};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
use mixnn_crypto::SealedBox;
use mixnn_enclave::AttestationService;
use mixnn_fl::{
    AggregationServer, DirectTransport, FlConfig, FlError, FlSimulation, ModelUpdate,
    UpdateTransport,
};
use mixnn_nn::{zoo, LayerParams, ModelParams};
use mixnn_telemetry::{Registry, Telemetry, VirtualClock};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;
use std::time::Instant;

/// The paper's model signature (5,762 parameters).
pub const PAPER_SIG: &[usize] = &[2048, 2048, 1024, 512, 130];
/// A 492,810-parameter (≈1.9 MB) signature: per-byte costs dominate.
pub const BIG_SIG: &[usize] = &[65536, 262144, 131072, 32768, 1290];

/// Untimed rounds before the first timed one; each passes the full gate.
pub const WARMUP_ROUNDS: usize = 3;

/// Hops of the three `cascade3_*` chains.
pub const CHAIN_HOPS: usize = 3;

/// `pooled_strat_small`: 2 strata × 2 hops, k-floor 8, 20 ms deadline,
/// arrivals spread over 100 ms of virtual time.
pub const POOL_K: usize = 8;
const POOL_DEADLINE_NS: u64 = 20_000_000;
const POOL_SPREAD_NS: u64 = 100_000_000;
/// The stratified layout is workload *shape*, not input: a fixed seed keeps
/// group sizes (hence cover counts and every exact metric) the same for
/// every `--seed`.
const POOL_LAYOUT_SEED: u64 = 0x57a7;

/// `eval compress` gates `int8+topk` at an aggregate RMSE of 0.2 on
/// uniform[-1, 1] updates, whose standard deviation is 1/√3; `agg_rmse` is
/// in units of each layer's RMS, so the same tolerance reads 0.2·√3 here.
const TOPK_RMSE_TOLERANCE: f64 = 0.2 * 1.732_050_807_568_877_2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    ProxySmall,
    Cascade3Small,
    Cascade3BigF32,
    Cascade3BigTopk,
    PooledStratSmall,
    FlTrain,
}

impl Kind {
    pub const ALL: [Kind; 6] = [
        Kind::ProxySmall,
        Kind::Cascade3Small,
        Kind::Cascade3BigF32,
        Kind::Cascade3BigTopk,
        Kind::PooledStratSmall,
        Kind::FlTrain,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ProxySmall => "proxy_small",
            Kind::Cascade3Small => "cascade3_small",
            Kind::Cascade3BigF32 => "cascade3_big_f32",
            Kind::Cascade3BigTopk => "cascade3_big_topk",
            Kind::PooledStratSmall => "pooled_strat_small",
            Kind::FlTrain => "fl_train",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Client updates per round.
    pub fn clients(self) -> usize {
        match self {
            Kind::ProxySmall => 256,
            Kind::Cascade3Small => 64,
            Kind::Cascade3BigF32 | Kind::Cascade3BigTopk => 8,
            Kind::PooledStratSmall => 32,
            Kind::FlTrain => 20,
        }
    }

    /// Layer signature of the generated updates (`fl_train` trains a real
    /// model instead; its signature comes from the model).
    pub fn signature(self) -> &'static [usize] {
        match self {
            Kind::Cascade3BigF32 | Kind::Cascade3BigTopk => BIG_SIG,
            _ => PAPER_SIG,
        }
    }

    pub fn compression(self) -> CompressionConfig {
        match self {
            Kind::Cascade3BigTopk | Kind::PooledStratSmall => CompressionConfig::int8_top_k(),
            _ => CompressionConfig::F32,
        }
    }
}

/// Independent seed streams derived from `--seed` (SplitMix64 finaliser).
#[derive(Debug, Clone, Copy)]
pub struct Seeds(pub u64);

impl Seeds {
    pub fn derive(self, stream: u64) -> u64 {
        let mut z = self
            .0
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(stream + 1));
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    pub fn inputs(self) -> u64 {
        self.derive(0)
    }
    pub fn launch(self) -> u64 {
        self.derive(1)
    }
    pub fn mixing(self) -> u64 {
        self.derive(2)
    }
    pub fn sealing(self) -> u64 {
        self.derive(3)
    }
}

/// Standard deviation of layer `l` of `layers`: log-spaced from 1e-3 to
/// 1e-1. Top-k selection cost and quantisation error depend on the value
/// distribution, not only on the size, so the inputs are not uniform noise.
pub fn layer_sigma(l: usize, layers: usize) -> f64 {
    let t = if layers > 1 {
        l as f64 / (layers - 1) as f64
    } else {
        0.0
    };
    1e-3 * 100f64.powf(t)
}

/// One Gaussian update per client, reproducible from `seed` alone.
pub fn gaussian_updates(signature: &[usize], clients: usize, seed: u64) -> Vec<ModelUpdate> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..clients)
        .map(|id| {
            let layers = signature
                .iter()
                .enumerate()
                .map(|(l, &len)| {
                    let sigma = layer_sigma(l, signature.len());
                    let mut values = Vec::with_capacity(len + 1);
                    while values.len() < len {
                        // Box–Muller; u1 ∈ (0, 1] keeps the logarithm finite.
                        let u1 = 1.0 - rng.gen::<f64>();
                        let u2 = rng.gen::<f64>();
                        let r = sigma * (-2.0 * u1.ln()).sqrt();
                        let (s, c) = (std::f64::consts::TAU * u2).sin_cos();
                        values.push((r * c) as f32);
                        values.push((r * s) as f32);
                    }
                    values.truncate(len);
                    LayerParams::from_values(values)
                })
                .collect();
            ModelUpdate::new(id, ModelParams::from_layers(layers))
        })
        .collect()
}

/// Launches the attested proxy enclave of `proxy_small` / `fl_train`.
pub fn launch_proxy(
    signature: Vec<usize>,
    seeds: Seeds,
    telemetry: Option<Telemetry>,
) -> (MixnnProxy, AttestationService) {
    let mut rng = StdRng::seed_from_u64(seeds.launch());
    let attestation = AttestationService::new(&mut rng);
    let mut proxy = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: signature,
            seed: seeds.mixing(),
            ..MixnnProxyConfig::default()
        },
        &attestation,
        &mut rng,
    );
    assert!(
        proxy.verify_against(&attestation),
        "proxy quote must verify"
    );
    if let Some(t) = telemetry {
        proxy.attach_telemetry(t);
    }
    (proxy, attestation)
}

/// The paper's deployment: sealed updates, batch mixing.
pub fn proxy_transport(proxy: MixnnProxy, seeds: Seeds) -> MixnnTransport {
    MixnnTransport::new(proxy, TransportMode::Encrypted, seeds.sealing())
}

/// Launches the cascade of a `cascade3_*` or `pooled_strat_small` workload.
pub fn launch_cascade(kind: Kind, seeds: Seeds) -> (CascadeCoordinator, AttestationService) {
    let mut rng = StdRng::seed_from_u64(seeds.launch());
    let attestation = AttestationService::new(&mut rng);
    let signature = kind.signature().to_vec();
    let mut cascade = if kind == Kind::PooledStratSmall {
        CascadeCoordinator::with_topology(
            signature,
            Box::new(StratifiedLayout::evenly(4, 2, POOL_LAYOUT_SEED)),
            seeds.mixing(),
            FailurePolicy::Abort,
            &attestation,
            &mut rng,
        )
    } else {
        CascadeCoordinator::linear(
            signature,
            CHAIN_HOPS,
            seeds.mixing(),
            FailurePolicy::Abort,
            &attestation,
            &mut rng,
        )
    }
    .expect("a valid cascade configuration launches");
    cascade.set_compression(kind.compression());
    for hop in cascade.hops() {
        assert!(hop.verify_against(&attestation), "hop quote must verify");
    }
    (cascade, attestation)
}

/// Wraps a launched cascade in the pooled transport of `pooled_strat_small`.
pub fn pooled_transport(cascade: CascadeCoordinator, seeds: Seeds) -> PooledCascadeTransport {
    let pooled = PooledCoordinator::new(
        cascade,
        PoolConfig {
            k: POOL_K,
            deadline_ns: POOL_DEADLINE_NS,
        },
        seeds.sealing(),
    )
    .expect("k and deadline are positive");
    let registry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    PooledCascadeTransport::new(pooled, registry, POOL_SPREAD_NS)
        .expect("the registry has a virtual clock")
}

/// Builds the `fl_train` simulation: MotionSense-like population, the
/// paper's conv2+fc3 model at width 4/32 and its §6.1.4 hyper-parameters.
pub fn fl_simulation(seeds: Seeds) -> FlSimulation {
    let population = mixnn_data::motionsense_like(seeds.inputs())
        .generate()
        .expect("the built-in spec is valid");
    let dims = population.spec().dims;
    let mut rng = StdRng::seed_from_u64(seeds.derive(4));
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        population.spec().num_classes,
        4,
        32,
        &mut rng,
    );
    let cfg = FlConfig {
        local_epochs: 2,
        batch_size: 256,
        clients_per_round: Kind::FlTrain.clients(),
        learning_rate: 0.005,
        seed: seeds.derive(5),
        ..FlConfig::default()
    };
    FlSimulation::new(template, cfg, &population)
}

enum Path {
    Proxy(MixnnTransport),
    Cascade(CascadeTransport),
    Pooled(PooledCascadeTransport),
    Fl {
        sim: Box<FlSimulation>,
        transport: MixnnTransport,
    },
}

/// What a correct round must reproduce, computed once from the inputs.
struct Expect {
    /// `codec::canonical_params` image of every input (the inputs
    /// themselves on lossless workloads, where no copy is kept).
    canonical: Option<Vec<ModelParams>>,
    /// `DirectTransport` aggregate of the canonical images: the server's
    /// aggregate must equal it bit for bit.
    aggregate: ModelParams,
}

/// Wall time and allocations of one timed round.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_ns: u64,
    pub alloc: AllocCount,
}

/// What the server saw in a round, kept for the gate.
pub struct Observed {
    updates: Vec<ModelUpdate>,
    /// `fl_train` only: the updates the clients produced (recorded on gated
    /// rounds by a wrapper around the transport) and the new global model.
    fl: Option<(Vec<ModelUpdate>, ModelParams)>,
}

/// Records what the clients hand to the transport, on gated rounds only.
#[derive(Debug)]
struct Recording<'a> {
    inner: &'a mut dyn UpdateTransport,
    sent: Vec<ModelUpdate>,
}

impl UpdateTransport for Recording<'_> {
    fn label(&self) -> &str {
        self.inner.label()
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        self.sent = updates.clone();
        self.inner.relay(updates)
    }
}

pub struct Workload {
    pub kind: Kind,
    seeds: Seeds,
    attestation: AttestationService,
    path: Path,
    server: AggregationServer,
    inputs: Vec<ModelUpdate>,
    expect: Option<Expect>,
}

impl Workload {
    /// Key generation, attestation and input generation. Warm-up is the
    /// caller's (it gates and times those rounds).
    pub fn build(kind: Kind, seed: u64) -> Workload {
        let seeds = Seeds(seed);
        let (path, attestation) = match kind {
            Kind::ProxySmall => {
                let (proxy, a) = launch_proxy(kind.signature().to_vec(), seeds, None);
                (Path::Proxy(proxy_transport(proxy, seeds)), a)
            }
            Kind::PooledStratSmall => {
                let (cascade, a) = launch_cascade(kind, seeds);
                (Path::Pooled(pooled_transport(cascade, seeds)), a)
            }
            Kind::FlTrain => {
                let sim = fl_simulation(seeds);
                let (proxy, a) = launch_proxy(sim.template().signature(), seeds, None);
                let (sim, transport) = (Box::new(sim), proxy_transport(proxy, seeds));
                (Path::Fl { sim, transport }, a)
            }
            _ => {
                let (cascade, a) = launch_cascade(kind, seeds);
                (
                    Path::Cascade(CascadeTransport::new(cascade, seeds.sealing())),
                    a,
                )
            }
        };
        let (inputs, expect, initial) = if kind == Kind::FlTrain {
            (Vec::new(), None, ModelParams::from_layers(Vec::new()))
        } else {
            let inputs = gaussian_updates(kind.signature(), kind.clients(), seeds.inputs());
            let compression = kind.compression();
            let canonical: Option<Vec<ModelParams>> = (!compression.is_f32()).then(|| {
                inputs
                    .iter()
                    .map(|u| codec::canonical_params(&u.params, compression))
                    .collect()
            });
            let images: Vec<ModelUpdate> = match &canonical {
                Some(c) => c
                    .iter()
                    .enumerate()
                    .map(|(id, p)| ModelUpdate::new(id, p.clone()))
                    .collect(),
                None => inputs.clone(),
            };
            let initial = inputs[0].params.scale(0.0);
            let mut reference = AggregationServer::new(initial.clone());
            let direct = DirectTransport::new()
                .relay(images)
                .expect("the identity transport cannot fail");
            let aggregate = reference
                .aggregate(&direct)
                .expect("generated updates share one signature")
                .clone();
            (
                inputs,
                Some(Expect {
                    canonical,
                    aggregate,
                }),
                initial,
            )
        };
        Workload {
            kind,
            seeds,
            attestation,
            path,
            server: AggregationServer::new(initial),
            inputs,
            expect,
        }
    }

    /// One closed-loop round: `relay` then `aggregate` (for `fl_train`,
    /// `FlSimulation::run_round`, which trains, relays and aggregates).
    /// Only that call sequence is inside the timed and counted window; the
    /// copy of the inputs handed to `relay` is made before it. `gated`
    /// additionally records what `fl_train`'s clients sent.
    pub fn round(&mut self, gated: bool) -> Result<(Sample, Observed), String> {
        if let Path::Fl { sim, transport } = &mut self.path {
            let mut recording = Recording {
                inner: transport,
                sent: Vec::new(),
            };
            let a0 = alloc::snapshot();
            let t0 = Instant::now();
            let outcome = if gated {
                sim.run_round(&mut recording)
            } else {
                sim.run_round(recording.inner)
            };
            let wall_ns = t0.elapsed().as_nanos() as u64;
            let alloc = alloc::snapshot().since(a0);
            let outcome = outcome.map_err(|e| e.to_string())?;
            return Ok((
                Sample { wall_ns, alloc },
                Observed {
                    updates: outcome.observed,
                    fl: Some((recording.sent, outcome.global_after)),
                },
            ));
        }
        let batch = self.inputs.clone();
        let transport: &mut dyn UpdateTransport = match &mut self.path {
            Path::Proxy(t) => t,
            Path::Cascade(t) => t,
            Path::Pooled(t) => t,
            Path::Fl { .. } => unreachable!("handled above"),
        };
        let a0 = alloc::snapshot();
        let t0 = Instant::now();
        let relayed = transport.relay(batch);
        let aggregated = relayed.and_then(|observed| {
            self.server.aggregate(&observed)?;
            Ok(observed)
        });
        let wall_ns = t0.elapsed().as_nanos() as u64;
        let alloc = alloc::snapshot().since(a0);
        let updates = aggregated.map_err(|e| e.to_string())?;
        Ok((Sample { wall_ns, alloc }, Observed { updates, fl: None }))
    }

    /// The cheap part of the gate, applied to every timed round.
    pub fn check_count(&self, observed: &Observed) -> Result<(), String> {
        let clients = self.kind.clients();
        if observed.updates.len() == clients {
            Ok(())
        } else {
            Err(format!(
                "server observed {} updates, expected {clients}",
                observed.updates.len()
            ))
        }
    }

    /// What the clients sent in this round — as `canonical_params` images
    /// when `canonical` (what a lossy wire can deliver at best) — and the
    /// global model the round produced.
    fn sent_and_global<'a>(
        &'a self,
        observed: &'a Observed,
        canonical: bool,
    ) -> (Vec<&'a ModelParams>, &'a ModelParams) {
        match (&observed.fl, &self.expect) {
            (Some((sent, global)), _) => (sent.iter().map(|u| &u.params).collect(), global),
            (
                None,
                Some(Expect {
                    canonical: Some(images),
                    ..
                }),
            ) if canonical => (images.iter().collect(), self.server.global()),
            (None, _) => (
                self.inputs.iter().map(|u| &u.params).collect(),
                self.server.global(),
            ),
        }
    }

    /// The full correctness gate of one round (README.md, "Correctness").
    pub fn check(&self, observed: &Observed) -> Result<(), String> {
        self.check_count(observed)?;
        let (_, global) = self.sent_and_global(observed, true);
        let ids = |u: &[ModelUpdate]| u.iter().map(|u| u.client_id).collect::<Vec<_>>();
        let sent_ids = match &observed.fl {
            Some((sent, _)) => ids(sent),
            None => ids(&self.inputs),
        };
        if sent_ids != ids(&observed.updates) {
            return Err("client ids were not preserved".to_string());
        }
        let reference = match (&observed.fl, &self.expect) {
            (Some((sent, _)), _) => {
                // Classic FL on the same client updates: by induction over
                // rounds this is the same simulation over DirectTransport.
                let direct = DirectTransport::new()
                    .relay(sent.clone())
                    .map_err(|e| e.to_string())?;
                let mut classic = AggregationServer::new(global.scale(0.0));
                classic
                    .aggregate(&direct)
                    .map_err(|e| e.to_string())?
                    .clone()
            }
            (None, Some(expect)) => expect.aggregate.clone(),
            (None, None) => unreachable!("transport workloads carry an expectation"),
        };
        if global != &reference {
            return Err(
                "aggregate is not bit-identical to the DirectTransport aggregate of the \
                 clients' (canonical) updates"
                    .to_string(),
            );
        }
        let whole = self.whole_updates(observed);
        // One Latin mix plan over the whole round (the single proxy) leaves
        // no slot holding one client's layers only. A cascade promises
        // less: the composition of its hops' Latin plans is not Latin, so
        // with C = 8 a slot comes back whole about once in 650 rounds; and
        // the pooled path strips cover column by column over a fired pool,
        // so a route group with a single real member routinely does
        // (README.md, "Correctness"). There the gate is that most of the
        // round was mixed.
        let allowed = match self.path {
            Path::Proxy(_) | Path::Fl { .. } => 0,
            Path::Cascade(_) | Path::Pooled(_) => self.kind.clients() / 2,
        };
        if whole > allowed {
            return Err(format!(
                "{whole} slots reached the server as one client's whole update \
                 (at most {allowed} may)"
            ));
        }
        if !self.kind.compression().is_f32() {
            let rmse = self.agg_rmse(observed);
            if rmse > TOPK_RMSE_TOLERANCE {
                return Err(format!(
                    "agg_rmse {rmse} exceeds the int8+topk tolerance {TOPK_RMSE_TOLERANCE}"
                ));
            }
        }
        if let Path::Pooled(t) = &self.path {
            let fired = t.last_rounds();
            if let Some(g) = fired
                .iter()
                .flat_map(|r| r.audit().groups())
                .find(|g| g.members() < POOL_K)
            {
                return Err(format!(
                    "a fired route group mixed {} slots, below k = {POOL_K}",
                    g.members()
                ));
            }
            let cover: HashSet<[u8; 32]> = fired
                .iter()
                .flat_map(|r| r.padded.dummy_digests.iter().flatten().copied())
                .collect();
            let reached = observed
                .updates
                .iter()
                .flat_map(|u| u.params.iter())
                .any(|l| cover.contains(&codec::layer_digest(l)));
            if reached {
                return Err("a cover layer reached the aggregate".to_string());
            }
        }
        Ok(())
    }

    /// Server-observed updates that are one client's whole (canonical)
    /// update: slots on which no mixing is visible.
    pub fn whole_updates(&self, observed: &Observed) -> usize {
        let (sent, _) = self.sent_and_global(observed, true);
        observed
            .updates
            .iter()
            .filter(|o| sent.contains(&&o.params))
            .count()
    }

    /// RMSE of the server's aggregate against the exact (f64) mean of what
    /// the clients sent, each layer in units of the RMS of its sent values.
    /// Lossless workloads read the final f32 rounding (≈1e-8, never 0);
    /// lossy ones the codec's loss.
    pub fn agg_rmse(&self, observed: &Observed) -> f64 {
        let (sent, global) = self.sent_and_global(observed, false);
        let (mut squared, mut count) = (0.0f64, 0usize);
        for (l, layer) in global.iter().enumerate() {
            let columns: Vec<&[f32]> = sent
                .iter()
                .map(|p| p.layer(l).expect("shared signature").values())
                .collect();
            let energy: f64 = columns
                .iter()
                .flat_map(|c| c.iter())
                .map(|&v| f64::from(v) * f64::from(v))
                .sum();
            let rms = (energy / (columns.len() * layer.len()).max(1) as f64).sqrt();
            if rms == 0.0 {
                continue;
            }
            for (i, &got) in layer.values().iter().enumerate() {
                let exact =
                    columns.iter().map(|c| f64::from(c[i])).sum::<f64>() / columns.len() as f64;
                squared += ((f64::from(got) - exact) / rms).powi(2);
            }
            count += layer.len();
        }
        (squared / count.max(1) as f64).sqrt()
    }

    /// Bytes one participant uploads per round: the length of an update
    /// really sealed through the public client API.
    pub fn upload_bytes(&self) -> usize {
        let mut rng = StdRng::seed_from_u64(self.seeds.derive(6));
        let seal_for_proxy = |t: &MixnnTransport, params: &ModelParams, rng: &mut StdRng| {
            let plain = codec::encode_params_with(params, t.compression());
            SealedBox::seal(&plain, t.proxy().public_key(), rng)
                .expect("attested keys are never low-order")
                .len()
        };
        let seal_for_cascade = |c: &CascadeCoordinator, rng: &mut StdRng| {
            c.client_for_slot(0, &self.attestation)
                .and_then(|client| client.seal_update(&self.inputs[0].params, rng))
                .expect("attested hops accept a client")
                .len()
        };
        match &self.path {
            Path::Proxy(t) => seal_for_proxy(t, &self.inputs[0].params, &mut rng),
            Path::Fl { sim, transport } => seal_for_proxy(transport, sim.global(), &mut rng),
            Path::Cascade(t) => seal_for_cascade(t.coordinator(), &mut rng),
            Path::Pooled(t) => seal_for_cascade(t.coordinator().cascade(), &mut rng),
        }
    }

    /// Highest enclave memory any proxy or hop has held, in bytes.
    pub fn epc_high_water(&self) -> usize {
        let over_hops = |c: &CascadeCoordinator| {
            c.hops()
                .iter()
                .map(|h| h.memory_stats().high_water)
                .max()
                .unwrap_or(0)
        };
        match &self.path {
            Path::Proxy(t) | Path::Fl { transport: t, .. } => t.proxy().memory_stats().high_water,
            Path::Cascade(t) => over_hops(t.coordinator()),
            Path::Pooled(t) => over_hops(t.coordinator().cascade()),
        }
    }

    pub fn seeds(&self) -> Seeds {
        self.seeds
    }

    pub fn attestation(&self) -> &AttestationService {
        &self.attestation
    }

    /// The generated client updates (empty for `fl_train`).
    pub fn inputs(&self) -> &[ModelUpdate] {
        &self.inputs
    }

    /// The aggregate every correct round of a transport workload produces.
    pub fn expected_aggregate(&self) -> Option<&ModelParams> {
        self.expect.as_ref().map(|e| &e.aggregate)
    }

    pub fn pooled(&self) -> Option<&PooledCascadeTransport> {
        match &self.path {
            Path::Pooled(t) => Some(t),
            _ => None,
        }
    }

    pub fn simulation(&self) -> Option<&FlSimulation> {
        match &self.path {
            Path::Fl { sim, .. } => Some(sim),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_distinct() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }

    #[test]
    fn inputs_depend_only_on_the_seed() {
        let a = gaussian_updates(&[7, 3], 4, 11);
        assert_eq!(a, gaussian_updates(&[7, 3], 4, 11));
        assert_ne!(a, gaussian_updates(&[7, 3], 4, 12));
        assert_eq!(a.len(), 4);
        assert_eq!(a[2].client_id, 2);
        assert_eq!(a[0].params.signature(), vec![7, 3]);
    }

    #[test]
    fn layer_scales_are_log_spaced() {
        assert!((layer_sigma(0, 5) - 1e-3).abs() < 1e-12);
        assert!((layer_sigma(2, 5) - 1e-2).abs() < 1e-12);
        assert!((layer_sigma(4, 5) - 1e-1).abs() < 1e-12);
        let updates = gaussian_updates(&[20_000, 20_000], 1, 3);
        let rms = |l: usize| {
            let v = updates[0].params.layer(l).unwrap().values();
            (v.iter().map(|&x| f64::from(x).powi(2)).sum::<f64>() / v.len() as f64).sqrt()
        };
        assert!((rms(0) / 1e-3 - 1.0).abs() < 0.03);
        assert!((rms(1) / 1e-1 - 1.0).abs() < 0.03);
    }

    #[test]
    fn seed_streams_differ() {
        let s = Seeds(7);
        let all = [s.inputs(), s.launch(), s.mixing(), s.sealing()];
        let distinct: HashSet<u64> = all.into_iter().collect();
        assert_eq!(distinct.len(), 4);
        assert_ne!(Seeds(8).inputs(), s.inputs());
    }
}
