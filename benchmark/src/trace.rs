//! The traced block: per-layer metrics measured from the benchmark's own
//! files, around the calls into each layer (tracing inside the crates is a
//! later change).
//!
//! Three kinds of number, kept apart (README.md, "Per-layer metrics"):
//!
//! * **stages** — spans between the boundaries of a real round, taken by a
//!   timestamping [`RoundLink`] handed to `run_round_over` /
//!   `run_padded_round_over` (cascades), or around the public calls of a
//!   decomposed drive (single proxy, FL);
//! * **replays** — one public function run on exactly the sizes and counts
//!   the round used;
//! * **counts** — exact, read from the program's own reports.
//!
//! All times are floors over the traced rounds or the replay repetitions.

use crate::json::Json;
use crate::metrics::{Values, PER_LAYER};
use crate::run::{self, Block, Gate, Harness};
use crate::workloads::{self, Kind, Sample, Seeds, Workload, CHAIN_HOPS, POOL_K};
use crate::{procfs, stats};
use mixnn_cascade::{
    CascadeClient, CascadeCoordinator, CascadeHop, CascadeHopConfig, HopDescriptor, OnionUpdate,
};
use mixnn_core::codec::{self, CompressionConfig};
use mixnn_core::{Endpoint, LinkError, MixPlan, MixnnProxy, ProxyStats, RoundLink};
use mixnn_crypto::{x25519, KeyPair, SealedBox};
use mixnn_fl::{AggregationServer, ModelUpdate, UpdateTransport};
use mixnn_net::{FlushPolicy, LinkConfig, NetCascadeTransport};
use mixnn_nn::{Adam, ModelParams, SoftmaxCrossEntropy};
use mixnn_telemetry::Registry;
use mixnn_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Shares of `--seconds` a traced block spends in its main loop (untraced
/// and traced rounds alternating), on each replay, and on a side pass
/// (`net`, `telemetry`).
const MAIN_SHARE: f64 = 0.50;
const REPLAY_SHARE: f64 = 0.02;
const SIDE_PASS_SHARE: f64 = 0.15;

/// Stage spans must cover this share of every traced cascade round.
const CLOSURE_FLOOR: f64 = 0.95;

/// Virtual-time budget of one simulated segment delivery (`net` pass).
const WIRE_TIMEOUT_NS: u64 = 10_000_000_000;

// ---------------------------------------------------------------- spans ---

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    round: u64,
}

/// Spans are kept in memory and written out when the block ends.
struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        round: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            round,
        });
        self.spans.len() - 1
    }

    fn to_json(&self, kind: Kind, seed: u64) -> Json {
        let spans = self.spans.iter().enumerate().map(|(id, s)| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("round", Json::Num(s.round as f64)),
            ])
        });
        Json::obj([
            ("workload", Json::str(kind.name())),
            ("seed", Json::Num(seed as f64)),
            ("spans", Json::Arr(spans.collect())),
        ])
    }
}

/// One segment delivery as the timestamping link saw it.
struct Stamp {
    from: Endpoint,
    to: Endpoint,
    at_ns: u64,
    bytes: usize,
}

/// The identity link plus a clock: every stage boundary of a cascade round
/// passes through `deliver`, so stamping there attributes the round's wall
/// time without touching the crates. Not transparent, so the coordinator
/// always delivers segment by segment in canonical order.
struct StampLink {
    epoch: Instant,
    stamps: Vec<Stamp>,
}

impl RoundLink for StampLink {
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        self.stamps.push(Stamp {
            from,
            to,
            at_ns: self.epoch.elapsed().as_nanos() as u64,
            bytes: messages.iter().map(Vec::len).sum(),
        });
        Ok(messages)
    }
}

/// Stage times of one cascade round, summed by stage.
#[derive(Default, Clone, Copy)]
struct Stages {
    seal_ns: u64,
    first_ns: u64,
    mid_ns: u64,
    last_ns: u64,
    strip_ns: u64,
    groups: usize,
    /// Bytes delivered into the first hop of every group.
    first_hop_bytes: usize,
    /// Bytes over every segment (the payload a wire would carry).
    path_bytes: usize,
}

impl Stages {
    fn hops_ns(&self) -> u64 {
        self.first_ns + self.mid_ns + self.last_ns
    }

    fn total_ns(&self) -> u64 {
        self.seal_ns + self.hops_ns() + self.strip_ns
    }
}

/// Cuts `[start, end]` at the stamps: start → first `Clients→Hop` is the
/// client sealing; `→Hop(h)` opens hop h's stage (first / mid / last by its
/// position on the route); `→Server` opens the strip stage, which the next
/// group's `Clients→Hop` or the end of the round closes.
fn cut_stages(
    tracer: &mut Tracer,
    stamps: &[Stamp],
    start: u64,
    end: u64,
    parent: usize,
    round: u64,
) -> Stages {
    let mut stages = Stages::default();
    let mut open: (&'static str, u64) = ("cascade.client.seal", start);
    let close = |tracer: &mut Tracer, stages: &mut Stages, open: (&'static str, u64), at: u64| {
        let took = at.saturating_sub(open.1);
        match open.0 {
            "cascade.client.seal" => stages.seal_ns += took,
            "cascade.hop.first" => stages.first_ns += took,
            "cascade.hop.mid" => stages.mid_ns += took,
            "cascade.hop.last" => stages.last_ns += took,
            _ => stages.strip_ns += took,
        }
        tracer.push(open.0, open.1, at, Some(parent), round);
    };
    for (i, stamp) in stamps.iter().enumerate() {
        close(tracer, &mut stages, open, stamp.at_ns);
        stages.path_bytes += stamp.bytes;
        let next_is_server = matches!(stamps.get(i + 1), Some(s) if s.to == Endpoint::Server);
        open.1 = stamp.at_ns;
        open.0 = match (stamp.from, stamp.to) {
            (_, Endpoint::Server) => "cascade.onion.strip",
            (Endpoint::Clients, _) => {
                stages.groups += 1;
                stages.first_hop_bytes += stamp.bytes;
                "cascade.hop.first"
            }
            _ if next_is_server => "cascade.hop.last",
            _ => "cascade.hop.mid",
        };
    }
    close(tracer, &mut stages, open, end);
    stages
}

// -------------------------------------------------------------- helpers ---

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

fn floor_of(samples: impl IntoIterator<Item = u64>) -> u64 {
    samples.into_iter().min().unwrap_or(0)
}

/// Floor, in nanoseconds, of `f`'s own measurement over repetitions that
/// fill `budget` (three at least). `f` prepares its inputs untimed and
/// returns the nanoseconds of the part it measures.
fn replay(budget: Duration, mut f: impl FnMut() -> u64) -> f64 {
    let deadline = Instant::now() + budget;
    let mut best = u64::MAX;
    let mut reps = 0;
    while reps < 3 || Instant::now() < deadline {
        best = best.min(f());
        reps += 1;
    }
    best as f64
}

/// [`replay`] for two measurements whose ratio is reported: taken in the
/// same repetitions, so a slow host phase hits both alike.
fn replay_pair(budget: Duration, mut f: impl FnMut() -> (u64, u64)) -> (f64, f64) {
    let deadline = Instant::now() + budget;
    let mut best = (u64::MAX, u64::MAX);
    let mut reps = 0;
    while reps < 3 || Instant::now() < deadline {
        let (a, b) = f();
        best = (best.0.min(a), best.1.min(b));
        reps += 1;
    }
    (best.0 as f64, best.1 as f64)
}

fn timed<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let t0 = Instant::now();
    let out = black_box(f());
    (t0.elapsed().as_nanos() as u64, out)
}

fn stats_delta(after: &ProxyStats, before: &ProxyStats) -> (f64, f64, f64) {
    (
        after.decrypt_seconds - before.decrypt_seconds,
        after.store_seconds - before.store_seconds,
        after.mix_seconds - before.mix_seconds,
    )
}

fn as_updates(params: Vec<ModelParams>) -> Vec<ModelUpdate> {
    params
        .into_iter()
        .enumerate()
        .map(|(id, p)| ModelUpdate::new(id, p))
        .collect()
}

fn mib(bytes: usize) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

const HOP_EPC: [&str; 4] = [
    "enclave.epc_high_water_mb.hop0",
    "enclave.epc_high_water_mb.hop1",
    "enclave.epc_high_water_mb.hop2",
    "enclave.epc_high_water_mb.hop3",
];

fn record_enclaves(values: &mut Values, stats: &[mixnn_enclave::MemoryStats]) {
    for (name, s) in HOP_EPC.iter().zip(stats) {
        values.set(name, mib(s.high_water));
    }
    values.set(
        "enclave.paging_events",
        stats.iter().map(|s| s.paging_events as f64).sum(),
    );
}

/// What every traced block shares: the budget, the gate, the spans.
struct Ctx {
    kind: Kind,
    seeds: Seeds,
    seconds: f64,
    gate: Gate,
    tracer: Tracer,
    values: Values,
    /// Whole traced rounds (everything the untraced round does).
    traced_round_ns: Vec<u64>,
    /// The untraced rounds the traced ones alternate with — the base of
    /// every "what did this add" figure — and the CPU time they used.
    untraced: Vec<Sample>,
    untraced_cpu_ms: f64,
}

impl Ctx {
    fn share(&self, share: f64) -> Duration {
        Duration::from_secs_f64(self.seconds * share)
    }

    /// One ordinary round of the workload, exactly as the untraced block
    /// runs it. Every traced loop calls this once per iteration, so traced
    /// and untraced floors see the same host phases.
    fn untraced_round(&mut self, workload: &mut Workload) {
        let cpu0 = procfs::cpu_ms();
        match workload.round(false) {
            Ok((sample, observed)) => {
                let counted = workload.check_count(&observed);
                if counted.is_ok() {
                    self.untraced.push(sample);
                    self.untraced_cpu_ms += procfs::cpu_ms() - cpu0;
                }
                self.gate.record("untraced round", counted);
            }
            Err(e) => self.gate.record("untraced round", Err(e)),
        }
    }

    fn untraced_floor_ns(&self) -> u64 {
        floor_of(self.untraced.iter().map(|s| s.wall_ns))
    }
}

// -------------------------------------------------------- kernel replays ---

/// `crypto`, `core.codec` and `core.mixer`, replayed on the envelope sizes
/// and batch shapes this workload's round uses. `updates` are the round's
/// client updates; an update travels as one envelope (single proxy) or as
/// one envelope per layer (`per_layer_envelopes`, the cascades);
/// `mix_group` is the number of rows one mixing plan covers.
fn replay_kernels(
    ctx: &mut Ctx,
    updates: &[ModelParams],
    per_layer_envelopes: bool,
    mix_group: usize,
) {
    let budget = ctx.share(REPLAY_SHARE);
    let compression = ctx.kind.compression();
    let mut rng = StdRng::seed_from_u64(ctx.seeds.derive(10));
    let recipient = KeyPair::generate(&mut rng);
    let plains_of = |p: &ModelParams| -> Vec<Vec<u8>> {
        if per_layer_envelopes {
            p.iter()
                .map(|l| codec::encode_layer_with(l, compression))
                .collect()
        } else {
            vec![codec::encode_params_with(p, compression)]
        }
    };
    let plains = plains_of(&updates[0]);
    let n = plains.len() as f64;

    // crypto: one update's envelopes sealed and opened one by one…
    let mut sealed: Vec<Vec<u8>> = Vec::new();
    let seal_ns = replay(budget, || {
        let (ns, out) = timed(|| {
            plains
                .iter()
                .map(|p| SealedBox::seal(p, recipient.public(), &mut rng).expect("fresh key"))
                .collect()
        });
        sealed = out;
        ns
    });
    let open_ns = replay(budget, || {
        timed(|| {
            for s in &sealed {
                black_box(SealedBox::open(s, &recipient).expect("own envelope"));
            }
        })
        .0
    });
    // …and the whole round's batch opened together, as a proxy or hop does.
    let batch: Vec<Vec<u8>> = updates
        .iter()
        .flat_map(&plains_of)
        .map(|p| SealedBox::seal(&p, recipient.public(), &mut rng).expect("fresh key"))
        .collect();
    let open_batch_ns = replay(budget, || {
        timed(|| {
            let opened = SealedBox::open_batch(&batch, &recipient);
            assert!(opened.iter().all(Result::is_ok), "own envelopes open");
            opened
        })
        .0
    });
    let point = *recipient.public().as_bytes();
    let scalar = *recipient.secret().as_bytes();
    let x25519_ns = replay(budget, || timed(|| x25519::x25519(&scalar, &point)).0);
    let mut seal_sized = |len: usize| {
        let plain = vec![0x5au8; len];
        replay(budget, || {
            timed(|| SealedBox::seal(&plain, recipient.public(), &mut rng).expect("fresh key")).0
        })
    };
    let (small, large) = (64usize, 1 << 20);
    let slope = (seal_sized(large) - seal_sized(small)) / (large - small) as f64;
    ctx.values.set("crypto.seal_us", us(seal_ns / n));
    ctx.values.set("crypto.open_us", us(open_ns / n));
    ctx.values.set(
        "crypto.open_batch_us",
        us(open_batch_ns / batch.len() as f64),
    );
    ctx.values.set("crypto.x25519_us", us(x25519_ns));
    ctx.values.set("crypto.seal_ns_per_byte", slope);

    // core.codec: the workload's mode over one update's layers.
    let first = &updates[0];
    let params = first.total_len() as f64;
    let mut frames: Vec<Vec<u8>> = Vec::new();
    let encode_ns = replay(budget, || {
        let (ns, out) = timed(|| {
            first
                .iter()
                .map(|l| codec::encode_layer_with(l, compression))
                .collect()
        });
        frames = out;
        ns
    });
    let decode_ns = replay(budget, || {
        timed(|| {
            for (frame, layer) in frames.iter().zip(first.iter()) {
                black_box(codec::decode_layer_expecting(frame, layer.len()).expect("own frame"));
            }
        })
        .0
    });
    let wire: usize = frames.iter().map(Vec::len).sum();
    ctx.values
        .set("core.codec.encode_ns_per_param", encode_ns / params);
    ctx.values
        .set("core.codec.decode_ns_per_param", decode_ns / params);
    ctx.values
        .set("core.codec.wire_bytes_per_param", wire as f64 / params);

    // core.mixer: a plan for one mixing group and its application to that
    // group's rows of per-layer blobs.
    let layers = first.num_layers();
    let mut plan_rng = StdRng::seed_from_u64(ctx.seeds.derive(11));
    let plan_ns = replay(budget, || {
        timed(|| MixPlan::for_round(mix_group, layers, &mut plan_rng).expect("non-empty group")).0
    });
    let plan = MixPlan::for_round(mix_group, layers, &mut plan_rng).expect("non-empty group");
    let rows: Vec<Vec<Vec<u8>>> = updates
        .iter()
        .cycle()
        .take(mix_group)
        .map(|u| {
            u.iter()
                .map(|l| codec::encode_layer_with(l, compression))
                .collect()
        })
        .collect();
    let apply_ns = replay(budget, || {
        let copy = rows.clone();
        timed(|| plan.apply_owned(copy).expect("rows match the plan")).0
    });
    ctx.values.set("core.mixer.plan_us", us(plan_ns));
    ctx.values.set("core.mixer.apply_us", us(apply_ns));
}

// ------------------------------------------------------- cascade rounds ---

/// What the traced cascade rounds found, for the derived shares.
struct CascadeFloors {
    stages: Stages,
    cascade_round_ns: u64,
    hop_rounds: usize,
}

fn record_stage_floors(
    ctx: &mut Ctx,
    per_round: &[Stages],
    hop_stats: &[(f64, f64, f64)],
    aggregate_ns: &[u64],
    clients: usize,
) -> Stages {
    let f = |pick: fn(&Stages) -> u64| floor_of(per_round.iter().map(pick));
    let floors = Stages {
        seal_ns: f(|s| s.seal_ns),
        first_ns: f(|s| s.first_ns),
        mid_ns: f(|s| s.mid_ns),
        last_ns: f(|s| s.last_ns),
        strip_ns: f(|s| s.strip_ns),
        groups: per_round.first().map_or(0, |s| s.groups),
        first_hop_bytes: per_round.first().map_or(0, |s| s.first_hop_bytes),
        path_bytes: per_round.first().map_or(0, |s| s.path_bytes),
    };
    let v = &mut ctx.values;
    v.set("cascade.client.seal_ms", ms(floors.seal_ns));
    v.set("cascade.hop.first_ms", ms(floors.first_ns));
    v.set("cascade.hop.mid_ms", ms(floors.mid_ns));
    v.set("cascade.hop.last_ms", ms(floors.last_ns));
    v.set("cascade.onion.strip_ms", ms(floors.strip_ns));
    v.set("cascade.coordinator.groups_per_relay", floors.groups as f64);
    v.set(
        "cascade.hop.bytes_in_per_update",
        floors.first_hop_bytes as f64 / clients as f64,
    );
    let fmin = |pick: fn(&(f64, f64, f64)) -> f64| {
        hop_stats
            .iter()
            .map(pick)
            .fold(f64::INFINITY, f64::min)
            .max(0.0)
            * 1e3
    };
    if !hop_stats.is_empty() {
        v.set("cascade.hop.decrypt_ms", fmin(|d| d.0));
        v.set("cascade.hop.store_ms", fmin(|d| d.1));
        v.set("cascade.hop.mix_ms", fmin(|d| d.2));
    }
    v.set(
        "fl.server.aggregate_ms",
        ms(floor_of(aggregate_ns.iter().copied())),
    );
    floors
}

fn hop_stats_sum(cascade: &CascadeCoordinator) -> ProxyStats {
    let mut sum = ProxyStats::default();
    for s in cascade.hop_stats() {
        sum.absorb(&s);
    }
    sum
}

/// Checks the closure gate for one traced cascade round and returns the
/// share the stage spans cover.
fn closure(gate: &mut Gate, covered_ns: u64, wall_ns: u64) -> f64 {
    let share = covered_ns as f64 / wall_ns.max(1) as f64;
    gate.record(
        "stage closure",
        if share >= CLOSURE_FLOOR {
            Ok(())
        } else {
            Err(format!(
                "stage spans cover {share:.3} of the round, below {CLOSURE_FLOOR}"
            ))
        },
    );
    share
}

/// `cascade3_*`: real rounds through `run_round_over` with the stamping
/// link, then `aggregate`, exactly what `CascadeTransport::relay` and the
/// server do untraced.
fn trace_linear_cascade(ctx: &mut Ctx, workload: &mut Workload) -> CascadeFloors {
    let (mut cascade, _) = workloads::launch_cascade(ctx.kind, ctx.seeds);
    let mut rng = StdRng::seed_from_u64(ctx.seeds.sealing());
    let params: Vec<ModelParams> = workload.inputs().iter().map(|u| u.params.clone()).collect();
    let expected = &workload
        .expected_aggregate()
        .expect("transport workload")
        .clone();
    let mut server = AggregationServer::new(expected.scale(0.0));
    let mut link = StampLink {
        epoch: ctx.tracer.epoch,
        stamps: Vec::new(),
    };
    let (mut per_round, mut hop_deltas, mut aggregate_ns, mut cascade_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut closure_min = f64::INFINITY;
    let mut by_hand = HandChain::launch(ctx, workload);
    let deadline = Instant::now() + ctx.share(MAIN_SHARE);
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        ctx.untraced_round(workload);
        by_hand.pass(&mut ctx.gate, workload);
        link.stamps.clear();
        let before = hop_stats_sum(&cascade);
        let t0 = ctx.tracer.now();
        let result = cascade.run_round_over(&params, &mut rng, &mut link);
        let t1 = ctx.tracer.now();
        let outcome = result.map_err(|e| e.to_string()).and_then(|r| {
            let observed = as_updates(r.mixed);
            server.aggregate(&observed).map_err(|e| e.to_string())?;
            Ok(())
        });
        let t2 = ctx.tracer.now();
        let correct = outcome.and_then(|()| {
            (server.global() == expected)
                .then_some(())
                .ok_or_else(|| "traced aggregate differs from the reference".to_string())
        });
        ctx.gate.record("traced round", correct);
        let root = ctx.tracer.push("round", t0, t2, None, round);
        let stages = cut_stages(&mut ctx.tracer, &link.stamps, t0, t1, root, round);
        ctx.tracer
            .push("fl.server.aggregate", t1, t2, Some(root), round);
        closure_min = closure_min.min(closure(
            &mut ctx.gate,
            stages.total_ns() + (t2 - t1),
            t2 - t0,
        ));
        per_round.push(stages);
        hop_deltas.push(stats_delta(&hop_stats_sum(&cascade), &before));
        aggregate_ns.push(t2 - t1);
        cascade_ns.push(t1 - t0);
        ctx.traced_round_ns.push(t2 - t0);
        round += 1;
    }
    let floors = record_stage_floors(
        ctx,
        &per_round,
        &hop_deltas,
        &aggregate_ns,
        ctx.kind.clients(),
    );
    ctx.values
        .set("cascade.coordinator.stage_closure_share", closure_min);
    ctx.values.set(
        "crypto.envelopes_per_round",
        (ctx.kind.clients() * params[0].num_layers() * CHAIN_HOPS) as f64,
    );
    let memory: Vec<_> = cascade
        .hops()
        .iter()
        .map(CascadeHop::memory_stats)
        .collect();
    record_enclaves(&mut ctx.values, &memory);
    let cascade_round_ns = floor_of(cascade_ns);
    by_hand.record(&mut ctx.values, cascade_round_ns);
    CascadeFloors {
        stages: floors,
        cascade_round_ns,
        hop_rounds: CHAIN_HOPS,
    }
}

/// The same chain driven by hand over public calls — `seal_update` per
/// client, `mix_round` per hop, `decode` + `into_params` per onion — on
/// separately launched hops. What the real `run_round` floor exceeds the
/// sum of these stage floors by is the coordinator's own cost. Its passes
/// alternate with the real traced rounds, so both floors see the same host
/// phases.
struct HandChain {
    hops: Vec<CascadeHop>,
    client: CascadeClient,
    rng: StdRng,
    seal_ns: Vec<u64>,
    hop_ns: Vec<Vec<u64>>,
    strip_ns: Vec<u64>,
}

impl HandChain {
    fn launch(ctx: &Ctx, workload: &Workload) -> HandChain {
        let attestation = workload.attestation();
        let mut rng = StdRng::seed_from_u64(ctx.seeds.derive(12));
        let hops: Vec<CascadeHop> = (0..CHAIN_HOPS)
            .map(|i| {
                let config = CascadeHopConfig {
                    seed: ctx.seeds.derive(20 + i as u64),
                    ..CascadeHopConfig::default()
                };
                CascadeHop::launch(i, config, ctx.kind.signature(), attestation, &mut rng)
            })
            .collect();
        let descriptors: Vec<HopDescriptor> = hops.iter().map(CascadeHop::descriptor).collect();
        let client = CascadeClient::from_attested_hops(&descriptors, attestation)
            .expect("hops launched against this service attest")
            .with_compression(ctx.kind.compression());
        HandChain {
            hops,
            client,
            rng,
            seal_ns: Vec::new(),
            hop_ns: vec![Vec::new(); CHAIN_HOPS],
            strip_ns: Vec::new(),
        }
    }

    fn pass(&mut self, gate: &mut Gate, workload: &Workload) {
        let (client, rng) = (&self.client, &mut self.rng);
        let inputs = workload.inputs();
        let signature = workload.kind.signature();
        let (ns, mut batch) = timed(|| -> Vec<Vec<u8>> {
            inputs
                .iter()
                .map(|u| client.seal_update(&u.params, rng).expect("attested keys"))
                .collect()
        });
        self.seal_ns.push(ns);
        for (hop, samples) in self.hops.iter_mut().zip(&mut self.hop_ns) {
            let (ns, out) = timed(|| hop.mix_round(&batch).expect("own onions mix"));
            samples.push(ns);
            batch = out.0;
        }
        let (ns, mixed) = timed(|| -> Vec<ModelParams> {
            batch
                .iter()
                .map(|wire| {
                    OnionUpdate::decode(wire)
                        .and_then(|o| o.into_params(signature))
                        .expect("last hop frames decode")
                })
                .collect()
        });
        self.strip_ns.push(ns);
        let mut server = AggregationServer::new(mixed[0].scale(0.0));
        let same = server.aggregate(&as_updates(mixed)).ok() == workload.expected_aggregate();
        gate.record(
            "hand-driven chain",
            same.then_some(())
                .ok_or_else(|| "aggregate differs from the reference".to_string()),
        );
    }

    fn record(self, values: &mut Values, real_round_ns: u64) {
        let stage_sum = floor_of(self.seal_ns)
            + self.hop_ns.into_iter().map(floor_of).sum::<u64>()
            + floor_of(self.strip_ns);
        values.set(
            "cascade.coordinator.glue_ms",
            (real_round_ns as f64 - stage_sum as f64) / 1e6,
        );
    }
}

/// Client-side replays shared by every cascade workload: one update sealed
/// through the public client, the same work redone from codec and crypto
/// calls alone (how much of sealing those two layers explain), and one
/// onion's framing.
fn replay_cascade_client(ctx: &mut Ctx, workload: &Workload, cascade: &CascadeCoordinator) {
    let budget = ctx.share(REPLAY_SHARE);
    let compression = ctx.kind.compression();
    let params = &workload.inputs()[0].params;
    let client = cascade
        .client_for_slot(0, workload.attestation())
        .expect("attested hops accept a client");
    let mut rng = StdRng::seed_from_u64(ctx.seeds.derive(13));
    let keys: Vec<KeyPair> = (0..client.num_hops())
        .map(|_| KeyPair::generate(&mut rng))
        .collect();
    let mut wire = Vec::new();
    let (seal_ns, explained_ns) = replay_pair(budget, || {
        let (seal, out) = timed(|| client.seal_update(params, &mut rng).expect("attested keys"));
        wire = out;
        let explained = timed(|| {
            for layer in params.iter() {
                let mut blob = codec::encode_layer_with(layer, compression);
                for key in keys.iter().rev() {
                    blob = SealedBox::seal(&blob, key.public(), &mut rng).expect("fresh key");
                }
                black_box(blob);
            }
        })
        .0;
        (seal, explained)
    });
    let frame_ns = replay(budget, || {
        timed(|| OnionUpdate::decode(&wire).expect("own onion").encode()).0
    });
    ctx.values
        .set("cascade.client.seal_us_per_update", us(seal_ns));
    ctx.values
        .set("cascade.client.explained_share", explained_ns / seal_ns);
    ctx.values.set("cascade.onion.frame_us", us(frame_ns));
}

/// How much of the hops' stage time the replayed kernels explain: every
/// envelope of the round is opened exactly once (batched), and every
/// `mix_round` draws and applies one plan.
fn record_hop_explained(ctx: &mut Ctx, floors: &CascadeFloors) {
    let v = &mut ctx.values;
    let get = |v: &Values, name: &str| v.get(name).unwrap_or(0.0);
    let replayed_us = get(v, "crypto.open_batch_us") * get(v, "crypto.envelopes_per_round")
        + (get(v, "core.mixer.plan_us") + get(v, "core.mixer.apply_us")) * floors.hop_rounds as f64;
    let hops_us = floors.stages.hops_ns() as f64 / 1e3;
    if hops_us > 0.0 {
        v.set("cascade.hop.explained_share", replayed_us / hops_us);
    }
}

/// `net`: `cascade3_small` once more over `NetCascadeTransport` / `SimLink`
/// with batched flushing. The simulated wire's wall cost per segment, and
/// what the model says it carried (virtual figures are exact model output).
fn trace_net(ctx: &mut Ctx, workload: &mut Workload, payload_bytes_per_round: usize) {
    let (cascade, _) = workloads::launch_cascade(ctx.kind, ctx.seeds);
    let mut net = NetCascadeTransport::new(
        cascade,
        ctx.seeds.sealing(),
        LinkConfig::default(),
        FlushPolicy::Batched,
        WIRE_TIMEOUT_NS,
    );
    let expected = workload
        .expected_aggregate()
        .expect("transport workload")
        .clone();
    let mut server = AggregationServer::new(expected.scale(0.0));
    let (mut wired, mut plain) = (Vec::new(), Vec::new());
    let (mut stats0, mut virtual0) = (net.link().stats(), net.link().now_ns());
    let (mut bytes, mut packets, mut virtual_ns) = (0u64, 0u64, 0u64);
    let deadline = Instant::now() + ctx.share(SIDE_PASS_SHARE);
    // Alternate with the in-process transport so both floors see the same
    // host phases.
    while wired.len() < 3 || Instant::now() < deadline {
        let batch = workload.inputs().to_vec();
        let (ns, outcome) = timed(|| {
            let observed = net.relay(batch)?;
            server.aggregate(&observed).map(|_| ())
        });
        let correct = outcome.map_err(|e| e.to_string()).and_then(|()| {
            (server.global() == &expected)
                .then_some(())
                .ok_or_else(|| "aggregate over the simulated wire differs".to_string())
        });
        ctx.gate.record("net round", correct);
        wired.push(ns);
        let (stats1, virtual1) = (net.link().stats(), net.link().now_ns());
        bytes = stats1.bytes_sent - stats0.bytes_sent;
        packets = stats1.packets_sent - stats0.packets_sent;
        virtual_ns = virtual1 - virtual0;
        (stats0, virtual0) = (stats1, virtual1);
        ctx.untraced_round(workload);
        plain.extend(ctx.untraced.last().map(|s| s.wall_ns));
    }
    let segments = (CHAIN_HOPS + 1) as f64;
    let v = &mut ctx.values;
    v.set(
        "net.deliver_us",
        (floor_of(wired) as f64 - floor_of(plain) as f64) / 1e3 / segments,
    );
    v.set(
        "net.path_bytes_per_update",
        bytes as f64 / ctx.kind.clients() as f64,
    );
    v.set(
        "net.framing_overhead_share",
        1.0 - payload_bytes_per_round as f64 / (bytes as f64).max(1.0),
    );
    v.set("net.packets_per_round", packets as f64);
    v.set("net.virtual_round_ms", ms(virtual_ns));
}

// ------------------------------------------------------------ the pool ---

/// `pooled_strat_small`: a real relay through `PooledCascadeTransport`
/// gives the pool's own counts (`last_rounds()`); each fired pool's batch
/// is then replayed through `run_padded_round_over` at floor k on an
/// identically configured cascade with the stamping link, cover stripped
/// (`server_outputs`), and the reassembled round aggregated.
fn trace_pooled(ctx: &mut Ctx, workload: &mut Workload) -> CascadeFloors {
    let (mut cascade, _) = workloads::launch_cascade(ctx.kind, ctx.seeds);
    let mut rng = StdRng::seed_from_u64(ctx.seeds.sealing());
    let expected = workload
        .expected_aggregate()
        .expect("transport workload")
        .clone();
    let mut server = AggregationServer::new(expected.scale(0.0));
    let mut link = StampLink {
        epoch: ctx.tracer.epoch,
        stamps: Vec::new(),
    };
    let clients = ctx.kind.clients();
    let (mut per_relay, mut hop_deltas, mut aggregate_ns, mut replay_ns) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut closure_min = f64::INFINITY;
    let mut hop_rounds = 0;
    let deadline = Instant::now() + ctx.share(MAIN_SHARE);
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        let failed_before = ctx.gate.failed;
        ctx.untraced_round(workload);
        if ctx.gate.failed > failed_before {
            break;
        }
        let fired = workload
            .pooled()
            .expect("pooled workload")
            .last_rounds()
            .to_vec();
        if round == 0 {
            let (real, cover): (usize, usize) = fired
                .iter()
                .fold((0, 0), |(r, c), f| (r + f.real(), c + f.dummies()));
            let groups = || fired.iter().flat_map(|f| f.audit().groups());
            let mut waits: Vec<f64> = fired
                .iter()
                .flat_map(|f| &f.waits_ns)
                .map(|&w| w as f64 / 1e6)
                .collect();
            waits.sort_by(f64::total_cmp);
            let v = &mut ctx.values;
            v.set("cascade.pool.fired_per_relay", fired.len() as f64);
            v.set(
                "cascade.pool.useful_share",
                real as f64 / (real + cover).max(1) as f64,
            );
            v.set(
                "cascade.pool.min_group_slots",
                groups().map(|g| g.members()).min().unwrap_or(0) as f64,
            );
            v.set(
                "cascade.pool.wait_virtual_ms_p50",
                stats::median(&waits).unwrap_or(0.0),
            );
            let layers = expected.num_layers();
            let envelopes: usize = groups()
                .map(|g| g.members() * g.route().len() * layers)
                .sum();
            v.set("crypto.envelopes_per_round", envelopes as f64);
            hop_rounds = groups().map(|g| g.route().len()).sum();
        }

        let before = hop_stats_sum(&cascade);
        let t0 = ctx.tracer.now();
        let root = ctx.tracer.push("round", t0, t0, None, round);
        let mut relay = Stages::default();
        let mut by_slot: Vec<Option<ModelParams>> = vec![None; clients];
        let mut failure = None;
        for pool in &fired {
            let batch: Vec<ModelParams> = pool
                .slots
                .iter()
                .map(|&s| workload.inputs()[s].params.clone())
                .collect();
            link.stamps.clear();
            let p0 = ctx.tracer.now();
            let padded = cascade.run_padded_round_over(&batch, POOL_K, &mut rng, &mut link);
            let p1 = ctx.tracer.now();
            let outputs = padded.and_then(|p| p.server_outputs());
            let p2 = ctx.tracer.now();
            let s = cut_stages(&mut ctx.tracer, &link.stamps, p0, p1, root, round);
            ctx.tracer
                .push("cascade.onion.strip.cover", p1, p2, Some(root), round);
            relay.seal_ns += s.seal_ns;
            relay.first_ns += s.first_ns;
            relay.mid_ns += s.mid_ns;
            relay.last_ns += s.last_ns;
            relay.strip_ns += s.strip_ns + (p2 - p1);
            relay.groups += s.groups;
            relay.first_hop_bytes += s.first_hop_bytes;
            relay.path_bytes += s.path_bytes;
            match outputs {
                Ok(outputs) => {
                    for (&slot, params) in pool.slots.iter().zip(outputs) {
                        by_slot[slot] = Some(params);
                    }
                }
                Err(e) => failure = Some(e.to_string()),
            }
        }
        let t1 = ctx.tracer.now();
        let correct = match (failure, by_slot.into_iter().collect::<Option<Vec<_>>>()) {
            (Some(e), _) => Err(e),
            (None, None) => Err("a slot was fired by no pool".to_string()),
            (None, Some(all)) => server
                .aggregate(&as_updates(all))
                .map_err(|e| e.to_string())
                .and_then(|g| {
                    (g == &expected)
                        .then_some(())
                        .ok_or_else(|| "replayed aggregate differs from the reference".to_string())
                }),
        };
        let t2 = ctx.tracer.now();
        ctx.gate.record("replayed pools", correct);
        ctx.tracer.spans[root].end_ns = t2;
        ctx.tracer
            .push("fl.server.aggregate", t1, t2, Some(root), round);
        closure_min = closure_min.min(closure(
            &mut ctx.gate,
            relay.total_ns() + (t2 - t1),
            t2 - t0,
        ));
        per_relay.push(relay);
        hop_deltas.push(stats_delta(&hop_stats_sum(&cascade), &before));
        aggregate_ns.push(t2 - t1);
        replay_ns.push(t1 - t0);
        ctx.traced_round_ns.push(t2 - t0);
        round += 1;
    }
    let floors = record_stage_floors(ctx, &per_relay, &hop_deltas, &aggregate_ns, clients);
    ctx.values
        .set("cascade.coordinator.stage_closure_share", closure_min);
    let memory: Vec<_> = cascade
        .hops()
        .iter()
        .map(CascadeHop::memory_stats)
        .collect();
    record_enclaves(&mut ctx.values, &memory);
    let budget = ctx.share(REPLAY_SHARE);
    let mut nonce = 0u64;
    let dummy_ns = replay(budget, || {
        nonce += 1;
        timed(|| cascade.hops()[0].generate_dummy(ctx.kind.signature(), nonce)).0
    });
    ctx.values.set("cascade.pool.dummy_gen_us", us(dummy_ns));
    CascadeFloors {
        stages: floors,
        cascade_round_ns: floor_of(replay_ns),
        hop_rounds,
    }
}

// ------------------------------------------------------ the single proxy ---

/// A decomposed drive of the single proxy over public calls: seal as the
/// transport does (`encode_params_with` + `SealedBox::seal`), ingest with
/// `submit_encrypted` (the sequential per-update path; the transport's own
/// ingest is batched), `mix_batch`, then the server's `aggregate`.
/// `decrypt_ms` / `store_ms` are the proxy's own `ProxyStats` deltas.
fn trace_proxy(
    ctx: &mut Ctx,
    workload: &mut Workload,
    proxy: &mut MixnnProxy,
    updates: &[ModelUpdate],
    budget: Duration,
    whole_round: bool,
) {
    let mut rng = StdRng::seed_from_u64(ctx.seeds.sealing());
    let reference = AggregationServer::new(updates[0].params.scale(0.0))
        .aggregate(updates)
        .expect("one signature")
        .clone();
    let mut server = AggregationServer::new(reference.scale(0.0));
    let (mut seal, mut ingest, mut mix, mut aggregate, mut deltas) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let deadline = Instant::now() + budget;
    let mut round = ctx.traced_round_ns.len() as u64;
    while seal.len() < 3 || Instant::now() < deadline {
        ctx.untraced_round(workload);
        let before = proxy.stats();
        let t0 = ctx.tracer.now();
        let sealed: Vec<Vec<u8>> = updates
            .iter()
            .map(|u| {
                let plain = codec::encode_params_with(&u.params, CompressionConfig::F32);
                SealedBox::seal(&plain, proxy.public_key(), &mut rng).expect("attested key")
            })
            .collect();
        let t1 = ctx.tracer.now();
        let ingested = sealed
            .iter()
            .try_for_each(|s| proxy.submit_encrypted(s).map(|_| ()));
        let t2 = ctx.tracer.now();
        let mixed = ingested.and_then(|()| proxy.mix_batch());
        let t3 = ctx.tracer.now();
        let correct = mixed.map_err(|e| e.to_string()).and_then(|m| {
            let got = server
                .aggregate(&as_updates(m))
                .map_err(|e| e.to_string())?;
            (got == &reference)
                .then_some(())
                .ok_or_else(|| "decomposed aggregate differs from the reference".to_string())
        });
        let t4 = ctx.tracer.now();
        ctx.gate.record("decomposed proxy round", correct);
        let root = ctx.tracer.push(
            if whole_round {
                "round"
            } else {
                "core.proxy.round"
            },
            t0,
            t4,
            None,
            round,
        );
        for (name, a, b) in [
            ("core.proxy.seal", t0, t1),
            ("core.proxy.ingest", t1, t2),
            ("core.proxy.mix", t2, t3),
            ("fl.server.aggregate", t3, t4),
        ] {
            ctx.tracer.push(name, a, b, Some(root), round);
        }
        seal.push(t1 - t0);
        ingest.push(t2 - t1);
        mix.push(t3 - t2);
        aggregate.push(t4 - t3);
        deltas.push(stats_delta(&proxy.stats(), &before));
        if whole_round {
            ctx.traced_round_ns.push(t4 - t0);
        }
        round += 1;
    }
    let fmin = |pick: fn(&(f64, f64, f64)) -> f64| {
        deltas.iter().map(pick).fold(f64::INFINITY, f64::min) * 1e3
    };
    let v = &mut ctx.values;
    v.set("core.proxy.seal_ms", ms(floor_of(seal)));
    v.set("core.proxy.ingest_ms", ms(floor_of(ingest)));
    v.set("core.proxy.mix_ms", ms(floor_of(mix)));
    v.set("core.proxy.decrypt_ms", fmin(|d| d.0));
    v.set("core.proxy.store_ms", fmin(|d| d.1));
    v.set("core.proxy.rejected", proxy.stats().updates_rejected as f64);
    v.set("crypto.envelopes_per_round", updates.len() as f64);
    if whole_round {
        v.set("fl.server.aggregate_ms", ms(floor_of(aggregate)));
    }
    record_enclaves(v, &[proxy.memory_stats()]);
}

/// `telemetry`: `proxy_small` rounds with a live `Registry` attached,
/// alternated with the workload's own rounds (no registry) so both floors
/// see the same host phases.
fn trace_telemetry_overhead(ctx: &mut Ctx, workload: &mut Workload) {
    let registry = Registry::new().shared();
    let (proxy, _) =
        workloads::launch_proxy(ctx.kind.signature().to_vec(), ctx.seeds, Some(registry));
    let mut transport = workloads::proxy_transport(proxy, ctx.seeds);
    let expected = workload
        .expected_aggregate()
        .expect("transport workload")
        .clone();
    let mut server = AggregationServer::new(expected.scale(0.0));
    let (mut with, mut without) = (Vec::new(), Vec::new());
    let deadline = Instant::now() + ctx.share(SIDE_PASS_SHARE);
    while with.len() < 3 || Instant::now() < deadline {
        let batch = workload.inputs().to_vec();
        let (ns, outcome) = timed(|| {
            let observed = transport.relay(batch)?;
            server.aggregate(&observed).map(|_| ())
        });
        let correct = outcome.map_err(|e| e.to_string()).and_then(|()| {
            (server.global() == &expected)
                .then_some(())
                .ok_or_else(|| "aggregate with telemetry attached differs".to_string())
        });
        ctx.gate.record("telemetry round", correct);
        with.push(ns);
        ctx.untraced_round(workload);
        without.extend(ctx.untraced.last().map(|s| s.wall_ns));
    }
    ctx.values.set(
        "telemetry.overhead_share",
        floor_of(with) as f64 / (floor_of(without) as f64).max(1.0) - 1.0,
    );
}

// ------------------------------------------------------------------- FL ---

/// `fl_train` decomposed over public calls: `FlClient::train` per sampled
/// client (one after the other, so each time is one client's), then the
/// proxy stages on the trained updates and the server's aggregate; plus
/// replays of the `nn` / `tensor` calls training is made of.
fn trace_fl(ctx: &mut Ctx, workload: &mut Workload) {
    let sim = workload.simulation().expect("fl workload");
    let (template, cfg, global) = (sim.template().clone(), *sim.config(), sim.global().clone());
    let mut clients: Vec<_> = sim.clients().to_vec();
    clients.truncate(cfg.clients_per_round);
    let template = &template;
    let (mut proxy, _) = workloads::launch_proxy(template.signature(), ctx.seeds, None);
    let (mut per_client, mut all_clients) = (Vec::new(), Vec::new());
    let mut updates = Vec::new();
    let deadline = Instant::now() + ctx.share(MAIN_SHARE * 0.6);
    let mut round = 0u64;
    while round < 3 || Instant::now() < deadline {
        ctx.untraced_round(workload);
        let t0 = ctx.tracer.now();
        let root = ctx.tracer.push("fl.client.train.all", t0, t0, None, round);
        updates.clear();
        for client in &clients {
            let c0 = ctx.tracer.now();
            let trained = client.train(
                template,
                &global,
                &cfg,
                cfg.client_seed(round as usize, client.id()),
            );
            let c1 = ctx.tracer.now();
            ctx.tracer
                .push("fl.client.train", c0, c1, Some(root), round);
            per_client.push(c1 - c0);
            match trained {
                Ok(update) => updates.push(update),
                Err(e) => ctx.gate.record("client training", Err(e.to_string())),
            }
        }
        let t1 = ctx.tracer.now();
        ctx.tracer.spans[root].end_ns = t1;
        all_clients.push(t1 - t0);
        round += 1;
    }
    ctx.values
        .set("fl.client.train_ms", ms(floor_of(per_client)));
    let train_all_ns = floor_of(all_clients);
    let proxy_budget = ctx.share(MAIN_SHARE * 0.4);
    trace_proxy(ctx, workload, &mut proxy, &updates, proxy_budget, false);
    // One traced round = sequential training + the decomposed proxy drive
    // + aggregate (the simulation itself trains on worker threads, which
    // is why `harness.trace_overhead_share` is large here).
    let proxy_ns: f64 = [
        "core.proxy.seal_ms",
        "core.proxy.ingest_ms",
        "core.proxy.mix_ms",
    ]
    .iter()
    .map(|n| ctx.values.get(n).unwrap_or(0.0) * 1e6)
    .sum();
    let aggregate_ns = replay(ctx.share(REPLAY_SHARE), || {
        let mut server = AggregationServer::new(global.scale(0.0));
        timed(|| {
            server
                .aggregate(&updates)
                .map(|_| ())
                .expect("one signature")
        })
        .0
    });
    ctx.values.set("fl.server.aggregate_ms", aggregate_ns / 1e6);
    ctx.traced_round_ns
        .push(train_all_ns + (proxy_ns + aggregate_ns) as u64);

    // nn / tensor replays on the shapes a training step uses.
    let budget = ctx.share(REPLAY_SHARE);
    let data = clients[0].data();
    let mut rng = StdRng::seed_from_u64(ctx.seeds.derive(14));
    let batch = data.epoch_batches(cfg.batch_size, &mut rng).swap_remove(0);
    let (x, y) = data.batch(&batch).expect("indices come from the dataset");
    let loss = SoftmaxCrossEntropy::new();
    let train_batch_ns = replay(budget, || {
        let mut model = template.clone();
        let mut optimizer = Adam::new(cfg.learning_rate);
        timed(|| {
            model
                .train_batch(&x, &y, &loss, &mut optimizer)
                .expect("shapes match")
        })
        .0
    });
    let mut model = template.clone();
    let roundtrip_ns = replay(budget, || {
        timed(|| {
            let params = model.params();
            model.set_params(&params).expect("own params");
        })
        .0
    });
    // The widest dense layer: [batch × flat] · [flat × fc_width].
    let widest = template.signature().into_iter().max().unwrap_or(1);
    let (rows, inner) = (batch.len(), 32.min(widest));
    let a = Tensor::randn(vec![rows, inner], 0.0, 1.0, &mut rng);
    let b = Tensor::randn(vec![inner, widest / inner.max(1)], 0.0, 1.0, &mut rng);
    let matmul_ns = replay(budget, || {
        timed(|| a.matmul(&b).expect("inner dimensions agree")).0
    });
    ctx.values.set("nn.train_batch_us", us(train_batch_ns));
    ctx.values.set("nn.params_roundtrip_us", us(roundtrip_ns));
    ctx.values.set("tensor.matmul_us", us(matmul_ns));
}

// ------------------------------------------------------------ the block ---

/// The traced block of one workload: every per-layer metric, and the spans
/// as a JSON document for `benchmark/out/trace-<workload>.json`.
pub fn measure(kind: Kind, seed: u64, seconds: f64) -> (Block, Json) {
    let mut gate = Gate::default();
    let run::SetUp { mut workload, .. } = run::set_up(kind, seed, &mut gate);
    let mut ctx = Ctx {
        kind,
        seeds: workload.seeds(),
        seconds,
        gate,
        tracer: Tracer::new(),
        values: Values::default(),
        traced_round_ns: Vec::new(),
        untraced: Vec::new(),
        untraced_cpu_ms: 0.0,
    };
    let params_of = |w: &Workload| -> Vec<ModelParams> {
        w.inputs().iter().map(|u| u.params.clone()).collect()
    };

    match kind {
        Kind::ProxySmall => {
            let (mut proxy, _) =
                workloads::launch_proxy(kind.signature().to_vec(), ctx.seeds, None);
            let budget = ctx.share(MAIN_SHARE);
            let inputs = workload.inputs().to_vec();
            trace_proxy(&mut ctx, &mut workload, &mut proxy, &inputs, budget, true);
            replay_kernels(&mut ctx, &params_of(&workload), false, kind.clients());
            trace_telemetry_overhead(&mut ctx, &mut workload);
        }
        Kind::FlTrain => {
            trace_fl(&mut ctx, &mut workload);
            let sim = workload.simulation().expect("fl workload");
            let params = vec![sim.global().clone(); kind.clients()];
            replay_kernels(&mut ctx, &params, false, kind.clients());
        }
        Kind::PooledStratSmall => {
            let floors = trace_pooled(&mut ctx, &mut workload);
            replay_kernels(&mut ctx, &params_of(&workload), true, POOL_K);
            let (cascade, _) = workloads::launch_cascade(kind, ctx.seeds);
            replay_cascade_client(&mut ctx, &workload, &cascade);
            // What pooling, reassembly and the transport add on top of the
            // replayed padded rounds and the aggregate.
            let aggregate_ns = ctx.values.get("fl.server.aggregate_ms").unwrap_or(0.0) * 1e6;
            let glue_ns =
                ctx.untraced_floor_ns() as f64 - floors.cascade_round_ns as f64 - aggregate_ns;
            ctx.values.set("cascade.coordinator.glue_ms", glue_ns / 1e6);
            record_hop_explained(&mut ctx, &floors);
        }
        Kind::Cascade3Small | Kind::Cascade3BigF32 | Kind::Cascade3BigTopk => {
            let floors = trace_linear_cascade(&mut ctx, &mut workload);
            replay_kernels(&mut ctx, &params_of(&workload), true, kind.clients());
            let (cascade, _) = workloads::launch_cascade(kind, ctx.seeds);
            replay_cascade_client(&mut ctx, &workload, &cascade);
            record_hop_explained(&mut ctx, &floors);
            if kind == Kind::Cascade3Small {
                trace_net(&mut ctx, &mut workload, floors.stages.path_bytes);
            }
        }
    }
    run::final_gated_round(&mut workload, &mut ctx.gate);

    let harness = Harness::of(kind, &ctx.untraced, ctx.untraced_cpu_ms);
    let overhead = floor_of(ctx.traced_round_ns.iter().copied()) as f64
        / (ctx.untraced_floor_ns() as f64).max(1.0)
        - 1.0;
    let v = &mut ctx.values;
    v.set("harness.rounds", harness.rounds as f64);
    v.set("harness.round_ms_p50", harness.p50_ms);
    v.set("harness.round_ms_tail", harness.tail_ms);
    v.set("harness.round_ms_tail_pct", harness.tail_pct);
    v.set("harness.updates_per_s", harness.updates_per_s);
    v.set("harness.cpu_ms_per_round", harness.cpu_ms_per_round);
    v.set("harness.floor_block_spread", harness.floor_block_spread);
    v.set("harness.trace_overhead_share", overhead);
    harness.print();
    let spans = ctx.tracer.to_json(kind, seed);
    (
        Block {
            kind,
            attempted: ctx.gate.attempted,
            failed: ctx.gate.failed,
            failures: ctx.gate.failures,
            values: ctx.values,
            table: PER_LAYER,
        },
        spans,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stamp(from: Endpoint, to: Endpoint, at_ns: u64, bytes: usize) -> Stamp {
        Stamp {
            from,
            to,
            at_ns,
            bytes,
        }
    }

    #[test]
    fn a_linear_round_is_cut_into_seal_three_hops_and_strip() {
        use Endpoint::{Clients, Hop, Server};
        let stamps = [
            stamp(Clients, Hop(0), 100, 900),
            stamp(Hop(0), Hop(1), 130, 800),
            stamp(Hop(1), Hop(2), 170, 700),
            stamp(Hop(2), Server, 220, 600),
        ];
        let mut tracer = Tracer::new();
        let root = tracer.push("round", 0, 230, None, 7);
        let s = cut_stages(&mut tracer, &stamps, 0, 230, root, 7);
        assert_eq!(
            (s.seal_ns, s.first_ns, s.mid_ns, s.last_ns, s.strip_ns),
            (100, 30, 40, 50, 10)
        );
        assert_eq!(s.total_ns(), 230, "stages tile the round");
        assert_eq!((s.groups, s.first_hop_bytes, s.path_bytes), (1, 900, 3000));
        let names: Vec<&str> = tracer.spans[1..].iter().map(|s| s.name).collect();
        assert_eq!(
            names,
            [
                "cascade.client.seal",
                "cascade.hop.first",
                "cascade.hop.mid",
                "cascade.hop.last",
                "cascade.onion.strip"
            ]
        );
        assert!(tracer.spans[1..]
            .iter()
            .all(|s| s.parent == Some(root) && s.round == 7));
    }

    #[test]
    fn a_two_group_round_closes_each_strip_at_the_next_group() {
        use Endpoint::{Clients, Hop, Server};
        let stamps = [
            stamp(Clients, Hop(0), 50, 10),
            stamp(Hop(0), Hop(2), 60, 10),
            stamp(Hop(2), Server, 75, 10),
            stamp(Clients, Hop(1), 80, 20),
            stamp(Hop(1), Hop(3), 95, 20),
            stamp(Hop(3), Server, 100, 20),
        ];
        let mut tracer = Tracer::new();
        let s = cut_stages(&mut tracer, &stamps, 0, 104, 0, 0);
        assert_eq!(
            (s.seal_ns, s.first_ns, s.mid_ns, s.last_ns, s.strip_ns),
            (50, 25, 0, 20, 9)
        );
        assert_eq!((s.groups, s.first_hop_bytes), (2, 30));
        assert_eq!(s.total_ns(), 104);
    }

    #[test]
    fn the_stamping_link_is_the_identity_and_not_transparent() {
        let mut link = StampLink {
            epoch: Instant::now(),
            stamps: Vec::new(),
        };
        let batch = vec![vec![1u8, 2, 3], vec![4u8]];
        let out = link
            .deliver(Endpoint::Clients, Endpoint::Hop(0), batch.clone())
            .unwrap();
        assert_eq!(out, batch);
        assert_eq!(link.stamps[0].bytes, 4);
        assert!(!link.is_transparent());
    }

    #[test]
    fn closure_below_the_floor_fails_the_gate() {
        let mut gate = Gate::default();
        assert!((closure(&mut gate, 96, 100) - 0.96).abs() < 1e-12);
        assert_eq!(gate.failed, 0);
        closure(&mut gate, 90, 100);
        assert_eq!((gate.attempted, gate.failed), (2, 1));
    }

    #[test]
    fn spans_serialise_with_parent_and_round() {
        let mut tracer = Tracer::new();
        let root = tracer.push("round", 1, 9, None, 3);
        tracer.push("cascade.client.seal", 1, 5, Some(root), 3);
        let doc = tracer.to_json(Kind::Cascade3Small, 7);
        let spans = doc.get("spans").unwrap().as_arr().unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("parent"), Some(&Json::Null));
        assert_eq!(spans[1].get("parent").unwrap().as_f64(), Some(0.0));
        assert_eq!(spans[1].get("round").unwrap().as_f64(), Some(3.0));
        assert_eq!(
            doc.get("workload").unwrap().as_str(),
            Some("cascade3_small")
        );
    }
}
