//! Cross-commit golden digests of the cascade round drive.
//!
//! The constants below were recorded from the sequential drive of commit
//! e11645a (the parent of the PR that deleted the concurrent and pipelined
//! drives). This file compiles and passes **unedited** on that commit and
//! on every later one: it only touches API both sides share, so a drift in
//! output bytes, plan draws, hop counters, EPC charges or caller-RNG
//! consumption on any layout, policy or codec fails here even though
//! there is no second drive left to compare against.
//!
//! (The one listed scenario that cannot live here is the Skip round with
//! an EPC-starved hop: it needs a `CascadeConfig` literal, and that struct
//! lost a field in the same PR. It sits in `golden_epc_skip.rs`.)

mod golden;

use golden::{check, updates, Golden};
use mixnn_cascade::{
    CascadeCoordinator, CascadeTopology, FailurePolicy, FreeRoute, LinearChain, StratifiedLayout,
};
use mixnn_core::codec::CompressionConfig;
use mixnn_core::{Endpoint, InProcessLink, LinkError, RoundLink};
use mixnn_enclave::AttestationService;
use rand::rngs::StdRng;
use rand::SeedableRng;

const SIGNATURE: &[usize] = &[5, 3, 4];
/// Large enough for top-k to drop values and int8 to quantise visibly.
const WIDE_SIGNATURE: &[usize] = &[96, 40];

fn launch(
    signature: &[usize],
    topology: Box<dyn CascadeTopology>,
    policy: FailurePolicy,
    seed: u64,
) -> (CascadeCoordinator, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let cascade = CascadeCoordinator::with_topology(
        signature.to_vec(),
        topology,
        seed ^ 0x5eed,
        policy,
        &service,
        &mut rng,
    )
    .expect("valid cascade");
    (cascade, rng)
}

/// Two back-to-back rounds (the second pins the hop RNG streams' position
/// after the first), then hop state and the caller's next draw.
fn two_rounds(
    cascade: &mut CascadeCoordinator,
    rng: &mut StdRng,
    clients: usize,
    link: &mut dyn RoundLink,
) -> String {
    let signature = cascade.signature().to_vec();
    let mut g = Golden::new();
    for r in 0..2 {
        let ins = updates(clients, &signature, 1000 + r);
        let round = cascade
            .run_round_over(&ins, rng, link)
            .expect("round commits");
        g.round(&round);
    }
    g.hops(cascade);
    g.finish(rng)
}

/// Fails every delivery on one segment; everything else is the identity.
struct DropSegment {
    from: Endpoint,
    to: Endpoint,
}

impl RoundLink for DropSegment {
    fn deliver(
        &mut self,
        from: Endpoint,
        to: Endpoint,
        messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        if (from, to) == (self.from, self.to) {
            return Err(LinkError::Timeout {
                from,
                to,
                delivered: 0,
                expected: messages.len(),
            });
        }
        Ok(messages)
    }
}

/// Flips one ciphertext bit of the second message into `to`, so that hop's
/// own ingest — not the wire — fails the round.
struct CorruptInto {
    to: Endpoint,
}

impl RoundLink for CorruptInto {
    fn deliver(
        &mut self,
        _from: Endpoint,
        to: Endpoint,
        mut messages: Vec<Vec<u8>>,
    ) -> Result<Vec<Vec<u8>>, LinkError> {
        if to == self.to {
            let last = messages[1].len() - 1;
            messages[1][last] ^= 1;
        }
        Ok(messages)
    }
}

fn scenarios() -> Vec<(String, String)> {
    let mut out = Vec::new();

    for hops in 1..=4 {
        let (mut cascade, mut rng) = launch(
            SIGNATURE,
            Box::new(LinearChain::new(hops)),
            FailurePolicy::Abort,
            10 + hops as u64,
        );
        out.push((
            format!("linear{hops}_f32"),
            two_rounds(&mut cascade, &mut rng, 7, &mut InProcessLink),
        ));
    }

    let (mut cascade, mut rng) = launch(
        SIGNATURE,
        Box::new(StratifiedLayout::evenly(4, 2, 77)),
        FailurePolicy::Abort,
        20,
    );
    out.push((
        "stratified4x2_f32".to_string(),
        two_rounds(&mut cascade, &mut rng, 12, &mut InProcessLink),
    ));

    let (mut cascade, mut rng) = launch(
        SIGNATURE,
        Box::new(FreeRoute::new(4, 1, 4, 55)),
        FailurePolicy::Abort,
        21,
    );
    out.push((
        "free_route4_f32".to_string(),
        two_rounds(&mut cascade, &mut rng, 10, &mut InProcessLink),
    ));

    for (name, compression) in [
        ("int8", CompressionConfig::Int8),
        ("int8_topk", CompressionConfig::int8_top_k()),
    ] {
        let (mut cascade, mut rng) = launch(
            WIDE_SIGNATURE,
            Box::new(LinearChain::new(3)),
            FailurePolicy::Abort,
            30,
        );
        cascade.set_compression(compression);
        out.push((
            format!("linear3_{name}"),
            two_rounds(&mut cascade, &mut rng, 6, &mut InProcessLink),
        ));
    }

    // Padded drives: a floor above the group sizes injects cover. The
    // second scenario is the shape of the repo benchmark's pooled
    // workload (stratified 2x2, k = 8, int8+top-k).
    for (name, topology, signature, compression, clients, floor) in [
        (
            "padded_free_route3_f32",
            Box::new(FreeRoute::new(3, 1, 3, 55)) as Box<dyn CascadeTopology>,
            SIGNATURE,
            CompressionConfig::F32,
            3,
            5,
        ),
        (
            "padded_stratified2x2_int8_topk",
            Box::new(StratifiedLayout::evenly(4, 2, 0x57a7)),
            WIDE_SIGNATURE,
            CompressionConfig::int8_top_k(),
            5,
            8,
        ),
    ] {
        let (mut cascade, mut rng) = launch(signature, topology, FailurePolicy::Abort, 40);
        cascade.set_compression(compression);
        let mut g = Golden::new();
        let mut injected = 0;
        for r in 0..2 {
            let ins = updates(clients, signature, 2000 + r);
            let padded = cascade
                .run_padded_round_over(&ins, floor, &mut rng, &mut InProcessLink)
                .expect("padded round commits");
            injected += padded.dummies();
            g.padded(&padded);
        }
        assert!(injected > 0, "{name}: the floor must inject cover");
        g.hops(&cascade);
        out.push((name.to_string(), g.finish(&mut rng)));
    }

    // Skip-policy rounds, one per failure site the coordinator handles:
    // the wire into a hop, the hop's own ingest, the wire into the server.
    let skips: [(&str, Box<dyn RoundLink>, Vec<usize>); 3] = [
        (
            "skip_link_into_hop1",
            Box::new(DropSegment {
                from: Endpoint::Hop(0),
                to: Endpoint::Hop(1),
            }),
            vec![1],
        ),
        (
            "skip_hop1_rejects_tampered_onion",
            Box::new(CorruptInto {
                to: Endpoint::Hop(1),
            }),
            vec![1],
        ),
        (
            "skip_link_hop2_to_server",
            Box::new(DropSegment {
                from: Endpoint::Hop(2),
                to: Endpoint::Server,
            }),
            vec![2],
        ),
    ];
    for (name, mut link, dead) in skips {
        let (mut cascade, mut rng) = launch(
            SIGNATURE,
            Box::new(LinearChain::new(3)),
            FailurePolicy::Skip,
            50,
        );
        let digest = two_rounds(&mut cascade, &mut rng, 6, link.as_mut());
        assert_eq!(cascade.skipped_hops(), dead, "{name}");
        out.push((name.to_string(), digest));
    }

    out
}

#[test]
fn round_digests_match_the_recorded_sequential_drive() {
    check(&scenarios(), GOLDEN);
}

const GOLDEN: &str = "\
linear1_f32 b2d7a9bf3f06ae54da530f728a1c3dec4b981d39662f7d2fb507034bf738a8c7
linear2_f32 2b59c8ac6afdc44bc54d2129c8dedfc7d94e1bedc9e6c2103ab213886d1e26ec
linear3_f32 a5047c2130ede63f5bd26e0f5ad4a50e17164a6378eec7545ca4a0f15be31a5d
linear4_f32 1267ebaf628037474ce6b0fd416baf9c0cbfc940632153f8a9f8273e6d64a4cd
stratified4x2_f32 836c780b1c18310d51f76101432dea77ddc01acb86b022fc217eaf3ddcccb735
free_route4_f32 64a6ba5958a13220aee65880ec31abf4053c8a31496e696f57dd28dbf32c9f7e
linear3_int8 3a0579ca9d7c8e8abe575ca27a5f4827861898453a9133bf868fce7f8f953ddf
linear3_int8_topk 7929dff8d2f8da357d2a7ef2bdb69070a32e6006e7d58e466cc0314b57670ea6
padded_free_route3_f32 9e30889af3d54703e271718a39658ac7c1d994861ce3fa48f4d2f4a81c8f569f
padded_stratified2x2_int8_topk 99b3ec1dc8b75431534fdf0799cc6f2e2bb5a75a17cdd5542aae2d0f77397504
skip_link_into_hop1 a2930a9dda717f4d602e21a1e837b14127690663b30f957f77d1ed0c06dc1ad8
skip_hop1_rejects_tampered_onion 7658f9ecf1ebcfe3943d26861e20b76fa6c30427125447b2696d0f2067f14bec
skip_link_hop2_to_server 05e5e558e34cb69f5c85217098dc5eeef08e4f1d4f0d628b0c32fdc4a84e6520
";
