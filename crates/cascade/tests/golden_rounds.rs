//! Cross-commit golden digests of the cascade round drive.
//!
//! Every scenario is pinned by two digests (`golden/mod.rs`). The
//! *round* table — outputs, plans, chain, skips, update counters — was
//! recorded on commit f992ffd, the last one that spoke MIXC version 1,
//! and this file passes against it **unedited** on that commit and on
//! every later one: whatever a PR does to the wire, a drift in output
//! bytes, plan draws or accepted prefixes on any layout, policy or codec
//! fails here even though there is no second drive left to compare
//! against. The *wire* table — hop byte counters, EPC charges, caller-RNG
//! consumption — is what the MIXC version 2 PR re-recorded, once; it pins
//! the same things from there on.
//!
//! (The one listed scenario that cannot live here is the Skip round with
//! an EPC-starved hop: it needs a `CascadeConfig` literal. It sits in
//! `golden_epc_skip.rs`.)

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
) -> (String, String) {
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

fn scenarios() -> Vec<(String, (String, String))> {
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
    check(&scenarios(), GOLDEN_ROUND, GOLDEN_WIRE);
}

/// Framing-independent: recorded on f992ffd (MIXC version 1), never edited.
const GOLDEN_ROUND: &str = "\
linear1_f32 ca76c8fab37cbceababe6726c50ccc2232cc078dadbe12df65d41158eae4b23a
linear2_f32 3e12ceba38f4efa6a9bdb49a487c16cffb6e4fede900a67202e8e19e4b6f83e4
linear3_f32 8b7a263b515f166c2ebebf8a74f3f23eb34a15ec8e7a5680173fb8c9c4acf6e7
linear4_f32 19fedf8125b13f2ca9ad63ea272f6e6cb5615af7fbb51e485ac22e5d6c23d3cf
stratified4x2_f32 a9a83a938bcce952ecec1e877b8d6f2e4fef3e420deb37fc1529579d9573e423
free_route4_f32 c43d72a84ec9420fcc421e4d2f8eed8bdc73aaf522b963720c84c31fefe0c83d
linear3_int8 cacae978edbc6c344475acda126ccd9fdd62e77faee17eb1194c543f6acdae41
linear3_int8_topk e56d374a40668103ba8bed371c8c1887e75546289cf51883903c52038856da1d
padded_free_route3_f32 63b09b3fcb0d1f22a1622de4240d7366f290455975b112331a573f36a43aec45
padded_stratified2x2_int8_topk 8882f4d17c55b445f20a17dd9e4172768c8f34962fbaeade3195954b324b98a9
skip_link_into_hop1 4cdbae7f3f6695cdd62fb209975cf3f1b14367f3cce8a60520496f4ec0f71953
skip_hop1_rejects_tampered_onion 39f6879481fad7339a60ffa8cbd162f722733928a5c8db80e9271258a19ecaf6
skip_link_hop2_to_server 244e8c215c702e8a4539d9ae5ff51ef61ffa1873e3212274b1ceec5406ae8616
";

/// Framing-dependent: re-recorded with the wire format.
const GOLDEN_WIRE: &str = "\
linear1_f32 0cdd6472177fc913004ef330e8aef4e970e55619f05286b02f62a8d09e9840df
linear2_f32 edda5c16622cfe8cec7181b89d9d73df428c3adbff58310f17de1aec9d08824e
linear3_f32 a6eafdf7ab005bacfeebca2460b76810f2d6c621e323d76c3c0757ef68d1b244
linear4_f32 dd845b1cd1f354493899578eec4fdd58bea1ad5f2e8b4933b1be1b9ec76c26ee
stratified4x2_f32 797b9ebc511b1e5c8b9ddb0ac7db7340406e82e2a3e05a07f214faf39bf4309b
free_route4_f32 c9e4f6edcd6dc5ad55abbb28e51737e62f9e1be4f43856a3b1271f96f595b66a
linear3_int8 02827e04cb2d7b9e9f49e8c6df36ca2ea9b80fb7ddc56785159ec45136592bc6
linear3_int8_topk bcf3ee5b5ee46cf192e057ea5c2a93f6512fb0633296296ab8b3e54049d7a2ec
padded_free_route3_f32 3aae8327c3a64705a2cda4299b10900063e08632328f9e19b02957946a352b0d
padded_stratified2x2_int8_topk 9d5d134b942a7ab24c81687596c18ae80896a2de2726bd81df00be935a00f0a1
skip_link_into_hop1 7efaeac9145c796abb9e5a2f6aa1fb290edf6178936a79cc2bdd0aad1e5165ce
skip_hop1_rejects_tampered_onion 8c6c554bd991fa766c58414e3f377ec14ebda1ea65e4d5e502f66ae89101d905
skip_link_hop2_to_server 681318fefefcd159540ffa982d5200fd6735fcd3fba8014a736b7dbda8df28ed
";
