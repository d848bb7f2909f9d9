//! Golden digests of a Skip-policy round whose middle hop is starved of
//! EPC — the companion of `golden_rounds.rs` for the one scenario that
//! needs a `CascadeConfig` literal. Same split: the round digest was
//! recorded on commit f992ffd (MIXC version 1) and has not been edited
//! since; the wire digest was re-recorded by the MIXC version 2 PR.

mod golden;

use golden::{check, updates, Golden};
use mixnn_cascade::{
    CascadeConfig, CascadeCoordinator, CascadeHopConfig, FailurePolicy, LinearChain,
    HOP_CODE_IDENTITY,
};
use mixnn_enclave::{AttestationService, EnclaveConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn skip_round_around_an_epc_starved_hop_matches_the_recorded_drive() {
    let signature = vec![5, 3, 4];
    let mut rng = StdRng::seed_from_u64(60);
    let service = AttestationService::new(&mut rng);
    let mut hops: Vec<CascadeHopConfig> = (0..3)
        .map(|i| CascadeHopConfig {
            seed: 600 + i as u64,
            ..CascadeHopConfig::default()
        })
        .collect();
    // Two onions' blobs fit, the third onion's do not: hop 1 accepts part
    // of the round, fails, and must release every charge.
    hops[1].enclave = EnclaveConfig {
        epc_limit: 400,
        code_identity: HOP_CODE_IDENTITY.to_vec(),
    };
    let mut cascade = CascadeCoordinator::launch(
        CascadeConfig {
            expected_signature: signature.clone(),
            hops,
            policy: FailurePolicy::Skip,
        },
        Box::new(LinearChain::new(3)),
        &service,
        &mut rng,
    )
    .expect("valid cascade");

    let mut g = Golden::new();
    for r in 0..2 {
        let ins = updates(6, &signature, 3000 + r);
        let round = cascade.run_round(&ins, &mut rng).expect("round commits");
        g.round(&round);
    }
    assert_eq!(cascade.skipped_hops(), vec![1]);
    let starved = cascade.hops()[1].stats();
    assert!(
        starved.updates_received > 0 && starved.updates_rejected == 1,
        "the budget must admit some onions before it runs out: {starved:?}"
    );
    g.hops(&cascade);
    check(
        &[("skip_epc_starved_hop1".to_string(), g.finish(&mut rng))],
        GOLDEN_ROUND,
        GOLDEN_WIRE,
    );
}

/// Framing-independent: recorded on f992ffd (MIXC version 1), never edited.
const GOLDEN_ROUND: &str = "\
skip_epc_starved_hop1 3a0a31d851ed2f8517f6dbab40019f00968464b286370583e9c580ddd6442025
";

/// Framing-dependent: re-recorded with the wire format.
const GOLDEN_WIRE: &str = "\
skip_epc_starved_hop1 111d4dc2966836ae3c6496fb259b1fb7002df95f19bff5341c59cd877790adef
";
