//! The systems view of a MixNN **cascade** deployment.
//!
//! The single-proxy walkthrough this example used to show had one point
//! of trust: whoever compromised that proxy saw every (client, layer)
//! assignment. This version deploys a 3-hop mix cascade instead and walks
//! through what an operator and a participant each see: per-hop enclave
//! launch, attestation of **every** hop before the first round, onion
//! sizes on the wire, per-hop §6.5-style cost breakdowns, the audit that
//! inverts the chain, and the skip-vs-abort failure semantics when a hop
//! dies mid-round.
//!
//! Run with: `cargo run --release --example proxy_deployment`

use mixnn::attacks::analyze_routed_collusion;
use mixnn::cascade::{
    CascadeClient, CascadeConfig, CascadeCoordinator, CascadeHopConfig, FailurePolicy, LinearChain,
    StratifiedLayout,
};
use mixnn::enclave::{AttestationService, EnclaveConfig};
use mixnn::nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn synthetic_update(layers: &[usize], rng: &mut StdRng) -> ModelParams {
    ModelParams::from_layers(
        layers
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect(),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = StdRng::seed_from_u64(99);
    let signature = vec![4_096usize, 16_384, 8_192, 1_024, 130];
    let hops = 3;

    // --- Operator side: launch and publish the chain --------------------
    let service = AttestationService::new(&mut rng);
    let mut cascade = CascadeCoordinator::linear(
        signature.clone(),
        hops,
        99,
        FailurePolicy::Abort,
        &service,
        &mut rng,
    )?;
    for hop in cascade.hops() {
        println!(
            "hop {} launched, EPC limit: {} MiB",
            hop.index(),
            hop.memory_stats().limit / (1024 * 1024)
        );
    }

    // --- Participant side: attest EVERY hop before the first round ------
    // One unverified hop would reintroduce the single point of trust the
    // chain exists to remove, so the client constructor checks each quote
    // (platform signature, expected measurement, key binding) and refuses
    // the chain otherwise.
    let client = CascadeClient::from_attested_hops(&cascade.descriptors(), &service)?;
    println!(
        "attestation verified for all {} hops: quotes match the published hop code and bind their keys",
        client.num_hops()
    );

    // --- Onion sizes on the wire -----------------------------------------
    let update = synthetic_update(&signature, &mut rng);
    let onion = client.seal_update(&update, &mut rng)?;
    println!(
        "update wire size: {} bytes plaintext, {} bytes as a {hops}-hop onion\n\
         (the entry hop strips one sealed envelope of {} bytes, every later hop one per layer)",
        mixnn::proxy::codec::encode_params(&update).len(),
        onion.len(),
        mixnn::crypto::sealed_box::OVERHEAD,
    );

    // --- A round of onion updates ----------------------------------------
    let clients = 12;
    let updates: Vec<ModelParams> = (0..clients)
        .map(|_| synthetic_update(&signature, &mut rng))
        .collect();
    let round = cascade.run_round(&updates, &mut rng)?;
    println!(
        "\nround traversed hops {:?}; per-hop costs (§6.5 breakdown):",
        round.audit.hops()
    );
    println!("  hop  decrypt ms  store ms  mix ms  high-water MiB");
    for (hop, stats) in cascade.hop_stats().iter().enumerate() {
        println!(
            "  {hop}    {:>8.2}  {:>8.2}  {:>6.2}  {:>14.2}",
            stats.decrypt_seconds * 1000.0,
            stats.store_seconds * 1000.0,
            stats.mix_seconds * 1000.0,
            cascade.hops()[hop].memory_stats().high_water as f64 / (1024.0 * 1024.0),
        );
    }

    // --- Utility equivalence and the audit -------------------------------
    assert_eq!(
        ModelParams::mean(&updates),
        ModelParams::mean(&round.mixed),
        "cascading must not change the aggregate"
    );
    assert_eq!(round.audit.unmix(&round.mixed)?, updates);
    println!(
        "aggregate bit-identical to classic FL; audit inverted all {} per-hop plans\n\
         (outside the audit, linking requires ALL hops to collude — see `eval topology`)",
        round.audit.groups()[0].plans().len()
    );

    // --- Failure handling: a tampered onion ------------------------------
    // A standalone hop shows the envelope authentication: flip one
    // ciphertext bit and the hop rejects the round without leaking memory.
    let mut lone_hop = mixnn::cascade::CascadeHop::launch(
        0,
        CascadeHopConfig::default(),
        &signature,
        &service,
        &mut rng,
    );
    let lone_client = CascadeClient::from_attested_hops(&[lone_hop.descriptor()], &service)?;
    let mut tampered = lone_client.seal_update(&update, &mut rng)?;
    let last = tampered.len() - 1;
    tampered[last] ^= 1;
    match lone_hop.mix_round(&[tampered]) {
        Err(e) => println!("\ntampered onion rejected: {e}"),
        Ok(_) => unreachable!("tampering must not pass authentication"),
    }
    assert_eq!(
        lone_hop.memory_stats().allocated,
        0,
        "failed round must release its EPC charges"
    );

    // --- Failure handling: skip vs abort ---------------------------------
    // A fresh cascade whose middle hop has a starved EPC. Under Abort the
    // round fails closed; under Skip the chain routes around the dead hop
    // and the round still completes (with 2 surviving hops).
    for policy in [FailurePolicy::Abort, FailurePolicy::Skip] {
        let mut hop_configs: Vec<CascadeHopConfig> = (0..hops)
            .map(|i| CascadeHopConfig {
                seed: 200 + i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hop_configs[1].enclave = EnclaveConfig {
            epc_limit: 1024, // far below one round's onion footprint
            code_identity: mixnn::cascade::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut degraded = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: signature.clone(),
                hops: hop_configs,
                policy,
            },
            Box::new(LinearChain::new(hops)),
            &service,
            &mut rng,
        )?;
        match degraded.run_round(&updates, &mut rng) {
            Ok(round) => println!(
                "policy {policy:?}: round completed on surviving chain {:?} (skipped {:?})",
                round.audit.hops(),
                round.skipped_this_round
            ),
            Err(e) => println!("policy {policy:?}: round failed closed: {e}"),
        }
    }

    // --- Beyond the chain: stratified routing --------------------------
    // Four hops in two strata; every client traverses ONE hop per stratum
    // (a 2-hop route instead of 4), so the round splits into per-route
    // mixing groups. Shorter routes buy latency; the price is that a
    // client's anonymity set shrinks from the whole round to its route
    // group — and a colluding subset that covers a client's entire route
    // links it without compromising the other hops at all.
    let mut stratified = CascadeCoordinator::with_topology(
        signature.clone(),
        Box::new(StratifiedLayout::evenly(4, 2, 99)),
        7,
        FailurePolicy::Abort,
        &service,
        &mut rng,
    )?;
    // Each participant verifies and seals to its own route.
    let slot0 = stratified.client_for_slot(0, &service)?;
    println!(
        "\nstratified cascade: 4 hops in 2 strata; slot 0 attested its {}-hop route",
        slot0.num_hops()
    );
    let round = stratified.run_round(&updates, &mut rng)?;
    assert_eq!(
        ModelParams::mean(&updates),
        ModelParams::mean(&round.mixed),
        "route-group mixing must not change the aggregate either"
    );
    assert_eq!(round.audit.unmix(&round.mixed)?, updates);
    // The adversary that owns stratum 0 entirely still covers no client's
    // whole route, so every anonymity set stays a full route group.
    let colluding = [0usize, 1];
    let report = analyze_routed_collusion(&round.audit, &colluding);
    println!(
        "route groups {:?}; with stratum 0 fully colluding, {} of {clients} clients linked,\n\
         per-client anonymity distribution {:?} (see `eval topology` for the full sweep)",
        round
            .audit
            .groups()
            .iter()
            .map(|g| (g.route().to_vec(), g.members()))
            .collect::<Vec<_>>(),
        report.linked_clients(),
        report.anonymity_distribution(),
    );
    Ok(())
}
