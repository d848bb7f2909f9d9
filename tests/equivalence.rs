//! Integration test spanning the whole stack: the paper's §4.2
//! utility-equivalence theorem observed end to end.
//!
//! Classic FL and MixNN-protected FL are run from identical seeds; the
//! global models must match **bitwise** after every round, through the
//! fully encrypted (sealed-box + enclave) proxy path — the only one there
//! is. The noisy-gradient baseline must *not* match — it trades utility
//! for privacy, which is exactly the paper's contrast.

use mixnn::attacks::analyze_routed_collusion;
use mixnn::data::{lfw_like, motionsense_like};
use mixnn::fl::{DirectTransport, FlConfig, FlSimulation, NoisyTransport, UpdateTransport};
use mixnn::nn::zoo;
use mixnn::proxy::{MixnnProxyConfig, MixnnTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn fixture(
    seed: u64,
) -> (
    mixnn::data::FederatedDataset,
    mixnn::nn::Sequential,
    FlConfig,
) {
    let mut spec = motionsense_like(seed);
    spec.train_per_participant = 24;
    spec.attribute_counts = vec![6, 6];
    let population = spec.generate().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 8, &mut rng);
    let cfg = FlConfig {
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        clients_per_round: 8,
        seed,
        ..FlConfig::default()
    };
    (population, template, cfg)
}

fn run_rounds(
    template: &mixnn::nn::Sequential,
    cfg: FlConfig,
    population: &mixnn::data::FederatedDataset,
    transport: &mut dyn UpdateTransport,
) -> Vec<mixnn::nn::ModelParams> {
    let mut sim = FlSimulation::new(template.clone(), cfg, population);
    (0..cfg.rounds)
        .map(|_| {
            sim.run_round(transport).unwrap();
            sim.global().clone()
        })
        .collect()
}

fn mixnn_transport(template: &mixnn::nn::Sequential, seed: u64) -> MixnnTransport {
    MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: template.signature(),
            seed,
            ..MixnnProxyConfig::default()
        },
        seed,
    )
}

#[test]
fn encrypted_proxy_path_is_also_bitwise_identical() {
    let (population, template, cfg) = fixture(102);
    let classic = run_rounds(&template, cfg, &population, &mut DirectTransport::new());
    let mut encrypted = mixnn_transport(&template, 102);
    let mixed = run_rounds(&template, cfg, &population, &mut encrypted);
    assert_eq!(classic, mixed, "encrypted proxy path diverged");
    // The proxy really did the work: every update decrypted inside the
    // enclave, none rejected.
    let stats = encrypted.proxy().stats();
    assert_eq!(
        stats.updates_received,
        (cfg.rounds * cfg.clients_per_round) as u64
    );
    assert_eq!(stats.updates_rejected, 0);
    assert!(stats.decrypt_seconds > 0.0);
}

#[test]
fn noisy_gradient_diverges_from_classic() {
    let (population, template, cfg) = fixture(104);
    let classic = run_rounds(&template, cfg, &population, &mut DirectTransport::new());
    let mut noisy = NoisyTransport::new(0.1, 104);
    let perturbed = run_rounds(&template, cfg, &population, &mut noisy);
    assert_ne!(
        classic.last(),
        perturbed.last(),
        "noise must change the aggregate"
    );
}

#[test]
fn mixnn_works_on_deepface_architecture_too() {
    // The LFW pipeline: more heterogeneous layer shapes (locally connected)
    // through the same proxy.
    let mut spec = lfw_like(105);
    spec.train_per_participant = 16;
    spec.attribute_counts = vec![4, 4];
    let population = spec.generate().unwrap();
    let mut rng = StdRng::seed_from_u64(105);
    let template = zoo::deepface_like(zoo::InputSpec::new(1, 8, 8), 2, 3, &mut rng);
    let cfg = FlConfig {
        rounds: 2,
        local_epochs: 1,
        batch_size: 8,
        clients_per_round: 6,
        seed: 105,
        ..FlConfig::default()
    };
    let classic = run_rounds(&template, cfg, &population, &mut DirectTransport::new());
    let mut transport = mixnn_transport(&template, 105);
    let mixed = run_rounds(&template, cfg, &population, &mut transport);
    assert_eq!(classic, mixed);
    // 5 trainable layers ≤ 6 participants: the Latin plan must be in force.
    let plan = &transport.transcript().unwrap().groups()[0].plans()[0];
    assert!(plan.is_column_bijective());
    assert!(plan.is_row_distinct());
}

#[test]
fn proxy_transcript_inverts_the_round_and_arms_the_collusion_adversary() {
    // One sealed proxy round over six distinct updates of the LFW model,
    // seen through the proxy's transcript: one group, route [0], one plan.
    let mut rng = StdRng::seed_from_u64(106);
    let template = zoo::deepface_like(zoo::InputSpec::new(1, 8, 8), 2, 3, &mut rng);
    let updates: Vec<_> = (0..6)
        .map(|_| template.params().perturbed(0.1, &mut rng))
        .collect();
    let mut transport = mixnn_transport(&template, 106);
    let mixed = transport.relay_round(updates.clone()).unwrap();
    assert_ne!(mixed, updates, "the proxy must mix");
    let transcript = transport.transcript().unwrap();
    assert_eq!(transcript.groups().len(), 1);
    assert_eq!(transcript.groups()[0].route(), &[0]);
    assert_eq!(transcript.real(), updates.len());

    // The transcript inverts the round bit for bit.
    assert_eq!(transcript.unmix(&mixed).unwrap(), updates);
    // A compromised proxy sees everything — the paper's trust assumption —
    // and an honest one reveals nothing.
    let compromised = analyze_routed_collusion(transcript, &[0]);
    assert_eq!(compromised.linkable_fraction, 1.0);
    assert_eq!(compromised.linked_clients(), updates.len());
    let honest = analyze_routed_collusion(transcript, &[]);
    assert_eq!(honest.linkable_fraction, 0.0);
    assert!(honest.links.iter().all(Option::is_none));
}
