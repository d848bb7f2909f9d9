//! Quickstart: federated learning with and without the MixNN proxy.
//!
//! Runs three learning rounds of classic FL and of MixNN-protected FL from
//! the same seed and shows the paper's core property: **the global models
//! are bit-for-bit identical** — mixing costs no utility — while the
//! updates the server observes are no longer attributable.
//!
//! Run with: `cargo run --release --example quickstart`

use mixnn::data::motionsense_like;
use mixnn::enclave::AttestationService;
use mixnn::fl::{DirectTransport, FlConfig, FlSimulation};
use mixnn::nn::zoo;
use mixnn::proxy::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. A federated population: 24 participants with a sensitive
    //    attribute (gender) shaping their sensor data.
    let mut spec = motionsense_like(42);
    spec.train_per_participant = 32;
    let population = spec.generate()?;
    println!(
        "population: {} participants, attribute histogram {:?}",
        population.len(),
        population.attribute_histogram()
    );

    // 2. The model every participant trains: 2 conv + 3 dense layers.
    let mut rng = StdRng::seed_from_u64(7);
    let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 16, &mut rng);
    let cfg = FlConfig {
        rounds: 3,
        local_epochs: 1,
        batch_size: 16,
        clients_per_round: 12,
        seed: 42,
        ..FlConfig::default()
    };

    // 3a. Classic FL: updates go straight to the server.
    let mut classic = FlSimulation::new(template.clone(), cfg, &population);
    let mut direct = DirectTransport::new();
    for _ in 0..cfg.rounds {
        classic.run_round(&mut direct)?;
    }

    // 3b. MixNN: updates are sealed to an attested enclave, which mixes
    //     layers across participants before forwarding.
    let mut protected = FlSimulation::new(template.clone(), cfg, &population);
    let service = AttestationService::new(&mut rng);
    let proxy = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: template.signature(),
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    assert!(proxy.verify_against(&service), "attestation must verify");
    let mut mixnn = MixnnTransport::new(proxy, TransportMode::Encrypted, 42);
    for _ in 0..cfg.rounds {
        protected.run_round(&mut mixnn)?;
    }

    // 4. The paper's §4.2 theorem, observed: identical global models.
    assert_eq!(
        classic.global(),
        protected.global(),
        "MixNN must not change the aggregated model"
    );
    let eval = protected.evaluate_global(population.global_test())?;
    println!(
        "after {} rounds: identical global models, accuracy {:.3}",
        cfg.rounds, eval.accuracy
    );
    let stats = mixnn.proxy().stats();
    println!(
        "proxy processed {} updates ({} bytes), mean decrypt {:.2} ms",
        stats.updates_received,
        stats.bytes_received,
        stats.decrypt_seconds / stats.updates_received as f64 * 1000.0
    );
    Ok(())
}
