//! Activity recognition under attack — the paper's motivating scenario.
//!
//! A fitness service learns an activity classifier (walking, jogging,
//! sitting, …) from phone sensors via federated learning. The aggregation
//! server is curious: it wants each user's **gender**, which the sensor
//! data betrays. This example runs the ∇Sim attack against the three
//! systems of the paper's evaluation — classic FL, the noisy-gradient
//! baseline and MixNN — and prints the leakage and the utility cost side
//! by side (a miniature of Figures 5 and 7).
//!
//! Run with: `cargo run --release --example activity_recognition`

use mixnn::attacks::{AttackMode, InferenceExperiment};
use mixnn::data::motionsense_like;
use mixnn::fl::{FlConfig, FlSimulation};
use mixnn::nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

// Re-use the bench harness's defense lineup machinery inline to keep the
// example self-contained.
use mixnn::attacks::GradSimConfig;
use mixnn::enclave::AttestationService;
use mixnn::fl::{DirectTransport, NoisyTransport, UpdateTransport};
use mixnn::proxy::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};

fn transports(
    seed: u64,
    sigma: f32,
    signature: Vec<usize>,
) -> Vec<(&'static str, Box<dyn UpdateTransport>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let proxy = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: signature,
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    vec![
        ("classic-fl", Box::new(DirectTransport::new())),
        ("noisy-gradient", Box::new(NoisyTransport::new(sigma, seed))),
        (
            "mixnn",
            Box::new(MixnnTransport::new(proxy, TransportMode::Encrypted, seed)),
        ),
    ]
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = motionsense_like(11);
    spec.train_per_participant = 48;
    let population = spec.generate()?;
    let mut rng = StdRng::seed_from_u64(1);
    let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 16, &mut rng);
    let fl_cfg = FlConfig {
        rounds: 8,
        local_epochs: 2,
        batch_size: 32,
        clients_per_round: 20,
        seed: 11,
        ..FlConfig::default()
    };
    let attack_cfg = GradSimConfig {
        attack_epochs: 3,
        seed: 11,
        ..GradSimConfig::default()
    };

    println!("system          activity-accuracy  gender-inference  (chance = 0.500)");
    println!("--------------  -----------------  ----------------");
    for (label, mut transport) in transports(11, 0.10, template.signature()) {
        // Leakage: the ∇Sim active attack over the whole run.
        let experiment = InferenceExperiment::new(
            &population,
            template.clone(),
            fl_cfg,
            attack_cfg.clone(),
            AttackMode::Active,
            0.8,
        );
        let inference = experiment.run(transport.as_mut())?;

        // Utility: a fresh honest run with the same defense.
        let mut sim = FlSimulation::new(template.clone(), fl_cfg, &population);
        let mut honest = match label {
            "classic-fl" => transports(12, 0.10, template.signature()).remove(0).1,
            "noisy-gradient" => transports(12, 0.10, template.signature()).remove(1).1,
            _ => transports(12, 0.10, template.signature()).remove(2).1,
        };
        for _ in 0..fl_cfg.rounds {
            sim.run_round(honest.as_mut())?;
        }
        let utility = sim.evaluate_global(population.global_test())?;

        println!(
            "{label:<14}  {:<17.3}  {:.3}",
            utility.accuracy, inference.final_accuracy
        );
    }
    println!(
        "\nMixNN keeps the activity accuracy of classic FL while pushing the\n\
         gender inference down to a coin flip — the paper's Figures 5 and 7."
    );
    Ok(())
}
