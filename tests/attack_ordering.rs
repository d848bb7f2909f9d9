//! Integration test: the privacy ordering of the paper's Figures 7–8.
//!
//! At a reduced-but-meaningful scale, the ∇Sim attack (passive here; the active variant is exercised at paper scale by the fig7 harness) must (a) beat chance
//! clearly against classic FL, and (b) collapse to ≈ chance against MixNN.
//! The noisy-gradient baseline sits in between (bounded below by MixNN's
//! level in expectation; with small target counts we only assert it leaks
//! no more than classic FL).

use mixnn::attacks::{AttackMode, GradSimConfig, InferenceExperiment};
use mixnn::data::motionsense_like;
use mixnn::fl::FlConfig;
use mixnn::nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn run_attack(defense: &str, seed: u64) -> f32 {
    let mut spec = motionsense_like(seed);
    spec.train_per_participant = 48;
    let population = spec.generate().unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 16, &mut rng);
    let fl_cfg = FlConfig {
        rounds: 5,
        local_epochs: 2,
        batch_size: 32,
        clients_per_round: 20,
        seed,
        ..FlConfig::default()
    };
    let attack_cfg = GradSimConfig {
        attack_epochs: 3,
        seed,
        ..GradSimConfig::default()
    };
    let signature = template.signature();
    let experiment = InferenceExperiment::new(
        &population,
        template,
        fl_cfg,
        attack_cfg,
        AttackMode::Passive,
        0.8,
    );

    use mixnn::enclave::AttestationService;
    use mixnn::fl::{DirectTransport, NoisyTransport, UpdateTransport};
    use mixnn::proxy::{MixnnProxy, MixnnProxyConfig, MixnnTransport, TransportMode};
    let mut transport: Box<dyn UpdateTransport> = match defense {
        "classic" => Box::new(DirectTransport::new()),
        // σ must be large enough to measurably blunt ∇Sim at this reduced
        // scale; 0.1 leaves the attack at full accuracy and turns the
        // classic ≥ noisy ordering below into a coin flip.
        "noisy" => Box::new(NoisyTransport::new(0.5, seed)),
        "mixnn" => {
            let mut rng = StdRng::seed_from_u64(seed ^ 7);
            let service = AttestationService::new(&mut rng);
            let proxy = MixnnProxy::launch(
                MixnnProxyConfig {
                    expected_signature: signature,
                    ..MixnnProxyConfig::default()
                },
                &service,
                &mut rng,
            );
            Box::new(MixnnTransport::new(proxy, TransportMode::Encrypted, seed))
        }
        other => panic!("unknown defense {other}"),
    };
    experiment.run(transport.as_mut()).unwrap().final_accuracy
}

fn mean_over_seeds(defense: &str) -> f32 {
    let seeds = [201u64, 202, 203];
    seeds.iter().map(|&s| run_attack(defense, s)).sum::<f32>() / seeds.len() as f32
}

#[test]
fn classic_fl_leaks_the_attribute() {
    let acc = mean_over_seeds("classic");
    assert!(
        acc >= 0.8,
        "∇Sim against classic FL should be far above the 0.5 chance level, got {acc}"
    );
}

#[test]
fn mixnn_reduces_inference_to_chance() {
    let acc = mean_over_seeds("mixnn");
    assert!(
        (0.2..=0.8).contains(&acc),
        "∇Sim against MixNN should hover at chance (0.5), got {acc}"
    );
}

#[test]
fn ordering_classic_geq_noisy_geq_mixnn_band() {
    let classic = mean_over_seeds("classic");
    let noisy = mean_over_seeds("noisy");
    let mixnn = mean_over_seeds("mixnn");
    assert!(
        classic + 1e-6 >= noisy,
        "classic ({classic}) should leak at least as much as noisy ({noisy})"
    );
    assert!(
        classic > mixnn,
        "classic ({classic}) must leak more than MixNN ({mixnn})"
    );
}
