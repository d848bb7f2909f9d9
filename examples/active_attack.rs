//! Anatomy of the ∇Sim attack: passive observation vs active protocol
//! abuse.
//!
//! The passive adversary watches the honest protocol; the active one sends
//! participants a crafted model **equidistant** from its per-attribute
//! attack models, so each class's gradient pull is maximally
//! distinguishable. This example builds both variants by hand on an
//! LFW-like population (smile-detection task, gender as the sensitive
//! attribute) and shows the amplification, then shows MixNN neutralizing
//! both.
//!
//! Run with: `cargo run --release --example active_attack`

use mixnn::attacks::{AttackMode, GradSim, GradSimConfig, InferenceExperiment};
use mixnn::data::{lfw_like, AttributeMechanism, Dataset};
use mixnn::fl::{DirectTransport, FlConfig};
use mixnn::nn::zoo;
use mixnn::proxy::{MixnnProxyConfig, MixnnTransport};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut spec = lfw_like(23);
    spec.train_per_participant = 48;
    // A clearly gendered face signal so the example separates the passive
    // and active variants visibly at this miniature scale.
    spec.mechanism = AttributeMechanism::Signal { strength: 0.8 };
    let population = spec.generate()?;
    let mut rng = StdRng::seed_from_u64(2);
    let template = zoo::deepface_like(zoo::InputSpec::new(1, 8, 8), 2, 4, &mut rng);
    println!(
        "DeepFace-like model: {} layers, {} parameters",
        template.num_trainable_layers(),
        template.num_parameters()
    );

    let fl_cfg = FlConfig {
        rounds: 8,
        local_epochs: 2,
        batch_size: 16,
        clients_per_round: 20,
        seed: 23,
        ..FlConfig::default()
    };
    let attack_cfg = GradSimConfig {
        attack_epochs: 5,
        seed: 23,
    };

    // Peek inside the attack: fit reference models and inspect the crafted
    // equidistant model.
    let background: Vec<(usize, Dataset)> = (0..2)
        .map(|attr| {
            let ids: Vec<usize> = population
                .participants()
                .iter()
                .filter(|p| p.attribute() == attr)
                .take(4)
                .map(|p| p.id())
                .collect();
            (attr, population.pooled_train_data(&ids).expect("non-empty"))
        })
        .collect();
    let gradsim = GradSim::fit(
        &template,
        &template.params(),
        &background,
        &fl_cfg,
        &attack_cfg,
    )?;
    let crafted = gradsim.equidistant_model();
    let d0 = crafted.l2_distance(gradsim.reference(0).unwrap()).unwrap();
    let d1 = crafted.l2_distance(gradsim.reference(1).unwrap()).unwrap();
    println!("crafted model distances to attack models: {d0:.4} vs {d1:.4} (equidistant)");

    // Passive vs active against undefended FL, averaged over a few seeds
    // (the target set is small, so single runs are coarse).
    for (name, mode) in [
        ("passive", AttackMode::Passive),
        ("active", AttackMode::Active),
    ] {
        let mut accuracies = Vec::new();
        for rep in 0..3u64 {
            let mut cfg = fl_cfg;
            cfg.seed = fl_cfg.seed + rep;
            let mut attack = attack_cfg.clone();
            attack.seed = attack_cfg.seed + rep;
            let experiment =
                InferenceExperiment::new(&population, template.clone(), cfg, attack, mode, 0.8);
            accuracies.push(experiment.run(&mut DirectTransport::new())?.final_accuracy);
        }
        let mean = accuracies.iter().sum::<f32>() / accuracies.len() as f32;
        println!(
            "classic FL, {name} ∇Sim: inference accuracy {mean:.3} over 3 seeds (chance 0.500)"
        );
    }

    // The active attack against MixNN.
    let mut mixnn = MixnnTransport::launch(
        MixnnProxyConfig {
            expected_signature: template.signature(),
            ..MixnnProxyConfig::default()
        },
        23,
    );
    let experiment = InferenceExperiment::new(
        &population,
        template.clone(),
        fl_cfg,
        attack_cfg,
        AttackMode::Active,
        0.8,
    );
    let result = experiment.run(&mut mixnn)?;
    println!(
        "MixNN, active ∇Sim: inference accuracy {:.3} (chance {:.3})",
        result.final_accuracy,
        result.chance_level()
    );
    println!(
        "\nNote: at this miniature scale (4 targets, a {}-parameter model) the\n\
         passive attack already saturates, so the active variant's advantage is\n\
         not visible; its mechanics (the equidistant crafted model) are. The\n\
         paper-scale curves come from `cargo run --release -p mixnn-bench --bin\n\
         eval -- fig7`.",
        template.num_parameters()
    );
    Ok(())
}
