//! Integration: a federated round relayed through the continuous mix
//! pool ([`PooledCascadeTransport`]) must aggregate exactly like classic
//! FL — pooling trickled arrivals into partial rounds and padding them
//! with hop-generated cover is invisible to the learning loop.

use mixnn_cascade::{
    CascadeCoordinator, FailurePolicy, LinearChain, PoolConfig, PooledCascadeTransport,
    PooledCoordinator,
};
use mixnn_data::lfw_like;
use mixnn_fl::{DirectTransport, FlConfig, FlSimulation};
use mixnn_nn::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn pooled_cascade_transport_drives_a_full_fl_round() {
    let fed = lfw_like(2).generate().unwrap();
    let dims = fed.spec().dims;
    let mut rng = StdRng::seed_from_u64(5);
    let template = zoo::conv2_fc3(
        zoo::InputSpec::new(dims.channels, dims.height, dims.width),
        fed.spec().num_classes,
        2,
        8,
        &mut rng,
    );
    let cfg = FlConfig {
        rounds: 1,
        local_epochs: 1,
        batch_size: 16,
        clients_per_round: 5,
        seed: 5,
        ..FlConfig::default()
    };
    let layer_signature = template.params().signature();

    let pooled_run = || {
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        let chain = Box::new(LinearChain::new(3));
        let (cascade, _) = CascadeCoordinator::launch_seeded(
            layer_signature.clone(),
            chain,
            21,
            FailurePolicy::Abort,
        )
        .unwrap();
        // k = 2 with a 2 ms deadline against a 10 ms arrival spread: the
        // five participants commit over several partial rounds, at least
        // one of them under-full and dummy-padded.
        let pool = PooledCoordinator::new(
            cascade,
            PoolConfig {
                k: 2,
                deadline_ns: 2_000_000,
            },
            77,
        )
        .unwrap();
        let mut transport =
            PooledCascadeTransport::new(pool, mixnn_telemetry::noop(), 10_000_000).unwrap();
        sim.run_round(&mut transport).unwrap();

        // The pool really did split the round and pad the remainder.
        let rounds = transport.last_rounds();
        assert!(rounds.len() > 1, "5 clients at k=2 must fire several pools");
        let total_real: usize = rounds.iter().map(|r| r.real()).sum();
        assert_eq!(total_real, 5, "every participant commits exactly once");
        for round in rounds {
            assert!(
                round.real() + round.dummies() >= 2,
                "the k-floor holds on every fired pool"
            );
        }
        assert!(
            rounds.iter().any(|r| r.dummies() > 0),
            "an odd participant count forces at least one padded pool"
        );
        sim.global().clone()
    };

    let direct_run = || {
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        sim.run_round(&mut DirectTransport::new()).unwrap();
        sim.global().clone()
    };

    assert_eq!(
        direct_run(),
        pooled_run(),
        "pooled mixing with cover must not change the aggregated global model"
    );
}
