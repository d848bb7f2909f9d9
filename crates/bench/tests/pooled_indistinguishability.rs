//! Cover traffic must be free: the three indistinguishability guarantees
//! of pooled mixing, checked end to end against the adversary and the
//! export surface.
//!
//! 1. **Anonymity.** Running `analyze_routed_collusion` over a
//!    dummy-padded pooled round gives every *real* client an anonymity
//!    set at least as large as the same updates get in a dummy-free
//!    round, for every colluding subset of hops — cover can only add
//!    candidates, never remove them.
//! 2. **Utility.** The dummy-stripped server aggregate of a pooled round
//!    is bit-identical to a dummy-free round over the same updates.
//! 3. **Export surface.** A pooled run's Prometheus export still passes
//!    [`validate_prometheus`] — the new pool metrics introduce no
//!    forbidden per-entity label axis (`client=`, `slot=`, `route=`, …),
//!    so the exporter leaks nothing the padder hid.

use mixnn_attacks::analyze_routed_collusion;
use mixnn_bench::Layout;
use mixnn_cascade::{
    CascadeCoordinator, FailurePolicy, PoolConfig, PoolTrigger, PooledCoordinator, PooledRound,
};
use mixnn_core::InProcessLink;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{
    validate_prometheus, Registry, Telemetry, VirtualClock, FORBIDDEN_LABEL_AXES,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const SIGNATURE: [usize; 3] = [5, 3, 2];
const HOPS: usize = 3;
const K: usize = 6;
const SEED: u64 = 77;

fn synth_update(seed: u64) -> ModelParams {
    let mut rng = StdRng::seed_from_u64(seed);
    ModelParams::from_layers(
        SIGNATURE
            .iter()
            .map(|&len| {
                LayerParams::from_values((0..len).map(|_| rng.gen_range(-1.0..1.0)).collect())
            })
            .collect(),
    )
}

fn free_route_cascade(seed: u64) -> CascadeCoordinator {
    let topology = Layout::FreeRoute.topology(HOPS, seed);
    CascadeCoordinator::launch_seeded(SIGNATURE.to_vec(), topology, seed, FailurePolicy::Abort)
        .expect("cascade launches")
        .0
}

/// Fires one under-full pool (3 real members against a k-floor of 6) by
/// deadline and returns it with the telemetry handle that observed it.
fn fire_padded_round(telemetry: &Telemetry) -> (PooledRound, Vec<ModelParams>) {
    let mut pooled = PooledCoordinator::new(
        free_route_cascade(SEED),
        PoolConfig {
            k: K,
            deadline_ns: 1_000_000,
        },
        SEED ^ 0x5ea1,
    )
    .expect("valid pool config");
    pooled.attach_telemetry(telemetry.clone());
    let mut link = InProcessLink;
    let reals: Vec<ModelParams> = (0..3)
        .map(|i| synth_update(SEED ^ (i as u64) << 8))
        .collect();
    for (i, update) in reals.iter().enumerate() {
        let at_ns = 10_000 * (i as u64 + 1);
        assert!(pooled
            .submit(i, update.clone(), at_ns, &mut link)
            .expect("submit")
            .is_empty());
    }
    let deadline = pooled.next_deadline_ns().expect("pool is open");
    let round = pooled
        .tick(deadline, &mut link)
        .expect("deadline firing")
        .expect("pool fires");
    assert_eq!(round.trigger, PoolTrigger::Deadline);
    assert_eq!(round.real(), 3);
    assert!(round.dummies() >= K - 3, "under-full pool must be padded");
    (round, reals)
}

#[test]
fn dummies_never_shrink_a_real_clients_anonymity_set() {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let (round, reals) = fire_padded_round(&telemetry);

    // The dummy-free baseline: the same three updates through an
    // identically-seeded cascade, no padding.
    let mut baseline = free_route_cascade(SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5ea1);
    let bare = baseline.run_round(&reals, &mut rng).expect("bare round");

    // Every colluding subset of the hops: padding may only grow (or hold)
    // each real client's residual anonymity set.
    for mask in 0u32..(1 << HOPS) {
        let colluding: Vec<usize> = (0..HOPS).filter(|h| mask & (1 << h) != 0).collect();
        let padded = analyze_routed_collusion(round.audit(), &colluding);
        let unpadded = analyze_routed_collusion(&bare.audit, &colluding);
        let pairs = padded
            .real_client_anonymity()
            .iter()
            .zip(unpadded.real_client_anonymity());
        for (client, (with_cover, without)) in pairs.enumerate() {
            assert!(
                with_cover >= without,
                "colluding {colluding:?}: cover shrank client {client}'s anonymity set \
                 ({without} -> {with_cover})"
            );
        }
    }
    // And under no collusion the k-floor is the anonymity floor.
    let padded = analyze_routed_collusion(round.audit(), &[]);
    let floor = padded.real_client_anonymity();
    assert!(floor.iter().all(|&a| a >= K), "k-floor: {floor:?}");
}

#[test]
fn dummy_stripped_aggregate_is_bit_identical_to_a_no_dummy_round() {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let (round, reals) = fire_padded_round(&telemetry);
    let stripped = round.server_outputs().expect("cover strips cleanly");
    assert_eq!(stripped.len(), reals.len());

    let mut baseline = free_route_cascade(SEED);
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x5ea1);
    let bare = baseline.run_round(&reals, &mut rng).expect("bare round");
    assert_eq!(
        ModelParams::mean(&stripped),
        ModelParams::mean(&bare.mixed),
        "the server aggregate must not feel the cover traffic"
    );
    assert_eq!(
        ModelParams::mean(&stripped),
        ModelParams::mean(&reals),
        "and both equal the plain mean of the real updates"
    );
}

#[test]
fn pooled_export_gains_no_forbidden_label_axis() {
    let telemetry = Registry::with_virtual_clock(VirtualClock::new()).shared();
    let (_round, _reals) = fire_padded_round(&telemetry);
    let text = telemetry.snapshot().to_prometheus();
    // The pool metrics made it into the export...
    assert!(text.contains("pools_fired"), "pool counters are exported");
    assert!(text.contains("dummies_injected"));
    // ...and the export still passes every gate: well-formed, bounded
    // cardinality, and no per-entity axis that could tag a dummy.
    let summary = validate_prometheus(&text).expect("export passes the privacy gates");
    assert!(summary.families > 0);
    // (The axes are bare words that may appear in metric *names*, e.g.
    // `route_groups`; what must never appear is a *label* on that axis.)
    for axis in FORBIDDEN_LABEL_AXES {
        assert!(
            !text.contains(&format!("{axis}=\"")),
            "export must not carry a label on the forbidden axis {axis:?}"
        );
    }
}
