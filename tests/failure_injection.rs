//! Integration test: failure injection across the stack.
//!
//! A production proxy faces malformed traffic, partial participation and
//! resource exhaustion; these tests pin down that every failure surfaces
//! as a typed error, is accounted, and leaves the system consistent.

use mixnn::crypto::SealedBox;
use mixnn::enclave::{AttestationService, EnclaveConfig};
use mixnn::nn::{LayerParams, ModelParams};
use mixnn::proxy::{codec, MixnnProxy, MixnnProxyConfig, ProxyError};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn params(i: usize) -> ModelParams {
    ModelParams::from_layers(vec![
        LayerParams::from_values(vec![i as f32; 8]),
        LayerParams::from_values(vec![-(i as f32); 4]),
    ])
}

fn proxy(seed: u64) -> (MixnnProxy, StdRng) {
    let mut rng = StdRng::seed_from_u64(seed);
    let service = AttestationService::new(&mut rng);
    let p = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: vec![8, 4],
            seed,
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    (p, rng)
}

#[test]
fn proxy_survives_garbage_between_valid_updates() {
    let (mut p, mut rng) = proxy(1);
    for i in 0..4 {
        // Valid update.
        let sealed =
            SealedBox::seal(&codec::encode_params(&params(i)), p.public_key(), &mut rng).unwrap();
        p.submit_encrypted(&sealed).unwrap();
        // Garbage of various shapes.
        assert!(p.submit_encrypted(&[]).is_err());
        assert!(p.submit_encrypted(&[0u8; 63]).is_err());
        assert!(p.submit_encrypted(&[0xffu8; 200]).is_err());
    }
    assert_eq!(p.stats().updates_received, 4);
    assert_eq!(p.stats().updates_rejected, 12);
    // The round still completes with the valid four.
    let mixed = p.mix_batch().unwrap();
    assert_eq!(mixed.len(), 4);
    assert_eq!(p.memory_stats().allocated, 0, "no leaked EPC accounting");
}

#[test]
fn valid_ciphertext_with_malformed_plaintext_is_rejected() {
    let (mut p, mut rng) = proxy(2);
    // Properly sealed, but the plaintext is not a codec frame.
    let sealed =
        SealedBox::seal(b"definitely not a model update", p.public_key(), &mut rng).unwrap();
    assert!(matches!(
        p.submit_encrypted(&sealed),
        Err(ProxyError::Codec { .. })
    ));
    assert_eq!(p.memory_stats().allocated, 0);
}

#[test]
fn replayed_update_is_accepted_but_tampered_replay_is_not() {
    // Replay protection is out of scope for the proxy (the server
    // aggregates whatever the round provides); what matters is that a
    // bit-flipped replay fails authentication.
    let (mut p, mut rng) = proxy(3);
    let sealed =
        SealedBox::seal(&codec::encode_params(&params(0)), p.public_key(), &mut rng).unwrap();
    p.submit_encrypted(&sealed).unwrap();
    p.submit_encrypted(&sealed).unwrap();
    let mut tampered = sealed.clone();
    tampered[70] ^= 0x80;
    assert!(p.submit_encrypted(&tampered).is_err());
    assert_eq!(p.buffered(), 2);
}

#[test]
fn epc_exhaustion_fails_the_offending_update_only() {
    let mut rng = StdRng::seed_from_u64(4);
    let service = AttestationService::new(&mut rng);
    // Each update costs a 65-byte transient decrypt buffer plus 48 bytes
    // buffered; 150 bytes fit two updates (48·2 + 65 = 161 > 150 on the
    // third) but not four.
    let mut p = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: vec![8, 4],
            enclave: EnclaveConfig {
                epc_limit: 150,
                ..EnclaveConfig::default()
            },
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    let mut ok = 0;
    let mut exhausted = 0;
    for i in 0..4 {
        let sealed =
            SealedBox::seal(&codec::encode_params(&params(i)), p.public_key(), &mut rng).unwrap();
        match p.submit_encrypted(&sealed) {
            Ok(_) => ok += 1,
            Err(ProxyError::Enclave(mixnn::enclave::EnclaveError::MemoryExhausted { .. })) => {
                exhausted += 1
            }
            Err(other) => panic!("unexpected error: {other}"),
        }
    }
    assert!(ok >= 1, "some updates must fit");
    assert!(exhausted >= 1, "the EPC limit must bite");
    // The buffered ones still mix.
    let mixed = p.mix_batch().unwrap();
    assert_eq!(mixed.len(), ok);
}

#[test]
fn wire_loss_under_skip_reroutes_only_the_affected_route_groups() {
    use mixnn::cascade::{CascadeCoordinator, FailurePolicy, FreeRoute};
    use mixnn::fl::{ModelUpdate, UpdateTransport};
    use mixnn::net::{FlushPolicy, LinkConfig, NetCascadeTransport};
    use mixnn::nn::ModelParams;
    use mixnn::proxy::Endpoint;

    // A free-route cascade (routes of 2-3 hops out of 3) whose hop 1
    // falls off the network: every ingress segment into it drops all
    // packets. Under the skip policy the round must survive — the dead
    // hop is marked down and the groups re-partition onto the surviving
    // routes.
    let mut rng = StdRng::seed_from_u64(11);
    let service = AttestationService::new(&mut rng);
    let cascade = CascadeCoordinator::with_topology(
        vec![8, 4],
        Box::new(FreeRoute::new(3, 2, 3, 9)),
        9,
        FailurePolicy::Skip,
        &service,
        &mut rng,
    )
    .unwrap();
    let mut transport = NetCascadeTransport::new(
        cascade,
        13,
        LinkConfig::default(),
        FlushPolicy::Batched,
        200_000_000, // 200 ms of virtual time before a segment times out
    );
    for from in [Endpoint::Clients, Endpoint::Hop(0), Endpoint::Hop(2)] {
        transport.link_mut().set_segment_config(
            from,
            Endpoint::Hop(1),
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::default()
            },
        );
    }

    let ins: Vec<ModelUpdate> = (0..8).map(|i| ModelUpdate::new(i, params(i))).collect();
    let outs = transport.relay(ins.clone()).unwrap();

    // Exactly the unreachable hop was skipped, nothing else.
    assert_eq!(transport.coordinator().skipped_hops(), vec![1]);
    // The surviving route groups avoid it entirely and still partition
    // the round — only groups that traversed hop 1 were rerouted; none
    // were dropped.
    let audit = transport.last_audit().unwrap();
    let covered: usize = audit.groups().iter().map(|g| g.members()).sum();
    assert_eq!(covered, 8);
    for group in audit.groups() {
        assert!(
            !group.route().contains(&1),
            "no surviving route may traverse the dead hop"
        );
        assert!(!group.route().is_empty(), "rerouting must keep mixing");
    }
    // Slots preserved, aggregate bit-exact, audit honest.
    let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
    let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
    assert_eq!(in_slots, out_slots);
    let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
    let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
    assert_eq!(ModelParams::mean(&a), ModelParams::mean(&b));
    assert_eq!(audit.unmix(&b).unwrap(), a);
}

#[test]
fn wire_timeout_under_abort_is_a_typed_timeout() {
    use mixnn::cascade::{CascadeCoordinator, FailurePolicy};
    use mixnn::fl::{FlError, ModelUpdate, UpdateTransport};
    use mixnn::net::{FlushPolicy, LinkConfig, NetCascadeTransport};
    use mixnn::proxy::Endpoint;

    // The same outage under the abort policy: the round fails, and it
    // fails with the *typed* timeout the FL loop can act on — not a
    // stringly transport error.
    let mut rng = StdRng::seed_from_u64(12);
    let service = AttestationService::new(&mut rng);
    let cascade =
        CascadeCoordinator::linear(vec![8, 4], 2, 9, FailurePolicy::Abort, &service, &mut rng)
            .unwrap();
    let mut transport = NetCascadeTransport::new(
        cascade,
        13,
        LinkConfig::default(),
        FlushPolicy::Batched,
        100_000_000,
    );
    transport.link_mut().set_segment_config(
        Endpoint::Clients,
        Endpoint::Hop(0),
        LinkConfig {
            loss: 1.0,
            ..LinkConfig::default()
        },
    );

    let ins: Vec<ModelUpdate> = (0..4).map(|i| ModelUpdate::new(i, params(i))).collect();
    let err = transport.relay(ins).unwrap_err();
    assert!(matches!(err, FlError::Timeout { .. }), "got {err}");
    // Abort never marks hops down — the operator decides what to do.
    assert!(transport.coordinator().skipped_hops().is_empty());
}

#[test]
fn mid_pool_wire_loss_under_skip_reroutes_and_repads_the_fired_round() {
    use mixnn::cascade::{
        CascadeCoordinator, FailurePolicy, FreeRoute, PoolConfig, PooledCoordinator,
    };
    use mixnn::net::{FlushPolicy, LinkConfig, SimLink};
    use mixnn::proxy::Endpoint;

    // A pool is half full when hop 1 falls off the network. The firing
    // arrival must still commit a round: under the skip policy the dead
    // hop is marked down, the groups re-partition onto surviving routes,
    // and the re-partitioned groups are re-padded to the k-floor with
    // fresh cover.
    let mut rng = StdRng::seed_from_u64(21);
    let service = AttestationService::new(&mut rng);
    let cascade = CascadeCoordinator::with_topology(
        vec![8, 4],
        Box::new(FreeRoute::new(3, 2, 3, 9)),
        9,
        FailurePolicy::Skip,
        &service,
        &mut rng,
    )
    .unwrap();
    let mut pooled = PooledCoordinator::new(
        cascade,
        PoolConfig {
            k: 6,
            deadline_ns: u64::MAX,
        },
        31,
    )
    .unwrap();
    let mut link = SimLink::new(
        3,
        13,
        LinkConfig::default(),
        FlushPolicy::Batched,
        200_000_000,
    );

    // Five arrivals pool quietly over the healthy wire...
    for i in 0..5 {
        assert!(pooled.submit(i, params(i), &mut link).unwrap().is_empty());
    }
    // ...then hop 1 dies: every ingress segment into it drops all packets.
    for from in [Endpoint::Clients, Endpoint::Hop(0), Endpoint::Hop(2)] {
        link.set_segment_config(
            from,
            Endpoint::Hop(1),
            LinkConfig {
                loss: 1.0,
                ..LinkConfig::default()
            },
        );
    }
    let fired = pooled.submit(5, params(5), &mut link).unwrap();
    assert_eq!(fired.len(), 1, "the k-th arrival fires the pool");
    let round = &fired[0];

    // Exactly the unreachable hop was skipped, and no surviving route
    // traverses it.
    assert_eq!(pooled.cascade().skipped_hops(), vec![1]);
    for group in round.audit().groups() {
        assert!(!group.route().contains(&1));
        assert!(!group.route().is_empty(), "rerouting must keep mixing");
        assert!(group.members() >= 6, "rerouted groups are re-padded to k");
    }
    // The audit covers real and cover slots alike, and stripping still
    // recovers exactly the six real members' aggregate.
    let covered: usize = round.audit().groups().iter().map(|g| g.members()).sum();
    assert_eq!(covered, round.real() + round.dummies());
    assert_eq!(round.real(), 6);
    let stripped = round.server_outputs().unwrap();
    let reals: Vec<ModelParams> = (0..6).map(params).collect();
    assert_eq!(ModelParams::mean(&stripped), ModelParams::mean(&reals));
}

#[test]
fn mid_pool_wire_loss_under_abort_surfaces_a_typed_timeout_and_restores_the_pool() {
    use mixnn::cascade::{CascadeCoordinator, FailurePolicy, PoolConfig, PooledCoordinator};
    use mixnn::fl::FlError;
    use mixnn::net::{FlushPolicy, LinkConfig, SimLink};
    use mixnn::proxy::Endpoint;

    // The same mid-pool outage under the abort policy: the firing fails
    // with the typed timeout the FL loop can act on, the members go back
    // into the pool, and a retry over a healed wire commits them.
    let mut rng = StdRng::seed_from_u64(22);
    let service = AttestationService::new(&mut rng);
    let cascade =
        CascadeCoordinator::linear(vec![8, 4], 2, 9, FailurePolicy::Abort, &service, &mut rng)
            .unwrap();
    let mut pooled = PooledCoordinator::new(
        cascade,
        PoolConfig {
            k: 4,
            deadline_ns: u64::MAX,
        },
        31,
    )
    .unwrap();
    let mut link = SimLink::new(
        2,
        13,
        LinkConfig::default(),
        FlushPolicy::Batched,
        100_000_000,
    );
    for i in 0..3 {
        assert!(pooled.submit(i, params(i), &mut link).unwrap().is_empty());
    }
    link.set_segment_config(
        Endpoint::Clients,
        Endpoint::Hop(0),
        LinkConfig {
            loss: 1.0,
            ..LinkConfig::default()
        },
    );
    let err = pooled.submit(3, params(3), &mut link).unwrap_err();
    assert!(
        matches!(FlError::from(err), FlError::Timeout { .. }),
        "the wire outage must surface as the typed timeout"
    );
    // Abort never marks hops down, and nothing was committed: all four
    // members are back in the pool, ready for a retry.
    assert!(pooled.cascade().skipped_hops().is_empty());
    assert_eq!(pooled.pool().len(), 4);

    // Heal the wire and force the retry: the same members commit.
    let mut healed = SimLink::new(
        2,
        14,
        LinkConfig::default(),
        FlushPolicy::Batched,
        100_000_000,
    );
    let round = pooled.flush(&mut healed).unwrap().expect("retry commits");
    assert_eq!(round.slots, vec![0, 1, 2, 3]);
    let stripped = round.server_outputs().unwrap();
    let reals: Vec<ModelParams> = (0..4).map(params).collect();
    assert_eq!(ModelParams::mean(&stripped), ModelParams::mean(&reals));
}

#[test]
fn deadline_firing_under_a_stalled_link_times_out_instead_of_deadlocking() {
    use mixnn::cascade::{CascadeCoordinator, FailurePolicy, PoolConfig, PooledCoordinator};
    use mixnn::fl::FlError;
    use mixnn::net::{FlushPolicy, LinkConfig, SimLink};
    use mixnn::telemetry::{Registry, VirtualClock};

    // A stalled wire (every packet delayed far beyond the delivery
    // timeout) must not hang a deadline firing: SimLink's timeouts are
    // virtual-time bounded, so the tick returns a typed timeout and the
    // under-full pool survives for a later retry.
    let clock = VirtualClock::new();
    let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
    let mut rng = StdRng::seed_from_u64(23);
    let service = AttestationService::new(&mut rng);
    let cascade =
        CascadeCoordinator::linear(vec![8, 4], 2, 9, FailurePolicy::Abort, &service, &mut rng)
            .unwrap();
    let mut pooled = PooledCoordinator::new(
        cascade,
        PoolConfig {
            k: 5,
            deadline_ns: 1_000,
        },
        31,
    )
    .unwrap();
    pooled.attach_telemetry(telemetry);
    let stalled = LinkConfig {
        latency_ns: 1_000_000_000_000, // 1000 s per packet
        ..LinkConfig::default()
    };
    let mut link = SimLink::new(2, 13, stalled, FlushPolicy::Batched, 100_000_000);

    pooled.submit(0, params(0), &mut link).unwrap();
    pooled.submit(1, params(1), &mut link).unwrap();
    clock.advance_ns(5_000); // sail past the pool deadline
    let err = pooled.tick(&mut link).unwrap_err();
    assert!(
        matches!(FlError::from(err), FlError::Timeout { .. }),
        "a stalled wire is a bounded timeout, not a deadlock"
    );
    // The members are restored; the deadline is still considered elapsed,
    // so the next tick retries immediately (and fails the same bounded
    // way while the wire stays stalled).
    assert_eq!(pooled.pool().len(), 2);
    assert!(pooled.tick(&mut link).is_err());
    assert_eq!(pooled.pool().len(), 2);
}

#[test]
fn arrival_survives_a_failed_deadline_firing_and_commits_on_retry() {
    use mixnn::cascade::{CascadeCoordinator, FailurePolicy, PoolConfig, PooledCoordinator};
    use mixnn::fl::FlError;
    use mixnn::net::{FlushPolicy, LinkConfig, SimLink};
    use mixnn::proxy::Endpoint;
    use mixnn::telemetry::{Registry, VirtualClock};

    // The pool's deadline has elapsed when the next update arrives, and
    // the wire into the first hop is down: the deadline firing fails
    // before the arrival has been pooled. The caller moved the update into
    // `submit` and cannot resubmit it, so it must be in the pool afterwards
    // — behind the restored members — and commit with them on the retry.
    let clock = VirtualClock::new();
    let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
    let mut rng = StdRng::seed_from_u64(24);
    let service = AttestationService::new(&mut rng);
    let cascade =
        CascadeCoordinator::linear(vec![8, 4], 2, 9, FailurePolicy::Abort, &service, &mut rng)
            .unwrap();
    let mut pooled = PooledCoordinator::new(
        cascade,
        PoolConfig {
            k: 5,
            deadline_ns: 1_000,
        },
        31,
    )
    .unwrap();
    pooled.attach_telemetry(telemetry);
    let mut link = SimLink::new(
        2,
        13,
        LinkConfig::default(),
        FlushPolicy::Batched,
        100_000_000,
    );
    for i in 0..2 {
        assert!(pooled.submit(i, params(i), &mut link).unwrap().is_empty());
    }
    link.set_segment_config(
        Endpoint::Clients,
        Endpoint::Hop(0),
        LinkConfig {
            loss: 1.0,
            ..LinkConfig::default()
        },
    );
    clock.advance_ns(5_000); // sail past the pool deadline

    let err = pooled.submit(2, params(2), &mut link).unwrap_err();
    assert!(
        matches!(FlError::from(err), FlError::Timeout { .. }),
        "the wire outage must surface as the typed timeout"
    );
    assert_eq!(
        pooled.pool().len(),
        3,
        "the two restored members plus the arrival"
    );

    let mut healed = SimLink::new(
        2,
        14,
        LinkConfig::default(),
        FlushPolicy::Batched,
        100_000_000,
    );
    let round = pooled.flush(&mut healed).unwrap().expect("retry commits");
    assert_eq!(round.slots, vec![0, 1, 2]);
    let stripped = round.server_outputs().unwrap();
    let reals: Vec<ModelParams> = (0..3).map(params).collect();
    assert_eq!(ModelParams::mean(&stripped), ModelParams::mean(&reals));
}

#[test]
fn partial_participation_rounds_still_aggregate() {
    use mixnn::data::motionsense_like;
    use mixnn::fl::{Dissemination, FlConfig, FlSimulation};
    use mixnn::nn::zoo;

    let mut spec = motionsense_like(5);
    spec.train_per_participant = 16;
    spec.attribute_counts = vec![4, 4];
    let population = spec.generate().unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 8, &mut rng);
    let cfg = FlConfig {
        rounds: 2,
        local_epochs: 1,
        batch_size: 8,
        clients_per_round: 8,
        seed: 5,
        ..FlConfig::default()
    };
    let service = AttestationService::new(&mut rng);
    let proxy = MixnnProxy::launch(
        MixnnProxyConfig {
            expected_signature: template.signature(),
            ..MixnnProxyConfig::default()
        },
        &service,
        &mut rng,
    );
    let mut sim = FlSimulation::new(template, cfg, &population);
    let mut transport =
        mixnn::proxy::MixnnTransport::new(proxy, mixnn::proxy::TransportMode::Encrypted, 5);

    // Only three of eight participants show up (dropped clients).
    let outcome = sim
        .run_round_with(
            &[0, 3, 6],
            Dissemination::Broadcast(sim.global().clone()),
            &mut transport,
        )
        .unwrap();
    assert_eq!(outcome.observed.len(), 3);
    // And the next full round proceeds normally.
    sim.run_round(&mut transport).unwrap();
    assert_eq!(sim.rounds_run(), 2);
}
