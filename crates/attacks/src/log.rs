//! What the aggregation server held: one recorded federated run.
//!
//! MixNN's adversary is the server (§3, §5). Per round it holds who took
//! part, the model it sent out and the updates it received, in arrival
//! order — nothing else. [`ServerLog`] is that record, and attacks are
//! functions over it: a transport's transcript (who really sent which
//! layer) is ground truth the server never sees, so the log neither reads
//! nor stores one.

use crate::AttackError;
use mixnn_fl::{FlSimulation, ModelUpdate, RoundOutcome, UpdateTransport};
use mixnn_nn::ModelParams;

/// The server's view of a federated run, one [`RoundOutcome`] per round.
#[derive(Debug, Clone)]
pub struct ServerLog {
    rounds: Vec<RoundOutcome>,
}

impl ServerLog {
    /// Runs `rounds` rounds of `sim` over `transport` and records them.
    ///
    /// Each round samples its clients, broadcasts `disseminate(global)` —
    /// the global model itself for an honest (or passive) server, a
    /// crafted model for an active one — and keeps the round's outcome.
    /// This is the one loop that drives FL for the attacks.
    ///
    /// # Errors
    ///
    /// Returns [`AttackError::InvalidConfig`] for zero rounds and
    /// propagates the hook's and the round's failures.
    pub fn record(
        sim: &mut FlSimulation,
        transport: &mut dyn UpdateTransport,
        rounds: usize,
        mut disseminate: impl FnMut(&ModelParams) -> Result<ModelParams, AttackError>,
    ) -> Result<ServerLog, AttackError> {
        if rounds == 0 {
            return Err(AttackError::InvalidConfig {
                reason: "experiment needs at least one round".to_string(),
            });
        }
        let mut log = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let selected = sim.sample_clients();
            let sent = disseminate(sim.global())?;
            log.push(sim.run_round_with(&selected, sent, transport)?);
        }
        Ok(ServerLog { rounds: log })
    }

    /// The recorded rounds, in the order they ran.
    pub fn rounds(&self) -> &[RoundOutcome] {
        &self.rounds
    }

    /// Each round's broadcast model with the updates that answered it.
    pub fn broadcasts(
        &self,
    ) -> impl DoubleEndedIterator<Item = (&ModelParams, &[ModelUpdate])> + '_ {
        self.rounds
            .iter()
            .map(|round| (&round.disseminated, round.observed.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_core::{MixnnProxyConfig, MixnnTransport};
    use mixnn_data::{motionsense_like, FederatedDataset};
    use mixnn_fl::{DirectTransport, FlConfig};
    use mixnn_nn::{zoo, Sequential};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ROUNDS: usize = 3;

    fn setup() -> (FederatedDataset, Sequential, FlConfig) {
        let mut spec = motionsense_like(3);
        spec.train_per_participant = 16;
        spec.attribute_counts = vec![3, 3];
        let fed = spec.generate().unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let template = zoo::conv2_fc3(zoo::InputSpec::new(1, 8, 8), 6, 2, 8, &mut rng);
        let cfg = FlConfig {
            rounds: ROUNDS,
            local_epochs: 1,
            batch_size: 8,
            clients_per_round: 4,
            seed: 9,
            ..FlConfig::default()
        };
        (fed, template, cfg)
    }

    fn mixnn(template: &Sequential) -> MixnnTransport {
        let config = MixnnProxyConfig {
            expected_signature: template.signature(),
            seed: 4,
            ..MixnnProxyConfig::default()
        };
        MixnnTransport::launch(config, 4)
    }

    fn bits(params: &ModelParams) -> Vec<u32> {
        params.flatten().iter().map(|v| v.to_bits()).collect()
    }

    fn update_bits(updates: &[ModelUpdate]) -> Vec<(usize, Vec<u32>)> {
        updates
            .iter()
            .map(|u| (u.client_id, bits(&u.params)))
            .collect()
    }

    fn assert_same_rounds(recorded: &[RoundOutcome], driven: &[RoundOutcome]) {
        assert_eq!(recorded.len(), driven.len());
        for (r, d) in recorded.iter().zip(driven) {
            assert_eq!(r.round, d.round);
            assert_eq!(r.selected, d.selected);
            assert_eq!(update_bits(&r.observed), update_bits(&d.observed));
            assert_eq!(bits(&r.global_after), bits(&d.global_after));
            assert_eq!(r.disseminated, d.disseminated);
        }
    }

    /// Records `ROUNDS` rounds with the honest hook and drives a twin
    /// simulation over a twin transport with `FlSimulation::run_round`.
    fn record_and_drive(mut make: impl FnMut() -> Box<dyn UpdateTransport>) {
        let (fed, template, cfg) = setup();
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        let log = ServerLog::record(&mut sim, make().as_mut(), ROUNDS, |g| Ok(g.clone())).unwrap();

        let mut twin = FlSimulation::new(template, cfg, &fed);
        let mut twin_transport = make();
        let driven: Vec<RoundOutcome> = (0..ROUNDS)
            .map(|_| twin.run_round(twin_transport.as_mut()).unwrap())
            .collect();
        assert_same_rounds(log.rounds(), &driven);
        assert_eq!(bits(sim.global()), bits(twin.global()));
    }

    #[test]
    fn the_honest_hook_records_what_run_round_runs() {
        record_and_drive(|| Box::new(DirectTransport::new()));
        let template = setup().1;
        record_and_drive(|| Box::new(mixnn(&template)));
    }

    #[test]
    fn the_active_hook_records_the_crafted_model() {
        let (fed, template, cfg) = setup();
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        let mut globals = Vec::new();
        let log = ServerLog::record(&mut sim, &mut DirectTransport::new(), ROUNDS, |g| {
            globals.push(g.clone());
            Ok(g.scale(0.5))
        })
        .unwrap();
        assert_eq!(globals.len(), ROUNDS);
        assert_eq!(bits(&globals[0]), bits(&template.params()));
        for (r, ((sent, _), global)) in log.broadcasts().zip(&globals).enumerate() {
            assert_eq!(bits(sent), bits(&global.scale(0.5)));
            assert_ne!(bits(sent), bits(global));
            if r > 0 {
                assert_eq!(bits(global), bits(&log.rounds()[r - 1].global_after));
            }
        }
    }

    #[test]
    fn the_mixnn_arm_records_slots_not_senders() {
        let (fed, template, mut cfg) = setup();
        cfg.rounds = 1;
        let mut sim = FlSimulation::new(template.clone(), cfg, &fed);
        let mut transport = mixnn(&template);
        let log = ServerLog::record(&mut sim, &mut transport, 1, |g| Ok(g.clone())).unwrap();
        let round = &log.rounds()[0];

        // The same round in the clear: what each selected client sent.
        let mut twin = FlSimulation::new(template.clone(), cfg, &fed);
        let sent = twin.run_round(&mut DirectTransport::new()).unwrap();
        assert_eq!(sent.selected, round.selected);

        // Slot `i` carries selected client `i`'s id but mixed layers: only
        // the proxy's transcript, read here and never by the log, maps
        // them back to their senders.
        let ids: Vec<usize> = round.observed.iter().map(|u| u.client_id).collect();
        assert_eq!(ids, round.selected);
        assert_ne!(update_bits(&round.observed), update_bits(&sent.observed));
        let observed: Vec<ModelParams> = round.observed.iter().map(|u| u.params.clone()).collect();
        let unmixed = transport.transcript().unwrap().unmix(&observed).unwrap();
        let senders: Vec<Vec<u32>> = sent.observed.iter().map(|u| bits(&u.params)).collect();
        assert_eq!(unmixed.iter().map(bits).collect::<Vec<_>>(), senders);
    }

    #[test]
    fn zero_rounds_is_rejected() {
        let (fed, template, cfg) = setup();
        let mut sim = FlSimulation::new(template, cfg, &fed);
        let result = ServerLog::record(&mut sim, &mut DirectTransport::new(), 0, |_| {
            panic!("no round may be disseminated")
        });
        assert!(matches!(result, Err(AttackError::InvalidConfig { .. })));
        assert_eq!(sim.rounds_run(), 0);
    }
}
