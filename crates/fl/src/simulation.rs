//! Round orchestration.

use crate::{
    AggregationServer, Dissemination, FlClient, FlConfig, FlError, ModelUpdate, UpdateTransport,
};
use mixnn_data::{Dataset, FederatedDataset};
use mixnn_nn::{Evaluation, ModelParams, Sequential, SoftmaxCrossEntropy};
use mixnn_telemetry::{Component, Counter, Distribution, Span, Telemetry, TraceKind};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Everything produced by one federated round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (0-based).
    pub round: usize,
    /// What the server disseminated at the start of the round.
    pub disseminated: Dissemination,
    /// Ids of the clients selected this round, in the order their updates
    /// were produced.
    pub selected: Vec<usize>,
    /// The updates as observed by the server (after the transport).
    pub observed: Vec<ModelUpdate>,
    /// The new global model after aggregation.
    pub global_after: ModelParams,
}

/// A complete federated-learning simulation: clients, server and the round
/// loop of Figure 2.
///
/// The simulation is transport-agnostic — pass a [`crate::DirectTransport`]
/// for classic FL, a [`crate::NoisyTransport`] for the noisy-gradient
/// baseline, or the MixNN proxy transport from `mixnn-core`.
///
/// Client local training runs on a bounded pool of scoped threads
/// (`FlConfig::client_workers`), with per-client seeds derived
/// from the master seed so the outcome is deterministic at every worker
/// count.
#[derive(Debug)]
pub struct FlSimulation {
    template: Sequential,
    cfg: FlConfig,
    clients: Vec<FlClient>,
    server: AggregationServer,
    sampler: StdRng,
    rounds_run: usize,
    telemetry: Telemetry,
}

impl FlSimulation {
    /// Builds a simulation over a federated population.
    ///
    /// `template` provides both the architecture and the initial global
    /// model weights.
    pub fn new(template: Sequential, cfg: FlConfig, population: &FederatedDataset) -> Self {
        let clients = population
            .participants()
            .iter()
            .map(|p| FlClient::new(p.id(), p.train().clone()))
            .collect();
        let initial = template.params();
        FlSimulation {
            template,
            clients,
            server: AggregationServer::new(initial),
            sampler: StdRng::seed_from_u64(cfg.seed ^ 0x5e1ec7),
            cfg,
            // rounds_run counts invocations of `run_round*`, used for seeding.
            rounds_run: 0,
            telemetry: mixnn_telemetry::noop(),
        }
    }

    /// Attaches a telemetry registry: each round records its span, the
    /// part of it spent in server aggregation, participant count and
    /// lifecycle trace events. Only aggregate, selection-size-level
    /// figures are recorded — never per-client ids.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.telemetry = telemetry;
    }

    /// The architecture template (initial weights included).
    pub fn template(&self) -> &Sequential {
        &self.template
    }

    /// The configured hyper-parameters.
    pub fn config(&self) -> &FlConfig {
        &self.cfg
    }

    /// The clients in the simulation.
    pub fn clients(&self) -> &[FlClient] {
        &self.clients
    }

    /// The current global model.
    pub fn global(&self) -> &ModelParams {
        self.server.global()
    }

    /// Number of rounds executed so far.
    pub fn rounds_run(&self) -> usize {
        self.rounds_run
    }

    /// Samples the clients participating in the next round (without
    /// replacement, §6.1.4 style "the server aggregates N users").
    pub fn sample_clients(&mut self) -> Vec<usize> {
        let mut ids: Vec<usize> = self.clients.iter().map(FlClient::id).collect();
        ids.shuffle(&mut self.sampler);
        ids.truncate(self.cfg.clients_per_round.max(1).min(ids.len()));
        ids.sort_unstable();
        ids
    }

    /// Runs one honest round: broadcast the current global model, train the
    /// sampled clients, relay through `transport`, aggregate.
    ///
    /// # Errors
    ///
    /// Propagates training, transport and aggregation failures.
    pub fn run_round(
        &mut self,
        transport: &mut dyn UpdateTransport,
    ) -> Result<RoundOutcome, FlError> {
        let selected = self.sample_clients();
        let dissemination = Dissemination::Broadcast(self.server.global().clone());
        self.run_round_with(&selected, dissemination, transport)
    }

    /// Runs one round with explicit client selection and dissemination —
    /// the entry point for active attacks, which send crafted per-client
    /// models.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::EmptyRound`] for an empty selection,
    /// [`FlError::UnknownClient`] / [`FlError::MissingModelFor`] for
    /// selection/dissemination mismatches, and propagates training,
    /// transport and aggregation failures.
    pub fn run_round_with(
        &mut self,
        selected: &[usize],
        dissemination: Dissemination,
        transport: &mut dyn UpdateTransport,
    ) -> Result<RoundOutcome, FlError> {
        if selected.is_empty() {
            return Err(FlError::EmptyRound);
        }
        let round = self.rounds_run;
        self.telemetry.trace(
            Component::Fl,
            None,
            TraceKind::RoundStarted {
                round: round as u64,
            },
        );
        let round_t0 = self.telemetry.now_ns();

        // Resolve clients and their disseminated models up front.
        let mut work: Vec<(&FlClient, &ModelParams, u64)> = Vec::with_capacity(selected.len());
        for &id in selected {
            let client = self
                .clients
                .iter()
                .find(|c| c.id() == id)
                .ok_or(FlError::UnknownClient { client_id: id })?;
            let model = dissemination
                .model_for(id)
                .ok_or(FlError::MissingModelFor { client_id: id })?;
            work.push((client, model, self.cfg.client_seed(round, id)));
        }

        // Parallel local training on a bounded worker pool
        // (`client_workers`), deterministic via per-client
        // seeds: each client's result depends only on its own
        // (round, client) seed, so chunking across workers cannot change
        // the outcome — only the wall-clock.
        let cfg = self.cfg;
        let template = &self.template;
        let results: Vec<Result<ModelUpdate, FlError>> =
            map_chunked(&work, cfg.client_workers, |(client, model, seed)| {
                client.train(template, model, &cfg, *seed)
            });

        let mut updates = Vec::with_capacity(results.len());
        for r in results {
            updates.push(r?);
        }

        let observed = transport.relay(updates)?;
        let aggregate_t0 = self.telemetry.now_ns();
        self.server.aggregate(&observed)?;
        let aggregate_ns = self.telemetry.now_ns().saturating_sub(aggregate_t0);
        let global_after = self.server.global().clone();
        self.rounds_run += 1;
        let elapsed_ns = self.telemetry.now_ns().saturating_sub(round_t0);
        self.telemetry.record_span_ns(Span::FlRound, elapsed_ns);
        self.telemetry
            .record_span_ns(Span::FlAggregate, aggregate_ns);
        self.telemetry.incr(Counter::FlRoundsCompleted, 1);
        self.telemetry
            .incr(Counter::FlClientsTrained, selected.len() as u64);
        self.telemetry
            .observe(Distribution::FlRoundParticipants, selected.len() as u64);
        self.telemetry.trace(
            Component::Fl,
            None,
            TraceKind::RoundCompleted {
                round: round as u64,
            },
        );
        Ok(RoundOutcome {
            round,
            disseminated: dissemination,
            selected: selected.to_vec(),
            observed,
            global_after,
        })
    }

    /// Evaluates the current global model on a dataset.
    ///
    /// # Errors
    ///
    /// Propagates model/data failures.
    pub fn evaluate_global(&self, data: &Dataset) -> Result<Evaluation, FlError> {
        let mut model = self.template.clone();
        model.set_params(self.server.global())?;
        let (x, y) = data.full_batch()?;
        Ok(model.evaluate(&x, &y, &SoftmaxCrossEntropy::new())?)
    }

    /// Evaluates the current global model on each participant's held-out
    /// data — the per-participant accuracies behind the Fig. 6 CDFs.
    ///
    /// # Errors
    ///
    /// Propagates model/data failures.
    pub fn evaluate_per_participant(
        &self,
        population: &FederatedDataset,
    ) -> Result<Vec<(usize, Evaluation)>, FlError> {
        let mut model = self.template.clone();
        model.set_params(self.server.global())?;
        let loss = SoftmaxCrossEntropy::new();
        let mut out = Vec::with_capacity(population.participants().len());
        for p in population.participants() {
            let (x, y) = p.test().full_batch()?;
            out.push((p.id(), model.evaluate(&x, &y, &loss)?));
        }
        Ok(out)
    }
}

/// Runs `f` over `items` with at most `workers` scoped threads, preserving
/// input order in the output.
///
/// The item slice is split into contiguous chunks, one per worker; each
/// worker maps its chunk sequentially. With `workers <= 1` no thread is
/// spawned. Because `f` receives each item independently, the output is
/// identical at every worker count — callers encode any per-item
/// determinism (seeds) in the items themselves.
fn map_chunked<T, R, F>(items: &[T], workers: usize, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = workers.max(1).min(items.len().max(1));
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let chunk = items.len().div_ceil(workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .map(|c| scope.spawn(|| c.iter().map(&f).collect::<Vec<R>>()))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client training worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectTransport;
    use mixnn_data::lfw_like;
    use mixnn_nn::zoo;
    use std::collections::HashMap;

    fn sim(seed: u64) -> (FlSimulation, FederatedDataset) {
        let fed = lfw_like(2).generate().unwrap();
        let dims = fed.spec().dims;
        let mut rng = StdRng::seed_from_u64(seed);
        let template = zoo::conv2_fc3(
            zoo::InputSpec::new(dims.channels, dims.height, dims.width),
            fed.spec().num_classes,
            2,
            8,
            &mut rng,
        );
        let cfg = FlConfig {
            rounds: 3,
            local_epochs: 1,
            batch_size: 16,
            clients_per_round: 6,
            seed,
            ..FlConfig::default()
        };
        (FlSimulation::new(template, cfg, &fed), fed)
    }

    #[test]
    fn round_produces_expected_shapes() {
        let (mut sim, _) = sim(1);
        let mut transport = DirectTransport::new();
        let outcome = sim.run_round(&mut transport).unwrap();
        assert_eq!(outcome.selected.len(), 6);
        assert_eq!(outcome.observed.len(), 6);
        assert_eq!(outcome.global_after, *sim.global());
        assert_eq!(sim.rounds_run(), 1);
    }

    #[test]
    fn aggregation_is_a_visible_share_of_the_round() {
        let (mut sim, _) = sim(3);
        let telemetry = mixnn_telemetry::Registry::new().shared();
        sim.attach_telemetry(telemetry.clone());
        let mut transport = DirectTransport::new();
        sim.run_round(&mut transport).unwrap();
        sim.run_round(&mut transport).unwrap();
        let snapshot = telemetry.snapshot();
        let span = |name: &str| {
            let mut spans = snapshot.histograms.iter();
            let h = spans.find(|h| h.component == "fl" && h.name == name);
            h.map(|h| (h.count, h.sum)).unwrap()
        };
        let (rounds, round_ns) = span("round_ns");
        let (aggregations, aggregate_ns) = span("aggregate_ns");
        assert_eq!((rounds, aggregations), (2, 2));
        assert!(aggregate_ns > 0 && aggregate_ns < round_ns);
        assert!(snapshot
            .to_prometheus()
            .contains("mixnn_fl_aggregate_ns_count 2"));
    }

    #[test]
    fn rounds_are_deterministic() {
        let run = || {
            let (mut sim, _) = sim(7);
            let mut transport = DirectTransport::new();
            sim.run_round(&mut transport).unwrap();
            sim.run_round(&mut transport).unwrap();
            sim.global().clone()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn rounds_are_identical_at_any_client_worker_count() {
        let run = |workers: usize| {
            let (mut sim, _) = sim(7);
            sim.cfg.client_workers = workers;
            let mut transport = DirectTransport::new();
            sim.run_round(&mut transport).unwrap();
            sim.global().clone()
        };
        let sequential = run(1);
        for workers in [2, 3, 8] {
            assert_eq!(sequential, run(workers), "workers={workers}");
        }
    }

    #[test]
    fn training_improves_global_accuracy() {
        let (mut sim, fed) = sim(3);
        let before = sim.evaluate_global(fed.global_test()).unwrap();
        let mut transport = DirectTransport::new();
        for _ in 0..3 {
            sim.run_round(&mut transport).unwrap();
        }
        let after = sim.evaluate_global(fed.global_test()).unwrap();
        assert!(
            after.accuracy > before.accuracy || after.loss < before.loss,
            "no improvement: acc {} -> {}, loss {} -> {}",
            before.accuracy,
            after.accuracy,
            before.loss,
            after.loss
        );
    }

    #[test]
    fn per_client_dissemination_requires_all_models() {
        let (mut sim, _) = sim(4);
        let selected = sim.sample_clients();
        let mut map = HashMap::new();
        map.insert(selected[0], sim.global().clone());
        let err = sim
            .run_round_with(
                &selected,
                Dissemination::PerClient(map),
                &mut DirectTransport::new(),
            )
            .unwrap_err();
        assert!(matches!(err, FlError::MissingModelFor { .. }));
    }

    #[test]
    fn unknown_client_is_rejected() {
        let (mut sim, _) = sim(5);
        let err = sim
            .run_round_with(
                &[999],
                Dissemination::Broadcast(sim.global().clone()),
                &mut DirectTransport::new(),
            )
            .unwrap_err();
        assert!(matches!(err, FlError::UnknownClient { client_id: 999 }));
    }

    #[test]
    fn empty_selection_is_rejected() {
        let (mut sim, _) = sim(6);
        let err = sim
            .run_round_with(
                &[],
                Dissemination::Broadcast(sim.global().clone()),
                &mut DirectTransport::new(),
            )
            .unwrap_err();
        assert_eq!(err, FlError::EmptyRound);
    }

    #[test]
    fn per_participant_evaluation_covers_population() {
        let (mut sim, fed) = sim(8);
        sim.run_round(&mut DirectTransport::new()).unwrap();
        let evals = sim.evaluate_per_participant(&fed).unwrap();
        assert_eq!(evals.len(), fed.len());
        for (_, e) in evals {
            assert!((0.0..=1.0).contains(&e.accuracy));
        }
    }

    #[test]
    fn sample_clients_respects_limit_and_population() {
        let (mut sim, fed) = sim(9);
        let ids = sim.sample_clients();
        assert_eq!(ids.len(), 6);
        let mut sorted = ids.clone();
        sorted.dedup();
        assert_eq!(sorted.len(), 6, "sampling must be without replacement");
        assert!(ids.iter().all(|&id| id < fed.len()));
    }

    #[test]
    fn map_chunked_preserves_order_at_any_worker_count() {
        let items: Vec<usize> = (0..37).collect();
        let expected: Vec<usize> = items.iter().map(|&i| i * i).collect();
        for workers in 0..9 {
            assert_eq!(map_chunked(&items, workers, |&i| i * i), expected);
        }
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunked(&empty, 4, |&b| b).is_empty());
        assert_eq!(map_chunked(&[9u8], 4, |&b| b), vec![9]);
    }
}
