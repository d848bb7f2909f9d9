//! Round orchestration.

use crate::{
    AggregationServer, FlClient, FlConfig, FlError, LocalTrainer, ModelUpdate, UpdateTransport,
};
use mixnn_data::{Dataset, FederatedDataset};
use mixnn_nn::{Evaluation, ModelParams, Sequential, SoftmaxCrossEntropy};
use mixnn_telemetry::{Counter, Distribution, Span, Telemetry};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Everything produced by one federated round.
#[derive(Debug, Clone)]
pub struct RoundOutcome {
    /// Round index (0-based).
    pub round: usize,
    /// The model the server sent every selected client at the start of
    /// the round.
    pub disseminated: ModelParams,
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
/// count. Each worker trains its clients one after the other in a
/// [`LocalTrainer`] the simulation keeps from round to round, so from the
/// second client on training reuses one model, optimizer and batch per
/// worker.
#[derive(Debug)]
pub struct FlSimulation {
    template: Sequential,
    cfg: FlConfig,
    clients: Vec<FlClient>,
    /// One per training worker that has run so far.
    trainers: Vec<LocalTrainer>,
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
            trainers: Vec::new(),
            server: AggregationServer::new(initial),
            sampler: StdRng::seed_from_u64(cfg.seed ^ 0x5e1ec7),
            cfg,
            // rounds_run counts invocations of `run_round*`, used for seeding.
            rounds_run: 0,
            telemetry: mixnn_telemetry::noop(),
        }
    }

    /// Attaches a telemetry registry: each round records its span, the
    /// part of it spent in server aggregation, its participant count and
    /// the round and client counters. Only aggregate, selection-size-level
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
        let model = self.server.global().clone();
        self.run_round_with(&selected, model, transport)
    }

    /// Runs one round with an explicit client selection, every selected
    /// client training from `model` — the entry point for the active
    /// attack, which broadcasts a crafted model.
    ///
    /// # Errors
    ///
    /// Returns [`FlError::EmptyRound`] for an empty selection and
    /// [`FlError::UnknownClient`] for an id outside the simulation, and
    /// propagates training, transport and aggregation failures.
    pub fn run_round_with(
        &mut self,
        selected: &[usize],
        model: ModelParams,
        transport: &mut dyn UpdateTransport,
    ) -> Result<RoundOutcome, FlError> {
        if selected.is_empty() {
            return Err(FlError::EmptyRound);
        }
        let round = self.rounds_run;
        let round_t0 = self.telemetry.now_ns();

        // Resolve clients up front.
        let mut work: Vec<(&FlClient, u64)> = Vec::with_capacity(selected.len());
        for &id in selected {
            let client = self
                .clients
                .iter()
                .find(|c| c.id() == id)
                .ok_or(FlError::UnknownClient { client_id: id })?;
            work.push((client, self.cfg.client_seed(round, id)));
        }

        // Parallel local training on a bounded worker pool
        // (`client_workers`), deterministic via per-client
        // seeds: each client's result depends only on its own
        // (round, client) seed, so chunking across workers cannot change
        // the outcome — only the wall-clock. A worker's trainer carries
        // memory, never state, from one client to the next.
        let cfg = self.cfg;
        let workers = cfg.client_workers.clamp(1, work.len());
        while self.trainers.len() < workers {
            self.trainers.push(LocalTrainer::new(&self.template));
        }
        let results: Vec<Result<ModelUpdate, FlError>> = map_chunked(
            &work,
            &mut self.trainers[..workers],
            |trainer, (client, seed)| client.train_in(trainer, &model, &cfg, *seed),
        );

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
        Ok(RoundOutcome {
            round,
            disseminated: model,
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

/// Runs `f` over `items` with one scoped thread per state in `workers`
/// (at most one per item), preserving input order in the output.
///
/// The item slice is split into contiguous chunks, one per worker; each
/// worker maps its chunk sequentially, handing `f` its own state each
/// time. With one worker no thread is spawned. Because `f` receives each
/// item independently, the output is identical at every worker count —
/// callers encode any per-item determinism (seeds) in the items
/// themselves, and a state may carry memory, never results, between
/// items.
///
/// This is the workspace's one thread runner: [`FlSimulation`] trains a
/// round's clients through it (one [`LocalTrainer`] per worker), and
/// `mixnn-bench` runs a paper figure's trials through it (stateless
/// workers, `&mut [(); w]`).
///
/// # Panics
///
/// Panics if `workers` is empty while `items` is not, or if a worker
/// panicked.
pub fn map_chunked<T, S, R, F>(items: &[T], workers: &mut [S], f: F) -> Vec<R>
where
    T: Sync,
    S: Send,
    R: Send,
    F: Fn(&mut S, &T) -> R + Sync,
{
    if items.is_empty() {
        return Vec::new();
    }
    let used = workers.len().min(items.len());
    let workers = &mut workers[..used];
    if let [state] = workers {
        return items.iter().map(|item| f(state, item)).collect();
    }
    assert!(!workers.is_empty(), "map_chunked needs a worker");
    let chunk = items.len().div_ceil(workers.len());
    let f = &f;
    std::thread::scope(|scope| {
        let handles: Vec<_> = items
            .chunks(chunk)
            .zip(workers)
            .map(|(c, state)| {
                scope.spawn(move || c.iter().map(|item| f(state, item)).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("map_chunked worker panicked"))
            .collect()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DirectTransport;
    use mixnn_data::lfw_like;
    use mixnn_nn::zoo;

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
    fn unknown_client_is_rejected() {
        let (mut sim, _) = sim(5);
        let err = sim
            .run_round_with(&[999], sim.global().clone(), &mut DirectTransport::new())
            .unwrap_err();
        assert!(matches!(err, FlError::UnknownClient { client_id: 999 }));
    }

    #[test]
    fn empty_selection_is_rejected() {
        let (mut sim, _) = sim(6);
        let err = sim
            .run_round_with(&[], sim.global().clone(), &mut DirectTransport::new())
            .unwrap_err();
        assert_eq!(err, FlError::EmptyRound);
    }

    #[test]
    fn invalid_learning_rate_fails_the_round_without_a_panic() {
        let (mut sim, _) = sim(9);
        sim.cfg.learning_rate = 0.0;
        sim.cfg.client_workers = 2;
        let err = sim.run_round(&mut DirectTransport::new()).unwrap_err();
        assert!(matches!(err, FlError::InvalidConfig { .. }), "{err}");
        assert_eq!(sim.rounds_run(), 0);
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
        for workers in 1..9 {
            // Each worker counts the items it mapped in its own state.
            let mut seen = vec![0usize; workers];
            let squares = map_chunked(&items, &mut seen, |n, &i| {
                *n += 1;
                i * i
            });
            assert_eq!(squares, expected);
            assert_eq!(seen.iter().sum::<usize>(), items.len());
            assert!(seen.iter().all(|&n| n > 0), "{workers} workers: {seen:?}");
        }
        let empty: Vec<u8> = Vec::new();
        assert!(map_chunked(&empty, &mut [(); 4], |_, &b| b).is_empty());
        assert_eq!(map_chunked(&[9u8], &mut [(); 4], |_, &b| b), vec![9]);
    }
}
