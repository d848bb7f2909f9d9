//! Federated-learning hyper-parameters.

/// Hyper-parameters of a federated run.
///
/// Defaults are deliberately small; the per-dataset configurations from the
/// paper's §6.1.4 live in `mixnn-bench`.
///
/// # Example
///
/// ```
/// use mixnn_fl::FlConfig;
///
/// let cfg = FlConfig {
///     rounds: 10,
///     clients_per_round: 16,
///     ..FlConfig::default()
/// };
/// assert_ne!(cfg.client_seed(0, 3), cfg.client_seed(1, 3));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlConfig {
    /// Number of federated learning rounds.
    pub rounds: usize,
    /// Local epochs each client trains per round.
    pub local_epochs: usize,
    /// Local mini-batch size.
    pub batch_size: usize,
    /// Local learning rate of the Adam optimizer every client runs, as in
    /// the paper's training runs (§6.1.4).
    pub learning_rate: f32,
    /// Clients aggregated per round (sampled without replacement).
    pub clients_per_round: usize,
    /// Master seed: fixes client sampling, batch order and model init.
    pub seed: u64,
    /// Threads running per-client local training inside a round (`0`
    /// behaves like `1`). Results are identical at every setting — each
    /// client trains from its own derived seed — only throughput changes.
    pub client_workers: usize,
}

impl Default for FlConfig {
    fn default() -> Self {
        FlConfig {
            rounds: 5,
            local_epochs: 2,
            batch_size: 32,
            learning_rate: 0.01,
            clients_per_round: 8,
            seed: 0,
            // One worker per hardware thread by default: results are
            // identical at any worker count, so this only buys speed.
            client_workers: std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        }
    }
}

impl FlConfig {
    /// Derives the deterministic training seed for `client_id` in `round`.
    ///
    /// Clients train in parallel threads; giving each a seed derived from
    /// `(master seed, round, client)` keeps runs bit-reproducible however
    /// the threads are scheduled.
    pub fn client_seed(&self, round: usize, client_id: usize) -> u64 {
        // SplitMix64-style mixing of the three coordinates.
        let mut z = self
            .seed
            .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(round as u64 + 1))
            .wrapping_add((client_id as u64) << 17);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn client_seeds_are_distinct() {
        let cfg = FlConfig::default();
        let mut seeds = std::collections::HashSet::new();
        for round in 0..10 {
            for client in 0..50 {
                assert!(seeds.insert(cfg.client_seed(round, client)));
            }
        }
    }

    #[test]
    fn client_seed_depends_on_master_seed() {
        let a = FlConfig {
            seed: 1,
            ..FlConfig::default()
        };
        let b = FlConfig {
            seed: 2,
            ..FlConfig::default()
        };
        assert_ne!(a.client_seed(0, 0), b.client_seed(0, 0));
    }
}
