//! The mixing algorithms.
//!
//! Mixing operates on [`ModelParams`] — one flat vector per trainable layer
//! — and never looks inside the vectors, so it is architecture-agnostic.
//!
//! Two strategies, matching the paper:
//!
//! * [`BatchMixer`] — the formal §4.2 construction: the proxy waits for all
//!   `C` participants, then emits `L = C` mixed updates described by a
//!   matrix `M` in which every (participant, layer) pair appears **exactly
//!   once**, each column (layer) is a permutation, and each row (outgoing
//!   update) draws every layer from a **different** participant.
//! * [`StreamingMixer`] — the §4.3 implementation: one list of size `k` per
//!   layer; after warm-up, each incoming update obliviously swaps a random
//!   element out of every list, and the extracted elements form the
//!   outgoing update.
//!
//! Both conserve the per-layer multiset of updates, which is exactly why
//! FedAvg aggregation is unaffected.

use crate::ProxyError;
use mixnn_enclave::ObliviousBuffer;
use mixnn_nn::{LayerParams, ModelParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Deterministic per-layer seed derivation (SplitMix64-style): layer `l`
/// of a mixer seeded with `seed` always draws from its own stream.
pub fn shard_seed(seed: u64, layer: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(layer as u64 + 1))
        .wrapping_add(0xa076_1d64_78bd_642f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Which mixing algorithm a proxy runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MixingStrategy {
    /// Wait for all `C` participants, then mix with a Latin-rectangle plan
    /// (the paper's L = C assumption; used for the main experiments).
    #[default]
    Batch,
    /// Streaming lists of size `k` (the paper's §4.3 implementation).
    Streaming {
        /// Per-layer list capacity (the paper's `k`).
        k: usize,
    },
}

/// A concrete mixing assignment: `assignments[l][i]` is the index of the
/// participant whose layer `l` goes into outgoing update `i`.
///
/// The paper's matrix `M` transposed into per-layer rows.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MixPlan {
    assignments: Vec<Vec<usize>>,
    participants: usize,
}

impl MixPlan {
    /// Builds a plan satisfying **both** §4.2 conditions:
    /// every column (fixed layer, across outputs) is a permutation of the
    /// participants, and every row (fixed output, across layers) uses
    /// pairwise-distinct participants.
    ///
    /// Construction: pick a random participant relabelling σ, a random
    /// output relabelling τ, and `layers` **distinct** offsets `o_l`; then
    /// `assignments[l][i] = σ((τ(i) + o_l) mod c)`. Distinct offsets give
    /// row-distinctness; modular shifts of a permutation give
    /// column-bijectivity.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] when `layers >
    /// participants` (row-distinctness is then impossible — there are more
    /// layers than distinct participants to draw from).
    pub fn latin(participants: usize, layers: usize, rng: &mut StdRng) -> Result<Self, ProxyError> {
        if participants == 0 || layers > participants {
            return Err(ProxyError::InsufficientUpdates {
                have: participants,
                need: layers.max(1),
            });
        }
        let mut sigma: Vec<usize> = (0..participants).collect();
        sigma.shuffle(rng);
        let mut tau: Vec<usize> = (0..participants).collect();
        tau.shuffle(rng);
        let mut offsets: Vec<usize> = (0..participants).collect();
        offsets.shuffle(rng);
        offsets.truncate(layers);

        let assignments = offsets
            .iter()
            .map(|&o| {
                (0..participants)
                    .map(|i| sigma[(tau[i] + o) % participants])
                    .collect()
            })
            .collect();
        Ok(MixPlan {
            assignments,
            participants,
        })
    }

    /// Builds a plan with an independent uniform permutation per layer.
    ///
    /// Column-bijective (so still utility-equivalent) but rows may repeat a
    /// participant by chance. [`MixPlan::for_round`]'s fallback when a
    /// model has more layers than there are participants.
    fn independent(participants: usize, layers: usize, rng: &mut StdRng) -> Self {
        let assignments = (0..layers)
            .map(|_| {
                let mut perm: Vec<usize> = (0..participants).collect();
                perm.shuffle(rng);
                perm
            })
            .collect();
        MixPlan {
            assignments,
            participants,
        }
    }

    /// The plan policy every mixing round in this workspace uses — the
    /// single proxy's `BatchMixer` and each cascade hop alike: the §4.2
    /// Latin construction when the model has no more layers than there are
    /// participants, otherwise the independent per-layer fallback (still
    /// column-bijective, so still utility-equivalent).
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] for an empty round.
    pub fn for_round(
        participants: usize,
        layers: usize,
        rng: &mut StdRng,
    ) -> Result<Self, ProxyError> {
        if layers <= participants {
            Self::latin(participants, layers, rng)
        } else if participants == 0 {
            Err(ProxyError::InsufficientUpdates { have: 0, need: 1 })
        } else {
            Ok(Self::independent(participants, layers, rng))
        }
    }

    /// Number of outgoing updates (equals participants).
    pub fn participants(&self) -> usize {
        self.participants
    }

    /// Number of layers covered by the plan.
    pub fn layers(&self) -> usize {
        self.assignments.len()
    }

    /// Source participant for layer `l` of output `i`.
    pub fn source(&self, layer: usize, output: usize) -> Option<usize> {
        self.assignments.get(layer)?.get(output).copied()
    }

    /// Checks the §4.2 column condition: for every layer, the assignment
    /// across outputs is a permutation (each participant's layer used
    /// exactly once).
    pub fn is_column_bijective(&self) -> bool {
        self.assignments.iter().all(|col| {
            let mut seen = vec![false; self.participants];
            col.len() == self.participants
                && col.iter().all(|&p| {
                    if p >= self.participants || seen[p] {
                        false
                    } else {
                        seen[p] = true;
                        true
                    }
                })
        })
    }

    /// Checks the §4.2 row condition: every outgoing update draws each
    /// layer from a different participant.
    pub fn is_row_distinct(&self) -> bool {
        (0..self.participants).all(|i| {
            let mut seen = std::collections::HashSet::new();
            self.assignments.iter().all(|col| seen.insert(col[i]))
        })
    }

    /// Applies the plan: `out[i].layer[l] = updates[assignments[l][i]].layer[l]`
    /// — [`MixPlan::apply_owned`] over cloned layers.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] if the update count does
    /// not match the plan, or [`ProxyError::SignatureMismatch`] if the
    /// updates disagree on layer structure.
    pub fn apply(&self, updates: &[ModelParams]) -> Result<Vec<ModelParams>, ProxyError> {
        // Ahead of `apply_owned`'s own count check: the signature check in
        // between would answer an empty slice with `need: 1`.
        if updates.len() != self.participants {
            return Err(ProxyError::InsufficientUpdates {
                have: updates.len(),
                need: self.participants,
            });
        }
        check_common_signature(updates)?;
        let rows = updates
            .iter()
            .map(|u| u.iter().cloned().collect())
            .collect();
        let mixed = self.apply_owned(rows)?;
        Ok(mixed.into_iter().map(ModelParams::from_layers).collect())
    }

    /// Applies the plan to opaque per-item rows, consuming them.
    ///
    /// `rows[p][l]` is participant `p`'s item for layer `l`; the output's
    /// `out[i][l]` is `rows[assignments[l][i]][l]`, **moved**, never
    /// cloned. The plan machinery only relocates things, so the same
    /// construction that mixes plaintext [`ModelParams`] serves the mix
    /// cascade, whose intermediate hops shuffle per-layer **ciphertext
    /// blobs** they cannot decrypt.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] if the row count does
    /// not match the plan's participants, or
    /// [`ProxyError::SignatureMismatch`] if any row's length differs from
    /// the plan's layer count.
    pub fn apply_owned<T>(&self, rows: Vec<Vec<T>>) -> Result<Vec<Vec<T>>, ProxyError> {
        if rows.len() != self.participants {
            return Err(ProxyError::InsufficientUpdates {
                have: rows.len(),
                need: self.participants,
            });
        }
        let layers = self.assignments.len();
        for row in &rows {
            if row.len() != layers {
                return Err(ProxyError::SignatureMismatch {
                    expected: vec![layers],
                    actual: vec![row.len()],
                });
            }
        }
        let mut cells: Vec<Vec<Option<T>>> = rows
            .into_iter()
            .map(|row| row.into_iter().map(Some).collect())
            .collect();
        let outputs = (0..self.participants)
            .map(|i| {
                self.assignments
                    .iter()
                    .enumerate()
                    .map(|(l, col)| {
                        cells[col[i]][l]
                            .take()
                            .expect("plan columns are permutations (all constructors guarantee it)")
                    })
                    .collect()
            })
            .collect();
        Ok(outputs)
    }
}

/// Verifies all updates share one signature and returns it.
pub(crate) fn check_common_signature(updates: &[ModelParams]) -> Result<Vec<usize>, ProxyError> {
    let first = updates
        .first()
        .ok_or(ProxyError::InsufficientUpdates { have: 0, need: 1 })?;
    let signature = first.signature();
    for u in updates {
        if u.signature() != signature {
            return Err(ProxyError::SignatureMismatch {
                expected: signature,
                actual: u.signature(),
            });
        }
    }
    Ok(signature)
}

/// Batch (L = C) mixer: the proxy-side object that draws a fresh
/// [`MixPlan`] per round.
///
/// # Example
///
/// ```
/// use mixnn_core::BatchMixer;
/// use mixnn_nn::{LayerParams, ModelParams};
///
/// # fn main() -> Result<(), mixnn_core::ProxyError> {
/// let updates: Vec<ModelParams> = (0..4)
///     .map(|i| ModelParams::from_layers(vec![
///         LayerParams::from_values(vec![i as f32]),
///         LayerParams::from_values(vec![10.0 + i as f32]),
///     ]))
///     .collect();
/// let mut mixer = BatchMixer::new(7);
/// let (mixed, plan) = mixer.mix(&updates)?;
/// assert_eq!(mixed.len(), 4);
/// assert!(plan.is_column_bijective());
/// // Aggregation is unchanged:
/// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&mixed));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct BatchMixer {
    rng: StdRng,
}

impl BatchMixer {
    /// Creates a batch mixer with a seeded RNG (the enclave's entropy).
    pub fn new(seed: u64) -> Self {
        BatchMixer {
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Mixes one round of updates, returning the mixed updates and the plan
    /// used (the plan never leaves the enclave in a deployment; it is
    /// returned here for verification and experiments).
    ///
    /// Uses the Latin construction when the model has no more layers than
    /// there are participants, otherwise falls back to independent
    /// per-layer permutations.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] for an empty round or
    /// [`ProxyError::SignatureMismatch`] for inconsistent updates.
    pub fn mix(
        &mut self,
        updates: &[ModelParams],
    ) -> Result<(Vec<ModelParams>, MixPlan), ProxyError> {
        let plan = self.draw_plan(updates)?;
        let mixed = plan.apply(updates)?;
        Ok((mixed, plan))
    }

    /// The fallible half of [`BatchMixer::mix`]: checks the round shares
    /// one signature and draws its plan, touching no update. The proxy
    /// runs this on the buffer it still owns, then moves the layers with
    /// [`MixPlan::apply_owned`] instead of cloning them.
    pub(crate) fn draw_plan(&mut self, updates: &[ModelParams]) -> Result<MixPlan, ProxyError> {
        let signature = check_common_signature(updates)?;
        MixPlan::for_round(updates.len(), signature.len(), &mut self.rng)
    }
}

/// One layer's streaming state: its oblivious list and its own RNG stream
/// ([`shard_seed`]-derived), so layer `l`'s swap-index sequence depends on
/// nothing but the mixer seed, the epoch and `l`.
#[derive(Debug)]
struct LayerShard {
    rng: StdRng,
    buffer: ObliviousBuffer<LayerParams>,
}

impl LayerShard {
    fn swap(&mut self, incoming: LayerParams, k: usize) -> LayerParams {
        let idx = self.rng.gen_range(0..k);
        self.buffer
            .sample_swap(idx, incoming)
            .expect("index drawn within capacity")
    }
}

/// Streaming mixer: the §4.3 algorithm with per-layer lists of size `k`
/// backed by [`ObliviousBuffer`]s (access-pattern hiding).
///
/// The first `k` updates fill the lists and produce no output; every
/// further update swaps a uniformly random element out of each list and the
/// extracted elements form the outgoing update. [`StreamingMixer::flush`]
/// drains the lists at shutdown so the layer multiset is conserved overall.
#[derive(Debug)]
pub struct StreamingMixer {
    k: usize,
    signature: Vec<usize>,
    warmup: Vec<ModelParams>,
    shards: Option<Vec<LayerShard>>,
    seed: u64,
    // Promotions completed so far. Folded into the per-layer seed
    // derivation so that after a flush the next fill draws *fresh* index
    // streams: re-deriving the same streams every epoch would replay the
    // same swap pattern round after round — a silent privacy regression
    // for a proxy that persists across rounds.
    epoch: u64,
    received: u64,
    emitted: u64,
}

impl StreamingMixer {
    /// Creates a streaming mixer for models with the given layer signature.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero or the signature is empty — a configuration
    /// bug, not a runtime condition.
    pub fn new(signature: Vec<usize>, k: usize, seed: u64) -> Self {
        assert!(k > 0, "list size k must be positive");
        assert!(!signature.is_empty(), "model must have at least one layer");
        StreamingMixer {
            k,
            signature,
            warmup: Vec::new(),
            shards: None,
            seed,
            epoch: 0,
            received: 0,
            emitted: 0,
        }
    }

    /// The configured list size.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Updates received so far.
    pub fn received(&self) -> u64 {
        self.received
    }

    /// Updates emitted so far (excluding flush).
    pub fn emitted(&self) -> u64 {
        self.emitted
    }

    /// Updates currently buffered in the lists.
    pub fn buffered(&self) -> usize {
        if self.shards.is_some() {
            self.k
        } else {
            self.warmup.len()
        }
    }

    /// Feeds one update into the lists. Returns `None` during warm-up,
    /// `Some(mixed update)` afterwards.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::SignatureMismatch`] if the update does not
    /// match the configured model.
    pub fn push(&mut self, update: ModelParams) -> Result<Option<ModelParams>, ProxyError> {
        if update.signature() != self.signature {
            return Err(ProxyError::SignatureMismatch {
                expected: self.signature.clone(),
                actual: update.signature(),
            });
        }
        self.received += 1;

        match &mut self.shards {
            None => {
                self.warmup.push(update);
                if self.warmup.len() == self.k {
                    // Lists are full: promote to per-layer shards, each
                    // with its own oblivious buffer and derived RNG.
                    let layers = self.signature.len();
                    let mut per_layer: Vec<Vec<LayerParams>> =
                        (0..layers).map(|_| Vec::with_capacity(self.k)).collect();
                    for u in self.warmup.drain(..) {
                        for (l, lp) in u.into_layers().into_iter().enumerate() {
                            per_layer[l].push(lp);
                        }
                    }
                    let epoch_seed = shard_seed(self.seed, self.epoch as usize);
                    self.epoch += 1;
                    self.shards = Some(
                        per_layer
                            .into_iter()
                            .enumerate()
                            .map(|(l, slots)| LayerShard {
                                rng: StdRng::seed_from_u64(shard_seed(epoch_seed, l)),
                                buffer: ObliviousBuffer::new(slots),
                            })
                            .collect(),
                    );
                }
                Ok(None)
            }
            Some(shards) => {
                let k = self.k;
                let outgoing: Vec<LayerParams> = shards
                    .iter_mut()
                    .zip(update.into_layers())
                    .map(|(shard, incoming)| shard.swap(incoming, k))
                    .collect();
                self.emitted += 1;
                Ok(Some(ModelParams::from_layers(outgoing)))
            }
        }
    }

    /// Drains the lists into final updates (position-wise), resetting the
    /// mixer to the warm-up state. Together with the streamed outputs this
    /// conserves the layer multiset exactly.
    pub fn flush(&mut self) -> Vec<ModelParams> {
        match self.shards.take() {
            Some(mut shards) => {
                let per_layer: Vec<Vec<LayerParams>> =
                    shards.iter_mut().map(|s| s.buffer.drain_clone()).collect();
                (0..self.k)
                    .map(|i| {
                        ModelParams::from_layers(per_layer.iter().map(|l| l[i].clone()).collect())
                    })
                    .collect()
            }
            None => {
                // Still warming up: emit what we have, unmixed pairing.
                std::mem::take(&mut self.warmup)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn updates(c: usize, layers: &[usize]) -> Vec<ModelParams> {
        (0..c)
            .map(|i| {
                ModelParams::from_layers(
                    layers
                        .iter()
                        .enumerate()
                        .map(|(l, &len)| LayerParams::from_values(vec![(i * 100 + l) as f32; len]))
                        .collect(),
                )
            })
            .collect()
    }

    #[test]
    fn latin_plan_satisfies_both_conditions() {
        let mut rng = StdRng::seed_from_u64(0);
        for (c, n) in [(5, 5), (8, 3), (20, 5), (3, 1)] {
            let plan = MixPlan::latin(c, n, &mut rng).unwrap();
            assert!(plan.is_column_bijective(), "c={c} n={n}");
            assert!(plan.is_row_distinct(), "c={c} n={n}");
        }
    }

    #[test]
    fn latin_rejects_more_layers_than_participants() {
        let mut rng = StdRng::seed_from_u64(0);
        assert!(matches!(
            MixPlan::latin(3, 4, &mut rng),
            Err(ProxyError::InsufficientUpdates { .. })
        ));
        assert!(MixPlan::latin(0, 1, &mut rng).is_err());
    }

    #[test]
    fn independent_plan_is_column_bijective() {
        let mut rng = StdRng::seed_from_u64(1);
        let plan = MixPlan::independent(6, 10, &mut rng);
        assert!(plan.is_column_bijective());
        assert_eq!(plan.layers(), 10);
    }

    #[test]
    fn apply_moves_layers_according_to_plan() {
        let mut rng = StdRng::seed_from_u64(2);
        let ups = updates(5, &[2, 3]);
        let plan = MixPlan::latin(5, 2, &mut rng).unwrap();
        let mixed = plan.apply(&ups).unwrap();
        for (i, m) in mixed.iter().enumerate() {
            for l in 0..2 {
                let src = plan.source(l, i).unwrap();
                assert_eq!(m.layer(l), ups[src].layer(l));
            }
        }
    }

    #[test]
    fn apply_owned_matches_apply_on_layer_params() {
        let mut rng = StdRng::seed_from_u64(7);
        let ups = updates(6, &[2, 3, 1]);
        let plan = MixPlan::latin(6, 3, &mut rng).unwrap();
        let expected = plan.apply(&ups).unwrap();
        let rows: Vec<Vec<LayerParams>> = ups.into_iter().map(ModelParams::into_layers).collect();
        let moved = plan.apply_owned(rows).unwrap();
        let moved: Vec<ModelParams> = moved.into_iter().map(ModelParams::from_layers).collect();
        assert_eq!(expected, moved);
    }

    #[test]
    fn apply_owned_works_on_opaque_blobs() {
        // The cascade's use case: items the plan cannot interpret.
        let mut rng = StdRng::seed_from_u64(9);
        let plan = MixPlan::latin(4, 2, &mut rng).unwrap();
        let rows: Vec<Vec<Vec<u8>>> = (0..4)
            .map(|p| (0..2).map(|l| vec![p as u8, l as u8]).collect())
            .collect();
        let mixed = plan.apply_owned(rows).unwrap();
        for (i, out) in mixed.iter().enumerate() {
            for (l, blob) in out.iter().enumerate() {
                let src = plan.source(l, i).unwrap();
                assert_eq!(blob, &vec![src as u8, l as u8]);
            }
        }
    }

    #[test]
    fn apply_owned_rejects_bad_dimensions() {
        let mut rng = StdRng::seed_from_u64(10);
        let plan = MixPlan::latin(3, 2, &mut rng).unwrap();
        let too_few: Vec<Vec<u8>> = vec![vec![0, 1]; 2];
        assert!(matches!(
            plan.apply_owned(too_few),
            Err(ProxyError::InsufficientUpdates { .. })
        ));
        let ragged: Vec<Vec<u8>> = vec![vec![0, 1], vec![0, 1], vec![0]];
        assert!(matches!(
            plan.apply_owned(ragged),
            Err(ProxyError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn batch_mixer_preserves_aggregation_exactly() {
        let mut mixer = BatchMixer::new(3);
        let ups = updates(7, &[4, 2, 3]);
        let (mixed, plan) = mixer.mix(&ups).unwrap();
        assert!(plan.is_column_bijective());
        assert!(plan.is_row_distinct());
        // The theorem of §4.2: Agr(A) == Agr(B), bitwise.
        assert_eq!(ModelParams::mean(&ups), ModelParams::mean(&mixed));
    }

    #[test]
    fn batch_mixer_actually_mixes() {
        let mut mixer = BatchMixer::new(4);
        let ups = updates(10, &[2, 2, 2]);
        let (mixed, plan) = mixer.mix(&ups).unwrap();
        let moved = (0..3).any(|l| (0..10).any(|i| plan.source(l, i) != Some(i)));
        assert!(moved, "plan was the identity");
        assert_ne!(mixed, ups, "updates unchanged after mixing");
    }

    #[test]
    fn batch_mixer_falls_back_when_layers_exceed_participants() {
        let mut mixer = BatchMixer::new(5);
        let ups = updates(2, &[1, 1, 1, 1]); // 4 layers, 2 participants
        let (mixed, plan) = mixer.mix(&ups).unwrap();
        assert!(plan.is_column_bijective());
        // Four layers over two participants: every row repeats a source.
        assert!(!plan.is_row_distinct());
        assert_eq!(ModelParams::mean(&ups), ModelParams::mean(&mixed));
    }

    #[test]
    fn batch_mixer_rejects_mismatched_signatures() {
        let mut mixer = BatchMixer::new(6);
        let mut ups = updates(3, &[2, 2]);
        ups.push(ModelParams::from_layers(vec![LayerParams::from_values(
            vec![0.0],
        )]));
        assert!(matches!(
            mixer.mix(&ups),
            Err(ProxyError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn shard_seed_is_deterministic_and_layer_dependent() {
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
        assert_ne!(shard_seed(7, 3), shard_seed(7, 4));
        assert_ne!(shard_seed(7, 3), shard_seed(8, 3));
    }

    #[test]
    fn streaming_epochs_draw_fresh_randomness_after_flush() {
        // A proxy persists across rounds and flushes between them; if each
        // re-fill replayed the same swap-index streams, one deanonymized
        // round would deanonymize them all. Feed the identical inputs to
        // consecutive epochs and require different emissions.
        let mut mixer = StreamingMixer::new(vec![1], 4, 3);
        let inputs = updates(16, &[1]);
        let mut epochs = Vec::new();
        for _ in 0..2 {
            let mut out = Vec::new();
            for u in inputs.clone() {
                if let Some(m) = mixer.push(u).unwrap() {
                    out.push(m);
                }
            }
            mixer.flush();
            epochs.push(out);
        }
        assert_eq!(epochs[0].len(), epochs[1].len());
        assert_ne!(
            epochs[0], epochs[1],
            "streaming epochs replayed the same swap pattern"
        );
    }

    #[test]
    fn streaming_warmup_emits_nothing() {
        let mut mixer = StreamingMixer::new(vec![2, 3], 4, 0);
        let ups = updates(4, &[2, 3]);
        for u in ups {
            assert!(mixer.push(u).unwrap().is_none());
        }
        assert_eq!(mixer.buffered(), 4);
    }

    #[test]
    fn streaming_emits_after_warmup_and_conserves_multiset() {
        let k = 3;
        let mut mixer = StreamingMixer::new(vec![1], k, 1);
        let ups = updates(10, &[1]);
        let mut out = Vec::new();
        for u in ups.clone() {
            if let Some(m) = mixer.push(u).unwrap() {
                out.push(m);
            }
        }
        assert_eq!(out.len(), 10 - k);
        out.extend(mixer.flush());
        assert_eq!(out.len(), 10);
        // Multiset conservation on the single layer.
        let mut sent: Vec<f32> = ups.iter().map(|u| u.flatten()[0]).collect();
        let mut got: Vec<f32> = out.iter().map(|u| u.flatten()[0]).collect();
        sent.sort_by(f32::total_cmp);
        got.sort_by(f32::total_cmp);
        assert_eq!(sent, got);
    }

    #[test]
    fn streaming_rejects_bad_signature() {
        let mut mixer = StreamingMixer::new(vec![2], 2, 0);
        let bad = ModelParams::from_layers(vec![LayerParams::from_values(vec![0.0; 3])]);
        assert!(matches!(
            mixer.push(bad),
            Err(ProxyError::SignatureMismatch { .. })
        ));
    }

    #[test]
    fn streaming_flush_during_warmup_returns_buffered() {
        let mut mixer = StreamingMixer::new(vec![1], 5, 0);
        mixer.push(updates(1, &[1]).pop().unwrap()).unwrap();
        let out = mixer.flush();
        assert_eq!(out.len(), 1);
        assert_eq!(mixer.buffered(), 0);
    }

    #[test]
    fn streaming_mixes_layers_across_participants() {
        // With 2 layers and enough traffic, some emitted update must
        // combine layers originating from different participants.
        let mut mixer = StreamingMixer::new(vec![1, 1], 4, 42);
        let ups = updates(30, &[1, 1]);
        let mut crossed = false;
        for u in ups {
            if let Some(m) = mixer.push(u).unwrap() {
                let flat = m.flatten();
                // Layer values encode participant: i*100 + layer.
                let p0 = (flat[0] as usize) / 100;
                let p1 = ((flat[1] as usize).saturating_sub(1)) / 100;
                if p0 != p1 {
                    crossed = true;
                }
            }
        }
        assert!(crossed, "streaming never crossed participants");
    }
}
