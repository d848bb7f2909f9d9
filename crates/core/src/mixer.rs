//! The mixing plan.
//!
//! Mixing is the formal §4.2 construction: a round waits for all `C`
//! participants, then emits `C` mixed updates described by a matrix `M` in
//! which every (participant, layer) pair appears **exactly once**, each
//! column (layer) is a permutation, and each row (outgoing update) draws
//! every layer from a **different** participant. A [`MixPlan`] is that
//! matrix; [`MixPlan::apply_owned`] moves items into their output slots
//! without looking inside them, so the same plan mixes plaintext layers at
//! the single proxy and per-layer ciphertext blobs at a cascade hop.
//!
//! A column permutation conserves the per-layer multiset of updates, which
//! is exactly why FedAvg aggregation is unaffected.

use crate::ProxyError;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;

/// Deterministic sub-seed derivation (SplitMix64-style): every `index`
/// under one `seed` — a cascade's hop, a hop's cover nonce, a layout's
/// client slot — draws from its own stream.
pub fn shard_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add(0x9e37_79b9_7f4a_7c15u64.wrapping_mul(index as u64 + 1))
        .wrapping_add(0xa076_1d64_78bd_642f);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
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
    /// single proxy's batch and each cascade hop's alike: the §4.2
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

    /// Applies the plan to opaque per-item rows, consuming them.
    ///
    /// `rows[p][l]` is participant `p`'s item for layer `l`; the output's
    /// `out[i][l]` is `rows[assignments[l][i]][l]`, **moved**, never
    /// cloned. The plan machinery only relocates things, so the same
    /// construction that mixes the proxy's plaintext layers serves the mix
    /// cascade, whose intermediate hops shuffle per-layer **ciphertext
    /// blobs** they cannot decrypt.
    ///
    /// # Example
    ///
    /// ```
    /// use mixnn_core::MixPlan;
    /// use mixnn_nn::{LayerParams, ModelParams};
    /// use rand::{rngs::StdRng, SeedableRng};
    ///
    /// # fn main() -> Result<(), mixnn_core::ProxyError> {
    /// let updates: Vec<ModelParams> = (0..4)
    ///     .map(|i| ModelParams::from_layers(vec![
    ///         LayerParams::from_values(vec![i as f32]),
    ///         LayerParams::from_values(vec![10.0 + i as f32]),
    ///     ]))
    ///     .collect();
    /// let plan = MixPlan::for_round(4, 2, &mut StdRng::seed_from_u64(7))?;
    /// assert!(plan.is_column_bijective() && plan.is_row_distinct());
    /// let rows = updates.iter().map(|u| u.iter().cloned().collect()).collect();
    /// let mixed: Vec<ModelParams> = plan
    ///     .apply_owned(rows)?
    ///     .into_iter()
    ///     .map(ModelParams::from_layers)
    ///     .collect();
    /// // Aggregation is unchanged:
    /// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&mixed));
    /// # Ok(())
    /// # }
    /// ```
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

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_nn::{LayerParams, ModelParams};
    use rand::SeedableRng;

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

    /// The proxy's batch mix: the plan applied to the updates' layers.
    fn mix(plan: &MixPlan, updates: &[ModelParams]) -> Vec<ModelParams> {
        let rows = updates
            .iter()
            .map(|u| u.iter().cloned().collect())
            .collect();
        plan.apply_owned(rows)
            .unwrap()
            .into_iter()
            .map(ModelParams::from_layers)
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
        let mixed = mix(&plan, &ups);
        for (i, m) in mixed.iter().enumerate() {
            for l in 0..2 {
                let src = plan.source(l, i).unwrap();
                assert_eq!(m.layer(l), ups[src].layer(l));
            }
        }
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
    fn for_round_preserves_aggregation_exactly() {
        let ups = updates(7, &[4, 2, 3]);
        let plan = MixPlan::for_round(7, 3, &mut StdRng::seed_from_u64(3)).unwrap();
        assert!(plan.is_column_bijective());
        assert!(plan.is_row_distinct());
        // The theorem of §4.2: Agr(A) == Agr(B), bitwise.
        assert_eq!(
            ModelParams::mean(&ups),
            ModelParams::mean(&mix(&plan, &ups))
        );
    }

    #[test]
    fn for_round_actually_mixes() {
        let ups = updates(10, &[2, 2, 2]);
        let plan = MixPlan::for_round(10, 3, &mut StdRng::seed_from_u64(4)).unwrap();
        let moved = (0..3).any(|l| (0..10).any(|i| plan.source(l, i) != Some(i)));
        assert!(moved, "plan was the identity");
        assert_ne!(mix(&plan, &ups), ups, "updates unchanged after mixing");
    }

    #[test]
    fn for_round_falls_back_when_layers_exceed_participants() {
        let ups = updates(2, &[1, 1, 1, 1]); // 4 layers, 2 participants
        let plan = MixPlan::for_round(2, 4, &mut StdRng::seed_from_u64(5)).unwrap();
        assert!(plan.is_column_bijective());
        // Four layers over two participants: every row repeats a source.
        assert!(!plan.is_row_distinct());
        assert_eq!(
            ModelParams::mean(&ups),
            ModelParams::mean(&mix(&plan, &ups))
        );
        // An empty round has nothing to mix.
        assert_eq!(
            MixPlan::for_round(0, 4, &mut StdRng::seed_from_u64(5)),
            Err(ProxyError::InsufficientUpdates { have: 0, need: 1 })
        );
    }

    #[test]
    fn shard_seed_is_deterministic_and_layer_dependent() {
        assert_eq!(shard_seed(7, 3), shard_seed(7, 3));
        assert_ne!(shard_seed(7, 3), shard_seed(7, 4));
        assert_ne!(shard_seed(7, 3), shard_seed(8, 3));
    }
}
