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
//!
//! A [`RoundTranscript`] records which plans a round drew, group by group,
//! for the proxy and the cascade alike.

use crate::ProxyError;
use mixnn_nn::{LayerParams, ModelParams};
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

/// One route group of a [`RoundTranscript`]: which slots took the route,
/// which hops they traversed, and the plan each hop drew for the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteGroup {
    slots: Vec<usize>,
    route: Vec<usize>,
    plans: Vec<MixPlan>,
}

impl RouteGroup {
    /// Builds one group's record.
    ///
    /// # Panics
    ///
    /// Panics if the group or its route is empty, `plans` does not line up
    /// with `route` one-to-one, or any plan's dimensions disagree with the
    /// group size — such a record cannot have come from one mixed group,
    /// so composing it is a construction bug, not a runtime condition.
    pub fn new(slots: Vec<usize>, route: Vec<usize>, plans: Vec<MixPlan>) -> Self {
        assert!(!slots.is_empty(), "a route group has at least one client");
        assert!(
            !route.is_empty(),
            "a route group traverses at least one hop"
        );
        assert_eq!(
            plans.len(),
            route.len(),
            "one plan per traversed hop, in route order"
        );
        for (i, plan) in plans.iter().enumerate() {
            assert_eq!(
                plan.participants(),
                slots.len(),
                "plan {i} disagrees with the group size"
            );
            assert_eq!(
                plan.layers(),
                plans[0].layers(),
                "plan {i} disagrees with plan 0 on layers"
            );
        }
        RouteGroup {
            slots,
            route,
            plans,
        }
    }

    /// The group's slots, in group-local order (ascending).
    pub fn slots(&self) -> &[usize] {
        &self.slots
    }

    /// The hop indices the group traversed, in order.
    pub fn route(&self) -> &[usize] {
        &self.route
    }

    /// The per-hop plans the route drew for this group, in route order.
    pub fn plans(&self) -> &[MixPlan] {
        &self.plans
    }

    /// Number of slots in the group — the ceiling of any member's
    /// anonymity set.
    pub fn members(&self) -> usize {
        self.slots.len()
    }
}

/// The record of one mixing round: who was in each route group, which
/// slots were real and which cover, and — through every hop's
/// [`MixPlan`] — where each output layer came from.
///
/// A cascade round is a disjoint union of per-group permutations, which is
/// exactly why the server-side aggregate is untouched and why an
/// adversary must cover a client's **entire route** to invert its mix
/// (`mixnn_attacks::analyze_routed_collusion` reads this record
/// directly). A single proxy's round is the one-hop case: one group over
/// every slot, route `[0]`, one plan
/// ([`MixnnProxy::last_audit`](crate::MixnnProxy::last_audit)).
///
/// A transcript covers the **slots the round actually drove**, not a fixed
/// client population: pooled rounds are routinely *partial* and may carry
/// trailing cover slots a hop padded in. [`RoundTranscript::clients`]
/// counts every driven slot — on the wire and through every plan a cover
/// slot is indistinguishable from a real one until the server strips it —
/// and [`RoundTranscript::real`] says where the real ones end.
///
/// It is an experiment artefact: no deployment exposes it, and it never
/// reaches telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoundTranscript {
    clients: usize,
    real: usize,
    groups: Vec<RouteGroup>,
}

impl RoundTranscript {
    /// Builds a transcript from per-route-group records, every slot real.
    ///
    /// # Panics
    ///
    /// Panics if there are no groups, the groups' slots do not partition
    /// `0..clients`, or the groups disagree on the layer count — a round
    /// cannot have produced such a record.
    pub fn from_groups(clients: usize, groups: Vec<RouteGroup>) -> Self {
        assert!(!groups.is_empty(), "a round has at least one route group");
        let mut seen = vec![false; clients];
        for group in &groups {
            for &slot in &group.slots {
                assert!(
                    slot < clients && !seen[slot],
                    "groups must partition 0..{clients} (slot {slot} misplaced)"
                );
                seen[slot] = true;
            }
        }
        assert!(
            seen.iter().all(|&s| s),
            "groups must partition 0..{clients} (some slot uncovered)"
        );
        let layers = groups[0].plans[0].layers();
        assert!(
            groups.iter().all(|g| g.plans[0].layers() == layers),
            "groups disagree on the layer count"
        );
        RoundTranscript {
            clients,
            real: clients,
            groups,
        }
    }

    /// Marks the trailing slots `real..` as cover.
    ///
    /// # Panics
    ///
    /// Panics if `real` exceeds the transcript's slots.
    pub fn with_real(mut self, real: usize) -> Self {
        assert!(
            real <= self.clients,
            "transcript covers {} slots but {real} real clients claimed",
            self.clients
        );
        self.real = real;
        self
    }

    /// The per-route-group records, ordered by route.
    pub fn groups(&self) -> &[RouteGroup] {
        &self.groups
    }

    /// Slots covered by the transcript, real and cover alike.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// Number of real slots: slots `0..real` carried client updates, the
    /// rest carried cover.
    pub fn real(&self) -> usize {
        self.real
    }

    /// Model layers covered by the plans.
    pub fn layers(&self) -> usize {
        self.groups[0].plans[0].layers()
    }

    /// The hops at least one group traversed — the union of the groups'
    /// routes, ascending. For a uniform layout this is the whole active
    /// chain.
    pub fn hops(&self) -> Vec<usize> {
        let mut hops: Vec<usize> = self
            .groups
            .iter()
            .flat_map(|g| g.route.iter().copied())
            .collect();
        hops.sort_unstable();
        hops.dedup();
        hops
    }

    /// The original slot whose layer `layer` ended up in final output
    /// `output`, traced back through every hop of the output's route
    /// group.
    pub fn composed_source(&self, layer: usize, output: usize) -> Option<usize> {
        let group = self.groups.iter().find(|g| g.slots.contains(&output))?;
        let mut idx = group.slots.iter().position(|&s| s == output)?;
        for plan in group.plans.iter().rev() {
            idx = plan.source(layer, idx)?;
        }
        group.slots.get(idx).copied()
    }

    /// Inverts the whole round: reassembles each slot's original update
    /// from the mixed outputs, group by group. Restores both the slot
    /// order and the exact layer bits — the correctness check behind the
    /// utility equivalence claim.
    ///
    /// # Errors
    ///
    /// Returns [`ProxyError::InsufficientUpdates`] if `mixed` does not
    /// hold one update per slot, or [`ProxyError::SignatureMismatch`] if
    /// an update's layer count differs from the plans'.
    pub fn unmix(&self, mixed: &[ModelParams]) -> Result<Vec<ModelParams>, ProxyError> {
        if mixed.len() != self.clients {
            return Err(ProxyError::InsufficientUpdates {
                have: mixed.len(),
                need: self.clients,
            });
        }
        let layers = self.layers();
        if let Some(m) = mixed.iter().find(|m| m.num_layers() != layers) {
            return Err(ProxyError::SignatureMismatch {
                expected: vec![layers],
                actual: vec![m.num_layers()],
            });
        }
        // Walk group-wise rather than via `composed_source` per cell: the
        // latter re-locates the output's group by linear scan on every
        // call, which would make this O(clients² · layers).
        let mut slots: Vec<Vec<Option<LayerParams>>> = vec![vec![None; layers]; self.clients];
        for group in &self.groups {
            for (local_out, &out) in group.slots.iter().enumerate() {
                for (l, layer) in mixed[out].iter().enumerate() {
                    let mut idx = local_out;
                    for plan in group.plans.iter().rev() {
                        idx = plan.source(l, idx).expect("dimensions checked above");
                    }
                    slots[group.slots[idx]][l] = Some(layer.clone());
                }
            }
        }
        Ok(slots
            .into_iter()
            .map(|row| {
                ModelParams::from_layers(
                    row.into_iter()
                        .map(|slot| slot.expect("group permutations cover every cell"))
                        .collect(),
                )
            })
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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
