//! The colluding-hops adversary against a mix cascade.
//!
//! Threat model: some subset of the cascade's hops is compromised and
//! pools everything each compromised hop sees in plaintext — which, for a
//! mixing hop, is its own per-round [`MixPlan`] (the assignment of its
//! input slots to its output slots, per layer). Honest hops reveal
//! nothing; their permutations are drawn uniformly inside the enclave.
//!
//! The adversary's goal is to link final (output slot, layer) pairs back
//! to the original client slots. [`analyze_routed_collusion`] computes
//! exactly what the pooled views support: walking a route input→output, a
//! known hop maps candidate sets through its permutation unchanged in
//! size, while an unknown hop — a uniform permutation over the slots it
//! mixed — widens every candidate set to all of them. On the uniform
//! chain, where the whole round is one route group, the result quantifies
//! the cascade's core claim: **linkability degrades only when all hops
//! collude**; any proper subset leaves every pair with the full round as
//! its residual anonymity set.
//!
//! # Route groups
//!
//! Stratified and free-route layouts split a round into **route groups**
//! (clients sharing one exact hop sequence), and each hop only mixes the
//! group that traversed it. That changes the adversary's arithmetic in
//! two ways:
//!
//! 1. routes are treated as **metadata the adversary knows** (mix-network
//!    routes are observable by traffic analysis), so a client's anonymity
//!    set starts at its route group, not the whole round — a client with
//!    a unique route is linkable with *zero* colluding hops;
//! 2. a colluding subset links a client as soon as it covers the client's
//!    **entire route** — it no longer needs every hop of the cascade,
//!    just every hop that actually mixed that client.
//!
//! This is the graph-structure dependence the membership-inference
//! literature points at: who you mix with is as load-bearing as how many
//! hops you take.
//!
//! The analysis reads a round's [`RoundTranscript`] directly — a cascade
//! round's, or a single proxy's, which is the one-hop case: the proxy
//! colluding links everything, the proxy honest links nothing.

use mixnn_core::{MixPlan, RoundTranscript};

/// Candidate-set propagation through one chain of views, for `members`
/// slots at one layer: `result[out]` is the set of original slots that
/// could occupy output `out` given the revealed plans. Before the first
/// hop, slot `j` holds exactly member `j`; a revealed plan maps sets
/// through its permutation size-preserved, an unrevealed hop widens every
/// set to the union of all of them (a uniform unknown permutation).
fn propagate_candidates(
    views: &[Option<&MixPlan>],
    members: usize,
    layer: usize,
) -> Vec<Vec<bool>> {
    let mut candidates: Vec<Vec<bool>> = (0..members)
        .map(|j| (0..members).map(|c| c == j).collect())
        .collect();
    for view in views {
        candidates = match view {
            Some(plan) => (0..members)
                .map(|out| {
                    let src = plan
                        .source(layer, out)
                        .expect("RouteGroup::new checks plan dimensions");
                    candidates[src].clone()
                })
                .collect(),
            None => {
                let mut union = vec![false; members];
                for set in &candidates {
                    for (u, &present) in union.iter_mut().zip(set) {
                        *u = *u || present;
                    }
                }
                vec![union; members]
            }
        };
    }
    candidates
}

/// What a colluding subset of hops reconstructs about a round whose
/// clients took per-route mixing groups.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedCollusionReport {
    /// Clients (= slots) in the analyzed round, across all groups.
    pub clients: usize,
    /// Real clients: slots `0..real`; the rest carried cover.
    pub real: usize,
    /// Model layers covered by the plans.
    pub layers: usize,
    /// Hop indices that revealed at least one plan, ascending.
    pub colluding_hops: Vec<usize>,
    /// Residual anonymity-set size of every client: `1` when the
    /// adversary pins the client down (its whole route colludes, or its
    /// route group is a singleton), otherwise the size of its route
    /// group. Indexed by global client slot.
    pub per_client_anonymity: Vec<usize>,
    /// Fraction of (output slot, layer) pairs linked to a unique client.
    pub linkable_fraction: f64,
    /// Mean of [`RoutedCollusionReport::per_client_anonymity`].
    pub mean_anonymity_set: f64,
    /// The successful links, flattened as `[layer * clients + output]`:
    /// `Some(client)` when the pair's residual anonymity set is a
    /// singleton, `None` otherwise.
    pub links: Vec<Option<usize>>,
}

impl RoutedCollusionReport {
    /// Clients the adversary links to a unique output (anonymity set 1).
    pub fn linked_clients(&self) -> usize {
        self.per_client_anonymity
            .iter()
            .filter(|&&a| a == 1)
            .count()
    }

    /// The anonymity-set sizes of the round's *real* clients only.
    ///
    /// Pooled rounds append hop-generated cover updates as trailing
    /// slots, so slots `0..real` are the genuine clients and the rest
    /// are dummies whose "anonymity" is meaningless (nobody sent them).
    /// This is the slice the cover-traffic indistinguishability checks
    /// compare against a dummy-free baseline.
    pub fn real_client_anonymity(&self) -> &[usize] {
        &self.per_client_anonymity[..self.real]
    }

    /// The distribution of per-client anonymity-set sizes, as ascending
    /// `(size, count)` pairs — the quantity `eval topology` records.
    pub fn anonymity_distribution(&self) -> Vec<(usize, usize)> {
        let mut counts = std::collections::BTreeMap::new();
        for &a in &self.per_client_anonymity {
            *counts.entry(a).or_insert(0usize) += 1;
        }
        counts.into_iter().collect()
    }
}

/// Runs the colluding-subset adversary over one **routed** round: each
/// route group of the transcript is analyzed against the plans of the hops
/// in `colluding` on its own route, and the results are mapped back to
/// global client slots.
///
/// Routes are modeled as adversary-known metadata, so candidate sets are
/// confined to route groups: an honest hop on a client's route widens its
/// set to the *group*, not the round, and a group of one is linkable with
/// no collusion at all. The computation is a deterministic function of
/// the plans — seed the round and you seed the adversary.
///
/// # Panics
///
/// Panics if the transcript's plans cover no layers.
pub fn analyze_routed_collusion(
    transcript: &RoundTranscript,
    colluding: &[usize],
) -> RoutedCollusionReport {
    let clients = transcript.clients();
    let layers = transcript.layers();
    assert!(layers > 0, "round must cover at least one layer");

    let mut links = vec![None; clients * layers];
    // Seeded with MAX so the per-layer fold below can take the minimum
    // (every slot is written: the groups partition the round and layers
    // >= 1).
    let mut per_client_anonymity = vec![usize::MAX; clients];
    let mut linked_pairs = 0usize;
    let mut colluding_hops = Vec::new();
    for group in transcript.groups() {
        let slots = group.slots();
        let members = group.members();
        let views: Vec<Option<&MixPlan>> = group
            .route()
            .iter()
            .zip(group.plans())
            .map(|(h, plan)| colluding.contains(h).then_some(plan))
            .collect();
        colluding_hops.extend(group.route().iter().filter(|h| colluding.contains(h)));
        for layer in 0..layers {
            let candidates = propagate_candidates(&views, members, layer);
            // Per-output links, mapped back to global slots.
            for (out, set) in candidates.iter().enumerate() {
                let size = set.iter().filter(|&&p| p).count();
                if size == 1 {
                    let src = set.iter().position(|&p| p).expect("size == 1");
                    links[layer * clients + slots[out]] = Some(slots[src]);
                    linked_pairs += 1;
                }
            }
            // Per-client residual sets: client j stays confusable with
            // every member that shares a candidate set with it. Recorded
            // as the MIN over layers — the client's most-exposed layer is
            // the operative anonymity bound (with whole plans revealed
            // per hop the sizes are layer-invariant, but a partial leak
            // that pins one layer pins the client).
            for (local, &slot) in slots.iter().enumerate() {
                let mut confusable = vec![false; members];
                for set in &candidates {
                    if set[local] {
                        for (c, &present) in confusable.iter_mut().zip(set) {
                            *c = *c || present;
                        }
                    }
                }
                let size = confusable.iter().filter(|&&p| p).count();
                per_client_anonymity[slot] = per_client_anonymity[slot].min(size);
            }
        }
    }
    colluding_hops.sort_unstable();
    colluding_hops.dedup();

    RoutedCollusionReport {
        clients,
        real: transcript.real(),
        layers,
        colluding_hops,
        linkable_fraction: linked_pairs as f64 / (clients * layers) as f64,
        mean_anonymity_set: per_client_anonymity.iter().sum::<usize>() as f64 / clients as f64,
        per_client_anonymity,
        links,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mixnn_core::RouteGroup;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn plans(n: usize, clients: usize, layers: usize, seed: u64) -> Vec<MixPlan> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| MixPlan::latin(clients, layers, &mut rng).unwrap())
            .collect()
    }

    fn group(slots: &[usize], route: &[usize], plans: &[MixPlan]) -> RouteGroup {
        RouteGroup::new(slots.to_vec(), route.to_vec(), plans.to_vec())
    }

    /// The uniform chain as the routed analysis sees it: every client in
    /// one group whose route is hops `0..plans.len()`.
    fn chain(plans: &[MixPlan], colluding: &[usize]) -> RoutedCollusionReport {
        let clients = plans[0].participants();
        let slots: Vec<usize> = (0..clients).collect();
        let route: Vec<usize> = (0..plans.len()).collect();
        let transcript = RoundTranscript::from_groups(clients, vec![group(&slots, &route, plans)]);
        analyze_routed_collusion(&transcript, colluding)
    }

    #[test]
    fn full_collusion_links_everything() {
        let report = chain(&plans(3, 6, 2, 1), &[0, 1, 2]);
        assert_eq!(report.linkable_fraction, 1.0);
        assert_eq!(report.mean_anonymity_set, 1.0);
        assert_eq!(report.linked_clients(), 6);
        assert_eq!(report.colluding_hops, vec![0, 1, 2]);
    }

    #[test]
    fn any_single_honest_hop_hides_the_whole_round() {
        let plans = plans(3, 6, 2, 2);
        for honest in 0..3 {
            let colluding: Vec<usize> = (0..3).filter(|&i| i != honest).collect();
            let report = chain(&plans, &colluding);
            assert_eq!(
                report.linkable_fraction, 0.0,
                "honest hop {honest} failed to hide"
            );
            assert_eq!(
                report.mean_anonymity_set, 6.0,
                "honest hop {honest} shrank the anonymity set"
            );
        }
    }

    #[test]
    fn no_collusion_reveals_nothing() {
        let report = chain(&plans(2, 4, 3, 3), &[]);
        assert_eq!(report.linkable_fraction, 0.0);
        assert_eq!(report.mean_anonymity_set, 4.0);
        assert!(report.links.iter().all(Option::is_none));
        assert!(report.colluding_hops.is_empty());
    }

    #[test]
    fn full_collusion_recovers_the_exact_composition() {
        // The adversary's singleton sets must equal the true composed
        // permutation, not just have size one.
        let plans = plans(4, 5, 2, 4);
        let report = chain(&plans, &[0, 1, 2, 3]);
        assert_eq!(report.linkable_fraction, 1.0);
        for layer in 0..2 {
            for out in 0..5 {
                let mut idx = out;
                for plan in plans.iter().rev() {
                    idx = plan.source(layer, idx).unwrap();
                }
                assert_eq!(
                    report.links[layer * 5 + out],
                    Some(idx),
                    "layer {layer} output {out} linked to the wrong client"
                );
            }
        }
        // And the whole analysis is a pure function of its inputs.
        assert_eq!(report, chain(&plans, &[0, 1, 2, 3]));
    }

    #[test]
    fn single_hop_chain_is_the_degenerate_case() {
        let plans = plans(1, 8, 3, 5);
        // The single hop colluding = total collusion.
        assert_eq!(chain(&plans, &[0]).linkable_fraction, 1.0);
        // The single hop honest = nothing linkable.
        assert_eq!(chain(&plans, &[]).linkable_fraction, 0.0);
    }

    #[test]
    fn covering_a_route_links_exactly_that_group() {
        // Group A (slots 0,2,4) takes hops [0,1]; group B (slots 1,3)
        // takes [0,2]. Colluding {0,1} covers A's whole route but leaves
        // hop 2 honest for B.
        let a_plans = plans(2, 3, 2, 11);
        let b_plans = plans(2, 2, 2, 12);
        let transcript = RoundTranscript::from_groups(
            5,
            vec![
                group(&[0, 2, 4], &[0, 1], &a_plans),
                group(&[1, 3], &[0, 2], &b_plans),
            ],
        );
        let report = analyze_routed_collusion(&transcript, &[0, 1]);
        assert_eq!(report.colluding_hops, vec![0, 1]);
        assert_eq!(report.per_client_anonymity, vec![1, 2, 1, 2, 1]);
        assert_eq!(report.linked_clients(), 3);
        assert_eq!(report.anonymity_distribution(), vec![(1, 3), (2, 2)]);
        // Group A's links agree with its composed permutation.
        for layer in 0..2 {
            for (out_local, &out) in [0usize, 2, 4].iter().enumerate() {
                let mut idx = out_local;
                for plan in a_plans.iter().rev() {
                    idx = plan.source(layer, idx).unwrap();
                }
                assert_eq!(report.links[layer * 5 + out], Some([0usize, 2, 4][idx]));
            }
            for &out in &[1usize, 3] {
                assert_eq!(report.links[layer * 5 + out], None);
            }
        }
    }

    #[test]
    fn an_honest_hop_on_the_route_keeps_the_group_hidden() {
        let a_plans = plans(2, 4, 3, 13);
        let transcript =
            RoundTranscript::from_groups(4, vec![group(&[0, 1, 2, 3], &[1, 3], &a_plans)]);
        let report = analyze_routed_collusion(&transcript, &[1]);
        assert_eq!(report.per_client_anonymity, vec![4; 4]);
        assert_eq!(report.linkable_fraction, 0.0);
        assert_eq!(report.mean_anonymity_set, 4.0);
    }

    #[test]
    fn real_client_anonymity_is_the_leading_slice() {
        // A dummy-padded group: slots 2..4 are trailing cover, so only
        // slots 0..2 count as real clients.
        let a_plans = plans(2, 4, 3, 13);
        let transcript =
            RoundTranscript::from_groups(4, vec![group(&[0, 1, 2, 3], &[1, 3], &a_plans)]);
        let all_real = analyze_routed_collusion(&transcript, &[1]);
        assert_eq!(all_real.real_client_anonymity(), &[4, 4, 4, 4]);
        let padded = analyze_routed_collusion(&transcript.with_real(2), &[1]);
        assert_eq!(padded.real, 2);
        assert_eq!(padded.real_client_anonymity(), &[4, 4]);
    }

    #[test]
    fn a_unique_route_is_linkable_with_no_collusion_at_all() {
        // A 1-client group needs the independent-permutation fallback
        // (`MixPlan::for_round`), exactly as a real 1-client partial
        // round would draw it.
        let mut rng = StdRng::seed_from_u64(14);
        let lone = vec![MixPlan::for_round(1, 2, &mut rng).unwrap()];
        let rest = plans(1, 3, 2, 15);
        let transcript = RoundTranscript::from_groups(
            4,
            vec![group(&[2], &[0], &lone), group(&[0, 1, 3], &[1], &rest)],
        );
        let report = analyze_routed_collusion(&transcript, &[]);
        assert!(report.colluding_hops.is_empty());
        assert_eq!(report.per_client_anonymity, vec![3, 3, 1, 3]);
        assert_eq!(report.links[2], Some(2), "the singleton links to itself");
        assert_eq!(report.linked_clients(), 1);
    }
}
