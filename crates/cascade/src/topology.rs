//! Cascade layouts: which hops a client's onion traverses, in what order.
//!
//! The mix-network literature distinguishes **cascades** (every message
//! takes the same fixed chain), **stratified** layouts (messages pick one
//! hop per stratum) and **free routes** (any path). All three fit behind
//! the [`CascadeTopology`] trait and all three ship here: [`LinearChain`],
//! [`StratifiedLayout`] and [`FreeRoute`]. The coordinator partitions each
//! round into **route groups** — clients sharing the exact same hop
//! sequence — and drives every group through its route as a partial round
//! ([`route_groups`] is the partitioning primitive).
//!
//! The layout choice is a privacy/latency trade: the linear cascade mixes
//! every client with every other (one group of size `C`) at the cost of
//! `n` sequential hops per update, while stratified and free-route layouts
//! shorten routes but shrink each client's mixing group to the clients
//! sharing its route — `docs/ARCHITECTURE.md` works through the resulting
//! anonymity-set arithmetic, and `mixnn_attacks::collusion` computes it
//! per client on real rounds.

use crate::CascadeError;
use mixnn_core::shard_seed;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;

/// A cascade layout: assigns every client slot a route through the hops.
///
/// Routes are hop indices in traversal order. An implementation may route
/// different clients differently (stratified/free-route mixing); the
/// coordinator then partitions each round into per-route mixing groups, so
/// a client's anonymity set is the set of clients sharing its exact route.
/// Routes must be pure functions of the slot — the coordinator, the
/// participants and the auditor all recompute them independently.
///
/// # Examples
///
/// ```
/// use mixnn_cascade::{CascadeTopology, FreeRoute, LinearChain, StratifiedLayout};
///
/// // The classic cascade: every slot takes the full chain.
/// let linear = LinearChain::new(3);
/// assert_eq!(linear.route(0), vec![0, 1, 2]);
/// assert_eq!(linear.route(7), vec![0, 1, 2]);
///
/// // Stratified: one hop per stratum, seeded per slot.
/// let stratified = StratifiedLayout::evenly(4, 2, 9);
/// let route = stratified.route(0);
/// assert_eq!(route.len(), 2);
/// assert!(route[0] < 2 && route[1] >= 2); // stratum 0 = {0,1}, stratum 1 = {2,3}
///
/// // Free route: each slot draws its own hop subset (here 1..=4 hops).
/// let free = FreeRoute::new(4, 1, 4, 9);
/// let route = free.route(0);
/// assert!((1..=4).contains(&route.len()));
/// assert_eq!(route, free.route(0), "routes are deterministic per slot");
/// ```
pub trait CascadeTopology: fmt::Debug {
    /// Short layout name for reports (e.g. `"linear"`).
    fn name(&self) -> &str;

    /// Total number of hops the layout is defined over.
    fn num_hops(&self) -> usize;

    /// The hop route (indices into the coordinator's hop list, in
    /// traversal order) for one client slot.
    fn route(&self, client_slot: usize) -> Vec<usize>;
}

/// The classic mix cascade: every client's onion traverses hop `0`, then
/// hop `1`, …, then hop `n-1`.
///
/// The whole round forms one route group, so every client mixes with every
/// other — the largest anonymity set a chain of `n` hops can build, at the
/// cost of every update paying all `n` hops of latency.
///
/// # Examples
///
/// ```
/// use mixnn_cascade::{route_groups, CascadeTopology, LinearChain};
///
/// let chain = LinearChain::new(3);
/// let groups = route_groups(&chain, 8).unwrap();
/// assert_eq!(groups.len(), 1, "a cascade is a single route group");
/// assert_eq!(groups[0].route, vec![0, 1, 2]);
/// assert_eq!(groups[0].slots.len(), 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearChain {
    hops: usize,
}

impl LinearChain {
    /// A chain of `hops` proxies.
    ///
    /// # Panics
    ///
    /// Panics if `hops` is zero — a cascade without hops is a configuration
    /// bug, not a runtime condition.
    pub fn new(hops: usize) -> Self {
        assert!(hops > 0, "a cascade needs at least one hop");
        LinearChain { hops }
    }
}

impl CascadeTopology for LinearChain {
    fn name(&self) -> &str {
        "linear"
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn route(&self, _client_slot: usize) -> Vec<usize> {
        (0..self.hops).collect()
    }
}

/// A stratified mix layout: the hops are partitioned into strata and every
/// client traverses **one seeded-random hop per stratum**, in stratum
/// order.
///
/// Routes are shorter than the full chain (latency `= strata`, not
/// `= hops`), and the per-stratum choice spreads load across the hops of
/// each stratum. The price is a smaller mixing group: a client only mixes
/// with the clients that drew the same hop in *every* stratum, so with
/// `s` strata of `w` hops each the expected group size is `C / wˢ`.
///
/// # Examples
///
/// ```
/// use mixnn_cascade::{CascadeTopology, StratifiedLayout};
///
/// // Explicit strata: {0, 1} then {2}.
/// let layout = StratifiedLayout::new(vec![vec![0, 1], vec![2]], 7);
/// assert_eq!(layout.num_hops(), 3);
/// for slot in 0..16 {
///     let route = layout.route(slot);
///     assert!(route[0] == 0 || route[0] == 1);
///     assert_eq!(route[1], 2, "stratum 1 has a single hop");
/// }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifiedLayout {
    strata: Vec<Vec<usize>>,
    hops: usize,
    seed: u64,
}

impl StratifiedLayout {
    /// A layout over explicit strata: `strata[s]` lists the hop indices of
    /// stratum `s`. The strata must form a partition of `0..n` for some
    /// `n` (every hop belongs to exactly one stratum).
    ///
    /// `seed` drives the per-slot hop choices; the same `(seed, slot)`
    /// always yields the same route.
    ///
    /// # Panics
    ///
    /// Panics if `strata` is empty, any stratum is empty, or the strata do
    /// not partition a contiguous hop range — all configuration bugs.
    pub fn new(strata: Vec<Vec<usize>>, seed: u64) -> Self {
        assert!(!strata.is_empty(), "a stratified layout needs strata");
        let hops: usize = strata.iter().map(Vec::len).sum();
        let mut seen = vec![false; hops];
        for stratum in &strata {
            assert!(!stratum.is_empty(), "every stratum needs at least one hop");
            for &h in stratum {
                assert!(
                    h < hops && !seen[h],
                    "strata must partition the hop range 0..{hops} (hop {h} misplaced)"
                );
                seen[h] = true;
            }
        }
        StratifiedLayout { strata, hops, seed }
    }

    /// Partitions `hops` hops into `num_strata` contiguous strata of
    /// near-equal width: the first `hops % num_strata` strata take
    /// `⌈n/s⌉` hops, the rest `⌊n/s⌋` — so no stratum is ever empty.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= num_strata <= hops`.
    ///
    /// # Examples
    ///
    /// ```
    /// use mixnn_cascade::StratifiedLayout;
    /// let layout = StratifiedLayout::evenly(5, 2, 3);
    /// assert_eq!(layout.strata(), &[vec![0, 1, 2], vec![3, 4]]);
    /// ```
    pub fn evenly(hops: usize, num_strata: usize, seed: u64) -> Self {
        assert!(
            (1..=hops).contains(&num_strata),
            "need 1..={hops} strata, got {num_strata}"
        );
        let base = hops / num_strata;
        let extra = hops % num_strata;
        let mut next = 0usize;
        let strata = (0..num_strata)
            .map(|s| {
                let width = base + usize::from(s < extra);
                let stratum = (next..next + width).collect();
                next += width;
                stratum
            })
            .collect();
        Self::new(strata, seed)
    }

    /// The strata, in traversal order.
    pub fn strata(&self) -> &[Vec<usize>] {
        &self.strata
    }
}

impl CascadeTopology for StratifiedLayout {
    fn name(&self) -> &str {
        "stratified"
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn route(&self, client_slot: usize) -> Vec<usize> {
        let mut rng = StdRng::seed_from_u64(shard_seed(self.seed ^ 0x57a7, client_slot));
        self.strata
            .iter()
            .map(|stratum| stratum[rng.gen_range(0..stratum.len())])
            .collect()
    }
}

/// A free-route mix layout: every client draws its own route — a seeded
/// uniform subset of the hops, of seeded length within
/// `min_hops..=max_hops`, in a seeded traversal order.
///
/// This is the most flexible layout and the weakest-per-client one: a
/// client's mixing group is only the clients that drew the **exact same
/// route**, and a client with a unique route mixes with nobody — its
/// route alone identifies it, no hop compromise needed. The topology
/// experiment (`eval topology`) records exactly this distribution, and
/// [`FreeRoute::with_min_group_size`] restores a group-size floor by
/// bucketing clients into a bounded route codebook.
///
/// # Examples
///
/// ```
/// use mixnn_cascade::{CascadeTopology, FreeRoute};
///
/// let free = FreeRoute::new(5, 2, 3, 11);
/// for slot in 0..32 {
///     let route = free.route(slot);
///     assert!((2..=3).contains(&route.len()));
///     let mut dedup = route.clone();
///     dedup.sort_unstable();
///     dedup.dedup();
///     assert_eq!(dedup.len(), route.len(), "no hop is visited twice");
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FreeRoute {
    hops: usize,
    min_hops: usize,
    max_hops: usize,
    seed: u64,
    /// `Some(b)`: clients are bucketed into a codebook of at most `b`
    /// distinct routes (`slot % b` picks the bucket), restoring a
    /// minimum-group-size floor.
    codebook: Option<usize>,
}

impl FreeRoute {
    /// A free-route layout over `hops` hops with per-client route lengths
    /// drawn uniformly from `min_hops..=max_hops`.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= min_hops <= max_hops <= hops` — a configuration
    /// bug, not a runtime condition.
    pub fn new(hops: usize, min_hops: usize, max_hops: usize, seed: u64) -> Self {
        assert!(
            min_hops >= 1 && min_hops <= max_hops && max_hops <= hops,
            "route lengths must satisfy 1 <= {min_hops} <= {max_hops} <= {hops}"
        );
        FreeRoute {
            hops,
            min_hops,
            max_hops,
            seed,
            codebook: None,
        }
    }

    /// Restores a **privacy floor** to the free-route layout: clients are
    /// assigned round-robin (`slot % b`) over a bounded codebook of
    /// `b = ⌊clients / k⌋` seeded routes, so a round of `clients` slots
    /// puts at least `⌊clients / b⌋ ≥ k` clients on every route — no
    /// client is ever alone on a route it can be fingerprinted by. Rounds
    /// of a different size `C` still get a floor of `⌊C / b⌋`. Codebook
    /// entries that coincidentally draw the same route only merge their
    /// buckets, which raises group sizes further.
    ///
    /// Routes stay pure functions of the slot (the coordinator, the
    /// participants and the auditor all recompute them), which is why the
    /// intended round size must be named here: a per-slot function cannot
    /// know the round size at routing time.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= k <= clients` — a configuration bug, not a
    /// runtime condition.
    ///
    /// # Examples
    ///
    /// ```
    /// use mixnn_cascade::{route_groups, FreeRoute};
    ///
    /// let floored = FreeRoute::new(4, 1, 4, 55).with_min_group_size(4, 16);
    /// let groups = route_groups(&floored, 16).unwrap();
    /// assert!(groups.iter().all(|g| g.slots.len() >= 4));
    /// ```
    pub fn with_min_group_size(self, k: usize, clients: usize) -> Self {
        assert!(
            k >= 1 && k <= clients,
            "group floor must satisfy 1 <= {k} <= {clients}"
        );
        FreeRoute {
            codebook: Some((clients / k).max(1)),
            ..self
        }
    }

    /// The codebook bound (`None` for the unconstrained layout).
    pub fn codebook_routes(&self) -> Option<usize> {
        self.codebook
    }
}

impl CascadeTopology for FreeRoute {
    fn name(&self) -> &str {
        "free-route"
    }

    fn num_hops(&self) -> usize {
        self.hops
    }

    fn route(&self, client_slot: usize) -> Vec<usize> {
        // Under a codebook, every slot of a bucket draws the bucket's
        // route — i.e. the route slot `slot % b` would have drawn in the
        // unconstrained layout.
        let key = match self.codebook {
            Some(b) => client_slot % b,
            None => client_slot,
        };
        let mut rng = StdRng::seed_from_u64(shard_seed(self.seed ^ 0xf8ee, key));
        let len = rng.gen_range(self.min_hops..=self.max_hops);
        let mut pool: Vec<usize> = (0..self.hops).collect();
        pool.shuffle(&mut rng);
        pool.truncate(len);
        pool
    }
}

/// One route group of a round: the clients that share one exact route.
///
/// Groups are what the coordinator actually drives: each group's onions
/// are sealed to the group's hop-key sequence and every hop on the route
/// mixes the group as a partial round. A client's anonymity set can never
/// exceed its group, because onion envelopes are bound to specific hop
/// keys — blobs cannot cross into a group whose remaining route differs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteGroup {
    /// The hop indices the group traverses, in order.
    pub route: Vec<usize>,
    /// The client slots in the group, ascending.
    pub slots: Vec<usize>,
}

/// Checks that a route is drivable: non-empty, every hop index in range,
/// and no hop visited twice (an onion sealing the same key twice would
/// mix a client with itself and double-charge that hop for no anonymity).
///
/// # Errors
///
/// Returns [`CascadeError::Topology`] describing the violation.
pub fn validate_route(route: &[usize], num_hops: usize) -> Result<(), CascadeError> {
    if route.is_empty() {
        return Err(CascadeError::Topology {
            reason: "a route must traverse at least one hop".to_string(),
        });
    }
    let mut seen = vec![false; num_hops];
    for &h in route {
        if h >= num_hops {
            return Err(CascadeError::Topology {
                reason: format!("route names hop {h} but only {num_hops} hops exist"),
            });
        }
        if seen[h] {
            return Err(CascadeError::Topology {
                reason: format!("route visits hop {h} twice"),
            });
        }
        seen[h] = true;
    }
    Ok(())
}

/// Partitions `clients` slots into [`RouteGroup`]s under `topology`,
/// validating every route. Groups come back ordered lexicographically by
/// route, with each group's slots ascending — a deterministic order all
/// parties can recompute.
///
/// # Errors
///
/// Returns [`CascadeError::Topology`] when any slot's route fails
/// [`validate_route`].
///
/// # Examples
///
/// ```
/// use mixnn_cascade::{route_groups, FreeRoute};
///
/// let groups = route_groups(&FreeRoute::new(3, 1, 3, 5), 12).unwrap();
/// let covered: usize = groups.iter().map(|g| g.slots.len()).sum();
/// assert_eq!(covered, 12, "groups partition the round");
/// ```
pub fn route_groups(
    topology: &dyn CascadeTopology,
    clients: usize,
) -> Result<Vec<RouteGroup>, CascadeError> {
    partition_routes(clients, |slot| {
        let route = topology.route(slot);
        validate_route(&route, topology.num_hops())?;
        Ok(route)
    })
}

/// The partitioning core behind [`route_groups`] (and the coordinator's
/// skip-aware variant): groups slots by the route `route_of` yields,
/// lexicographically by route with ascending slots.
pub(crate) fn partition_routes(
    clients: usize,
    mut route_of: impl FnMut(usize) -> Result<Vec<usize>, CascadeError>,
) -> Result<Vec<RouteGroup>, CascadeError> {
    let mut map: BTreeMap<Vec<usize>, Vec<usize>> = BTreeMap::new();
    for slot in 0..clients {
        map.entry(route_of(slot)?).or_default().push(slot);
    }
    Ok(map
        .into_iter()
        .map(|(route, slots)| RouteGroup { route, slots })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_chain_routes_everyone_identically() {
        let chain = LinearChain::new(3);
        assert_eq!(chain.route(0), vec![0, 1, 2]);
        assert_eq!(chain.route(7), vec![0, 1, 2]);
        assert_eq!(chain.num_hops(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one hop")]
    fn zero_hop_chain_panics() {
        let _ = LinearChain::new(0);
    }

    #[test]
    fn stratified_routes_pick_one_hop_per_stratum() {
        let layout = StratifiedLayout::new(vec![vec![0, 1], vec![2, 3], vec![4]], 17);
        assert_eq!(layout.num_hops(), 5);
        assert_eq!(layout.name(), "stratified");
        for slot in 0..32 {
            let route = layout.route(slot);
            assert_eq!(route.len(), 3);
            assert!([0, 1].contains(&route[0]), "stratum 0 violated: {route:?}");
            assert!([2, 3].contains(&route[1]), "stratum 1 violated: {route:?}");
            assert_eq!(route[2], 4);
            assert_eq!(route, layout.route(slot), "route must be deterministic");
        }
    }

    #[test]
    fn evenly_splits_into_contiguous_strata() {
        assert_eq!(
            StratifiedLayout::evenly(4, 2, 0).strata(),
            &[vec![0, 1], vec![2, 3]]
        );
        assert_eq!(
            StratifiedLayout::evenly(5, 2, 0).strata(),
            &[vec![0, 1, 2], vec![3, 4]]
        );
        assert_eq!(
            StratifiedLayout::evenly(3, 3, 0).strata(),
            &[vec![0], vec![1], vec![2]]
        );
        // The case ceil-width chunking gets wrong: 4 hops over 3 strata
        // must not produce an empty tail stratum.
        assert_eq!(
            StratifiedLayout::evenly(4, 3, 0).strata(),
            &[vec![0, 1], vec![2], vec![3]]
        );
    }

    #[test]
    fn evenly_is_total_over_its_whole_contract() {
        for hops in 1..=8 {
            for strata in 1..=hops {
                let layout = StratifiedLayout::evenly(hops, strata, 1);
                assert_eq!(
                    layout.strata().len(),
                    strata,
                    "{hops} hops, {strata} strata"
                );
                assert!(layout.strata().iter().all(|s| !s.is_empty()));
                assert_eq!(layout.num_hops(), hops);
            }
        }
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn overlapping_strata_panic() {
        let _ = StratifiedLayout::new(vec![vec![0, 1], vec![1, 2]], 0);
    }

    #[test]
    fn free_routes_are_deterministic_in_bounds_and_duplicate_free() {
        let free = FreeRoute::new(5, 2, 4, 23);
        assert_eq!(free.num_hops(), 5);
        assert_eq!(free.name(), "free-route");
        let mut lengths_seen = std::collections::BTreeSet::new();
        for slot in 0..64 {
            let route = free.route(slot);
            assert!((2..=4).contains(&route.len()));
            lengths_seen.insert(route.len());
            let mut dedup = route.clone();
            dedup.sort_unstable();
            dedup.dedup();
            assert_eq!(dedup.len(), route.len(), "duplicate hop in {route:?}");
            assert!(dedup.iter().all(|&h| h < 5));
            assert_eq!(route, free.route(slot));
        }
        assert!(
            lengths_seen.len() > 1,
            "64 slots should exercise more than one route length"
        );
    }

    #[test]
    #[should_panic(expected = "route lengths")]
    fn free_route_rejects_bad_bounds() {
        let _ = FreeRoute::new(3, 2, 5, 0);
    }

    #[test]
    fn min_group_size_floor_holds_at_the_named_round_size() {
        for (clients, k) in [(16, 4), (16, 3), (17, 4), (10, 7), (12, 1)] {
            let floored = FreeRoute::new(4, 1, 4, 55).with_min_group_size(k, clients);
            let groups = route_groups(&floored, clients).unwrap();
            let covered: usize = groups.iter().map(|g| g.slots.len()).sum();
            assert_eq!(covered, clients);
            for g in &groups {
                assert!(
                    g.slots.len() >= k,
                    "clients={clients} k={k}: group {:?} is below the floor",
                    g.slots
                );
            }
        }
    }

    #[test]
    fn codebook_routes_are_valid_deterministic_and_bounded() {
        let floored = FreeRoute::new(5, 2, 4, 23).with_min_group_size(4, 32);
        assert_eq!(floored.codebook_routes(), Some(8));
        let mut distinct = std::collections::BTreeSet::new();
        for slot in 0..64 {
            let route = floored.route(slot);
            validate_route(&route, 5).unwrap();
            assert_eq!(route, floored.route(slot));
            // Round-robin bucketing: slot and slot + b share a route.
            assert_eq!(route, floored.route(slot + 8));
            distinct.insert(route);
        }
        assert!(distinct.len() <= 8, "codebook must bound distinct routes");
        // The unconstrained layout keeps its original behaviour.
        assert_eq!(FreeRoute::new(5, 2, 4, 23).codebook_routes(), None);
    }

    #[test]
    #[should_panic(expected = "group floor")]
    fn min_group_size_rejects_bad_floor() {
        let _ = FreeRoute::new(4, 1, 4, 0).with_min_group_size(9, 8);
    }

    #[test]
    fn route_groups_partition_and_order_deterministically() {
        let free = FreeRoute::new(4, 1, 3, 41);
        let groups = route_groups(&free, 24).unwrap();
        let mut covered: Vec<usize> = groups.iter().flat_map(|g| g.slots.clone()).collect();
        covered.sort_unstable();
        assert_eq!(covered, (0..24).collect::<Vec<_>>());
        for g in &groups {
            assert!(g.slots.windows(2).all(|w| w[0] < w[1]));
            for &s in &g.slots {
                assert_eq!(free.route(s), g.route);
            }
        }
        assert!(
            groups.windows(2).all(|w| w[0].route < w[1].route),
            "groups must be ordered by route"
        );
        assert_eq!(groups, route_groups(&free, 24).unwrap());
    }

    #[test]
    fn invalid_routes_are_rejected() {
        #[derive(Debug)]
        struct Broken(Vec<usize>);
        impl CascadeTopology for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn num_hops(&self) -> usize {
                2
            }
            fn route(&self, _slot: usize) -> Vec<usize> {
                self.0.clone()
            }
        }
        for bad in [vec![], vec![2], vec![0, 0]] {
            let err = route_groups(&Broken(bad.clone()), 1).unwrap_err();
            assert!(
                matches!(err, CascadeError::Topology { .. }),
                "route {bad:?} should be a topology error, got {err:?}"
            );
        }
        assert!(validate_route(&[0, 1], 2).is_ok());
    }
}
