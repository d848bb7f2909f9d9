//! Driving rounds through the chain — or, for stratified and free-route
//! layouts, through every route group's chain.
//!
//! There is one drive. A round is partitioned into route groups, every
//! group's onions are sealed in canonical order (group by group, slot by
//! slot), and each group's batch then walks its route hop by hop — link
//! delivery, [`CascadeHop::mix_delivered`], next link — before the next group
//! starts. Every failure that can be blamed on a hop (the wire into it,
//! its own ingest, the wire from the last hop into the server) goes
//! through one handler that applies the [`FailurePolicy`]: abort the
//! round, or mark the hop down and restart the attempt on the surviving
//! routes. Pooled mixing ([`crate::PooledCoordinator`]) drives the same
//! loop with a k-floor.

use crate::onion::OnionView;
use crate::topology::{partition_routes, validate_route, RouteGroup};
use crate::{
    CascadeClient, CascadeError, CascadeHop, CascadeHopConfig, CascadeTopology, HopDescriptor,
    LinearChain,
};
use mixnn_core::codec::CompressionConfig;
use mixnn_core::{
    shard_seed, Endpoint, InProcessLink, MixPlan, ProxyStats, RoundLink, SpentBuffers,
};
use mixnn_crypto::SealingKey;
use mixnn_enclave::AttestationService;
use mixnn_nn::{LayerParams, ModelParams};
use mixnn_telemetry::{Component, Counter, Distribution, Span, Telemetry, TraceKind};
use rand::Rng;

/// What the coordinator does when a hop fails mid-round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FailurePolicy {
    /// Fail the round (fail-closed: no update reaches the server through a
    /// degraded chain). The default.
    #[default]
    Abort,
    /// Mark the hop as down, rebuild the onions for the surviving routes
    /// and retry the round. The hop stays skipped for subsequent rounds
    /// until [`CascadeCoordinator::reinstate`].
    Skip,
}

/// Configuration of a whole cascade.
#[derive(Debug, Clone)]
pub struct CascadeConfig {
    /// Layer signature of the model being proxied. The cascade — unlike
    /// the single proxy — cannot infer it from traffic: intermediate hops
    /// only ever see ciphertext blobs.
    pub expected_signature: Vec<usize>,
    /// One configuration per hop, in hop-index order.
    pub hops: Vec<CascadeHopConfig>,
    /// Skip-or-abort semantics for hop failures.
    pub policy: FailurePolicy,
}

/// Everything one cascade round produced.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeRound {
    /// The mixed updates as the server receives them, in slot order.
    pub mixed: Vec<ModelParams>,
    /// The per-route-group mixing plans, for audits and experiments (never
    /// exposed in a deployment).
    pub audit: CascadeAudit,
    /// Hop indices at least one client actually traversed this round,
    /// ascending. For a uniform layout this is the whole active chain.
    pub chain: Vec<usize>,
    /// Hops newly skipped while running this round (non-empty only under
    /// [`FailurePolicy::Skip`]).
    pub skipped_this_round: Vec<usize>,
}

/// A round driven under a k-floor
/// ([`CascadeCoordinator::run_padded_round_over`]): the cascade round over
/// the padded slots, the number of real updates, and the content digests
/// of the injected cover.
#[derive(Debug, Clone, PartialEq)]
pub struct PaddedRound {
    /// The committed round over **all** driven slots — real updates in
    /// slots `0..real`, cover in the trailing slots. `round.mixed` is what
    /// the wire delivered to the server, cover still in.
    pub round: CascadeRound,
    /// Number of real client updates the round carried.
    pub real: usize,
    /// [`mixnn_core::codec::layer_digest`] of every layer of each injected
    /// cover update, in injection order (`dummy_digests[d][l]` is cover
    /// `d`'s layer `l`) — the only knowledge the server needs (or gets) to
    /// strip cover.
    pub dummy_digests: Vec<Vec<[u8; 32]>>,
}

impl PaddedRound {
    /// Number of cover updates injected into the round that committed.
    pub fn dummies(&self) -> usize {
        self.dummy_digests.len()
    }

    /// The server-boundary view: the mixed outputs with cover stripped
    /// **by per-layer content digest** — the server never learns which
    /// slot carried cover, only which layer bytes were announced as cover.
    ///
    /// Mixing permutes every layer *independently* across a group's
    /// slots, so a cover update's layers scatter over different output
    /// slots (and a trailing cover slot routinely carries real bytes);
    /// stripping whole slots or whole-model digests would corrupt the
    /// aggregate. Stripping each layer column by digest instead leaves
    /// every column holding exactly the real updates' layer multiset, and
    /// [`ModelParams::mean`] is exactly permutation-invariant per layer —
    /// so the stripped aggregate is bit-identical to a dummy-free
    /// round's. The returned models are column-wise recombinations, just
    /// as every mixed output already is.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] if any layer column does not strip
    /// to exactly the real update count (a digest collision or a
    /// round/digest mismatch — either way the aggregate cannot be
    /// trusted).
    pub fn server_outputs(&self) -> Result<Vec<ModelParams>, CascadeError> {
        if self.dummy_digests.is_empty() {
            return Ok(self.round.mixed.clone());
        }
        let layer_count = self.round.mixed.first().map_or(0, ModelParams::num_layers);
        let mut unclaimed: Vec<Vec<[u8; 32]>> = (0..layer_count)
            .map(|l| self.dummy_digests.iter().map(|d| d[l]).collect())
            .collect();
        let mut columns: Vec<Vec<LayerParams>> = (0..layer_count)
            .map(|_| Vec::with_capacity(self.real))
            .collect();
        for params in &self.round.mixed {
            for (l, layer) in params.iter().enumerate() {
                let digest = mixnn_core::codec::layer_digest(layer);
                if let Some(pos) = unclaimed[l].iter().position(|d| *d == digest) {
                    unclaimed[l].swap_remove(pos);
                } else {
                    columns[l].push(layer.clone());
                }
            }
        }
        if columns.iter().any(|c| c.len() != self.real) || unclaimed.iter().any(|u| !u.is_empty()) {
            return Err(CascadeError::Pool {
                reason: format!(
                    "cover stripping kept {:?} layer blobs for {} expected real updates",
                    columns.iter().map(Vec::len).collect::<Vec<_>>(),
                    self.real,
                ),
            });
        }
        // Every column holds exactly `real` layers: output `i` takes the
        // `i`-th of each, moved out.
        let mut columns: Vec<_> = columns.into_iter().map(Vec::into_iter).collect();
        Ok((0..self.real)
            .map(|_| {
                let layers = columns.iter_mut().map(|column| column.next());
                ModelParams::from_layers(layers.map(|l| l.expect("length checked")).collect())
            })
            .collect())
    }
}

/// The audit record of one route group: which clients took the route,
/// which hops they traversed, and the plan each hop drew for the group.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouteGroupAudit {
    slots: Vec<usize>,
    route: Vec<usize>,
    plans: Vec<MixPlan>,
}

impl RouteGroupAudit {
    /// Builds one group's audit record.
    ///
    /// # Panics
    ///
    /// Panics if the group or its route is empty, `plans` does not line up
    /// with `route` one-to-one, or any plan's dimensions disagree with the
    /// group size — such a record cannot have come from one driven group,
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
            if i > 0 {
                assert_eq!(
                    plan.layers(),
                    plans[0].layers(),
                    "plan {i} disagrees with plan 0 on layers"
                );
            }
        }
        RouteGroupAudit {
            slots,
            route,
            plans,
        }
    }

    /// The group's client slots, in group-local order (ascending).
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

    /// Number of clients in the group — the ceiling of any member's
    /// anonymity set.
    pub fn members(&self) -> usize {
        self.slots.len()
    }
}

/// The composition of every route group's per-hop [`MixPlan`]s.
///
/// Each hop's plan is a per-layer permutation over its group, so the whole
/// round's assignment is a disjoint union of per-group permutations —
/// which is exactly why the server-side aggregate is untouched and why an
/// adversary must cover a client's **entire route** to invert its mix. See
/// `mixnn_attacks::collusion` for the adversary's view; this type is the
/// honest auditor's.
///
/// An audit covers the **slots the round actually drove**, not a fixed
/// client population: since pooled mixing, rounds are routinely *partial*
/// (only the updates a [`crate::MixPool`] fired) and may carry trailing
/// cover slots a hop padded in ([`CascadeCoordinator::run_padded_round_over`]).
/// [`CascadeAudit::clients`] counts those driven slots — real and dummy
/// alike, because on the wire and through every plan a cover slot is
/// indistinguishable from a real one until the server strips it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CascadeAudit {
    clients: usize,
    groups: Vec<RouteGroupAudit>,
}

impl CascadeAudit {
    /// Builds an audit from per-route-group records.
    ///
    /// # Panics
    ///
    /// Panics if the groups' slots do not partition `0..clients` or the
    /// groups disagree on the layer count — a round cannot have produced
    /// such a record.
    pub fn from_groups(clients: usize, groups: Vec<RouteGroupAudit>) -> Self {
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
        if let Some(layers) = groups
            .first()
            .and_then(|g| g.plans.first())
            .map(MixPlan::layers)
        {
            for group in &groups {
                assert!(
                    group.plans.iter().all(|p| p.layers() == layers),
                    "groups disagree on the layer count"
                );
            }
        }
        CascadeAudit { clients, groups }
    }

    /// The per-route-group audit records, ordered by route.
    pub fn groups(&self) -> &[RouteGroupAudit] {
        &self.groups
    }

    /// Clients covered by the audit.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The original client slot whose layer `layer` ended up in final
    /// output `output`, traced back through every hop of the output's
    /// route group.
    pub fn composed_source(&self, layer: usize, output: usize) -> Option<usize> {
        if self.groups.is_empty() {
            return Some(output); // the identity audit
        }
        let group = self.groups.iter().find(|g| g.slots.contains(&output))?;
        let mut idx = group.slots.iter().position(|&s| s == output)?;
        for plan in group.plans.iter().rev() {
            idx = plan.source(layer, idx)?;
        }
        group.slots.get(idx).copied()
    }

    /// Inverts the whole cascade: reassembles each client's original
    /// update from the mixed outputs, group by group. Restores both the
    /// client order and the exact layer bits — the correctness check
    /// behind the utility equivalence claim.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Audit`] when `mixed` does not match the
    /// recorded dimensions.
    pub fn unmix(&self, mixed: &[ModelParams]) -> Result<Vec<ModelParams>, CascadeError> {
        if self.groups.is_empty() {
            return Ok(mixed.to_vec()); // no hops: the identity cascade
        }
        let layers = self.groups[0].plans.first().map_or(0, MixPlan::layers);
        if mixed.len() != self.clients || mixed.iter().any(|m| m.num_layers() != layers) {
            return Err(CascadeError::Audit {
                reason: format!(
                    "audit covers {} updates of {layers} layers, got {} updates",
                    self.clients,
                    mixed.len()
                ),
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

/// Owns the hops and drives rounds end-to-end: partitions the round into
/// route groups, seals each group's onions, feeds them hop to hop, decodes
/// the last hops' plaintext outputs, and applies the configured failure
/// semantics.
///
/// # Example
///
/// ```
/// use mixnn_cascade::{CascadeCoordinator, FailurePolicy};
/// use mixnn_enclave::AttestationService;
/// use mixnn_nn::{LayerParams, ModelParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_cascade::CascadeError> {
/// let mut rng = StdRng::seed_from_u64(0);
/// let service = AttestationService::new(&mut rng);
/// let mut cascade =
///     CascadeCoordinator::linear(vec![2, 3], 3, 7, FailurePolicy::Abort, &service, &mut rng)?;
/// let updates: Vec<ModelParams> = (0..5)
///     .map(|i| ModelParams::from_layers(vec![
///         LayerParams::from_values(vec![i as f32; 2]),
///         LayerParams::from_values(vec![-(i as f32); 3]),
///     ]))
///     .collect();
/// let round = cascade.run_round(&updates, &mut rng)?;
/// // Utility equivalence: the aggregate is bit-identical…
/// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&round.mixed));
/// // …and the audit can invert the whole chain.
/// assert_eq!(round.audit.unmix(&round.mixed)?, updates);
/// # Ok(())
/// # }
/// ```
///
/// The same pipeline drives non-uniform layouts — each route group mixes
/// separately:
///
/// ```
/// use mixnn_cascade::{CascadeCoordinator, FailurePolicy, StratifiedLayout};
/// use mixnn_enclave::AttestationService;
/// use mixnn_nn::{LayerParams, ModelParams};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// # fn main() -> Result<(), mixnn_cascade::CascadeError> {
/// let mut rng = StdRng::seed_from_u64(1);
/// let service = AttestationService::new(&mut rng);
/// let layout = StratifiedLayout::evenly(4, 2, 99);
/// let mut cascade = CascadeCoordinator::with_topology(
///     vec![2],
///     Box::new(layout),
///     7,
///     FailurePolicy::Abort,
///     &service,
///     &mut rng,
/// )?;
/// let updates: Vec<ModelParams> = (0..8)
///     .map(|i| ModelParams::from_layers(vec![LayerParams::from_values(vec![i as f32; 2])]))
///     .collect();
/// let round = cascade.run_round(&updates, &mut rng)?;
/// assert_eq!(ModelParams::mean(&updates), ModelParams::mean(&round.mixed));
/// assert_eq!(round.audit.unmix(&round.mixed)?, updates);
/// assert!(round.audit.groups().len() >= 1, "stratified rounds split into route groups");
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct CascadeCoordinator {
    topology: Box<dyn CascadeTopology>,
    hops: Vec<CascadeHop>,
    /// Each hop's key as the participants seal to it, its comb table
    /// built at launch (the simulation's stand-in for every participant
    /// attesting the hop once), in hop-index order.
    sealing_keys: Vec<SealingKey>,
    skipped: Vec<bool>,
    signature: Vec<usize>,
    policy: FailurePolicy,
    compression: CompressionConfig,
    telemetry: Telemetry,
    rounds_driven: u64,
    dummy_nonce: u64,
    /// Last committed round's server-bound messages, kept once the server
    /// has decoded them: the next round's first hops write into them.
    server_bound: SpentBuffers,
}

/// A committed round paired with the per-layer content digests of every
/// cover update injected while driving it (one digest vector per dummy),
/// in the order the dummies were appended.
type DrivenRound = (CascadeRound, Vec<Vec<[u8; 32]>>);

impl CascadeCoordinator {
    /// Launches every hop of `config` and binds them to `topology`.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Topology`] if the topology's hop count does
    /// not match the configured hops, [`CascadeError::NoActiveHops`] for an
    /// empty chain, and [`CascadeError::SignatureMismatch`] for an empty
    /// signature (intermediate hops cannot infer one from ciphertext).
    pub fn launch<R: Rng + ?Sized>(
        config: CascadeConfig,
        topology: Box<dyn CascadeTopology>,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        if config.hops.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        if config.expected_signature.is_empty() {
            return Err(CascadeError::SignatureMismatch {
                expected: vec![1],
                actual: vec![],
            });
        }
        if topology.num_hops() != config.hops.len() {
            return Err(CascadeError::Topology {
                reason: format!(
                    "layout '{}' spans {} hops but {} were configured",
                    topology.name(),
                    topology.num_hops(),
                    config.hops.len()
                ),
            });
        }
        let signature = config.expected_signature;
        let hops: Vec<CascadeHop> = config
            .hops
            .into_iter()
            .enumerate()
            .map(|(i, hop_config)| CascadeHop::launch(i, hop_config, &signature, attestation, rng))
            .collect();
        Ok(CascadeCoordinator {
            skipped: vec![false; hops.len()],
            topology,
            sealing_keys: hops
                .iter()
                .map(|h| SealingKey::new(*h.public_key()))
                .collect(),
            hops,
            signature,
            policy: config.policy,
            compression: CompressionConfig::F32,
            telemetry: mixnn_telemetry::noop(),
            rounds_driven: 0,
            dummy_nonce: 0,
            server_bound: SpentBuffers::default(),
        })
    }

    /// Attaches a telemetry registry to the coordinator and every hop.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        for hop in &mut self.hops {
            hop.attach_telemetry(telemetry.clone());
        }
        self.telemetry = telemetry;
    }

    /// The classic linear cascade: [`CascadeCoordinator::with_topology`]
    /// over a [`LinearChain`] of `hop_count` hops. Per-hop seeds depend
    /// only on `(base_seed, hop index)`, so hop `i` draws the *same*
    /// stream regardless of chain length — deliberate, for reproducible
    /// cross-length sweeps from one base seed.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::launch`]; a zero
    /// `hop_count` is [`CascadeError::NoActiveHops`].
    pub fn linear<R: Rng + ?Sized>(
        expected_signature: Vec<usize>,
        hop_count: usize,
        base_seed: u64,
        policy: FailurePolicy,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        if hop_count == 0 {
            return Err(CascadeError::NoActiveHops);
        }
        let chain = Box::new(LinearChain::new(hop_count));
        Self::with_topology(
            expected_signature,
            chain,
            base_seed,
            policy,
            attestation,
            rng,
        )
    }

    /// Convenience constructor for an arbitrary layout: launches
    /// `topology.num_hops()` hops with per-hop seeds derived from
    /// `base_seed` via [`shard_seed`], so every hop draws from its own
    /// stream.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::launch`].
    pub fn with_topology<R: Rng + ?Sized>(
        expected_signature: Vec<usize>,
        topology: Box<dyn CascadeTopology>,
        base_seed: u64,
        policy: FailurePolicy,
        attestation: &AttestationService,
        rng: &mut R,
    ) -> Result<Self, CascadeError> {
        let hops = (0..topology.num_hops())
            .map(|i| CascadeHopConfig {
                seed: shard_seed(base_seed, i),
                ..CascadeHopConfig::default()
            })
            .collect();
        Self::launch(
            CascadeConfig {
                expected_signature,
                hops,
                policy,
            },
            topology,
            attestation,
            rng,
        )
    }

    /// The wire compression every round of this cascade seals with —
    /// every sealed update and every injected cover update. `F32` from
    /// launch until [`CascadeCoordinator::set_compression`]. Round-wide by
    /// construction: mixed modes within a round would make envelope sizes
    /// a client fingerprint, so the knob lives here and not on individual
    /// clients.
    pub fn compression(&self) -> CompressionConfig {
        self.compression
    }

    /// Switches the round-wide wire compression. Takes effect from the
    /// next round; changing it mid-deployment is a *coordinated* rollout
    /// decision — clients on the old mode would produce differently-sized
    /// envelopes and stand out from their route groups.
    pub fn set_compression(&mut self, compression: CompressionConfig) {
        self.compression = compression;
    }

    /// The hops, in hop-index order (skipped ones included).
    pub fn hops(&self) -> &[CascadeHop] {
        &self.hops
    }

    /// The layout routing this cascade's clients.
    pub fn topology(&self) -> &dyn CascadeTopology {
        self.topology.as_ref()
    }

    /// The configured failure policy.
    pub fn policy(&self) -> FailurePolicy {
        self.policy
    }

    /// The model signature the cascade routes.
    pub fn signature(&self) -> &[usize] {
        &self.signature
    }

    /// Indices of hops currently marked down.
    pub fn skipped_hops(&self) -> Vec<usize> {
        (0..self.hops.len()).filter(|&i| self.skipped[i]).collect()
    }

    /// Brings a skipped hop back into the chain (operator action after
    /// recovery).
    pub fn reinstate(&mut self, hop: usize) {
        if let Some(flag) = self.skipped.get_mut(hop) {
            *flag = false;
        }
    }

    /// Per-hop cost statistics, in hop-index order.
    ///
    /// Stats count the work each hop actually performed. A hop off every
    /// route mixes nothing and its counters stay zero; a hop shared by
    /// several route groups is charged once per group (each group is its
    /// own partial round). Under [`FailurePolicy::Skip`] the counters also
    /// include aborted attempts: hops that processed their groups before
    /// another hop failed ran the round once before the retry, so after a
    /// skip their counters reflect both the wasted attempt and the
    /// successful one (just like a real server's request counters across
    /// client retries).
    pub fn hop_stats(&self) -> Vec<ProxyStats> {
        self.hops.iter().map(CascadeHop::stats).collect()
    }

    /// Attestation descriptors of every hop, in hop-index order — what an
    /// operator publishes for participants.
    pub fn descriptors(&self) -> Vec<HopDescriptor> {
        self.hops.iter().map(CascadeHop::descriptor).collect()
    }

    /// Builds a **verified** participant-side client for one slot's route
    /// under the current topology and skip state: every hop's quote is
    /// checked against `attestation` before its key is used.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Topology`] for an undrivable route,
    /// [`CascadeError::NoActiveHops`] when skipping emptied the route, and
    /// [`CascadeError::Attestation`] when a hop on the route fails
    /// verification.
    pub fn client_for_slot(
        &self,
        slot: usize,
        attestation: &AttestationService,
    ) -> Result<CascadeClient, CascadeError> {
        let route = self.active_route(slot)?;
        let descriptors: Vec<HopDescriptor> =
            route.iter().map(|&h| self.hops[h].descriptor()).collect();
        Ok(
            CascadeClient::from_attested_hops(&descriptors, attestation)?
                .with_compression(self.compression),
        )
    }

    /// One slot's route with skipped hops removed.
    fn active_route(&self, slot: usize) -> Result<Vec<usize>, CascadeError> {
        let route = self.topology.route(slot);
        validate_route(&route, self.hops.len())?;
        let active: Vec<usize> = route.into_iter().filter(|&h| !self.skipped[h]).collect();
        if active.is_empty() {
            return Err(CascadeError::NoActiveHops);
        }
        Ok(active)
    }

    /// Partitions the round's slots into route groups over the **active**
    /// routes (skipped hops removed). Two groups whose routes collapse to
    /// the same surviving sequence merge — their clients mix together.
    fn active_groups(&self, clients: usize) -> Result<Vec<RouteGroup>, CascadeError> {
        partition_routes(clients, |slot| self.active_route(slot))
    }

    /// Seals every group's onions in the canonical order (group by group,
    /// slot by slot). Slot `s` is `updates[s]`, or — for the trailing
    /// slots a k-floor padded in — `cover[s - updates.len()]`.
    fn seal_groups<R: Rng + ?Sized>(
        &self,
        groups: &[RouteGroup],
        updates: &[ModelParams],
        cover: &[ModelParams],
        rng: &mut R,
    ) -> Vec<Vec<Vec<u8>>> {
        groups
            .iter()
            .map(|group| {
                let keys: Vec<SealingKey> = group
                    .route
                    .iter()
                    .map(|&h| self.sealing_keys[h].clone())
                    .collect();
                let client = CascadeClient::from_keys(keys).with_compression(self.compression);
                group
                    .slots
                    .iter()
                    .map(|&s| {
                        let update = updates.get(s).unwrap_or_else(|| &cover[s - updates.len()]);
                        client
                            .seal_update(update, rng)
                            .expect("attested hop keys are never low-order")
                    })
                    .collect()
            })
            .collect()
    }

    /// The one failure handler: hop `h` is to blame for `cause` — the wire
    /// could not reach it, its own ingest failed, or (for the last hop of
    /// a route) its egress into the server is unreachable. Under
    /// [`FailurePolicy::Abort`] the cause fails the round; under
    /// [`FailurePolicy::Skip`] the hop is marked down and the caller
    /// restarts the attempt on the surviving routes.
    fn fail_hop(
        &mut self,
        h: usize,
        cause: CascadeError,
        skipped_this_round: &mut Vec<usize>,
    ) -> Result<(), CascadeError> {
        match self.policy {
            FailurePolicy::Abort => Err(cause),
            FailurePolicy::Skip => {
                self.skipped[h] = true;
                skipped_this_round.push(h);
                self.telemetry.incr(Counter::CascadeHopsSkipped, 1);
                self.telemetry
                    .trace(Component::Cascade, Some(h as u16), TraceKind::HopSkipped);
                Ok(())
            }
        }
    }

    /// Drives one round end-to-end: partition the slots into route groups,
    /// onion-encrypt every group's updates for its route (drawing sealing
    /// entropy from `rng`, group by group in canonical order), pass each
    /// group's batch hop to hop — every hop mixes **only the partial round
    /// that traversed it** — and decode the final plaintext updates back
    /// into slot order.
    ///
    /// Under [`FailurePolicy::Skip`], a failing hop is marked down and the
    /// round restarts on the surviving routes — groups are re-partitioned
    /// (routes that collapse to the same surviving sequence merge) and the
    /// onions rebuilt, because each envelope is bound to a specific hop
    /// key. Hops that already processed groups re-run on the rebuilt
    /// batches (with fresh plans and sealing entropy), and their
    /// [`CascadeCoordinator::hop_stats`] keep the aborted attempt's work.
    /// Under [`FailurePolicy::Abort`] the first hop failure fails the
    /// round.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::EmptyRound`] /
    /// [`CascadeError::SignatureMismatch`] for bad input,
    /// [`CascadeError::Topology`] for an undrivable route,
    /// [`CascadeError::NoActiveHops`] when skipping exhausts a route, and
    /// the failing hop's error under abort semantics.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        rng: &mut R,
    ) -> Result<CascadeRound, CascadeError> {
        self.run_round_over(updates, rng, &mut InProcessLink)
    }

    /// [`CascadeCoordinator::run_round`] with every inter-stage exchange
    /// — clients into the first hop, hop to hop along each group's route,
    /// last hop into the server — delivered through `link` instead of an
    /// in-process move.
    ///
    /// With [`mixnn_core::InProcessLink`] this **is** `run_round` (that
    /// method delegates here). Over a real [`RoundLink`] — e.g.
    /// `mixnn-net`'s simulated network — a successful delivery returns
    /// the batch byte-identical and in order, so round outputs, audits
    /// and stats are bit-identical to the in-process drive; only *cost*
    /// (virtual latency, queueing, bytes on the wire) differs. A failed
    /// delivery is attributed to a hop — the receiving hop, or the
    /// sending hop when the segment ends at the server — and handled by
    /// the configured [`FailurePolicy`]: `Skip` marks that hop down and
    /// retries the round on the surviving routes (rerouting exactly the
    /// groups that traversed it), `Abort` surfaces
    /// [`CascadeError::Link`]. Segments hit the wire in the canonical
    /// order: group by group, and within a group along its route.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CascadeCoordinator::run_round`], plus
    /// [`CascadeError::Link`] for a delivery failure under
    /// [`FailurePolicy::Abort`].
    pub fn run_round_over<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<CascadeRound, CascadeError> {
        self.accounted_drive(updates, None, rng, link)
            .map(|(round, _)| round)
    }

    /// [`CascadeCoordinator::run_round_over`] with a **k-floor**: every
    /// route group whose driven slots fall short of `floor` is padded with
    /// hop-generated cover updates before sealing, so no group — and hence
    /// no fired pool — mixes fewer than `floor` slots. Cover slots occupy
    /// trailing indices (`updates.len()..`), travel the group's full route
    /// sealed exactly like a client's onion, and are recognised at the
    /// server boundary only by the content digests this call returns
    /// ([`PaddedRound::server_outputs`] strips them). Under
    /// [`FailurePolicy::Skip`] a reroute re-partitions the surviving
    /// routes and **re-pads** the merged groups with fresh cover, so the
    /// floor holds on the round that actually commits.
    ///
    /// # Errors
    ///
    /// [`CascadeError::Pool`] for a zero floor, plus every
    /// [`CascadeCoordinator::run_round_over`] condition.
    pub fn run_padded_round_over<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: usize,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<PaddedRound, CascadeError> {
        if floor == 0 {
            return Err(CascadeError::Pool {
                reason: "k-floor must be at least 1".to_string(),
            });
        }
        let real = updates.len();
        let (round, dummy_digests) = self.accounted_drive(updates, Some(floor), rng, link)?;
        self.telemetry
            .incr(Counter::CascadeDummiesInjected, dummy_digests.len() as u64);
        Ok(PaddedRound {
            round,
            real,
            dummy_digests,
        })
    }

    /// The accounting wrapper shared by the plain and padded round drives:
    /// input validation, the round ordinal, trace events, the round span,
    /// and success/abort counters — exactly once per round, no matter how
    /// many skip-and-reroute attempts the drive takes.
    fn accounted_drive<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: Option<usize>,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<DrivenRound, CascadeError> {
        if updates.is_empty() {
            return Err(CascadeError::EmptyRound);
        }
        for u in updates {
            if u.signature() != self.signature {
                return Err(CascadeError::SignatureMismatch {
                    expected: self.signature.clone(),
                    actual: u.signature(),
                });
            }
        }

        let ordinal = self.rounds_driven;
        self.rounds_driven += 1;
        self.telemetry.trace(
            Component::Cascade,
            None,
            TraceKind::RoundStarted { round: ordinal },
        );
        let t0 = self.telemetry.now_ns();
        let result = self.drive_round(updates, floor, rng, link);
        let elapsed_ns = self.telemetry.now_ns().saturating_sub(t0);
        self.telemetry
            .record_span_ns(Span::CascadeRound, elapsed_ns);
        match &result {
            Ok((round, _)) => {
                self.telemetry.incr(Counter::CascadeRoundsCompleted, 1);
                let groups = round.audit.groups();
                self.telemetry
                    .incr(Counter::CascadeGroupsMixed, groups.len() as u64);
                for group in groups {
                    let members = group.slots().len() as u64;
                    self.telemetry
                        .observe(Distribution::CascadeGroupMembers, members);
                    self.telemetry.trace(
                        Component::Cascade,
                        None,
                        TraceKind::GroupMixed { members },
                    );
                }
                self.telemetry.trace(
                    Component::Cascade,
                    None,
                    TraceKind::RoundCompleted { round: ordinal },
                );
            }
            Err(_) => {
                self.telemetry.incr(Counter::CascadeRoundsAborted, 1);
                self.telemetry.trace(
                    Component::Cascade,
                    None,
                    TraceKind::RoundAborted { round: ordinal },
                );
            }
        }
        result
    }

    /// The retry-looped body behind
    /// [`CascadeCoordinator::accounted_drive`], split out so the wrapper
    /// can account the round exactly once no matter how many
    /// skip-and-reroute attempts the drive takes.
    ///
    /// With `floor: Some(k)`, each attempt pads every under-`k` route
    /// group with hop-generated cover **before** sealing. Returns the
    /// cover content digests of the attempt that committed.
    fn drive_round<R: Rng + ?Sized>(
        &mut self,
        updates: &[ModelParams],
        floor: Option<usize>,
        rng: &mut R,
        link: &mut dyn RoundLink,
    ) -> Result<DrivenRound, CascadeError> {
        let mut skipped_this_round = Vec::new();
        'retry: loop {
            let mut groups = self.active_groups(updates.len())?;
            // Pad under-full groups up to the k-floor with cover drawn
            // from the first hop on each group's route. A skip-and-reroute
            // attempt re-enters here and re-pads the re-partitioned groups
            // with fresh nonces — stale cover for a dead route never
            // carries over.
            let mut cover: Vec<ModelParams> = Vec::new();
            let mut dummy_digests: Vec<Vec<[u8; 32]>> = Vec::new();
            if let Some(k) = floor {
                for group in &mut groups {
                    while group.slots.len() < k {
                        let hop = group.route[0];
                        let dummy =
                            self.hops[hop].generate_dummy(&self.signature, self.dummy_nonce);
                        self.dummy_nonce += 1;
                        // Announce the digest of what the wire will
                        // deliver: under a lossy codec the server decodes
                        // the *dequantized* cover layers, so digest the
                        // canonical post-wire form (identity under F32).
                        dummy_digests.push(
                            dummy
                                .iter()
                                .map(|l| {
                                    mixnn_core::codec::layer_digest(
                                        &mixnn_core::codec::canonical_layer(l, self.compression),
                                    )
                                })
                                .collect(),
                        );
                        group.slots.push(updates.len() + cover.len());
                        cover.push(dummy);
                    }
                }
            }
            let clients = updates.len() + cover.len();
            let batches = self.seal_groups(&groups, updates, &cover, rng);

            let mut mixed: Vec<Option<ModelParams>> = vec![None; clients];
            let mut group_audits = Vec::with_capacity(groups.len());
            let mut chain: Vec<usize> = Vec::new();
            // A failed attempt drops whatever it took from the kept
            // generation; the retry, and the round after an abort, start
            // without one.
            let mut kept = self.server_bound.take();
            let mut server_bound = Vec::with_capacity(clients);
            for (group, mut batch) in groups.iter().zip(batches) {
                let mut plans = Vec::with_capacity(group.route.len());
                // Message buffers circulate along the route: each hop
                // writes its outgoing messages into the buffers the
                // previous stage's arrived in and leaves its own behind.
                // The first hop writes into last round's server-bound
                // messages — at most one per slot of the group — so in a
                // steady round no hop maps fresh memory.
                let mut spent = if kept.len() > group.slots.len() {
                    kept.split_off(kept.len() - group.slots.len())
                } else {
                    std::mem::take(&mut kept)
                };
                for (pos, &h) in group.route.iter().enumerate() {
                    let from = if pos == 0 {
                        Endpoint::Clients
                    } else {
                        Endpoint::Hop(group.route[pos - 1])
                    };
                    // A wire that cannot reach hop `h` is handled exactly
                    // as if the hop itself had failed.
                    let step = link
                        .deliver(from, Endpoint::Hop(h), batch)
                        .map_err(|source| CascadeError::Link { source })
                        .and_then(|delivered| self.hops[h].mix_delivered(delivered, &mut spent));
                    match step {
                        Ok((out, plan)) => {
                            batch = out;
                            plans.push(plan);
                        }
                        Err(cause) => {
                            self.fail_hop(h, cause, &mut skipped_this_round)?;
                            continue 'retry;
                        }
                    }
                }
                let last = *group.route.last().expect("groups have non-empty routes");
                batch = match link.deliver(Endpoint::Hop(last), Endpoint::Server, batch) {
                    Ok(delivered) => delivered,
                    Err(source) => {
                        // The segment into the server has no receiving
                        // hop; blame the sender — the hop whose egress is
                        // unreachable.
                        self.fail_hop(
                            last,
                            CascadeError::Link { source },
                            &mut skipped_this_round,
                        )?;
                        continue 'retry;
                    }
                };
                // The spent generation has no stage left to serve: release
                // it before the decoded parameters are allocated, which
                // then reuse its memory. The server-bound messages are
                // kept for the next round once they are decoded.
                drop(spent);
                for (local, wire) in batch.iter().enumerate() {
                    mixed[group.slots[local]] =
                        Some(OnionView::parse(wire)?.into_params(&self.signature)?);
                }
                server_bound.extend(batch);
                chain.extend(&group.route);
                group_audits.push(RouteGroupAudit::new(
                    group.slots.clone(),
                    group.route.clone(),
                    plans,
                ));
            }
            chain.sort_unstable();
            chain.dedup();
            self.server_bound.keep(server_bound);
            return Ok((
                CascadeRound {
                    mixed: mixed
                        .into_iter()
                        .map(|m| m.expect("groups partition the round"))
                        .collect(),
                    audit: CascadeAudit::from_groups(clients, group_audits),
                    chain,
                    skipped_this_round,
                },
                dummy_digests,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FreeRoute, StratifiedLayout};
    use mixnn_enclave::EnclaveConfig;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![(i * 10) as f32; 2]),
        ])
    }

    fn updates(c: usize) -> Vec<ModelParams> {
        (0..c).map(params).collect()
    }

    fn launch(
        hop_count: usize,
        policy: FailurePolicy,
    ) -> (CascadeCoordinator, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(31);
        let service = AttestationService::new(&mut rng);
        let cascade =
            CascadeCoordinator::linear(vec![3, 2], hop_count, 9, policy, &service, &mut rng)
                .unwrap();
        (cascade, service, rng)
    }

    fn launch_with(
        topology: Box<dyn CascadeTopology>,
        policy: FailurePolicy,
        seed: u64,
    ) -> (CascadeCoordinator, AttestationService, StdRng) {
        let mut rng = StdRng::seed_from_u64(seed);
        let service = AttestationService::new(&mut rng);
        let cascade = CascadeCoordinator::with_topology(
            vec![3, 2],
            topology,
            seed,
            policy,
            &service,
            &mut rng,
        )
        .unwrap();
        (cascade, service, rng)
    }

    #[test]
    fn round_preserves_aggregate_and_unmixes_at_every_hop_count() {
        for hop_count in 1..=4 {
            let (mut cascade, _, mut rng) = launch(hop_count, FailurePolicy::Abort);
            let ins = updates(6);
            let round = cascade.run_round(&ins, &mut rng).unwrap();
            assert_eq!(round.mixed.len(), 6);
            assert_eq!(round.chain.len(), hop_count);
            assert_eq!(
                ModelParams::mean(&ins),
                ModelParams::mean(&round.mixed),
                "hop_count={hop_count}"
            );
            assert_eq!(
                round.audit.unmix(&round.mixed).unwrap(),
                ins,
                "hop_count={hop_count}"
            );
        }
    }

    #[test]
    fn multi_hop_round_actually_re_mixes() {
        let (mut cascade, _, mut rng) = launch(3, FailurePolicy::Abort);
        let ins = updates(8);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.audit.groups()[0].plans().len(), 3);
        let changed = ins.iter().zip(&round.mixed).filter(|(a, b)| a != b).count();
        assert!(changed > 0, "no update changed content after cascading");
        // The composed permutation differs from every single hop's plan for
        // at least one cell in general; at minimum it must be a valid
        // permutation per layer.
        for l in 0..2 {
            let mut seen = [false; 8];
            for i in 0..8 {
                let src = round.audit.composed_source(l, i).unwrap();
                assert!(!seen[src], "layer {l} output {i} reuses source {src}");
                seen[src] = true;
            }
        }
    }

    #[test]
    fn stratified_round_mixes_per_group_and_stays_bit_exact() {
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(StratifiedLayout::evenly(4, 2, 77)),
            FailurePolicy::Abort,
            33,
        );
        let ins = updates(12);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(
            ModelParams::mean(&ins),
            ModelParams::mean(&round.mixed),
            "stratified mixing must not move the aggregate"
        );
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);

        // Every group's route is one hop per stratum, and mixing stays
        // inside groups: each output's source shares its route.
        for group in round.audit.groups() {
            assert_eq!(group.route().len(), 2);
            assert!(group.route()[0] < 2 && group.route()[1] >= 2);
            assert_eq!(group.plans().len(), 2);
            for l in 0..2 {
                for &out in group.slots() {
                    let src = round.audit.composed_source(l, out).unwrap();
                    assert!(
                        group.slots().contains(&src),
                        "layer {l} output {out} drew from outside its route group"
                    );
                }
            }
        }
        let covered: usize = round.audit.groups().iter().map(|g| g.members()).sum();
        assert_eq!(covered, 12);
    }

    #[test]
    fn free_route_round_supports_single_hop_routes_and_unused_hops() {
        #[derive(Debug)]
        struct Fixed;
        impl CascadeTopology for Fixed {
            fn name(&self) -> &str {
                "fixed"
            }
            fn num_hops(&self) -> usize {
                3
            }
            fn route(&self, slot: usize) -> Vec<usize> {
                // Nobody routes through hop 1; slot 0 takes a single hop.
                if slot == 0 {
                    vec![0]
                } else {
                    vec![0, 2]
                }
            }
        }
        let (mut cascade, _, mut rng) = launch_with(Box::new(Fixed), FailurePolicy::Abort, 35);
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        assert_eq!(round.chain, vec![0, 2], "hop 1 is off every route");
        let stats = cascade.hop_stats();
        assert_eq!(stats[1].updates_received, 0, "unused hop does no work");
        // Hop 0 serves both groups: 1 + 4 updates across two partial rounds.
        assert_eq!(stats[0].updates_received, 5);
        assert_eq!(stats[2].updates_received, 4);
        // The single-hop client mixes with nobody: its group is {0}.
        let lone = round
            .audit
            .groups()
            .iter()
            .find(|g| g.route() == [0])
            .expect("slot 0's group");
        assert_eq!(lone.slots(), [0]);
        assert_eq!(round.audit.composed_source(0, 0), Some(0));
    }

    #[test]
    fn free_route_layout_round_trips_end_to_end() {
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(FreeRoute::new(4, 1, 4, 55)),
            FailurePolicy::Abort,
            36,
        );
        let ins = updates(10);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        assert!(round.audit.groups().len() > 1, "free routes should split");
    }

    #[test]
    fn per_slot_clients_follow_their_routes() {
        let (cascade, service, _) = launch_with(
            Box::new(StratifiedLayout::evenly(4, 2, 21)),
            FailurePolicy::Abort,
            37,
        );
        // Every slot gets a verified client over its own route.
        for slot in 0..8 {
            let client = cascade.client_for_slot(slot, &service).unwrap();
            assert_eq!(client.num_hops(), 2, "one hop per stratum");
        }
        let foreign = AttestationService::new(&mut StdRng::seed_from_u64(98));
        assert!(matches!(
            cascade.client_for_slot(0, &foreign),
            Err(CascadeError::Attestation { .. })
        ));
    }

    #[test]
    fn abort_policy_surfaces_the_hop_failure() {
        let mut rng = StdRng::seed_from_u64(40);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[1].enclave = EnclaveConfig {
            epc_limit: 32, // cannot hold a round
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Abort,
            },
            Box::new(LinearChain::new(3)),
            &service,
            &mut rng,
        )
        .unwrap();
        let err = cascade.run_round(&updates(5), &mut rng).unwrap_err();
        assert!(matches!(err, CascadeError::Hop { hop: 1, .. }));
        assert!(cascade.skipped_hops().is_empty(), "abort must not skip");
    }

    #[test]
    fn skip_policy_routes_around_a_dead_hop_and_stays_correct() {
        let mut rng = StdRng::seed_from_u64(41);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: 50 + i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[1].enclave = EnclaveConfig {
            epc_limit: 32,
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Skip,
            },
            Box::new(LinearChain::new(3)),
            &service,
            &mut rng,
        )
        .unwrap();
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.skipped_this_round, vec![1]);
        assert_eq!(round.chain, vec![0, 2]);
        assert_eq!(cascade.skipped_hops(), vec![1]);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);

        // The skip is sticky: the next round goes straight to the
        // surviving chain…
        let round2 = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round2.chain, vec![0, 2]);
        assert!(round2.skipped_this_round.is_empty());

        // …until the operator reinstates the hop (here still broken, so it
        // is skipped again).
        cascade.reinstate(1);
        assert!(cascade.skipped_hops().is_empty());
        let round3 = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round3.skipped_this_round, vec![1]);
    }

    #[test]
    fn skip_at_a_partially_used_hop_reroutes_only_its_groups() {
        // Slots split over hop 1 and hop 2 after a shared hop 0; hop 2 is
        // starved, so only the group routed through it loses a hop. After
        // the skip, that group's route collapses to [0] while the other
        // still traverses [0, 1].
        #[derive(Debug)]
        struct Split;
        impl CascadeTopology for Split {
            fn name(&self) -> &str {
                "split"
            }
            fn num_hops(&self) -> usize {
                3
            }
            fn route(&self, slot: usize) -> Vec<usize> {
                if slot.is_multiple_of(2) {
                    vec![0, 1]
                } else {
                    vec![0, 2]
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(44);
        let service = AttestationService::new(&mut rng);
        let mut hops: Vec<CascadeHopConfig> = (0..3)
            .map(|i| CascadeHopConfig {
                seed: 70 + i as u64,
                ..CascadeHopConfig::default()
            })
            .collect();
        hops[2].enclave = EnclaveConfig {
            epc_limit: 32, // cannot hold even its partial round
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops,
                policy: FailurePolicy::Skip,
            },
            Box::new(Split),
            &service,
            &mut rng,
        )
        .unwrap();
        let ins = updates(6);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert_eq!(round.skipped_this_round, vec![2]);
        assert_eq!(cascade.skipped_hops(), vec![2]);
        assert_eq!(round.chain, vec![0, 1]);
        assert_eq!(ModelParams::mean(&ins), ModelParams::mean(&round.mixed));
        assert_eq!(round.audit.unmix(&round.mixed).unwrap(), ins);
        let routes: Vec<&[usize]> = round.audit.groups().iter().map(|g| g.route()).collect();
        assert_eq!(routes, vec![&[0][..], &[0, 1][..]]);
        assert_eq!(cascade.hops()[2].memory_stats().allocated, 0);
    }

    #[test]
    fn skip_exhaustion_reports_no_active_hops() {
        let mut rng = StdRng::seed_from_u64(42);
        let service = AttestationService::new(&mut rng);
        let dead = EnclaveConfig {
            epc_limit: 8,
            code_identity: crate::HOP_CODE_IDENTITY.to_vec(),
        };
        let mut cascade = CascadeCoordinator::launch(
            CascadeConfig {
                expected_signature: vec![3, 2],
                hops: (0..2)
                    .map(|i| CascadeHopConfig {
                        enclave: dead.clone(),
                        seed: i as u64,
                    })
                    .collect(),
                policy: FailurePolicy::Skip,
            },
            Box::new(LinearChain::new(2)),
            &service,
            &mut rng,
        )
        .unwrap();
        assert_eq!(
            cascade.run_round(&updates(4), &mut rng).unwrap_err(),
            CascadeError::NoActiveHops
        );
    }

    #[test]
    fn bad_input_is_rejected_before_any_hop_runs() {
        let (mut cascade, _, mut rng) = launch(2, FailurePolicy::Abort);
        assert_eq!(
            cascade.run_round(&[], &mut rng).unwrap_err(),
            CascadeError::EmptyRound
        );
        let alien = vec![ModelParams::from_layers(vec![LayerParams::from_values(
            vec![0.0],
        )])];
        assert!(matches!(
            cascade.run_round(&alien, &mut rng).unwrap_err(),
            CascadeError::SignatureMismatch { .. }
        ));
        assert_eq!(cascade.hop_stats()[0].updates_received, 0);
    }

    #[test]
    fn launch_validates_configuration() {
        let mut rng = StdRng::seed_from_u64(43);
        let service = AttestationService::new(&mut rng);
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![2],
                    hops: vec![],
                    policy: FailurePolicy::Abort,
                },
                Box::new(LinearChain::new(1)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::NoActiveHops)
        ));
        assert!(matches!(
            CascadeCoordinator::linear(vec![2], 0, 1, FailurePolicy::Abort, &service, &mut rng),
            Err(CascadeError::NoActiveHops)
        ));
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![],
                    hops: vec![CascadeHopConfig::default()],
                    policy: FailurePolicy::Abort,
                },
                Box::new(LinearChain::new(1)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::SignatureMismatch { .. })
        ));
        assert!(matches!(
            CascadeCoordinator::launch(
                CascadeConfig {
                    expected_signature: vec![2],
                    hops: vec![CascadeHopConfig::default()],
                    policy: FailurePolicy::Abort,
                },
                Box::new(LinearChain::new(2)),
                &service,
                &mut rng,
            ),
            Err(CascadeError::Topology { .. })
        ));
    }

    #[test]
    fn malformed_topology_routes_fail_the_round() {
        #[derive(Debug)]
        struct OutOfRange;
        impl CascadeTopology for OutOfRange {
            fn name(&self) -> &str {
                "out-of-range"
            }
            fn num_hops(&self) -> usize {
                2
            }
            fn route(&self, _slot: usize) -> Vec<usize> {
                vec![0, 5]
            }
        }
        let (mut cascade, _, mut rng) = launch_with(Box::new(OutOfRange), FailurePolicy::Abort, 45);
        assert!(matches!(
            cascade.run_round(&updates(3), &mut rng).unwrap_err(),
            CascadeError::Topology { .. }
        ));
    }

    #[test]
    #[should_panic(expected = "disagrees with the group size")]
    fn audit_rejects_inconsistent_plans_at_construction() {
        let mut rng = StdRng::seed_from_u64(50);
        let a = MixPlan::latin(5, 2, &mut rng).unwrap();
        let b = MixPlan::latin(4, 2, &mut rng).unwrap();
        let _ = RouteGroupAudit::new((0..5).collect(), vec![0, 1], vec![a, b]);
    }

    #[test]
    #[should_panic(expected = "partition")]
    fn grouped_audit_rejects_non_partitions() {
        let mut rng = StdRng::seed_from_u64(52);
        let a = MixPlan::latin(2, 1, &mut rng).unwrap();
        let _ =
            CascadeAudit::from_groups(4, vec![RouteGroupAudit::new(vec![0, 1], vec![0], vec![a])]);
    }

    #[test]
    fn debug_counts_the_kept_generation_instead_of_printing_it() {
        let mut rng = StdRng::seed_from_u64(60);
        let service = AttestationService::new(&mut rng);
        let mut cascade = CascadeCoordinator::linear(
            vec![4096, 1024],
            3,
            9,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .unwrap();
        let before = format!("{cascade:?}");
        assert!(before.contains("SpentBuffers { buffers: 0, capacity: 0 }"));
        let ins: Vec<ModelParams> = (0..6)
            .map(|i| {
                ModelParams::from_layers(vec![
                    LayerParams::from_values(vec![i as f32; 4096]),
                    LayerParams::from_values(vec![-(i as f32); 1024]),
                ])
            })
            .collect();
        cascade.run_round(&ins, &mut rng).unwrap();
        let after = format!("{cascade:?}");
        // Six kept messages of over 20 KB each, printed as two numbers
        // (the rest of the growth is counters and RNG state).
        assert!(
            after.contains("SpentBuffers { buffers: 6, capacity: "),
            "{after}"
        );
        assert!(
            after.len() < before.len() + 256,
            "{} → {} bytes of Debug",
            before.len(),
            after.len()
        );
    }

    #[test]
    fn unmix_rejects_mismatched_dimensions() {
        let (mut cascade, _, mut rng) = launch(2, FailurePolicy::Abort);
        let ins = updates(5);
        let round = cascade.run_round(&ins, &mut rng).unwrap();
        assert!(matches!(
            round.audit.unmix(&round.mixed[..3]),
            Err(CascadeError::Audit { .. })
        ));
    }

    #[test]
    fn route_group_audit_covers_dummy_padded_trailing_slots() {
        // A 3-client partial round padded to a k-floor of 5: the audit
        // must describe the slots the round actually drove — the real
        // members in the leading slots plus the trailing cover — exactly
        // as it describes an all-real round.
        let (mut cascade, _, mut rng) = launch_with(
            Box::new(FreeRoute::new(3, 1, 3, 55)),
            FailurePolicy::Abort,
            55,
        );
        let ins = updates(3);
        let padded = cascade
            .run_padded_round_over(&ins, 5, &mut rng, &mut InProcessLink)
            .unwrap();
        assert_eq!(padded.real, 3);
        assert!(padded.dummies() > 0, "a 3-member round needs cover at k=5");
        let audit = &padded.round.audit;
        let driven = padded.real + padded.dummies();

        // The groups partition every driven slot (real and cover alike)
        // and each group meets the k-floor with plans sized to its padded
        // membership.
        let mut seen = vec![false; driven];
        for group in audit.groups() {
            assert!(group.members() >= 5, "group of {}", group.members());
            assert_eq!(group.plans().len(), group.route().len());
            for &slot in group.slots() {
                assert!(!seen[slot], "slot {slot} audited twice");
                seen[slot] = true;
            }
        }
        assert!(seen.iter().all(|&s| s), "every driven slot is audited");

        // The audit stays honest through the padding: unmixing restores
        // the real originals in the leading slots.
        let restored = audit.unmix(&padded.round.mixed).unwrap();
        assert_eq!(&restored[..3], &ins[..]);
    }
}
