//! Continuous pooled mixing with hop-generated cover traffic.
//!
//! The round-synchronous cascade waits for **all** clients before firing;
//! production traffic trickles. A [`MixPool`] buffers arrivals and fires a
//! *partial* round when either of two conditions holds:
//!
//! * **threshold** — the pool holds at least `k` real updates, or
//! * **deadline** — `deadline_ns` elapsed since the first update of the
//!   current pool arrived, measured on the pool clock.
//!
//! Pool state machine: `Empty --arrival--> Open(opened_at) --len ≥ k-->
//! fire(Threshold) --> Empty`, with `Open --now ≥ opened_at + deadline-->
//! fire(Deadline) --> Empty`. A deadline firing can be under-full, and a
//! free-route partition can split even a full pool into small groups — in
//! both cases [`CascadeCoordinator::run_padded_round_over`] pads every
//! route group back up to the k-floor with **hop-generated cover**
//! (dummies): parameters drawn from a hop's dedicated cover stream, sealed
//! through exactly the same onion construction as a client's update, and
//! stripped only at the server boundary by content digest
//! ([`PaddedRound::server_outputs`]). On the wire, through every hop, and
//! in every audit, a dummy is byte-indistinguishable from real traffic.
//!
//! Time is an argument: every call that can fire takes the instant it
//! happens at, and a [`PooledCoordinator`] keeps the latest one as its
//! pool clock, which never runs backwards. Who mixes with whom is
//! therefore a pure function of the call sequence — `eval pooled` runs
//! are bit-reproducible — and an attached telemetry registry only
//! observes the firings, whatever clock it carries.

use crate::coordinator::take_spare;
use crate::{CascadeCoordinator, CascadeError, PaddedRound};
use mixnn_core::{InProcessLink, RoundLink, RoundTranscript};
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use mixnn_telemetry::{Counter, Distribution, Span, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Configuration of a [`MixPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// The k-floor: the pool fires as soon as it holds `k` real updates,
    /// and every fired round's route groups are dummy-padded up to `k`
    /// slots. Must be at least 1.
    pub k: usize,
    /// Maximum time the first update of a pool waits before the pool
    /// fires under-full, in nanoseconds on the pool clock. Must be at
    /// least 1 (`u64::MAX` effectively disables deadline firing).
    pub deadline_ns: u64,
}

impl PoolConfig {
    fn validate(self) -> Result<Self, CascadeError> {
        if self.k == 0 {
            return Err(CascadeError::Pool {
                reason: "pool threshold k must be at least 1".to_string(),
            });
        }
        if self.deadline_ns == 0 {
            return Err(CascadeError::Pool {
                reason: "pool deadline must be at least 1 ns (use u64::MAX for never)".to_string(),
            });
        }
        Ok(self)
    }
}

/// Why a pool fired.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PoolTrigger {
    /// The pool reached `k` real updates.
    Threshold,
    /// `deadline_ns` elapsed since the pool opened.
    Deadline,
    /// The operator forced the remainder out ([`MixPool::drain`]).
    Flush,
}

/// One fired pool: the real updates it held, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct PoolBatch {
    /// Caller-assigned ids of the members (e.g. FL client ids), arrival
    /// order.
    pub slots: Vec<usize>,
    /// The members' updates, arrival order.
    pub updates: Vec<ModelParams>,
    /// Each member's arrival time on the pool clock, arrival order.
    pub arrivals_ns: Vec<u64>,
    /// When the pool opened (first member's arrival).
    pub opened_at_ns: u64,
    /// When the pool fired.
    pub fired_at_ns: u64,
    /// What fired it.
    pub trigger: PoolTrigger,
}

impl PoolBatch {
    /// Per-member added latency: time between arrival and firing, arrival
    /// order.
    pub fn waits_ns(&self) -> Vec<u64> {
        self.arrivals_ns
            .iter()
            .map(|&at| self.fired_at_ns.saturating_sub(at))
            .collect()
    }
}

/// The arrival buffer of continuous mixing: fires when `k` updates are
/// pooled or the deadline elapses, whichever comes first.
///
/// The pool is clock-agnostic — every method takes `now_ns` explicitly, so
/// firing is a pure function of the call sequence. [`PooledCoordinator`]
/// keeps the clock those calls are made on.
#[derive(Debug)]
pub struct MixPool {
    config: PoolConfig,
    pending: Vec<(usize, ModelParams, u64)>,
    opened_at_ns: Option<u64>,
}

impl MixPool {
    /// An empty pool.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] for a zero threshold or deadline.
    pub fn new(config: PoolConfig) -> Result<Self, CascadeError> {
        Ok(MixPool {
            config: config.validate()?,
            pending: Vec::new(),
            opened_at_ns: None,
        })
    }

    /// The configured threshold / k-floor.
    pub fn k(&self) -> usize {
        self.config.k
    }

    /// The configured deadline.
    pub fn deadline_ns(&self) -> u64 {
        self.config.deadline_ns
    }

    /// Real updates currently pooled.
    pub fn len(&self) -> usize {
        self.pending.len()
    }

    /// Whether the pool is empty (closed).
    pub fn is_empty(&self) -> bool {
        self.pending.is_empty()
    }

    /// The absolute clock value at which the open pool will fire by
    /// deadline; `None` while the pool is empty.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.opened_at_ns
            .map(|at| at.saturating_add(self.config.deadline_ns))
    }

    fn fire(&mut self, now_ns: u64, trigger: PoolTrigger) -> PoolBatch {
        let opened_at_ns = self.opened_at_ns.take().expect("firing an open pool");
        let mut slots = Vec::with_capacity(self.pending.len());
        let mut updates = Vec::with_capacity(self.pending.len());
        let mut arrivals_ns = Vec::with_capacity(self.pending.len());
        for (slot, params, at) in self.pending.drain(..) {
            slots.push(slot);
            updates.push(params);
            arrivals_ns.push(at);
        }
        PoolBatch {
            slots,
            updates,
            arrivals_ns,
            opened_at_ns,
            fired_at_ns: now_ns,
            trigger,
        }
    }

    /// Adds one update at `now_ns`; opens the pool if it was empty, and
    /// fires by **threshold** if this arrival is the `k`-th.
    ///
    /// Call [`MixPool::poll`] first when `now_ns` may have jumped past the
    /// open pool's deadline — an elapsed deadline fires the *previous*
    /// pool before this arrival joins a fresh one.
    pub fn offer(&mut self, slot: usize, params: ModelParams, now_ns: u64) -> Option<PoolBatch> {
        if self.opened_at_ns.is_none() {
            self.opened_at_ns = Some(now_ns);
        }
        self.pending.push((slot, params, now_ns));
        (self.pending.len() >= self.config.k).then(|| self.fire(now_ns, PoolTrigger::Threshold))
    }

    /// Fires by **deadline** if the pool is open and
    /// `now_ns ≥ opened_at + deadline_ns`.
    pub fn poll(&mut self, now_ns: u64) -> Option<PoolBatch> {
        (self.next_deadline_ns().is_some_and(|d| now_ns >= d))
            .then(|| self.fire(now_ns, PoolTrigger::Deadline))
    }

    /// Force-fires whatever is pooled (operator shutdown / end of an
    /// experiment); `None` when empty.
    pub fn drain(&mut self, now_ns: u64) -> Option<PoolBatch> {
        (!self.pending.is_empty()).then(|| self.fire(now_ns, PoolTrigger::Flush))
    }

    /// Puts a fired-but-undriven batch back (a wire failure aborted the
    /// round), in front of anything that arrived meanwhile, restoring the
    /// original open time so deadline accounting is unchanged.
    pub(crate) fn restore(&mut self, batch: PoolBatch) {
        let mut restored: Vec<(usize, ModelParams, u64)> = batch
            .slots
            .into_iter()
            .zip(batch.updates)
            .zip(batch.arrivals_ns)
            .map(|((slot, params), at)| (slot, params, at))
            .collect();
        restored.append(&mut self.pending);
        self.pending = restored;
        self.opened_at_ns = Some(match self.opened_at_ns {
            Some(open) => open.min(batch.opened_at_ns),
            None => batch.opened_at_ns,
        });
    }
}

/// One committed pooled round: the padded cascade round plus the pool
/// metadata that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct PooledRound {
    /// The padded round the cascade committed (real slots
    /// `0..`[`PooledRound::real`] are the pool members in arrival order,
    /// trailing slots are cover).
    pub padded: PaddedRound,
    /// Caller-assigned ids of the real members, arrival order (parallel
    /// to the round's real slots).
    pub slots: Vec<usize>,
    /// Per-member added latency (arrival to firing), arrival order.
    pub waits_ns: Vec<u64>,
    /// When the pool opened / fired on the pool clock.
    pub opened_at_ns: u64,
    /// When the pool fired.
    pub fired_at_ns: u64,
    /// What fired the pool.
    pub trigger: PoolTrigger,
}

impl PooledRound {
    /// Number of real member updates (the transcript's
    /// [`RoundTranscript::real`]).
    pub fn real(&self) -> usize {
        self.audit().real()
    }

    /// Number of cover updates injected.
    pub fn dummies(&self) -> usize {
        self.padded.dummies()
    }

    /// The round's transcript (covers real **and** cover slots — they are
    /// indistinguishable below the server).
    pub fn audit(&self) -> &RoundTranscript {
        &self.padded.round.audit
    }

    /// The server-boundary outputs with cover stripped by content digest
    /// (see [`PaddedRound::server_outputs`]).
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] when stripping does not recover
    /// exactly the real update count.
    pub fn server_outputs(&self) -> Result<Vec<ModelParams>, CascadeError> {
        self.padded.server_outputs()
    }
}

/// Drives a [`MixPool`] through a [`CascadeCoordinator`] over a
/// [`RoundLink`]: arrivals are submitted as they come, and every firing —
/// threshold, deadline, or flush — runs one k-floor-padded partial round.
///
/// Time is the caller's: [`PooledCoordinator::submit`],
/// [`PooledCoordinator::tick`] and [`PooledCoordinator::flush`] each take
/// the instant they happen at, and the coordinator keeps the latest as
/// its pool clock ([`PooledCoordinator::now_ns`]). A call earlier than
/// the clock is refused, so the clock never runs backwards and the
/// firings are a pure function of the calls. An attached telemetry
/// registry observes them and never moves them.
#[derive(Debug)]
pub struct PooledCoordinator {
    cascade: CascadeCoordinator,
    pool: MixPool,
    /// RNG standing in for the participants' (and cover's) onion-sealing
    /// entropy.
    sealing_rng: StdRng,
    telemetry: Telemetry,
    /// Updates of the cascade's shape whose values are dead — members
    /// whose firing committed, and whatever a transport hands back — that
    /// the next firing generates cover into and decodes into.
    spares: Vec<ModelParams>,
    /// The pool clock: the latest instant a call was made at.
    now_ns: u64,
}

impl PooledCoordinator {
    /// Binds a pool to a launched cascade. `seal_seed` seeds the sealing
    /// entropy used for every fired round.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] for an invalid [`PoolConfig`].
    pub fn new(
        cascade: CascadeCoordinator,
        config: PoolConfig,
        seal_seed: u64,
    ) -> Result<Self, CascadeError> {
        Ok(PooledCoordinator {
            cascade,
            pool: MixPool::new(config)?,
            sealing_rng: StdRng::seed_from_u64(seal_seed),
            telemetry: mixnn_telemetry::noop(),
            spares: Vec::new(),
            now_ns: 0,
        })
    }

    /// Attaches a telemetry registry to the pool's counters and spans and
    /// to the underlying cascade. Its clock is never read for a firing.
    pub fn attach_telemetry(&mut self, telemetry: Telemetry) {
        self.cascade.attach_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// The underlying cascade (hop stats, skip state).
    pub fn cascade(&self) -> &CascadeCoordinator {
        &self.cascade
    }

    /// The pool's current state.
    pub fn pool(&self) -> &MixPool {
        &self.pool
    }

    /// How many updates whose values are dead the coordinator holds for
    /// the next firing to generate cover and decode into.
    pub fn spares(&self) -> usize {
        self.spares.len()
    }

    /// The pool clock: the latest instant a call was made at (0 before
    /// the first).
    pub fn now_ns(&self) -> u64 {
        self.now_ns
    }

    /// The absolute pool-clock time of the next deadline firing, if a
    /// pool is open.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.pool.next_deadline_ns()
    }

    /// Submits one arrival at `at_ns`, firing first any deadline that
    /// instant has passed and then any threshold this arrival completes —
    /// so a single submit can commit up to two rounds, in firing order.
    ///
    /// The arrival is pooled **whatever happens to the firings**: an
    /// update handed to `submit` is never lost to a wire fault.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::SignatureMismatch`] for an update whose
    /// layer signature is not the cascade's, and [`CascadeError::Pool`]
    /// for an `at_ns` earlier than the pool clock, before anything fires
    /// or is pooled: a foreign member would fail every firing it joined.
    ///
    /// A fired round's errors surface exactly as
    /// [`CascadeCoordinator::run_padded_round_over`]'s; the failed
    /// firing's members are restored into the pool (for a failed deadline
    /// firing, with the arrival queued behind them), so a later
    /// [`PooledCoordinator::tick`] or [`PooledCoordinator::flush`] retries
    /// them. If the deadline firing committed and only the threshold
    /// firing failed, the committed round is returned — its outputs must
    /// reach the server — and the restored members surface the failure on
    /// that retry.
    pub fn submit(
        &mut self,
        slot: usize,
        params: ModelParams,
        at_ns: u64,
        link: &mut dyn RoundLink,
    ) -> Result<Vec<PooledRound>, CascadeError> {
        let expected = self.cascade.signature();
        if !params.iter().map(|l| l.len()).eq(expected.iter().copied()) {
            return Err(CascadeError::SignatureMismatch {
                expected: expected.to_vec(),
                actual: params.signature(),
            });
        }
        self.advance_to(at_ns)?;
        let deadline = self.pool.poll(at_ns).map(|batch| self.fire(batch, link));
        let threshold = self.pool.offer(slot, params, at_ns);
        let mut fired = Vec::new();
        match deadline {
            Some(Ok(round)) => fired.push(round),
            Some(Err(e)) => {
                // The old members are back in the pool and the arrival
                // joined them; firing again over the wire that just failed
                // would only fail again.
                if let Some(batch) = threshold {
                    self.pool.restore(batch);
                }
                return Err(e);
            }
            None => {}
        }
        if let Some(batch) = threshold {
            match self.fire(batch, link) {
                Ok(round) => fired.push(round),
                Err(e) if fired.is_empty() => return Err(e),
                Err(_) => {}
            }
        }
        Ok(fired)
    }

    /// Fires the pool by deadline if `at_ns` has reached it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PooledCoordinator::submit`].
    pub fn tick(
        &mut self,
        at_ns: u64,
        link: &mut dyn RoundLink,
    ) -> Result<Option<PooledRound>, CascadeError> {
        self.advance_to(at_ns)?;
        match self.pool.poll(at_ns) {
            Some(batch) => self.fire(batch, link).map(Some),
            None => Ok(None),
        }
    }

    /// Force-fires whatever is pooled at `at_ns` (end of an experiment /
    /// shutdown).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PooledCoordinator::submit`].
    pub fn flush(
        &mut self,
        at_ns: u64,
        link: &mut dyn RoundLink,
    ) -> Result<Option<PooledRound>, CascadeError> {
        self.advance_to(at_ns)?;
        match self.pool.drain(at_ns) {
            Some(batch) => self.fire(batch, link).map(Some),
            None => Ok(None),
        }
    }

    /// Drives a trickle of `(slot, params, at_ns)` arrivals through the
    /// pool, returning every fired round in firing order. Before each
    /// arrival, every deadline the schedule passes fires at its own
    /// instant; the arrival is then submitted at its `at_ns`. After the
    /// last arrival the open pool's deadline is let elapse, and whatever
    /// is still pooled is flushed. Arrival times must not decrease.
    ///
    /// # Errors
    ///
    /// [`CascadeError::Pool`] at the first instant earlier than the pool
    /// clock, before anything fires at it; otherwise the first failed
    /// firing's error, as [`PooledCoordinator::submit`] reports it. The
    /// rounds fired before a failure are not returned, and the arrivals
    /// submitted before it stay pooled.
    pub fn trickle(
        &mut self,
        arrivals: impl IntoIterator<Item = (usize, ModelParams, u64)>,
        link: &mut dyn RoundLink,
    ) -> Result<Vec<PooledRound>, CascadeError> {
        let mut fired = Vec::new();
        for (slot, params, at_ns) in arrivals {
            while let Some(deadline) = self.next_deadline_ns().filter(|&d| d <= at_ns) {
                fired.extend(self.tick(deadline, link)?);
            }
            fired.extend(self.submit(slot, params, at_ns, link)?);
        }
        if let Some(deadline) = self.next_deadline_ns() {
            fired.extend(self.tick(deadline, link)?);
        }
        fired.extend(self.flush(self.now_ns, link)?);
        Ok(fired)
    }

    /// Moves the pool clock to `at_ns`, or refuses an instant before it.
    fn advance_to(&mut self, at_ns: u64) -> Result<(), CascadeError> {
        if at_ns < self.now_ns {
            return Err(CascadeError::Pool {
                reason: format!("{at_ns} ns is before the clock ({} ns)", self.now_ns),
            });
        }
        self.now_ns = at_ns;
        Ok(())
    }

    fn fire(
        &mut self,
        batch: PoolBatch,
        link: &mut dyn RoundLink,
    ) -> Result<PooledRound, CascadeError> {
        let padded = match self.cascade.run_padded_round_into(
            &batch.updates,
            self.pool.k(),
            &mut self.spares,
            &mut self.sealing_rng,
            link,
        ) {
            Ok(padded) => padded,
            Err(e) => {
                // Nothing committed: hand the members back so the pool
                // state stays consistent and the firing can be retried.
                self.pool.restore(batch);
                return Err(e);
            }
        };
        let waits_ns = batch.waits_ns();
        self.telemetry.incr(Counter::CascadePoolsFired, 1);
        self.telemetry
            .observe(Distribution::CascadePoolDepth, batch.updates.len() as u64);
        for &wait in &waits_ns {
            self.telemetry.record_span_ns(Span::CascadePoolWait, wait);
        }
        // Committed: the members' values are in the round's outputs.
        self.spares.extend(batch.updates);
        Ok(PooledRound {
            padded,
            slots: batch.slots,
            waits_ns,
            opened_at_ns: batch.opened_at_ns,
            fired_at_ns: batch.fired_at_ns,
            trigger: batch.trigger,
        })
    }
}

/// When client `client` of `clients` arrives after a round opens: the
/// `(client × spread_ns) / clients` schedule, spreading arrivals evenly
/// across the window in client order with pure integer arithmetic.
/// [`PooledCascadeTransport`] trickles each round on it, and so do
/// `mixnn-net`'s load generator and `eval pooled`.
///
/// # Panics
///
/// Panics when `clients` is zero (there is no schedule to place a client
/// in).
pub fn arrival_offset(client: usize, clients: usize, spread_ns: u64) -> u64 {
    assert!(clients > 0, "an arrival schedule needs at least one client");
    (client as u64 * spread_ns) / clients as u64
}

/// An [`UpdateTransport`] that feeds each federated round's updates
/// through a [`PooledCoordinator`] as a **trickle**
/// ([`PooledCoordinator::trickle`]): arrivals are spread over
/// `arrival_spread_ns` from the pool clock by [`arrival_offset`], pools
/// fire by threshold or deadline as the clock advances, and the round's
/// outputs are reassembled from every fired pool with cover stripped.
///
/// Slot ids are preserved exactly as [`crate::CascadeTransport`] preserves
/// them; contents are pool-mixed, so attribution requires covering a
/// member's entire route *and* out-waiting its pool.
///
/// A steady relay maps no fresh memory for an update: when it starts, the
/// previous relay's rounds are done with, and their mixed outputs join the
/// members of committed firings as what cover is generated into, what the
/// server decodes into and what the outputs are copied into. Between
/// relays it keeps exactly the [`PooledCascadeTransport::last_rounds`].
#[derive(Debug)]
pub struct PooledCascadeTransport {
    inner: PooledCoordinator,
    arrival_spread_ns: u64,
    last_rounds: Vec<PooledRound>,
}

impl PooledCascadeTransport {
    /// Wraps a pooled coordinator, attaching `telemetry` to it. Any
    /// registry will do, [`mixnn_telemetry::noop`] included: the pool
    /// keeps its own clock.
    ///
    /// # Errors
    ///
    /// Never fails. The `Result` is kept so that existing callers build
    /// unchanged.
    pub fn new(
        mut inner: PooledCoordinator,
        telemetry: Telemetry,
        arrival_spread_ns: u64,
    ) -> Result<Self, CascadeError> {
        inner.attach_telemetry(telemetry);
        Ok(PooledCascadeTransport {
            inner,
            arrival_spread_ns,
            last_rounds: Vec::new(),
        })
    }

    /// The pooled rounds the most recent relay fired, in firing order
    /// (experiments only).
    pub fn last_rounds(&self) -> &[PooledRound] {
        &self.last_rounds
    }

    /// The wrapped coordinator.
    pub fn coordinator(&self) -> &PooledCoordinator {
        &self.inner
    }

    fn relay_inner(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, CascadeError> {
        if updates.is_empty() {
            return Err(CascadeError::EmptyRound);
        }
        let spent = self
            .last_rounds
            .drain(..)
            .flat_map(|r| r.padded.round.mixed);
        self.inner.spares.extend(spent);
        let base = self.inner.now_ns();
        let n = updates.len();
        let spread = self.arrival_spread_ns;
        let order: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let arrivals = updates.into_iter().enumerate().map(|(i, update)| {
            let at = base + arrival_offset(i, n, spread);
            (update.client_id, update.params, at)
        });
        let fired = self.inner.trickle(arrivals, &mut InProcessLink)?;

        // Reassemble: each fired pool's stripped outputs are assigned to
        // its members' slot ids (contents are mixed within the pool, which
        // is the point), then everything returns in the callers' order.
        let spares = &mut self.inner.spares;
        let signature = self.inner.cascade.signature();
        let mut by_slot: Vec<(usize, ModelParams)> = Vec::with_capacity(n);
        for round in &fired {
            let outputs = round
                .padded
                .server_outputs_into(|| take_spare(spares, signature))?;
            by_slot.extend(round.slots.iter().copied().zip(outputs));
        }
        // What is left would outlive the relay it was sized for.
        spares.clear();
        self.last_rounds = fired;
        order
            .into_iter()
            .map(|slot| {
                by_slot
                    .iter()
                    .position(|(s, _)| *s == slot)
                    .map(|i| {
                        let (slot, params) = by_slot.swap_remove(i);
                        ModelUpdate::new(slot, params)
                    })
                    .ok_or_else(|| CascadeError::Pool {
                        reason: format!("no fired pool returned an output for slot {slot}"),
                    })
            })
            .collect()
    }
}

impl UpdateTransport for PooledCascadeTransport {
    fn label(&self) -> &str {
        "mixnn-cascade-pooled"
    }

    fn relay(&mut self, updates: Vec<ModelUpdate>) -> Result<Vec<ModelUpdate>, FlError> {
        // All or nothing, like the proxy's held batch: a failed relay
        // leaves nothing pooled to be fired into the next one, and no
        // record of the rounds before it.
        self.relay_inner(updates)
            .inspect_err(|_| {
                self.inner.pool.drain(0);
                self.inner.spares.clear();
                self.last_rounds.clear();
            })
            .map_err(FlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FailurePolicy, LinearChain};
    use mixnn_nn::LayerParams;
    use mixnn_telemetry::{ClockSource, Registry, VirtualClock};

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![-(i as f32); 2]),
        ])
    }

    fn cascade(hops: usize) -> CascadeCoordinator {
        let chain = Box::new(LinearChain::new(hops));
        CascadeCoordinator::launch_seeded(vec![3, 2], chain, 9, FailurePolicy::Abort)
            .unwrap()
            .0
    }

    fn pooled(k: usize, deadline_ns: u64) -> PooledCoordinator {
        PooledCoordinator::new(cascade(2), PoolConfig { k, deadline_ns }, 7).unwrap()
    }

    #[test]
    fn config_validation_rejects_zeroes() {
        assert!(matches!(
            MixPool::new(PoolConfig {
                k: 0,
                deadline_ns: 1
            }),
            Err(CascadeError::Pool { .. })
        ));
        assert!(matches!(
            MixPool::new(PoolConfig {
                k: 1,
                deadline_ns: 0
            }),
            Err(CascadeError::Pool { .. })
        ));
    }

    #[test]
    fn pool_fires_by_threshold_in_arrival_order() {
        let mut pool = MixPool::new(PoolConfig {
            k: 3,
            deadline_ns: u64::MAX,
        })
        .unwrap();
        assert!(pool.offer(10, params(0), 5).is_none());
        assert!(pool.offer(11, params(1), 6).is_none());
        assert_eq!(pool.len(), 2);
        let batch = pool.offer(12, params(2), 9).expect("third arrival fires");
        assert_eq!(batch.trigger, PoolTrigger::Threshold);
        assert_eq!(batch.slots, vec![10, 11, 12]);
        assert_eq!(batch.opened_at_ns, 5);
        assert_eq!(batch.fired_at_ns, 9);
        assert_eq!(batch.waits_ns(), vec![4, 3, 0]);
        assert!(pool.is_empty());
        assert!(pool.next_deadline_ns().is_none());
    }

    #[test]
    fn pool_fires_by_deadline_when_underfull() {
        let mut pool = MixPool::new(PoolConfig {
            k: 8,
            deadline_ns: 100,
        })
        .unwrap();
        assert!(pool.offer(0, params(0), 50).is_none());
        assert_eq!(pool.next_deadline_ns(), Some(150));
        assert!(pool.poll(149).is_none());
        let batch = pool.poll(150).expect("deadline elapsed");
        assert_eq!(batch.trigger, PoolTrigger::Deadline);
        assert_eq!(batch.updates.len(), 1);
        assert!(pool.poll(1000).is_none(), "closed pool has no deadline");
    }

    #[test]
    fn restore_preserves_arrival_order_and_open_time() {
        let mut pool = MixPool::new(PoolConfig {
            k: 2,
            deadline_ns: u64::MAX,
        })
        .unwrap();
        pool.offer(1, params(1), 10);
        let batch = pool.offer(2, params(2), 20).unwrap();
        pool.offer(3, params(3), 30);
        pool.restore(batch);
        assert_eq!(pool.len(), 3);
        assert_eq!(
            pool.next_deadline_ns(),
            Some(10_u64.saturating_add(u64::MAX))
        );
        let refired = pool.drain(40).unwrap();
        assert_eq!(refired.slots, vec![1, 2, 3]);
        assert_eq!(refired.opened_at_ns, 10);
    }

    #[test]
    fn threshold_round_pads_nothing_and_strips_to_identity() {
        let mut p = pooled(3, u64::MAX);
        let mut link = InProcessLink;
        assert!(p.submit(0, params(0), 0, &mut link).unwrap().is_empty());
        assert!(p.submit(1, params(1), 0, &mut link).unwrap().is_empty());
        let rounds = p.submit(2, params(2), 0, &mut link).unwrap();
        assert_eq!(rounds.len(), 1);
        let round = &rounds[0];
        assert_eq!(round.trigger, PoolTrigger::Threshold);
        assert_eq!(round.real(), 3);
        assert_eq!(
            round.dummies(),
            0,
            "a full pool over one chain needs no cover"
        );
        let stripped = round.server_outputs().unwrap();
        let originals: Vec<ModelParams> = (0..3).map(params).collect();
        assert_eq!(ModelParams::mean(&stripped), ModelParams::mean(&originals));
    }

    #[test]
    fn deadline_round_is_padded_to_the_k_floor() {
        let mut p = pooled(5, 1_000);
        let mut link = InProcessLink;
        p.submit(0, params(0), 10, &mut link).unwrap();
        p.submit(1, params(1), 200, &mut link).unwrap();
        assert!(
            p.tick(200, &mut link).unwrap().is_none(),
            "deadline not reached"
        );
        let round = p.tick(1_010, &mut link).unwrap().expect("deadline fires");
        assert_eq!(round.trigger, PoolTrigger::Deadline);
        assert_eq!(round.real(), 2);
        assert_eq!(round.dummies(), 3, "padded up to k = 5");
        assert_eq!(round.waits_ns, vec![1_000, 810]);
        for group in round.audit().groups() {
            assert!(group.members() >= 5, "k-floor holds on every group");
        }
        // Stripping recovers exactly the real aggregate.
        let stripped = round.server_outputs().unwrap();
        let originals: Vec<ModelParams> = (0..2).map(params).collect();
        assert_eq!(ModelParams::mean(&stripped), ModelParams::mean(&originals));
    }

    #[test]
    fn submit_after_elapsed_deadline_fires_old_pool_first() {
        let mut p = pooled(2, 100);
        let mut link = InProcessLink;
        p.submit(7, params(7), 0, &mut link).unwrap();
        // The clock jumps past the deadline before the next arrival: the
        // old pool fires by deadline, the arrival opens a fresh pool.
        let fired = p.submit(8, params(8), 500, &mut link).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].trigger, PoolTrigger::Deadline);
        assert_eq!(fired[0].slots, vec![7]);
        assert_eq!(p.pool().len(), 1, "the new arrival is pooled, not fired");
    }

    #[test]
    fn a_trickle_refuses_an_arrival_before_the_clock() {
        // Each call reaches the clock at 10 with one arrival, then is
        // handed 5. The refusal names both instants, so it read the
        // clock the first arrival left.
        type Late = fn(&mut PooledCoordinator) -> Result<(), CascadeError>;
        let calls: [(&str, Late); 4] = [
            ("trickle", |p| {
                let arrivals = [(0, params(0), 10), (1, params(1), 5)];
                p.trickle(arrivals, &mut InProcessLink).map(drop)
            }),
            ("submit", |p| {
                p.submit(0, params(0), 10, &mut InProcessLink)?;
                p.submit(1, params(1), 5, &mut InProcessLink).map(drop)
            }),
            ("tick", |p| {
                p.submit(0, params(0), 10, &mut InProcessLink)?;
                p.tick(5, &mut InProcessLink).map(drop)
            }),
            ("flush", |p| {
                p.submit(0, params(0), 10, &mut InProcessLink)?;
                p.flush(5, &mut InProcessLink).map(drop)
            }),
        ];
        for (call, late) in calls {
            let mut p = pooled(4, 1_000);
            let err = late(&mut p).unwrap_err();
            assert!(
                matches!(&err, CascadeError::Pool { reason }
                    if reason == "5 ns is before the clock (10 ns)"),
                "{call}: {err}"
            );
            assert_eq!(p.now_ns(), 10, "{call}: the clock was never set back");
            assert_eq!(p.pool().len(), 1, "{call}: the first arrival stays pooled");
        }
    }

    /// Delivers in-process until `healthy_deliveries` run out, then times
    /// out every segment.
    struct FailingAfter {
        healthy_deliveries: usize,
    }

    impl RoundLink for FailingAfter {
        fn deliver(
            &mut self,
            from: mixnn_core::Endpoint,
            to: mixnn_core::Endpoint,
            messages: Vec<Vec<u8>>,
        ) -> Result<Vec<Vec<u8>>, mixnn_core::LinkError> {
            if self.healthy_deliveries == 0 {
                return Err(mixnn_core::LinkError::Timeout {
                    from,
                    to,
                    delivered: 0,
                    expected: messages.len(),
                });
            }
            self.healthy_deliveries -= 1;
            Ok(messages)
        }
    }

    #[test]
    fn committed_deadline_round_survives_a_failed_threshold_firing() {
        // k = 1: a failed firing leaves member 7 pooled; on the next
        // arrival the deadline firing commits it and the arrival's own
        // threshold firing hits the dead wire. The committed round must
        // come back (its outputs belong to the server) and the arrival
        // must stay pooled for the retry.
        let mut p = pooled(1, 100);
        let mut dead = FailingAfter {
            healthy_deliveries: 0,
        };
        assert!(p.submit(7, params(7), 0, &mut dead).is_err());
        assert_eq!(p.pool().len(), 1);

        // A 2-hop round is three deliveries: enough for one firing only.
        let mut one_round = FailingAfter {
            healthy_deliveries: 3,
        };
        let fired = p.submit(8, params(8), 500, &mut one_round).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].slots, vec![7]);
        assert_eq!(p.pool().len(), 1, "the arrival waits for the retry");

        let retried = p.flush(500, &mut InProcessLink).unwrap().expect("retry");
        assert_eq!(retried.slots, vec![8]);
    }

    #[test]
    fn the_registry_cannot_change_what_fires() {
        // Two deadline firings, a threshold firing between them, and the
        // closing deadline.
        let schedule = [0, 300, 2_000, 2_100, 2_200, 5_000, 9_000];
        let clock = VirtualClock::new();
        let registries = [
            mixnn_telemetry::noop(),
            Registry::new().shared(),
            Registry::with_virtual_clock(clock.clone()).shared(),
        ];
        let runs: Vec<Vec<PooledRound>> = registries
            .into_iter()
            .map(|telemetry| {
                let mut p = pooled(3, 1_000);
                p.attach_telemetry(telemetry);
                let arrivals = schedule
                    .iter()
                    .enumerate()
                    .map(|(slot, &at)| (slot, params(slot), at));
                p.trickle(arrivals, &mut InProcessLink).unwrap()
            })
            .collect();
        let triggers: Vec<PoolTrigger> = runs[0].iter().map(|r| r.trigger).collect();
        use PoolTrigger::{Deadline, Threshold};
        assert_eq!(triggers, [Deadline, Threshold, Deadline, Deadline]);
        assert_eq!(runs[0], runs[1], "a wall-clock registry");
        assert_eq!(runs[0], runs[2], "a virtual-clock registry");
        assert_eq!(
            clock.now_ns(),
            0,
            "the pool never writes a registry's clock"
        );
    }

    #[test]
    fn pool_telemetry_counts_fires_dummies_and_waits() {
        let telemetry = Registry::new().shared();
        let mut p = pooled(4, 50);
        p.attach_telemetry(telemetry.clone());
        let mut link = InProcessLink;
        p.submit(0, params(0), 0, &mut link).unwrap();
        p.tick(50, &mut link).unwrap().expect("deadline fire");
        assert_eq!(telemetry.counter(Counter::CascadePoolsFired), 1);
        assert_eq!(telemetry.counter(Counter::CascadeDummiesInjected), 3);
        let snap = telemetry.snapshot();
        let depth = snap
            .histograms
            .iter()
            .find(|h| h.component == "cascade" && h.name == "pool_depth")
            .unwrap();
        assert_eq!(depth.count, 1);
        assert_eq!(depth.sum, 1, "depth records REAL updates, not padded total");
        let wait = snap
            .histograms
            .iter()
            .find(|h| h.component == "cascade" && h.name == "pool_wait_ns")
            .unwrap();
        assert_eq!(wait.count, 1);
        assert_eq!(wait.sum, 50);
    }

    #[test]
    fn pooled_transport_relay_covers_every_slot_and_keeps_the_aggregate() {
        let p = pooled(4, 5_000);
        let mut t = PooledCascadeTransport::new(p, mixnn_telemetry::noop(), 10_000).unwrap();
        let ins: Vec<ModelUpdate> = (0..10)
            .map(|i| ModelUpdate::new(100 + i, params(i)))
            .collect();
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(outs.len(), ins.len());
        let in_slots: Vec<usize> = ins.iter().map(|u| u.client_id).collect();
        let out_slots: Vec<usize> = outs.iter().map(|u| u.client_id).collect();
        assert_eq!(in_slots, out_slots, "slot ids survive in caller order");
        let a: Vec<ModelParams> = ins.into_iter().map(|u| u.params).collect();
        let b: Vec<ModelParams> = outs.into_iter().map(|u| u.params).collect();
        assert_eq!(
            ModelParams::mean(&a),
            ModelParams::mean(&b),
            "cover stripped: the aggregate is the real clients'"
        );
        assert!(!t.last_rounds().is_empty());
        let total_real: usize = t.last_rounds().iter().map(PooledRound::real).sum();
        assert_eq!(total_real, 10);
        for round in t.last_rounds() {
            assert!(round.real() + round.dummies() >= 4, "k-floor on every pool");
        }
        assert_eq!(t.label(), "mixnn-cascade-pooled");
    }

    #[test]
    fn pooled_transport_is_deterministic_across_reruns() {
        let run = || {
            let p = pooled(3, 2_000);
            let mut t = PooledCascadeTransport::new(p, mixnn_telemetry::noop(), 8_000).unwrap();
            let ins: Vec<ModelUpdate> = (0..7).map(|i| ModelUpdate::new(i, params(i))).collect();
            let outs = t.relay(ins).unwrap();
            let rounds: Vec<(Vec<usize>, PoolTrigger, usize)> = t
                .last_rounds()
                .iter()
                .map(|r| (r.slots.clone(), r.trigger, r.dummies()))
                .collect();
            (
                outs.into_iter()
                    .map(|u| (u.client_id, u.params))
                    .collect::<Vec<_>>(),
                rounds,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn a_foreign_update_fails_its_relay_and_leaves_the_pool_empty() {
        let p = pooled(4, u64::MAX);
        let mut t = PooledCascadeTransport::new(p, mixnn_telemetry::noop(), 1_000).unwrap();
        let round = |base: usize| -> Vec<ModelUpdate> {
            (0..4)
                .map(|i| ModelUpdate::new(i, params(base + i)))
                .collect()
        };
        let mean = |us: &[ModelUpdate]| {
            ModelParams::mean(&us.iter().map(|u| u.params.clone()).collect::<Vec<_>>())
        };
        t.relay(round(0)).unwrap();

        // Three honest members pool before the foreign one arrives.
        let mut foreign = round(100);
        foreign[3].params = ModelParams::from_layers(vec![LayerParams::from_values(vec![1.0])]);
        let err = t.relay(foreign).unwrap_err().to_string();
        assert!(err.contains("[1]"), "{err}");
        assert!(
            t.coordinator().pool().is_empty(),
            "nothing outlives a failed relay"
        );
        assert!(t.last_rounds().is_empty());

        // The next honest relay commits its own members, and only them.
        let ins = round(1000);
        let outs = t.relay(ins.clone()).unwrap();
        assert_eq!(mean(&outs), mean(&ins));
        let total_real: usize = t.last_rounds().iter().map(PooledRound::real).sum();
        assert_eq!(total_real, 4);
    }
}
