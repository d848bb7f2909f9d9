//! Continuous pooled mixing with hop-generated cover traffic.
//!
//! The round-synchronous cascade waits for **all** clients before firing;
//! production traffic trickles. A [`MixPool`] buffers arrivals and fires a
//! *partial* round when either of two conditions holds:
//!
//! * **threshold** — the pool holds at least `k` real updates, or
//! * **deadline** — `deadline_ns` elapsed since the first update of the
//!   current pool arrived, measured on the telemetry clock.
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
//! Time is read from the telemetry [`mixnn_telemetry::ClockSource`], so a
//! [`VirtualClock`]-backed registry (the one `mixnn-net`'s simulator
//! drives) makes deadline behaviour a pure function of the arrival
//! schedule — `eval pooled` runs are bit-reproducible. The default
//! [`mixnn_telemetry::noop`] handle pins time at 0, so deadlines never
//! fire and a [`PooledCoordinator`] degrades to threshold-only batching —
//! also deterministic.

use crate::{CascadeAudit, CascadeCoordinator, CascadeError, PaddedRound};
use mixnn_core::{InProcessLink, RoundLink};
use mixnn_fl::{FlError, ModelUpdate, UpdateTransport};
use mixnn_nn::ModelParams;
use mixnn_telemetry::{Counter, Distribution, Span, Telemetry, VirtualClock};
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
    /// fires under-full, in nanoseconds on the telemetry clock. Must be at
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
/// binds it to the telemetry clock.
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
    /// The padded round the cascade committed (real slots `0..real` are
    /// the pool members in arrival order, trailing slots are cover).
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
    /// Number of real member updates.
    pub fn real(&self) -> usize {
        self.padded.real
    }

    /// Number of cover updates injected.
    pub fn dummies(&self) -> usize {
        self.padded.dummies()
    }

    /// The round's audit (covers real **and** cover slots — they are
    /// indistinguishable below the server).
    pub fn audit(&self) -> &CascadeAudit {
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
/// Time is the attached telemetry registry's clock. Attach a
/// [`mixnn_telemetry::Registry::with_virtual_clock`] registry and drive
/// its [`VirtualClock`] (or let `mixnn-net`'s simulator mirror its event
/// clock into it) for deterministic deadline behaviour; the default
/// [`mixnn_telemetry::noop`] handle freezes time at 0, which disables
/// deadlines and leaves pure threshold batching.
#[derive(Debug)]
pub struct PooledCoordinator {
    cascade: CascadeCoordinator,
    pool: MixPool,
    /// RNG standing in for the participants' (and cover's) onion-sealing
    /// entropy.
    sealing_rng: StdRng,
    telemetry: Telemetry,
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
        })
    }

    /// Attaches a telemetry registry to the pool (its clock becomes the
    /// deadline clock) and to the underlying cascade.
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

    /// Current time on the pool clock (the telemetry clock).
    pub fn now_ns(&self) -> u64 {
        self.telemetry.now_ns()
    }

    /// The absolute pool-clock time of the next deadline firing, if a
    /// pool is open.
    pub fn next_deadline_ns(&self) -> Option<u64> {
        self.pool.next_deadline_ns()
    }

    /// Submits one arrival, firing first any deadline the clock has
    /// passed and then any threshold this arrival completes — so a single
    /// submit can commit up to two rounds, in firing order.
    ///
    /// The arrival is pooled **whatever happens to the firings**: an
    /// update handed to `submit` is never lost to a wire fault.
    ///
    /// # Errors
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
        link: &mut dyn RoundLink,
    ) -> Result<Vec<PooledRound>, CascadeError> {
        let now = self.now_ns();
        let deadline = self.pool.poll(now).map(|batch| self.fire(batch, link));
        let threshold = self.pool.offer(slot, params, now);
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

    /// Fires the pool by deadline if the clock has reached it.
    ///
    /// # Errors
    ///
    /// Same conditions as [`PooledCoordinator::submit`].
    pub fn tick(&mut self, link: &mut dyn RoundLink) -> Result<Option<PooledRound>, CascadeError> {
        match self.pool.poll(self.now_ns()) {
            Some(batch) => self.fire(batch, link).map(Some),
            None => Ok(None),
        }
    }

    /// Force-fires whatever is pooled (end of an experiment / shutdown).
    ///
    /// # Errors
    ///
    /// Same conditions as [`PooledCoordinator::submit`].
    pub fn flush(&mut self, link: &mut dyn RoundLink) -> Result<Option<PooledRound>, CascadeError> {
        match self.pool.drain(self.now_ns()) {
            Some(batch) => self.fire(batch, link).map(Some),
            None => Ok(None),
        }
    }

    /// Drives a trickle of `(slot, params, at_ns)` arrivals through the
    /// pool on the attached registry's [`VirtualClock`], returning every
    /// fired round in firing order. Before each arrival, every deadline the
    /// schedule passes fires at its own instant; the clock is then set to
    /// the arrival's `at_ns` and the arrival submitted. After the last
    /// arrival the open pool's deadline is let elapse, and whatever is
    /// still pooled is flushed. Arrival times must not decrease.
    ///
    /// # Errors
    ///
    /// [`CascadeError::Pool`] when the attached registry has no virtual
    /// clock (deadlines would be non-deterministic or dead); otherwise the
    /// first failed firing's error, as [`PooledCoordinator::submit`]
    /// reports it. The rounds fired before a failure are not returned.
    pub fn trickle(
        &mut self,
        arrivals: impl IntoIterator<Item = (usize, ModelParams, u64)>,
        link: &mut dyn RoundLink,
    ) -> Result<Vec<PooledRound>, CascadeError> {
        let clock = virtual_clock(&self.telemetry)?;
        let mut fired = Vec::new();
        for (slot, params, at_ns) in arrivals {
            while let Some(deadline) = self.next_deadline_ns() {
                if deadline > at_ns {
                    break;
                }
                clock.set_ns(deadline);
                fired.extend(self.tick(link)?);
            }
            clock.set_ns(at_ns);
            fired.extend(self.submit(slot, params, link)?);
        }
        if let Some(deadline) = self.next_deadline_ns() {
            clock.set_ns(deadline);
            fired.extend(self.tick(link)?);
        }
        fired.extend(self.flush(link)?);
        Ok(fired)
    }

    fn fire(
        &mut self,
        batch: PoolBatch,
        link: &mut dyn RoundLink,
    ) -> Result<PooledRound, CascadeError> {
        let padded = match self.cascade.run_padded_round_over(
            &batch.updates,
            self.pool.k(),
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

/// The virtual clock a pooled trickle drives, or the typed error for a
/// registry without one.
fn virtual_clock(telemetry: &Telemetry) -> Result<VirtualClock, CascadeError> {
    telemetry.virtual_clock().ok_or_else(|| CascadeError::Pool {
        reason: "a pooled trickle needs a virtual-clock telemetry registry \
                 to drive deadlines deterministically"
            .to_string(),
    })
}

/// An [`UpdateTransport`] that feeds each federated round's updates
/// through a [`PooledCoordinator`] as a **trickle**
/// ([`PooledCoordinator::trickle`]): arrivals are spread evenly over
/// `arrival_spread_ns` on the registry's [`VirtualClock`] (the same
/// `(i × spread) / n` schedule `mixnn-net`'s load generator emits), pools
/// fire by threshold or deadline as the clock advances, and the round's
/// outputs are reassembled from every fired pool with cover stripped.
///
/// Slot ids are preserved exactly as [`crate::CascadeTransport`] preserves
/// them; contents are pool-mixed, so attribution requires covering a
/// member's entire route *and* out-waiting its pool.
#[derive(Debug)]
pub struct PooledCascadeTransport {
    inner: PooledCoordinator,
    arrival_spread_ns: u64,
    last_rounds: Vec<PooledRound>,
}

impl PooledCascadeTransport {
    /// Wraps a pooled coordinator. `telemetry` **must** be a registry
    /// built on a [`VirtualClock`] — each relay drives that clock through
    /// the round's arrival schedule.
    ///
    /// # Errors
    ///
    /// Returns [`CascadeError::Pool`] when the registry has no virtual
    /// clock (deadlines would be non-deterministic or dead).
    pub fn new(
        mut inner: PooledCoordinator,
        telemetry: Telemetry,
        arrival_spread_ns: u64,
    ) -> Result<Self, CascadeError> {
        virtual_clock(&telemetry)?;
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
        let base = self.inner.now_ns();
        let n = updates.len();
        let spread = self.arrival_spread_ns;
        let order: Vec<usize> = updates.iter().map(|u| u.client_id).collect();
        let arrivals = updates.into_iter().enumerate().map(|(i, update)| {
            let at = base + (i as u64 * spread) / n as u64;
            (update.client_id, update.params, at)
        });
        let fired = self.inner.trickle(arrivals, &mut InProcessLink)?;

        // Reassemble: each fired pool's stripped outputs are assigned to
        // its members' slot ids (contents are mixed within the pool, which
        // is the point), then everything returns in the callers' order.
        let mut by_slot: Vec<(usize, ModelParams)> = Vec::with_capacity(n);
        for round in &fired {
            let outputs = round.server_outputs()?;
            by_slot.extend(round.slots.iter().copied().zip(outputs));
        }
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
        self.relay_inner(updates).map_err(FlError::from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FailurePolicy;
    use mixnn_enclave::AttestationService;
    use mixnn_nn::LayerParams;
    use mixnn_telemetry::Registry;

    fn params(i: usize) -> ModelParams {
        ModelParams::from_layers(vec![
            LayerParams::from_values(vec![i as f32; 3]),
            LayerParams::from_values(vec![-(i as f32); 2]),
        ])
    }

    fn cascade(hops: usize) -> CascadeCoordinator {
        let mut rng = StdRng::seed_from_u64(41);
        let service = AttestationService::new(&mut rng);
        CascadeCoordinator::linear(
            vec![3, 2],
            hops,
            9,
            FailurePolicy::Abort,
            &service,
            &mut rng,
        )
        .unwrap()
    }

    fn pooled(k: usize, deadline_ns: u64) -> (PooledCoordinator, VirtualClock) {
        let clock = VirtualClock::new();
        let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
        let mut p = PooledCoordinator::new(cascade(2), PoolConfig { k, deadline_ns }, 7).unwrap();
        p.attach_telemetry(telemetry);
        (p, clock)
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
        let (mut p, _clock) = pooled(3, u64::MAX);
        let mut link = InProcessLink;
        assert!(p.submit(0, params(0), &mut link).unwrap().is_empty());
        assert!(p.submit(1, params(1), &mut link).unwrap().is_empty());
        let rounds = p.submit(2, params(2), &mut link).unwrap();
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
        let (mut p, clock) = pooled(5, 1_000);
        let mut link = InProcessLink;
        clock.set_ns(10);
        p.submit(0, params(0), &mut link).unwrap();
        clock.set_ns(200);
        p.submit(1, params(1), &mut link).unwrap();
        assert!(p.tick(&mut link).unwrap().is_none(), "deadline not reached");
        clock.set_ns(1_010);
        let round = p.tick(&mut link).unwrap().expect("deadline fires");
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
        let (mut p, clock) = pooled(2, 100);
        let mut link = InProcessLink;
        clock.set_ns(0);
        p.submit(7, params(7), &mut link).unwrap();
        // The clock jumps past the deadline before the next arrival: the
        // old pool fires by deadline, the arrival opens a fresh pool.
        clock.set_ns(500);
        let fired = p.submit(8, params(8), &mut link).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].trigger, PoolTrigger::Deadline);
        assert_eq!(fired[0].slots, vec![7]);
        assert_eq!(p.pool().len(), 1, "the new arrival is pooled, not fired");
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
        let (mut p, clock) = pooled(1, 100);
        let mut dead = FailingAfter {
            healthy_deliveries: 0,
        };
        assert!(p.submit(7, params(7), &mut dead).is_err());
        assert_eq!(p.pool().len(), 1);

        clock.set_ns(500);
        // A 2-hop round is three deliveries: enough for one firing only.
        let mut one_round = FailingAfter {
            healthy_deliveries: 3,
        };
        let fired = p.submit(8, params(8), &mut one_round).unwrap();
        assert_eq!(fired.len(), 1);
        assert_eq!(fired[0].slots, vec![7]);
        assert_eq!(p.pool().len(), 1, "the arrival waits for the retry");

        let retried = p.flush(&mut InProcessLink).unwrap().expect("retry");
        assert_eq!(retried.slots, vec![8]);
    }

    #[test]
    fn noop_telemetry_freezes_deadlines() {
        let mut p = PooledCoordinator::new(
            cascade(1),
            PoolConfig {
                k: 3,
                deadline_ns: 1,
            },
            7,
        )
        .unwrap();
        let mut link = InProcessLink;
        p.submit(0, params(0), &mut link).unwrap();
        // now_ns() is pinned at 0 and the pool opened at 0, but the
        // deadline is `opened + 1` — it can never be reached.
        assert!(p.tick(&mut link).unwrap().is_none());
        assert_eq!(p.pool().len(), 1);
    }

    #[test]
    fn pool_telemetry_counts_fires_dummies_and_waits() {
        let clock = VirtualClock::new();
        let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
        let mut p = PooledCoordinator::new(
            cascade(2),
            PoolConfig {
                k: 4,
                deadline_ns: 50,
            },
            7,
        )
        .unwrap();
        p.attach_telemetry(telemetry.clone());
        let mut link = InProcessLink;
        p.submit(0, params(0), &mut link).unwrap();
        clock.set_ns(50);
        p.tick(&mut link).unwrap().expect("deadline fire");
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
    fn pooled_transport_requires_a_virtual_clock() {
        let p = PooledCoordinator::new(
            cascade(1),
            PoolConfig {
                k: 2,
                deadline_ns: 1,
            },
            7,
        )
        .unwrap();
        let err = PooledCascadeTransport::new(p, Registry::disabled().shared(), 1_000).unwrap_err();
        assert!(matches!(err, CascadeError::Pool { .. }));
    }

    #[test]
    fn pooled_transport_relay_covers_every_slot_and_keeps_the_aggregate() {
        let clock = VirtualClock::new();
        let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
        let p = PooledCoordinator::new(
            cascade(2),
            PoolConfig {
                k: 4,
                deadline_ns: 5_000,
            },
            7,
        )
        .unwrap();
        let mut t = PooledCascadeTransport::new(p, telemetry, 10_000).unwrap();
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
            let clock = VirtualClock::new();
            let telemetry = Registry::with_virtual_clock(clock.clone()).shared();
            let p = PooledCoordinator::new(
                cascade(2),
                PoolConfig {
                    k: 3,
                    deadline_ns: 2_000,
                },
                7,
            )
            .unwrap();
            let mut t = PooledCascadeTransport::new(p, telemetry, 8_000).unwrap();
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
}
