//! The static metric universe: every series the workspace can ever export.
//!
//! All metric identifiers are enums declared here, so the exported
//! cardinality is bounded *by construction*: a [`crate::Registry`] owns one
//! atomic slot per variant and nothing else — there is no API for minting a
//! series at runtime, which is what makes the privacy claim ("no per-client
//! or per-route-group label axis") a static property rather than a
//! convention. Each identifier carries its `(component, name)` key and a
//! help string; exporters render from [`Counter::ALL`]-style tables in
//! declaration order, so snapshots are deterministically ordered too.

use std::sync::atomic::{AtomicU64, Ordering};

/// The instrumented subsystem a metric belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Component {
    /// The single-proxy ingest/mix pipeline (`mixnn-core`).
    Core,
    /// The multi-hop cascade coordinator and hops (`mixnn-cascade`).
    Cascade,
    /// The simulated wire (`mixnn-net`).
    Net,
    /// Federated-learning round progression (`mixnn-fl`).
    Fl,
}

impl Component {
    /// Stable lowercase name used in exported series names.
    pub fn name(self) -> &'static str {
        match self {
            Component::Core => "core",
            Component::Cascade => "cascade",
            Component::Net => "net",
            Component::Fl => "fl",
        }
    }
}

/// Declares a metric-identifier enum whose variants each carry a static
/// `(component, name, help)` triple, plus the `ALL`/`COUNT` tables the
/// registry and exporters index by.
macro_rules! metric_ids {
    (
        $(#[$meta:meta])*
        $vis:vis enum $E:ident {
            $($variant:ident => ($component:ident, $name:literal, $help:literal),)+
        }
    ) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        $vis enum $E {
            $(
                #[doc = $help]
                $variant,
            )+
        }

        impl $E {
            /// Every identifier, in declaration (= export) order.
            $vis const ALL: [$E; $E::COUNT] = [$($E::$variant),+];
            /// Number of identifiers (the registry's slot count).
            $vis const COUNT: usize = [$(stringify!($variant)),+].len();

            /// The subsystem this series belongs to.
            $vis fn component(self) -> Component {
                match self {
                    $($E::$variant => Component::$component,)+
                }
            }

            /// The series name within its component.
            $vis fn name(self) -> &'static str {
                match self {
                    $($E::$variant => $name,)+
                }
            }

            /// One-line help string rendered into `# HELP` lines.
            $vis fn help(self) -> &'static str {
                match self {
                    $($E::$variant => $help,)+
                }
            }

            /// The registry slot index of this identifier.
            $vis fn index(self) -> usize {
                self as usize
            }
        }
    };
}

metric_ids! {
    /// Monotone counters. Every increment site sits on the in-order round
    /// path (the proxy's per-update commit, a hop's per-round stats
    /// absorption, the single-threaded simulator loop), so counter values
    /// are a pure function of the seed and the inputs.
    pub enum Counter {
        CoreUpdatesCommitted => (Core, "updates_committed", "Sealed updates accepted into the mixing pipeline."),
        CoreUpdatesRejected => (Core, "updates_rejected", "Sealed updates rejected during ingest (decrypt, decode, signature, or EPC failures)."),
        CoreEnvelopesOpened => (Core, "envelopes_opened", "Sealed envelopes successfully opened, decoded and charged."),
        CoreBytesReceived => (Core, "bytes_received", "Ciphertext bytes of accepted updates."),
        CoreBatchesMixed => (Core, "batches_mixed", "Buffered batches flushed through a full layer-mixing plan."),
        CascadeUpdatesIngested => (Cascade, "updates_ingested", "Onion envelopes accepted by cascade hops (summed over hops)."),
        CascadeUpdatesRejected => (Cascade, "updates_rejected", "Onion envelopes rejected by cascade hops."),
        CascadeUpdatesForwarded => (Cascade, "updates_forwarded", "Mixed envelopes forwarded to the next stage (summed over hops)."),
        CascadeBytesReceived => (Cascade, "bytes_received", "Onion ciphertext bytes received by cascade hops."),
        CascadeEnvelopesOpened => (Cascade, "envelopes_opened", "Sealed envelopes opened by cascade hops for the onions they accepted (summed over hops)."),
        CascadeRoundsCompleted => (Cascade, "rounds_completed", "Cascade rounds that committed a mixed output batch."),
        CascadeRoundsAborted => (Cascade, "rounds_aborted", "Cascade rounds abandoned under the failure policy."),
        CascadeGroupsMixed => (Cascade, "groups_mixed", "Route groups carried through their full hop sequence."),
        CascadeHopsSkipped => (Cascade, "hops_skipped", "Hops dropped from the active chain by FailurePolicy::Skip."),
        CascadePoolsFired => (Cascade, "pools_fired", "Mix pools fired into a cascade round (threshold or deadline)."),
        CascadeDummiesInjected => (Cascade, "dummies_injected", "Hop-generated cover updates injected to pad pools and route groups."),
        NetPacketsSent => (Net, "packets_sent", "Packets handed to the simulated wire."),
        NetPacketsDelivered => (Net, "packets_delivered", "Packets that reached their destination queue."),
        NetPacketsLost => (Net, "packets_lost", "Packets dropped by configured link loss."),
        NetPacketsReordered => (Net, "packets_reordered", "Packets routed through the reorder detour."),
        NetWireBytes => (Net, "wire_bytes", "Total bytes put on the simulated wire."),
        NetBurstsFlushed => (Net, "bursts_flushed", "Frame bursts flushed by the link layer."),
        NetLinkErrors => (Net, "link_errors", "Deliveries that failed with a link error (timeout or connection)."),
        FlRoundsCompleted => (Fl, "rounds_completed", "Federated rounds aggregated by the server."),
        FlClientsTrained => (Fl, "clients_trained", "Client training runs completed across all rounds."),
    }
}

metric_ids! {
    /// High-water-mark gauges (updated with a monotone max).
    pub enum Gauge {
        NetPeakSendQueue => (Net, "peak_send_queue", "Deepest send queue observed on any simulated link."),
        NetPeakRecvQueue => (Net, "peak_recv_queue", "Deepest delivery queue observed on any simulated node."),
    }
}

metric_ids! {
    /// Fixed-bucket value distributions (aggregate sizes only — never keyed
    /// by client, slot, or route group).
    pub enum Distribution {
        CoreMixBatchUpdates => (Core, "mix_batch_updates", "Updates per mixed batch."),
        CascadeGroupMembers => (Cascade, "group_members", "Clients per route group at round commit."),
        CascadePoolDepth => (Cascade, "pool_depth", "Real updates in a pool at the moment it fires."),
        FlRoundParticipants => (Fl, "round_participants", "Clients sampled into a federated round."),
    }
}

metric_ids! {
    /// Timed spans: each records a fixed-bucket histogram of durations in
    /// nanoseconds against the registry's [`crate::ClockSource`]. Under a
    /// virtual clock that the instrumented code does not advance, spans
    /// still *count* deterministically while durations collapse to zero.
    pub enum Span {
        CoreMixBatch => (Core, "mix_batch_ns", "Wall time of MixnnProxy::mix_batch."),
        CascadeRound => (Cascade, "round_ns", "Wall time of one coordinator round (ingest through commit)."),
        CascadePoolWait => (Cascade, "pool_wait_ns", "Added latency per pooled update: arrival to pool firing."),
        FlRound => (Fl, "round_ns", "Wall time of one federated round (training through aggregation)."),
        FlAggregate => (Fl, "aggregate_ns", "Wall time of the server's FedAvg aggregation within a federated round."),
    }
}

/// Bucket bounds for count-valued distributions (powers of four up to 64 Ki,
/// then overflow).
pub const COUNT_BOUNDS: [u64; 9] = [1, 4, 16, 64, 256, 1_024, 4_096, 16_384, 65_536];

/// Bucket bounds for span durations in nanoseconds (1 µs … 60 s, then
/// overflow).
pub const LATENCY_NS_BOUNDS: [u64; 10] = [
    1_000,
    10_000,
    100_000,
    1_000_000,
    5_000_000,
    25_000_000,
    100_000_000,
    1_000_000_000,
    10_000_000_000,
    60_000_000_000,
];

/// A fixed-bucket histogram over `u64` values.
///
/// Buckets are non-cumulative internally; the Prometheus exporter renders
/// the conventional cumulative `le` form. One extra slot past the last
/// bound catches overflow (`+Inf`).
#[derive(Debug)]
pub struct Histogram {
    bounds: &'static [u64],
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram over the given static bucket bounds.
    pub fn new(bounds: &'static [u64]) -> Self {
        Histogram {
            bounds,
            buckets: (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    /// Records one observation.
    pub fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// The static bucket bounds.
    pub fn bounds(&self) -> &'static [u64] {
        self.bounds
    }

    /// Per-bucket counts (non-cumulative; the final entry is overflow),
    /// plus the observation count and value sum.
    pub fn read(&self) -> (Vec<u64>, u64, u64) {
        (
            self.buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            self.count.load(Ordering::Relaxed),
            self.sum.load(Ordering::Relaxed),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identifier_tables_are_consistent() {
        assert_eq!(Counter::ALL.len(), Counter::COUNT);
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
            assert!(!c.name().is_empty());
            assert!(!c.help().is_empty());
        }
        assert_eq!(Gauge::ALL.len(), Gauge::COUNT);
        assert_eq!(Distribution::ALL.len(), Distribution::COUNT);
        assert_eq!(Span::ALL.len(), Span::COUNT);
    }

    #[test]
    fn series_keys_are_unique_within_each_kind() {
        let mut keys: Vec<(&str, &str)> = Counter::ALL
            .iter()
            .map(|c| (c.component().name(), c.name()))
            .collect();
        keys.sort_unstable();
        keys.dedup();
        assert_eq!(keys.len(), Counter::COUNT, "duplicate counter key");
    }

    #[test]
    fn histogram_buckets_and_overflow() {
        let h = Histogram::new(&COUNT_BOUNDS);
        h.observe(1);
        h.observe(5);
        h.observe(1_000_000); // overflow
        let (buckets, count, sum) = h.read();
        assert_eq!(count, 3);
        assert_eq!(sum, 1 + 5 + 1_000_000);
        assert_eq!(buckets[0], 1); // le 1
        assert_eq!(buckets[2], 1); // le 16
        assert_eq!(*buckets.last().unwrap(), 1); // +Inf
        assert_eq!(buckets.iter().sum::<u64>(), 3);
    }
}
