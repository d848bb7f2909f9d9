//! The round-trace journal: per-round, per-hop lifecycle events.
//!
//! Trace events are recorded **only from serialized code paths** (ingest
//! commit loops, coordinator round drivers, the single-threaded network
//! event loop), so the journal's order is a function of program semantics,
//! not thread scheduling. Combined with a virtual [`crate::ClockSource`],
//! the rendered trace from a simulated run is byte-identical across reruns.
//!
//! Events carry only aggregate fields (counts, byte totals, hop indices) —
//! there is deliberately no constructor that takes a client, slot, or
//! route-group identifier.

use crate::metrics::Component;

/// What happened. Payload fields are aggregates over the whole batch,
/// round, or burst.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// A coordinator round began.
    RoundStarted {
        /// Round ordinal (per coordinator / simulation, starting at 0).
        round: u64,
    },
    /// A round committed its mixed output.
    RoundCompleted {
        /// Round ordinal.
        round: u64,
    },
    /// A round was abandoned under `FailurePolicy::Abort`.
    RoundAborted {
        /// Round ordinal.
        round: u64,
    },
    /// A failing hop was dropped from the active chain
    /// (`FailurePolicy::Skip`).
    HopSkipped,
    /// A round of sealed inputs was handed to the proxy's ingest.
    IngestStaged {
        /// Inputs handed over.
        updates: u64,
    },
    /// The round's in-order ingest finished.
    IngestCommitted {
        /// Updates accepted.
        accepted: u64,
        /// Updates rejected.
        rejected: u64,
    },
    /// A batch of sealed envelopes was opened through the batched
    /// sealed-box kernels.
    BatchOpened {
        /// Envelopes in the batch.
        envelopes: u64,
    },
    /// A buffered batch was pushed through a full mixing plan.
    BatchMixed {
        /// Updates mixed.
        updates: u64,
    },
    /// A route group completed its full hop sequence.
    GroupMixed {
        /// Clients in the group.
        members: u64,
    },
    /// The link layer flushed a segment's frame bursts onto the wire.
    BurstFlushed {
        /// Bursts flushed.
        bursts: u64,
        /// Frames across all bursts.
        frames: u64,
        /// Bytes across all bursts.
        bytes: u64,
    },
    /// A delivery failed with a link error.
    LinkError,
}

/// One journal entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Timestamp from the registry's clock source.
    pub at_ns: u64,
    /// Subsystem that recorded the event.
    pub component: Component,
    /// Hop index, where the event is hop-scoped.
    pub hop: Option<u16>,
    /// The event itself.
    pub kind: TraceKind,
}

impl TraceEvent {
    /// Renders the event as one stable, line-oriented record.
    pub fn render(&self) -> String {
        let hop = match self.hop {
            Some(h) => format!("{h}"),
            None => "-".to_string(),
        };
        let kind = match self.kind {
            TraceKind::RoundStarted { round } => format!("round_started round={round}"),
            TraceKind::RoundCompleted { round } => format!("round_completed round={round}"),
            TraceKind::RoundAborted { round } => format!("round_aborted round={round}"),
            TraceKind::HopSkipped => "hop_skipped".to_string(),
            TraceKind::IngestStaged { updates } => format!("ingest_staged updates={updates}"),
            TraceKind::IngestCommitted { accepted, rejected } => {
                format!("ingest_committed accepted={accepted} rejected={rejected}")
            }
            TraceKind::BatchOpened { envelopes } => format!("batch_opened envelopes={envelopes}"),
            TraceKind::BatchMixed { updates } => format!("batch_mixed updates={updates}"),
            TraceKind::GroupMixed { members } => format!("group_mixed members={members}"),
            TraceKind::BurstFlushed {
                bursts,
                frames,
                bytes,
            } => format!("burst_flushed bursts={bursts} frames={frames} bytes={bytes}"),
            TraceKind::LinkError => "link_error".to_string(),
        };
        format!(
            "{} {} hop={} {}",
            self.at_ns,
            self.component.name(),
            hop,
            kind
        )
    }
}

/// A bounded, append-only event journal.
///
/// Once `capacity` events have been recorded, further events are counted
/// but not stored, so a long-running simulation cannot grow the journal
/// without bound; the drop count is rendered at the end of the trace so
/// truncation is never silent.
#[derive(Debug)]
pub struct RoundTrace {
    events: Vec<TraceEvent>,
    capacity: usize,
    dropped: u64,
}

/// Default journal capacity.
pub const DEFAULT_TRACE_CAPACITY: usize = 65_536;

impl RoundTrace {
    /// An empty journal holding at most `capacity` events.
    pub fn new(capacity: usize) -> Self {
        RoundTrace {
            events: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    /// Appends an event, or counts it as dropped when full.
    pub fn push(&mut self, event: TraceEvent) {
        if self.events.len() < self.capacity {
            self.events.push(event);
        } else {
            self.dropped += 1;
        }
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[TraceEvent] {
        &self.events
    }

    /// Events recorded after the journal filled up.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the whole journal as newline-separated records.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&e.render());
            out.push('\n');
        }
        if self.dropped > 0 {
            out.push_str(&format!(
                "# dropped {} events (journal full)\n",
                self.dropped
            ));
        }
        out
    }
}

impl Default for RoundTrace {
    fn default() -> Self {
        Self::new(DEFAULT_TRACE_CAPACITY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_is_stable_and_line_oriented() {
        let mut trace = RoundTrace::default();
        trace.push(TraceEvent {
            at_ns: 7,
            component: Component::Cascade,
            hop: Some(2),
            kind: TraceKind::GroupMixed { members: 5 },
        });
        trace.push(TraceEvent {
            at_ns: 9,
            component: Component::Net,
            hop: None,
            kind: TraceKind::BurstFlushed {
                bursts: 1,
                frames: 4,
                bytes: 128,
            },
        });
        assert_eq!(
            trace.render(),
            "7 cascade hop=2 group_mixed members=5\n\
             9 net hop=- burst_flushed bursts=1 frames=4 bytes=128\n"
        );
    }

    #[test]
    fn journal_caps_and_reports_drops() {
        let mut trace = RoundTrace::new(2);
        for i in 0..5 {
            trace.push(TraceEvent {
                at_ns: i,
                component: Component::Core,
                hop: None,
                kind: TraceKind::HopSkipped,
            });
        }
        assert_eq!(trace.events().len(), 2);
        assert_eq!(trace.dropped(), 3);
        assert!(trace.render().contains("# dropped 3 events"));
    }
}
