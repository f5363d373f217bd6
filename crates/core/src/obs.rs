//! # Checker observability: structured events, metrics, and forensics
//!
//! The paper's evaluation (§6) hinges on *when* and *where* each checker
//! fires, yet a [`Violation`] alone carries only the
//! final verdict. This module adds a zero-cost-when-disabled event layer:
//!
//! * [`CheckerEvent`] — the taxonomy of checker-internal events (VC
//!   traffic, replay outcomes, `max{OP}` updates, membar checks, epoch
//!   lifecycle, Inform-Epoch queueing),
//! * [`EventSink`] / [`ObsRing`] — a bounded ring buffer of
//!   cycle-stamped events plus monotonically growing [`ObsMetrics`]
//!   counters, and
//! * [`ViolationReport`] — a forensic snapshot of the last ring-buffer
//!   events taken when the first violation of a run is reported, so
//!   fault-injection experiments can attribute a detection to a concrete
//!   event chain.
//!
//! Every checker owns an `Option<ObsRing>` that defaults to `None`; the
//! disabled path is a single branch per recorded event, so the hot loops
//! are unchanged unless observability is explicitly enabled.

use crate::violation::Violation;
use dvmc_types::{BlockAddr, Cycle, NodeId, SeqNum, Ts16, WordAddr};
use std::collections::VecDeque;
use std::fmt;

/// A structured event emitted by one of the three checkers.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CheckerEvent {
    /// The Verification Cache allocated an entry for a word.
    VcAlloc {
        /// The word the entry covers.
        addr: WordAddr,
    },
    /// The Verification Cache freed a word's entry (last pending store
    /// drained, or a load-value entry was evicted).
    VcDealloc {
        /// The word the entry covered.
        addr: WordAddr,
    },
    /// A commit-time load replay was satisfied by the VC.
    ReplayVcHit {
        /// The replayed word.
        addr: WordAddr,
    },
    /// A commit-time load replay missed the VC and read the cache.
    ReplayCacheRead {
        /// The replayed word.
        addr: WordAddr,
    },
    /// A `max{OP}` counter register advanced to a new sequence number.
    MaxOpUpdate {
        /// The performing operation that advanced the counter.
        seq: SeqNum,
    },
    /// A membar performed and ran the lost-operation check.
    MembarCheck {
        /// The membar's sequence number.
        seq: SeqNum,
    },
    /// A cache epoch opened in the CET.
    EpochOpen {
        /// The block the epoch covers.
        addr: BlockAddr,
        /// Epoch start, in logical time.
        at: Ts16,
    },
    /// A cache epoch closed in the CET (an Inform-Epoch will be sent).
    EpochClose {
        /// The block the epoch covered.
        addr: BlockAddr,
        /// Epoch end, in logical time.
        at: Ts16,
    },
    /// The CET scrub FIFO forced a long-running epoch to report open
    /// (§4.3 timestamp-wraparound handling).
    EpochScrub {
        /// The long-running epoch's block.
        addr: BlockAddr,
    },
    /// The MET scrub clamped stale end-times up to its quarter-window
    /// horizon.
    MetScrub {
        /// Logical time of the scrub pass.
        at: Ts16,
    },
    /// An Inform-Epoch message entered a home's sorting queue.
    InformEnqueue {
        /// The block the message reports on.
        addr: BlockAddr,
        /// Queue occupancy after the enqueue.
        queued: u32,
    },
    /// An Inform-Epoch arrived out of start-time order (the sorter exists
    /// for exactly this case).
    InformReorder {
        /// The out-of-order message's block.
        addr: BlockAddr,
    },
    /// The home checked an epoch message against the MET, including its
    /// CRC-16 data-propagation hashes.
    CrcCheck {
        /// The checked block.
        addr: BlockAddr,
    },
    /// Backward error recovery began a rollback to a validated checkpoint
    /// (recorded by the recovery coordinator, attributed to node 0 — BER
    /// coordination is rooted there).
    RecoveryStarted {
        /// Rollback attempt number for this run (1-based).
        attempt: u32,
        /// Creation cycle of the checkpoint being restored.
        checkpoint: Cycle,
    },
    /// A rolled-back run replayed to completion with no recurrence.
    RecoveryCompleted {
        /// Rollbacks it took.
        attempt: u32,
    },
    /// A retry escalation: the error recurred after rollback (persistent
    /// fault), so the checkpoint interval is widened — or, on the final
    /// escalation, the run is declared unrecoverable.
    RecoveryEscalated {
        /// The attempt that escalated.
        attempt: u32,
    },
}

impl CheckerEvent {
    /// A stable short name for rendering and serialization.
    pub fn name(&self) -> &'static str {
        match self {
            CheckerEvent::VcAlloc { .. } => "vc-alloc",
            CheckerEvent::VcDealloc { .. } => "vc-dealloc",
            CheckerEvent::ReplayVcHit { .. } => "replay-vc-hit",
            CheckerEvent::ReplayCacheRead { .. } => "replay-cache-read",
            CheckerEvent::MaxOpUpdate { .. } => "max-op-update",
            CheckerEvent::MembarCheck { .. } => "membar-check",
            CheckerEvent::EpochOpen { .. } => "epoch-open",
            CheckerEvent::EpochClose { .. } => "epoch-close",
            CheckerEvent::EpochScrub { .. } => "epoch-scrub",
            CheckerEvent::MetScrub { .. } => "met-scrub",
            CheckerEvent::InformEnqueue { .. } => "inform-enqueue",
            CheckerEvent::InformReorder { .. } => "inform-reorder",
            CheckerEvent::CrcCheck { .. } => "crc-check",
            CheckerEvent::RecoveryStarted { .. } => "recovery-started",
            CheckerEvent::RecoveryCompleted { .. } => "recovery-completed",
            CheckerEvent::RecoveryEscalated { .. } => "recovery-escalated",
        }
    }
}

impl fmt::Display for CheckerEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())?;
        match self {
            CheckerEvent::VcAlloc { addr }
            | CheckerEvent::VcDealloc { addr }
            | CheckerEvent::ReplayVcHit { addr }
            | CheckerEvent::ReplayCacheRead { addr } => write!(f, "({addr})"),
            CheckerEvent::MaxOpUpdate { seq } | CheckerEvent::MembarCheck { seq } => {
                write!(f, "({seq})")
            }
            CheckerEvent::EpochOpen { addr, at } | CheckerEvent::EpochClose { addr, at } => {
                write!(f, "({addr}@{at})")
            }
            CheckerEvent::EpochScrub { addr }
            | CheckerEvent::InformReorder { addr }
            | CheckerEvent::CrcCheck { addr } => write!(f, "({addr})"),
            CheckerEvent::MetScrub { at } => write!(f, "({at})"),
            CheckerEvent::InformEnqueue { addr, queued } => write!(f, "({addr},q={queued})"),
            CheckerEvent::RecoveryStarted { attempt, checkpoint } => {
                write!(f, "(a{attempt}@{checkpoint})")
            }
            CheckerEvent::RecoveryCompleted { attempt }
            | CheckerEvent::RecoveryEscalated { attempt } => write!(f, "(a{attempt})"),
        }
    }
}

/// An event stamped with the physical cycle it was recorded at.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct TimedEvent {
    /// Recording cycle.
    pub cycle: Cycle,
    /// The event.
    pub event: CheckerEvent,
}

impl fmt::Display for TimedEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.cycle, self.event)
    }
}

/// Monotonic per-checker counters, cheap enough to keep exact while the
/// ring buffer itself only retains the recent past.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct ObsMetrics {
    /// Events recorded (including any the bounded ring has since dropped).
    pub events: u64,
    /// VC entries allocated.
    pub vc_allocs: u64,
    /// VC entries freed.
    pub vc_deallocs: u64,
    /// Load replays satisfied by the VC.
    pub replay_vc_hits: u64,
    /// Load replays that missed the VC and read the cache.
    pub replay_cache_reads: u64,
    /// `max{OP}` counter advances.
    pub max_op_updates: u64,
    /// Lost-operation checks run at membars.
    pub membar_checks: u64,
    /// Cache epochs opened.
    pub epoch_opens: u64,
    /// Cache epochs closed.
    pub epoch_closes: u64,
    /// Long-running epochs forced open by the CET scrub FIFO, plus MET
    /// scrub passes.
    pub scrubs: u64,
    /// Inform-Epoch messages enqueued at homes.
    pub informs_enqueued: u64,
    /// Inform-Epoch messages that arrived out of start-time order.
    pub informs_reordered: u64,
    /// Epoch messages checked against the MET (each carries CRC-16
    /// hashes).
    pub crc_checks: u64,
    /// High-water mark of the home's sorting-queue occupancy.
    pub sorter_occupancy_hwm: u64,
    /// Rollbacks started by backward error recovery.
    pub recoveries_started: u64,
    /// Rollback-and-replay sequences that completed cleanly.
    pub recoveries_completed: u64,
    /// Retry escalations (recurring error after rollback).
    pub recovery_escalations: u64,
}

impl ObsMetrics {
    /// Accumulates `other` into `self` (counters add, high-water marks
    /// take the max).
    pub fn merge(&mut self, other: &ObsMetrics) {
        self.events += other.events;
        self.vc_allocs += other.vc_allocs;
        self.vc_deallocs += other.vc_deallocs;
        self.replay_vc_hits += other.replay_vc_hits;
        self.replay_cache_reads += other.replay_cache_reads;
        self.max_op_updates += other.max_op_updates;
        self.membar_checks += other.membar_checks;
        self.epoch_opens += other.epoch_opens;
        self.epoch_closes += other.epoch_closes;
        self.scrubs += other.scrubs;
        self.informs_enqueued += other.informs_enqueued;
        self.informs_reordered += other.informs_reordered;
        self.crc_checks += other.crc_checks;
        self.sorter_occupancy_hwm = self.sorter_occupancy_hwm.max(other.sorter_occupancy_hwm);
        self.recoveries_started += other.recoveries_started;
        self.recoveries_completed += other.recoveries_completed;
        self.recovery_escalations += other.recovery_escalations;
    }
}

/// Turns cumulative [`ObsMetrics`] into per-window deltas for streaming
/// snapshots (service mode emits one every window).
///
/// Counters live inside components that backward error recovery rolls
/// back, so a window spanning a rollback can observe a *smaller*
/// cumulative value than the last window did. Deltas therefore saturate
/// at zero: a rollback window under-reports the replayed work rather
/// than panicking or going negative. High-water marks pass through
/// unchanged (they are instantaneous, not cumulative).
#[derive(Clone, Copy, Debug, Default)]
pub struct MetricsWindow {
    last: ObsMetrics,
}

impl MetricsWindow {
    /// The counters accrued since the previous call (saturating across
    /// rollbacks), given the current cumulative metrics.
    pub fn delta(&mut self, current: &ObsMetrics) -> ObsMetrics {
        let sub = |a: u64, b: u64| a.saturating_sub(b);
        let d = ObsMetrics {
            events: sub(current.events, self.last.events),
            vc_allocs: sub(current.vc_allocs, self.last.vc_allocs),
            vc_deallocs: sub(current.vc_deallocs, self.last.vc_deallocs),
            replay_vc_hits: sub(current.replay_vc_hits, self.last.replay_vc_hits),
            replay_cache_reads: sub(current.replay_cache_reads, self.last.replay_cache_reads),
            max_op_updates: sub(current.max_op_updates, self.last.max_op_updates),
            membar_checks: sub(current.membar_checks, self.last.membar_checks),
            epoch_opens: sub(current.epoch_opens, self.last.epoch_opens),
            epoch_closes: sub(current.epoch_closes, self.last.epoch_closes),
            scrubs: sub(current.scrubs, self.last.scrubs),
            informs_enqueued: sub(current.informs_enqueued, self.last.informs_enqueued),
            informs_reordered: sub(current.informs_reordered, self.last.informs_reordered),
            crc_checks: sub(current.crc_checks, self.last.crc_checks),
            sorter_occupancy_hwm: current.sorter_occupancy_hwm,
            recoveries_started: sub(current.recoveries_started, self.last.recoveries_started),
            recoveries_completed: sub(current.recoveries_completed, self.last.recoveries_completed),
            recovery_escalations: sub(current.recovery_escalations, self.last.recovery_escalations),
        };
        self.last = *current;
        d
    }
}

/// A consumer of checker events.
///
/// The shipped implementation is [`ObsRing`]; the trait exists so traces
/// can be redirected (e.g. straight to a file in a debugging build)
/// without touching the checkers.
pub trait EventSink {
    /// Records one event at the sink's current cycle.
    fn record(&mut self, event: CheckerEvent);
}

/// Default ring-buffer capacity: deep enough to hold the event chain
/// between a fault's first architectural consequence and its detection for
/// every checker, small enough to be free to keep per node.
pub const DEFAULT_RING_CAPACITY: usize = 64;

/// A bounded ring buffer of cycle-stamped [`CheckerEvent`]s plus exact
/// [`ObsMetrics`] counters.
///
/// The owner stamps the ring with the current cycle once per tick
/// ([`set_now`](Self::set_now)); `record` then timestamps events without
/// the checkers ever needing to know about physical time.
#[derive(Clone, Debug)]
pub struct ObsRing {
    capacity: usize,
    now: Cycle,
    buf: VecDeque<TimedEvent>,
    metrics: ObsMetrics,
}

impl ObsRing {
    /// Creates a ring retaining the last `capacity` events.
    pub fn new(capacity: usize) -> Self {
        ObsRing {
            capacity: capacity.max(1),
            now: 0,
            buf: VecDeque::with_capacity(capacity.max(1)),
            metrics: ObsMetrics::default(),
        }
    }

    /// Sets the cycle future events are stamped with.
    #[inline]
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// The retained (most recent) events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TimedEvent> {
        self.buf.iter()
    }

    /// The exact counters.
    pub fn metrics(&self) -> ObsMetrics {
        self.metrics
    }

    /// Mutable counter access, for metrics without a ring event (e.g. the
    /// sorter occupancy high-water mark).
    pub fn metrics_mut(&mut self) -> &mut ObsMetrics {
        &mut self.metrics
    }

    /// Snapshots up to the last `n` events, oldest first.
    pub fn tail(&self, n: usize) -> Vec<TimedEvent> {
        let skip = self.buf.len().saturating_sub(n);
        self.buf.iter().skip(skip).copied().collect()
    }
}

impl EventSink for ObsRing {
    fn record(&mut self, event: CheckerEvent) {
        let m = &mut self.metrics;
        m.events += 1;
        match event {
            CheckerEvent::VcAlloc { .. } => m.vc_allocs += 1,
            CheckerEvent::VcDealloc { .. } => m.vc_deallocs += 1,
            CheckerEvent::ReplayVcHit { .. } => m.replay_vc_hits += 1,
            CheckerEvent::ReplayCacheRead { .. } => m.replay_cache_reads += 1,
            CheckerEvent::MaxOpUpdate { .. } => m.max_op_updates += 1,
            CheckerEvent::MembarCheck { .. } => m.membar_checks += 1,
            CheckerEvent::EpochOpen { .. } => m.epoch_opens += 1,
            CheckerEvent::EpochClose { .. } => m.epoch_closes += 1,
            CheckerEvent::EpochScrub { .. } | CheckerEvent::MetScrub { .. } => m.scrubs += 1,
            CheckerEvent::InformEnqueue { queued, .. } => {
                m.informs_enqueued += 1;
                m.sorter_occupancy_hwm = m.sorter_occupancy_hwm.max(u64::from(queued));
            }
            CheckerEvent::InformReorder { .. } => m.informs_reordered += 1,
            CheckerEvent::CrcCheck { .. } => m.crc_checks += 1,
            CheckerEvent::RecoveryStarted { .. } => m.recoveries_started += 1,
            CheckerEvent::RecoveryCompleted { .. } => m.recoveries_completed += 1,
            CheckerEvent::RecoveryEscalated { .. } => m.recovery_escalations += 1,
        }
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
        }
        self.buf.push_back(TimedEvent {
            cycle: self.now,
            event,
        });
    }
}

/// Forensic context for a detection: the violation, the recent checker
/// event chain around it, and where/when it was raised.
#[derive(Clone, Debug)]
pub struct ViolationReport {
    /// The violation, when the detection came from a checker (a hang
    /// detected by the watchdog has no violation but still gets a trace).
    pub violation: Option<Violation>,
    /// The last ring-buffer events of the reporting node, oldest first,
    /// merged across its checkers and sorted by cycle.
    pub trace: Vec<TimedEvent>,
    /// The cycle the detection was reported at.
    pub cycle: Cycle,
    /// The node the detection is attributed to.
    pub node: NodeId,
}

impl ViolationReport {
    /// The trace rendered as a compact event chain
    /// (`cycle:name(args) -> ...`), for tables and logs.
    pub fn chain(&self) -> String {
        let parts: Vec<String> = self.trace.iter().map(ToString::to_string).collect();
        parts.join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_is_bounded_and_counters_are_exact() {
        let mut ring = ObsRing::new(4);
        for i in 0..10u64 {
            ring.set_now(i);
            ring.record(CheckerEvent::ReplayVcHit { addr: WordAddr(i) });
        }
        assert_eq!(ring.events().count(), 4, "ring retains only the capacity");
        assert_eq!(ring.metrics().replay_vc_hits, 10, "counters stay exact");
        assert_eq!(ring.metrics().events, 10);
        let tail = ring.tail(2);
        assert_eq!(tail.len(), 2);
        assert_eq!(tail[1].cycle, 9, "newest event last");
        assert_eq!(tail[0].cycle, 8);
    }

    #[test]
    fn enqueue_tracks_sorter_high_water() {
        let mut ring = ObsRing::new(8);
        for q in [1u32, 3, 2] {
            ring.record(CheckerEvent::InformEnqueue {
                addr: BlockAddr(1),
                queued: q,
            });
        }
        assert_eq!(ring.metrics().sorter_occupancy_hwm, 3);
        assert_eq!(ring.metrics().informs_enqueued, 3);
    }

    #[test]
    fn metrics_merge_adds_counts_and_maxes_hwm() {
        let mut a = ObsMetrics {
            events: 2,
            crc_checks: 1,
            sorter_occupancy_hwm: 5,
            ..ObsMetrics::default()
        };
        let b = ObsMetrics {
            events: 3,
            crc_checks: 4,
            sorter_occupancy_hwm: 2,
            ..ObsMetrics::default()
        };
        a.merge(&b);
        assert_eq!(a.events, 5);
        assert_eq!(a.crc_checks, 5);
        assert_eq!(a.sorter_occupancy_hwm, 5);
    }

    #[test]
    fn metrics_window_deltas_saturate_across_rollbacks() {
        let mut w = MetricsWindow::default();
        let first = ObsMetrics {
            events: 10,
            crc_checks: 7,
            sorter_occupancy_hwm: 4,
            ..ObsMetrics::default()
        };
        let d1 = w.delta(&first);
        assert_eq!(d1.events, 10);
        assert_eq!(d1.crc_checks, 7);
        // A rollback rewound the counters below the previous watermark:
        // the delta saturates at zero instead of underflowing.
        let rewound = ObsMetrics {
            events: 6,
            crc_checks: 9,
            sorter_occupancy_hwm: 2,
            ..ObsMetrics::default()
        };
        let d2 = w.delta(&rewound);
        assert_eq!(d2.events, 0);
        assert_eq!(d2.crc_checks, 2);
        assert_eq!(d2.sorter_occupancy_hwm, 2, "hwm passes through");
        let d3 = w.delta(&ObsMetrics {
            events: 8,
            ..rewound
        });
        assert_eq!(d3.events, 2, "counting resumes from the rewound base");
    }

    #[test]
    fn recovery_events_count_and_render() {
        let mut ring = ObsRing::new(8);
        ring.set_now(500);
        ring.record(CheckerEvent::RecoveryStarted {
            attempt: 1,
            checkpoint: 400,
        });
        ring.record(CheckerEvent::RecoveryEscalated { attempt: 2 });
        ring.record(CheckerEvent::RecoveryCompleted { attempt: 2 });
        let m = ring.metrics();
        assert_eq!(m.recoveries_started, 1);
        assert_eq!(m.recovery_escalations, 1);
        assert_eq!(m.recoveries_completed, 1);
        assert_eq!(
            CheckerEvent::RecoveryStarted {
                attempt: 1,
                checkpoint: 400
            }
            .to_string(),
            "recovery-started(a1@400)"
        );
        let mut merged = ObsMetrics::default();
        merged.merge(&m);
        assert_eq!(merged.recoveries_started, 1);
        assert_eq!(merged.recoveries_completed, 1);
    }

    #[test]
    fn event_names_and_chain_rendering() {
        let ev = CheckerEvent::EpochOpen {
            addr: BlockAddr(3),
            at: Ts16(7),
        };
        assert_eq!(ev.name(), "epoch-open");
        assert_eq!(ev.to_string(), "epoch-open(b0x3@t7)");
        let report = ViolationReport {
            violation: None,
            trace: vec![
                TimedEvent { cycle: 1, event: ev },
                TimedEvent {
                    cycle: 2,
                    event: CheckerEvent::CrcCheck { addr: BlockAddr(3) },
                },
            ],
            cycle: 2,
            node: NodeId(0),
        };
        assert_eq!(report.chain(), "1:epoch-open(b0x3@t7) -> 2:crc-check(b0x3)");
    }
}
