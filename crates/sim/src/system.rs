//! The full system: cores + coherent memory system + checkers + BER +
//! fault injection, advanced cycle by cycle.

use crate::checkpoint::{Delta, MachineCheckpoint, Misc};
use crate::config::{CheckpointMode, KernelMode, SystemConfig};
use crate::report::{
    percentile, CheckpointStats, Detection, EpisodeReport, RecoveryOutcome, RecoveryReport,
    RunReport, ServiceReport, ServiceStop, WindowSnapshot,
};
use dvmc_ber::{Checkpoint, SafetyNet};
use dvmc_coherence::{Cluster, PartId, PartImage};
use dvmc_consistency::Model;
use dvmc_core::{
    CheckerEvent, CoherenceViolation, EventSink, MetricsWindow, ObsMetrics, ObsRing, TimedEvent,
    Violation, ViolationReport,
};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_pipeline::Core;
use dvmc_types::rng::{det_rng, derive_seed, DetRng};
use dvmc_types::{Cycle, NodeId};
use dvmc_workloads::spec::build_streams;
use rand::Rng;
use std::collections::{BTreeSet, VecDeque};

/// Everything a rollback must restore: the architectural and
/// microarchitectural state of every core (ROBs, write buffers, checkers,
/// instruction streams), the whole memory system (caches, directories,
/// in-flight interconnect traffic, the cluster clock), the
/// fault-injection RNG, and the watchdog's progress clocks. Whole-machine
/// checkpoints ([`crate::config::CheckpointMode::Snapshot`]) carry one of
/// these per interval; the delta log keeps one as its *base* image.
#[derive(Clone)]
pub(crate) struct Snapshot {
    pub(crate) cores: Vec<Core>,
    pub(crate) cluster: Cluster,
    pub(crate) rng: DetRng,
    pub(crate) progress: Vec<(u64, Cycle)>,
}

impl Snapshot {
    /// Approximate serialized size, in bytes (checkpoint accounting).
    pub(crate) fn approx_bytes(&self) -> u64 {
        self.cores.iter().map(Core::approx_state_bytes).sum::<u64>()
            + self.cluster.approx_state_bytes()
            + (std::mem::size_of::<DetRng>() + self.progress.len() * 16) as u64
    }

    /// Number of machine parts: every core plus every memory-system part.
    pub(crate) fn parts(&self) -> u64 {
        (self.cores.len() + self.cluster.parts().count()) as u64
    }
}

/// A complete simulated machine.
pub struct System {
    cfg: SystemConfig,
    cores: Vec<Core>,
    cluster: Cluster,
    /// Checkpoint log; payloads are [`MachineCheckpoint::Unarmed`] when
    /// recovery is off (the captures are not free, and the perf
    /// experiments model BER timing without them).
    ber: Option<SafetyNet<MachineCheckpoint>>,
    /// Delta-log mode: the base image the oldest retained delta applies
    /// on top of. `None` in whole-snapshot mode or when recovery is off.
    base: Option<Box<Snapshot>>,
    /// Delta-log mode: the capture cycle of each core image currently in
    /// the base (rollback undo-replays idle cores forward from here).
    base_core_at: Vec<Cycle>,
    /// Which cores may have mutated since the last delta capture
    /// (conservative, like the cluster's dirty-part flags).
    core_dirty: Vec<bool>,
    /// Cycles actually simulated by [`tick`](Self::tick).
    ticks_executed: u64,
    /// Quiescent cycles skipped by the event-scheduled kernel.
    ticks_skipped: u64,
    /// Checkpoint/rollback cost counters.
    ckpt_stats: CheckpointStats,
    rng: DetRng,
    violations: Vec<Violation>,
    /// Per-core (retired count, last progress cycle) for the hang watchdog.
    progress: Vec<(u64, Cycle)>,
    hung: bool,
    /// The node whose core reported the run's first violation, for
    /// forensic attribution (per-processor violations don't name their
    /// node; coherence violations do).
    first_violation_node: Option<usize>,
    /// Rollback/replay attempts performed so far.
    recovery_attempts: u32,
    /// Retry escalations (checkpoint-interval widenings).
    recovery_escalations: u32,
    /// The first detection, preserved across rollbacks (recovery rewinds
    /// the live evidence).
    recovery_detection: Option<Detection>,
    /// Forensics of the first detection, captured before restore rewound
    /// the event rings.
    recovery_forensics: Option<ViolationReport>,
    /// The cycle of the checkpoint the last rollback restored.
    recovery_checkpoint: Cycle,
    /// Recovery gave up (retries exhausted or the error escaped the
    /// checkpoint window).
    unrecoverable: bool,
    /// Event ring for recovery orchestration; deliberately *outside* the
    /// snapshots so a rollback cannot erase recovery history. Merged into
    /// node 0's observability (BER coordination is rooted there).
    recovery_ring: Option<ObsRing>,
    /// Faults not yet injected, schedule order (`cfg.fault` plus the
    /// storm, sorted by time). Only the front plan attempts injection
    /// each cycle, so single-fault configurations draw the identical RNG
    /// sequence they always did. Deliberately outside the snapshots:
    /// rollback must not resurrect already-injected transients.
    pending_faults: VecDeque<FaultPlan>,
    /// Injected faults whose consequences may still be latent:
    /// `(plan, injected_at)`. Drained on rollback (the restore squashes
    /// their effects) or aged out as masked once they outlive the full
    /// SafetyNet window without a detection.
    outstanding: Vec<(FaultPlan, Cycle)>,
    /// The most recently injected plan (detection attribution fallback).
    last_injected: Option<FaultPlan>,
    /// Faults injected over the whole run.
    total_injected: u64,
    /// Outstanding faults that aged out architecturally masked.
    masked: u64,
    /// The open recovery episode: the one record of a fault in flight.
    /// Opened by the first injection, closed once the machine runs clean
    /// again (service mode) or at shutdown; a single-fault run has one.
    episode: Option<EpisodeState>,
    /// Closed episodes, in order of first injection.
    episodes: Vec<EpisodeReport>,
    /// Streaming-window bookkeeping when service mode is armed.
    service: Option<ServiceState>,
    /// Deepest rollback since the last window snapshot.
    window_rollback_depth: Cycle,
}

/// The open recovery episode: from a burst's first injection to the
/// machine running clean again.
struct EpisodeState {
    faults: Vec<Fault>,
    injected_at: Cycle,
    /// The latest injection into this episode.
    last_injected_at: Cycle,
    detected_at: Option<Cycle>,
    /// Rollback/replay attempts spent on this episode: the retry budget
    /// and escalation key off it, so the budget resets per episode.
    attempts: u32,
    rollback_depth: Cycle,
    /// The (pre-rollback) cycle of the latest detection; once the replay
    /// runs past it again without re-manifesting, the episode is clean.
    clean_after: Cycle,
}

/// Window bookkeeping for service mode: last-seen watermarks for every
/// delta the streaming snapshots report.
struct ServiceState {
    window: Cycle,
    next_boundary: Cycle,
    metrics_window: MetricsWindow,
    last_retired: u64,
    last_requests: u64,
    last_injected: u64,
    last_masked: u64,
    last_episodes: usize,
    last_retries: u32,
    windows: Vec<WindowSnapshot>,
    stopped: Option<ServiceStop>,
}

/// `NodeId` for node index `i`, under the `System` invariant that
/// `cfg.nodes <= u8::MAX` ([`SystemConfig::validate`] enforces it at
/// construction, so the cast can no longer truncate).
#[inline]
fn nid(i: usize) -> NodeId {
    debug_assert!(i <= u8::MAX as usize, "node index {i} exceeds NodeId range");
    NodeId(i as u8)
}

impl System {
    /// Builds the system from its configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SystemConfig::validate`] — use
    /// [`crate::SystemBuilder::try_build`] to handle the error instead.
    pub fn new(cfg: SystemConfig) -> Self {
        if let Err(e) = cfg.validate() {
            panic!("invalid system configuration: {e}");
        }
        let mut cluster = Cluster::new(cfg.cluster_config());
        let core_cfg = cfg.core_config();
        let streams = build_streams(&cfg.workload);
        let mut cores: Vec<Core> = streams
            .into_iter()
            .map(|s| Core::new(core_cfg, s))
            .collect();
        if cfg.obs_capacity > 0 {
            for core in &mut cores {
                core.enable_obs(cfg.obs_capacity);
            }
            cluster.enable_obs(cfg.obs_capacity);
        }
        let recovery_ring = (cfg.obs_capacity > 0 && cfg.recovery.is_some())
            .then(|| ObsRing::new(cfg.obs_capacity));
        // One injection schedule: the single fault (if any) plus the
        // storm, time-sorted (stable, so a single fault keeps its place
        // on ties).
        let mut pending: Vec<FaultPlan> = cfg.fault.into_iter().chain(cfg.storm.iter().copied()).collect();
        pending.sort_by_key(|p| p.at_cycle);
        let pending_faults: VecDeque<FaultPlan> = pending.into();
        let nodes = cfg.nodes;
        let mut sys = System {
            cores,
            cluster,
            ber: None,
            base: None,
            base_core_at: vec![0; nodes],
            core_dirty: vec![true; nodes],
            ticks_executed: 0,
            ticks_skipped: 0,
            ckpt_stats: CheckpointStats::default(),
            rng: det_rng(derive_seed(cfg.workload.seed, 0xFA17)),
            violations: Vec::new(),
            pending_faults,
            outstanding: Vec::new(),
            last_injected: None,
            total_injected: 0,
            masked: 0,
            episode: None,
            episodes: Vec::new(),
            service: None,
            window_rollback_depth: 0,
            progress: vec![(0, 0); cfg.nodes],
            hung: false,
            first_violation_node: None,
            recovery_attempts: 0,
            recovery_escalations: 0,
            recovery_detection: None,
            recovery_forensics: None,
            recovery_checkpoint: 0,
            unrecoverable: false,
            recovery_ring,
            cfg,
        };
        if sys.cfg.protection.ber {
            // The initial time-0 checkpoint captures the pristine system
            // when recovery is armed, so even an error in the very first
            // interval has a restore point. In delta-log mode the pristine
            // machine becomes the base image and entry 0 is an empty delta
            // over it.
            let initial = match (sys.cfg.recovery.is_some(), sys.cfg.checkpoint) {
                (false, _) => MachineCheckpoint::Unarmed,
                (true, CheckpointMode::Snapshot) => {
                    MachineCheckpoint::Whole(Box::new(sys.snapshot()))
                }
                (true, CheckpointMode::DeltaLog) => {
                    sys.base = Some(Box::new(sys.snapshot()));
                    sys.cluster.clear_dirty();
                    sys.core_dirty.fill(false);
                    MachineCheckpoint::Delta(Box::new(Delta::empty(sys.misc_image())))
                }
            };
            sys.ber = Some(
                SafetyNet::with_initial(sys.cfg.ber, initial)
                    .expect("SystemConfig::validate vetted the BER config"),
            );
        }
        sys
    }

    /// The always-captured miscellaneous delta part: cheap state that
    /// mutates nearly every cycle, so dirty-tracking it would be pure
    /// overhead.
    fn misc_image(&self) -> Misc {
        Misc {
            rng: self.rng.clone(),
            progress: self.progress.clone(),
            checker_bytes: self.cluster.checker_bytes(),
            ber_bytes: self.cluster.ber_bytes(),
        }
    }

    /// Deep-copies the rollback-relevant machine state.
    fn snapshot(&self) -> Snapshot {
        Snapshot {
            cores: self.cores.clone(),
            cluster: self.cluster.clone(),
            rng: self.rng.clone(),
            progress: self.progress.clone(),
        }
    }

    /// The configuration.
    pub fn config(&self) -> &SystemConfig {
        &self.cfg
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.cluster.now()
    }

    /// Advances one cycle.
    pub fn tick(&mut self) {
        let now = self.cluster.now();
        self.ticks_executed += 1;
        // BER checkpointing and its coordination traffic. Runs *before*
        // fault injection so a checkpoint taken the cycle the fault lands
        // never embeds it (`recovery_point` admits checkpoints with
        // `taken_at <= error_time`; the reorder is behaviourally neutral
        // otherwise — the injection RNG only advances once the fault is
        // due, and BER traffic is excluded from network faults).
        self.take_checkpoint(now);
        self.maybe_inject_fault(now);
        for (i, core) in self.cores.iter_mut().enumerate() {
            if deliver(&mut self.cluster, i, core) || !core.is_inert_at(now) {
                self.core_dirty[i] = true;
            }
            for req in core.tick(now) {
                self.cluster.submit(nid(i), req);
            }
            let drained = core.drain_violations();
            if !drained.is_empty() && self.violations.is_empty() {
                self.first_violation_node.get_or_insert(i);
            }
            self.violations.extend(drained);
        }
        // The memory system advances.
        self.cluster.tick();
        self.violations.extend(self.cluster.drain_violations());
        // Per-core hang watchdog (real systems detect lost requests with
        // per-transaction timeouts; a core that stops retiring while not
        // finished is hung even if its peers still make progress).
        for (i, core) in self.cores.iter().enumerate() {
            let retired = core.retired_ops();
            if retired != self.progress[i].0 || core.is_done() {
                self.progress[i] = (retired, now);
            } else if now - self.progress[i].1 > self.cfg.watchdog_cycles {
                self.hung = true;
            }
        }
    }

    /// Builds this interval's checkpoint payload. Called from inside the
    /// BER capture closure, after the coordination traffic was sent (so
    /// the captured network includes it, exactly like the original
    /// whole-snapshot scheme).
    fn checkpoint_payload(&mut self) -> MachineCheckpoint {
        if self.cfg.recovery.is_none() {
            return MachineCheckpoint::Unarmed;
        }
        self.ckpt_stats.snapshots_taken += 1;
        let payload = match self.cfg.checkpoint {
            CheckpointMode::Snapshot => MachineCheckpoint::Whole(Box::new(self.snapshot())),
            CheckpointMode::DeltaLog => MachineCheckpoint::Delta(Box::new(self.capture_delta())),
        };
        self.ckpt_stats.bytes_logged += payload.approx_bytes();
        self.ckpt_stats.parts_captured += payload.parts();
        payload
    }

    /// Runs the BER cadence at cycle `at`: when a checkpoint is due, sends
    /// the coordination traffic and captures it inside the checkpoint (so
    /// a restored run resumes exactly after the checkpoint), then folds
    /// whatever the log evicted into the delta-log base.
    fn take_checkpoint(&mut self, at: Cycle) {
        let Some(mut ber) = self.ber.take() else {
            return;
        };
        let bytes = ber.config().coordination_bytes;
        let nodes = self.cfg.nodes;
        let reclaimed = ber.tick_with_reclaimed(at, || {
            for i in 1..nodes {
                self.cluster.send_ber(nid(i), NodeId(0), bytes);
                self.cluster.send_ber(NodeId(0), nid(i), bytes);
            }
            self.checkpoint_payload()
        });
        self.ber = Some(ber);
        self.fold_reclaimed(reclaimed);
    }

    /// Captures every part dirtied since the previous capture (plus the
    /// always-captured misc record) and clears the dirty flags.
    fn capture_delta(&mut self) -> Delta {
        let mut delta = Delta::empty(self.misc_image());
        for (i, core) in self.cores.iter().enumerate() {
            if self.core_dirty[i] {
                delta.cores.push((i, core.clone()));
            }
        }
        delta.parts = self.cluster.dirty_parts().map(|id| self.cluster.image(id)).collect();
        self.cluster.clear_dirty();
        self.core_dirty.fill(false);
        delta
    }

    /// Folds checkpoints the log just evicted into the delta-log base, so
    /// the base always reflects the machine at the oldest retained entry's
    /// predecessor. Evictions arrive oldest-first.
    fn fold_reclaimed(&mut self, reclaimed: Vec<Checkpoint<MachineCheckpoint>>) {
        for cp in reclaimed {
            if let MachineCheckpoint::Delta(delta) = cp.state {
                let base = self.base.as_mut().expect("delta log always has a base");
                delta.fold_into(base, &mut self.base_core_at, cp.taken_at);
                self.ckpt_stats.deltas_folded += 1;
            }
        }
    }

    /// Drains each core's commit log (one [`CommitRecord`] per committed
    /// memory op). Empty unless the configuration set `record_commits`;
    /// used by the litmus conformance harness to observe the values loads
    /// actually returned, and by the offline consistency oracle.
    ///
    /// [`CommitRecord`]: dvmc_consistency::CommitRecord
    pub fn commit_logs(&mut self) -> Vec<Vec<dvmc_consistency::CommitRecord>> {
        self.core_dirty.fill(true);
        self.cores.iter_mut().map(Core::take_commit_log).collect()
    }

    /// Debug helper: renders every core and cache controller, followed —
    /// when observability is enabled — by each node's checker metrics and
    /// its retained event trace.
    pub fn dump(&mut self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for i in 0..self.cfg.nodes {
            let _ = writeln!(out, "core{i}: {}", self.cores[i].dump());
            let _ = writeln!(out, "node{i}: {}", self.cluster.node_mut(nid(i)).dump());
        }
        if self.cfg.obs_capacity > 0 {
            for i in 0..self.cfg.nodes {
                let m = self.node_obs_metrics(i);
                let _ = writeln!(
                    out,
                    "obs{i}: events={} vc={}a/{}d replay={}hit/{}read maxop={} \
                     membar={} epoch={}o/{}c scrub={} inform={}q/{}r crc={} hwm={} \
                     rec={}s/{}c/{}e",
                    m.events,
                    m.vc_allocs,
                    m.vc_deallocs,
                    m.replay_vc_hits,
                    m.replay_cache_reads,
                    m.max_op_updates,
                    m.membar_checks,
                    m.epoch_opens,
                    m.epoch_closes,
                    m.scrubs,
                    m.informs_enqueued,
                    m.informs_reordered,
                    m.crc_checks,
                    m.sorter_occupancy_hwm,
                    m.recoveries_started,
                    m.recoveries_completed,
                    m.recovery_escalations,
                );
                for ev in self.node_obs_trace(i) {
                    let _ = writeln!(out, "  {ev}");
                }
            }
        }
        let k = self.kernel_stats();
        let c = self.ckpt_stats;
        let _ = writeln!(
            out,
            "kernel: executed={} skipped={} | checkpoints: taken={} bytes={} \
             folded={} rollbacks={} parts_restored={} undo_replay={}",
            k.0,
            k.1,
            c.snapshots_taken,
            c.bytes_logged,
            c.deltas_folded,
            c.rollbacks,
            c.parts_restored,
            c.undo_replay_cycles,
        );
        out
    }

    /// Node `i`'s observability rings: its core's, its memory-system
    /// controllers', and — at node 0 — the recovery ring (recovery
    /// orchestration is globally coordinated; like BER traffic, its
    /// events are rooted at node 0).
    fn node_rings(&self, i: usize) -> impl Iterator<Item = &ObsRing> {
        self.cores[i]
            .obs_rings()
            .into_iter()
            .chain(self.cluster.obs_rings(nid(i)))
            .chain(self.recovery_ring.as_ref().filter(|_| i == 0))
    }

    /// Merged observability metrics of node `i`'s checkers (zeroed when
    /// observability is disabled).
    fn node_obs_metrics(&self, i: usize) -> ObsMetrics {
        let mut m = ObsMetrics::default();
        for ring in self.node_rings(i) {
            m.merge(&ring.metrics());
        }
        m
    }

    /// The retained events of node `i`'s checkers, merged across rings,
    /// sorted by cycle, and capped at the configured ring capacity.
    fn node_obs_trace(&self, i: usize) -> Vec<TimedEvent> {
        let mut trace: Vec<TimedEvent> =
            self.node_rings(i).flat_map(|ring| ring.events().copied()).collect();
        trace.sort_by_key(|e| e.cycle);
        let skip = trace.len().saturating_sub(self.cfg.obs_capacity);
        trace.drain(..skip);
        trace
    }

    /// Arms a network fault targeting coherence-protocol messages (checker
    /// and BER traffic are excluded: losing them costs detection coverage
    /// or a false positive, not correctness — §6.1 injects protocol
    /// errors).
    fn arm_net_fault(&mut self, fault: dvmc_interconnect::NetFault) {
        use dvmc_coherence::Msg;
        self.cluster.data_net_mut().arm_fault_filtered(fault, |m: &Msg| {
            !matches!(m, Msg::Epoch(_) | Msg::Ber { .. })
        });
    }

    fn all_done(&self) -> bool {
        self.cores.iter().all(Core::is_done)
    }

    /// Whether any fault was or will be injected this run.
    fn fault_scheduled(&self) -> bool {
        self.cfg.fault.is_some() || !self.cfg.storm.is_empty()
    }

    // ----- event-scheduled kernel (DESIGN.md §14) -------------------------

    /// The earliest cycle at or after `now` at which the machine can do
    /// observable work or a post-tick check can fire, or `None` when
    /// nothing will ever happen again. Every candidate is conservative
    /// (may be earlier than the real next event, never later), so the
    /// scheduler stays exact: a pinned cycle that turns out quiet simply
    /// ticks once for nothing.
    ///
    /// The run loops check their conditions *after* each tick, at
    /// `tick-cycle + 1`; the pins below are stated in tick cycles, hence
    /// the off-by-ones (e.g. an age-out that fires at post-tick time
    /// `t + window + 1` needs tick cycle `t + window` executed).
    fn next_event_at(&self, now: Cycle) -> Option<Cycle> {
        let mut best: Option<Cycle> = None;
        let mut pin = |c: Cycle| {
            let c = c.max(now);
            best = Some(best.map_or(c, |b: Cycle| b.min(c)));
        };
        for core in &self.cores {
            if let Some(t) = core.next_event_at(now) {
                pin(t);
            }
        }
        // In-flight coherence traffic keeps every cycle busy.
        if !self.cluster.is_quiescent() {
            pin(now);
        }
        // A queued epoch sorter drains against directory logical time,
        // which advances with the wall clock, so pin the (conservatively
        // estimated) cycle its watermark first overtakes the oldest queued
        // start; under snooping, logical time only moves with
        // address-network traffic (already pinned via quiescence).
        if let Some(t) = self.cluster.next_sorter_drain_at(now) {
            pin(t);
        }
        // Periodic checker scrubs: CET every `scrub_period` cycles, MET
        // every 2× that — pinning each CET boundary covers both.
        pin(now.next_multiple_of(self.cluster.scrub_period().max(1)));
        // The BER checkpoint cadence.
        if let Some(ber) = &self.ber {
            pin(ber.next_checkpoint_at());
        }
        // The next scheduled fault. A due-but-unsatisfied plan retries
        // every cycle (and draws the RNG each attempt), so it pins `now`.
        if let Some(front) = self.pending_faults.front() {
            pin(front.at_cycle);
        }
        // Per-core hang watchdogs: tick() flags a hang at executed cycle
        // `last_progress + watchdog + 1` (its check uses the pre-increment
        // clock).
        for (i, core) in self.cores.iter().enumerate() {
            if !core.is_done() {
                pin(self.progress[i].1 + self.cfg.watchdog_cycles + 1);
            }
        }
        // A detected episode closes after ticking its clean-past cycle;
        // once `now` passes it, every cycle is a close candidate.
        if let Some(ep) = &self.episode {
            if ep.detected_at.is_some() {
                pin(ep.clean_after);
            }
        }
        // Outstanding transients age out as masked at `t + window`.
        if self.outstanding.iter().any(|(p, _)| p.fault.is_transient()) {
            let window = self.recovery_window();
            for &(p, t) in &self.outstanding {
                if p.fault.is_transient() {
                    pin(t.saturating_add(window));
                }
            }
        }
        // Service-window boundaries emit at post-tick `next_boundary`.
        if let Some(svc) = &self.service {
            pin(svc.next_boundary.saturating_sub(1));
        }
        best
    }

    /// Event-scheduled kernel: jumps from the current cycle to the next
    /// event (capped at `cap`), applying exactly the state changes the
    /// legacy kernel's quiescent ticks would have made — a clock catch-up
    /// on every core and an idle re-stamp of the memory system. No-op
    /// under [`KernelMode::Legacy`] or when something can happen now.
    fn advance_quiescent(&mut self, cap: Cycle) {
        if self.cfg.kernel != KernelMode::Event {
            return;
        }
        let now = self.now();
        if now >= cap {
            return;
        }
        let target = self.next_event_at(now).map_or(cap, |t| t.min(cap));
        if target <= now {
            return;
        }
        let k = target - now;
        for (i, core) in self.cores.iter_mut().enumerate() {
            debug_assert!(core.is_inert_at(now), "skipping a non-inert core");
            core.catch_up(k);
            if core.is_done() {
                // The legacy loop restamps a finished core's progress
                // clock every tick; the last skipped cycle is target - 1.
                self.progress[i] = (core.retired_ops(), target - 1);
            }
        }
        self.cluster.advance_to(target);
        self.ticks_skipped += k;
    }

    /// `(executed, skipped)` cycle counts — how much work the
    /// event-scheduled kernel actually did versus jumped over.
    pub fn kernel_stats(&self) -> (u64, u64) {
        (self.ticks_executed, self.ticks_skipped)
    }

    /// Checkpoint/rollback cost counters accumulated so far.
    pub fn checkpoint_stats(&self) -> CheckpointStats {
        self.ckpt_stats
    }

    fn maybe_inject_fault(&mut self, now: Cycle) {
        // Attempt every *due* plan each tick (the queue is sorted by
        // injection time, so the due plans are a prefix). A plan whose
        // precondition is missing must not block the plans behind it —
        // a storm burst targets independent structures, and e.g. a
        // wb-reorder waiting for two buffered stores can wait a while.
        let mut i = 0;
        while i < self.pending_faults.len() {
            let plan = self.pending_faults[i];
            if now < plan.at_cycle {
                break;
            }
            if self.attempt_inject(plan, now) {
                self.pending_faults.remove(i);
            } else {
                i += 1;
            }
        }
    }

    /// One injection attempt; `true` when it took. Some faults need state
    /// to exist (a resident line, a WB entry) and are retried every cycle
    /// until it does.
    fn attempt_inject(&mut self, plan: FaultPlan, now: Cycle) -> bool {
        let idx = self.rng.gen::<u64>() as usize;
        let bit = self.rng.gen::<u32>();
        let took = match plan.fault {
            // A stuck bit injects like a cache data flip; its persistence
            // lives in the recovery path, which re-arms it after rollback.
            Fault::CacheBitFlip { node } | Fault::CacheStuckBit { node } => self
                .cluster
                .node_mut(node)
                .corrupt_l2(idx, bit as usize % 512)
                .is_some(),
            Fault::MemoryBitFlip { node } => self
                .cluster
                .home_mut(node)
                .corrupt_memory(idx, bit as usize % 512)
                .is_some(),
            Fault::DropMessage => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Drop);
                true
            }
            Fault::DuplicateMessage => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Duplicate);
                true
            }
            Fault::MisrouteMessage { to } => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Misroute(to));
                true
            }
            Fault::ReorderMessage { delay } => {
                self.arm_net_fault(dvmc_interconnect::NetFault::Delay(delay));
                true
            }
            Fault::WbDropStore { node } => self.cores[node.index()].inject_wb_drop(),
            Fault::WbReorderStores { node } => self.cores[node.index()].inject_wb_reorder(),
            Fault::WbCorruptValue { node } => self.cores[node.index()].inject_wb_corrupt(bit),
            Fault::WbAddressFlip { node } => self.cores[node.index()].inject_wb_addr_flip(bit),
            Fault::LsqWrongForward { node } => {
                self.cores[node.index()].arm_lsq_wrong_forward();
                true
            }
            Fault::CacheCtrlBogusUpgrade { node } => self
                .cluster
                .node_mut(node)
                .corrupt_upgrade(idx)
                .is_some(),
            Fault::MemCtrlForgetOwner { node } => self
                .cluster
                .home_mut(node)
                .corrupt_forget_owner(idx)
                .is_some(),
        };
        if took {
            // Core-targeted faults mutate core state behind the normal
            // tick-path dirty marking.
            if let Fault::WbDropStore { node }
            | Fault::WbReorderStores { node }
            | Fault::WbCorruptValue { node }
            | Fault::WbAddressFlip { node }
            | Fault::LsqWrongForward { node } = plan.fault
            {
                self.core_dirty[node.index()] = true;
            }
            self.last_injected = Some(plan);
            self.total_injected += 1;
            self.outstanding.push((plan, now));
            // Open (or extend) the recovery episode: overlapping faults
            // pile into one episode until the machine is clean again.
            let ep = self.episode.get_or_insert_with(|| EpisodeState {
                faults: Vec::new(),
                injected_at: now,
                last_injected_at: now,
                detected_at: None,
                attempts: 0,
                rollback_depth: 0,
                clean_after: now,
            });
            ep.faults.push(plan.fault);
            ep.last_injected_at = now;
        }
        took
    }

    /// Runs to completion (all threads finish their transaction quota),
    /// detection (once a fault is in flight), hang, or the cycle limit.
    ///
    /// With recovery armed, a detection — checker violation or watchdog
    /// hang — triggers rollback to the newest validated pre-error
    /// checkpoint and the run *continues*, replaying from there; only an
    /// unrecoverable verdict (retries exhausted, window escaped) stops it.
    pub fn run_to_completion(&mut self, max_cycles: u64) -> RunReport {
        let limit = max_cycles.min(self.cfg.max_cycles);
        while self.now() < limit {
            self.tick();
            if self.episode.is_some() && (!self.violations.is_empty() || self.hung) {
                // Detected, by a checker or by the hang watchdog.
                if self.try_recover() {
                    continue; // rolled back; replay
                }
                break;
            }
            if self.hung || self.all_done() {
                break;
            }
            self.advance_quiescent(limit);
        }
        if self.recovery_attempts > 0
            && !self.unrecoverable
            && self.all_done()
            && self.violations.is_empty()
        {
            if let Some(ring) = self.recovery_ring.as_mut() {
                ring.set_now(self.cluster.now());
                ring.record(CheckerEvent::RecoveryCompleted {
                    attempt: self.recovery_attempts,
                });
            }
        }
        self.report()
    }

    /// Requests a consistency-model switch on every core, applied per
    /// core at its next quiescent point (empty ROB, write buffer, and
    /// outstanding-request table). Idempotent — re-asserting the current
    /// model is a no-op — which matters because a rollback can restore
    /// cores to a pre-switch snapshot: the soak driver re-asserts the
    /// active model at every window boundary so a rolled-back switch is
    /// simply requested again.
    pub fn switch_model(&mut self, model: Model) {
        self.core_dirty.fill(true);
        for core in &mut self.cores {
            core.request_model_switch(model);
        }
    }

    /// All nodes' checker observability metrics, merged.
    pub fn obs_metrics(&self) -> ObsMetrics {
        let mut m = ObsMetrics::default();
        for i in 0..self.cfg.nodes {
            m.merge(&self.node_obs_metrics(i));
        }
        m
    }

    /// Faults injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.total_injected
    }

    // ----- service mode (DESIGN.md §13) ----------------------------------

    /// Arms service mode: the run becomes open-ended, with a streaming
    /// [`WindowSnapshot`] emitted every `window` cycles by
    /// [`run_service_until`](Self::run_service_until).
    pub fn arm_service(&mut self, window: Cycle) {
        let window = window.max(1);
        self.service = Some(ServiceState {
            window,
            next_boundary: self.now() + window,
            metrics_window: MetricsWindow::default(),
            last_retired: 0,
            last_requests: 0,
            last_injected: 0,
            last_masked: 0,
            last_episodes: 0,
            last_retries: 0,
            windows: Vec::new(),
            stopped: None,
        });
    }

    /// Runs service-mode ticks until `until` (or a fatal stop), invoking
    /// `on_window` at every window boundary. Detections are recovered
    /// in-line and grouped into episodes; the run only stops early on a
    /// *false violation* (a checker fired with no fault in flight — fatal
    /// for a verification scheme) or an unrecoverable episode. May be
    /// called repeatedly with increasing horizons (e.g. once per
    /// consistency-model segment of a soak schedule).
    ///
    /// # Panics
    ///
    /// Panics unless [`arm_service`](Self::arm_service) was called.
    pub fn run_service_until(
        &mut self,
        until: Cycle,
        on_window: &mut dyn FnMut(&WindowSnapshot),
    ) -> ServiceStop {
        assert!(self.service.is_some(), "arm_service before run_service_until");
        if let Some(stop) = self.service.as_ref().and_then(|s| s.stopped) {
            return stop; // already dead; don't limp on
        }
        let stop = loop {
            if self.now() >= until {
                break ServiceStop::Horizon;
            }
            self.tick();
            let now = self.now();
            self.age_masked(now);
            if !self.violations.is_empty() || self.hung {
                if self.episode.is_none() && self.outstanding.is_empty() {
                    // Nothing in flight to blame: a spontaneous checker
                    // violation is a false positive; a spontaneous hang
                    // has nothing to roll back past.
                    break if self.violations.is_empty() {
                        ServiceStop::Unrecoverable
                    } else {
                        ServiceStop::FalseViolation
                    };
                }
                if !self.try_recover() {
                    self.unrecoverable = true;
                    break ServiceStop::Unrecoverable;
                }
                continue; // rolled back; replay
            }
            self.maybe_close_episode(now);
            self.emit_windows(now, on_window);
            self.advance_quiescent(until);
        };
        if stop != ServiceStop::Horizon {
            if let Some(svc) = self.service.as_mut() {
                svc.stopped = Some(stop);
            }
        }
        stop
    }

    /// Ends service mode: stops injecting, gives an open episode a short
    /// grace period to settle, emits the final (partial) window, and
    /// packages everything into a [`ServiceReport`]. The partial report is
    /// well-formed even after a fatal stop — windows and episodes up to
    /// the stop are all present.
    ///
    /// # Panics
    ///
    /// Panics unless [`arm_service`](Self::arm_service) was called.
    pub fn finish_service(&mut self) -> ServiceReport {
        assert!(self.service.is_some(), "arm_service before finish_service");
        self.pending_faults.clear();
        let fatal = self.service.as_ref().and_then(|s| s.stopped).is_some();
        // Grace drain: an episode mid-recovery at the horizon gets up to
        // two watchdog periods to come clean before shutdown.
        if !fatal && self.episode.is_some() {
            let deadline = self.now() + self.cfg.watchdog_cycles.saturating_mul(2);
            while self.episode.is_some() && self.now() < deadline {
                self.tick();
                let now = self.now();
                self.age_masked(now);
                if !self.violations.is_empty() || self.hung {
                    if !self.try_recover() {
                        self.unrecoverable = true;
                        break;
                    }
                    continue;
                }
                self.maybe_close_episode(now);
                self.advance_quiescent(deadline);
            }
        }
        let now = self.now();
        let mut svc = self.service.take().expect("checked above");
        // Final partial window.
        let start = svc.next_boundary - svc.window;
        if now > start {
            let mut snap = self.window_snapshot(&mut svc);
            snap.end = now;
            svc.windows.push(snap);
        }
        let stopped = svc.stopped.unwrap_or(ServiceStop::Horizon);
        // Reported while the open episode still says what is in flight.
        let report = self.report();
        // An episode still open at shutdown goes on record unrecovered
        // (or, if never detected, masked-in-progress).
        self.close_episode(None);
        ServiceReport {
            windows: svc.windows,
            episodes: std::mem::take(&mut self.episodes),
            injected: self.total_injected,
            masked: self.masked,
            stopped,
            report,
        }
    }

    /// Ages outstanding *transient* faults: one that outlives the full
    /// SafetyNet recovery window without any detection is architecturally
    /// masked — even if it *did* manifest later, no checkpoint predating
    /// it would remain, so the mask horizon and the recovery horizon
    /// coincide. Persistent faults never age out: a stuck bit stays
    /// broken, and it must still be on the books when a late organic
    /// detection finally fingers it (otherwise that detection would be
    /// misread as a false violation).
    fn age_masked(&mut self, now: Cycle) {
        if self.outstanding.is_empty() {
            return;
        }
        let window = self.recovery_window();
        let before = self.outstanding.len();
        self.outstanding
            .retain(|&(p, t)| !p.fault.is_transient() || now.saturating_sub(t) <= window);
        let aged = (before - self.outstanding.len()) as u64;
        if aged == 0 {
            return;
        }
        self.masked += aged;
        // A never-detected episode whose faults all aged out closes as
        // masked.
        if self.outstanding.is_empty()
            && self.episode.as_ref().is_some_and(|ep| ep.detected_at.is_none() && ep.attempts == 0)
        {
            self.close_episode(None);
        }
    }

    /// Moves the open episode, if any, onto the closed-episode record;
    /// `recovered_at` is `None` for an episode that never came clean
    /// (masked, or still open at shutdown).
    fn close_episode(&mut self, recovered_at: Option<Cycle>) {
        if let Some(ep) = self.episode.take() {
            self.episodes.push(EpisodeReport {
                faults: ep.faults,
                injected_at: ep.injected_at,
                detected_at: ep.detected_at,
                attempts: ep.attempts,
                rollback_depth: ep.rollback_depth,
                recovered_at,
            });
        }
    }

    /// The SafetyNet recovery window: how long an undetected transient
    /// stays outstanding before it counts as masked.
    fn recovery_window(&self) -> Cycle {
        self.ber.as_ref().map_or_else(
            || self.cfg.ber.recovery_window(),
            |b| b.config().recovery_window(),
        )
    }

    /// Closes the open episode as recovered once the machine has run
    /// clean past the episode's last detection point: no outstanding
    /// faults, no violations, not hung, and the replay has re-passed the
    /// cycle where the error previously manifested. Closing resets the
    /// per-episode retry budget and narrows an escalation-widened
    /// checkpoint cadence back to its configured base.
    fn maybe_close_episode(&mut self, now: Cycle) {
        let Some(ep) = self.episode.as_ref() else {
            return;
        };
        let ready = ep.detected_at.is_some()
            && ep.attempts > 0
            && self.outstanding.is_empty()
            && self.violations.is_empty()
            && !self.hung
            && now > ep.clean_after;
        if !ready {
            return;
        }
        if let Some(ring) = self.recovery_ring.as_mut() {
            ring.set_now(now);
            ring.record(CheckerEvent::RecoveryCompleted { attempt: ep.attempts });
        }
        self.close_episode(Some(now));
        if let Some(ber) = self.ber.as_mut() {
            ber.narrow_interval(self.cfg.ber.checkpoint_interval);
        }
    }

    /// Emits every window boundary `now` has crossed. Rollbacks rewind
    /// `now`; already-emitted boundaries stay emitted and the next one
    /// simply waits for the replay to reach it again.
    fn emit_windows(&mut self, now: Cycle, on_window: &mut dyn FnMut(&WindowSnapshot)) {
        let Some(mut svc) = self.service.take() else {
            return;
        };
        while now >= svc.next_boundary {
            let snap = self.window_snapshot(&mut svc);
            on_window(&snap);
            svc.windows.push(snap);
            svc.next_boundary += svc.window;
        }
        self.service = Some(svc);
    }

    /// One window's snapshot: saturating deltas against the previous
    /// watermarks (counters inside rolled-back components can rewind;
    /// see [`MetricsWindow`]).
    fn window_snapshot(&mut self, svc: &mut ServiceState) -> WindowSnapshot {
        let retired: u64 = self.cores.iter().map(Core::retired_ops).sum();
        let requests: u64 = self.cores.iter().map(Core::transactions).sum();
        let closed = &self.episodes[svc.last_episodes.min(self.episodes.len())..];
        let detection: Vec<Cycle> =
            closed.iter().filter_map(EpisodeReport::detection_latency).collect();
        let recovery: Vec<Cycle> =
            closed.iter().filter_map(EpisodeReport::recovery_latency).collect();
        let m = self.obs_metrics();
        let delta = svc.metrics_window.delta(&m);
        // Open-loop queueing delay (arrival -> commit), drained per core.
        let mut delays: Vec<Cycle> = Vec::new();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let d = core.take_queue_delays();
            if !d.is_empty() {
                self.core_dirty[i] = true;
                delays.extend(d);
            }
        }
        let snap = WindowSnapshot {
            start: svc.next_boundary - svc.window,
            end: svc.next_boundary,
            retired_ops: retired.saturating_sub(svc.last_retired),
            requests: requests.saturating_sub(svc.last_requests),
            injected: self.total_injected - svc.last_injected,
            masked: self.masked - svc.last_masked,
            episodes_closed: closed.len() as u64,
            detection_latency_sum: detection.iter().sum(),
            detection_latency_count: detection.len() as u64,
            recovery_latency_sum: recovery.iter().sum(),
            recovery_latency_count: recovery.len() as u64,
            rollback_depth_max: std::mem::take(&mut self.window_rollback_depth),
            retries: u64::from(self.recovery_attempts - svc.last_retries),
            sorter_hwm: delta.sorter_occupancy_hwm,
            informs: delta.informs_enqueued,
            crc_checks: delta.crc_checks,
            epoch_closes: delta.epoch_closes,
            queue_delay_count: delays.len() as u64,
            queue_delay_p50: percentile(&delays, 50).unwrap_or(0),
            queue_delay_p99: percentile(&delays, 99).unwrap_or(0),
        };
        svc.last_retired = retired;
        svc.last_requests = requests;
        svc.last_injected = self.total_injected;
        svc.last_masked = self.masked;
        svc.last_episodes = self.episodes.len();
        svc.last_retries = self.recovery_attempts;
        snap
    }

    /// Attempts rollback/replay after a detection. Returns `true` when
    /// the machine was restored to a pre-error checkpoint and the run
    /// should continue, `false` when recovery is off or gave up (the
    /// caller stops; the report carries the preserved first detection and
    /// its forensics).
    fn try_recover(&mut self) -> bool {
        let Some(policy) = self.cfg.recovery else {
            return false;
        };
        let Some(latest) = self.in_flight() else {
            return false; // nothing to roll back past
        };
        // Roll back past the *earliest* still-outstanding injection: a
        // storm can land a second fault while the first is latent, and a
        // rollback that only clears the newer one replays straight into
        // the older one's corruption. After a rollback drained the
        // outstanding set, a replay re-detection falls back to the
        // episode's latest injection.
        let (fault, injected_at) = self
            .outstanding
            .iter()
            .min_by_key(|&&(_, t)| t)
            .map_or(latest, |&(plan, t)| (plan.fault, t));
        let now = self.cluster.now();
        // Preserve the first detection: rollback rewinds the live
        // evidence, but the report must still attest what was caught and
        // when.
        if self.recovery_detection.is_none() {
            self.recovery_detection = Some(self.detection(fault, injected_at, now));
        }
        // Forensics likewise: captured before restore, while the rings
        // still hold the events leading up to the violation.
        if self.cfg.obs_capacity > 0 && self.recovery_forensics.is_none() {
            self.recovery_forensics = Some(self.forensics(now));
        }
        let ep = self.episode.as_mut().expect("a fault in flight has an episode");
        ep.detected_at.get_or_insert(now);
        ep.clean_after = now;
        if ep.attempts >= policy.max_retries {
            // Retries exhausted. No restore: the final violations and
            // rings stay in place, so report() renders fresh forensics
            // for the unrecoverable verdict.
            self.unrecoverable = true;
            return false;
        }
        let attempt = ep.attempts + 1;
        let Some(mut ber) = self.ber.take() else {
            self.unrecoverable = true;
            return false;
        };
        // The reconstruction closure rebuilds the machine directly from
        // the log entries (whole-snapshot restore or delta undo-replay),
        // returning whether the recovery point carried restorable state.
        let rolled = ber.rollback_via(injected_at, now, |entries, idx| {
            self.restore_from(entries, idx)
        });
        self.ber = Some(ber);
        let Some((taken_at, restored)) = rolled else {
            self.unrecoverable = true; // error escaped the checkpoint window
            return false;
        };
        if !restored {
            self.unrecoverable = true; // checkpoint predates recovery arming
            return false;
        }
        self.recovery_attempts += 1;
        let depth = now.saturating_sub(taken_at);
        self.window_rollback_depth = self.window_rollback_depth.max(depth);
        if let Some(ep) = self.episode.as_mut() {
            ep.attempts = attempt;
            ep.rollback_depth = ep.rollback_depth.max(depth);
        }
        if let Some(ring) = self.recovery_ring.as_mut() {
            ring.set_now(now);
            ring.record(CheckerEvent::RecoveryStarted {
                attempt,
                checkpoint: taken_at,
            });
        }
        // A second attempt means the error survived one clean replay:
        // escalate by widening the checkpoint cadence (cheaper
        // checkpoints, wider window) before trying again.
        if attempt > 1 {
            self.recovery_escalations += 1;
            if let Some(ber) = self.ber.as_mut() {
                ber.widen_interval(policy.backoff_factor);
            }
            if let Some(ring) = self.recovery_ring.as_mut() {
                ring.record(CheckerEvent::RecoveryEscalated { attempt });
            }
        }
        // The restore itself already ran inside `rollback_via`; clear the
        // live evidence it squashed.
        self.violations.clear();
        self.hung = false;
        self.first_violation_node = None;
        self.recovery_checkpoint = taken_at;
        // An armed-but-unapplied network fault must not re-trip on replay.
        self.cluster.data_net_mut().disarm_fault();
        // The restore squashed every outstanding fault's effects.
        // Transients are gone for good; persistent defects re-arm at the
        // front of the schedule and will re-manifest during replay (the
        // restored RNG re-injects them identically).
        for (plan, _) in self.outstanding.drain(..).rev() {
            if !plan.fault.is_transient() {
                self.pending_faults.push_front(plan);
            }
        }
        true
    }

    /// The fault in flight: the open episode's latest injection, as
    /// `(fault, injected_at)`.
    fn in_flight(&self) -> Option<(Fault, Cycle)> {
        let ep = self.episode.as_ref()?;
        Some((self.last_injected?.fault, ep.last_injected_at))
    }

    /// The detection record for `fault`, injected at `injected_at` and
    /// caught at `now` by the live violations (or the hang watchdog).
    fn detection(&self, fault: Fault, injected_at: Cycle, now: Cycle) -> Detection {
        Detection {
            fault,
            injected_at,
            detected_at: now,
            violation: self.violations.first().cloned(),
            recoverable: self
                .ber
                .as_ref()
                .is_some_and(|b| b.recoverable(injected_at, now)),
        }
    }

    /// Forensics of the live detection: the first violation and the
    /// event trace of the node it is attributed to.
    fn forensics(&self, now: Cycle) -> ViolationReport {
        let node = self.attribute_node();
        ViolationReport {
            violation: self.violations.first().cloned(),
            trace: self.node_obs_trace(node.index()),
            cycle: now,
            node,
        }
    }

    /// Reconstructs the machine at `entries[idx]` (the recovery point the
    /// log selected). Returns `false` when that checkpoint carries no
    /// restorable state (BER armed without recovery).
    fn restore_from(&mut self, entries: &[Checkpoint<MachineCheckpoint>], idx: usize) -> bool {
        let taken_at = entries[idx].taken_at;
        match &entries[idx].state {
            MachineCheckpoint::Unarmed => return false,
            MachineCheckpoint::Whole(snap) => {
                self.cores = snap.cores.clone();
                self.cluster = snap.cluster.clone();
                self.rng = snap.rng.clone();
                self.progress = snap.progress.clone();
                self.ckpt_stats.parts_restored += snap.parts();
            }
            MachineCheckpoint::Delta(_) => self.restore_from_deltas(entries, idx, taken_at),
        }
        self.ckpt_stats.rollbacks += 1;
        true
    }

    /// The deltas in `log`, newest first, with their capture cycles.
    fn deltas(log: &[Checkpoint<MachineCheckpoint>]) -> impl Iterator<Item = (Cycle, &Delta)> {
        log.iter().rev().filter_map(|cp| match &cp.state {
            MachineCheckpoint::Delta(d) => Some((cp.taken_at, d.as_ref())),
            _ => None,
        })
    }

    /// Delta-log rollback: undo-replay reconstruction at `taken_at`.
    ///
    /// The parts that must be restored are the poisoned ones: touched
    /// after the recovery point — captured by a younger delta or dirtied
    /// since the newest capture. Each is restored from the newest delta at
    /// or before the recovery point that carries it, falling back to the
    /// base image. Cores are restored unconditionally: a clean idle core
    /// still drains its decode countdown every cycle, so its live value
    /// postdates any image — the image is restored and then caught up
    /// over the provably-inert gap.
    fn restore_from_deltas(
        &mut self,
        entries: &[Checkpoint<MachineCheckpoint>],
        idx: usize,
        taken_at: Cycle,
    ) {
        let mut poisoned: BTreeSet<PartId> = self.cluster.dirty_parts().collect();
        for (_, d) in Self::deltas(&entries[idx + 1..]) {
            poisoned.extend(d.parts.iter().map(PartImage::id));
        }
        let log = &entries[..=idx];
        let base = self.base.take().expect("delta log always has a base");
        // Cores: newest image at or before the recovery point, else base,
        // then catch up over the clean span.
        for i in 0..self.cfg.nodes {
            let (image_at, image) = Self::deltas(log)
                .find_map(|(at, d)| {
                    let (_, core) = d.cores.iter().find(|&&(j, _)| j == i)?;
                    Some((at, core))
                })
                .unwrap_or((self.base_core_at[i], &base.cores[i]));
            self.cores[i] = image.clone();
            let gap = taken_at.saturating_sub(image_at);
            self.cores[i].catch_up(gap);
            self.ckpt_stats.undo_replay_cycles += gap;
            self.ckpt_stats.parts_restored += 1;
        }
        for id in poisoned {
            match Self::deltas(log).find_map(|(_, d)| d.parts.iter().find(|p| p.id() == id)) {
                Some(image) => self.cluster.restore(image),
                None => self.cluster.restore(&base.cluster.image(id)),
            }
            self.ckpt_stats.parts_restored += 1;
        }
        // Misc rides in every delta; the recovery point's copy is exact.
        if let MachineCheckpoint::Delta(d) = &entries[idx].state {
            self.rng = d.misc.rng.clone();
            self.progress = d.misc.progress.clone();
            self.cluster
                .set_traffic_counters(d.misc.checker_bytes, d.misc.ber_bytes);
        }
        self.base = Some(base);
        // Rewind the cluster clock, then re-stamp every controller the
        // way `advance_to` does for a skipped span (an equal-target
        // advance performs exactly the idle stamp at `taken_at - 1`).
        self.cluster.set_now(taken_at);
        self.cluster.advance_to(taken_at);
        // Everything now matches the checkpoint; captures restart clean.
        self.cluster.clear_dirty();
        self.core_dirty.fill(false);
    }

    /// Bench hook: captures one checkpoint immediately (at the cadence's
    /// next boundary, wherever the clock is) and returns the approximate
    /// bytes it logged. Zero when BER is off or recovery is unarmed.
    pub fn force_checkpoint(&mut self) -> u64 {
        let Some(at) = self.ber.as_ref().map(SafetyNet::next_checkpoint_at) else {
            return 0;
        };
        let before = self.ckpt_stats.bytes_logged;
        self.take_checkpoint(at);
        self.ckpt_stats.bytes_logged - before
    }

    /// Bench hook: rolls back to the newest held checkpoint, bypassing
    /// the validation-latency filter, and returns the cycle restored.
    /// `None` when recovery is off or the log is empty. Repeatable: the
    /// recovery point stays in the log.
    pub fn force_rollback(&mut self) -> Option<Cycle> {
        let mut ber = self.ber.take()?;
        let rolled = ber.rollback_via(u64::MAX, u64::MAX, |entries, idx| {
            self.restore_from(entries, idx)
        });
        self.ber = Some(ber);
        match rolled {
            Some((taken_at, true)) => {
                self.violations.clear();
                self.hung = false;
                Some(taken_at)
            }
            _ => None,
        }
    }

    /// The node a detection is attributed to: the violation names one, or
    /// the core that reported first, or the fault's location.
    fn attribute_node(&self) -> NodeId {
        self.violations
            .first()
            .and_then(violation_node)
            .or(self.first_violation_node.map(nid))
            .or(self
                .last_injected
                .or(self.cfg.fault)
                .and_then(|p| p.fault.node()))
            .unwrap_or(NodeId(0))
    }

    /// Assembles the final report (flushes the coherence checker).
    pub fn report(&mut self) -> RunReport {
        let completed = self.all_done();
        // Drain in-flight coherence traffic (informs, acks, writebacks)
        // before the end-of-run audit. Truncated runs (cycle budget hit
        // with cores mid-request) drain too: auditing with epoch messages
        // still in flight makes `finish()` raise spurious SpuriousClose /
        // EpochOverlap / DataPropagation verdicts — closes racing their
        // own unscrubbed opens (ROADMAP 3b). Cores stop issuing, but
        // their pending responses must keep landing or the cluster never
        // goes quiescent (`resp_out` backs up).
        if !self.hung {
            for _ in 0..500_000u64 {
                for (i, core) in self.cores.iter_mut().enumerate() {
                    deliver(&mut self.cluster, i, core);
                }
                if self.cluster.is_quiescent() {
                    break;
                }
                self.cluster.tick();
            }
            self.violations.extend(self.cluster.drain_violations());
        }
        let now = self.now();
        // End-of-run audit; skipped when a fault already led to a
        // detection or hang, where in-flight state is expectedly
        // inconsistent and the verdict has been decided.
        if !self.fault_scheduled() || (self.violations.is_empty() && !self.hung) {
            self.violations.extend(self.cluster.finish());
        }
        // A hung faulted run takes neither branch above, yet its checkers
        // may already have raised violations that are still sitting in the
        // cluster; drain unconditionally so the verdict sees them
        // (previously they were dropped, demoting checker detections to
        // hang-only detections).
        self.violations.extend(self.cluster.drain_violations());
        let memory_digest = self.cluster.memory_digest();
        // A run that went through recovery reports its *first* detection
        // (rollback rewound the live evidence); otherwise the detection is
        // derived from the final state as before.
        let detected = !self.violations.is_empty() || self.hung;
        let detection = self.recovery_detection.clone().or_else(|| {
            let (fault, injected_at) = self.in_flight().filter(|_| detected)?;
            Some(self.detection(fault, injected_at, now))
        });
        let recovery = if self.recovery_attempts > 0 || self.unrecoverable {
            Some(RecoveryReport {
                attempts: self.recovery_attempts,
                escalations: self.recovery_escalations,
                checkpoint: self.recovery_checkpoint,
                outcome: if self.unrecoverable {
                    RecoveryOutcome::Unrecoverable
                } else {
                    RecoveryOutcome::Recovered
                },
            })
        } else {
            None
        };
        let obs: Vec<ObsMetrics> = if self.cfg.obs_capacity > 0 {
            (0..self.cfg.nodes).map(|i| self.node_obs_metrics(i)).collect()
        } else {
            Vec::new()
        };
        let forensics = if self.cfg.obs_capacity > 0 && detected {
            Some(self.forensics(now))
        } else {
            // A recovered run's final state is clean; fall back to the
            // forensics captured at the first (recovered) detection.
            self.recovery_forensics.clone()
        };
        RunReport {
            cycles: now,
            transactions: self.cores.iter().map(Core::transactions).sum(),
            completed,
            hung: self.hung,
            violations: self.violations.clone(),
            detection,
            core_stats: self.cores.iter().map(Core::stats).collect(),
            replay_stats: self.cores.iter().map(Core::replay_stats).collect(),
            cache_stats: (0..self.cfg.nodes)
                .map(|i| self.cluster.cache_stats(nid(i)))
                .collect(),
            max_link_bytes: self.cluster.data_net().max_link_bytes(),
            total_bytes: self.cluster.data_net().total_bytes(),
            checker_bytes: self.cluster.checker_bytes(),
            ber_bytes: self.cluster.ber_bytes(),
            obs,
            forensics,
            recovery,
            memory_digest,
            // Cloned, not drained: `commit_logs()` still works after
            // `report()` and vice versa.
            commit_logs: if self.cfg.record_commits {
                self.cores.iter().map(|c| c.commit_log().to_vec()).collect()
            } else {
                Vec::new()
            },
            checkpoint: self.ckpt_stats,
        }
    }
}

/// Hands core `i` the invalidations and responses the memory system
/// holds for it — invalidations first: a response and the invalidation
/// that staled it can land in the same cycle, and the speculation window
/// must close first (§4.1). Returns whether anything was delivered.
fn deliver(cluster: &mut Cluster, i: usize, core: &mut Core) -> bool {
    let id = nid(i);
    let inv = cluster.drain_invalidated(id);
    core.note_invalidations(&inv);
    let mut delivered = !inv.is_empty();
    while let Some(resp) = cluster.pop_resp(id) {
        core.deliver(resp);
        delivered = true;
    }
    delivered
}

/// The node a violation itself names, when it names one (per-processor
/// violations are attributed by which core reported them instead).
fn violation_node(v: &Violation) -> Option<NodeId> {
    match v {
        Violation::Coherence(c) => Some(match c {
            CoherenceViolation::AccessOutsideEpoch { node, .. }
            | CoherenceViolation::EccMismatch { node, .. } => *node,
            CoherenceViolation::EpochOverlap { home, .. }
            | CoherenceViolation::DataPropagation { home, .. }
            | CoherenceViolation::SpuriousClose { home, .. } => *home,
        }),
        Violation::Reorder(_) | Violation::LostOp(_) | Violation::Uniproc(_) => None,
    }
}

impl std::fmt::Debug for System {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("System")
            .field("nodes", &self.cfg.nodes)
            .field("model", &self.cfg.model)
            .field("protocol", &self.cfg.protocol)
            .field("cycle", &self.now())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SystemBuilder;
    use dvmc_coherence::Msg;
    use dvmc_core::{EpochKind, InformEpoch};
    use dvmc_faults::FaultPlan;
    use dvmc_types::{BlockAddr, Ts16};

    /// Plants `plan` as the fault in flight, injected at cycle `at`,
    /// the way `attempt_inject` records an injection.
    fn plant_in_flight(sys: &mut System, plan: FaultPlan, at: Cycle) {
        sys.last_injected = Some(plan);
        sys.episode = Some(EpisodeState {
            faults: vec![plan.fault],
            injected_at: at,
            last_injected_at: at,
            detected_at: None,
            attempts: 0,
            rollback_depth: 0,
            clean_after: at,
        });
    }

    /// Regression: a faulted run that ends in a hang used to skip both
    /// report() drain paths (no quiescence drain because it's hung, no
    /// end-of-run audit because a fault was scheduled), dropping any
    /// violations still sitting in the cluster and demoting a checker
    /// detection to a hang-only detection with `violation: None`.
    #[test]
    fn hung_faulted_run_keeps_cluster_violations() {
        let plan = FaultPlan {
            at_cycle: 0,
            fault: Fault::DropMessage,
        };
        let mut sys = SystemBuilder::new().nodes(2).fault(plan).build();
        // Plant a checker violation directly at home 0: an Inform-Epoch
        // for a block never requested through this home is flagged by the
        // MET once the sorter releases it.
        sys.cluster.home_mut(NodeId(0)).deliver(Msg::Epoch(
            InformEpoch {
                addr: BlockAddr(0),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(1),
                end: Ts16(2),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
        ));
        // Tick the cluster directly (not the system) so the violation is
        // raised but never drained into `sys.violations` — the state a
        // mid-run hang leaves behind.
        for _ in 0..4096 {
            sys.cluster.tick();
        }
        sys.hung = true;
        plant_in_flight(&mut sys, plan, 1);
        let report = sys.report();
        assert!(
            !report.violations.is_empty(),
            "cluster violations must survive a hung faulted run"
        );
        let detection = report.detection.expect("fault + hang is a detection");
        assert!(
            detection.violation.is_some(),
            "the checker's violation must reach the detection verdict"
        );
    }

    /// End-to-end observability: an instrumented error-free run reports
    /// per-node metrics with checker activity, and the planted-violation
    /// scenario above yields forensics with a non-empty trace attributed
    /// to the home that detected it.
    #[test]
    fn obs_metrics_and_forensics_flow_into_the_report() {
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Jbb, 2)
            .obs(32)
            .build();
        let report = sys.run_to_completion(2_000_000);
        assert!(report.completed);
        assert_eq!(report.obs.len(), 2, "one metrics entry per node");
        let total: u64 = report.obs.iter().map(|m| m.events).sum();
        assert!(total > 0, "an instrumented run records checker events");
        assert!(report.forensics.is_none(), "no detection, no forensics");
        assert!(!sys.dump().is_empty());

        let plan = FaultPlan {
            at_cycle: 0,
            fault: Fault::DropMessage,
        };
        let mut sys = SystemBuilder::new().nodes(2).obs(32).fault(plan).build();
        sys.cluster.home_mut(NodeId(0)).deliver(Msg::Epoch(
            InformEpoch {
                addr: BlockAddr(0),
                kind: EpochKind::ReadOnly,
                node: NodeId(1),
                start: Ts16(1),
                end: Ts16(2),
                start_hash: 0,
                end_hash: 0,
            }
            .into(),
        ));
        for _ in 0..4096 {
            sys.cluster.tick();
        }
        sys.hung = true;
        plant_in_flight(&mut sys, plan, 1);
        let report = sys.report();
        let forensics = report.forensics.expect("detection with obs enabled");
        assert_eq!(forensics.node, NodeId(0), "attributed to the home");
        assert!(forensics.violation.is_some());
        assert!(
            !forensics.trace.is_empty(),
            "the home's ring retains the events leading up to detection"
        );
        assert!(forensics.chain().contains("crc-check"), "{}", forensics.chain());
    }

    /// The tentpole end-to-end: a transient fault is injected, detected,
    /// rolled back, and replayed — and the recovered run's final memory
    /// (and even its cycle count) is identical to a fault-free golden run
    /// of the same configuration.
    #[test]
    fn transient_fault_recovers_to_the_golden_state() {
        use crate::config::RecoveryPolicy;
        use crate::report::RecoveryOutcome;
        use dvmc_workloads::spec::WorkloadKind;
        let build = |fault: Option<FaultPlan>| {
            let mut b = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Jbb, 24)
                .recovery(RecoveryPolicy::default())
                .watchdog(100_000)
                .obs(32)
                .seed(5);
            if let Some(plan) = fault {
                b = b.fault(plan);
            }
            b.build()
        };
        let golden = build(None).run_to_completion(5_000_000);
        assert!(golden.completed && golden.violations.is_empty());
        assert!(golden.recovery.is_none(), "nothing to recover from");

        let plan = FaultPlan {
            at_cycle: 6_000,
            fault: Fault::WbCorruptValue { node: NodeId(1) },
        };
        let report = build(Some(plan)).run_to_completion(5_000_000);
        assert!(report.completed, "replay runs to completion");
        assert!(
            report.violations.is_empty(),
            "no false violations survive rollback/replay: {:?}",
            report.violations
        );
        let rec = report.recovery.expect("a rollback happened");
        assert_eq!(rec.outcome, RecoveryOutcome::Recovered);
        assert!(rec.attempts >= 1);
        assert_eq!(rec.escalations, 0, "first retry needs no escalation");
        let det = report.detection.expect("the fault was detected first");
        assert!(det.recoverable, "within the SafetyNet window");
        assert!(det.violation.is_some() || report.hung);
        assert_eq!(
            report.memory_digest, golden.memory_digest,
            "post-recovery memory must match the fault-free run"
        );
        assert_eq!(report.cycles, golden.cycles, "replay retraces the golden timeline");
        // Recovery observability: events rooted at node 0, forensics of
        // the recovered detection retained.
        assert_eq!(report.obs[0].recoveries_started, u64::from(rec.attempts));
        assert_eq!(report.obs[0].recoveries_completed, 1);
        let forensics = report.forensics.expect("first-detection forensics retained");
        assert!(!forensics.trace.is_empty());
    }

    /// A persistent fault re-manifests on every replay: recovery must
    /// escalate (widening the checkpoint cadence), exhaust its retries,
    /// and report the run unrecoverable with the *first* detection and
    /// its forensics intact — not loop on rollback forever.
    ///
    /// White-box: the injected stuck bit is real and genuinely re-injects
    /// during each replay, but its manifestations are planted (as
    /// watchdog hangs) because organic detection of latent cache
    /// corruption waits on eviction/CRC latency far too long for a unit
    /// test; `exp_recovery` covers the organic end-to-end path.
    #[test]
    fn persistent_fault_exhausts_retries_and_escalates() {
        use crate::config::RecoveryPolicy;
        use crate::report::RecoveryOutcome;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Oltp, u64::MAX / 2)
            .recovery(RecoveryPolicy {
                max_retries: 2,
                backoff_factor: 2,
            })
            .watchdog(100_000)
            .obs(32)
            .seed(5)
            .fault(FaultPlan {
                at_cycle: 2_000,
                fault: Fault::CacheStuckBit { node: NodeId(1) },
            })
            .build();
        fn run_until(sys: &mut System, cycle: Cycle) {
            while sys.now() < cycle {
                sys.tick();
            }
        }
        run_until(&mut sys, 30_000);
        assert!(sys.pending_faults.is_empty(), "the stuck bit was injected");
        // First manifestation.
        sys.hung = true;
        assert!(sys.try_recover(), "first retry rolls back");
        assert_eq!(sys.recovery_attempts, 1);
        assert!(!sys.hung, "rollback clears the hang");
        assert_eq!(sys.now(), 0, "only the initial checkpoint predates the fault");
        assert!(!sys.pending_faults.is_empty(), "persistent: the defect re-arms for replay");
        run_until(&mut sys, 30_000);
        assert!(sys.pending_faults.is_empty(), "the stuck bit re-manifested during replay");
        // Second manifestation: escalation kicks in.
        sys.hung = true;
        assert!(sys.try_recover(), "second retry still rolls back");
        assert_eq!(sys.recovery_attempts, 2);
        assert_eq!(sys.recovery_escalations, 1);
        assert_eq!(
            sys.ber.as_ref().unwrap().config().checkpoint_interval,
            2 * sys.cfg.ber.checkpoint_interval,
            "escalation widened the checkpoint cadence"
        );
        run_until(&mut sys, 30_000);
        // Third manifestation: retries are exhausted.
        sys.hung = true;
        assert!(!sys.try_recover(), "retries exhausted: recovery gives up");
        let report = sys.report();
        let rec = report.recovery.expect("recovery ran");
        assert_eq!(rec.outcome, RecoveryOutcome::Unrecoverable);
        assert_eq!(rec.attempts, 2);
        assert_eq!(rec.escalations, 1);
        assert!(report.hung, "the final manifestation is still on record");
        let det = report.detection.expect("the first detection is preserved");
        assert_eq!(det.detected_at, 30_000, "detection time of the FIRST manifestation");
        assert!(det.recoverable, "recoverable at detection, yet persistent");
        let forensics = report.forensics.expect("unrecoverable verdict carries forensics");
        assert!(!forensics.trace.is_empty());
        assert_eq!(report.obs[0].recoveries_started, 2);
        assert_eq!(report.obs[0].recovery_escalations, 1);
        assert_eq!(report.obs[0].recoveries_completed, 0);
    }

    /// White-box: a rollback restores a part whose only image left the
    /// log when its delta was evicted, so it must come from the base —
    /// which holds it only if `Delta::fold_into` folded the delta's
    /// memory-system parts in. A home memory array poked once and then
    /// idle for the whole log window is exactly that part.
    #[test]
    fn rollback_restores_a_part_last_captured_in_a_folded_delta() {
        use crate::config::RecoveryPolicy;
        use dvmc_ber::SafetyNetConfig;
        use dvmc_types::WordAddr;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Jbb, 2)
            .ber_config(SafetyNetConfig {
                checkpoint_interval: 100,
                validation_latency: 150,
                max_checkpoints: 4,
                coordination_bytes: 16,
            })
            .recovery(RecoveryPolicy::default())
            .checkpoint_mode(CheckpointMode::DeltaLog)
            .seed(3)
            .build();
        // Let the workload finish and its traffic drain: from here on no
        // request reaches any home.
        while !(sys.all_done() && sys.cluster.is_quiescent()) {
            sys.tick();
        }
        let addr = WordAddr(0);
        let home = PartId::HomeMem(addr.block().home(2).index());
        sys.cluster.poke_word(addr, 0xA11CE);
        let poked_at = sys.now();
        // The next checkpoint (within one interval) captures the poked
        // memory; a few intervals later its delta has been evicted and
        // folded into the base.
        while sys.now() < poked_at + 700 {
            sys.tick();
        }
        let oldest = sys.ber.as_ref().unwrap().oldest_checkpoint();
        assert!(oldest > poked_at + 100, "the capturing delta left the log");
        assert!(!sys.cluster.dirty_parts().any(|id| id == home), "the home stayed idle");
        // Poison the memory again, then roll back to the newest checkpoint:
        // no retained delta carries this home's memory, so it is restored
        // from the base.
        sys.cluster.poke_word(addr, 0xB0B);
        sys.force_rollback().expect("recovery is armed");
        assert_eq!(sys.cluster.peek_memory_word(addr), 0xA11CE);
    }

    /// Service mode end to end: an open-loop run under a transient storm
    /// detects every fault, recovers each in-line, closes every episode
    /// with finite latencies, and reaches the horizon with zero
    /// unrecovered faults and zero false violations. Windows tile the
    /// timeline contiguously and account for the injections.
    ///
    /// The second input pins the per-episode retry budget: three
    /// separate episodes against a budget of one retry only all recover
    /// if closing an episode resets the budget.
    #[test]
    fn service_mode_recovers_a_transient_storm() {
        use crate::config::RecoveryPolicy;
        use dvmc_workloads::spec::WorkloadKind;
        let plan = |at_cycle, fault| FaultPlan { at_cycle, fault };
        let cases = [
            (
                4,
                vec![
                    plan(6_000, Fault::WbCorruptValue { node: NodeId(1) }),
                    plan(90_000, Fault::WbDropStore { node: NodeId(0) }),
                ],
            ),
            (
                1,
                vec![
                    plan(6_000, Fault::WbCorruptValue { node: NodeId(1) }),
                    plan(90_000, Fault::WbDropStore { node: NodeId(0) }),
                    plan(170_000, Fault::WbCorruptValue { node: NodeId(0) }),
                ],
            ),
        ];
        for (max_retries, storm) in cases {
            let faults = storm.len() as u64;
            let mut sys = SystemBuilder::new()
                .nodes(2)
                .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
                .recovery(RecoveryPolicy {
                    max_retries,
                    backoff_factor: 2,
                })
                .watchdog(60_000)
                .obs(32)
                .seed(11)
                .storm(storm)
                .build();
            sys.arm_service(25_000);
            let mut streamed = 0usize;
            let stop = sys.run_service_until(250_000, &mut |_snap| streamed += 1);
            assert_eq!(stop, ServiceStop::Horizon, "no fatal stop under a transient storm");
            let svc = sys.finish_service();
            assert_eq!(svc.stopped, ServiceStop::Horizon);
            assert_eq!(svc.injected, faults, "every storm member injected");
            assert_eq!(svc.unrecovered(), 0, "every detected fault recovered");
            assert!(svc.report.violations.is_empty(), "no violation outlives recovery");
            assert!(!svc.report.hung);
            // Every closed episode recovered, with sane latency ordering.
            assert!(!svc.episodes.is_empty(), "the storm produced episodes");
            for ep in &svc.episodes {
                if let Some(d) = ep.detected_at {
                    assert!(ep.recovery_latency().is_some(), "recovered: {ep:?}");
                    let r = ep.recovered_at.expect("recovered episodes carry a clean time");
                    assert!(r > d, "the machine comes clean strictly after detection");
                    assert!(d >= ep.injected_at, "detection follows injection");
                    assert!(ep.attempts >= 1);
                }
            }
            if max_retries == 1 {
                // Every episode recovered on a budget of one retry, yet
                // the run spent more than one retry in total.
                assert!(svc.episodes.iter().all(|ep| ep.recovered_at.is_some()), "{:?}", svc.episodes);
                let attempts = svc.report.recovery.as_ref().map_or(0, |r| r.attempts);
                assert!(attempts > max_retries, "{attempts} attempts");
            }
            // Windows tile the timeline: contiguous, streamed in order,
            // and the storm's injections are attributed to some window.
            // Every full window was streamed live; a final *partial*
            // window exists only when the run ends off a boundary.
            assert!(
                svc.windows.len() == streamed || svc.windows.len() == streamed + 1,
                "{} streamed vs {} recorded",
                streamed,
                svc.windows.len()
            );
            for w in windows_pairs(&svc.windows) {
                assert_eq!(w.0.end, w.1.start, "windows are contiguous");
            }
            let injected: u64 = svc.windows.iter().map(|w| w.injected).sum();
            assert_eq!(injected, faults);
            let retired: u64 = svc.windows.iter().map(|w| w.retired_ops).sum();
            assert!(retired > 0, "open-loop traffic made forward progress");
            let closed: u64 = svc.windows.iter().map(|w| w.episodes_closed).sum();
            assert_eq!(closed as usize, svc.episodes.len(), "window deltas account every episode");
        }
    }

    fn windows_pairs(w: &[WindowSnapshot]) -> impl Iterator<Item = (&WindowSnapshot, &WindowSnapshot)> {
        w.iter().zip(w.iter().skip(1))
    }

    /// White-box: an outstanding fault that outlives the SafetyNet
    /// recovery window without ever being detected is aged out as
    /// *masked*, and its never-detected episode closes with no attempts.
    #[test]
    fn undetected_faults_age_out_as_masked() {
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .obs(32)
            .seed(7)
            .build();
        sys.arm_service(10_000);
        let plan = FaultPlan {
            at_cycle: 0,
            fault: Fault::MemoryBitFlip { node: NodeId(1) },
        };
        sys.outstanding.push((plan, 100));
        sys.total_injected = 1;
        plant_in_flight(&mut sys, plan, 100);
        let window = sys.cfg.ber.recovery_window();
        sys.age_masked(100 + window); // still inside the window
        assert_eq!(sys.masked, 0);
        assert!(sys.episode.is_some());
        sys.age_masked(101 + window); // one past it
        assert_eq!(sys.masked, 1);
        assert!(sys.episode.is_none(), "the never-detected episode closed");
        assert!(sys.outstanding.is_empty());
        let svc = sys.finish_service();
        assert_eq!(svc.masked, 1);
        assert_eq!(svc.unrecovered(), 0, "masked faults are not unrecovered");
        let ep = &svc.episodes[0];
        assert_eq!(ep.detected_at, None);
        assert_eq!(ep.attempts, 0);
        assert_eq!(ep.recovered_at, None);
    }

    /// Cores apply a requested consistency-model switch only at a
    /// quiescent point, and the service harness's per-boundary re-assert
    /// is idempotent.
    #[test]
    fn model_switch_applies_quiescently_in_service_mode() {
        use dvmc_consistency::Model;
        use dvmc_workloads::spec::WorkloadKind;
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .model(Model::Tso)
            .seed(3)
            .build();
        sys.arm_service(5_000);
        let stop = sys.run_service_until(20_000, &mut |_| {});
        assert_eq!(stop, ServiceStop::Horizon);
        sys.switch_model(Model::Rmo);
        sys.switch_model(Model::Rmo); // idempotent re-assert
        let stop = sys.run_service_until(60_000, &mut |_| {});
        assert_eq!(stop, ServiceStop::Horizon);
        for core in &sys.cores {
            assert_eq!(core.model(), Model::Rmo, "switch applied at a quiescent point");
        }
        let svc = sys.finish_service();
        assert_eq!(svc.stopped, ServiceStop::Horizon);
        assert!(svc.report.violations.is_empty(), "{:?}", svc.report.violations);
    }
}
