//! # SafetyNet-style backward error recovery (BER)
//!
//! DVMC detects errors; recovery is delegated to a checkpoint-based BER
//! mechanism (§3, §5). The paper uses SafetyNet: the system periodically
//! takes lightweight global checkpoints, which become *validated* once all
//! operations in flight at checkpoint time have settled; a bounded log
//! keeps the last few checkpoints, giving a recovery window of roughly
//! 100k processor cycles. An error is recoverable iff it is detected while
//! a checkpoint predating it is still held (§6.1 verifies all injected
//! errors are detected "well within the SafetyNet recovery time frame").
//!
//! This crate models the behaviour the evaluation depends on — checkpoint
//! cadence, validation latency, log capacity, the derived recovery window,
//! and the per-checkpoint coordination traffic the simulator charges to
//! the interconnect — and, beyond the timing model, a *real* checkpoint
//! log: [`SafetyNet`] is generic over a checkpoint payload `S`. The
//! simulator logs incremental deltas over a base image (or, in its
//! reference mode, whole-machine snapshots) and restores through
//! [`rollback_via`](SafetyNet::rollback_via), which hands its
//! reconstruction the log up to the recovery point so it can undo-replay
//! the deltas; [`rollback_to`](SafetyNet::rollback_to) is the
//! clone-the-entry shorthand for self-contained payloads. The paper
//! treats BER as an orthogonal, pluggable mechanism (ReVive would work
//! equally well); the log-and-rollback contract here is exactly what
//! either provides.

use dvmc_types::Cycle;
use std::collections::VecDeque;

/// SafetyNet configuration.
#[derive(Clone, Copy, Debug)]
pub struct SafetyNetConfig {
    /// Cycles between checkpoint creations.
    pub checkpoint_interval: u64,
    /// Cycles until a new checkpoint is validated (all in-flight
    /// operations at creation time have settled).
    pub validation_latency: u64,
    /// Number of checkpoints the log can hold.
    pub max_checkpoints: usize,
    /// Wire bytes of per-node coordination traffic per checkpoint.
    pub coordination_bytes: u32,
}

impl Default for SafetyNetConfig {
    fn default() -> Self {
        SafetyNetConfig {
            checkpoint_interval: 5_000,
            validation_latency: 10_000,
            max_checkpoints: 20,
            coordination_bytes: 16,
        }
    }
}

/// A rejected SafetyNet configuration (mirrors how
/// `dvmc_sim::ConfigError` refuses invalid system configurations up
/// front instead of misbehaving silently later).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BerConfigError {
    /// `checkpoint_interval` was zero: the cadence loop would never
    /// advance.
    ZeroInterval,
    /// `max_checkpoints` was zero: the log could never hold a recovery
    /// point.
    NoCheckpoints,
    /// `validation_latency >= recovery_window()`: every checkpoint is
    /// reclaimed before it can validate, so once the initial checkpoint
    /// leaves the log, `recoverable()` is silently always false.
    ValidationExceedsWindow {
        /// The configured validation latency.
        validation_latency: u64,
        /// The window it must stay below.
        recovery_window: u64,
    },
}

impl std::fmt::Display for BerConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BerConfigError::ZeroInterval => {
                write!(f, "checkpoint interval must be positive")
            }
            BerConfigError::NoCheckpoints => {
                write!(f, "the checkpoint log needs capacity for at least one checkpoint")
            }
            BerConfigError::ValidationExceedsWindow {
                validation_latency,
                recovery_window,
            } => write!(
                f,
                "validation latency {validation_latency} reaches the recovery window \
                 {recovery_window}: no held checkpoint could ever validate"
            ),
        }
    }
}

impl std::error::Error for BerConfigError {}

impl SafetyNetConfig {
    /// The nominal recovery window: how far in the past the oldest held
    /// checkpoint reaches once the log is warm.
    pub fn recovery_window(&self) -> u64 {
        self.checkpoint_interval * self.max_checkpoints as u64
    }

    /// Checks the configuration's structural invariants; every entry
    /// point that builds a [`SafetyNet`] goes through this.
    pub fn validate(&self) -> Result<(), BerConfigError> {
        if self.checkpoint_interval == 0 {
            return Err(BerConfigError::ZeroInterval);
        }
        if self.max_checkpoints == 0 {
            return Err(BerConfigError::NoCheckpoints);
        }
        if self.validation_latency >= self.recovery_window() {
            return Err(BerConfigError::ValidationExceedsWindow {
                validation_latency: self.validation_latency,
                recovery_window: self.recovery_window(),
            });
        }
        Ok(())
    }
}

/// One entry of the checkpoint log: when it was taken and the snapshot it
/// holds. `S = ()` degenerates to the pure timing model.
#[derive(Clone, Debug)]
pub struct Checkpoint<S> {
    /// Creation time.
    pub taken_at: Cycle,
    /// The snapshotted state.
    pub state: S,
}

/// The global SafetyNet state (one instance per system; SafetyNet
/// checkpoints are globally coordinated in logical time).
///
/// Generic over the checkpoint payload `S`: the simulator stores
/// machine checkpoints (incremental deltas, or whole snapshots in its
/// reference mode), tests and cost models use `S = ()`.
#[derive(Clone, Debug)]
pub struct SafetyNet<S = ()> {
    cfg: SafetyNetConfig,
    checkpoints: VecDeque<Checkpoint<S>>,
    last_checkpoint: Cycle,
    taken: u64,
    reclaimed: u64,
    rollbacks: u64,
}

impl SafetyNet<()> {
    /// Creates the pure timing model with an initial checkpoint at time 0.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`SafetyNetConfig::validate`];
    /// use [`SafetyNet::with_initial`] to handle the error instead.
    pub fn new(cfg: SafetyNetConfig) -> Self {
        SafetyNet::with_initial(cfg, ())
            .unwrap_or_else(|e| panic!("invalid SafetyNet configuration: {e}"))
    }

    /// Advances to `now`; returns how many checkpoints were created
    /// (under monotone per-cycle ticking: 0 or 1).
    pub fn tick(&mut self, now: Cycle) -> usize {
        self.tick_with(now, || ())
    }
}

impl<S> SafetyNet<S> {
    /// Creates the recovery mechanism, seeding the log with an initial
    /// checkpoint of `initial` at time 0, after validating `cfg`.
    pub fn with_initial(cfg: SafetyNetConfig, initial: S) -> Result<Self, BerConfigError> {
        cfg.validate()?;
        let mut checkpoints = VecDeque::new();
        checkpoints.push_back(Checkpoint {
            taken_at: 0,
            state: initial,
        });
        Ok(SafetyNet {
            cfg,
            checkpoints,
            last_checkpoint: 0,
            taken: 1,
            reclaimed: 0,
            rollbacks: 0,
        })
    }

    /// The configuration.
    pub fn config(&self) -> &SafetyNetConfig {
        &self.cfg
    }

    /// The cycle at which the next checkpoint falls due — the event an
    /// event-scheduled simulation kernel must not skip past. Under the
    /// cadence loop of [`tick_with`](Self::tick_with) this is always
    /// `last_checkpoint + checkpoint_interval` (rewound by rollback,
    /// widened by escalation).
    pub fn next_checkpoint_at(&self) -> Cycle {
        self.last_checkpoint.saturating_add(self.cfg.checkpoint_interval)
    }

    /// Advances to `now`, calling `snapshot` for every checkpoint due and
    /// stamping each at its interval-aligned boundary. Returns how many
    /// checkpoints were created.
    ///
    /// A single call that jumps past several intervals takes *all* the
    /// missed checkpoints (a coarse ticker used to take only one, silently
    /// stretching the recovery window). Note that under coarse ticking the
    /// snapshots of the missed boundaries are all taken from the *current*
    /// state; callers that store real state in `S` must call this at
    /// every [`next_checkpoint_at`](Self::next_checkpoint_at) boundary so
    /// each checkpoint's snapshot matches its stamp. The simulator's
    /// event-scheduled kernel guarantees this by pinning those boundaries
    /// as events it never skips.
    pub fn tick_with(&mut self, now: Cycle, snapshot: impl FnMut() -> S) -> usize {
        let before = self.taken;
        self.tick_with_reclaimed(now, snapshot);
        (self.taken - before) as usize
    }

    /// Like [`tick_with`](Self::tick_with), but hands back the log
    /// entries reclaimed by this advance (oldest first) instead of
    /// dropping them. Log-based incremental checkpointing needs them: a
    /// reclaimed *delta* still carries the only images of the parts it
    /// touched, so the caller folds each into its base snapshot before
    /// letting it go — dropping it would leave the oldest surviving
    /// delta dangling over a base that postdates it.
    pub fn tick_with_reclaimed(
        &mut self,
        now: Cycle,
        mut snapshot: impl FnMut() -> S,
    ) -> Vec<Checkpoint<S>> {
        let mut reclaimed = Vec::new();
        while now >= self.last_checkpoint + self.cfg.checkpoint_interval {
            self.last_checkpoint += self.cfg.checkpoint_interval;
            self.taken += 1;
            self.checkpoints.push_back(Checkpoint {
                taken_at: self.last_checkpoint,
                state: snapshot(),
            });
            // Reclaim the log: keep at most `max_checkpoints`.
            while self.checkpoints.len() > self.cfg.max_checkpoints {
                if let Some(cp) = self.checkpoints.pop_front() {
                    reclaimed.push(cp);
                }
                self.reclaimed += 1;
            }
        }
        reclaimed
    }

    /// Rolls back through a caller-supplied reconstruction instead of a
    /// clone: finds the recovery point for an error at `error_time`
    /// detected at `now`, hands `reconstruct` the *whole log* (oldest
    /// first) plus the recovery point's index — an incremental-checkpoint
    /// log needs every entry up to that index to rebuild the state, not
    /// just the entry itself — then drops the poisoned younger entries
    /// and rewinds the cadence clock exactly like
    /// [`rollback_to`](Self::rollback_to). Returns the recovery cycle
    /// and whatever `reconstruct` produced, or `None` if the error
    /// escaped the window (in which case nothing is called or changed).
    pub fn rollback_via<R>(
        &mut self,
        error_time: Cycle,
        now: Cycle,
        reconstruct: impl FnOnce(&[Checkpoint<S>], usize) -> R,
    ) -> Option<(Cycle, R)> {
        let idx = self.recovery_index(error_time, now)?;
        let entries = self.checkpoints.make_contiguous();
        let taken_at = entries[idx].taken_at;
        let result = reconstruct(entries, idx);
        self.checkpoints.truncate(idx + 1);
        self.last_checkpoint = taken_at;
        self.rollbacks += 1;
        Some((taken_at, result))
    }

    /// Whether a checkpoint taken at `taken_at` is validated at `now`
    /// (the initial time-0 checkpoint is valid by construction: nothing
    /// was in flight).
    fn validated(&self, taken_at: Cycle, now: Cycle) -> bool {
        taken_at + self.cfg.validation_latency <= now || taken_at == 0
    }

    /// The log index of the newest validated checkpoint at or before
    /// `error_time`, as seen at time `now`.
    fn recovery_index(&self, error_time: Cycle, now: Cycle) -> Option<usize> {
        self.checkpoints
            .iter()
            .rposition(|c| c.taken_at <= error_time && self.validated(c.taken_at, now))
    }

    /// The newest validated checkpoint that predates `error_time`, as seen
    /// at time `now` — the recovery point for an error at `error_time`
    /// detected at `now`. `None` means the error escaped the recovery
    /// window and is unrecoverable.
    pub fn recovery_point(&self, error_time: Cycle, now: Cycle) -> Option<Cycle> {
        self.recovery_index(error_time, now)
            .map(|i| self.checkpoints[i].taken_at)
    }

    /// Whether an error occurring at `error_time` and detected at `now`
    /// can be recovered.
    pub fn recoverable(&self, error_time: Cycle, now: Cycle) -> bool {
        self.recovery_point(error_time, now).is_some()
    }

    /// Widens the checkpoint interval by `factor` (at least 2x) — retry
    /// escalation back-off: when an error recurs after rollback, a longer
    /// interval widens the recovery window and cuts checkpoint overhead
    /// while the system limps toward a verdict. Widening the interval
    /// preserves the [`validate`](SafetyNetConfig::validate) invariant
    /// (the window only grows).
    pub fn widen_interval(&mut self, factor: u64) {
        self.cfg.checkpoint_interval = self
            .cfg
            .checkpoint_interval
            .saturating_mul(factor.max(2));
    }

    /// Restores the checkpoint interval to `interval` — de-escalation
    /// after a recovered episode in service mode: the widened cadence a
    /// persistent-looking error forced should not be paid forever once
    /// the machine is demonstrably healthy again. Narrowing only (the
    /// complement of [`widen_interval`](Self::widen_interval)); a value
    /// at or above the current interval, or one that would invalidate
    /// the configuration, is ignored.
    pub fn narrow_interval(&mut self, interval: u64) {
        if interval >= self.cfg.checkpoint_interval {
            return;
        }
        let narrowed = SafetyNetConfig {
            checkpoint_interval: interval,
            ..self.cfg
        };
        if narrowed.validate().is_ok() {
            self.cfg.checkpoint_interval = interval;
        }
    }

    /// Checkpoints created so far.
    pub fn checkpoints_taken(&self) -> u64 {
        self.taken
    }

    /// Checkpoints reclaimed (log wrap).
    pub fn checkpoints_reclaimed(&self) -> u64 {
        self.reclaimed
    }

    /// Rollbacks performed.
    pub fn rollbacks(&self) -> u64 {
        self.rollbacks
    }

    /// The oldest held checkpoint's creation time.
    pub fn oldest_checkpoint(&self) -> Cycle {
        self.checkpoints.front().map_or(0, |c| c.taken_at)
    }
}

impl<S: Clone> SafetyNet<S> {
    /// Rolls back: returns a copy of the recovery checkpoint for an error
    /// at `error_time` detected at `now`, or `None` if the error escaped
    /// the window.
    ///
    /// Every checkpoint *younger* than the recovery point is discarded —
    /// those snapshots postdate the error and may embed its corruption
    /// (they are poisoned). The recovery point itself stays in the log (a
    /// recurring error can roll back to it again), and the cadence clock
    /// rewinds to it so replay re-takes checkpoints from there; without
    /// the rewind, replayed time (which restarts at the checkpoint) would
    /// sit permanently behind `last_checkpoint` and no checkpoint would
    /// ever be taken again.
    pub fn rollback_to(&mut self, error_time: Cycle, now: Cycle) -> Option<Checkpoint<S>> {
        self.rollback_via(error_time, now, |entries, idx| entries[idx].state.clone())
            .map(|(taken_at, state)| Checkpoint { taken_at, state })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cfg() -> SafetyNetConfig {
        SafetyNetConfig {
            checkpoint_interval: 100,
            validation_latency: 150,
            max_checkpoints: 4,
            coordination_bytes: 16,
        }
    }

    fn net() -> SafetyNet {
        SafetyNet::new(cfg())
    }

    #[test]
    fn checkpoints_fire_on_interval() {
        let mut sn = net();
        let mut events = 0;
        for now in 1..=1000 {
            events += sn.tick(now);
        }
        assert_eq!(events, 10);
        assert_eq!(sn.checkpoints_taken(), 11, "plus the initial checkpoint");
    }

    #[test]
    fn log_is_bounded() {
        let mut sn = net();
        for now in 1..=2000 {
            sn.tick(now);
        }
        assert!(sn.checkpoints_reclaimed() > 0);
        // Oldest held checkpoint is within the window.
        assert!(sn.oldest_checkpoint() >= 2000 - sn.config().recovery_window());
    }

    #[test]
    fn recent_error_is_recoverable() {
        let mut sn = net();
        for now in 1..=1000 {
            sn.tick(now);
        }
        // Error at 950 detected at 1000: the checkpoint at 900 is not yet
        // validated (validation takes 150); 800 is (800+150 <= 1000).
        assert_eq!(sn.recovery_point(950, 1000), Some(800));
        assert!(sn.recoverable(950, 1000));
    }

    #[test]
    fn stale_error_escapes_the_window() {
        let mut sn = net();
        for now in 1..=10_000 {
            sn.tick(now);
        }
        // The log holds only the last 4 checkpoints (~400 cycles).
        assert!(!sn.recoverable(5_000, 10_000), "error is 5k cycles old");
        assert!(sn.recoverable(9_950, 10_000));
    }

    #[test]
    fn initial_checkpoint_covers_early_errors() {
        let sn = net();
        assert_eq!(sn.recovery_point(10, 20), Some(0));
    }

    #[test]
    fn window_accounting() {
        let cfg = SafetyNetConfig::default();
        assert_eq!(cfg.recovery_window(), 100_000, "paper's ~100k cycle window");
        cfg.validate().expect("the paper default is valid");
    }

    /// Regression: a coarse tick that jumps past several intervals used to
    /// take a single checkpoint stamped at `now`, stretching the recovery
    /// window (the log's span covered fewer, sparser checkpoints than
    /// configured). All missed boundaries are now taken.
    #[test]
    fn coarse_tick_takes_every_missed_checkpoint() {
        let mut sn = net();
        assert_eq!(sn.tick(450), 4, "boundaries 100..=400 were all due");
        assert_eq!(sn.checkpoints_taken(), 5);
        // Checkpoints are stamped at their aligned boundaries, not at
        // `now`, so the cadence — and the window — never drifts.
        assert_eq!(sn.recovery_point(450, 1000), Some(400));
        // A per-cycle ticker over the same span agrees exactly.
        let mut fine = net();
        let mut fine_events = 0;
        for now in 1..=450 {
            fine_events += fine.tick(now);
        }
        assert_eq!(fine_events, 4);
        assert_eq!(fine.oldest_checkpoint(), sn.oldest_checkpoint());
    }

    #[test]
    fn rollback_returns_the_recovery_state_and_drops_poisoned_checkpoints() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        for now in 1..=1000 {
            // Snapshot payload = the boundary cycle, so the returned state
            // is checkable.
            sn.tick_with(now, || now);
        }
        // Error at 950 detected at 1000 recovers to the checkpoint at 800.
        let cp = sn.rollback_to(950, 1000).expect("within the window");
        assert_eq!(cp.taken_at, 800);
        assert_eq!(cp.state, 800);
        assert_eq!(sn.rollbacks(), 1);
        // The poisoned checkpoints (900, 1000) are gone; the recovery
        // point remains and replay re-takes checkpoints from there.
        assert_eq!(sn.recovery_point(u64::MAX, u64::MAX), Some(800));
        assert_eq!(sn.tick_with(900, || 900), 1, "cadence rewound to 800");
        // A second error can roll back to the same checkpoint.
        let again = sn.rollback_to(850, 2000).expect("recovery point retained");
        assert_eq!(again.taken_at, 800);
    }

    #[test]
    fn next_checkpoint_tracks_cadence_rollback_and_escalation() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        assert_eq!(sn.next_checkpoint_at(), 100);
        sn.tick_with(250, || 0);
        assert_eq!(sn.next_checkpoint_at(), 300);
        // Ticking exactly at the predicted cycle takes exactly one.
        assert_eq!(sn.tick_with(sn.next_checkpoint_at(), || 0), 1);
        assert_eq!(sn.next_checkpoint_at(), 400);
        sn.widen_interval(2);
        assert_eq!(sn.next_checkpoint_at(), 500);
        for now in 400..=1000 {
            sn.tick_with(now, || 0);
        }
        sn.rollback_to(950, 1000).expect("in window");
        assert_eq!(sn.next_checkpoint_at(), 700 + 200, "cadence rewound to 700");
    }

    #[test]
    fn tick_with_reclaimed_hands_back_evicted_entries_oldest_first() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        // Log capacity 4: the first three advances evict nothing.
        assert!(sn.tick_with_reclaimed(300, || 1).is_empty());
        assert_eq!(sn.checkpoints_reclaimed(), 0);
        // Jumping past several boundaries reclaims every overflow entry,
        // oldest first, instead of dropping them.
        let evicted = sn.tick_with_reclaimed(700, || 2);
        let stamps: Vec<Cycle> = evicted.iter().map(|c| c.taken_at).collect();
        assert_eq!(stamps, vec![0, 100, 200, 300]);
        assert_eq!(sn.checkpoints_reclaimed(), 4);
        assert_eq!(sn.oldest_checkpoint(), 400);
    }

    #[test]
    fn rollback_via_reconstructs_from_the_log_prefix() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        for now in 1..=1000 {
            sn.tick_with(now, || now);
        }
        // Error at 950 detected at 1000: recovery point is 800, and the
        // reconstruction sees the whole surviving log up to it.
        let (taken_at, replayed) = sn
            .rollback_via(950, 1000, |entries, idx| {
                assert_eq!(entries[idx].taken_at, 800);
                entries[..=idx].iter().map(|c| c.state).sum::<u64>()
            })
            .expect("within the window");
        assert_eq!(taken_at, 800);
        assert_eq!(replayed, 700 + 800, "window holds 700..=1000, poison excluded");
        assert_eq!(sn.rollbacks(), 1);
        // Poisoned entries are gone, the cadence clock rewound.
        assert_eq!(sn.recovery_point(u64::MAX, u64::MAX), Some(800));
        assert_eq!(sn.next_checkpoint_at(), 900);
        // Outside the window: the closure never runs, nothing changes.
        let missed = sn.rollback_via(0, 5_000, |_, _| panic!("must not reconstruct"));
        assert!(missed.is_none());
        assert_eq!(sn.rollbacks(), 1);
    }

    #[test]
    fn rollback_outside_the_window_fails() {
        let mut sn: SafetyNet<u64> = SafetyNet::with_initial(cfg(), 0).unwrap();
        for now in 1..=10_000 {
            sn.tick_with(now, || now);
        }
        assert!(sn.rollback_to(5_000, 10_000).is_none());
        assert_eq!(sn.rollbacks(), 0);
    }

    #[test]
    fn widen_interval_backs_off() {
        let mut sn = net();
        sn.widen_interval(2);
        assert_eq!(sn.config().checkpoint_interval, 200);
        assert_eq!(sn.config().recovery_window(), 800);
        sn.widen_interval(0); // clamped to at least 2x
        assert_eq!(sn.config().checkpoint_interval, 400);
        let mut events = 0;
        for now in 1..=1200 {
            events += sn.tick(now);
        }
        assert_eq!(events, 3, "wider cadence: 400, 800, 1200");
    }

    #[test]
    fn narrow_interval_deescalates_but_never_invalidates() {
        let mut sn = net();
        sn.widen_interval(4);
        assert_eq!(sn.config().checkpoint_interval, 400);
        sn.narrow_interval(100);
        assert_eq!(sn.config().checkpoint_interval, 100);
        // Never widens, never accepts zero, never breaks the
        // validation-latency invariant (150 < interval * 4 requires
        // interval > 37).
        sn.narrow_interval(500);
        assert_eq!(sn.config().checkpoint_interval, 100);
        sn.narrow_interval(0);
        assert_eq!(sn.config().checkpoint_interval, 100);
        sn.narrow_interval(30);
        assert_eq!(sn.config().checkpoint_interval, 100, "window must stay validatable");
    }

    #[test]
    fn invalid_configs_are_refused() {
        let zero_interval = SafetyNetConfig {
            checkpoint_interval: 0,
            ..cfg()
        };
        assert_eq!(zero_interval.validate(), Err(BerConfigError::ZeroInterval));
        let no_log = SafetyNetConfig {
            max_checkpoints: 0,
            ..cfg()
        };
        assert_eq!(no_log.validate(), Err(BerConfigError::NoCheckpoints));
        let unvalidatable = SafetyNetConfig {
            validation_latency: 400, // == recovery_window()
            ..cfg()
        };
        assert_eq!(
            unvalidatable.validate(),
            Err(BerConfigError::ValidationExceedsWindow {
                validation_latency: 400,
                recovery_window: 400,
            })
        );
        assert!(unvalidatable.to_owned().validate().unwrap_err().to_string().contains("400"));
        assert!(SafetyNet::<u32>::with_initial(unvalidatable, 0).is_err());
    }

    #[test]
    #[should_panic(expected = "invalid SafetyNet configuration")]
    fn new_panics_on_invalid_config() {
        let _ = SafetyNet::new(SafetyNetConfig {
            checkpoint_interval: 0,
            ..SafetyNetConfig::default()
        });
    }

    proptest! {
        /// Over the whole config space: `validate()` accepts exactly the
        /// configurations under which a warm SafetyNet can still recover a
        /// just-detected error — the satellite invariant that
        /// `validation_latency < recovery_window()` is not just a lint but
        /// the precise boundary of "recoverable() is silently always
        /// false".
        #[test]
        fn validated_configs_keep_fresh_errors_recoverable(
            checkpoint_interval in 0u64..2_000,
            validation_latency in 0u64..50_000,
            max_checkpoints in 0usize..16,
        ) {
            let cfg = SafetyNetConfig {
                checkpoint_interval,
                validation_latency,
                max_checkpoints,
                coordination_bytes: 16,
            };
            match cfg.validate() {
                Ok(()) => {
                    prop_assert!(checkpoint_interval > 0);
                    prop_assert!(max_checkpoints > 0);
                    prop_assert!(validation_latency < cfg.recovery_window());
                    // Warm the log far past both the window and the
                    // validation latency, then detect an error the same
                    // cycle it occurs: a validated checkpoint must be held.
                    let mut sn = SafetyNet::new(cfg);
                    let horizon = 3 * (cfg.recovery_window() + validation_latency) + 1;
                    for now in 1..=horizon {
                        sn.tick(now);
                    }
                    prop_assert!(
                        sn.recoverable(horizon, horizon),
                        "valid config failed to recover a fresh error: {cfg:?}"
                    );
                }
                Err(_) => {
                    // Rejected configs are degenerate (no cadence, no log)
                    // or have an unvalidatable window.
                    prop_assert!(
                        checkpoint_interval == 0
                            || max_checkpoints == 0
                            || validation_latency >= cfg.recovery_window()
                    );
                }
            }
        }
    }
}
