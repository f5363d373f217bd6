//! System configuration and builder.

use dvmc_ber::{BerConfigError, SafetyNetConfig};
use dvmc_coherence::{ClusterConfig, Protocol};
use dvmc_consistency::Model;
use dvmc_faults::FaultPlan;
use dvmc_pipeline::CoreConfig;
use dvmc_workloads::spec::{WorkloadKind, WorkloadParams};

/// Which protection mechanisms are active — the configurations of
/// Figure 5's component breakdown.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Protection {
    /// SafetyNet backward error recovery.
    pub ber: bool,
    /// Cache Coherence verification (DVCC: CET/MET/Inform-Epochs).
    pub coherence: bool,
    /// Uniprocessor Ordering + Allowable Reordering verification (DVUO:
    /// the verification pipeline stage and its checkers).
    pub core: bool,
}

impl Protection {
    /// Unprotected baseline ("Base").
    pub const BASE: Protection = Protection {
        ber: false,
        coherence: false,
        core: false,
    };
    /// BER only ("SN").
    pub const SN: Protection = Protection {
        ber: true,
        coherence: false,
        core: false,
    };
    /// BER + coherence verification ("SN+DVCC").
    pub const SN_DVCC: Protection = Protection {
        ber: true,
        coherence: true,
        core: false,
    };
    /// BER + uniprocessor-ordering verification ("SN+DVUO").
    pub const SN_DVUO: Protection = Protection {
        ber: true,
        coherence: false,
        core: true,
    };
    /// Full DVMC with BER ("DVMC").
    pub const FULL: Protection = Protection {
        ber: true,
        coherence: true,
        core: true,
    };

    /// Display label matching Figure 5.
    pub fn label(&self) -> &'static str {
        match (self.ber, self.coherence, self.core) {
            (false, false, false) => "Base",
            (true, false, false) => "SN",
            (true, true, false) => "SN+DVCC",
            (true, false, true) => "SN+DVUO",
            (true, true, true) => "DVMC",
            _ => "custom",
        }
    }
}

/// How the simulation loop advances time (DESIGN.md §14).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum KernelMode {
    /// Tick every cycle, quiescent or not — the original loop. Kept as
    /// the reference implementation the event kernel is regressed
    /// against.
    Legacy,
    /// Event-scheduled: every component reports the next cycle at which
    /// it can do observable work; the scheduler jumps straight to the
    /// minimum, skipping quiescent cycles. Bit-identical to `Legacy` by
    /// construction (the equivalence suite enforces it), an order of
    /// magnitude faster on quiet open-loop workloads.
    #[default]
    Event,
}

/// How BER checkpoints capture machine state (DESIGN.md §14).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum CheckpointMode {
    /// Deep-clone the whole machine every interval — the original
    /// scheme. O(machine) per checkpoint regardless of activity.
    Snapshot,
    /// Log-based incremental checkpoints: capture only the parts dirtied
    /// since the previous interval; rollback reconstructs the machine by
    /// undo-replay over the delta log. O(activity) per checkpoint.
    #[default]
    DeltaLog,
}

/// How hard the system tries before declaring an error unrecoverable.
///
/// BER recovers transient faults by rolling back and replaying; a
/// persistent fault re-manifests on every replay. Each retry widens the
/// checkpoint interval by `backoff_factor` (escalation: a wider window
/// cuts checkpoint overhead and gives the replay more room), and after
/// `max_retries` rollbacks the run gives up with an unrecoverable
/// verdict that carries the detection forensics.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct RecoveryPolicy {
    /// Rollback/replay attempts before giving up.
    pub max_retries: u32,
    /// Checkpoint-interval growth factor applied at each escalation.
    pub backoff_factor: u64,
}

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            max_retries: 3,
            backoff_factor: 2,
        }
    }
}

/// A rejected system configuration.
///
/// Node identifiers are 8-bit ([`dvmc_types::NodeId`] wraps a `u8`), so a
/// system is capped at 255 nodes; exceeding the cap used to truncate
/// silently (`i as u8`), aliasing distinct nodes. Configurations are now
/// validated up front and refused instead.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ConfigError {
    /// `nodes` was zero.
    NoNodes,
    /// `nodes` exceeds the 255 the 8-bit node identifier can address.
    TooManyNodes {
        /// The requested node count.
        nodes: usize,
    },
    /// A recovery policy was requested without BER protection: there is
    /// no checkpoint log to roll back to.
    RecoveryWithoutBer,
    /// The SafetyNet configuration itself is invalid.
    Ber(BerConfigError),
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::NoNodes => write!(f, "a system needs at least one node"),
            ConfigError::TooManyNodes { nodes } => write!(
                f,
                "{nodes} nodes exceed the {} a u8 NodeId can address",
                u8::MAX
            ),
            ConfigError::RecoveryWithoutBer => write!(
                f,
                "recovery needs BER protection: without SafetyNet there is no checkpoint to roll back to"
            ),
            ConfigError::Ber(e) => write!(f, "invalid SafetyNet configuration: {e}"),
        }
    }
}

impl std::error::Error for ConfigError {}

/// Full-system configuration.
#[derive(Clone, Debug)]
pub struct SystemConfig {
    /// Number of nodes (processors).
    pub nodes: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Consistency model.
    pub model: Model,
    /// Active protection mechanisms.
    pub protection: Protection,
    /// Torus link bandwidth in bytes/cycle (Figure 8 sweeps this).
    pub link_bandwidth: u32,
    /// Workload selection.
    pub workload: WorkloadParams,
    /// Optional fault to inject (§6.1).
    pub fault: Option<FaultPlan>,
    /// Additional scheduled faults beyond [`fault`](Self::fault) — a
    /// fault *storm* for soak runs (DESIGN.md §13). Injected in schedule
    /// order, one at a time: the next fault begins its injection attempts
    /// only once the previous one has taken, so a single-`fault`
    /// configuration draws the identical RNG sequence whether this is
    /// empty or not.
    pub storm: Vec<FaultPlan>,
    /// SafetyNet parameters (checkpoint cadence, validation latency, log
    /// depth, coordination traffic). Only consulted when
    /// [`Protection::ber`] is on.
    pub ber: SafetyNetConfig,
    /// End-to-end recovery: `Some` arms rollback/replay on detection —
    /// checkpoints then carry restorable machine state, in the form
    /// [`checkpoint`](Self::checkpoint) selects (incremental deltas by
    /// default, whole snapshots as the reference). `None` (the default)
    /// keeps BER a pure timing model and stops the run at detection, as
    /// the error-detection experiments expect.
    pub recovery: Option<RecoveryPolicy>,
    /// Declare a hang if no processor retires for this many cycles.
    pub watchdog_cycles: u64,
    /// Hard cycle limit.
    pub max_cycles: u64,
    /// Verification cache capacity in words (§6.3: 32–256 bytes).
    pub vc_words: usize,
    /// Cycles between artificial membar injections (§4.2).
    pub membar_injection_period: u64,
    /// Epoch-sorter priority-queue capacity (Table 6: 256).
    pub sorter_capacity: usize,
    /// Record every committed operation per core (litmus harness and
    /// trace-level debugging; off for benchmarks — the log grows with the
    /// run).
    pub record_commits: bool,
    /// Per-checker observability ring-buffer capacity in events; `0`
    /// leaves every checker's event sink detached (the default — the
    /// checkers' hot paths then pay a single `Option` branch).
    pub obs_capacity: usize,
    /// How the simulation loop advances time.
    pub kernel: KernelMode,
    /// How BER checkpoints capture machine state.
    pub checkpoint: CheckpointMode,
}

impl SystemConfig {
    /// Checks the configuration's structural invariants; every entry
    /// point that builds a [`crate::System`] calls this first.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.nodes == 0 {
            return Err(ConfigError::NoNodes);
        }
        if self.nodes > u8::MAX as usize {
            return Err(ConfigError::TooManyNodes { nodes: self.nodes });
        }
        if self.protection.ber {
            self.ber.validate().map_err(ConfigError::Ber)?;
        }
        if self.recovery.is_some() && !self.protection.ber {
            return Err(ConfigError::RecoveryWithoutBer);
        }
        Ok(())
    }

    /// The cluster configuration implied by this system configuration.
    pub fn cluster_config(&self) -> ClusterConfig {
        let mut c = ClusterConfig::paper_default(self.nodes, self.protocol);
        c.link_bandwidth = self.link_bandwidth;
        c.node.verify = self.protection.coherence;
        c.home.verify = self.protection.coherence;
        c.home.sorter_capacity = self.sorter_capacity;
        c
    }

    /// The core configuration implied by this system configuration.
    pub fn core_config(&self) -> CoreConfig {
        CoreConfig {
            model: self.model,
            dvmc: self.protection.core,
            vc_words: self.vc_words,
            membar_injection_period: self.membar_injection_period,
            record_commits: self.record_commits,
            ..CoreConfig::default()
        }
    }
}

/// Builder for a [`crate::System`].
///
/// # Examples
///
/// ```rust
/// use dvmc_sim::{Protocol, SystemBuilder};
/// use dvmc_consistency::Model;
/// use dvmc_workloads::spec::WorkloadKind;
///
/// let mut system = SystemBuilder::new()
///     .nodes(2)
///     .protocol(Protocol::Directory)
///     .model(Model::Tso)
///     .dvmc(true)
///     .workload(WorkloadKind::Jbb, 4)
///     .seed(1)
///     .build();
/// let report = system.run_to_completion(2_000_000);
/// assert!(report.completed);
/// assert!(report.violations.is_empty());
/// ```
#[derive(Clone, Debug)]
pub struct SystemBuilder {
    nodes: usize,
    protocol: Protocol,
    model: Model,
    protection: Protection,
    link_bandwidth: u32,
    kind: WorkloadKind,
    transactions_per_thread: u64,
    seed: u64,
    perturbation: u64,
    fault: Option<FaultPlan>,
    storm: Vec<FaultPlan>,
    ber: SafetyNetConfig,
    recovery: Option<RecoveryPolicy>,
    watchdog_cycles: u64,
    max_cycles: u64,
    vc_words: usize,
    membar_injection_period: u64,
    sorter_capacity: usize,
    record_commits: bool,
    obs_capacity: usize,
    kernel: KernelMode,
    checkpoint: CheckpointMode,
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder {
            nodes: 8,
            protocol: Protocol::Directory,
            model: Model::Tso,
            protection: Protection::FULL,
            link_bandwidth: 2,
            kind: WorkloadKind::Oltp,
            transactions_per_thread: 32,
            seed: 1,
            perturbation: 1,
            fault: None,
            storm: Vec::new(),
            ber: SafetyNetConfig::default(),
            recovery: None,
            watchdog_cycles: 200_000,
            max_cycles: 50_000_000,
            vc_words: 32,
            membar_injection_period: 100_000,
            sorter_capacity: 256,
            record_commits: false,
            obs_capacity: 0,
            kernel: KernelMode::default(),
            checkpoint: CheckpointMode::default(),
        }
    }
}

impl SystemBuilder {
    /// Starts from the paper's 8-node directory TSO configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node count (Figure 9 sweeps 1–8).
    pub fn nodes(mut self, n: usize) -> Self {
        self.nodes = n;
        self
    }

    /// Sets the coherence protocol.
    pub fn protocol(mut self, p: Protocol) -> Self {
        self.protocol = p;
        self
    }

    /// Sets the consistency model.
    pub fn model(mut self, m: Model) -> Self {
        self.model = m;
        self
    }

    /// Enables/disables all of DVMC + BER at once (common case).
    pub fn dvmc(mut self, on: bool) -> Self {
        self.protection = if on {
            Protection::FULL
        } else {
            Protection::BASE
        };
        self
    }

    /// Fine-grained protection selection (Figure 5 components).
    pub fn protection(mut self, p: Protection) -> Self {
        self.protection = p;
        self
    }

    /// Sets the torus link bandwidth in bytes/cycle (Figure 8).
    pub fn link_bandwidth(mut self, b: u32) -> Self {
        self.link_bandwidth = b;
        self
    }

    /// Selects the workload and per-thread transaction count.
    pub fn workload(mut self, kind: WorkloadKind, transactions_per_thread: u64) -> Self {
        self.kind = kind;
        self.transactions_per_thread = transactions_per_thread;
        self
    }

    /// Sets the base seed (program structure and, unless overridden with
    /// [`perturbation`](Self::perturbation), the timing jitter).
    pub fn seed(mut self, s: u64) -> Self {
        self.seed = s;
        self.perturbation = s;
        self
    }

    /// Sets the timing-perturbation seed independently of the program
    /// seed (§5 methodology).
    pub fn perturbation(mut self, p: u64) -> Self {
        self.perturbation = p;
        self
    }

    /// Schedules a fault injection.
    pub fn fault(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Schedules a whole fault storm (soak runs): every plan is injected
    /// in schedule order, in addition to any single
    /// [`fault`](Self::fault).
    pub fn storm(mut self, plans: Vec<FaultPlan>) -> Self {
        self.storm = plans;
        self
    }

    /// Overrides the SafetyNet parameters (checkpoint cadence, validation
    /// latency, log depth).
    pub fn ber_config(mut self, cfg: SafetyNetConfig) -> Self {
        self.ber = cfg;
        self
    }

    /// Arms end-to-end recovery: on checker detection (or watchdog hang)
    /// the system rolls back to the newest validated pre-error checkpoint
    /// and replays, escalating per `policy`. Requires BER protection.
    pub fn recovery(mut self, policy: RecoveryPolicy) -> Self {
        self.recovery = Some(policy);
        self
    }

    /// Overrides the hang watchdog threshold.
    pub fn watchdog(mut self, cycles: u64) -> Self {
        self.watchdog_cycles = cycles;
        self
    }

    /// Overrides the hard cycle limit.
    pub fn max_cycles(mut self, cycles: u64) -> Self {
        self.max_cycles = cycles;
        self
    }

    /// Overrides the verification-cache capacity in words (ablations).
    pub fn vc_words(mut self, words: usize) -> Self {
        self.vc_words = words;
        self
    }

    /// Overrides the artificial-membar injection period (ablations).
    pub fn membar_injection_period(mut self, period: u64) -> Self {
        self.membar_injection_period = period;
        self
    }

    /// Overrides the epoch-sorter capacity (ablations).
    pub fn sorter_capacity(mut self, capacity: usize) -> Self {
        self.sorter_capacity = capacity;
        self
    }

    /// Records every committed operation per core (litmus harness).
    pub fn record_commits(mut self, on: bool) -> Self {
        self.record_commits = on;
        self
    }

    /// Attaches bounded event rings of `capacity` events to every checker
    /// (structured tracing, per-checker metrics, and violation forensics);
    /// `0` (the default) keeps observability disabled.
    pub fn obs(mut self, capacity: usize) -> Self {
        self.obs_capacity = capacity;
        self
    }

    /// Selects how the simulation loop advances time (the event-scheduled
    /// kernel is the default; `Legacy` is the every-cycle reference).
    pub fn kernel(mut self, mode: KernelMode) -> Self {
        self.kernel = mode;
        self
    }

    /// Selects how BER checkpoints capture machine state (log-based
    /// incremental deltas by default; `Snapshot` deep-clones the whole
    /// machine every interval).
    pub fn checkpoint_mode(mut self, mode: CheckpointMode) -> Self {
        self.checkpoint = mode;
        self
    }

    /// The validated [`SystemConfig`] this builder describes, without
    /// building the system — campaign sweeps expand specs into configs
    /// first and construct systems later, on worker threads.
    pub fn into_config(self) -> Result<SystemConfig, ConfigError> {
        let cfg = SystemConfig {
            nodes: self.nodes,
            protocol: self.protocol,
            model: self.model,
            protection: self.protection,
            link_bandwidth: self.link_bandwidth,
            workload: WorkloadParams {
                kind: self.kind,
                threads: self.nodes,
                transactions_per_thread: self.transactions_per_thread,
                seed: self.seed,
                perturbation: self.perturbation,
                model: self.model,
            },
            fault: self.fault,
            storm: self.storm,
            ber: self.ber,
            recovery: self.recovery,
            watchdog_cycles: self.watchdog_cycles,
            max_cycles: self.max_cycles,
            vc_words: self.vc_words,
            membar_injection_period: self.membar_injection_period,
            sorter_capacity: self.sorter_capacity,
            record_commits: self.record_commits,
            obs_capacity: self.obs_capacity,
            kernel: self.kernel,
            checkpoint: self.checkpoint,
        };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Builds the system, refusing invalid configurations (e.g. a node
    /// count the 8-bit [`dvmc_types::NodeId`] cannot address, which
    /// earlier versions truncated silently).
    pub fn try_build(self) -> Result<crate::System, ConfigError> {
        Ok(crate::System::new(self.into_config()?))
    }

    /// Builds the system.
    ///
    /// # Panics
    ///
    /// Panics on an invalid configuration; use
    /// [`try_build`](Self::try_build) to handle the error instead.
    pub fn build(self) -> crate::System {
        self.try_build().unwrap_or_else(|e| panic!("invalid system configuration: {e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_labels() {
        assert_eq!(Protection::BASE.label(), "Base");
        assert_eq!(Protection::SN.label(), "SN");
        assert_eq!(Protection::SN_DVCC.label(), "SN+DVCC");
        assert_eq!(Protection::SN_DVUO.label(), "SN+DVUO");
        assert_eq!(Protection::FULL.label(), "DVMC");
    }

    #[test]
    fn builder_threads_follow_nodes() {
        let sys = SystemBuilder::new().nodes(4).build();
        assert_eq!(sys.config().workload.threads, 4);
    }

    #[test]
    fn node_counts_are_validated_not_truncated() {
        assert_eq!(
            SystemBuilder::new().nodes(0).try_build().err(),
            Some(ConfigError::NoNodes)
        );
        assert_eq!(
            SystemBuilder::new().nodes(300).try_build().err(),
            Some(ConfigError::TooManyNodes { nodes: 300 })
        );
        // 256 would make `nodes as u8` arithmetic wrap even though the
        // largest index still fits; the cap is u8::MAX.
        assert!(SystemBuilder::new().nodes(256).try_build().is_err());
        assert!(SystemBuilder::new().nodes(255).into_config().is_ok());
        let msg = ConfigError::TooManyNodes { nodes: 300 }.to_string();
        assert!(msg.contains("300"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "invalid system configuration")]
    fn build_panics_instead_of_wrapping() {
        let _ = SystemBuilder::new().nodes(1000).build();
    }

    #[test]
    fn recovery_requires_ber_and_a_valid_safety_net() {
        assert_eq!(
            SystemBuilder::new()
                .protection(Protection::BASE)
                .recovery(RecoveryPolicy::default())
                .into_config()
                .err(),
            Some(ConfigError::RecoveryWithoutBer)
        );
        let bad = SafetyNetConfig {
            checkpoint_interval: 0,
            ..SafetyNetConfig::default()
        };
        assert_eq!(
            SystemBuilder::new().ber_config(bad).into_config().err(),
            Some(ConfigError::Ber(BerConfigError::ZeroInterval))
        );
        // A Base config never consults the BER parameters, so an invalid
        // SafetyNet is irrelevant there.
        assert!(SystemBuilder::new()
            .protection(Protection::BASE)
            .ber_config(bad)
            .into_config()
            .is_ok());
        assert!(SystemBuilder::new()
            .recovery(RecoveryPolicy::default())
            .into_config()
            .is_ok());
    }

    #[test]
    fn cluster_config_inherits_verification() {
        let b = SystemBuilder::new().protection(Protection::SN_DVUO);
        let sys = b.build();
        assert!(!sys.config().cluster_config().node.verify);
        assert!(sys.config().core_config().dvmc);
    }
}
