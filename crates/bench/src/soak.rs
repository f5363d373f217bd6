//! Soak/service harness (DESIGN.md §13): drives a [`System`](dvmc_sim::System) in service
//! mode — open-loop traffic, a consistency-model schedule applied
//! mid-run, an optional fault storm — and reduces the outcome to the
//! latency percentiles the acceptance gate checks.
//!
//! [`run_soak`] is a pure function of its [`SoakSpec`]: every seed is
//! inside the spec, windows stream through the caller's callback (display
//! only), and the returned [`SoakOutcome`] is what lands in the canonical
//! artifact — so `exp_soak`'s JSON is byte-identical at any `--jobs`.

use dvmc_consistency::Model;
use dvmc_faults::FaultPlan;
use dvmc_sim::{
    percentile, CheckpointMode, CheckpointStats, KernelMode, Protocol, RecoveryPolicy,
    SafetyNetConfig, ServiceReport, ServiceStop, SystemBuilder, WindowSnapshot,
};
use dvmc_types::rng::derive_seed;
use dvmc_types::Cycle;
use dvmc_workloads::spec::WorkloadKind;

/// A soak run's SafetyNet: a long recovery window (the paper's default
/// 100k-cycle window targets fast detections; a soak must also survive
/// latent corruption that surfaces only at eviction/CRC, ~2M cycles into
/// hot-block churn), traded against log depth as §6.2 discusses.
pub fn soak_ber() -> SafetyNetConfig {
    SafetyNetConfig {
        checkpoint_interval: 20_000,
        validation_latency: 10_000,
        max_checkpoints: 150, // 3M-cycle window
        coordination_bytes: 16,
    }
}

/// One fully specified soak cell.
#[derive(Clone, Debug)]
pub struct SoakSpec {
    /// Display/artifact tag.
    pub tag: String,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// `(model, segment length)` pairs applied in order; the horizon is
    /// their sum. Switches land at the first quiescent point of each
    /// segment.
    pub schedule: Vec<(Model, Cycle)>,
    /// Nodes (processors).
    pub nodes: usize,
    /// Mean open-loop inter-arrival gap per thread, in cycles.
    pub mean_gap: u32,
    /// Base seed (program and perturbation seeds derive from it).
    pub seed: u64,
    /// The fault storm, fully expanded (empty: fault-free soak).
    pub plans: Vec<FaultPlan>,
    /// Streaming-snapshot window length.
    pub window: Cycle,
    /// Per-episode rollback budget before the run gives up.
    pub max_retries: u32,
    /// Hang-watchdog threshold.
    pub watchdog: Cycle,
    /// Simulation kernel (legacy every-cycle vs event-scheduled); both
    /// produce bit-identical behaviour, so this only changes speed.
    pub kernel: KernelMode,
    /// Checkpoint scheme (whole snapshots vs the incremental delta log).
    pub checkpoint: CheckpointMode,
}

/// What [`run_soak`] hands back: the full service report plus the
/// percentile reductions the gate and the artifact use.
#[derive(Clone, Debug)]
pub struct SoakOutcome {
    /// The service-mode report (windows, episodes, final run report).
    pub service: ServiceReport,
    /// The configured horizon (sum of schedule segments).
    pub horizon: Cycle,
    /// p50 of injection-to-detection latency over detected episodes.
    pub p50_detection: Option<Cycle>,
    /// p99 of injection-to-detection latency.
    pub p99_detection: Option<Cycle>,
    /// p50 of detection-to-clean latency over recovered episodes.
    pub p50_recovery: Option<Cycle>,
    /// p99 of detection-to-clean latency.
    pub p99_recovery: Option<Cycle>,
    /// Cycles the kernel actually simulated.
    pub executed: u64,
    /// Cycles the event-scheduled kernel jumped over (0 under legacy).
    pub skipped: u64,
    /// Checkpoint/rollback cost counters for the whole run.
    pub checkpoint: CheckpointStats,
}

/// Runs one soak cell to its horizon (or fatal stop), streaming each
/// window snapshot through `on_window` as it closes.
///
/// # Panics
///
/// Panics on an empty schedule or an invalid system configuration.
pub fn run_soak(spec: &SoakSpec, on_window: &mut dyn FnMut(&WindowSnapshot)) -> SoakOutcome {
    let first_model = spec.schedule.first().expect("soak schedule must not be empty").0;
    let mut sys = SystemBuilder::new()
        .nodes(spec.nodes)
        .protocol(spec.protocol)
        .model(first_model)
        .workload(
            WorkloadKind::Service {
                mean_gap: spec.mean_gap,
            },
            u64::MAX / 2, // open-loop: the quota is never the terminator
        )
        .seed(spec.seed)
        .perturbation(derive_seed(spec.seed, 0x50AC))
        .storm(spec.plans.clone())
        .ber_config(soak_ber())
        .recovery(RecoveryPolicy {
            max_retries: spec.max_retries,
            backoff_factor: 2,
        })
        .watchdog(spec.watchdog)
        .obs(32)
        .kernel(spec.kernel)
        .checkpoint_mode(spec.checkpoint)
        .build();
    sys.arm_service(spec.window);
    let mut t: Cycle = 0;
    'schedule: for &(model, len) in &spec.schedule {
        let end = t + len;
        sys.switch_model(model);
        while t < end {
            t = (t + spec.window).min(end);
            if sys.run_service_until(t, on_window) != ServiceStop::Horizon {
                break 'schedule;
            }
            // A rollback can restore cores to a pre-switch snapshot; the
            // re-assert is idempotent, so issue it every chunk.
            sys.switch_model(model);
        }
    }
    let horizon: Cycle = spec.schedule.iter().map(|&(_, len)| len).sum();
    let (executed, skipped) = sys.kernel_stats();
    let checkpoint = sys.checkpoint_stats();
    let service = sys.finish_service();
    let det = service.detection_latencies();
    let rec = service.recovery_latencies();
    SoakOutcome {
        p50_detection: percentile(&det, 50),
        p99_detection: percentile(&det, 99),
        p50_recovery: percentile(&rec, 50),
        p99_recovery: percentile(&rec, 99),
        service,
        horizon,
        executed,
        skipped,
        checkpoint,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet_spec(seed: u64) -> SoakSpec {
        SoakSpec {
            tag: "test/quiet".into(),
            protocol: Protocol::Directory,
            schedule: vec![(Model::Tso, 30_000), (Model::Rmo, 30_000)],
            nodes: 2,
            mean_gap: 400,
            seed,
            plans: Vec::new(),
            window: 10_000,
            max_retries: 4,
            watchdog: 60_000,
            kernel: KernelMode::default(),
            checkpoint: CheckpointMode::default(),
        }
    }

    /// A fault-free soak is silent, reaches its horizon, and makes
    /// forward progress in every window.
    #[test]
    fn quiet_soak_is_silent_to_the_horizon() {
        let mut streamed = Vec::new();
        let got = run_soak(&quiet_spec(9), &mut |w| streamed.push(*w));
        assert_eq!(got.service.stopped, ServiceStop::Horizon);
        assert_eq!(got.service.injected, 0);
        assert!(got.service.episodes.is_empty());
        assert!(got.service.report.violations.is_empty());
        assert!(!got.service.report.hung);
        assert_eq!(got.p50_detection, None);
        assert_eq!(streamed.len(), 6, "60k horizon / 10k windows, exact tiling");
        assert!(got.service.windows.iter().all(|w| w.retired_ops > 0));
    }

    /// The same spec reproduces the same outcome — the determinism the
    /// canonical artifact's byte-compare gate rests on.
    #[test]
    fn soak_is_deterministic() {
        let a = run_soak(&quiet_spec(21), &mut |_| {});
        let b = run_soak(&quiet_spec(21), &mut |_| {});
        assert_eq!(format!("{:?}", a.service.windows), format!("{:?}", b.service.windows));
        assert_eq!(
            a.service.report.memory_digest,
            b.service.report.memory_digest
        );
    }
}
