//! Kernel & checkpoint equivalence regression suite.
//!
//! The event-scheduled kernel is an *optimization*, not a semantic
//! change: for any configuration it must produce a bit-identical
//! [`RunReport`] to the legacy every-cycle kernel — same cycle counts,
//! same detections at the same cycles, same memory digest, same
//! recovery trajectory. Likewise the delta-log checkpoint scheme must
//! recover to exactly the state the whole-snapshot scheme recovers to.
//! These tests pin all of that down with fixed seeds across models,
//! protocols, and fault categories, plus a proptest sweep over random
//! configurations.

use dvmc_consistency::Model;
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{
    CheckpointMode, KernelMode, Protection, Protocol, RunReport, ServiceStop, SystemBuilder,
    WindowSnapshot,
};
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;
use proptest::prelude::*;

/// A run's full observable fingerprint: the entire report, Debug-rendered.
/// Bit-identical reports render identically (every field derives Debug).
fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Fingerprint with the checkpoint cost counters zeroed — used when
/// comparing *across* checkpoint schemes, whose whole point is different
/// capture/restore costs for the same machine behaviour.
fn fingerprint_sans_costs(report: &RunReport) -> String {
    let mut r = report.clone();
    r.checkpoint = Default::default();
    format!("{r:?}")
}

/// Node count of the [`build`] configurations.
const NODES: u64 = 2;

fn builder(
    kernel: KernelMode,
    checkpoint: CheckpointMode,
    model: Model,
    protocol: Protocol,
    seed: u64,
    fault: Option<FaultPlan>,
) -> SystemBuilder {
    let mut b = SystemBuilder::new()
        .nodes(NODES as usize)
        .model(model)
        .protocol(protocol)
        .workload(WorkloadKind::Jbb, 16)
        .recovery(Default::default())
        .watchdog(100_000)
        .obs(32)
        .seed(seed)
        .kernel(kernel)
        .checkpoint_mode(checkpoint);
    if let Some(plan) = fault {
        b = b.fault(plan);
    }
    b
}

fn build(
    kernel: KernelMode,
    checkpoint: CheckpointMode,
    model: Model,
    protocol: Protocol,
    seed: u64,
    fault: Option<FaultPlan>,
) -> dvmc_sim::System {
    builder(kernel, checkpoint, model, protocol, seed, fault).build()
}

/// Every model × protocol, fault-free and with a recovering transient:
/// the event kernel's report is byte-for-byte the legacy kernel's —
/// including the checkpoint cost counters, which depend only on what the
/// machine did, not on how the clock advanced.
#[test]
fn event_kernel_matches_legacy_bit_for_bit() {
    let faults = [
        None,
        Some(FaultPlan {
            at_cycle: 6_000,
            fault: Fault::WbCorruptValue { node: NodeId(1) },
        }),
    ];
    for model in [Model::Sc, Model::Tso, Model::Pso, Model::Rmo] {
        for protocol in [Protocol::Directory, Protocol::Snooping] {
            for fault in faults {
                let run = |kernel| {
                    build(kernel, CheckpointMode::DeltaLog, model, protocol, 7, fault)
                        .run_to_completion(5_000_000)
                };
                let legacy = run(KernelMode::Legacy);
                let event = run(KernelMode::Event);
                assert_eq!(
                    fingerprint(&legacy),
                    fingerprint(&event),
                    "{model} {protocol:?} fault={fault:?}"
                );
            }
        }
    }
}

/// Every fault category that exercises a distinct rollback path (write
/// buffer, cache data, memory data, interconnect, LSQ, persistent
/// stuck-at) recovers identically under both kernels.
#[test]
fn fault_categories_recover_identically_across_kernels() {
    let faults = [
        Fault::WbDropStore { node: NodeId(0) },
        Fault::CacheBitFlip { node: NodeId(1) },
        Fault::MemoryBitFlip { node: NodeId(0) },
        Fault::DropMessage,
        Fault::ReorderMessage { delay: 40 },
        Fault::LsqWrongForward { node: NodeId(1) },
        Fault::CacheStuckBit { node: NodeId(1) },
    ];
    for fault in faults {
        let plan = FaultPlan {
            at_cycle: 6_000,
            fault,
        };
        let run = |kernel| {
            build(
                kernel,
                CheckpointMode::DeltaLog,
                Model::Tso,
                Protocol::Directory,
                5,
                Some(plan),
            )
            .run_to_completion(5_000_000)
        };
        assert_eq!(
            fingerprint(&run(KernelMode::Legacy)),
            fingerprint(&run(KernelMode::Event)),
            "{fault:?}"
        );
    }
}

/// The delta-log scheme restores exactly the machine the whole-snapshot
/// scheme restores: same post-rollback trajectory, same digest, same
/// report — only the capture/restore cost counters may differ. Both
/// protocols run, so the snooping address network is compared too, and
/// at least one delta-log run rolls back after folding evicted deltas
/// into its base image.
#[test]
fn delta_log_rollback_matches_whole_snapshot_rollback() {
    let mut total_rollbacks = 0;
    let mut folded_and_rolled_back = false;
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        // Every machine part: per node a core, a cache controller, a home
        // controller and a home memory; the data network; the address
        // network under snooping.
        let parts = 4 * NODES + 1 + u64::from(protocol == Protocol::Snooping);
        // (fault, injection cycle, transactions per thread). The last
        // input runs long enough for the log to evict — and fold — deltas
        // before the fault lands.
        for (fault, at_cycle, txns) in [
            (Fault::WbCorruptValue { node: NodeId(1) }, 6_000, 16),
            (Fault::MemoryBitFlip { node: NodeId(0) }, 6_000, 16),
            (Fault::CacheStuckBit { node: NodeId(1) }, 6_000, 16),
            (Fault::WbCorruptValue { node: NodeId(0) }, 120_000, 320),
        ] {
            let plan = FaultPlan { at_cycle, fault };
            let run = |checkpoint| {
                builder(
                    KernelMode::Event,
                    checkpoint,
                    Model::Tso,
                    protocol,
                    5,
                    Some(plan),
                )
                .workload(WorkloadKind::Jbb, txns)
                .build()
                .run_to_completion(5_000_000)
            };
            let whole = run(CheckpointMode::Snapshot);
            let delta = run(CheckpointMode::DeltaLog);
            let case = format!("{protocol:?} {fault:?}");
            assert_eq!(
                fingerprint_sans_costs(&whole),
                fingerprint_sans_costs(&delta),
                "{case}"
            );
            // The schemes really did take different capture paths. (On a
            // busy run like this one a delta can even exceed a snapshot —
            // everything is dirty plus per-delta overhead; the size win is
            // asserted on quiet traffic below.)
            assert!(whole.checkpoint.snapshots_taken > 0);
            assert_eq!(
                delta.checkpoint.rollbacks, whole.checkpoint.rollbacks,
                "{case}: same behaviour must mean same rollback count"
            );
            // A whole snapshot captures and restores every part.
            assert_eq!(
                whole.checkpoint.parts_captured,
                whole.checkpoint.snapshots_taken * parts,
                "{case}"
            );
            assert_eq!(
                whole.checkpoint.parts_restored,
                whole.checkpoint.rollbacks * parts,
                "{case}"
            );
            if delta.checkpoint.rollbacks > 0 {
                assert!(delta.checkpoint.parts_restored > 0, "{case}");
            }
            folded_and_rolled_back |=
                delta.checkpoint.deltas_folded > 0 && delta.checkpoint.rollbacks > 0;
            total_rollbacks += delta.checkpoint.rollbacks;
        }
    }
    assert!(total_rollbacks > 0, "no fault in the set exercised rollback");
    assert!(
        folded_and_rolled_back,
        "no delta-log run rolled back after folding an evicted delta"
    );
}

/// On quiet open-loop traffic — the deployment scenario the delta log
/// exists for — incremental checkpoints log meaningfully fewer bytes
/// than whole snapshots. The floor is set by what *periodically* mutates
/// regardless of traffic: CET/MET scrubs dirty every checker each
/// interval and BER coordination traffic dirties the data network, so
/// the win comes from skipping clean home-memory arrays (the bulk of
/// machine state).
#[test]
fn delta_log_is_smaller_on_quiet_traffic() {
    let run = |checkpoint: CheckpointMode| {
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 20_000 }, u64::MAX / 2)
            .recovery(Default::default())
            .watchdog(200_000)
            .seed(3)
            .checkpoint_mode(checkpoint)
            .build();
        sys.arm_service(50_000);
        sys.run_service_until(400_000, &mut |_| {});
        sys.checkpoint_stats()
    };
    let whole = run(CheckpointMode::Snapshot);
    let delta = run(CheckpointMode::DeltaLog);
    assert_eq!(whole.snapshots_taken, delta.snapshots_taken);
    assert!(
        delta.bytes_logged * 3 < whole.bytes_logged * 2,
        "quiet deltas should log at least a third fewer bytes: {} vs {}",
        delta.bytes_logged,
        whole.bytes_logged
    );
}

/// Service mode under an open-loop workload and a fault storm: both
/// kernels stream identical window snapshots (including the queueing
/// delay percentiles) and identical final service reports.
#[test]
fn service_mode_storm_matches_across_kernels() {
    let run = |kernel: KernelMode| {
        let mut sys = SystemBuilder::new()
            .nodes(2)
            .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
            .recovery(Default::default())
            .watchdog(60_000)
            .obs(32)
            .seed(11)
            .kernel(kernel)
            .storm(vec![
                FaultPlan {
                    at_cycle: 6_000,
                    fault: Fault::WbCorruptValue { node: NodeId(1) },
                },
                FaultPlan {
                    at_cycle: 90_000,
                    fault: Fault::WbDropStore { node: NodeId(0) },
                },
            ])
            .build();
        sys.arm_service(25_000);
        let mut windows: Vec<WindowSnapshot> = Vec::new();
        let stop = sys.run_service_until(250_000, &mut |snap| windows.push(*snap));
        assert_eq!(stop, ServiceStop::Horizon);
        let svc = sys.finish_service();
        (format!("{windows:?}"), format!("{svc:?}"))
    };
    let legacy = run(KernelMode::Legacy);
    let event = run(KernelMode::Event);
    assert_eq!(legacy.0, event.0, "window streams diverge");
    assert_eq!(legacy.1, event.1, "service reports diverge");
}

/// The event kernel actually skips work on a quiet open-loop workload —
/// otherwise it is just the legacy kernel with extra bookkeeping.
#[test]
fn event_kernel_skips_quiescent_cycles_on_quiet_traffic() {
    let mut sys = SystemBuilder::new()
        .nodes(2)
        .workload(WorkloadKind::Service { mean_gap: 4_000 }, u64::MAX / 2)
        .protection(Protection::BASE)
        .seed(3)
        .kernel(KernelMode::Event)
        .build();
    sys.arm_service(50_000);
    sys.run_service_until(200_000, &mut |_| {});
    let (executed, skipped) = sys.kernel_stats();
    assert!(
        skipped > executed,
        "quiet traffic should be mostly skippable: executed={executed} skipped={skipped}"
    );
    assert_eq!(executed + skipped, sys.now(), "kernel accounting tiles the timeline");
}

proptest! {
    /// Random seeds, node counts, injection times, and fault kinds:
    /// legacy and event kernels never diverge.
    #[test]
    fn kernels_agree_on_random_configs(
        seed in 0u64..1_000,
        nodes in 2usize..4,
        at_cycle in 2_000u64..20_000,
        fault_pick in 0usize..4,
        protocol_pick in 0usize..2,
    ) {
        let fault = match fault_pick {
            0 => Fault::WbCorruptValue { node: NodeId(1) },
            1 => Fault::CacheBitFlip { node: NodeId(0) },
            2 => Fault::DropMessage,
            _ => Fault::MemoryBitFlip { node: NodeId(1) },
        };
        let protocol = if protocol_pick == 0 {
            Protocol::Directory
        } else {
            Protocol::Snooping
        };
        let run = |kernel| {
            SystemBuilder::new()
                .nodes(nodes)
                .protocol(protocol)
                .workload(WorkloadKind::Jbb, 8)
                .recovery(Default::default())
                .watchdog(100_000)
                .seed(seed)
                .kernel(kernel)
                .checkpoint_mode(CheckpointMode::DeltaLog)
                .fault(FaultPlan { at_cycle, fault })
                .build()
                .run_to_completion(2_500_000)
        };
        prop_assert_eq!(
            fingerprint(&run(KernelMode::Legacy)),
            fingerprint(&run(KernelMode::Event))
        );
    }
}
