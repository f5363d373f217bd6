//! Kernel equivalence regression suite.
//!
//! The event-scheduled kernel is an *optimization*, not a semantic
//! change: for any configuration it must produce a bit-identical
//! [`RunReport`] to the legacy every-cycle kernel — same cycle counts,
//! same detections at the same cycles, same memory digest, same
//! recovery trajectory. These tests pin that down with fixed seeds
//! across models, protocols, and fault categories, plus a proptest
//! sweep over random configurations.

use dvmc_consistency::Model;
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{
    KernelMode, Protection, Protocol, RecoveryPolicy, RunReport, SafetyNetConfig, ServiceStop,
    SystemBuilder, WindowSnapshot,
};
use dvmc_types::rng::derive_seed;
use dvmc_types::NodeId;
use dvmc_workloads::spec::WorkloadKind;
use proptest::prelude::*;

/// A run's full observable fingerprint: the entire report, Debug-rendered.
/// Bit-identical reports render identically (every field derives Debug).
fn fingerprint(report: &RunReport) -> String {
    format!("{report:?}")
}

/// Node count of the [`build`] configurations.
const NODES: u64 = 2;

fn builder(
    kernel: KernelMode,
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
        .kernel(kernel);
    if let Some(plan) = fault {
        b = b.fault(plan);
    }
    b
}

fn build(
    kernel: KernelMode,
    model: Model,
    protocol: Protocol,
    seed: u64,
    fault: Option<FaultPlan>,
) -> dvmc_sim::System {
    builder(kernel, model, protocol, seed, fault).build()
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
                    build(kernel, model, protocol, 7, fault).run_to_completion(5_000_000)
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
/// stuck-at) recovers identically under both kernels, on both protocols
/// (so the snooping address network is restored too), and every
/// checkpoint captures — and every rollback restores — every machine
/// part. The last input runs long enough for the log to wrap before its
/// fault lands.
#[test]
fn fault_categories_recover_identically_across_kernels() {
    let mut cases: Vec<(Protocol, Fault, u64, u64)> = [
        Fault::WbDropStore { node: NodeId(0) },
        Fault::CacheBitFlip { node: NodeId(1) },
        Fault::MemoryBitFlip { node: NodeId(0) },
        Fault::DropMessage,
        Fault::ReorderMessage { delay: 40 },
        Fault::LsqWrongForward { node: NodeId(1) },
        Fault::CacheStuckBit { node: NodeId(1) },
    ]
    .into_iter()
    .map(|fault| (Protocol::Directory, fault, 6_000, 16))
    .collect();
    for protocol in [Protocol::Directory, Protocol::Snooping] {
        for (fault, at_cycle, txns) in [
            (Fault::WbCorruptValue { node: NodeId(1) }, 6_000, 16),
            (Fault::MemoryBitFlip { node: NodeId(0) }, 6_000, 16),
            (Fault::CacheStuckBit { node: NodeId(1) }, 6_000, 16),
            (Fault::WbCorruptValue { node: NodeId(0) }, 120_000, 320),
        ] {
            cases.push((protocol, fault, at_cycle, txns));
        }
    }
    let mut total_rollbacks = 0;
    for (protocol, fault, at_cycle, txns) in cases {
        // Per node a core, a cache controller, a home controller and a
        // home memory; the data network; the address network under
        // snooping.
        let parts = 4 * NODES + 1 + u64::from(protocol == Protocol::Snooping);
        let plan = FaultPlan { at_cycle, fault };
        let run = |kernel| {
            builder(kernel, Model::Tso, protocol, 5, Some(plan))
                .workload(WorkloadKind::Jbb, txns)
                .build()
                .run_to_completion(5_000_000)
        };
        let legacy = run(KernelMode::Legacy);
        let event = run(KernelMode::Event);
        let case = format!("{protocol:?} {fault:?} at {at_cycle}");
        assert_eq!(fingerprint(&legacy), fingerprint(&event), "{case}");
        let c = event.checkpoint;
        assert_eq!(c.parts_captured, c.snapshots_taken * parts, "{case}");
        assert_eq!(c.parts_restored, c.rollbacks * parts, "{case}");
        total_rollbacks += c.rollbacks;
    }
    assert!(total_rollbacks > 0, "no fault in the set exercised rollback");
}

/// Service mode under an open-loop workload and a fault storm: both
/// kernels stream identical window snapshots (including the queueing
/// delay percentiles) and identical final service reports. Every episode
/// reads `injected_at <= detected_at <= recovered_at`, and every logged
/// checkpoint holds the machine at its stamp.
///
/// The second input is an 8-node snooping storm, shrunk from a benchmark
/// segment, whose escalated episode closes at cycle 145,942. Closing
/// narrowed the widened checkpoint cadence and used to leave its next
/// boundary at 140,000, in the past, so the next tick logged a
/// checkpoint stamped 140,000 holding the machine at 145,942. That
/// episode also re-detects on replay at 145,941, before its first
/// detection at 157,781, which put its replay-time recovery before its
/// detection.
#[test]
fn service_mode_storm_matches_across_kernels() {
    let plan = |at_cycle, fault| FaultPlan { at_cycle, fault };
    let two_node = SystemBuilder::new()
        .nodes(2)
        .workload(WorkloadKind::Service { mean_gap: 400 }, u64::MAX / 2)
        .recovery(Default::default())
        .watchdog(60_000)
        .obs(32)
        .seed(11)
        .storm(vec![
            plan(6_000, Fault::WbCorruptValue { node: NodeId(1) }),
            plan(90_000, Fault::WbDropStore { node: NodeId(0) }),
        ]);
    let seed = derive_seed(42, 11);
    let eight_node = SystemBuilder::new()
        .nodes(8)
        .protocol(Protocol::Snooping)
        .model(Model::Tso)
        .workload(WorkloadKind::Service { mean_gap: 2_000 }, u64::MAX / 2)
        .seed(seed)
        .perturbation(derive_seed(seed, 0x50AC))
        .ber_config(SafetyNetConfig {
            checkpoint_interval: 20_000,
            validation_latency: 10_000,
            max_checkpoints: 150,
            coordination_bytes: 16,
        })
        .recovery(RecoveryPolicy {
            max_retries: 4,
            backoff_factor: 2,
        })
        .watchdog(100_000)
        .obs(32)
        .storm(vec![
            plan(73_095, Fault::MisrouteMessage { to: NodeId(1) }),
            plan(73_314, Fault::MemoryBitFlip { node: NodeId(3) }),
            plan(130_091, Fault::WbDropStore { node: NodeId(3) }),
            plan(135_017, Fault::DropMessage),
            plan(135_104, Fault::WbReorderStores { node: NodeId(1) }),
            plan(135_235, Fault::CacheBitFlip { node: NodeId(7) }),
            plan(141_141, Fault::MisrouteMessage { to: NodeId(0) }),
            plan(150_835, Fault::LsqWrongForward { node: NodeId(3) }),
            plan(151_059, Fault::WbDropStore { node: NodeId(1) }),
            plan(151_857, Fault::WbCorruptValue { node: NodeId(7) }),
        ]);
    for (input, builder, window, horizon) in
        [(0, two_node, 25_000, 250_000), (1, eight_node, 100_000, 160_000)]
    {
        let run = |kernel: KernelMode| {
            let mut sys = builder.clone().kernel(kernel).build();
            sys.arm_service(window);
            let mut windows: Vec<WindowSnapshot> = Vec::new();
            let stop = sys.run_service_until(horizon, &mut |snap| windows.push(*snap));
            assert_eq!(stop, ServiceStop::Horizon, "input {input}");
            for (stamp, clock) in sys.checkpoint_clocks() {
                assert_eq!(stamp, clock, "input {input}: checkpoint stamped {stamp} holds cycle {clock}");
            }
            let svc = sys.finish_service();
            for ep in &svc.episodes {
                let ordered = ep.detected_at.is_none_or(|d| {
                    ep.injected_at <= d && ep.recovered_at.is_none_or(|r| d <= r)
                });
                assert!(ordered, "input {input}: episode cycles out of order: {ep:?}");
            }
            if input == 1 {
                assert!(
                    svc.episodes.iter().any(|ep| ep.attempts > 1 && ep.recovered_at.is_some()),
                    "the input must escalate an episode and then close it: {:?}",
                    svc.episodes
                );
            }
            (format!("{windows:?}"), format!("{svc:?}"))
        };
        let legacy = run(KernelMode::Legacy);
        let event = run(KernelMode::Event);
        assert_eq!(legacy.0, event.0, "input {input}: window streams diverge");
        assert_eq!(legacy.1, event.1, "input {input}: service reports diverge");
    }
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
