//! Criterion micro-benchmarks of the whole-machine snapshot behind
//! SafetyNet BER (DESIGN.md §14).
//!
//! Two costs matter. *Capture* runs every checkpoint interval on the
//! fast path and clones the whole machine. *Rollback* runs only on
//! detection and restores the machine in place from the recovery
//! point's snapshot.

use criterion::{criterion_group, criterion_main, Criterion};
use dvmc_sim::{KernelMode, RecoveryPolicy, System, SystemBuilder};
use dvmc_workloads::spec::WorkloadKind;

/// A warmed service-mode machine: open-loop traffic, recovery armed, and
/// enough history that the BER log is full and rollback is meaningful.
fn warmed(mean_gap: u32) -> System {
    let mut sys = SystemBuilder::new()
        .nodes(4)
        .workload(WorkloadKind::Service { mean_gap }, u64::MAX / 2)
        .recovery(RecoveryPolicy::default())
        .watchdog(200_000)
        .seed(17)
        .kernel(KernelMode::Legacy)
        .build();
    for _ in 0..60_000 {
        sys.tick();
    }
    sys
}

fn bench_capture(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_capture");
    // Quiet interval: almost nothing moved since the last capture.
    let mut sys = warmed(8_000);
    g.bench_function("quiet_whole_snapshot", |b| {
        b.iter(|| sys.force_checkpoint());
    });
    // Busy interval: a burst of traffic between captures.
    let mut sys = warmed(400);
    g.bench_function("busy_whole_snapshot", |b| {
        b.iter(|| {
            for _ in 0..50 {
                sys.tick();
            }
            sys.force_checkpoint()
        });
    });
    g.finish();
}

fn bench_rollback(c: &mut Criterion) {
    let mut g = c.benchmark_group("checkpoint_rollback");
    let mut sys = warmed(400);
    g.bench_function("whole_snapshot_restore", |b| {
        b.iter(|| {
            // Mutate forward so the rollback has real work to undo, then
            // restore to the newest held checkpoint.
            for _ in 0..50 {
                sys.tick();
            }
            sys.force_rollback().expect("warmed log holds a checkpoint")
        });
    });
    g.finish();
}

criterion_group!(benches, bench_capture, bench_rollback);
criterion_main!(benches);
