//! `service-storm`: open-loop Poisson/Zipf request traffic on the
//! snooping protocol, below saturation, with delta-log recovery armed and
//! a storm of transient faults.
//!
//! BER capture and rollback, fault injection, recovery episodes, the
//! broadcast tree and event-kernel skipping all work here, and do little
//! or nothing in `oltp-closed`. Saturation lies between mean gaps of 400
//! and 700 cycles; at 2000 the queues stay bounded. Queue delay runs from
//! each request's scheduled arrival cycle, so a slow simulator cannot
//! hide it. A run simulates sixteen 500k-cycle segments, each with its own
//! traffic and storm; bursts every ~15k cycles give well over 100
//! detected episodes in all, so the p90 detection latency has ten samples
//! beyond it. Independent segments rather than one long horizon
//! keep the resident set (which grows with every checkpoint held) a few
//! hundred MB high instead of 2 GB, and pool the run's host time over
//! sixteen storms, so one seed's unlucky storm moves the figures less.

use crate::counts::Counts;
use crate::reference::Reference;
use crate::stats::{
    another_fits, cpu_s, fnv1a, growth_per_step, kib_to_mb, median, median_time, percentile,
    read_rss, tail_is_supported,
};
use crate::{show, Outcome};
use dvmc_consistency::Model;
use dvmc_faults::{storm_plan, StormConfig};
use dvmc_sim::{
    Protocol, RecoveryPolicy, SafetyNetConfig, ServiceReport, ServiceStop, System, SystemBuilder,
    SystemConfig,
};
use dvmc_types::rng::{derive_seed, det_rng};
use dvmc_types::Cycle;
use dvmc_workloads::spec::{build_streams, WorkloadKind};
use std::time::{Duration, Instant};

const NODES: usize = 8;
/// Simulated cycles per segment.
const HORIZON: Cycle = 500_000;
/// Segments per run, each with its own traffic and fault storm derived
/// from the seed: 8M simulated cycles and about 300 detected
/// episodes in all, at a resident set a few hundred MB high.
const SEGMENTS: usize = 16;
const WINDOW: Cycle = 100_000;
/// Mean inter-arrival gap per thread, well below saturation.
const MEAN_GAP: u32 = 2_000;
/// Mean gap between fault bursts.
const BURST_GAP: Cycle = 15_000;
const WATCHDOG: Cycle = 100_000;
const MAX_RETRIES: u32 = 4;
const OBS: usize = 32;
/// Builds timed for the set-up median.
const BUILDS: usize = 16;
/// Forced checkpoints and rollbacks timed after the horizon.
const FORCED: usize = 5;

/// The soak campaign's SafetyNet: a 3M-cycle recovery window, long enough
/// for latent corruption that only surfaces at eviction.
const BER: SafetyNetConfig = SafetyNetConfig {
    checkpoint_interval: 20_000,
    validation_latency: 10_000,
    max_checkpoints: 150,
    coordination_bytes: 16,
};

fn config(seed: u64, segment: usize) -> SystemConfig {
    let seed = derive_seed(seed, segment as u64);
    let storm = StormConfig {
        mean_gap: BURST_GAP,
        burst: (1, 3),
        burst_spread: 2_000,
        persistent_every: 0,
    };
    let mut rng = det_rng(derive_seed(seed, 0x5708));
    SystemBuilder::new()
        .nodes(NODES)
        .protocol(Protocol::Snooping)
        .model(Model::Tso)
        .workload(WorkloadKind::Service { mean_gap: MEAN_GAP }, u64::MAX / 2)
        .seed(seed)
        .perturbation(derive_seed(seed, 0x50AC))
        .storm(storm_plan(&mut rng, NODES, HORIZON / 20, HORIZON, &storm))
        .ber_config(BER)
        .recovery(RecoveryPolicy {
            max_retries: MAX_RETRIES,
            backoff_factor: 2,
        })
        .watchdog(WATCHDOG)
        .obs(OBS)
        .into_config()
        .expect("valid service-storm configuration")
}

fn build(cfg: &SystemConfig) -> System {
    let mut sys = System::new(cfg.clone());
    sys.arm_service(WINDOW);
    sys
}

/// One segment simulated to its horizon: CPU time per window, and with
/// `trace` the resident set and checkpoint count after each window. The
/// traced segment is the untraced loop plus those samples, whose host
/// time is its tracing overhead.
struct Segment {
    report: ServiceReport,
    stop: ServiceStop,
    /// CPU seconds of the whole segment, build excluded.
    run_s: f64,
    /// Wall seconds, build included: what the run's time budget spends.
    wall_s: f64,
    window_s: Vec<f64>,
    executed: u64,
    skipped: u64,
    /// `(checkpoints taken, VmRSS KiB)` after each window (`trace` only).
    rss: Vec<(u64, u64)>,
    /// CPU seconds spent taking those samples: the tracing overhead.
    trace_s: f64,
}

fn segment(cfg: &SystemConfig, trace: bool) -> (Segment, System) {
    let wall = Instant::now();
    let mut sys = build(cfg);
    let (mut window_s, mut rss) = (Vec::new(), Vec::new());
    let mut stop = ServiceStop::Horizon;
    let mut trace_s = 0.0;
    let start = cpu_s();
    let mut t = 0;
    while t < HORIZON && stop == ServiceStop::Horizon {
        t = (t + WINDOW).min(HORIZON);
        let w = cpu_s();
        stop = sys.run_service_until(t, &mut |_| {});
        window_s.push(cpu_s() - w);
        if trace {
            let t = cpu_s();
            rss.push((sys.checkpoint_stats().snapshots_taken, read_rss().rss_kib));
            trace_s += cpu_s() - t;
        }
    }
    let report = sys.finish_service();
    let run_s = cpu_s() - start;
    let (executed, skipped) = sys.kernel_stats();
    let seg = Segment {
        report,
        stop,
        run_s,
        wall_s: wall.elapsed().as_secs_f64(),
        window_s,
        executed,
        skipped,
        rss,
        trace_s,
    };
    (seg, sys)
}

/// Final cycle, retired ops, memory digest, episode count and a hash of
/// the window stream: equal across two builds iff they simulated the same.
fn fingerprint(svc: &ServiceReport) -> String {
    format!(
        "cycle={} retired_ops={} digest={:#018x} episodes={} windows={:#018x}",
        svc.report.cycles,
        svc.report.retired_ops(),
        svc.report.memory_digest,
        svc.episodes.len(),
        fnv1a(format!("{:?}", svc.windows).as_bytes())
    )
}

pub fn run(seed: u64, budget: Duration, trace: bool, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let cfgs: Vec<SystemConfig> = (0..SEGMENTS).map(|k| config(seed, k)).collect();
    let mut k = 0;
    let setup_s = median_time(BUILDS, || {
        k += 1;
        build(&config(seed, k % SEGMENTS))
    });
    // Untraced runs first simulate one segment untimed, so that the first
    // touch of the checkpoint memory, which a long-running service pays
    // once, is not charged to a timed segment; then the segments round
    // robin, at least once each, for as long as the budget allows.
    let mut firsts: Vec<Segment> = Vec::new();
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); SEGMENTS];
    let mut walls = Vec::new();
    let (mut capture_s, mut rollback_s) = (0.0, 0.0);
    if !trace {
        let (warm, _) = segment(&cfgs[0], false);
        firsts.push(warm);
    }
    let mut n = 0;
    while n < SEGMENTS
        || (!trace && another_fits(start.elapsed().as_secs_f64(), &walls, budget.as_secs_f64()))
    {
        let k = n % SEGMENTS;
        reference.sample();
        let (seg, mut sys) = segment(&cfgs[k], trace);
        if trace && k == 0 {
            // Timed after the horizon, so the measured run is not perturbed.
            capture_s = median_time(FORCED, || sys.force_checkpoint());
            rollback_s = median_time(FORCED, || sys.force_rollback());
        }
        drop(sys);
        times[k].push(seg.run_s);
        walls.push(seg.wall_s);
        match firsts.get(k) {
            Some(first) => out.check(
                fingerprint(&seg.report) == fingerprint(&first.report),
                &format!("repeated segment {k} simulated differently"),
            ),
            None => firsts.push(seg),
        }
        n += 1;
    }

    // Failures: unrecovered episodes; a fatal stop fails the whole run.
    let mut fatal = false;
    let mut stream = Vec::new();
    for (k, seg) in firsts.iter().enumerate() {
        let svc = &seg.report;
        out.tally.attempted += svc.episodes.len() as u64;
        out.tally.failed += svc.unrecovered() as u64;
        if seg.stop != ServiceStop::Horizon {
            println!(
                "segment {k} stopped early: {:?} at cycle {}",
                seg.stop, svc.report.cycles
            );
            fatal = true;
        }
        let f = fingerprint(svc);
        println!("segment {k}: {f}");
        stream.extend_from_slice(f.as_bytes());
    }
    if fatal {
        out.tally.fail_all();
    }
    let sum = |f: &dyn Fn(&Segment) -> u64| firsts.iter().map(f).sum::<u64>();
    let retired = sum(&|s| s.report.report.retired_ops());
    let covered = sum(&|s| s.executed + s.skipped);
    println!(
        "fingerprint: cycle={} retired_ops={retired} digest={:#018x} episodes={} windows={:#018x}",
        sum(&|s| s.report.report.cycles),
        firsts.iter().fold(0u64, |d, s| d.rotate_left(1)
            ^ s.report.report.memory_digest),
        sum(&|s| s.report.episodes.len() as u64),
        fnv1a(&stream)
    );

    let det: Vec<u64> = firsts
        .iter()
        .flat_map(|s| s.report.detection_latencies())
        .collect();
    let (det_p50, det_p90) = (percentile(&det, 50), percentile(&det, 90));
    let windows: Vec<_> = firsts.iter().flat_map(|s| &s.report.windows).collect();
    let queued: u64 = windows.iter().map(|w| w.queue_delay_count).sum();
    let busy: Vec<_> = windows.iter().filter(|w| w.queue_delay_count > 0).collect();
    let q50 = median(
        &busy
            .iter()
            .map(|w| w.queue_delay_p50 as f64)
            .collect::<Vec<_>>(),
    );
    let q99 = median(
        &busy
            .iter()
            .map(|w| w.queue_delay_p99 as f64)
            .collect::<Vec<_>>(),
    );
    // Each segment's median over its repetitions, summed: a host stall
    // in one repetition moves one sample of one segment only.
    let run_s: f64 = times
        .iter()
        .map(|t| median(t).expect("every segment ran"))
        .sum();

    if !trace {
        println!(
            "host CPU seconds per segment: {}",
            times
                .iter()
                .map(|t| t
                    .iter()
                    .map(|s| format!("{s:.3}"))
                    .collect::<Vec<_>>()
                    .join("/"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        let n = format!(
            "{SEGMENTS} segments, median of {}-{} repetitions each",
            times.iter().map(Vec::len).min().unwrap_or(0),
            times.iter().map(Vec::len).max().unwrap_or(0)
        );
        println!("end-to-end (service-storm):");
        out.put(
            "setup_s",
            setup_s,
            &format!("storm plan + build + arm, median of {BUILDS}"),
        );
        out.put("sim_ops_per_s", retired as f64 / run_s, &n);
        out.put(
            "programs_per_s",
            SEGMENTS as f64 / (SEGMENTS as f64 * setup_s + run_s),
            &format!("segments built and run per host s, {n}"),
        );
        out.put(
            "sim_cycles",
            covered as f64,
            "executed + skipped, replays included, all segments",
        );
        let q_note = format!(
            "median of {} windows with arrivals; {queued} requests",
            busy.len()
        );
        show(
            "queue_delay_p50_cycles",
            q50.unwrap_or(0.0),
            "cycles",
            &q_note,
        );
        show(
            "queue_delay_p99_cycles",
            q99.unwrap_or(0.0),
            "cycles",
            &q_note,
        );
        let d_note = |p| {
            let ok = if tail_is_supported(det.len(), p) {
                ""
            } else {
                " (fewer than 10 beyond)"
            };
            format!("{} detected episodes{ok}", det.len())
        };
        show(
            "detect_latency_p50_cycles",
            det_p50.unwrap_or(0) as f64,
            "cycles",
            &d_note(50),
        );
        show(
            "detect_latency_p90_cycles",
            det_p90.unwrap_or(0) as f64,
            "cycles",
            &d_note(90),
        );
        return out;
    }

    let trace_s: f64 = firsts.iter().map(|s| s.trace_s).sum();
    out.set("tracing.overhead_pct", trace_s / (run_s - trace_s) * 100.0);
    out.set(
        "workloads.build_streams_s",
        median_time(BUILDS, || build_streams(&cfgs[0].workload)),
    );
    out.set(
        "sim.build_s",
        median_time(BUILDS, || System::new(cfgs[0].clone())),
    );
    let executed = sum(&|s| s.executed);
    out.set("sim.run_s", run_s);
    out.set("sim.executed_ticks", executed as f64);
    out.set("sim.skipped_ticks", (covered - executed) as f64);
    out.set("sim.skip_ratio", covered as f64 / executed as f64);
    out.set("sim.ns_per_executed_tick", run_s * 1e9 / executed as f64);
    let nanos: Vec<u64> = firsts
        .iter()
        .flat_map(|s| &s.window_s)
        .map(|s| (s * 1e9) as u64)
        .collect();
    let pct = |p| percentile(&nanos, p).expect("at least one window") as f64 / 1e9;
    out.set("sim.window_host_s_p50", pct(50));
    out.set("sim.window_host_s_p90", pct(90));
    out.set("pipeline.queue_delay_p50_cycles", q50.unwrap_or(0.0));
    out.set("pipeline.queue_delay_p99_cycles", q99.unwrap_or(0.0));
    let mut counts = Counts::default();
    for s in &firsts {
        counts.add(&s.report.report);
    }
    counts.record(&mut out);
    // The first segment's samples: it is the only one whose checkpoint
    // memory is all freshly touched.
    let rss = &firsts[0].rss;
    if let Some(kib) = growth_per_step(rss) {
        out.set("ber.rss_growth_per_ckpt_mb", kib_to_mb(kib));
    }
    out.set(
        "ber.replayed_cycles",
        (covered - sum(&|s| s.report.report.cycles)) as f64,
    );
    out.set("ber.capture_s", capture_s);
    out.set("ber.rollback_s", rollback_s);
    out.set("faults.injected", sum(&|s| s.report.injected) as f64);
    out.set("faults.masked", sum(&|s| s.report.masked) as f64);
    out.set(
        "faults.episodes",
        sum(&|s| s.report.episodes.len() as u64) as f64,
    );
    out.set(
        "faults.detect_latency_p50_cycles",
        det_p50.unwrap_or(0) as f64,
    );
    out.set(
        "faults.detect_latency_p90_cycles",
        det_p90.unwrap_or(0) as f64,
    );
    let last = rss.last().copied().unwrap_or_default();
    println!(
        "checkpoint memory: {} checkpoints, VmRSS {:.1} MB at the first segment's horizon",
        last.0,
        kib_to_mb(last.1 as f64)
    );
    out
}
