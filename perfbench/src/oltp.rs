//! `oltp-closed`: closed loop, 8 nodes, TSO, directory protocol, full
//! DVMC with SafetyNet as a timing model (recovery unarmed), running the
//! OLTP stand-in to a fixed transaction count; four programs, each from
//! its own seed, and an unprotected twin of each for the simulated DVMC
//! slowdown. The traced run measures the first program only.
//!
//! Every core is busy nearly every cycle, so the pipeline, the coherence
//! protocol and the checkers do the work; the event kernel skips almost
//! nothing, and there is no checkpoint capture, fault or oracle.

use crate::counts::Counts;
use crate::reference::Reference;
use crate::stats::{another_fits, cpu_s, median, median_time, Tally};
use crate::{show, tracer, Outcome};
use dvmc_consistency::Model;
use dvmc_sim::{Protection, Protocol, RunReport, System, SystemBuilder, SystemConfig};
use dvmc_types::rng::derive_seed;
use dvmc_workloads::spec::{build_streams, WorkloadKind};
use std::time::{Duration, Instant};

const NODES: usize = 8;
/// Transactions per thread: about 0.65M simulated cycles, 2 s of host time.
const TXNS: u64 = 400;
/// Observability ring size: the checkers' event counters need it on.
const OBS: usize = 32;
/// OLTP programs per run, each from its own seed derived from the run's:
/// one program's cycle count moves with its seed by several percent.
const PROGRAMS: usize = 4;
/// Builds timed for the build-cost medians of the traced run.
const BUILDS: usize = 9;
/// Alternating rounds of runs with one checker family on, traced run.
const CHECKER_ROUNDS: usize = 3;

fn config(seed: u64, protection: Protection) -> SystemConfig {
    SystemBuilder::new()
        .nodes(NODES)
        .protocol(Protocol::Directory)
        .model(Model::Tso)
        .protection(protection)
        .workload(WorkloadKind::Oltp, TXNS)
        .seed(seed)
        .obs(OBS)
        .into_config()
        .expect("valid oltp-closed configuration")
}

/// A run is a failure when it does not complete or raises any violation.
fn clean(r: &RunReport) -> bool {
    r.completed && !r.hung && r.violations.is_empty()
}

/// Host figures are CPU seconds; `run_wall_s` is what the time budget
/// spends and what the call tracer's wall-clock split is compared with.
struct Timed {
    build_s: f64,
    run_s: f64,
    run_wall_s: f64,
    executed: u64,
    skipped: u64,
    report: RunReport,
}

fn timed_run(cfg: &SystemConfig, tally: &mut Tally) -> Timed {
    let t0 = cpu_s();
    let mut sys = System::new(cfg.clone());
    let (t1, wall) = (cpu_s(), Instant::now());
    let report = sys.run_to_completion(u64::MAX);
    let (t2, run_wall_s) = (cpu_s(), wall.elapsed().as_secs_f64());
    let (executed, skipped) = sys.kernel_stats();
    tally.record(clean(&report));
    Timed {
        build_s: t1 - t0,
        run_s: t2 - t1,
        run_wall_s,
        executed,
        skipped,
        report,
    }
}

fn same_behaviour(a: &RunReport, b: &RunReport) -> bool {
    a.cycles == b.cycles && a.retired_ops() == b.retired_ops() && a.memory_digest == b.memory_digest
}

pub fn run(seed: u64, budget: Duration, trace: bool, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    // The traced run measures the first program only.
    let programs = if trace { 1 } else { PROGRAMS };
    let seeds: Vec<u64> = (0..programs as u64).map(|k| derive_seed(seed, k)).collect();
    let fulls: Vec<SystemConfig> = seeds.iter().map(|&s| config(s, Protection::FULL)).collect();
    let bases: Vec<Timed> = seeds
        .iter()
        .map(|&s| timed_run(&config(s, Protection::BASE), &mut out.tally))
        .collect();
    // The programs round robin, at least once each, for as long as the
    // budget allows.
    let mut reps: Vec<Vec<Timed>> = (0..programs).map(|_| Vec::new()).collect();
    let mut walls = Vec::new();
    let mut n = 0;
    while n < programs
        || (!trace && another_fits(start.elapsed().as_secs_f64(), &walls, budget.as_secs_f64()))
    {
        let k = n % programs;
        reference.sample();
        let t = timed_run(&fulls[k], &mut out.tally);
        if let Some(first) = reps[k].first() {
            out.check(
                same_behaviour(&first.report, &t.report),
                &format!("repeated run of program {k} diverged"),
            );
        }
        walls.push(t.build_s + t.run_wall_s);
        reps[k].push(t);
        n += 1;
    }
    for (k, (runs, base)) in reps.iter().zip(&bases).enumerate() {
        let r = &runs[0].report;
        println!(
            "program {k}: cycle={} retired_ops={} digest={:#018x} \
             (unprotected twin: cycle={} digest={:#018x})",
            r.cycles,
            r.retired_ops(),
            r.memory_digest,
            base.report.cycles,
            base.report.memory_digest
        );
    }
    let firsts: Vec<&RunReport> = reps.iter().map(|runs| &runs[0].report).collect();
    let cycles: u64 = firsts.iter().map(|r| r.cycles).sum();
    let base_cycles: u64 = bases.iter().map(|b| b.report.cycles).sum();
    let retired: u64 = firsts.iter().map(|r| r.retired_ops()).sum();
    let slowdown_pct = (cycles as f64 / base_cycles as f64 - 1.0) * 100.0;
    println!(
        "fingerprint: cycle={cycles} retired_ops={retired} digest={:#018x} episodes=0 windows=none",
        firsts
            .iter()
            .fold(0u64, |d, r| d.rotate_left(1) ^ r.memory_digest)
    );
    if trace {
        traced(&mut out, seeds[0], &fulls[0], &reps[0][0]);
        out.set("core.dvmc_slowdown_pct", slowdown_pct);
        return out;
    }
    // Each program's median over its repetitions, summed: a host stall in
    // one repetition moves one sample of one program only.
    let per_program = |f: fn(&Timed) -> f64| -> f64 {
        reps.iter()
            .map(|runs| median(&runs.iter().map(f).collect::<Vec<_>>()).expect("ran once"))
            .sum()
    };
    let run_s = per_program(|t| t.run_s);
    let unit_s = per_program(|t| t.build_s + t.run_s);
    let builds: Vec<f64> = reps.iter().flatten().map(|t| t.build_s).collect();
    let setup_s = median(&builds).expect("at least one run");
    for (k, runs) in reps.iter().enumerate() {
        println!(
            "host CPU seconds per DVMC run of program {k}: {}",
            runs.iter()
                .map(|t| format!("{:.3}", t.run_s))
                .collect::<Vec<_>>()
                .join(" ")
        );
    }
    let n = format!(
        "{programs} programs, median of {}-{} runs each",
        reps.iter().map(Vec::len).min().unwrap_or(0),
        reps.iter().map(Vec::len).max().unwrap_or(0)
    );
    println!("end-to-end (oltp-closed):");
    out.put(
        "setup_s",
        setup_s,
        &format!("System::new, median of {} builds", builds.len()),
    );
    out.put("sim_ops_per_s", retired as f64 / run_s, &n);
    out.put(
        "programs_per_s",
        programs as f64 / unit_s,
        &format!("build+run+check, {n}"),
    );
    out.put(
        "sim_cycles",
        reps.iter()
            .map(|runs| runs[0].executed + runs[0].skipped)
            .sum::<u64>() as f64,
        "DVMC runs, all programs",
    );
    show(
        "dvmc_slowdown_pct",
        slowdown_pct,
        "%",
        "simulated, DVMC over unprotected twins",
    );
    out
}

fn traced(out: &mut Outcome, seed: u64, full: &SystemConfig, reference: &Timed) {
    let r = &reference.report;
    out.set(
        "workloads.build_streams_s",
        median_time(BUILDS, || build_streams(&full.workload)),
    );
    out.set(
        "sim.build_s",
        median_time(BUILDS, || System::new(full.clone())),
    );

    let d = tracer::run(full);
    out.check(
        d.cycles == r.cycles && d.retired_ops == r.retired_ops() && d.memory_digest == r.memory_digest,
        &format!(
            "call tracer diverged from System: cycles {} vs {}, ops {} vs {}, digest {:#x} vs {:#x}",
            d.cycles,
            r.cycles,
            d.retired_ops,
            r.retired_ops(),
            d.memory_digest,
            r.memory_digest
        ),
    );
    out.check(
        d.completed && d.violations == 0,
        "call tracer run was not clean",
    );
    let total = d.total().as_secs_f64();
    let (pipe, coh, ber) = (
        d.pipeline.as_secs_f64(),
        d.coherence.as_secs_f64(),
        d.ber.as_secs_f64(),
    );
    out.set("pipeline.self_s", pipe);
    out.set("pipeline.share", pipe / total);
    out.set("coherence.self_s", coh);
    out.set("coherence.share", coh / total);
    out.set("ber.self_s", ber);
    out.set(
        "tracing.overhead_pct",
        (total / reference.run_wall_s - 1.0) * 100.0,
    );
    println!(
        "call tracer: {total:.3}s (pipeline {pipe:.3}s, coherence {coh:.3}s, BER {ber:.3}s) \
         vs System::run_to_completion {:.3}s (wall clock)",
        reference.run_wall_s
    );

    // Host cost of each checker family: per-op host time with only that
    // family on, over the unprotected twin's; medians of alternating runs.
    let families = [Protection::BASE, Protection::SN_DVUO, Protection::SN_DVCC];
    let mut per_op: [Vec<f64>; 3] = Default::default();
    for _ in 0..CHECKER_ROUNDS {
        for (samples, protection) in per_op.iter_mut().zip(families) {
            let t = timed_run(&config(seed, protection), &mut out.tally);
            samples.push(t.run_s / t.report.retired_ops() as f64);
        }
    }
    let [base_s, dvuo_s, dvcc_s] = per_op.map(|s| median(&s).expect("CHECKER_ROUNDS > 0"));
    out.set("core.uniproc_reorder_s_per_op", dvuo_s - base_s);
    out.set("core.epoch_s_per_op", dvcc_s - base_s);

    out.set("sim.run_s", reference.run_s);
    out.set("sim.executed_ticks", reference.executed as f64);
    out.set("sim.skipped_ticks", reference.skipped as f64);
    out.set(
        "sim.skip_ratio",
        (reference.executed + reference.skipped) as f64 / reference.executed as f64,
    );
    out.set(
        "sim.ns_per_executed_tick",
        reference.run_s * 1e9 / reference.executed as f64,
    );
    let mut counts = Counts::default();
    counts.add(r);
    counts.record(out);
}
