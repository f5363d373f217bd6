//! `fuzz-short`: 4,096 generated litmus programs (2–8 threads) across
//! four consistency models × two protocols, each generated, built, run
//! with the DVMC checkers armed and cross-checked by the offline oracle
//! (`consistency::oracle::verify`); every eighth program is faulted with
//! recovery armed. The grid and its seeds are those of `exp_fuzz
//! --programs=512`.
//!
//! Set-up is paid once per program here (a third of the host time) but is
//! negligible elsewhere. A disagreement between the online checkers and
//! the oracle, or a run that does not complete, counts as a failed
//! program; the run goes on.

use crate::counts::Counts;
use crate::reference::Reference;
use crate::stats::{another_fits, cpu_s, fnv1a, median, percentile};
use crate::Outcome;
use dvmc_consistency::{verify, Model};
use dvmc_faults::{Fault, FaultPlan};
use dvmc_sim::{Protocol, RecoveryPolicy, RunReport, System, SystemBuilder, SystemConfig};
use dvmc_types::rng::derive_seed;
use dvmc_types::NodeId;
use dvmc_workloads::spec::{build_streams, WorkloadKind};
use dvmc_workloads::{generate_fuzz_program, FuzzProgram};
use std::time::{Duration, Instant};

/// Programs per (model, protocol) cell.
const PROGRAMS: u64 = 512;
const PROTOCOLS: [Protocol; 2] = [Protocol::Directory, Protocol::Snooping];
const MAX_CYCLES: u64 = 2_000_000;
const OBS: usize = 16;

fn config(program: &FuzzProgram, model: Model, protocol: Protocol, faulted: bool) -> SystemConfig {
    let seed = program.seed;
    let mut b = SystemBuilder::new()
        .nodes(program.threads())
        .model(model)
        .protocol(protocol)
        .dvmc(true)
        .workload(WorkloadKind::Fuzz(seed), 1)
        .seed(derive_seed(seed, 1))
        .perturbation(derive_seed(seed, 2))
        .record_commits(true)
        .watchdog(200_000)
        .max_cycles(MAX_CYCLES)
        .obs(OBS);
    if faulted {
        b = b.recovery(RecoveryPolicy::default()).fault(FaultPlan {
            at_cycle: 100,
            fault: Fault::CacheBitFlip { node: NodeId(0) },
        });
    }
    b.into_config().expect("valid fuzz-short configuration")
}

/// Host CPU seconds per layer over one pass (`trace` only).
#[derive(Default)]
struct Layers {
    generate: f64,
    streams: f64,
    build: f64,
    run: f64,
    oracle: f64,
}

/// One pass over the whole grid.
#[derive(Default)]
struct Pass {
    /// Host CPU seconds per (model, protocol) cell, grid order.
    cell_s: Vec<f64>,
    /// Generation plus `System::new`, summed over programs.
    setup_s: f64,
    /// Wall seconds of the pass: what the run's time budget spends.
    wall_s: f64,
    layers: Layers,
    /// Per-program outcome stream, hashed: equal passes simulate alike.
    hash: u64,
    failed: Vec<String>,
    programs: u64,
    executed: u64,
    cycles: u64,
    retired: u64,
    digest: u64,
    recovered: u64,
    records: u64,
    detect: Vec<u64>,
    counts: Counts,
}

/// Why a program failed, or `None` when it passed.
fn failure(faulted: bool, r: &RunReport, oracle_allows: bool) -> Option<&'static str> {
    let online_pass = r.violations.is_empty();
    if !r.completed || r.hung {
        Some("run did not complete")
    } else if !online_pass && oracle_allows {
        Some("online checkers raised a violation, the oracle allows the execution")
    } else if online_pass && !oracle_allows {
        Some("online checkers passed, the oracle forbids the execution")
    } else if faulted && !online_pass {
        Some("a violation survived rollback/replay")
    } else {
        None
    }
}

fn pass(seed: u64, trace: bool, reference: &mut Reference) -> Pass {
    let wall = Instant::now();
    let mut p = Pass::default();
    let mut stream = Vec::new();
    for (mi, model) in Model::EVALUATED.into_iter().enumerate() {
        for (pi, protocol) in PROTOCOLS.into_iter().enumerate() {
            reference.sample();
            let cell_start = cpu_s();
            for i in 0..PROGRAMS {
                let program_seed = derive_seed(derive_seed(seed, (mi * 2 + pi) as u64), i);
                let faulted = i % 8 == 3;
                let t0 = cpu_s();
                let program = generate_fuzz_program(program_seed, model);
                let cfg = config(&program, model, protocol, faulted);
                let t1 = cpu_s();
                if trace {
                    std::hint::black_box(build_streams(&cfg.workload));
                }
                let t2 = cpu_s();
                let mut sys = System::new(cfg);
                let t3 = cpu_s();
                let r = sys.run_to_completion(MAX_CYCLES);
                let (executed, skipped) = sys.kernel_stats();
                let t4 = cpu_s();
                let verdict = verify(model.table(), &r.commit_logs);
                let t5 = cpu_s();
                p.setup_s += t1 - t0 + (t3 - t2);
                if trace {
                    let l = &mut p.layers;
                    l.generate += t1 - t0;
                    l.streams += t2 - t1;
                    l.build += t3 - t2;
                    l.run += t4 - t3;
                    l.oracle += t5 - t4;
                    p.counts.add(&r);
                    p.records += r.commit_logs.iter().map(Vec::len).sum::<usize>() as u64;
                    p.detect.extend(r.detection.as_ref().map(|d| d.latency()));
                }
                let why = failure(faulted, &r, verdict.is_allowed());
                let ok = why.is_none();
                if let Some(why) = why {
                    p.failed.push(format!(
                        "fuzz/{model}/{protocol:?}/{i} (program seed {program_seed:#x}): {why}"
                    ));
                }
                p.programs += 1;
                p.executed += executed;
                p.cycles += executed + skipped;
                p.retired += r.retired_ops();
                p.digest = p.digest.rotate_left(1) ^ r.memory_digest;
                p.recovered += u64::from(r.recovery.is_some());
                for v in [r.cycles, r.retired_ops(), r.memory_digest, u64::from(ok)] {
                    stream.extend_from_slice(&v.to_le_bytes());
                }
            }
            p.cell_s.push(cpu_s() - cell_start);
        }
    }
    p.hash = fnv1a(&stream);
    p.wall_s = wall.elapsed().as_secs_f64();
    p
}

pub fn run(seed: u64, budget: Duration, trace: bool, reference: &mut Reference) -> Outcome {
    let mut out = Outcome::default();
    let start = Instant::now();
    let mut passes = vec![pass(seed, false, reference)];
    if trace {
        passes.push(pass(seed, true, reference));
    } else {
        while another_fits(
            start.elapsed().as_secs_f64(),
            &passes.iter().map(|p| p.wall_s).collect::<Vec<_>>(),
            budget.as_secs_f64(),
        ) {
            passes.push(pass(seed, false, reference));
        }
    }
    let first = &passes[0];
    for later in &passes[1..] {
        out.check(
            later.hash == first.hash,
            "a repeated pass simulated differently",
        );
    }
    for f in &first.failed {
        println!("failed: {f}");
    }
    out.tally.attempted = first.programs;
    out.tally.failed = first.failed.len() as u64;
    println!(
        "fingerprint: cycle={} retired_ops={} digest={:#018x} episodes={} programs={:#018x}",
        first.cycles, first.retired, first.digest, first.recovered, first.hash
    );

    if trace {
        let (untraced, traced) = (&passes[0], &passes[1]);
        let total = |p: &Pass| p.cell_s.iter().sum::<f64>();
        let l = &traced.layers;
        out.set(
            "tracing.overhead_pct",
            (total(traced) / total(untraced) - 1.0) * 100.0,
        );
        out.set("workloads.fuzz_generate_s", l.generate);
        out.set("workloads.build_streams_s", l.streams);
        out.set("sim.build_s", l.build);
        out.set("sim.run_s", l.run);
        out.set("sim.executed_ticks", traced.executed as f64);
        out.set(
            "sim.skipped_ticks",
            (traced.cycles - traced.executed) as f64,
        );
        out.set(
            "sim.skip_ratio",
            traced.cycles as f64 / traced.executed as f64,
        );
        out.set(
            "sim.ns_per_executed_tick",
            l.run * 1e9 / traced.executed as f64,
        );
        out.set("consistency.oracle_s", l.oracle);
        out.set("consistency.records", traced.records as f64);
        traced.counts.record(&mut out);
        out.set("faults.episodes", traced.recovered as f64);
        if let (Some(p50), Some(p90)) = (
            percentile(&traced.detect, 50),
            percentile(&traced.detect, 90),
        ) {
            out.set("faults.detect_latency_p50_cycles", p50 as f64);
            out.set("faults.detect_latency_p90_cycles", p90 as f64);
        }
        println!(
            "traced pass: generate {:.3}s, build_streams {:.3}s, System::new {:.3}s, run {:.3}s, \
             oracle {:.3}s of {:.3}s",
            l.generate,
            l.streams,
            l.build,
            l.run,
            l.oracle,
            total(traced)
        );
        return out;
    }

    // Each cell's median over passes, summed: a host stall in one pass
    // moves one sample of one cell only.
    let cells = first.cell_s.len();
    let pass_s: f64 = (0..cells)
        .map(|c| median(&passes.iter().map(|p| p.cell_s[c]).collect::<Vec<_>>()).expect("a pass"))
        .sum();
    let setup_s = median(&passes.iter().map(|p| p.setup_s).collect::<Vec<_>>()).expect("a pass");
    for p in &passes {
        let cells: Vec<String> = p.cell_s.iter().map(|s| format!("{s:.3}")).collect();
        println!(
            "host CPU seconds per cell: {} (set-up {:.3})",
            cells.join(" "),
            p.setup_s
        );
    }
    let n = format!("median of {} passes", passes.len());
    println!(
        "end-to-end (fuzz-short, {} programs per pass):",
        first.programs
    );
    out.put(
        "setup_s",
        setup_s,
        &format!("generation + System::new summed over programs, {n}"),
    );
    out.put("sim_ops_per_s", first.retired as f64 / pass_s, &n);
    out.put(
        "programs_per_s",
        first.programs as f64 / pass_s,
        &format!("generated, run and oracle-checked, {n}"),
    );
    out.put("sim_cycles", first.cycles as f64, "summed over programs");
    out
}
