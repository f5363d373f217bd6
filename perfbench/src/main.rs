//! Repository benchmark for the DVMC simulator.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <oltp-closed|service-storm|fuzz-short> --seed <n> \
//!     --seconds <n> --trace <0|1>
//! ```
//!
//! Each run prints a human-readable report and, as its last line, one
//! JSON object with the keys `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer ones (see `metrics.rs` and `README.md`).

mod counts;
mod fuzz;
mod metrics;
mod oltp;
mod reference;
mod service;
mod stats;
mod tracer;

use reference::{normalise, Reference};
use stats::{kib_to_mb, read_rss, result_line, Metric, Tally};
use std::collections::BTreeMap;
use std::time::Duration;

/// The workloads, by command-line name.
const WORKLOADS: [&str; 3] = ["oltp-closed", "service-storm", "fuzz-short"];

/// Parsed command line.
#[derive(Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value.clone()),
            "--workload" => return Err(bad(&WORKLOADS.join(" | "))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an unsigned integer"))?),
            "--seconds" => match value.parse() {
                Ok(s) if (1..=3600).contains(&s) => seconds = Some(s),
                _ => return Err(bad("1..=3600")),
            },
            "--trace" => match value.as_str() {
                "0" => trace = Some(false),
                "1" => trace = Some(true),
                _ => return Err(bad("0 or 1")),
            },
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(0),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// What one workload run measured.
pub struct Outcome {
    /// Every self-check passed (behaviour repeated exactly, the tracing
    /// tracer matched `System`, nothing unexpected).
    pub correct: bool,
    pub tally: Tally,
    pub values: BTreeMap<&'static str, f64>,
}

impl Default for Outcome {
    fn default() -> Self {
        Outcome {
            correct: true,
            tally: Tally::default(),
            values: BTreeMap::new(),
        }
    }
}

impl Outcome {
    /// Records a metric value; the name must be registered.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(metrics::find(name).is_some(), "unregistered metric {name}");
        self.values.insert(name, value);
    }

    /// Records a result-line metric and prints it with its unit and a note.
    pub fn put(&mut self, name: &'static str, value: f64, note: &str) {
        self.set(name, value);
        let unit = metrics::find(name).expect("registered by set").unit;
        show(name, value, unit, note);
    }

    /// Records a failed self-check and says why.
    pub fn check(&mut self, ok: bool, what: &str) {
        if !ok {
            println!("SELF-CHECK FAILED: {what}");
            self.correct = false;
        }
    }
}

/// Prints one aligned report line: name, value, unit and a note.
pub fn show(name: &str, value: f64, unit: &str, note: &str) {
    println!("  {name:<34} {value:>16.6} {unit:<7} {note}");
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!(
            "usage: --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
            WORKLOADS.join("|")
        );
        std::process::exit(2)
    });
    let budget = Duration::from_secs(args.seconds);
    println!(
        "workload {} seed {} budget {}s trace {} — host threads used: 1 (available: {})",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    );
    let mut reference = Reference::new();
    let r = &mut reference;
    let mut out = match args.workload.as_str() {
        "oltp-closed" => oltp::run(args.seed, budget, args.trace, r),
        "service-storm" => service::run(args.seed, budget, args.trace, r),
        "fuzz-short" => fuzz::run(args.seed, budget, args.trace, r),
        _ => unreachable!("parse_args accepts only known workloads"),
    };
    // The reference table stays resident from start to exit; the
    // program's peak is the process's peak without it.
    let peak = kib_to_mb(read_rss().hwm_kib.saturating_sub(reference.resident_kib) as f64);
    let speed = reference.speed();
    println!(
        "host speed: reference kernel median {:.6} s over {} samples, nominal {} s: \
         host figures on the result line are scaled by {speed:.4} (seconds) and 1/{speed:.4} (rates)",
        reference.median_s().expect("sampled, or speed() panicked"),
        reference.samples(),
        reference::NOMINAL_S,
    );
    let specs = if args.trace {
        metrics::PER_LAYER
    } else {
        out.set("peak_rss_mb", peak);
        metrics::END_TO_END
    };
    println!(
        "failed_frac = {} ({} failed of {} attempted)",
        out.tally.failed_frac(),
        out.tally.failed,
        out.tally.attempted
    );
    println!(
        "peak_rss_mb = {peak:.1} MB (VmHWM at exit, less the reference table's {:.1} MB)",
        kib_to_mb(reference.resident_kib as f64)
    );
    let mut line = Vec::with_capacity(specs.len());
    for s in specs {
        let value = match out.values.get(s.name) {
            Some(&v) => v,
            // A layer this workload does not exercise reads 0.
            None if args.trace => 0.0,
            None => panic!("{} did not measure {}", args.workload, s.name),
        };
        line.push(Metric {
            name: s.name,
            unit: s.unit,
            value: normalise(value, s.unit, speed),
        });
    }
    let correct = out.correct;
    println!("{}", result_line(correct, out.tally, &line));
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&argv(
            "--workload fuzz-short --seed 7 --seconds 12 --trace 1",
        ))
        .unwrap();
        assert_eq!(
            a,
            Args {
                workload: "fuzz-short".into(),
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "",
            "--workload nope",
            "--workload oltp-closed --seed -1",
            "--workload oltp-closed --seconds 0",
            "--workload oltp-closed --trace 2",
            "--workload oltp-closed --seed",
            "--workload oltp-closed --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "accepted {bad:?}");
        }
    }
}
