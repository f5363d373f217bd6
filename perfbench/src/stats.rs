//! Pure helpers: order statistics, failure accounting, RSS parsing and
//! the result-line format. Everything here is deterministic and unit
//! tested; the workloads only feed it numbers.

use std::fmt::Write as _;

/// Median of a sample (mean of the two middle values for even sizes).
/// `None` on an empty sample.
pub fn median(xs: &[f64]) -> Option<f64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Nearest-rank percentile (`p` in 0..=100) of integer samples, the same
/// rule the simulator's own reports use.
pub fn percentile(xs: &[u64], p: u32) -> Option<u64> {
    if xs.is_empty() {
        return None;
    }
    let mut s = xs.to_vec();
    s.sort_unstable();
    let rank = (p as usize * s.len()).div_ceil(100);
    Some(s[rank.clamp(1, s.len()) - 1])
}

/// Samples strictly above the nearest-rank `p`-th percentile position.
pub fn samples_beyond(n: usize, p: u32) -> usize {
    if n == 0 {
        return 0;
    }
    n - (p as usize * n).div_ceil(100).clamp(1, n)
}

/// A tail percentile is reported only when at least this many samples lie
/// beyond it; below that it would rest on a handful of outliers.
pub const MIN_TAIL_SAMPLES: usize = 10;

/// Whether percentile `p` of `n` samples has enough samples beyond it.
pub fn tail_is_supported(n: usize, p: u32) -> bool {
    samples_beyond(n, p) >= MIN_TAIL_SAMPLES
}

/// Attempted and failed operations of one run: the result line's
/// `attempted`/`failed` fields, whose ratio is `failed_frac`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Records one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }

    /// Marks every attempted operation failed (a fatal stop voids the
    /// whole run).
    pub fn fail_all(&mut self) {
        self.attempted = self.attempted.max(1);
        self.failed = self.attempted;
    }

    /// Failed ÷ attempted (0 when nothing was attempted).
    pub fn failed_frac(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// Resident-set figures from `/proc/self/status`, in KiB.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Rss {
    /// Current resident set (`VmRSS`).
    pub rss_kib: u64,
    /// Peak resident set (`VmHWM`).
    pub hwm_kib: u64,
}

/// Parses the `VmRSS` and `VmHWM` lines of a `/proc/<pid>/status` text.
/// `None` when either is missing or malformed.
pub fn parse_rss(status: &str) -> Option<Rss> {
    let field = |key: &str| {
        status.lines().find_map(|l| {
            let rest = l.strip_prefix(key)?.strip_prefix(':')?;
            let kib = rest.trim().strip_suffix("kB")?.trim();
            kib.parse::<u64>().ok()
        })
    };
    Some(Rss {
        rss_kib: field("VmRSS")?,
        hwm_kib: field("VmHWM")?,
    })
}

/// This process's resident-set figures.
///
/// # Panics
///
/// Panics where `/proc/self/status` is missing or lacks the fields (the
/// benchmark runs on Linux only).
pub fn read_rss() -> Rss {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("the benchmark reads memory use from /proc/self/status (Linux)");
    parse_rss(&status).expect("/proc/self/status carries VmRSS and VmHWM")
}

/// KiB to MB (10^6 bytes).
pub fn kib_to_mb(kib: f64) -> f64 {
    kib * 1024.0 / 1e6
}

/// Growth of `y` per unit of `x` between the first and the last sample
/// whose `x` differs from the first (e.g. resident KiB per checkpoint
/// taken). `None` without two distinct `x`.
pub fn growth_per_step(samples: &[(u64, u64)]) -> Option<f64> {
    let &(x0, y0) = samples.first()?;
    let &(x1, y1) = samples.iter().rev().find(|s| s.0 != x0)?;
    Some((y1 as f64 - y0 as f64) / (x1 as f64 - x0 as f64))
}

/// Whether another unit of work, expected to take the median of
/// `unit_s`, still ends within `budget_s` after `elapsed_s`: time-budgeted
/// loops stop before they overrun instead of after.
pub fn another_fits(elapsed_s: f64, unit_s: &[f64], budget_s: f64) -> bool {
    elapsed_s + median(unit_s).unwrap_or(0.0) <= budget_s
}

#[repr(C)]
struct Timespec {
    tv_sec: std::os::raw::c_long,
    tv_nsec: std::os::raw::c_long,
}

extern "C" {
    fn clock_gettime(clock: std::os::raw::c_int, tp: *mut Timespec) -> std::os::raw::c_int;
}

/// Linux's clock id for the CPU time of the calling process.
const CLOCK_PROCESS_CPUTIME_ID: std::os::raw::c_int = 2;

/// CPU seconds this process has used so far, user plus system, all
/// threads. Host figures are CPU time rather than wall time: time spent
/// waiting for a CPU that another process holds is not the simulator's
/// cost, and on a shared host it varied far more than the work did.
///
/// # Panics
///
/// Panics if the clock cannot be read (the benchmark runs on Linux only).
pub fn cpu_s() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` for the call.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Median CPU seconds of `n` calls to `f`; dropping the result is not
/// timed.
pub fn median_time<T>(n: usize, mut f: impl FnMut() -> T) -> f64 {
    let times: Vec<f64> = (0..n)
        .map(|_| {
            let t = cpu_s();
            let value = std::hint::black_box(f());
            let dt = cpu_s() - t;
            drop(value);
            dt
        })
        .collect();
    median(&times).expect("n > 0")
}

/// One named metric value with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`, metrics in the given
/// order. A non-finite value cannot be written as JSON, so it turns the
/// run incorrect and is written as 0.
pub fn result_line(correct: bool, tally: Tally, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        correct && finite,
        tally.attempted.max(1),
        tally.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(value),
            m.unit
        );
    }
    out.push_str("}}");
    out
}

/// A finite float as a JSON number with every digit Rust's shortest
/// round-trip formatting gives (integral values keep a `.0`).
fn json_number(v: f64) -> String {
    let s = format!("{v}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// 64-bit FNV-1a, for behaviour fingerprints.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_handles_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.5]), Some(7.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50), Some(50));
        assert_eq!(percentile(&xs, 90), Some(90));
        assert_eq!(percentile(&xs, 99), Some(99));
        assert_eq!(percentile(&[30, 10, 20], 50), Some(20));
        assert_eq!(percentile(&[5], 99), Some(5));
        assert_eq!(percentile(&[], 50), None);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        // p90 of 100 samples is rank 90: ten lie beyond it.
        assert_eq!(samples_beyond(100, 90), 10);
        assert!(tail_is_supported(100, 90));
        assert!(!tail_is_supported(99, 90));
        // p99 needs a thousand samples.
        assert!(tail_is_supported(1000, 99));
        assert!(!tail_is_supported(999, 99));
        // p50 of 20 leaves ten beyond.
        assert!(tail_is_supported(20, 50));
        assert_eq!(samples_beyond(0, 50), 0);
        assert_eq!(samples_beyond(1, 99), 0);
    }

    #[test]
    fn tally_counts_failures_against_attempts() {
        let mut t = Tally::default();
        assert_eq!(t.failed_frac(), 0.0);
        for ok in [true, true, false, true] {
            t.record(ok);
        }
        assert_eq!(
            t,
            Tally {
                attempted: 4,
                failed: 1
            }
        );
        assert_eq!(t.failed_frac(), 0.25);
        t.fail_all();
        assert_eq!(t.failed_frac(), 1.0);
        let mut empty = Tally::default();
        empty.fail_all();
        assert_eq!(
            empty,
            Tally {
                attempted: 1,
                failed: 1
            }
        );
    }

    #[test]
    fn rss_parses_proc_status() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t   30208 kB\nVmRSS:\t   12096 kB\n";
        assert_eq!(
            parse_rss(status),
            Some(Rss {
                rss_kib: 12096,
                hwm_kib: 30208
            })
        );
        assert_eq!(parse_rss("VmRSS:\t1 kB\n"), None, "VmHWM missing");
        assert_eq!(parse_rss("VmRSSX:\t1 kB\nVmHWM:\t2 kB\n"), None);
        assert_eq!(parse_rss("VmRSS:\tmany kB\nVmHWM:\t2 kB\n"), None);
        assert!((kib_to_mb(1000.0) - 1.024).abs() < 1e-12);
    }

    #[test]
    fn budgeted_loops_stop_before_overrunning() {
        assert!(another_fits(0.0, &[], 1.0));
        assert!(another_fits(6.0, &[2.0, 4.0, 3.0], 9.0));
        assert!(!another_fits(6.5, &[2.0, 4.0, 3.0], 9.0));
    }

    #[test]
    fn growth_is_measured_between_distinct_steps() {
        assert_eq!(growth_per_step(&[]), None);
        assert_eq!(growth_per_step(&[(5, 100), (5, 200)]), None);
        assert_eq!(
            growth_per_step(&[(5, 100), (10, 150), (15, 300), (15, 310)]),
            Some(21.0)
        );
        assert_eq!(growth_per_step(&[(0, 300), (2, 100)]), Some(-100.0));
    }

    #[test]
    fn cpu_time_advances_with_work() {
        let t0 = cpu_s();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let busy = cpu_s() - t0;
        assert!(busy > 0.0, "{x}");
        assert!(cpu_s() >= t0 + busy, "the clock never goes back");
    }

    #[test]
    fn this_process_has_a_resident_set() {
        let r = read_rss();
        assert!(r.rss_kib > 0 && r.hwm_kib >= r.rss_kib);
    }

    #[test]
    fn result_line_has_the_four_keys_and_full_digits() {
        let metrics = [
            Metric {
                name: "latency_ms",
                unit: "ms",
                value: 1.2034,
            },
            Metric {
                name: "setup_s",
                unit: "s",
                value: 2.0,
            },
        ];
        let line = result_line(
            true,
            Tally {
                attempted: 10,
                failed: 1,
            },
            &metrics,
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 1, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.2034, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 2.0, \"unit\": \"s\"}}}"
        );
        let third = result_line(
            true,
            Tally::default(),
            &[Metric {
                name: "x",
                unit: "s",
                value: 1.0 / 3.0,
            }],
        );
        assert!(third.contains("0.3333333333333333"), "{third}");
        assert!(
            third.contains("\"attempted\": 1"),
            "attempted is at least 1"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let line = result_line(
            true,
            Tally::default(),
            &[Metric {
                name: "x",
                unit: "s",
                value: f64::NAN,
            }],
        );
        assert!(line.starts_with("{\"correct\": false"));
        assert!(line.contains("\"value\": 0.0"));
        assert_eq!(json_number(2.0), "2.0");
        assert_eq!(json_number(1e-7), "0.0000001");
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
