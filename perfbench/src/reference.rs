//! The host speed reference: a fixed hash-table kernel, timed between the
//! units of work of every run, by which host figures are normalised.
//!
//! The benchmark shares a few vCPUs of a host with other tenants, and
//! the host's speed moves with their load: on a 2-vCPU x86-64 Linux VM the
//! same `oltp-closed` simulation took 1.04 CPU seconds in one quarter of
//! an hour and 2.4 in the next. Over that swing random-access kernels on a
//! table larger than the core's L2 slowed by the same factor within about
//! 5%, while a register-only loop slowed by 1.6x. So every run times this
//! kernel before each unit of work, and its host figures are rescaled to
//! the speed at which the kernel takes [`NOMINAL_S`]: seconds are
//! multiplied by [`Reference::speed`], rates divided by it. The kernel is
//! part of the benchmark, not of the program, so it is the same on every
//! commit.

use crate::stats::{cpu_s, median, read_rss};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;

/// Kernel CPU seconds at the nominal host speed. The value only sets the
/// scale of the normalised figures: it is roughly the kernel's median on
/// the VM above in a quiet period (see `README.md`).
pub const NOMINAL_S: f64 = 0.03;
/// Keys the table draws from: about 8 MB of buckets, twice the L2.
const KEYS: u64 = 300_000;
/// Table operations per sample.
const OPS: usize = 1_000_000;

/// A SipHash with fixed keys: the same table layout in every process.
type Fixed = BuildHasherDefault<DefaultHasher>;

pub struct Reference {
    table: HashMap<u64, u64, Fixed>,
    state: u64,
    samples: Vec<f64>,
    /// Resident KiB the table added to the process.
    pub resident_kib: u64,
}

impl Reference {
    /// Allocates the table and runs the kernel once untimed, so that every
    /// timed sample finds the table at its steady size and resident.
    pub fn new() -> Self {
        let before = read_rss().rss_kib;
        let mut r = Reference {
            table: HashMap::with_capacity_and_hasher(KEYS as usize, Fixed::default()),
            state: 0x9E37_79B9_7F4A_7C15,
            samples: Vec::new(),
            resident_kib: 0,
        };
        r.kernel();
        r.resident_kib = read_rss().rss_kib.saturating_sub(before);
        r
    }

    /// Random inserts, lookups and removals: unpredictable branches and
    /// cache misses, like the simulator's own table work.
    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..OPS {
            let x = self.next();
            let key = x % KEYS;
            match (x >> 32) % 3 {
                0 => {
                    self.table.insert(key, x);
                }
                1 => acc = acc.wrapping_add(self.table.get(&key).copied().unwrap_or(0)),
                _ => {
                    self.table.remove(&key);
                }
            }
        }
        acc
    }

    fn next(&mut self) -> u64 {
        self.state = self
            .state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.state >> 11
    }

    /// Times the kernel once. The table is read through first, untimed:
    /// the unit of work before may have evicted it, and how long refilling
    /// the caches takes depends on that work, not on the host's speed.
    pub fn sample(&mut self) {
        let warm = self.table.values().fold(0u64, |a, &v| a.wrapping_add(v));
        std::hint::black_box(warm);
        let t = cpu_s();
        std::hint::black_box(self.kernel());
        self.samples.push(cpu_s() - t);
    }

    /// Median kernel CPU seconds of the samples taken.
    pub fn median_s(&self) -> Option<f64> {
        median(&self.samples)
    }

    pub fn samples(&self) -> usize {
        self.samples.len()
    }

    /// Nominal over measured kernel time: below 1 on a host slower than
    /// nominal. Host seconds times this, and rates divided by it, are the
    /// figures at nominal host speed.
    ///
    /// # Panics
    ///
    /// Panics when no sample was taken.
    pub fn speed(&self) -> f64 {
        NOMINAL_S / self.median_s().expect("the workload sampled the reference")
    }
}

/// A host figure at nominal host speed, by its unit: host seconds
/// (`s`, `ns`) scale with `speed`, host rates (`1/s`) against it, and
/// every other unit (cycles, counts, MB, ratios) is left as measured.
pub fn normalise(value: f64, unit: &str, speed: f64) -> f64 {
    match unit {
        "s" | "ns" => value * speed,
        "1/s" => value / speed,
        _ => value,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_host_time_units_are_normalised() {
        assert_eq!(normalise(2.0, "s", 0.5), 1.0);
        assert_eq!(normalise(2.0, "ns", 0.5), 1.0);
        assert_eq!(normalise(2.0, "1/s", 0.5), 4.0);
        for unit in ["cycles", "count", "MB", "bytes", "ratio", "%"] {
            assert_eq!(normalise(2.0, unit, 0.5), 2.0, "{unit}");
        }
    }

    #[test]
    fn speed_is_nominal_over_the_median_sample() {
        let mut r = Reference::new();
        assert_eq!(r.samples(), 0, "the untimed run is not a sample");
        for _ in 0..3 {
            r.sample();
        }
        let m = r.median_s().unwrap();
        assert!(m > 0.0);
        assert_eq!(r.speed(), NOMINAL_S / m);
        assert!(r.table.len() as u64 <= KEYS);
    }
}
