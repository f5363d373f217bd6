//! The metric registry: every name, unit and direction the result line
//! may carry. `BENCHMARK.json` at the repository root lists the same
//! metrics; a test keeps the two in step.

/// One registered metric.
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `lower` or `higher`; read by the tests against `BENCHMARK.json`.
    #[cfg_attr(not(test), allow(dead_code))]
    pub better: &'static str,
}

const fn spec(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec { name, unit, better }
}

/// End-to-end metrics, printed by every untraced run.
pub const END_TO_END: &[Spec] = &[
    spec("setup_s", "s", "lower"),
    spec("sim_ops_per_s", "1/s", "higher"),
    spec("programs_per_s", "1/s", "higher"),
    spec("peak_rss_mb", "MB", "lower"),
    spec("sim_cycles", "cycles", "lower"),
];

/// Per-layer metrics (layer = crate), printed by every traced run; a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: &[Spec] = &[
    spec("workloads.build_streams_s", "s", "lower"),
    spec("workloads.fuzz_generate_s", "s", "lower"),
    spec("sim.build_s", "s", "lower"),
    spec("sim.run_s", "s", "lower"),
    spec("sim.executed_ticks", "count", "lower"),
    spec("sim.skipped_ticks", "count", "higher"),
    spec("sim.skip_ratio", "ratio", "higher"),
    spec("sim.ns_per_executed_tick", "ns", "lower"),
    spec("sim.window_host_s_p50", "s", "lower"),
    spec("sim.window_host_s_p90", "s", "lower"),
    spec("pipeline.self_s", "s", "lower"),
    spec("pipeline.share", "ratio", "lower"),
    spec("pipeline.squashes", "count", "lower"),
    spec("pipeline.wb_full_stalls", "count", "lower"),
    spec("pipeline.vc_full_stalls", "count", "lower"),
    spec("pipeline.injected_membars", "count", "lower"),
    spec("pipeline.forgiven_replays", "count", "lower"),
    spec("pipeline.queue_delay_p50_cycles", "cycles", "lower"),
    spec("pipeline.queue_delay_p99_cycles", "cycles", "lower"),
    spec("coherence.self_s", "s", "lower"),
    spec("coherence.share", "ratio", "lower"),
    spec("coherence.l1_misses", "count", "lower"),
    spec("coherence.coherence_misses", "count", "lower"),
    spec("coherence.replay_l1_misses", "count", "lower"),
    spec("coherence.writebacks", "count", "lower"),
    spec("interconnect.total_bytes", "bytes", "lower"),
    spec("interconnect.max_link_bytes", "bytes", "lower"),
    spec("interconnect.checker_bytes", "bytes", "lower"),
    spec("interconnect.ber_bytes", "bytes", "lower"),
    spec("core.uniproc_reorder_s_per_op", "s", "lower"),
    spec("core.epoch_s_per_op", "s", "lower"),
    spec("core.informs_enqueued", "count", "lower"),
    spec("core.crc_checks", "count", "lower"),
    spec("core.epoch_closes", "count", "lower"),
    spec("core.replay_vc_hits", "count", "higher"),
    spec("core.sorter_occupancy_hwm", "count", "lower"),
    spec("core.dvmc_slowdown_pct", "%", "lower"),
    spec("ber.self_s", "s", "lower"),
    spec("ber.checkpoints_taken", "count", "lower"),
    spec("ber.bytes_logged_per_ckpt", "bytes", "lower"),
    spec("ber.rss_growth_per_ckpt_mb", "MB", "lower"),
    spec("ber.rollbacks", "count", "lower"),
    spec("ber.parts_restored", "count", "lower"),
    spec("ber.replayed_cycles", "cycles", "lower"),
    spec("ber.capture_s", "s", "lower"),
    spec("ber.rollback_s", "s", "lower"),
    spec("faults.injected", "count", "higher"),
    spec("faults.masked", "count", "lower"),
    spec("faults.episodes", "count", "higher"),
    spec("faults.detect_latency_p50_cycles", "cycles", "lower"),
    spec("faults.detect_latency_p90_cycles", "cycles", "lower"),
    spec("consistency.oracle_s", "s", "lower"),
    spec("consistency.records", "count", "higher"),
    spec("tracing.overhead_pct", "%", "lower"),
];

/// Looks a metric up by name in either list.
pub fn find(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn benchmark_json() -> String {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark")
    }

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = BTreeSet::new();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(s.name), "{} listed twice", s.name);
            assert!(s.name.len() <= 64 && s.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(s
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(s.unit.len() <= 16);
            assert!(s
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(s.better == "lower" || s.better == "higher");
        }
        assert!(find("setup_s").is_some() && find("nope").is_none());
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let json = benchmark_json();
        for s in END_TO_END.iter().chain(PER_LAYER) {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                s.name, s.unit, s.better
            );
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        let metric_entries = json.matches("\"unit\": ").count();
        assert_eq!(metric_entries, END_TO_END.len() + PER_LAYER.len());
    }
}
