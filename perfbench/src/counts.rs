//! Per-layer event counts read from the simulator's run reports.

use crate::Outcome;
use dvmc_sim::{CheckpointStats, RunReport};

/// Counts summed over one or more runs (high-water marks take the max).
#[derive(Clone, Copy, Debug, Default)]
pub struct Counts {
    squashes: u64,
    wb_full_stalls: u64,
    vc_full_stalls: u64,
    injected_membars: u64,
    forgiven_replays: u64,
    l1_misses: u64,
    coherence_misses: u64,
    replay_l1_misses: u64,
    writebacks: u64,
    total_bytes: u64,
    max_link_bytes: u64,
    checker_bytes: u64,
    ber_bytes: u64,
    informs_enqueued: u64,
    crc_checks: u64,
    epoch_closes: u64,
    replay_vc_hits: u64,
    sorter_occupancy_hwm: u64,
    checkpoint: CheckpointStats,
}

impl Counts {
    pub fn add(&mut self, r: &RunReport) {
        for s in &r.core_stats {
            self.squashes += s.squashes;
            self.wb_full_stalls += s.wb_full_stalls;
            self.vc_full_stalls += s.vc_full_stalls;
            self.injected_membars += s.injected_membars;
            self.forgiven_replays += s.forgiven_replays;
        }
        for s in &r.cache_stats {
            self.l1_misses += s.l1_misses;
            self.coherence_misses += s.coherence_misses;
            self.replay_l1_misses += s.replay_l1_misses;
            self.writebacks += s.writebacks;
        }
        self.total_bytes += r.total_bytes;
        self.max_link_bytes = self.max_link_bytes.max(r.max_link_bytes);
        self.checker_bytes += r.checker_bytes;
        self.ber_bytes += r.ber_bytes;
        for m in &r.obs {
            self.informs_enqueued += m.informs_enqueued;
            self.crc_checks += m.crc_checks;
            self.epoch_closes += m.epoch_closes;
            self.replay_vc_hits += m.replay_vc_hits;
            self.sorter_occupancy_hwm = self.sorter_occupancy_hwm.max(m.sorter_occupancy_hwm);
        }
        let c = &r.checkpoint;
        let sum = &mut self.checkpoint;
        sum.snapshots_taken += c.snapshots_taken;
        sum.bytes_logged += c.bytes_logged;
        sum.rollbacks += c.rollbacks;
        sum.parts_restored += c.parts_restored;
    }

    pub fn record(&self, out: &mut Outcome) {
        let c = &self.checkpoint;
        for (name, v) in [
            ("pipeline.squashes", self.squashes),
            ("pipeline.wb_full_stalls", self.wb_full_stalls),
            ("pipeline.vc_full_stalls", self.vc_full_stalls),
            ("pipeline.injected_membars", self.injected_membars),
            ("pipeline.forgiven_replays", self.forgiven_replays),
            ("coherence.l1_misses", self.l1_misses),
            ("coherence.coherence_misses", self.coherence_misses),
            ("coherence.replay_l1_misses", self.replay_l1_misses),
            ("coherence.writebacks", self.writebacks),
            ("interconnect.total_bytes", self.total_bytes),
            ("interconnect.max_link_bytes", self.max_link_bytes),
            ("interconnect.checker_bytes", self.checker_bytes),
            ("interconnect.ber_bytes", self.ber_bytes),
            ("core.informs_enqueued", self.informs_enqueued),
            ("core.crc_checks", self.crc_checks),
            ("core.epoch_closes", self.epoch_closes),
            ("core.replay_vc_hits", self.replay_vc_hits),
            ("core.sorter_occupancy_hwm", self.sorter_occupancy_hwm),
            ("ber.checkpoints_taken", c.snapshots_taken),
            ("ber.rollbacks", c.rollbacks),
            ("ber.parts_restored", c.parts_restored),
        ] {
            out.set(name, v as f64);
        }
        if c.snapshots_taken > 0 {
            out.set(
                "ber.bytes_logged_per_ckpt",
                c.bytes_logged as f64 / c.snapshots_taken as f64,
            );
        }
    }
}
