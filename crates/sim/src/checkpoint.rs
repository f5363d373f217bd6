//! Checkpoint state carried by the backward-error-recovery log
//! (DESIGN.md §14).
//!
//! The [`SafetyNet`](dvmc_ber::SafetyNet) log holds one
//! [`MachineCheckpoint`] per interval. Three shapes exist:
//!
//! - [`MachineCheckpoint::Unarmed`]: BER coordination traffic is modelled
//!   but recovery is off — there is nothing to restore.
//! - [`MachineCheckpoint::Whole`]: a deep clone of the entire machine
//!   ([`Snapshot`]), the original scheme. Capture cost is O(machine) per
//!   interval no matter how little happened.
//! - [`MachineCheckpoint::Delta`]: a log-based incremental checkpoint.
//!   Each interval captures only the parts that may have mutated since
//!   the previous capture (per the dirty-part flags the cluster and the
//!   system maintain), plus a small always-captured [`Misc`] record.
//!   Rollback reconstructs the machine by undo-replay over the log: for
//!   every part, restore the newest image at or before the recovery
//!   point — falling back to the base snapshot — and catch idle cores up
//!   over the uncaptured (provably inert) span.
//!
//! When the log evicts its oldest delta to make room, the delta is
//! *folded* into the base snapshot ([`Delta::fold_into`]) so the base
//! always reflects the machine just before the oldest retained entry.

use crate::system::Snapshot;
use dvmc_coherence::PartImage;
use dvmc_pipeline::Core;
use dvmc_types::rng::DetRng;
use dvmc_types::Cycle;

/// Small, cheap state that mutates nearly every cycle and therefore rides
/// in **every** delta rather than being dirty-tracked: the fault-injection
/// RNG, the watchdog progress table, and the bandwidth-accounting
/// counters.
#[derive(Clone)]
pub(crate) struct Misc {
    pub rng: DetRng,
    pub progress: Vec<(u64, Cycle)>,
    pub checker_bytes: u64,
    pub ber_bytes: u64,
}

/// One incremental checkpoint: the cores (tagged with their node index)
/// and the memory-system parts that may have mutated since the previous
/// capture.
#[derive(Clone)]
pub(crate) struct Delta {
    pub cores: Vec<(usize, Core)>,
    pub parts: Vec<PartImage>,
    pub misc: Misc,
}

impl Delta {
    /// An empty delta (nothing dirty) carrying the given misc record —
    /// the shape of a checkpoint over a fully quiescent interval.
    pub fn empty(misc: Misc) -> Self {
        Delta {
            cores: Vec::new(),
            parts: Vec::new(),
            misc,
        }
    }

    /// Approximate serialized size of this delta, in bytes.
    pub fn approx_bytes(&self) -> u64 {
        let cores: u64 = self.cores.iter().map(|(_, c)| c.approx_state_bytes()).sum();
        let parts: u64 = self.parts.iter().map(PartImage::approx_bytes).sum();
        let misc = (std::mem::size_of::<Misc>() + self.misc.progress.len() * 16) as u64;
        cores + parts + misc
    }

    /// Number of captured parts, cores included (cost accounting).
    pub fn parts(&self) -> u64 {
        (self.cores.len() + self.parts.len()) as u64
    }

    /// Folds this (just-evicted, oldest) delta into `base`, which then
    /// reflects the machine at this delta's capture time `taken_at`.
    /// `base_core_at[i]` records the capture time of each base core image
    /// (rollback catches cores up from there).
    pub fn fold_into(&self, base: &mut Snapshot, base_core_at: &mut [Cycle], taken_at: Cycle) {
        for (i, core) in &self.cores {
            base.cores[*i] = core.clone();
            base_core_at[*i] = taken_at;
        }
        for part in &self.parts {
            base.cluster.restore(part);
        }
        base.rng = self.misc.rng.clone();
        base.progress = self.misc.progress.clone();
        base.cluster
            .set_traffic_counters(self.misc.checker_bytes, self.misc.ber_bytes);
    }
}

/// What one entry of the recovery log holds.
#[derive(Clone)]
pub(crate) enum MachineCheckpoint {
    /// BER timing modelled, recovery off: nothing restorable.
    Unarmed,
    /// A deep clone of the whole machine.
    Whole(Box<Snapshot>),
    /// A log-based incremental checkpoint over a base snapshot.
    Delta(Box<Delta>),
}

impl MachineCheckpoint {
    /// Approximate serialized size, in bytes.
    pub fn approx_bytes(&self) -> u64 {
        match self {
            MachineCheckpoint::Unarmed => 0,
            MachineCheckpoint::Whole(snap) => snap.approx_bytes(),
            MachineCheckpoint::Delta(delta) => delta.approx_bytes(),
        }
    }

    /// Number of machine parts this checkpoint captured (cost accounting;
    /// a whole snapshot captures every part).
    pub fn parts(&self) -> u64 {
        match self {
            MachineCheckpoint::Unarmed => 0,
            MachineCheckpoint::Whole(snap) => snap.parts(),
            MachineCheckpoint::Delta(delta) => delta.parts(),
        }
    }
}
