//! The call tracer: runs a closed-loop, fault-free, recovery-unarmed
//! configuration by making the same public calls `System::tick` and
//! `System::report` make, with a host timestamp at every hand-over
//! between layers. That splits host time between the pipeline (`Core`),
//! the coherent memory system (`Cluster`) and BER (`SafetyNet`) without
//! any tracing inside the program.
//!
//! Two reorderings keep the timestamps few, and neither changes
//! behaviour: a core's responses are popped from the cluster before they
//! are delivered (delivery does not touch the cluster), and a core's
//! requests are submitted after its violations are drained (draining does
//! not touch the cluster). The benchmark checks the tracer against
//! `System` on every traced run: cycles, retired ops and memory digest
//! must match exactly.

use dvmc_ber::SafetyNet;
use dvmc_coherence::{Cluster, ProcResp};
use dvmc_pipeline::Core;
use dvmc_sim::SystemConfig;
use dvmc_types::{BlockAddr, Cycle, NodeId};
use dvmc_workloads::spec::build_streams;
use std::time::{Duration, Instant};

/// Host time per layer, plus the simulated outcome to check.
#[derive(Debug, Default)]
pub struct TracedRun {
    pub pipeline: Duration,
    pub coherence: Duration,
    pub ber: Duration,
    /// Everything else: the loop, the hang watchdog, timestamps.
    pub other: Duration,
    pub cycles: Cycle,
    pub retired_ops: u64,
    pub memory_digest: u64,
    pub completed: bool,
    pub violations: usize,
}

impl TracedRun {
    pub fn total(&self) -> Duration {
        self.pipeline + self.coherence + self.ber + self.other
    }
}

#[derive(Clone, Copy)]
enum Layer {
    Pipeline,
    Coherence,
    Ber,
    Other,
}

/// Accumulates the span since the previous hand-over into its layer.
struct Clock {
    last: Instant,
    run: TracedRun,
}

impl Clock {
    fn hand_over(&mut self, from: Layer) {
        let now = Instant::now();
        let span = now - self.last;
        self.last = now;
        let slot = match from {
            Layer::Pipeline => &mut self.run.pipeline,
            Layer::Coherence => &mut self.run.coherence,
            Layer::Ber => &mut self.run.ber,
            Layer::Other => &mut self.run.other,
        };
        *slot += span;
    }
}

fn nid(i: usize) -> NodeId {
    NodeId(u8::try_from(i).expect("SystemConfig::validate caps nodes at 255"))
}

/// Runs `cfg` to completion (or its cycle limit, or a hang) through the
/// traced call sequence.
///
/// # Panics
///
/// Panics on configurations the tracer does not model: faults, storms or
/// armed recovery (their orchestration is private to `System`).
pub fn run(cfg: &SystemConfig) -> TracedRun {
    assert!(
        cfg.fault.is_none() && cfg.storm.is_empty() && cfg.recovery.is_none(),
        "the call tracer models fault-free, recovery-unarmed runs only"
    );
    cfg.validate().expect("valid configuration");
    let nodes = cfg.nodes;
    let mut cluster = Cluster::new(cfg.cluster_config());
    let core_cfg = cfg.core_config();
    let mut cores: Vec<Core> = build_streams(&cfg.workload)
        .into_iter()
        .map(|s| Core::new(core_cfg, s))
        .collect();
    if cfg.obs_capacity > 0 {
        for core in &mut cores {
            core.enable_obs(cfg.obs_capacity);
        }
        cluster.enable_obs(cfg.obs_capacity);
    }
    let mut ber = cfg.protection.ber.then(|| SafetyNet::new(cfg.ber));
    let mut progress: Vec<(u64, Cycle)> = vec![(0, 0); nodes];
    let mut hung = false;
    let mut violations = 0usize;
    let mut inv: Vec<BlockAddr>;
    let mut resps: Vec<ProcResp> = Vec::new();

    let mut clock = Clock {
        last: Instant::now(),
        run: TracedRun::default(),
    };
    let limit = cfg.max_cycles;
    while cluster.now() < limit {
        let now = cluster.now();
        clock.hand_over(Layer::Other);
        if let Some(ber) = ber.as_mut() {
            let bytes = ber.config().coordination_bytes;
            ber.tick_with(now, || {
                for i in 1..nodes {
                    cluster.send_ber(nid(i), NodeId(0), bytes);
                    cluster.send_ber(NodeId(0), nid(i), bytes);
                }
            });
            clock.hand_over(Layer::Ber);
        }
        for (i, core) in cores.iter_mut().enumerate() {
            let id = nid(i);
            inv = cluster.drain_invalidated(id);
            while let Some(resp) = cluster.pop_resp(id) {
                resps.push(resp);
            }
            clock.hand_over(Layer::Coherence);
            core.note_invalidations(&inv);
            for resp in resps.drain(..) {
                core.deliver(resp);
            }
            let reqs = core.tick(now);
            violations += core.drain_violations().len();
            clock.hand_over(Layer::Pipeline);
            for req in reqs {
                cluster.submit(id, req);
            }
        }
        cluster.tick();
        violations += cluster.drain_violations().len();
        clock.hand_over(Layer::Coherence);
        for (i, core) in cores.iter().enumerate() {
            let retired = core.retired_ops();
            if retired != progress[i].0 || core.is_done() {
                progress[i] = (retired, now);
            } else if now - progress[i].1 > cfg.watchdog_cycles {
                hung = true;
            }
        }
        if hung || cores.iter().all(Core::is_done) {
            break;
        }
    }
    let completed = cores.iter().all(Core::is_done);
    clock.hand_over(Layer::Other);
    // `System::report`: drain in-flight traffic, then the end-of-run audit.
    if !hung {
        for _ in 0..500_000u64 {
            for (i, core) in cores.iter_mut().enumerate() {
                let id = nid(i);
                inv = cluster.drain_invalidated(id);
                while let Some(resp) = cluster.pop_resp(id) {
                    resps.push(resp);
                }
                clock.hand_over(Layer::Coherence);
                core.note_invalidations(&inv);
                for resp in resps.drain(..) {
                    core.deliver(resp);
                }
                clock.hand_over(Layer::Pipeline);
            }
            if cluster.is_quiescent() {
                break;
            }
            cluster.tick();
            clock.hand_over(Layer::Coherence);
        }
        violations += cluster.drain_violations().len();
    }
    violations += cluster.finish().len();
    violations += cluster.drain_violations().len();
    clock.hand_over(Layer::Coherence);
    let mut run = clock.run;
    run.cycles = cluster.now();
    run.retired_ops = cores.iter().map(|c| c.stats().retired_ops).sum();
    run.memory_digest = cluster.memory_digest();
    run.completed = completed;
    run.violations = violations;
    run
}
