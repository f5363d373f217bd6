//! A complete coherent memory system: N cache controllers, N home memory
//! controllers, and the interconnect — everything below the processor
//! cores. The simulator crate layers pipelines, checkers, and workloads on
//! top; the tests here exercise the protocols directly.

use crate::home::{HomeConfig, HomeCtrl, HomeMemImage, HomeStats};
use crate::msg::{AddrReq, Msg};
use crate::node::{CacheNode, NodeConfig, Protocol};
use crate::proc::{CacheStats, ProcReq, ProcResp};
use dvmc_core::violation::Violation;
use dvmc_interconnect::{BroadcastTree, Torus};
use dvmc_types::{BlockAddr, Cycle, NodeId, WordAddr};

/// Whether a message is consumed by the home controller (as opposed to the
/// cache controller) at its destination node.
fn home_bound(msg: &Msg) -> bool {
    matches!(
        msg,
        Msg::GetS { .. }
            | Msg::GetM { .. }
            | Msg::PutM { .. }
            | Msg::InvAck { .. }
            | Msg::RecallAck { .. }
            | Msg::Unblock { .. }
            | Msg::Epoch(_)
    )
}

/// Cluster-wide configuration.
#[derive(Clone, Copy, Debug)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Cache-controller configuration.
    pub node: NodeConfig,
    /// Home-controller configuration.
    pub home: HomeConfig,
    /// Torus link bandwidth in bytes/cycle (2.5 GB/s at 2 GHz ≈ 1.25 B/c;
    /// we default to 2 B/c ≈ 4 GB/s-class links scaled to sim cycles).
    pub link_bandwidth: u32,
    /// Torus per-hop latency in cycles.
    pub hop_latency: u32,
    /// Address-tree fan-out latency in cycles (snooping).
    pub tree_latency: u32,
}

impl ClusterConfig {
    /// The Table 6 baseline for `nodes` nodes.
    pub fn paper_default(nodes: usize, protocol: Protocol) -> Self {
        let node = NodeConfig {
            nodes,
            ..NodeConfig::default()
        };
        let home = HomeConfig {
            nodes,
            ..HomeConfig::default()
        };
        ClusterConfig {
            nodes,
            protocol,
            node,
            home,
            link_bandwidth: 2,
            hop_latency: 8,
            tree_latency: 12,
        }
    }

    /// Disables the coherence checker (unprotected baseline).
    pub fn without_verification(mut self) -> Self {
        self.node.verify = false;
        self.home.verify = false;
        self
    }
}

/// The coherent memory system below the processors.
///
/// `Clone` deep-copies every controller, both networks (in-flight traffic
/// included), and the pending violation list — the memory-system half of a
/// BER checkpoint snapshot.
#[derive(Clone)]
pub struct Cluster {
    cfg: ClusterConfig,
    nodes: Vec<CacheNode>,
    homes: Vec<HomeCtrl>,
    data_net: Torus<Msg>,
    addr_net: Option<BroadcastTree<AddrReq>>,
    violations: Vec<Violation>,
    now: Cycle,
    scrub_period: u64,
    checker_bytes: u64,
    ber_bytes: u64,
    dirty: DirtySet,
}

/// One independently checkpointable part of the memory system
/// (log-based incremental checkpointing). The node index is the part's
/// owning node.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum PartId {
    /// A cache controller.
    Node(usize),
    /// A home controller, memory array excluded.
    HomeCtrl(usize),
    /// A home's memory array.
    HomeMem(usize),
    /// The data network, in-flight traffic included.
    DataNet,
    /// The address network (snooping only).
    AddrNet,
}

/// A captured copy of one memory-system part.
#[derive(Clone)]
pub enum PartImage {
    /// See [`PartId::Node`].
    Node(usize, CacheNode),
    /// See [`PartId::HomeCtrl`]; a memory-stripped controller.
    HomeCtrl(usize, HomeCtrl),
    /// See [`PartId::HomeMem`].
    HomeMem(usize, HomeMemImage),
    /// See [`PartId::DataNet`].
    DataNet(Torus<Msg>),
    /// See [`PartId::AddrNet`].
    AddrNet(BroadcastTree<AddrReq>),
}

impl PartImage {
    /// The part this image captures.
    pub fn id(&self) -> PartId {
        match self {
            PartImage::Node(i, _) => PartId::Node(*i),
            PartImage::HomeCtrl(i, _) => PartId::HomeCtrl(*i),
            PartImage::HomeMem(i, _) => PartId::HomeMem(*i),
            PartImage::DataNet(_) => PartId::DataNet,
            PartImage::AddrNet(_) => PartId::AddrNet,
        }
    }

    /// Approximate serialized size, in bytes (checkpoint accounting).
    pub fn approx_bytes(&self) -> u64 {
        match self {
            PartImage::Node(_, node) => node.approx_state_bytes(),
            PartImage::HomeCtrl(_, home) => home.approx_ctrl_bytes(),
            PartImage::HomeMem(_, mem) => mem.approx_bytes(),
            PartImage::DataNet(net) => net.approx_state_bytes(),
            PartImage::AddrNet(tree) => tree.approx_state_bytes(),
        }
    }
}

/// Which parts may have mutated since the set was last cleared, one flag
/// per [`PartId`]. Conservative: a spurious flag only costs log bytes,
/// never correctness.
#[derive(Clone)]
struct DirtySet {
    nodes: usize,
    flags: Vec<bool>,
}

impl DirtySet {
    /// Every part of an `nodes`-node cluster, flagged dirty. (The
    /// address-network flag exists under either protocol; only
    /// [`Cluster::parts`] decides which parts are real.)
    fn new(nodes: usize) -> Self {
        let mut set = DirtySet {
            nodes,
            flags: Vec::new(),
        };
        set.flags = vec![true; set.slot(PartId::AddrNet) + 1];
        set
    }

    /// The flag index of `id`: every kind's parts are contiguous, in
    /// [`PartId`] declaration order.
    fn slot(&self, id: PartId) -> usize {
        let n = self.nodes;
        match id {
            PartId::Node(i) => i,
            PartId::HomeCtrl(i) => n + i,
            PartId::HomeMem(i) => 2 * n + i,
            PartId::DataNet => 3 * n,
            PartId::AddrNet => 3 * n + 1,
        }
    }

    fn get(&self, id: PartId) -> bool {
        self.flags[self.slot(id)]
    }

    fn mark_if(&mut self, id: PartId, mutated: bool) {
        let slot = self.slot(id);
        self.flags[slot] |= mutated;
    }

    fn mark(&mut self, id: PartId) {
        self.mark_if(id, true);
    }
}

impl Cluster {
    /// Builds a cluster from its configuration.
    pub fn new(cfg: ClusterConfig) -> Self {
        let nodes = (0..cfg.nodes)
            .map(|i| CacheNode::new(NodeId(i as u8), cfg.protocol, cfg.node))
            .collect();
        let homes = (0..cfg.nodes)
            .map(|i| HomeCtrl::new(NodeId(i as u8), cfg.protocol, cfg.home))
            .collect();
        Cluster {
            nodes,
            homes,
            data_net: Torus::new(cfg.nodes, cfg.link_bandwidth, cfg.hop_latency),
            addr_net: (cfg.protocol == Protocol::Snooping)
                .then(|| BroadcastTree::new(cfg.nodes, 8, cfg.tree_latency)),
            violations: Vec::new(),
            now: 0,
            scrub_period: 1024,
            checker_bytes: 0,
            ber_bytes: 0,
            dirty: DirtySet::new(cfg.nodes),
            cfg,
        }
    }

    /// Sends BER coordination traffic between two nodes (bandwidth
    /// accounting only; the payload is ignored at the destination).
    pub fn send_ber(&mut self, src: NodeId, dst: NodeId, bytes: u32) {
        self.ber_bytes += bytes as u64;
        self.dirty.mark(PartId::DataNet);
        let now = self.now;
        self.data_net.send(src, dst, Msg::Ber { bytes }, bytes, now);
    }

    /// Total coherence-checker (Inform-Epoch family) bytes injected.
    pub fn checker_bytes(&self) -> u64 {
        self.checker_bytes
    }

    /// Total BER coordination bytes injected.
    pub fn ber_bytes(&self) -> u64 {
        self.ber_bytes
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Initializes a memory word at its home node (workload setup).
    pub fn poke_word(&mut self, addr: WordAddr, value: u64) {
        let home = addr.block().home(self.cfg.nodes);
        self.dirty.mark(PartId::HomeMem(home.index()));
        self.homes[home.index()].poke_word(addr, value);
    }

    /// Reads a memory word from its home (ignores cached dirty copies; use
    /// only after quiescence for end-state checks).
    pub fn peek_memory_word(&self, addr: WordAddr) -> u64 {
        let home = addr.block().home(self.cfg.nodes);
        self.homes[home.index()].peek_word(addr)
    }

    /// An order-independent digest of every home's memory image (blocks
    /// visited in address order, homes in node order). Two runs that left
    /// byte-identical memory behind produce the same digest; `exp_recovery`
    /// compares recovered runs against a fault-free golden run with it.
    /// Meaningful after quiescence (dirty cached lines are not flushed).
    pub fn memory_digest(&self) -> u64 {
        // FNV-1a over (home, block address, words); HashMap iteration
        // order never leaks because each home digests in sorted order.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut mix = |x: u64| {
            for byte in x.to_le_bytes() {
                h ^= u64::from(byte);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        for (i, home) in self.homes.iter().enumerate() {
            mix(i as u64);
            home.digest_memory(&mut mix);
        }
        h
    }

    /// Submits a processor request at `node`.
    pub fn submit(&mut self, node: NodeId, req: ProcReq) {
        self.dirty.mark(PartId::Node(node.index()));
        self.nodes[node.index()].submit(req);
    }

    /// Pops a completed response at `node`.
    pub fn pop_resp(&mut self, node: NodeId) -> Option<ProcResp> {
        let resp = self.nodes[node.index()].pop_resp();
        self.dirty.mark_if(PartId::Node(node.index()), resp.is_some());
        resp
    }

    /// Drains the blocks invalidated at `node` since the last call.
    pub fn drain_invalidated(&mut self, node: NodeId) -> Vec<BlockAddr> {
        let blocks = self.nodes[node.index()].drain_invalidated();
        self.dirty.mark_if(PartId::Node(node.index()), !blocks.is_empty());
        blocks
    }

    /// Advances the whole memory system one cycle.
    pub fn tick(&mut self) {
        let now = self.now;
        // 1. Networks move. A network with traffic in flight mutates; an
        // idle one is a pure no-op (dirty flags feed the incremental
        // checkpoint log).
        self.dirty.mark_if(PartId::DataNet, !self.data_net.is_quiescent());
        self.data_net.tick(now);
        if let Some(tree) = self.addr_net.as_mut() {
            self.dirty.mark_if(PartId::AddrNet, !tree.is_quiescent());
            tree.tick(now);
        }
        // 2. Deliveries. A delivered message can be fully consumed within
        // this same tick (leaving the controller quiescent at both ends),
        // so delivery itself marks the controller dirty.
        for i in 0..self.cfg.nodes {
            let node_id = NodeId(i as u8);
            while let Some(msg) = self.data_net.recv(node_id) {
                self.dirty.mark(PartId::DataNet);
                if home_bound(&msg) {
                    self.dirty.mark(PartId::HomeCtrl(i));
                    self.homes[i].deliver(msg);
                } else {
                    self.dirty.mark(PartId::Node(i));
                    self.nodes[i].deliver(msg);
                }
            }
            if let Some(tree) = self.addr_net.as_mut() {
                while let Some((order, req)) = tree.recv(node_id) {
                    self.dirty.mark(PartId::AddrNet);
                    self.dirty.mark(PartId::Node(i));
                    self.dirty.mark(PartId::HomeCtrl(i));
                    self.nodes[i].deliver_snoop(order, req);
                    self.homes[i].deliver_snoop(order, req);
                }
            }
        }
        // 3. Controllers run. A non-quiescent controller mutates; so does
        // a quiescent home with informs queued in its epoch sorter (the
        // watermark drain), a home whose periodic MET scrub fired, and a
        // node whose CET scrub fired.
        for (i, home) in self.homes.iter_mut().enumerate() {
            self.dirty.mark_if(PartId::HomeCtrl(i), !home.is_quiescent() || home.queued() > 0);
            let scrubbed = home.tick(now);
            self.dirty.mark_if(PartId::HomeCtrl(i), scrubbed || !home.is_quiescent());
            self.dirty.mark_if(PartId::HomeMem(i), home.take_mem_dirty());
        }
        for (i, node) in self.nodes.iter_mut().enumerate() {
            self.dirty.mark_if(PartId::Node(i), !node.is_quiescent());
            node.tick(now);
            self.dirty.mark_if(PartId::Node(i), !node.is_quiescent());
            if now.is_multiple_of(self.scrub_period) {
                self.dirty.mark_if(PartId::Node(i), node.scrub());
            }
        }
        // 4. Outbound messages enter the networks.
        for i in 0..self.cfg.nodes {
            let src = NodeId(i as u8);
            while let Some(out) = self.nodes[i].pop_msg() {
                let bytes = out.msg.bytes();
                if out.msg.is_checker() {
                    self.checker_bytes += bytes as u64;
                }
                self.dirty.mark(PartId::DataNet);
                self.dirty.mark(PartId::Node(i));
                self.data_net.send(src, out.dst, out.msg, bytes, now);
            }
            while let Some(out) = self.homes[i].pop_msg() {
                let bytes = out.msg.bytes();
                self.dirty.mark(PartId::DataNet);
                self.dirty.mark(PartId::HomeCtrl(i));
                self.data_net.send(src, out.dst, out.msg, bytes, now);
            }
            if let Some(tree) = self.addr_net.as_mut() {
                while let Some(req) = self.nodes[i].pop_addr_req() {
                    let bytes = req.bytes();
                    self.dirty.mark(PartId::AddrNet);
                    self.dirty.mark(PartId::Node(i));
                    tree.send(src, req, bytes, now);
                }
            }
        }
        // 5. Collect violations.
        for node in &mut self.nodes {
            self.violations.extend(node.drain_violations());
        }
        for home in &mut self.homes {
            self.violations.extend(home.drain_violations());
        }
        self.now += 1;
    }

    /// The current cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Sets the cluster clock without touching any controller (checkpoint
    /// restore).
    pub fn set_now(&mut self, now: Cycle) {
        self.now = now;
    }

    /// Jumps the whole memory system from its current cycle to `target`
    /// without simulating the span — every controller gets the exact state
    /// change a sequence of quiescent ticks would have applied (a clock
    /// stamp of the last skipped cycle, `target - 1`). Only legal when
    /// [`is_quiescent`](Self::is_quiescent) holds and no sorter drain,
    /// scrub boundary, or delivery falls inside the span; the
    /// event-scheduled kernel guarantees that by construction.
    pub fn advance_to(&mut self, target: Cycle) {
        debug_assert!(target >= self.now);
        let last_skipped = target.saturating_sub(1);
        for node in &mut self.nodes {
            node.idle_stamp(last_skipped);
        }
        for home in &mut self.homes {
            home.idle_stamp(last_skipped);
        }
        self.now = target;
    }

    /// Whether any home's epoch sorter holds queued informs (the periodic
    /// watermark drain makes such a home an every-cycle event source under
    /// the directory protocol).
    pub fn any_sorter_queued(&self) -> bool {
        self.homes.iter().any(|h| h.queued() > 0)
    }

    /// The earliest cycle at which any home's periodic watermark drain
    /// could release a queued inform (see
    /// [`HomeCtrl::next_sorter_drain_at`](crate::home::HomeCtrl::next_sorter_drain_at)).
    pub fn next_sorter_drain_at(&self, now: Cycle) -> Option<Cycle> {
        self.homes
            .iter()
            .filter_map(|h| h.next_sorter_drain_at(now))
            .min()
    }

    /// The periodic CET-scrub cadence, in cycles.
    pub fn scrub_period(&self) -> u64 {
        self.scrub_period
    }

    /// Every checkpointable part of this cluster, in a fixed order.
    pub fn parts(&self) -> impl Iterator<Item = PartId> {
        let n = self.cfg.nodes;
        (0..n)
            .map(PartId::Node)
            .chain((0..n).map(PartId::HomeCtrl))
            .chain((0..n).map(PartId::HomeMem))
            .chain([PartId::DataNet])
            .chain(self.addr_net.is_some().then_some(PartId::AddrNet))
    }

    /// The parts that may have mutated since the last
    /// [`clear_dirty`](Self::clear_dirty), in [`parts`](Self::parts)
    /// order.
    pub fn dirty_parts(&self) -> impl Iterator<Item = PartId> + '_ {
        self.parts().filter(|&id| self.dirty.get(id))
    }

    /// Marks every part clean (after a checkpoint capture or a rollback
    /// restore).
    pub fn clear_dirty(&mut self) {
        self.dirty.flags.fill(false);
    }

    /// Captures one part.
    pub fn image(&self, id: PartId) -> PartImage {
        match id {
            PartId::Node(i) => PartImage::Node(i, self.nodes[i].clone()),
            PartId::HomeCtrl(i) => PartImage::HomeCtrl(i, self.homes[i].ctrl_image()),
            PartId::HomeMem(i) => PartImage::HomeMem(i, self.homes[i].mem_image()),
            PartId::DataNet => PartImage::DataNet(self.data_net.clone()),
            PartId::AddrNet => PartImage::AddrNet(
                self.addr_net.as_ref().expect("only snooping clusters have an address network").clone(),
            ),
        }
    }

    /// Restores one part from an image. A home-controller image keeps the
    /// resident memory array; a memory image keeps the controller.
    pub fn restore(&mut self, image: &PartImage) {
        match image {
            PartImage::Node(i, node) => self.nodes[*i] = node.clone(),
            PartImage::HomeCtrl(i, home) => self.homes[*i].restore_ctrl(home),
            PartImage::HomeMem(i, mem) => self.homes[*i].restore_mem(mem),
            PartImage::DataNet(net) => self.data_net = net.clone(),
            PartImage::AddrNet(tree) => self.addr_net = Some(tree.clone()),
        }
    }

    /// Approximate serialized size of the whole memory system, in bytes
    /// (whole-snapshot checkpoint accounting).
    pub fn approx_state_bytes(&self) -> u64 {
        self.nodes.iter().map(CacheNode::approx_state_bytes).sum::<u64>()
            + self
                .homes
                .iter()
                .map(|h| h.approx_ctrl_bytes() + h.approx_mem_bytes())
                .sum::<u64>()
            + self.data_net.approx_state_bytes()
            + self.addr_net.as_ref().map_or(0, BroadcastTree::approx_state_bytes)
    }

    /// Restores the bandwidth-accounting counters (checkpoint restore;
    /// they mutate every cycle traffic moves, so they ride in the
    /// always-captured miscellaneous part of each delta).
    pub fn set_traffic_counters(&mut self, checker_bytes: u64, ber_bytes: u64) {
        self.checker_bytes = checker_bytes;
        self.ber_bytes = ber_bytes;
    }

    /// Runs until every controller and network is idle (or `max_cycles`
    /// elapse). Returns whether quiescence was reached.
    pub fn run_to_quiescence(&mut self, max_cycles: u64) -> bool {
        for _ in 0..max_cycles {
            self.tick();
            if self.is_quiescent() {
                return true;
            }
        }
        false
    }

    /// Whether all controllers and networks are idle.
    pub fn is_quiescent(&self) -> bool {
        self.nodes.iter().all(CacheNode::is_quiescent)
            && self.homes.iter().all(HomeCtrl::is_quiescent)
            && self.data_net.is_quiescent()
            && self.addr_net.as_ref().is_none_or(BroadcastTree::is_quiescent)
    }

    /// End-of-run audit: ends every in-progress epoch, processes all
    /// queued checker state, and drains violations.
    pub fn finish(&mut self) -> Vec<Violation> {
        for i in 0..self.cfg.nodes {
            for msg in self.nodes[i].flush_epochs() {
                let home = msg.addr().home(self.cfg.nodes);
                self.homes[home.index()].ingest_epoch(msg);
            }
        }
        for home in &mut self.homes {
            home.flush_checker();
            self.violations.extend(home.drain_violations());
        }
        for node in &mut self.nodes {
            self.violations.extend(node.drain_violations());
        }
        std::mem::take(&mut self.violations)
    }

    /// Violations detected so far (without flushing).
    pub fn drain_violations(&mut self) -> Vec<Violation> {
        std::mem::take(&mut self.violations)
    }

    /// Per-node cache statistics.
    pub fn cache_stats(&self, node: NodeId) -> CacheStats {
        self.nodes[node.index()].stats()
    }

    /// Per-home statistics.
    pub fn home_stats(&self, node: NodeId) -> HomeStats {
        self.homes[node.index()].stats()
    }

    /// The data network (bandwidth accounting for Figures 7–8).
    pub fn data_net(&self) -> &Torus<Msg> {
        &self.data_net
    }

    /// Mutable access to the data network (fault arming). Conservatively
    /// marks the network dirty for incremental checkpointing.
    pub fn data_net_mut(&mut self) -> &mut Torus<Msg> {
        self.dirty.mark(PartId::DataNet);
        &mut self.data_net
    }

    /// Mutable access to a cache controller (fault injection).
    /// Conservatively marks the node dirty for incremental checkpointing.
    pub fn node_mut(&mut self, node: NodeId) -> &mut CacheNode {
        self.dirty.mark(PartId::Node(node.index()));
        &mut self.nodes[node.index()]
    }

    /// Mutable access to a home controller (fault injection).
    /// Conservatively marks both home parts dirty for incremental
    /// checkpointing.
    pub fn home_mut(&mut self, node: NodeId) -> &mut HomeCtrl {
        self.dirty.mark(PartId::HomeCtrl(node.index()));
        self.dirty.mark(PartId::HomeMem(node.index()));
        &mut self.homes[node.index()]
    }

    /// Attaches bounded event rings to every CET and home checker
    /// (observability; disabled by default).
    pub fn enable_obs(&mut self, capacity: usize) {
        for (i, node) in self.nodes.iter_mut().enumerate() {
            self.dirty.mark(PartId::Node(i));
            node.enable_obs(capacity);
        }
        for (i, home) in self.homes.iter_mut().enumerate() {
            self.dirty.mark(PartId::HomeCtrl(i));
            home.enable_obs(capacity);
        }
    }

    /// The enabled event rings of one node's coherence checkers (CET
    /// first, then the home's MET side).
    pub fn obs_rings(&self, node: NodeId) -> Vec<&dvmc_core::ObsRing> {
        self.nodes[node.index()]
            .obs()
            .into_iter()
            .chain(self.homes[node.index()].obs())
            .collect()
    }
}

impl std::fmt::Debug for Cluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cluster")
            .field("nodes", &self.cfg.nodes)
            .field("protocol", &self.cfg.protocol)
            .field("cycle", &self.now)
            .finish_non_exhaustive()
    }
}
