//! Set-associative cache arrays with real data and a modelled ECC.
//!
//! Every line stores its 64-byte block *and* a CRC-16 "ECC" that is updated
//! on legitimate writes only. Fault injection flips data bits without
//! touching the ECC; the next access or writeback detects the mismatch —
//! modelling the paper's requirement of ECC on all cache lines and memory
//! ("to ensure that the data block does not change unless it is written by
//! a store"; Cache Correctness, Definition 2).

use dvmc_types::{Block, BlockAddr};

/// MOSI stable states for L2 lines (Invalid lines are simply absent).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mosi {
    /// Modified: exclusive, dirty.
    M,
    /// Owned: shared, dirty, responsible for supplying data.
    O,
    /// Shared: read-only copy.
    S,
}

impl Mosi {
    /// Whether the state permits local stores.
    pub fn writable(self) -> bool {
        self == Mosi::M
    }

    /// Whether the node must write back / supply data (dirty states).
    pub fn dirty(self) -> bool {
        matches!(self, Mosi::M | Mosi::O)
    }
}

/// A cache line with state tag `S`.
#[derive(Clone, Debug)]
pub struct Line<S> {
    /// The cached block address.
    pub addr: BlockAddr,
    /// The block data.
    pub data: Block,
    /// Modelled ECC: CRC-16 of the data at the last legitimate write.
    pub ecc: u16,
    /// Protocol state.
    pub state: S,
    last_used: u64,
}

impl<S> Line<S> {
    /// Whether the stored data still matches its ECC.
    pub fn ecc_ok(&self) -> bool {
        self.data.hash() == self.ecc
    }
}

/// A set-associative, LRU-replacement cache array.
#[derive(Clone, Debug)]
pub struct CacheArray<S> {
    sets: usize,
    ways: usize,
    lines: Vec<Option<Line<S>>>,
    tick: u64,
}

impl<S> CacheArray<S> {
    /// Creates a cache with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if `sets` or `ways` is zero, or if `sets` is not a power of
    /// two.
    pub fn new(sets: usize, ways: usize) -> Self {
        assert!(sets > 0 && ways > 0, "cache geometry must be non-zero");
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        CacheArray {
            sets,
            ways,
            lines: (0..sets * ways).map(|_| None).collect(),
            tick: 0,
        }
    }

    /// Convenience constructor from a total size in bytes (64-byte lines).
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (see [`new`](Self::new)).
    pub fn with_bytes(total_bytes: usize, ways: usize) -> Self {
        let lines = (total_bytes / 64).max(ways);
        Self::new((lines / ways).next_power_of_two(), ways)
    }

    fn set_range(&self, addr: BlockAddr) -> std::ops::Range<usize> {
        let set = (addr.0 as usize) & (self.sets - 1);
        set * self.ways..(set + 1) * self.ways
    }

    /// Looks up `addr`, updating LRU on hit.
    #[allow(clippy::manual_inspect)]
    pub fn lookup_mut(&mut self, addr: BlockAddr) -> Option<&mut Line<S>> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        self.lines[range]
            .iter_mut()
            .flatten()
            .find(|l| l.addr == addr)
            .map(|l| {
                l.last_used = tick;
                l
            })
    }

    /// Looks up `addr` without touching LRU state.
    pub fn peek(&self, addr: BlockAddr) -> Option<&Line<S>> {
        let range = self.set_range(addr);
        self.lines[range].iter().flatten().find(|l| l.addr == addr)
    }

    /// Inserts a line, evicting the LRU way of the set if full. Returns the
    /// evicted line, if any.
    ///
    /// # Panics
    ///
    /// Panics if a line for `addr` is already present (protocol bug).
    pub fn insert(&mut self, addr: BlockAddr, data: Block, state: S) -> Option<Line<S>> {
        self.insert_pinned(addr, data, state, |_| false)
    }

    /// Like [`CacheArray::insert`], but victim selection skips lines for
    /// which `pinned` returns true. A line with an in-flight transaction
    /// (e.g. an upgrade whose request is already on the network) must not
    /// be victimized: the eviction's writeback races the transaction's
    /// grant and strands both state machines. Falls back to plain LRU if
    /// every occupied way in the set is pinned.
    ///
    /// # Panics
    ///
    /// Panics if a line for `addr` is already present (protocol bug).
    pub fn insert_pinned(
        &mut self,
        addr: BlockAddr,
        data: Block,
        state: S,
        pinned: impl Fn(BlockAddr) -> bool,
    ) -> Option<Line<S>> {
        assert!(
            self.peek(addr).is_none(),
            "insert of already-present line {addr}"
        );
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_range(addr);
        let new_line = Line {
            addr,
            ecc: data.hash(),
            data,
            state,
            last_used: tick,
        };
        // Prefer an empty way.
        if let Some(slot) = self.lines[range.clone()].iter_mut().find(|l| l.is_none()) {
            *slot = Some(new_line);
            return None;
        }
        // Evict the least recently used unpinned way.
        let victim_idx = range
            .clone()
            .filter(|&i| {
                self.lines[i]
                    .as_ref()
                    .is_some_and(|l| !pinned(l.addr))
            })
            .min_by_key(|&i| self.lines[i].as_ref().map_or(0, |l| l.last_used))
            .or_else(|| {
                range
                    .clone()
                    .min_by_key(|&i| self.lines[i].as_ref().map_or(0, |l| l.last_used))
            })
            .expect("non-empty set range");
        self.lines[victim_idx].replace(new_line)
    }

    /// Removes and returns the line for `addr`.
    pub fn remove(&mut self, addr: BlockAddr) -> Option<Line<S>> {
        let range = self.set_range(addr);
        for i in range {
            if self.lines[i].as_ref().is_some_and(|l| l.addr == addr) {
                return self.lines[i].take();
            }
        }
        None
    }

    /// Writes a word with ECC maintenance (a legitimate store).
    ///
    /// Returns `false` if the line is absent.
    pub fn write_word(&mut self, addr: BlockAddr, offset: usize, value: u64) -> bool {
        match self.lookup_mut(addr) {
            Some(line) => {
                line.data.set_word(offset, value);
                line.ecc = line.data.hash();
                true
            }
            None => false,
        }
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.lines.iter().flatten().count()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total line capacity.
    pub fn capacity(&self) -> usize {
        self.sets * self.ways
    }

    /// Heap bytes one copy of this array occupies (checkpoint
    /// accounting): every preallocated slot, resident or not, because a
    /// clone copies them all.
    pub fn approx_bytes(&self) -> u64 {
        (self.capacity() * std::mem::size_of::<Option<Line<S>>>()) as u64
    }

    /// Number of sets (conflict classes). Blocks whose addresses map to
    /// the same set index compete for the same ways; the analyzer's
    /// symmetry reduction uses this to decide whether the blocks in play
    /// are conflict-interchangeable.
    pub fn sets(&self) -> usize {
        self.sets
    }

    /// Iterates over resident lines.
    pub fn iter(&self) -> impl Iterator<Item = &Line<S>> {
        self.lines.iter().flatten()
    }

    /// Flips one data bit of the `idx`-th resident line (modulo residency)
    /// *without* updating the ECC — the fault-injection entry point.
    /// Returns the affected block address, or `None` if the cache is empty.
    pub fn corrupt_resident_line(&mut self, idx: usize, bit: usize) -> Option<BlockAddr> {
        let n = self.len();
        if n == 0 {
            return None;
        }
        let target = idx % n;
        let line = self.lines.iter_mut().flatten().nth(target)?;
        line.data.flip_bit(bit % 512);
        Some(line.addr)
    }

    /// Flips one data bit of the most-recently-used resident line without
    /// updating the ECC. Hot lines manifest corruption quickly, matching
    /// the §6.1 methodology where every injected error is soon observed.
    pub fn corrupt_mru_line(&mut self, bit: usize) -> Option<BlockAddr> {
        let line = self
            .lines
            .iter_mut()
            .flatten()
            .max_by_key(|l| l.last_used)?;
        line.data.flip_bit(bit % 512);
        Some(line.addr)
    }

    /// Resident block addresses ordered most-recently-used first.
    pub fn addrs_by_recency(&self) -> Vec<BlockAddr> {
        let mut v: Vec<(u64, BlockAddr)> = self
            .lines
            .iter()
            .flatten()
            .map(|l| (l.last_used, l.addr))
            .collect();
        v.sort_unstable_by_key(|&(t, _)| std::cmp::Reverse(t));
        v.into_iter().map(|(_, a)| a).collect()
    }

    /// Flips one data bit of the line for `addr` without updating ECC.
    pub fn corrupt_addr(&mut self, addr: BlockAddr, bit: usize) -> bool {
        match self.lookup_mut(addr) {
            Some(l) => {
                l.data.flip_bit(bit % 512);
                true
            }
            None => false,
        }
    }

    /// Flips one data bit of the most-recently-used line matching `pred`
    /// (fault targeting by protocol state); falls back to the overall MRU
    /// line.
    pub fn corrupt_mru_line_where(
        &mut self,
        bit: usize,
        pred: impl Fn(&S) -> bool,
    ) -> Option<BlockAddr> {
        let line = self
            .lines
            .iter_mut()
            .flatten()
            .filter(|l| pred(&l.state))
            .max_by_key(|l| l.last_used);
        match line {
            Some(l) => {
                l.data.flip_bit(bit % 512);
                Some(l.addr)
            }
            None => self.corrupt_mru_line(bit),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn filled_block(seed: u64) -> Block {
        let mut b = Block::ZERO;
        for i in 0..8 {
            b.set_word(i, seed.wrapping_mul(i as u64 + 1));
        }
        b
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let mut c: CacheArray<Mosi> = CacheArray::new(4, 2);
        assert!(c.insert(BlockAddr(5), filled_block(1), Mosi::S).is_none());
        let line = c.lookup_mut(BlockAddr(5)).unwrap();
        assert_eq!(line.state, Mosi::S);
        assert!(line.ecc_ok());
        assert_eq!(c.len(), 1);
    }

    /// Checkpoint accounting counts what a clone copies: every slot, so
    /// filling the array does not change its footprint.
    #[test]
    fn approx_bytes_counts_every_preallocated_slot() {
        let mut c: CacheArray<Mosi> = CacheArray::new(4, 2);
        let empty = c.approx_bytes();
        assert_eq!(empty, 8 * std::mem::size_of::<Option<Line<Mosi>>>() as u64);
        for a in 0..8 {
            c.insert(BlockAddr(a), filled_block(a), Mosi::M);
        }
        assert_eq!(c.len(), 8);
        assert_eq!(c.approx_bytes(), empty);
    }

    #[test]
    fn lru_eviction_prefers_oldest() {
        let mut c: CacheArray<()> = CacheArray::new(1, 2);
        c.insert(BlockAddr(1), Block::ZERO, ());
        c.insert(BlockAddr(2), Block::ZERO, ());
        // Touch 1 so 2 becomes LRU.
        c.lookup_mut(BlockAddr(1));
        let evicted = c.insert(BlockAddr(3), Block::ZERO, ()).unwrap();
        assert_eq!(evicted.addr, BlockAddr(2));
        assert!(c.peek(BlockAddr(1)).is_some());
        assert!(c.peek(BlockAddr(3)).is_some());
    }

    #[test]
    fn empty_way_used_before_eviction() {
        let mut c: CacheArray<()> = CacheArray::new(1, 4);
        for i in 0..4 {
            assert!(c.insert(BlockAddr(i), Block::ZERO, ()).is_none());
        }
        assert!(c.insert(BlockAddr(10), Block::ZERO, ()).is_some());
    }

    #[test]
    #[should_panic(expected = "already-present")]
    fn double_insert_panics() {
        let mut c: CacheArray<()> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), Block::ZERO, ());
        c.insert(BlockAddr(1), Block::ZERO, ());
    }

    #[test]
    fn write_word_maintains_ecc() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(3), Mosi::M);
        assert!(c.write_word(BlockAddr(1), 4, 0xFEED));
        let line = c.peek(BlockAddr(1)).unwrap();
        assert_eq!(line.data.word(4), 0xFEED);
        assert!(line.ecc_ok());
        assert!(!c.write_word(BlockAddr(99), 0, 1), "absent line");
    }

    #[test]
    fn corruption_breaks_ecc_until_rewritten() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(3), Mosi::M);
        let hit = c.corrupt_resident_line(0, 77).unwrap();
        assert_eq!(hit, BlockAddr(1));
        assert!(!c.peek(BlockAddr(1)).unwrap().ecc_ok());
        // A legitimate write recomputes the ECC over the (corrupt) data —
        // ECC only guarantees data didn't change *without* a store.
        c.write_word(BlockAddr(1), 0, 5);
        assert!(c.peek(BlockAddr(1)).unwrap().ecc_ok());
    }

    #[test]
    fn corrupt_empty_cache_is_none() {
        let mut c: CacheArray<()> = CacheArray::new(2, 2);
        assert_eq!(c.corrupt_resident_line(3, 9), None);
    }

    #[test]
    fn with_bytes_geometry() {
        let c: CacheArray<()> = CacheArray::with_bytes(64 * 1024, 4);
        assert_eq!(c.capacity(), 1024, "64 KB of 64-byte lines");
        let c2: CacheArray<()> = CacheArray::with_bytes(1024 * 1024, 4);
        assert_eq!(c2.capacity(), 16384, "1 MB of 64-byte lines");
    }

    #[test]
    fn remove_returns_line() {
        let mut c: CacheArray<Mosi> = CacheArray::new(2, 2);
        c.insert(BlockAddr(1), filled_block(1), Mosi::O);
        let line = c.remove(BlockAddr(1)).unwrap();
        assert_eq!(line.state, Mosi::O);
        assert!(c.remove(BlockAddr(1)).is_none());
        assert!(c.is_empty());
    }

    #[test]
    fn mosi_predicates() {
        assert!(Mosi::M.writable() && Mosi::M.dirty());
        assert!(!Mosi::O.writable() && Mosi::O.dirty());
        assert!(!Mosi::S.writable() && !Mosi::S.dirty());
    }
}
