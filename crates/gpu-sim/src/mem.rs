//! Functional global memory and the analytic timing model of the memory
//! hierarchy (L1 per SM → shared L2 → multi-channel DRAM).
//!
//! Timing is *analytic*: an access immediately computes its completion cycle
//! from cache state, MSHR occupancy and channel busy-until times, updating
//! those structures along the way. This captures the three effects the paper
//! depends on — latency-bound pointer chasing, MSHR-limited memory-level
//! parallelism, and DRAM bandwidth saturation — without a full event queue.

use crate::config::MemConfig;
use crate::hash::U64Map;
use crate::snapshot::{BagError, StateBag};
use std::collections::BinaryHeap;
use trace::{TraceHandle, Track};

/// Byte-addressable functional memory with a bump allocator.
///
/// # Examples
///
/// ```
/// use tta_gpu_sim::GlobalMemory;
///
/// let mut mem = GlobalMemory::new(1 << 20);
/// let buf = mem.alloc(256, 64);
/// mem.write_u32(buf, 42);
/// assert_eq!(mem.read_u32(buf), 42);
/// ```
#[derive(Debug, Clone)]
pub struct GlobalMemory {
    bytes: Vec<u8>,
    next_free: usize,
}

impl GlobalMemory {
    /// Creates a memory of `capacity` bytes, zero-filled.
    pub fn new(capacity: usize) -> Self {
        GlobalMemory {
            bytes: vec![0; capacity],
            next_free: 64,
        }
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> usize {
        self.bytes.len()
    }

    /// Allocates `size` bytes aligned to `align`, returning the byte
    /// address. Allocation never frees (arena style — a simulation owns its
    /// memory image for its whole life).
    ///
    /// # Panics
    ///
    /// Panics when out of memory or `align` is not a power of two.
    pub fn alloc(&mut self, size: usize, align: usize) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        // Checked arithmetic: a huge `size` must report exhaustion, not
        // wrap around in release builds and hand out an aliased base.
        let end = self
            .next_free
            .checked_add(align - 1)
            .map(|v| v & !(align - 1))
            .and_then(|base| base.checked_add(size).map(|end| (base, end)));
        match end {
            Some((base, end)) if end <= self.bytes.len() => {
                self.next_free = end;
                base as u64
            }
            _ => panic!("simulated GPU memory exhausted"),
        }
    }

    /// Reports an out-of-bounds access with full context, so sanitizer
    /// and absint diagnoses are attributable to an address and size
    /// instead of a raw slice-index panic.
    #[cold]
    #[inline(never)]
    fn oob(&self, kind: &str, addr: u64, len: usize) -> ! {
        panic!(
            "simulated GPU OOB: {kind} {len} B at {addr:#x} beyond capacity {} B",
            self.bytes.len()
        );
    }

    /// Copies a byte slice into memory at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds writes.
    pub fn write_bytes(&mut self, addr: u64, data: &[u8]) {
        let a = addr as usize;
        match a
            .checked_add(data.len())
            .and_then(|e| self.bytes.get_mut(a..e))
        {
            Some(dst) => dst.copy_from_slice(data),
            None => self.oob("write", addr, data.len()),
        }
    }

    /// Reads `len` bytes at `addr`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds reads.
    pub fn read_bytes(&self, addr: u64, len: usize) -> &[u8] {
        let a = addr as usize;
        match a.checked_add(len).and_then(|e| self.bytes.get(a..e)) {
            Some(src) => src,
            None => self.oob("read", addr, len),
        }
    }

    /// Reads a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds reads.
    #[inline]
    pub fn read_u32(&self, addr: u64) -> u32 {
        let a = addr as usize;
        match a.checked_add(4).and_then(|e| self.bytes.get(a..e)) {
            Some(src) => u32::from_le_bytes(src.try_into().expect("4-byte slice")),
            None => self.oob("read", addr, 4),
        }
    }

    /// Writes a `u32`.
    ///
    /// # Panics
    ///
    /// Panics on out-of-bounds writes.
    #[inline]
    pub fn write_u32(&mut self, addr: u64, value: u32) {
        let a = addr as usize;
        match a.checked_add(4).and_then(|e| self.bytes.get_mut(a..e)) {
            Some(dst) => dst.copy_from_slice(&value.to_le_bytes()),
            None => self.oob("write", addr, 4),
        }
    }

    /// Reads an `f32`.
    #[inline]
    pub fn read_f32(&self, addr: u64) -> f32 {
        f32::from_bits(self.read_u32(addr))
    }

    /// Writes an `f32`.
    #[inline]
    pub fn write_f32(&mut self, addr: u64, value: f32) {
        self.write_u32(addr, value.to_bits());
    }

    /// Exports the memory image (snapshot support). The zero tail past the
    /// last nonzero byte is elided — fresh memory is zero-filled, so the
    /// prefix plus the capacity reproduces the image exactly.
    pub fn export_state(&self) -> StateBag {
        let used = self
            .bytes
            .iter()
            .rposition(|&b| b != 0)
            .map_or(0, |i| i + 1);
        let mut bag = StateBag::new();
        bag.put_u64("capacity", self.bytes.len() as u64);
        bag.put_u64("next_free", self.next_free as u64);
        bag.put_bytes("image", self.bytes[..used].to_vec());
        bag
    }

    /// Restores the image exported by [`GlobalMemory::export_state`],
    /// resizing to the snapshot's capacity.
    ///
    /// # Errors
    ///
    /// [`BagError`] on a malformed bag or an image longer than its
    /// declared capacity.
    pub fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let capacity = bag.u64("capacity")? as usize;
        let image = bag.bytes("image")?;
        if image.len() > capacity {
            return Err(BagError::Mismatch(format!(
                "memory image of {} B exceeds capacity {} B",
                image.len(),
                capacity
            )));
        }
        self.bytes = vec![0; capacity];
        self.bytes[..image.len()].copy_from_slice(image);
        self.next_free = bag.u64("next_free")? as usize;
        Ok(())
    }
}

trace::declare! {
    /// Aggregate statistics of one cache level.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Lookups that hit.
        pub hits: u64,
        /// Lookups that missed (including MSHR merges).
        pub misses: u64,
        /// Misses merged into an in-flight fill (no new lower-level traffic).
        pub mshr_merges: u64,
    }
}

impl CacheStats {
    /// Hit rate in [0, 1]; zero when no accesses happened.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

trace::declare! {
    /// DRAM activity statistics.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct DramStats {
        /// Bytes read from DRAM (line fills).
        pub bytes_read: u64,
        /// Bytes written to DRAM.
        pub bytes_written: u64,
        /// Bytes requested by read transactions (demand traffic, before caches).
        pub bytes_requested: u64,
        /// Busy time summed over channels, in channel-cycles.
        pub busy_channel_cycles: f64,
        /// Number of DRAM transactions.
        pub transactions: u64,
    }
}

impl DramStats {
    /// Bandwidth utilization in [0, 1] for a run of `cycles` compute cycles
    /// over `channels` channels.
    pub fn utilization(&self, cycles: u64, channels: usize) -> f64 {
        if cycles == 0 {
            return 0.0;
        }
        (self.busy_channel_cycles / (cycles as f64 * channels as f64)).min(1.0)
    }
}

/// End-of-list marker for [`LruNode`] links.
const NIL: u32 = u32::MAX;

/// One resident line of a [`FullyAssocCache`].
#[derive(Debug, Clone, Copy)]
struct LruNode {
    line: u64,
    /// Stamp of the last touch.
    stamp: u64,
    /// Neighbour slot towards LRU (`NIL` at the head).
    prev: u32,
    /// Neighbour slot towards MRU (`NIL` at the tail).
    next: u32,
}

/// Fully-associative LRU tag store (the paper's L1).
///
/// A slab of at most `capacity_lines` nodes on an intrusive doubly-linked
/// list ordered LRU (`head`) to MRU (`tail`), plus a line → slot index.
/// Every touch takes the next stamp and moves its node to the tail, so
/// list order is stamp order, and a hit, a fill and an eviction each cost
/// one index probe plus O(1) relinking.
#[derive(Debug)]
struct FullyAssocCache {
    capacity_lines: usize,
    nodes: Vec<LruNode>,
    index: U64Map<u32>,
    head: u32,
    tail: u32,
    stamp: u64,
}

impl FullyAssocCache {
    fn new(capacity_lines: usize) -> Self {
        assert!(
            capacity_lines < NIL as usize,
            "L1 of {capacity_lines} lines exceeds the u32 slot space"
        );
        FullyAssocCache {
            capacity_lines,
            nodes: Vec::new(),
            index: U64Map::default(),
            head: NIL,
            tail: NIL,
            stamp: 0,
        }
    }

    /// Returns `true` on hit; on miss inserts the line (allocate-on-miss),
    /// evicting LRU if needed.
    fn access(&mut self, line: u64) -> bool {
        self.stamp += 1;
        if let Some(&slot) = self.index.get(&line) {
            self.nodes[slot as usize].stamp = self.stamp;
            if slot != self.tail {
                self.unlink(slot);
                self.push_tail(slot);
            }
            return true;
        }
        if self.capacity_lines == 0 {
            return false;
        }
        let node = LruNode {
            line,
            stamp: self.stamp,
            prev: NIL,
            next: NIL,
        };
        let slot = if self.nodes.len() < self.capacity_lines {
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let victim = self.head;
            self.unlink(victim);
            self.index.remove(&self.nodes[victim as usize].line);
            self.nodes[victim as usize] = node;
            victim
        };
        self.push_tail(slot);
        self.index.insert(line, slot);
        false
    }

    /// Detaches `slot` from the list.
    fn unlink(&mut self, slot: u32) {
        let LruNode { prev, next, .. } = self.nodes[slot as usize];
        match prev {
            NIL => self.head = next,
            p => self.nodes[p as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            n => self.nodes[n as usize].prev = prev,
        }
    }

    /// Appends a detached `slot` at the MRU end.
    fn push_tail(&mut self, slot: u32) {
        let node = &mut self.nodes[slot as usize];
        node.prev = self.tail;
        node.next = NIL;
        match self.tail {
            NIL => self.head = slot,
            t => self.nodes[t as usize].next = slot,
        }
        self.tail = slot;
    }
}

/// Set-associative LRU tag store (the paper's 16-way L2).
#[derive(Debug)]
struct SetAssocCache {
    sets: Vec<Vec<(u64, u64)>>, // (line, lru stamp)
    ways: usize,
    stamp: u64,
}

impl SetAssocCache {
    fn new(capacity_bytes: usize, line_size: usize, ways: usize) -> Self {
        let num_sets = capacity_bytes / line_size / ways;
        assert!(num_sets > 0);
        SetAssocCache {
            sets: vec![Vec::with_capacity(ways); num_sets],
            ways,
            stamp: 0,
        }
    }

    fn access(&mut self, line: u64) -> bool {
        self.stamp += 1;
        let idx = (line as usize) % self.sets.len();
        let stamp = self.stamp;
        let set = &mut self.sets[idx];
        if let Some(entry) = set.iter_mut().find(|(l, _)| *l == line) {
            entry.1 = stamp;
            return true;
        }
        if set.len() == self.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, s))| *s)
                .map(|(i, _)| i)
                .expect("full set");
            set.swap_remove(lru);
        }
        set.push((line, stamp));
        false
    }
}

/// An MSHR file approximated as a bounded set of in-flight miss completion
/// times: when full, a new miss must wait for the earliest one to retire.
#[derive(Debug)]
struct MshrFile {
    capacity: usize,
    /// Min-heap (via Reverse) of completion cycles.
    inflight: BinaryHeap<std::cmp::Reverse<u64>>,
}

impl MshrFile {
    fn new(capacity: usize) -> Self {
        MshrFile {
            capacity,
            inflight: BinaryHeap::new(),
        }
    }

    /// Earliest cycle at which a new miss can allocate an entry, given it
    /// wants to start at `now`. Retires already-completed entries.
    fn allocate(&mut self, now: u64) -> u64 {
        while let Some(&std::cmp::Reverse(t)) = self.inflight.peek() {
            if t <= now {
                self.inflight.pop();
            } else {
                break;
            }
        }
        if self.inflight.len() < self.capacity {
            now
        } else {
            let std::cmp::Reverse(t) = self.inflight.pop().expect("full heap");
            t.max(now)
        }
    }

    fn record(&mut self, completion: u64) {
        self.inflight.push(std::cmp::Reverse(completion));
    }
}

/// The timing model: per-SM L1s, a shared L2, and channelled DRAM.
#[derive(Debug)]
pub struct MemorySystem {
    cfg: MemConfig,
    perfect: bool,
    l1: Vec<FullyAssocCache>,
    l1_mshr: Vec<MshrFile>,
    l1_port_busy: Vec<u64>,
    /// In-flight L1 fills per SM: line -> completion (for merge).
    l1_pending: Vec<U64Map<u64>>,
    l2: SetAssocCache,
    l2_mshr: MshrFile,
    l2_pending: U64Map<u64>,
    dram_channel_busy: Vec<f64>,
    trace: TraceHandle,
    /// Monotone id shared by memory and DRAM trace spans.
    next_req_id: u64,
    /// Statistics.
    pub l1_stats: CacheStats,
    /// L2 statistics.
    pub l2_stats: CacheStats,
    /// DRAM statistics.
    pub dram_stats: DramStats,
}

impl MemorySystem {
    /// Creates the hierarchy for `num_sms` SMs.
    pub fn new(cfg: &MemConfig, num_sms: usize, perfect: bool) -> Self {
        let l1_lines = cfg.l1_bytes / cfg.line_size;
        MemorySystem {
            cfg: cfg.clone(),
            perfect,
            l1: (0..num_sms)
                .map(|_| FullyAssocCache::new(l1_lines))
                .collect(),
            l1_mshr: (0..num_sms).map(|_| MshrFile::new(cfg.l1_mshrs)).collect(),
            l1_port_busy: vec![0; num_sms],
            l1_pending: (0..num_sms).map(|_| U64Map::default()).collect(),
            l2: SetAssocCache::new(cfg.l2_bytes, cfg.line_size, cfg.l2_ways),
            l2_mshr: MshrFile::new(cfg.l2_mshrs),
            l2_pending: U64Map::default(),
            dram_channel_busy: vec![0.0; cfg.dram_channels],
            trace: TraceHandle::default(),
            next_req_id: 0,
            l1_stats: CacheStats::default(),
            l2_stats: CacheStats::default(),
            dram_stats: DramStats::default(),
        }
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> usize {
        self.cfg.line_size
    }

    /// Installs a trace handle; request-lifecycle spans are emitted on
    /// [`Track::Mem`] (per requesting SM) and [`Track::Dram`] (per
    /// channel) from now on.
    pub fn set_trace(&mut self, trace: TraceHandle) {
        self.trace = trace;
    }

    /// Emits one async request span, allocating a fresh id.
    fn trace_req(&mut self, track: Track, name: &'static str, start: u64, end: u64, bytes: u32) {
        if self.trace.enabled() {
            let id = self.next_req_id;
            self.next_req_id += 1;
            self.trace
                .async_span(track, name, id, start, end, u64::from(bytes));
        }
    }

    /// Maps a byte address to its cache line index.
    #[inline]
    pub fn line_of(&self, addr: u64) -> u64 {
        addr / self.cfg.line_size as u64
    }

    /// Issues a read of `bytes` at `addr` from SM `sm` at cycle `now`;
    /// returns the completion cycle. One call = one coalesced transaction
    /// (the caller is responsible for coalescing lanes to line granularity).
    pub fn read(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) -> u64 {
        self.dram_stats.bytes_requested += bytes as u64;
        if self.perfect {
            return now + 1;
        }
        let line = self.line_of(addr);
        // L1 port: one transaction per cycle.
        let t0 = self.l1_port_busy[sm].max(now) + 1;
        self.l1_port_busy[sm] = t0;
        let hit = self.l1[sm].access(line);
        if hit {
            // A line still being filled counts as a miss-merge, not a hit.
            if let Some(&fill) = self.l1_pending[sm].get(&line) {
                if fill > t0 {
                    self.l1_stats.misses += 1;
                    self.l1_stats.mshr_merges += 1;
                    self.trace_req(Track::Mem(sm as u32), "read_merge", now, fill, bytes);
                    return fill;
                }
                self.l1_pending[sm].remove(&line);
            }
            self.l1_stats.hits += 1;
            let t = t0 + self.cfg.l1_latency;
            self.trace_req(Track::Mem(sm as u32), "read_hit", now, t, bytes);
            return t;
        }
        self.l1_stats.misses += 1;
        // Allocate an L1 MSHR (may push the start time back when full).
        let t1 = self.l1_mshr[sm].allocate(t0);
        let fill = self.l2_lookup(line, t1 + self.cfg.l1_latency);
        self.l1_mshr[sm].record(fill);
        self.l1_pending[sm].insert(line, fill);
        self.trace_req(Track::Mem(sm as u32), "read_miss", now, fill, bytes);
        fill
    }

    /// Issues a write of `bytes` at `addr` (write-through, no-allocate).
    /// Returns the completion cycle; callers typically do not wait on it.
    pub fn write(&mut self, sm: usize, addr: u64, bytes: u32, now: u64) -> u64 {
        if self.perfect {
            return now + 1;
        }
        let t0 = self.l1_port_busy[sm].max(now) + 1;
        self.l1_port_busy[sm] = t0;
        // Write-through: consume DRAM bandwidth for the written bytes.
        let t = self.dram_transfer(addr, bytes, t0 + self.cfg.l2_latency, false);
        self.dram_stats.bytes_written += bytes as u64;
        self.trace_req(Track::Mem(sm as u32), "write", now, t, bytes);
        t
    }

    fn dram_transfer(&mut self, addr: u64, bytes: u32, now: u64, is_fill: bool) -> u64 {
        let channel = (self.line_of(addr) as usize) % self.cfg.dram_channels;
        let service = bytes as f64 / self.cfg.dram_bytes_per_cycle_per_channel;
        let start = self.dram_channel_busy[channel].max(now as f64);
        let end = start + service;
        self.dram_channel_busy[channel] = end;
        self.dram_stats.busy_channel_cycles += service;
        self.dram_stats.transactions += 1;
        if is_fill {
            self.dram_stats.bytes_read += bytes as u64;
        }
        let done = end as u64 + if is_fill { self.cfg.dram_latency } else { 0 };
        let name = if is_fill { "dram_fill" } else { "dram_write" };
        self.trace_req(Track::Dram(channel as u32), name, now, done, bytes);
        done
    }

    /// Returns when the earliest pending DRAM channel frees (fast-forward
    /// aid); `None` when everything is idle relative to `now`.
    pub fn next_channel_free(&self, now: u64) -> Option<u64> {
        self.dram_channel_busy
            .iter()
            .filter(|&&b| b > now as f64)
            .map(|&b| b as u64 + 1)
            .min()
    }
}

// The real L2 path: separated so `read` stays readable.
impl MemorySystem {
    fn l2_lookup(&mut self, line: u64, now: u64) -> u64 {
        let hit = self.l2.access(line);
        if hit {
            if let Some(&fill) = self.l2_pending.get(&line) {
                if fill > now {
                    self.l2_stats.misses += 1;
                    self.l2_stats.mshr_merges += 1;
                    return fill;
                }
                self.l2_pending.remove(&line);
            }
            self.l2_stats.hits += 1;
            return now + self.cfg.l2_latency;
        }
        self.l2_stats.misses += 1;
        let t = self.l2_mshr.allocate(now);
        let addr = line * self.cfg.line_size as u64;
        let fill = self.dram_transfer(
            addr,
            self.cfg.line_size as u32,
            t + self.cfg.l2_latency,
            true,
        );
        self.l2_mshr.record(fill);
        self.l2_pending.insert(line, fill);
        fill
    }
}

// Snapshot support. Hash-keyed containers are exported in sorted order so
// equal states export equal bags; heaps are exported as sorted vectors
// (pop order is by value, so heap-internal layout is not state).
impl FullyAssocCache {
    /// Walks the list from LRU to MRU.
    fn iter_lru(&self) -> impl Iterator<Item = &LruNode> {
        std::iter::successors(
            (self.head != NIL).then(|| &self.nodes[self.head as usize]),
            |n| (n.next != NIL).then(|| &self.nodes[n.next as usize]),
        )
    }

    fn export_state(&self) -> StateBag {
        let mut bag = StateBag::new();
        bag.put_u64("stamp", self.stamp);
        // `(stamp, line)` pairs from LRU to MRU, i.e. by ascending stamp.
        bag.put_u64_list("order", self.iter_lru().flat_map(|n| [n.stamp, n.line]));
        bag
    }

    /// Rebuilds the list from exported `(stamp, line)` pairs. A bag that no
    /// export could have produced (odd length, more lines than fit, stamps
    /// not strictly ascending or past `stamp`, a repeated line) is rejected
    /// and leaves the cache untouched.
    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let flat = bag.u64_list("order")?;
        let stamp = bag.u64("stamp")?;
        if !flat.len().is_multiple_of(2) {
            return Err(BagError::Mismatch("odd lru-order pair list".into()));
        }
        if flat.len() / 2 > self.capacity_lines {
            return Err(BagError::Mismatch(format!(
                "lru order holds {} lines, L1 has {}",
                flat.len() / 2,
                self.capacity_lines
            )));
        }
        let mut rebuilt = FullyAssocCache::new(self.capacity_lines);
        let mut last = None;
        for pair in flat.chunks_exact(2) {
            let (s, line) = (pair[0], pair[1]);
            if last.is_some_and(|l| s <= l) || s > stamp {
                return Err(BagError::Mismatch(format!(
                    "lru stamp {s} out of order (after {last:?}, cache stamp {stamp})"
                )));
            }
            last = Some(s);
            let slot = rebuilt.nodes.len() as u32;
            if rebuilt.index.insert(line, slot).is_some() {
                return Err(BagError::Mismatch(format!("line {line} listed twice")));
            }
            rebuilt.nodes.push(LruNode {
                line,
                stamp: s,
                prev: NIL,
                next: NIL,
            });
            rebuilt.push_tail(slot);
        }
        rebuilt.stamp = stamp;
        *self = rebuilt;
        Ok(())
    }
}

impl SetAssocCache {
    fn export_state(&self) -> StateBag {
        let mut bag = StateBag::new();
        bag.put_u64("stamp", self.stamp);
        bag.put_list(
            "sets",
            self.sets
                .iter()
                .map(|set| {
                    crate::snapshot::SnapValue::List(
                        set.iter()
                            .flat_map(|&(l, s)| [l, s])
                            .map(crate::snapshot::SnapValue::U64)
                            .collect(),
                    )
                })
                .collect(),
        );
        bag
    }

    fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let sets = bag.list("sets")?;
        if sets.len() != self.sets.len() {
            return Err(BagError::Mismatch(format!(
                "snapshot has {} L2 sets, host has {}",
                sets.len(),
                self.sets.len()
            )));
        }
        self.stamp = bag.u64("stamp")?;
        for (host, snap) in self.sets.iter_mut().zip(sets) {
            let crate::snapshot::SnapValue::List(items) = snap else {
                return Err(BagError::WrongKind("sets".into()));
            };
            let flat: Vec<u64> = items
                .iter()
                .map(|v| match v {
                    crate::snapshot::SnapValue::U64(x) => Ok(*x),
                    _ => Err(BagError::WrongKind("sets".into())),
                })
                .collect::<Result<_, _>>()?;
            if !flat.len().is_multiple_of(2) || flat.len() / 2 > self.ways {
                return Err(BagError::Mismatch("bad L2 set contents".into()));
            }
            *host = flat.chunks(2).map(|p| (p[0], p[1])).collect();
        }
        Ok(())
    }
}

impl MshrFile {
    fn export_state(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.inflight.iter().map(|r| r.0).collect();
        v.sort_unstable();
        v
    }

    fn import_state(&mut self, v: Vec<u64>) {
        self.inflight = v.into_iter().map(std::cmp::Reverse).collect();
    }
}

fn sorted_pairs(map: &U64Map<u64>) -> Vec<u64> {
    let mut pairs: Vec<(u64, u64)> = map.iter().map(|(&k, &v)| (k, v)).collect();
    pairs.sort_unstable();
    pairs.into_iter().flat_map(|(k, v)| [k, v]).collect()
}

fn pairs_into_map(flat: Vec<u64>, name: &str) -> Result<U64Map<u64>, BagError> {
    if !flat.len().is_multiple_of(2) {
        return Err(BagError::Mismatch(format!("odd pair list `{name}`")));
    }
    Ok(flat.chunks(2).map(|p| (p[0], p[1])).collect())
}

impl MemorySystem {
    /// Exports the full timing state: cache tags and LRU stamps, MSHR
    /// occupancy, pending-fill merge tables, port and channel busy-until
    /// stamps, and the cumulative statistics.
    pub fn export_state(&self) -> StateBag {
        let mut bag = StateBag::new();
        bag.put_list(
            "l1",
            (0..self.l1.len())
                .map(|sm| {
                    let mut b = StateBag::new();
                    b.put_bag("cache", self.l1[sm].export_state());
                    b.put_u64_list("mshr", self.l1_mshr[sm].export_state());
                    b.put_u64("port_busy", self.l1_port_busy[sm]);
                    b.put_u64_list("pending", sorted_pairs(&self.l1_pending[sm]));
                    crate::snapshot::SnapValue::Bag(b)
                })
                .collect(),
        );
        bag.put_bag("l2", self.l2.export_state());
        bag.put_u64_list("l2_mshr", self.l2_mshr.export_state());
        bag.put_u64_list("l2_pending", sorted_pairs(&self.l2_pending));
        bag.put_u64_list(
            "dram_channel_busy",
            self.dram_channel_busy.iter().map(|b| b.to_bits()),
        );
        bag.put_u64("next_req_id", self.next_req_id);
        bag.put_fields("l1_stats", &self.l1_stats);
        bag.put_fields("l2_stats", &self.l2_stats);
        bag.put_fields("dram_stats", &self.dram_stats);
        bag
    }

    /// Restores state exported by [`MemorySystem::export_state`] onto a
    /// hierarchy built with the same configuration.
    ///
    /// # Errors
    ///
    /// [`BagError`] when the bag is malformed or was exported from a
    /// differently-shaped hierarchy (SM count, set count, channel count).
    pub fn import_state(&mut self, bag: &StateBag) -> Result<(), BagError> {
        let l1 = bag.list("l1")?;
        if l1.len() != self.l1.len() {
            return Err(BagError::Mismatch(format!(
                "snapshot has {} L1s, host has {}",
                l1.len(),
                self.l1.len()
            )));
        }
        for (sm, snap) in l1.iter().enumerate() {
            let crate::snapshot::SnapValue::Bag(b) = snap else {
                return Err(BagError::WrongKind("l1".into()));
            };
            self.l1[sm].import_state(b.bag("cache")?)?;
            self.l1_mshr[sm].import_state(b.u64_list("mshr")?);
            self.l1_port_busy[sm] = b.u64("port_busy")?;
            self.l1_pending[sm] = pairs_into_map(b.u64_list("pending")?, "pending")?;
        }
        self.l2.import_state(bag.bag("l2")?)?;
        self.l2_mshr.import_state(bag.u64_list("l2_mshr")?);
        self.l2_pending = pairs_into_map(bag.u64_list("l2_pending")?, "l2_pending")?;
        let chans = bag.u64_list("dram_channel_busy")?;
        if chans.len() != self.dram_channel_busy.len() {
            return Err(BagError::Mismatch(format!(
                "snapshot has {} DRAM channels, host has {}",
                chans.len(),
                self.dram_channel_busy.len()
            )));
        }
        self.dram_channel_busy = chans.into_iter().map(f64::from_bits).collect();
        self.next_req_id = bag.u64("next_req_id")?;
        self.l1_stats = bag.fields("l1_stats")?;
        self.l2_stats = bag.fields("l2_stats")?;
        self.dram_stats = bag.fields("dram_stats")?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GpuConfig;

    fn mem() -> MemorySystem {
        let cfg = GpuConfig::vulkan_sim_default();
        MemorySystem::new(&cfg.mem, 2, false)
    }

    #[test]
    fn global_memory_alloc_is_aligned_and_disjoint() {
        let mut m = GlobalMemory::new(1 << 16);
        let a = m.alloc(100, 64);
        let b = m.alloc(100, 64);
        assert_eq!(a % 64, 0);
        assert_eq!(b % 64, 0);
        assert!(b >= a + 100);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn global_memory_oom_panics() {
        let mut m = GlobalMemory::new(1024);
        let _ = m.alloc(4096, 64);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn global_memory_overflowing_size_reports_exhaustion() {
        // `base + size` would wrap; checked arithmetic must turn that into
        // the exhaustion panic, not an aliased allocation (release builds
        // would otherwise wrap silently).
        let mut m = GlobalMemory::new(1024);
        let _ = m.alloc(usize::MAX - 16, 64);
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: read 4 B")]
    fn global_memory_read_oob_reports_context() {
        let m = GlobalMemory::new(1024);
        let _ = m.read_u32(1022); // straddles the end
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: write 4 B")]
    fn global_memory_write_oob_reports_context() {
        let mut m = GlobalMemory::new(1024);
        m.write_u32(u64::MAX - 2, 7); // end-of-range would overflow usize
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: read 16 B")]
    fn global_memory_read_bytes_oob_reports_context() {
        let m = GlobalMemory::new(64);
        let _ = m.read_bytes(60, 16);
    }

    #[test]
    #[should_panic(expected = "simulated GPU OOB: write 8 B")]
    fn global_memory_write_bytes_oob_reports_context() {
        let mut m = GlobalMemory::new(64);
        m.write_bytes(60, &[0u8; 8]);
    }

    #[test]
    fn first_read_misses_second_hits() {
        let mut m = mem();
        let t1 = m.read(0, 0x1000, 32, 0);
        assert!(t1 > 200, "cold miss must reach DRAM (got {t1})");
        assert_eq!(m.l1_stats.misses, 1);
        // Read again after the fill completes: L1 hit.
        let t2 = m.read(0, 0x1000, 32, t1 + 1);
        assert_eq!(m.l1_stats.hits, 1);
        assert!(
            t2 - (t1 + 1) <= 1 + 20,
            "hit should take ~L1 latency (got {})",
            t2 - t1 - 1
        );
    }

    #[test]
    fn concurrent_same_line_merges() {
        let mut m = mem();
        let t1 = m.read(0, 0x2000, 32, 0);
        let t2 = m.read(0, 0x2010, 32, 0); // same 128B line, while in flight
        assert_eq!(t2, t1, "in-flight fill must merge");
        assert_eq!(m.l1_stats.mshr_merges, 1);
    }

    #[test]
    fn l2_shared_across_sms() {
        let mut m = mem();
        let t1 = m.read(0, 0x3000, 32, 0);
        // Different SM (cold L1) but after L2 was filled: much faster.
        let t2_start = t1 + 1;
        let t2 = m.read(1, 0x3000, 32, t2_start);
        assert!(m.l2_stats.hits >= 1);
        assert!(
            t2 - t2_start < t1,
            "L2 hit path ({}) should beat the DRAM path ({t1})",
            t2 - t2_start
        );
    }

    #[test]
    fn bandwidth_saturation_accumulates() {
        let mut m = mem();
        // Stream many distinct lines at the same cycle: channels saturate and
        // completion times stretch out.
        let mut last = 0;
        for i in 0..512u64 {
            last = last.max(m.read(0, i * 128 + (i % 2) * (1 << 20), 128, 0));
        }
        assert!(m.dram_stats.busy_channel_cycles > 0.0);
        let serial_min =
            512.0 * 128.0 / (m.cfg.dram_channels as f64 * m.cfg.dram_bytes_per_cycle_per_channel);
        assert!(
            (last as f64) > serial_min,
            "completion {last} must exceed pure-bandwidth bound {serial_min}"
        );
    }

    #[test]
    fn mshr_limit_delays_excess_misses() {
        let cfg = GpuConfig::vulkan_sim_default();
        let mut few = MemorySystem::new(
            &MemConfig {
                l1_mshrs: 2,
                ..cfg.mem.clone()
            },
            1,
            false,
        );
        let mut many = MemorySystem::new(
            &MemConfig {
                l1_mshrs: 64,
                ..cfg.mem.clone()
            },
            1,
            false,
        );
        let mut worst_few = 0;
        let mut worst_many = 0;
        for i in 0..16u64 {
            // Distinct lines far apart.
            worst_few = worst_few.max(few.read(0, i * 4096, 32, 0));
            worst_many = worst_many.max(many.read(0, i * 4096, 32, 0));
        }
        assert!(
            worst_few > worst_many,
            "2 MSHRs ({worst_few}) must serialise worse than 64 ({worst_many})"
        );
    }

    #[test]
    fn perfect_memory_is_one_cycle() {
        let cfg = GpuConfig::vulkan_sim_default();
        let mut m = MemorySystem::new(&cfg.mem, 1, true);
        assert_eq!(m.read(0, 0x1000, 32, 10), 11);
        assert_eq!(m.write(0, 0x1000, 32, 10), 11);
    }

    #[test]
    fn snapshot_roundtrip_preserves_timing_behavior() {
        // Drive two identical hierarchies to the same state; snapshot one,
        // restore onto a fresh hierarchy, and require identical completion
        // times for an identical access sequence afterwards.
        let drive = |m: &mut MemorySystem| {
            for i in 0..64u64 {
                m.read(0, i * 96, 32, i);
                m.read(1, i * 160 + (1 << 18), 32, i + 3);
            }
            m.write(0, 0x8000, 64, 70);
        };
        let mut a = mem();
        drive(&mut a);
        let mut b = mem();
        b.import_state(&a.export_state()).unwrap();
        assert_eq!(a.export_state(), b.export_state(), "exact state copy");
        let tail: Vec<u64> = (0..32u64)
            .map(|i| a.read(0, i * 96, 32, 10_000 + i))
            .collect();
        let tail_b: Vec<u64> = (0..32u64)
            .map(|i| b.read(0, i * 96, 32, 10_000 + i))
            .collect();
        assert_eq!(
            tail, tail_b,
            "restored hierarchy times accesses identically"
        );
        assert_eq!(a.l1_stats, b.l1_stats);
        assert_eq!(a.dram_stats, b.dram_stats);
    }

    #[test]
    fn snapshot_rejects_wrong_shape() {
        let a = mem();
        let cfg = GpuConfig::vulkan_sim_default();
        let mut other = MemorySystem::new(&cfg.mem, 4, false); // 4 SMs, not 2
        assert!(matches!(
            other.import_state(&a.export_state()),
            Err(BagError::Mismatch(_))
        ));
    }

    #[test]
    fn global_memory_snapshot_elides_zero_tail() {
        let mut m = GlobalMemory::new(1 << 16);
        let buf = m.alloc(128, 64);
        m.write_u32(buf, 0xdead_beef);
        let bag = m.export_state();
        assert!(bag.bytes("image").unwrap().len() < 1 << 12, "tail elided");
        let mut back = GlobalMemory::new(16); // wrong size: import resizes
        back.import_state(&bag).unwrap();
        assert_eq!(back.capacity(), 1 << 16);
        assert_eq!(back.read_u32(buf), 0xdead_beef);
        let next = back.alloc(16, 16);
        assert_eq!(next, m.alloc(16, 16), "bump allocator position restored");
    }

    /// The L1 as first written: a line → stamp map plus a stamp → line
    /// B-tree. The reference the slab-and-list [`FullyAssocCache`] must
    /// match access for access and bag for bag.
    struct RefLru {
        capacity_lines: usize,
        lines: std::collections::HashMap<u64, u64>,
        order: std::collections::BTreeMap<u64, u64>,
        stamp: u64,
    }

    impl RefLru {
        fn new(capacity_lines: usize) -> Self {
            RefLru {
                capacity_lines,
                lines: Default::default(),
                order: Default::default(),
                stamp: 0,
            }
        }

        fn access(&mut self, line: u64) -> bool {
            self.stamp += 1;
            if let Some(old) = self.lines.insert(line, self.stamp) {
                self.order.remove(&old);
                self.order.insert(self.stamp, line);
                return true;
            }
            self.order.insert(self.stamp, line);
            if self.lines.len() > self.capacity_lines {
                let (&oldest, &victim) = self.order.iter().next().expect("non-empty");
                self.order.remove(&oldest);
                self.lines.remove(&victim);
            }
            false
        }

        fn export_state(&self) -> StateBag {
            let mut bag = StateBag::new();
            bag.put_u64("stamp", self.stamp);
            bag.put_u64_list("order", self.order.iter().flat_map(|(&s, &l)| [s, l]));
            bag
        }
    }

    #[test]
    fn slab_lru_matches_reference_model() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        for capacity in [0usize, 1, 2, 7, 64] {
            // Footprints below, at and above capacity.
            for footprint in [capacity / 2 + 1, capacity.max(1), 2 * capacity + 3] {
                for seed in 0..4u64 {
                    let mut rng = StdRng::seed_from_u64(seed * 1000 + footprint as u64);
                    let mut fast = FullyAssocCache::new(capacity);
                    let mut reference = RefLru::new(capacity);
                    for i in 0..2000 {
                        // Spread lines over high bits too, like real addresses.
                        let line = rng.random_range(0..footprint as u64) * 0x1_0000_0001;
                        assert_eq!(
                            fast.access(line),
                            reference.access(line),
                            "cap {capacity} footprint {footprint} seed {seed} access {i}"
                        );
                        if i % 97 == 0 {
                            assert_eq!(fast.export_state(), reference.export_state());
                            // A restored copy keeps behaving identically.
                            let mut back = FullyAssocCache::new(capacity);
                            back.import_state(&fast.export_state()).unwrap();
                            fast = back;
                        }
                    }
                    assert_eq!(fast.export_state(), reference.export_state());
                }
            }
        }
    }

    #[test]
    fn slab_lru_rejects_hostile_bags_and_stays_intact() {
        let mut cache = FullyAssocCache::new(4);
        for line in [10, 11, 12, 10] {
            cache.access(line);
        }
        let good = cache.export_state();
        let bag = |stamp: u64, order: &[u64]| {
            let mut b = StateBag::new();
            b.put_u64("stamp", stamp);
            b.put_u64_list("order", order.iter().copied());
            b
        };
        let hostile = [
            ("odd length", bag(9, &[1, 10, 2])),
            ("duplicate line", bag(9, &[1, 10, 2, 10])),
            ("duplicate stamp", bag(9, &[1, 10, 1, 11])),
            ("descending stamps", bag(9, &[2, 10, 1, 11])),
            ("stamp past cache stamp", bag(1, &[1, 10, 2, 11])),
            (
                "more than capacity",
                bag(9, &[1, 1, 2, 2, 3, 3, 4, 4, 5, 5]),
            ),
        ];
        for (what, b) in &hostile {
            assert!(
                matches!(cache.import_state(b), Err(BagError::Mismatch(_))),
                "{what} must be rejected"
            );
            assert_eq!(cache.export_state(), good, "{what} left the cache changed");
        }
        // The list is still walkable end to end: a full sweep of fresh
        // lines evicts exactly the four residents in LRU order.
        let mut reference = RefLru::new(4);
        for line in [10, 11, 12, 10] {
            reference.access(line);
        }
        for line in [11, 20, 21, 22, 23, 12, 10, 11] {
            assert_eq!(cache.access(line), reference.access(line), "line {line}");
        }
        assert_eq!(cache.export_state(), reference.export_state());
    }

    #[test]
    fn utilization_bounded() {
        let mut m = mem();
        for i in 0..100u64 {
            m.read(0, i * 128, 128, 0);
        }
        let u = m.dram_stats.utilization(10_000, 6);
        assert!(u > 0.0 && u <= 1.0);
    }
}
