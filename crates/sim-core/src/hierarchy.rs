//! The three-level cache hierarchy plus DRAM, with MSHRs, prefetch fills and
//! usefulness accounting.
//!
//! Timing model: a demand access walks the hierarchy at access time and the
//! completion cycle is computed from the levels it traverses plus the DRAM
//! bank/bus model; the corresponding cache *fills* are applied when simulated
//! time reaches the completion cycle, so later accesses observe them exactly
//! when a real machine would. Limited MSHRs delay demand misses and drop
//! prefetches, and every off-chip transfer occupies DRAM bank and channel-bus
//! time, which is how useless prefetch traffic hurts co-running cores.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use prefetch_common::addr::BlockAddr;
use prefetch_common::request::{FillLevel, PrefetchRequest};

use crate::cache::CacheArray;
use crate::config::SimConfig;
use crate::dram::DramModel;
use crate::stats::{CacheStats, PrefetchStats};

/// Which structure ultimately served a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HitLevel {
    /// Hit in the L1 data cache.
    L1,
    /// Hit in the L2 cache.
    L2,
    /// Hit in the shared LLC.
    Llc,
    /// Served from DRAM.
    Dram,
    /// Merged into an in-flight request (demand or prefetch).
    InFlight,
}

/// Result of a demand access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DemandResult {
    /// Cycle at which the data is available to the core.
    pub complete_at: u64,
    /// Whether the access hit in the L1D (what the prefetcher is told).
    pub l1_hit: bool,
    /// Where the access was served from.
    pub served_by: HitLevel,
}

/// Outcome of trying to issue a prefetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefetchOutcome {
    /// The prefetch was sent to the memory system.
    Issued,
    /// The block was already cached at (or above) the requested level, or
    /// already in flight.
    Redundant,
    /// No MSHR was available at the target level.
    MshrFull,
}

/// A block filled into the L1D (reported to the prefetcher).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct L1FillEvent {
    /// The filled block.
    pub block: BlockAddr,
    /// Whether the fill was triggered by a prefetch.
    pub was_prefetch: bool,
}

#[derive(Debug, Clone, Copy)]
struct Outstanding {
    ready: u64,
    is_prefetch: bool,
    demand_touched: bool,
}

/// Open-addressed map from outstanding block number to its
/// [`Outstanding`] entry: linear probing, Fibonacci hashing, and
/// backward-shift deletion (no tombstones), sized to a power of two and
/// doubled at 7/8 load.
///
/// This sits on the per-access hot path (every demand access and every
/// prefetch issue probes it at least once), where it replaces a
/// `HashMap<u64, Outstanding>`: entries live in one flat slot array, so
/// a probe is one multiply plus a short linear scan with no SipHash and
/// no per-entry indirection. All operations are deterministic, and the
/// only iteration ([`min_ready`](Self::min_ready)) computes an
/// order-independent minimum, so simulations stay bit-exact (guarded by
/// the determinism integration tests).
#[derive(Debug)]
struct OutstandingTable {
    /// Slot keys (block numbers); [`Self::EMPTY`] marks a free slot.
    /// Block numbers are byte addresses shifted right by the line bits,
    /// so the sentinel can never collide with a real key.
    keys: Vec<u64>,
    entries: Vec<Outstanding>,
    mask: usize,
    len: usize,
}

impl OutstandingTable {
    const EMPTY: u64 = u64::MAX;
    const INITIAL_CAPACITY: usize = 64;

    fn new() -> Self {
        OutstandingTable {
            keys: vec![Self::EMPTY; Self::INITIAL_CAPACITY],
            entries: vec![
                Outstanding {
                    ready: 0,
                    is_prefetch: false,
                    demand_touched: false,
                };
                Self::INITIAL_CAPACITY
            ],
            mask: Self::INITIAL_CAPACITY - 1,
            len: 0,
        }
    }

    fn len(&self) -> usize {
        self.len
    }

    /// The home slot of a key: Fibonacci hashing spreads consecutive
    /// block numbers across the table, then the high bits select a slot.
    fn home(&self, key: u64) -> usize {
        let hash = key.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (hash >> (64 - self.mask.count_ones())) as usize & self.mask
    }

    fn find(&self, key: u64) -> Option<usize> {
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(i);
            }
            if k == Self::EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn contains(&self, key: u64) -> bool {
        self.find(key).is_some()
    }

    fn get_mut(&mut self, key: u64) -> Option<&mut Outstanding> {
        self.find(key).map(|i| &mut self.entries[i])
    }

    fn insert(&mut self, key: u64, entry: Outstanding) -> Option<Outstanding> {
        debug_assert_ne!(key, Self::EMPTY, "block number collides with sentinel");
        // Grow before the probe so the table never saturates (a full
        // table would loop forever) and stays below 7/8 load.
        if (self.len + 1) * 8 > self.keys.len() * 7 {
            self.grow();
        }
        let mut i = self.home(key);
        loop {
            let k = self.keys[i];
            if k == key {
                return Some(std::mem::replace(&mut self.entries[i], entry));
            }
            if k == Self::EMPTY {
                self.keys[i] = key;
                self.entries[i] = entry;
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    fn remove(&mut self, key: u64) -> Option<Outstanding> {
        let mut i = self.find(key)?;
        let removed = self.entries[i];
        self.len -= 1;
        // Backward-shift deletion: walk the probe chain after the hole
        // and slide every entry whose home slot lies cyclically outside
        // (i, j] back into the hole, keeping lookups tombstone-free.
        let mut j = i;
        loop {
            j = (j + 1) & self.mask;
            let k = self.keys[j];
            if k == Self::EMPTY {
                break;
            }
            let home = self.home(k);
            let in_gap = if i <= j {
                i < home && home <= j
            } else {
                i < home || home <= j
            };
            if !in_gap {
                self.keys[i] = k;
                self.entries[i] = self.entries[j];
                i = j;
            }
        }
        self.keys[i] = Self::EMPTY;
        Some(removed)
    }

    /// The minimum `ready` cycle over all entries (`None` when empty).
    fn min_ready(&self) -> Option<u64> {
        if self.len == 0 {
            return None;
        }
        let mut min = None;
        for (i, &k) in self.keys.iter().enumerate() {
            if k != Self::EMPTY {
                let ready = self.entries[i].ready;
                min = Some(match min {
                    Some(m) if m <= ready => m,
                    _ => ready,
                });
            }
        }
        min
    }

    fn grow(&mut self) {
        let new_cap = self.keys.len() * 2;
        let old_keys = std::mem::replace(&mut self.keys, vec![Self::EMPTY; new_cap]);
        let old_entries = std::mem::replace(
            &mut self.entries,
            vec![
                Outstanding {
                    ready: 0,
                    is_prefetch: false,
                    demand_touched: false,
                };
                new_cap
            ],
        );
        self.mask = new_cap - 1;
        self.len = 0;
        for (key, entry) in old_keys.into_iter().zip(old_entries) {
            if key != Self::EMPTY {
                self.insert(key, entry);
            }
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct PendingFill {
    at: u64,
    core: usize,
    block: BlockAddr,
    is_prefetch: bool,
    demand_touched: bool,
    fill_l1: bool,
    fill_l2: bool,
    fill_llc: bool,
    /// For prefetches: the level whose line carries the prefetched/used
    /// metadata (usefulness is accounted at the targeted level only, matching
    /// the paper's accuracy definition).
    target: Option<FillLevel>,
}

/// Per-core statistics kept by the hierarchy.
#[derive(Debug, Clone, Copy, Default)]
pub struct HierarchyStats {
    /// L1D statistics.
    pub l1d: CacheStats,
    /// L2C statistics.
    pub l2c: CacheStats,
    /// LLC statistics (this core's demand stream and prefetch fills).
    pub llc: CacheStats,
    /// Prefetch statistics.
    pub prefetch: PrefetchStats,
}

/// The memory hierarchy shared by all cores: per-core L1D and L2C, a shared
/// LLC and a shared DRAM.
#[derive(Debug)]
pub struct MemoryHierarchy {
    cfg: SimConfig,
    l1d: Vec<CacheArray>,
    l2c: Vec<CacheArray>,
    llc: CacheArray,
    dram: DramModel,
    l1_outstanding: Vec<OutstandingTable>,
    /// Per-core counts of outstanding L1 demands/prefetches, maintained
    /// incrementally (the occupancy checks run on every dispatch slot).
    l1_demand_count: Vec<usize>,
    l1_prefetch_count: Vec<usize>,
    /// In-flight prefetches that target the L2 (or LLC), keyed by block, so a
    /// later demand miss merges with them instead of re-fetching from DRAM.
    l2_pf_inflight: Vec<HashMap<u64, u64>>,
    l2_inflight: Vec<Vec<u64>>,
    llc_inflight: Vec<u64>,
    /// Pending cache fills, keyed by insertion sequence number. The heap
    /// below orders them; the map owns them so in-flight promotion can
    /// mutate an entry (lower its completion time, mark it
    /// demand-touched) without re-sorting anything.
    pending_fills: HashMap<u64, PendingFill>,
    /// Min-heap of (completion cycle, insertion seq) handles into
    /// `pending_fills`. Applying fills pops in (cycle, seq) order, which
    /// is exactly the stable sort-by-completion order the previous
    /// sorted-Vec implementation produced — bit-exact LRU evolution,
    /// without the per-apply sort. Promotion pushes a fresh handle at
    /// the lowered cycle (same seq); the superseded handle becomes
    /// stale and is skipped lazily when it surfaces.
    fill_queue: BinaryHeap<Reverse<(u64, u64)>>,
    /// Monotone insertion counter feeding `fill_queue` tie-breaking.
    fill_seq: u64,
    /// Cached minimum completion cycle over live pending fills
    /// (`u64::MAX` when none): the O(1) early-out of `advance_to`. Exact
    /// at all times — pushes and promotions only lower it, and every drain
    /// recomputes it from the heap.
    next_pending_at: u64,
    l1_fill_events: Vec<Vec<L1FillEvent>>,
    l1_evict_events: Vec<Vec<BlockAddr>>,
    stats: Vec<HierarchyStats>,
    stats_enabled: bool,
}

impl MemoryHierarchy {
    /// Builds the hierarchy described by `cfg`.
    pub fn new(cfg: SimConfig) -> Self {
        let cores = cfg.cores;
        let llc_cfg = cfg.llc_total();
        let llc_sets = (llc_cfg.size_bytes / llc_cfg.line_size) as usize / llc_cfg.ways;
        let llc_sets = llc_sets.next_power_of_two().max(1);
        MemoryHierarchy {
            l1d: (0..cores).map(|_| CacheArray::new(&cfg.l1d)).collect(),
            l2c: (0..cores).map(|_| CacheArray::new(&cfg.l2c)).collect(),
            llc: CacheArray::with_shape(llc_sets, llc_cfg.ways),
            dram: DramModel::with_line_size(cfg.dram, cfg.l1d.line_size),
            l1_outstanding: (0..cores).map(|_| OutstandingTable::new()).collect(),
            l1_demand_count: vec![0; cores],
            l1_prefetch_count: vec![0; cores],
            l2_pf_inflight: (0..cores).map(|_| HashMap::new()).collect(),
            l2_inflight: (0..cores).map(|_| Vec::new()).collect(),
            llc_inflight: Vec::new(),
            pending_fills: HashMap::new(),
            fill_queue: BinaryHeap::new(),
            fill_seq: 0,
            next_pending_at: u64::MAX,
            l1_fill_events: (0..cores).map(|_| Vec::new()).collect(),
            l1_evict_events: (0..cores).map(|_| Vec::new()).collect(),
            stats: vec![HierarchyStats::default(); cores],
            stats_enabled: true,
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Enables or disables statistics collection (disabled during warm-up).
    pub fn set_stats_enabled(&mut self, enabled: bool) {
        self.stats_enabled = enabled;
    }

    /// Clears all statistics counters (cache contents are preserved).
    pub fn reset_stats(&mut self) {
        for s in &mut self.stats {
            *s = HierarchyStats::default();
        }
    }

    /// Per-core statistics.
    pub fn stats(&self, core: usize) -> HierarchyStats {
        self.stats[core]
    }

    /// Whether `block` currently resides in core `core`'s L1D.
    pub fn l1_contains(&self, core: usize, block: BlockAddr) -> bool {
        self.l1d[core].contains(block)
    }

    /// Drains L1 fill notifications for `core` (for the prefetcher's
    /// `on_fill` hook). The buffer keeps its capacity, so the per-cycle
    /// drain never allocates.
    pub fn take_l1_fills(&mut self, core: usize) -> std::vec::Drain<'_, L1FillEvent> {
        self.l1_fill_events[core].drain(..)
    }

    /// Drains L1 eviction notifications for `core` (for the prefetcher's
    /// `on_evict` hook), keeping the buffer's capacity.
    pub fn take_l1_evictions(&mut self, core: usize) -> std::vec::Drain<'_, BlockAddr> {
        self.l1_evict_events[core].drain(..)
    }

    /// Number of outstanding L1-level misses for `core` (occupied MSHRs),
    /// demands and prefetches combined.
    pub fn l1_mshr_occupancy(&self, core: usize) -> usize {
        self.l1_outstanding[core].len()
    }

    /// Outstanding *demand* misses at the L1 for `core`. Demand dispatch
    /// stalls against this count.
    pub fn l1_demand_occupancy(&self, core: usize) -> usize {
        self.l1_demand_count[core]
    }

    /// Outstanding L1-targeted *prefetches* for `core`. Prefetch issue is
    /// admitted against this count (modelling a dedicated prefetch fill
    /// buffer alongside the demand MSHRs).
    pub fn l1_prefetch_occupancy(&self, core: usize) -> usize {
        self.l1_prefetch_count[core]
    }

    /// Records `n` prefetch requests dropped because the prefetch queue was
    /// full (the queue itself lives in the system, not the hierarchy).
    pub fn note_prefetch_queue_drops(&mut self, core: usize, n: u64) {
        if self.stats_enabled {
            self.stats[core].prefetch.requested += n;
            self.stats[core].prefetch.dropped_queue_full += n;
        }
    }

    /// Schedules a fill and keeps the event queue's invariants.
    fn push_fill(&mut self, fill: PendingFill) {
        let seq = self.fill_seq;
        self.fill_seq += 1;
        self.next_pending_at = self.next_pending_at.min(fill.at);
        self.fill_queue.push(Reverse((fill.at, seq)));
        self.pending_fills.insert(seq, fill);
    }

    /// Applies all fills scheduled at or before `now`.
    pub fn advance_to(&mut self, now: u64) {
        // Called on every access and every cycle; the cached minimum makes
        // the no-fill-due case O(1).
        if self.next_pending_at > now {
            return;
        }
        // Pop due fills in (completion cycle, insertion seq) order so LRU
        // state evolves deterministically; skip handles superseded by a
        // promotion (their entry is gone by the time they surface, because
        // the promoted handle sorts earlier).
        while let Some(&Reverse((at, seq))) = self.fill_queue.peek() {
            let Some(fill) = self.pending_fills.get(&seq) else {
                self.fill_queue.pop();
                continue;
            };
            debug_assert_eq!(fill.at, at, "live heap handle matches its entry");
            if at > now {
                break;
            }
            self.fill_queue.pop();
            let fill = self
                .pending_fills
                .remove(&seq)
                .expect("entry checked above");
            self.apply_fill(fill);
        }
        // Recompute the cached minimum from the first live handle.
        self.next_pending_at = u64::MAX;
        while let Some(&Reverse((at, seq))) = self.fill_queue.peek() {
            if self.pending_fills.contains_key(&seq) {
                self.next_pending_at = at;
                break;
            }
            self.fill_queue.pop();
        }
        self.l2_inflight
            .iter_mut()
            .for_each(|v| v.retain(|&r| r > now));
        self.llc_inflight.retain(|&r| r > now);
    }

    fn apply_fill(&mut self, fill: PendingFill) {
        let core = fill.core;
        if fill.is_prefetch {
            self.l2_pf_inflight[core].remove(&fill.block.raw());
        }
        // A prefetch whose in-flight request was touched by a demand access is
        // installed as a demand line (it has already been credited as useful).
        // Usefulness metadata is carried only by the line at the prefetch's
        // target level; levels filled in passing install plain lines.
        let as_prefetch = fill.is_prefetch && !fill.demand_touched;
        if fill.fill_llc {
            let mark = as_prefetch && fill.target == Some(FillLevel::Llc);
            if fill.is_prefetch && fill.target == Some(FillLevel::Llc) && self.stats_enabled {
                self.stats[core].llc.prefetch_fills += 1;
            }
            if let Some(ev) = self.llc.fill(fill.block, mark, core) {
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].llc.useless_prefetches += 1;
                }
            }
        }
        if fill.fill_l2 {
            let mark = as_prefetch && fill.target == Some(FillLevel::L2);
            if fill.is_prefetch && fill.target == Some(FillLevel::L2) && self.stats_enabled {
                self.stats[core].l2c.prefetch_fills += 1;
            }
            if let Some(ev) = self.l2c[core].fill(fill.block, mark, core) {
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].l2c.useless_prefetches += 1;
                }
            }
        }
        if fill.fill_l1 {
            let mark = as_prefetch && fill.target == Some(FillLevel::L1);
            if fill.is_prefetch && fill.target == Some(FillLevel::L1) && self.stats_enabled {
                self.stats[core].l1d.prefetch_fills += 1;
            }
            if let Some(ev) = self.l1d[core].fill(fill.block, mark, core) {
                if ev.was_prefetch && !ev.was_used && self.stats_enabled {
                    self.stats[core].l1d.useless_prefetches += 1;
                }
                self.l1_evict_events[core].push(ev.block);
            }
            self.l1_fill_events[core].push(L1FillEvent {
                block: fill.block,
                was_prefetch: fill.is_prefetch,
            });
            // The miss (or prefetch) is no longer outstanding at the L1.
            if let Some(entry) = self.l1_outstanding[core].remove(fill.block.raw()) {
                if entry.is_prefetch {
                    self.l1_prefetch_count[core] -= 1;
                } else {
                    self.l1_demand_count[core] -= 1;
                }
                if entry.is_prefetch && entry.demand_touched && self.stats_enabled {
                    // Late-but-useful prefetch: credit usefulness at the L1.
                    self.stats[core].l1d.useful_prefetches += 1;
                }
            }
        }
    }

    fn l1_mshr_start(&self, core: usize, now: u64) -> u64 {
        let outstanding = &self.l1_outstanding[core];
        if outstanding.len() < self.cfg.l1d.mshrs {
            now
        } else {
            outstanding.min_ready().unwrap_or(now).max(now)
        }
    }

    fn l2_mshr_start(&mut self, core: usize, now: u64) -> u64 {
        let inflight = &mut self.l2_inflight[core];
        inflight.retain(|&r| r > now);
        if inflight.len() < self.cfg.l2c.mshrs {
            now
        } else {
            inflight.iter().copied().min().unwrap_or(now).max(now)
        }
    }

    fn llc_mshr_start(&mut self, now: u64) -> u64 {
        self.llc_inflight.retain(|&r| r > now);
        if self.llc_inflight.len() < self.cfg.llc_per_core.mshrs * self.cfg.cores {
            now
        } else {
            self.llc_inflight
                .iter()
                .copied()
                .min()
                .unwrap_or(now)
                .max(now)
        }
    }

    /// Performs a demand access for `core` to the line containing `block`.
    pub fn demand_access(
        &mut self,
        core: usize,
        block: BlockAddr,
        is_store: bool,
        now: u64,
    ) -> DemandResult {
        self.advance_to(now);
        let enabled = self.stats_enabled;
        if enabled {
            self.stats[core].l1d.demand_accesses += 1;
        }

        // L1D lookup.
        if let Some(hit) = self.l1d[core].demand_access(block, is_store) {
            if enabled {
                self.stats[core].l1d.demand_hits += 1;
                if hit.first_use_of_prefetch {
                    self.stats[core].l1d.useful_prefetches += 1;
                }
            }
            return DemandResult {
                complete_at: now + self.cfg.l1d.latency,
                l1_hit: true,
                served_by: HitLevel::L1,
            };
        }
        if enabled {
            self.stats[core].l1d.demand_misses += 1;
        }

        // Merge with an in-flight request if one exists. A late prefetch is
        // promoted to demand priority at the memory controller, so the merged
        // request completes no later than a freshly issued demand would.
        if let Some(entry) = self.l1_outstanding[core].get_mut(block.raw()) {
            let was_untouched_prefetch = entry.is_prefetch && !entry.demand_touched;
            if was_untouched_prefetch && enabled {
                self.stats[core].prefetch.late += 1;
            }
            entry.demand_touched = true;
            if entry.is_prefetch {
                let path =
                    self.cfg.l1d.latency + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                let fresh = self.dram.estimate_demand(block, now + path);
                if fresh < entry.ready {
                    entry.ready = fresh;
                    let mut promoted = Vec::new();
                    // gaze-lint: allow(map_iteration) -- per-entry predicate + min() update; no effect depends on visit order
                    for (&seq, pending) in &mut self.pending_fills {
                        if pending.core == core
                            && pending.block == block
                            && pending.is_prefetch
                            && fresh < pending.at
                        {
                            pending.at = fresh;
                            promoted.push(seq);
                        }
                    }
                    for seq in promoted {
                        // Original seq keeps equal-cycle ordering stable.
                        self.fill_queue.push(Reverse((fresh, seq)));
                        self.next_pending_at = self.next_pending_at.min(fresh);
                    }
                }
            }
            let ready = entry.ready.max(now + self.cfg.l1d.latency);
            return DemandResult {
                complete_at: ready,
                l1_hit: false,
                served_by: HitLevel::InFlight,
            };
        }

        // True L1 miss: walk the lower levels.
        let start = self.l1_mshr_start(core, now);
        let l2_lookup_at = start + self.cfg.l1d.latency;
        if enabled {
            self.stats[core].l2c.demand_accesses += 1;
        }
        let (ready, served_by, fill_l2, fill_llc) =
            if let Some(hit) = self.l2c[core].demand_access(block, false) {
                if enabled {
                    self.stats[core].l2c.demand_hits += 1;
                    if hit.first_use_of_prefetch {
                        self.stats[core].l2c.useful_prefetches += 1;
                    }
                }
                (
                    l2_lookup_at + self.cfg.l2c.latency,
                    HitLevel::L2,
                    false,
                    false,
                )
            } else if let Some(&pf_ready) = self.l2_pf_inflight[core].get(&block.raw()) {
                // The block is already on its way to the L2 because of a
                // prefetch: merge with it instead of fetching again (a late but
                // useful prefetch, credited at the L2). The in-flight request is
                // promoted to demand priority, so it completes no later than a
                // freshly issued demand would have.
                if enabled {
                    self.stats[core].l2c.demand_misses += 1;
                    self.stats[core].prefetch.late += 1;
                    self.stats[core].l2c.useful_prefetches += 1;
                }
                let path = self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
                let fresh = self.dram.estimate_demand(block, l2_lookup_at + path);
                let promoted = pf_ready.min(fresh);
                self.l2_pf_inflight[core].insert(block.raw(), promoted);
                let mut lowered = Vec::new();
                // gaze-lint: allow(map_iteration) -- per-entry predicate + min() update; no effect depends on visit order
                for (&seq, pending) in &mut self.pending_fills {
                    if pending.core == core && pending.block == block && pending.is_prefetch {
                        pending.demand_touched = true;
                        if promoted < pending.at {
                            pending.at = promoted;
                            lowered.push(seq);
                        }
                    }
                }
                for seq in lowered {
                    self.fill_queue.push(Reverse((promoted, seq)));
                    self.next_pending_at = self.next_pending_at.min(promoted);
                }
                let ready = promoted.max(l2_lookup_at) + self.cfg.l2c.latency;
                (ready, HitLevel::InFlight, false, false)
            } else {
                if enabled {
                    self.stats[core].l2c.demand_misses += 1;
                    self.stats[core].llc.demand_accesses += 1;
                }
                let l2_start = self.l2_mshr_start(core, l2_lookup_at);
                let llc_lookup_at = l2_start + self.cfg.l2c.latency;
                if let Some(hit) = self.llc.demand_access(block, false) {
                    if enabled {
                        self.stats[core].llc.demand_hits += 1;
                        if hit.first_use_of_prefetch {
                            self.stats[core].llc.useful_prefetches += 1;
                        }
                    }
                    let ready = llc_lookup_at + self.cfg.llc_per_core.latency;
                    self.l2_inflight[core].push(ready);
                    (ready, HitLevel::Llc, true, false)
                } else {
                    if enabled {
                        self.stats[core].llc.demand_misses += 1;
                    }
                    let llc_start = self.llc_mshr_start(llc_lookup_at);
                    let dram_at = llc_start + self.cfg.llc_per_core.latency;
                    let ready = self.dram.access(block, dram_at);
                    self.l2_inflight[core].push(ready);
                    self.llc_inflight.push(ready);
                    (ready, HitLevel::Dram, true, true)
                }
            };

        let prev = self.l1_outstanding[core].insert(
            block.raw(),
            Outstanding {
                ready,
                is_prefetch: false,
                demand_touched: true,
            },
        );
        debug_assert!(
            prev.is_none(),
            "demand insert over an existing outstanding entry"
        );
        self.l1_demand_count[core] += 1;
        self.push_fill(PendingFill {
            at: ready,
            core,
            block,
            is_prefetch: false,
            demand_touched: true,
            fill_l1: true,
            fill_l2,
            fill_llc,
            target: None,
        });
        DemandResult {
            complete_at: ready,
            l1_hit: false,
            served_by,
        }
    }

    /// Attempts to issue a prefetch on behalf of `core`.
    ///
    /// Returning [`PrefetchOutcome::MshrFull`] does not consume the request:
    /// the caller (the prefetch queue) is expected to retry it later, so MSHR
    /// pressure delays prefetches rather than silently discarding them.
    pub fn issue_prefetch(
        &mut self,
        core: usize,
        req: PrefetchRequest,
        now: u64,
    ) -> PrefetchOutcome {
        self.advance_to(now);
        let block = req.block;
        let enabled = self.stats_enabled;

        let redundant = match req.fill_level {
            FillLevel::L1 => self.l1d[core].contains(block),
            FillLevel::L2 => self.l1d[core].contains(block) || self.l2c[core].contains(block),
            FillLevel::Llc => {
                self.l1d[core].contains(block)
                    || self.l2c[core].contains(block)
                    || self.llc.contains(block)
            }
        } || self.l1_outstanding[core].contains(block.raw())
            || self.l2_pf_inflight[core].contains_key(&block.raw());
        if redundant {
            if enabled {
                self.stats[core].prefetch.requested += 1;
                self.stats[core].prefetch.dropped_redundant += 1;
            }
            return PrefetchOutcome::Redundant;
        }

        match req.fill_level {
            FillLevel::L1 => {
                // Prefetches are admitted against their own share of fill
                // buffers so a saturated demand stream cannot starve them
                // completely (and vice versa).
                if self.l1_prefetch_occupancy(core) >= self.cfg.l1d.mshrs {
                    return PrefetchOutcome::MshrFull;
                }
            }
            FillLevel::L2 | FillLevel::Llc => {
                self.l2_inflight[core].retain(|&r| r > now);
                if self.l2_inflight[core].len() >= self.cfg.l2c.mshrs {
                    return PrefetchOutcome::MshrFull;
                }
            }
        }

        let lookup_at = now + self.cfg.l1d.latency;
        let (ready, fill_l1, fill_l2, fill_llc) = if self.l2c[core].contains(block) {
            // Consuming a prefetched L2 line to move it up counts that line as
            // used (its usefulness will be observed at the L1 instead).
            self.l2c[core].demand_access(block, false);
            (
                lookup_at + self.cfg.l2c.latency,
                req.fill_level == FillLevel::L1,
                false,
                false,
            )
        } else if self.llc.contains(block) {
            self.llc.demand_access(block, false);
            let ready = lookup_at + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
            (ready, req.fill_level == FillLevel::L1, true, false)
        } else {
            let dram_at = lookup_at + self.cfg.l2c.latency + self.cfg.llc_per_core.latency;
            // Prefetch reads are refused (and retried later) when the DRAM
            // controller's prefetch backlog window is full.
            if !self.dram.accepts_prefetch(block, dram_at) {
                return PrefetchOutcome::MshrFull;
            }
            let ready = self.dram.access_prefetch(block, dram_at);
            (ready, req.fill_level == FillLevel::L1, true, true)
        };

        // An L1-targeted prefetch whose data is already in the L2 and which
        // would fill nothing new is still issued (it moves the line up).
        if enabled {
            self.stats[core].prefetch.requested += 1;
            self.stats[core].prefetch.issued += 1;
        }
        if req.fill_level == FillLevel::L1 {
            let prev = self.l1_outstanding[core].insert(
                block.raw(),
                Outstanding {
                    ready,
                    is_prefetch: true,
                    demand_touched: false,
                },
            );
            debug_assert!(
                prev.is_none(),
                "prefetch insert over an existing outstanding entry"
            );
            self.l1_prefetch_count[core] += 1;
        } else {
            self.l2_inflight[core].push(ready);
            self.l2_pf_inflight[core].insert(block.raw(), ready);
        }
        if fill_llc {
            self.llc_inflight.push(ready);
        }
        self.push_fill(PendingFill {
            at: ready,
            core,
            block,
            is_prefetch: true,
            demand_touched: false,
            fill_l1,
            fill_l2: fill_l2 || (req.fill_level == FillLevel::L2),
            fill_llc: fill_llc || (req.fill_level == FillLevel::Llc),
            target: Some(req.fill_level),
        });
        PrefetchOutcome::Issued
    }

    /// Flushes all pending fills and accounts still-resident unused
    /// prefetched lines as useless. Call once at the end of a measured run.
    pub fn finalize(&mut self) {
        self.advance_to(u64::MAX);
        if !self.stats_enabled {
            return;
        }
        let mut l1_useless = vec![0u64; self.stats.len()];
        let mut l2_useless = vec![0u64; self.stats.len()];
        let mut llc_useless = vec![0u64; self.stats.len()];
        for (core, l1) in self.l1d.iter().enumerate() {
            for (_, prefetched, used, _) in l1.resident_lines() {
                if prefetched && !used {
                    l1_useless[core] += 1;
                }
            }
        }
        for (core, l2) in self.l2c.iter().enumerate() {
            for (_, prefetched, used, _) in l2.resident_lines() {
                if prefetched && !used {
                    l2_useless[core] += 1;
                }
            }
        }
        for (_, prefetched, used, owner) in self.llc.resident_lines() {
            if prefetched && !used {
                llc_useless[owner.min(self.stats.len() - 1)] += 1;
            }
        }
        for core in 0..self.stats.len() {
            self.stats[core].l1d.useless_prefetches += l1_useless[core];
            self.stats[core].l2c.useless_prefetches += l2_useless[core];
            self.stats[core].llc.useless_prefetches += llc_useless[core];
        }
    }

    /// DRAM statistics (shared across cores).
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;

    fn hierarchy() -> MemoryHierarchy {
        MemoryHierarchy::new(SimConfig::paper_single_core())
    }

    #[test]
    fn cold_miss_goes_to_dram_then_hits_l1() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x1000);
        let r = h.demand_access(0, b, false, 0);
        assert!(!r.l1_hit);
        assert_eq!(r.served_by, HitLevel::Dram);
        assert!(
            r.complete_at > 100,
            "off-chip access should take >100 cycles, got {}",
            r.complete_at
        );
        // After the fill time passes, the same block hits in L1.
        let r2 = h.demand_access(0, b, false, r.complete_at + 1);
        assert!(r2.l1_hit);
        assert_eq!(r2.complete_at, r.complete_at + 1 + 5);
        let s = h.stats(0);
        assert_eq!(s.l1d.demand_accesses, 2);
        assert_eq!(s.l1d.demand_misses, 1);
        assert_eq!(s.llc.demand_misses, 1);
    }

    #[test]
    fn merge_with_inflight_demand() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x2000);
        let r1 = h.demand_access(0, b, false, 0);
        let r2 = h.demand_access(0, b, false, 10);
        assert_eq!(r2.served_by, HitLevel::InFlight);
        assert!(r2.complete_at <= r1.complete_at.max(10 + 5));
        // Only one off-chip read happened.
        assert_eq!(h.dram_stats().reads, 1);
    }

    #[test]
    fn prefetch_then_demand_is_useful_and_hits() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x3000);
        assert_eq!(
            h.issue_prefetch(0, PrefetchRequest::to_l1(b), 0),
            PrefetchOutcome::Issued
        );
        // Demand arrives well after the prefetch completed.
        let r = h.demand_access(0, b, false, 10_000);
        assert!(r.l1_hit);
        let s = h.stats(0);
        assert_eq!(s.l1d.useful_prefetches, 1);
        assert_eq!(s.prefetch.late, 0);
        assert_eq!(s.prefetch.issued, 1);
    }

    #[test]
    fn late_prefetch_detected() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x4000);
        h.issue_prefetch(0, PrefetchRequest::to_l1(b), 0);
        // Demand arrives while the prefetch is still in flight.
        let r = h.demand_access(0, b, false, 3);
        assert_eq!(r.served_by, HitLevel::InFlight);
        let s = h.stats(0);
        assert_eq!(s.prefetch.late, 1);
        // After the fill, usefulness is credited exactly once.
        h.advance_to(r.complete_at + 1);
        assert_eq!(h.stats(0).l1d.useful_prefetches, 1);
    }

    #[test]
    fn redundant_prefetch_dropped() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x5000);
        let r = h.demand_access(0, b, false, 0);
        let t = r.complete_at + 1;
        assert_eq!(
            h.issue_prefetch(0, PrefetchRequest::to_l1(b), t),
            PrefetchOutcome::Redundant
        );
        assert_eq!(h.stats(0).prefetch.dropped_redundant, 1);
    }

    #[test]
    fn l2_fill_prefetch_serves_later_l1_miss_from_l2() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x6000);
        h.issue_prefetch(0, PrefetchRequest::to_l2(b), 0);
        let r = h.demand_access(0, b, false, 10_000);
        assert!(!r.l1_hit);
        assert_eq!(r.served_by, HitLevel::L2);
        let s = h.stats(0);
        assert_eq!(s.l2c.useful_prefetches, 1);
        assert_eq!(s.l2c.prefetch_fills, 1);
        assert_eq!(s.l1d.prefetch_fills, 0);
    }

    #[test]
    fn unused_prefetch_counted_useless_at_finalize() {
        let mut h = hierarchy();
        h.issue_prefetch(0, PrefetchRequest::to_l1(BlockAddr::new(0x7000)), 0);
        h.finalize();
        let s = h.stats(0);
        // The block resides in L1, L2 and LLC, but only the targeted level
        // (L1) carries the prefetch metadata, so it is counted useless once.
        assert_eq!(s.l1d.useless_prefetches, 1);
        assert_eq!(s.l2c.useless_prefetches + s.llc.useless_prefetches, 0);
    }

    #[test]
    fn mshr_limit_defers_excess_prefetches() {
        let mut h = hierarchy();
        let mshrs = h.config().l1d.mshrs;
        let mut deferred = 0;
        for i in 0..(mshrs + 8) {
            if h.issue_prefetch(
                0,
                PrefetchRequest::to_l1(BlockAddr::new(0x10_0000 + i as u64)),
                0,
            ) == PrefetchOutcome::MshrFull
            {
                deferred += 1;
            }
        }
        assert_eq!(deferred, 8);
        assert_eq!(h.stats(0).prefetch.issued, mshrs as u64);
        assert_eq!(h.l1_mshr_occupancy(0), mshrs);
        // Once time passes and the fills land, the MSHRs free up again.
        h.advance_to(100_000);
        assert_eq!(h.l1_mshr_occupancy(0), 0);
        assert_eq!(
            h.issue_prefetch(
                0,
                PrefetchRequest::to_l1(BlockAddr::new(0x20_0000)),
                100_000
            ),
            PrefetchOutcome::Issued
        );
    }

    #[test]
    fn l1_fill_and_evict_notifications_are_produced() {
        let mut h = hierarchy();
        let b = BlockAddr::new(0x8000);
        let r = h.demand_access(0, b, false, 0);
        h.advance_to(r.complete_at);
        let fills: Vec<_> = h.take_l1_fills(0).collect();
        assert_eq!(fills.len(), 1);
        assert_eq!(fills[0].block, b);
        assert!(!fills[0].was_prefetch);
        assert_eq!(h.take_l1_fills(0).len(), 0, "notifications are drained");
    }

    #[test]
    fn warmup_statistics_can_be_disabled_and_reset() {
        let mut h = hierarchy();
        h.set_stats_enabled(false);
        h.demand_access(0, BlockAddr::new(0x9000), false, 0);
        assert_eq!(h.stats(0).l1d.demand_accesses, 0);
        h.set_stats_enabled(true);
        h.demand_access(0, BlockAddr::new(0xa000), false, 0);
        assert_eq!(h.stats(0).l1d.demand_accesses, 1);
        h.reset_stats();
        assert_eq!(h.stats(0).l1d.demand_accesses, 0);
    }

    #[test]
    fn outstanding_table_matches_a_reference_map_under_churn() {
        // Deterministic LCG churn: interleaved inserts, removes, lookups
        // and mutations, mirrored against std's HashMap.
        let mut table = OutstandingTable::new();
        let mut reference: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut state = 0x1234_5678_9abc_def0u64;
        let mut lcg = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for step in 0..20_000u64 {
            let r = lcg();
            // Small key space forces collisions; keys look like block numbers.
            let key = (r >> 8) % 257;
            match r % 4 {
                0 | 1 => {
                    let entry = Outstanding {
                        ready: step,
                        is_prefetch: r & 16 != 0,
                        demand_touched: false,
                    };
                    let prev = table.insert(key, entry).map(|o| o.ready);
                    assert_eq!(prev, reference.insert(key, step), "step {step}");
                }
                2 => {
                    let removed = table.remove(key).map(|o| o.ready);
                    assert_eq!(removed, reference.remove(&key), "step {step}");
                }
                _ => {
                    let got = table.get_mut(key).map(|o| &mut o.ready);
                    match (got, reference.get_mut(&key)) {
                        (Some(a), Some(b)) => {
                            assert_eq!(*a, *b, "step {step}");
                            *a += 1;
                            *b += 1;
                        }
                        (None, None) => {}
                        (a, b) => panic!("step {step}: {a:?} vs {b:?}"),
                    }
                }
            }
            assert_eq!(table.len(), reference.len(), "step {step}");
            assert_eq!(table.contains(key), reference.contains_key(&key));
            assert_eq!(table.min_ready(), reference.values().min().copied());
        }
        // Drain everything through backward-shift deletion.
        let keys: Vec<u64> = reference.keys().copied().collect();
        for key in keys {
            assert!(table.remove(key).is_some());
        }
        assert_eq!(table.len(), 0);
        assert_eq!(table.min_ready(), None);
    }

    #[test]
    fn outstanding_table_grows_past_its_initial_capacity() {
        let mut table = OutstandingTable::new();
        let n = (OutstandingTable::INITIAL_CAPACITY * 4) as u64;
        for key in 0..n {
            assert!(table
                .insert(
                    key,
                    Outstanding {
                        ready: key * 10,
                        is_prefetch: false,
                        demand_touched: false,
                    },
                )
                .is_none());
        }
        assert_eq!(table.len(), n as usize);
        assert_eq!(table.min_ready(), Some(0));
        for key in 0..n {
            assert_eq!(table.remove(key).map(|o| o.ready), Some(key * 10));
        }
        assert_eq!(table.len(), 0);
    }

    #[test]
    fn multicore_cores_have_private_l1() {
        let mut h = MemoryHierarchy::new(SimConfig::paper_multi_core(2));
        let b = BlockAddr::new(0xb000);
        let r = h.demand_access(0, b, false, 0);
        h.advance_to(r.complete_at);
        // Core 1 does not see core 0's L1/L2 contents but shares the LLC.
        let r1 = h.demand_access(1, b, false, r.complete_at + 1);
        assert!(!r1.l1_hit);
        assert_eq!(r1.served_by, HitLevel::Llc);
    }
}
