//! The Gaze prefetcher: glue between the Filter Table, Accumulation Table,
//! Pattern History Module (PHT + streaming module) and the Prefetch Buffer.
//!
//! The access flow follows Fig. 3b of the paper:
//!
//! 1. a load first checks the Accumulation Table (AT); tracked regions update
//!    their footprint and may fire the stage-2 stride promotion,
//! 2. otherwise the Filter Table (FT) is checked; a second distinct access
//!    graduates the region into the AT and — this is Gaze's key idea — sends
//!    the *trigger offset, second offset and trigger PC* to the Pattern
//!    History Module, which decides whether and how aggressively to prefetch,
//! 3. regions deactivate when a block of theirs is evicted from the L1D or
//!    when their AT entry is replaced; the accumulated footprint is then
//!    learned (streaming regions train the DPCT/DC, everything else the PHT),
//! 4. prefetch patterns are staged in the Prefetch Buffer and drained a few
//!    blocks per cycle.

use prefetch_common::access::DemandAccess;
use prefetch_common::addr::{BlockAddr, RegionGeometry};
use prefetch_common::prefetcher::{Prefetcher, PrefetcherStats};
use prefetch_common::sink::RequestSink;

use crate::config::{Characterization, GazeConfig};
use crate::dense::{StreamConfidence, StreamingModule};
use crate::pht::PatternHistoryTable;
use crate::prefetch_buffer::{OffsetState, PrefetchBuffer, PrefetchPattern};
use crate::tables::{hash_pc, AccumEntry, AccumulationTable, FilterEntry, FilterTable};

/// The Gaze spatial prefetcher (HPCA 2025).
#[derive(Debug)]
pub struct Gaze {
    cfg: GazeConfig,
    geom: RegionGeometry,
    name: String,
    ft: FilterTable,
    at: AccumulationTable,
    pht: PatternHistoryTable,
    streaming: StreamingModule,
    pb: PrefetchBuffer,
    stats: PrefetcherStats,
}

impl Gaze {
    /// Creates a Gaze prefetcher with the paper's default configuration.
    pub fn new() -> Self {
        Self::with_config(GazeConfig::paper_default())
    }

    /// Creates a Gaze prefetcher from an explicit configuration.
    pub fn with_config(cfg: GazeConfig) -> Self {
        Self::with_config_and_name(cfg, "gaze")
    }

    /// Creates a named variant (used by the ablation experiments so reports
    /// can distinguish `gaze`, `gaze-pht`, `offset`, `pht4ss`, `sm4ss`, ...).
    pub fn with_config_and_name(cfg: GazeConfig, name: impl Into<String>) -> Self {
        let geom = RegionGeometry::new(cfg.region_size, cfg.block_size);
        let blocks = cfg.blocks_per_region();
        Gaze {
            geom,
            name: name.into(),
            ft: FilterTable::new(cfg.ft_entries, cfg.ft_ways),
            at: AccumulationTable::new(cfg.at_entries, cfg.at_ways),
            pht: PatternHistoryTable::new(cfg.pht_entries, cfg.pht_ways, blocks),
            streaming: StreamingModule::new(cfg.dpct_entries, cfg.dc_bits),
            pb: PrefetchBuffer::new(cfg.pb_entries, cfg.pb_ways, cfg.pb_drain_per_cycle, geom),
            stats: PrefetcherStats::default(),
            cfg,
        }
    }

    /// The configuration in use.
    pub fn config(&self) -> &GazeConfig {
        &self.cfg
    }

    fn accesses_required(&self) -> usize {
        self.cfg.characterization.accesses_required()
    }

    fn initial_event<'a>(&self, entry: &'a AccumEntry) -> &'a [usize] {
        let k = self
            .accesses_required()
            .max(1)
            .min(entry.initial_offsets.len());
        &entry.initial_offsets[..k]
    }

    /// Builds the prediction for a region whose initial-access event is now
    /// complete, queues it in the Prefetch Buffer, and arms the stride flag
    /// where the paper prescribes it.
    fn awaken_prefetch(&mut self, region: u64, entry: &mut AccumEntry) {
        entry.prefetch_triggered = true;
        self.stats.trainings += 1;
        let streaming_signature = entry.is_streaming_signature();
        if self.cfg.paths.streaming_regions_only && !streaming_signature {
            return;
        }

        let blocks = self.cfg.blocks_per_region();
        let trigger = entry.trigger_offset();
        let mut pattern = PrefetchPattern::new(blocks);

        if streaming_signature && self.cfg.paths.streaming_module {
            // Stage 1 of the two-stage aggressiveness control.
            match self.streaming.confidence(entry.trigger_pc) {
                StreamConfidence::High => {
                    for o in 0..blocks {
                        if entry.footprint.get(o) {
                            continue;
                        }
                        let state = if o < self.cfg.dense_l1_blocks {
                            OffsetState::L1
                        } else {
                            OffsetState::L2
                        };
                        pattern.set(o, state);
                    }
                }
                StreamConfidence::Moderate => {
                    for o in 0..blocks.min(self.cfg.dense_l1_blocks) {
                        if !entry.footprint.get(o) {
                            pattern.set(o, OffsetState::L2);
                        }
                    }
                }
                StreamConfidence::None => {}
            }
            if self.cfg.paths.stride_backup {
                entry.stride_flag = true;
            }
        } else if self.cfg.paths.pht
            && (!streaming_signature || self.cfg.paths.pht_handles_streaming)
        {
            let event: Vec<usize> = self.initial_event(entry).to_vec();
            match self.pht.lookup(&event) {
                Some(footprint) => {
                    // The PHT prefetches all predicted blocks into the L1D
                    // (§III-D); blocks already demanded are skipped.
                    for o in footprint.iter_set() {
                        if o < blocks && !entry.footprint.get(o) {
                            pattern.set(o, OffsetState::L1);
                        }
                    }
                }
                None => {
                    if self.cfg.paths.stride_backup {
                        entry.stride_flag = true;
                    }
                }
            }
        } else if self.cfg.paths.stride_backup {
            entry.stride_flag = true;
        }

        if !pattern.is_empty() {
            self.stats.issued += pattern.population() as u64;
            self.pb.push(region, trigger, pattern);
        }
    }

    /// Learns the pattern of a deactivated region.
    fn learn_region(&mut self, entry: &AccumEntry) {
        let streaming_signature = entry.is_streaming_signature();
        if self.cfg.paths.streaming_regions_only && !streaming_signature {
            return;
        }
        if streaming_signature && self.cfg.paths.streaming_module {
            self.streaming
                .learn(entry.trigger_pc, entry.footprint.is_full());
            return;
        }
        if self.cfg.paths.pht && (!streaming_signature || self.cfg.paths.pht_handles_streaming) {
            let k = self.accesses_required();
            if entry.initial_offsets.len() >= k {
                let event: Vec<usize> = entry.initial_offsets[..k].to_vec();
                self.pht.learn(&event, entry.footprint.clone());
            }
        }
    }

    /// Stage-2 / backup: region-based stride promotion.
    fn stride_promotion(
        &mut self,
        region: u64,
        entry: &AccumEntry,
        prev_stride: i64,
        cur_stride: i64,
    ) {
        if !self.cfg.paths.stride_backup || !entry.stride_flag {
            return;
        }
        if prev_stride != cur_stride || cur_stride == 0 {
            return;
        }
        let blocks = self.cfg.blocks_per_region() as i64;
        let mut offsets = Vec::with_capacity(self.cfg.stride_promote);
        for i in 0..self.cfg.stride_promote as i64 {
            let o = entry.last_offset as i64 + cur_stride * (self.cfg.stride_skip as i64 + 1 + i);
            if o >= 0 && o < blocks {
                offsets.push(o as usize);
            }
        }
        if !offsets.is_empty() {
            self.stats.issued += offsets.len() as u64;
            self.pb.promote(region, &offsets);
        }
    }

    /// Handles an access to a region already tracked in the AT.
    fn tracked_access(&mut self, region: u64, offset: usize) {
        let max_initial = self.accesses_required().max(2);
        let Some(mut entry) = self.at.remove(region) else {
            return;
        };
        let (prev, cur) = entry.record_access(offset, max_initial);
        if !entry.prefetch_triggered && entry.initial_offsets.len() >= self.accesses_required() {
            self.awaken_prefetch(region, &mut entry);
        }
        self.stride_promotion(region, &entry, prev, cur);
        if let Some((victim_region, victim)) = self.at.insert(region, entry) {
            debug_assert_ne!(victim_region, region);
            self.learn_region(&victim);
        }
    }

    /// Handles the graduation of a region from FT to AT on its second
    /// distinct access.
    fn activate_region(&mut self, region: u64, ft_entry: FilterEntry, second_offset: usize) {
        let mut entry = AccumEntry::new(
            self.cfg.blocks_per_region(),
            ft_entry.trigger_pc,
            ft_entry.trigger_offset,
            second_offset,
        );
        if self.accesses_required() <= 2 {
            self.awaken_prefetch(region, &mut entry);
        }
        if let Some((_, victim)) = self.at.insert(region, entry) {
            self.learn_region(&victim);
        }
    }
}

impl Default for Gaze {
    fn default() -> Self {
        Self::new()
    }
}

impl Prefetcher for Gaze {
    fn name(&self) -> &str {
        &self.name
    }

    fn on_access(&mut self, access: &DemandAccess, _cache_hit: bool, _sink: &mut RequestSink) {
        // Gaze trains on loads only (§III-A).
        if !access.kind.is_load() {
            return;
        }
        self.stats.accesses += 1;
        let region = self.geom.region_of(access.addr).raw();
        let offset = self.geom.offset_of(access.addr);

        if self.at.contains(region) {
            self.tracked_access(region, offset);
        } else if let Some(ft_entry) = self.ft.get(region) {
            if ft_entry.trigger_offset != offset {
                self.ft.remove(region);
                self.activate_region(region, ft_entry, offset);
            }
        } else {
            self.ft.insert(
                region,
                FilterEntry {
                    trigger_pc: hash_pc(access.pc),
                    trigger_offset: offset,
                },
            );
            // The trigger-only characterization (the `Offset` baseline)
            // awakens prefetching on the very first access to a region.
            if self.cfg.characterization == Characterization::TriggerOnly && self.cfg.paths.pht {
                if let Some(footprint) = self.pht.lookup(&[offset]) {
                    let blocks = self.cfg.blocks_per_region();
                    let mut pattern = PrefetchPattern::new(blocks);
                    for o in footprint.iter_set() {
                        if o < blocks && o != offset {
                            pattern.set(o, OffsetState::L1);
                        }
                    }
                    if !pattern.is_empty() {
                        self.stats.issued += pattern.population() as u64;
                        self.pb.push(region, offset, pattern);
                    }
                }
            }
        }
        // Requests are issued via the Prefetch Buffer on `tick`.
    }

    fn on_evict(&mut self, block: BlockAddr) {
        let region = self.geom.region_of_block(block).raw();
        if let Some(entry) = self.at.remove(region) {
            self.learn_region(&entry);
        }
    }

    fn tick(&mut self, sink: &mut RequestSink) {
        self.pb.drain_into(sink);
    }

    fn storage_bits(&self) -> u64 {
        self.cfg.storage_breakdown_bits().total_bits()
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prefetch_common::prefetcher::PrefetcherExt;
    use prefetch_common::request::{FillLevel, PrefetchRequest};

    /// Feeds `offsets` of `region` (4 KB regions) as loads with PC `pc` and
    /// returns every request produced (via on_access and tick).
    fn feed(gaze: &mut Gaze, pc: u64, region: u64, offsets: &[usize]) -> Vec<PrefetchRequest> {
        let mut out = Vec::new();
        for &o in offsets {
            let addr = region * 4096 + (o as u64) * 64;
            out.extend(gaze.on_access_vec(&DemandAccess::load(pc, addr), false));
            // Drain generously so tests observe the full pattern.
            for _ in 0..64 {
                out.extend(gaze.tick_vec());
            }
        }
        out
    }

    /// Deactivates a region by evicting one of its blocks from the cache.
    fn deactivate(gaze: &mut Gaze, region: u64) {
        gaze.on_evict(BlockAddr::new(region * 64));
    }

    fn offsets_of(reqs: &[PrefetchRequest]) -> Vec<usize> {
        let geom = RegionGeometry::gaze_default();
        reqs.iter()
            .map(|r| geom.offset_of(r.block.base_addr()))
            .collect()
    }

    #[test]
    fn no_prefetch_without_learned_pattern_or_stride() {
        let mut g = Gaze::new();
        // Irregular offsets: no PHT experience and no matching strides, so
        // neither the pattern path nor the stride backup may fire.
        let reqs = feed(&mut g, 0x400, 10, &[5, 9, 20, 2]);
        assert!(
            reqs.is_empty(),
            "an untrained Gaze must not prefetch, got {reqs:?}"
        );
    }

    #[test]
    fn learned_pattern_replayed_on_matching_event() {
        let mut g = Gaze::new();
        // Region A: accesses 5, 9, 13, 17 -> learn pattern for event (5, 9).
        feed(&mut g, 0x400, 1, &[5, 9, 13, 17]);
        deactivate(&mut g, 1);
        // Region B triggers with the same event (5 then 9): the learned
        // footprint {5,9,13,17} is predicted; already-seen blocks excluded.
        let reqs = feed(&mut g, 0x400, 2, &[5, 9]);
        let mut offs = offsets_of(&reqs);
        offs.sort_unstable();
        assert_eq!(offs, vec![13, 17]);
        assert!(reqs.iter().all(|r| r.fill_level == FillLevel::L1));
    }

    #[test]
    fn strict_matching_rejects_reordered_event() {
        let mut g = Gaze::new();
        feed(&mut g, 0x400, 1, &[5, 9, 13, 17]);
        deactivate(&mut g, 1);
        // Same two blocks in the opposite temporal order: no prediction.
        let reqs = feed(&mut g, 0x400, 2, &[9, 5]);
        assert!(reqs.is_empty());
    }

    #[test]
    fn strict_matching_rejects_different_second_offset() {
        let mut g = Gaze::new();
        feed(&mut g, 0x400, 1, &[5, 9, 13, 17]);
        deactivate(&mut g, 1);
        let reqs = feed(&mut g, 0x400, 2, &[5, 10]);
        assert!(
            reqs.is_empty(),
            "partial (trigger-only) match must not awaken prefetching"
        );
    }

    #[test]
    fn one_bit_regions_never_learn_patterns() {
        let mut g = Gaze::new();
        // Region touched once, then deactivated: FT filters it out.
        feed(&mut g, 0x400, 1, &[7]);
        deactivate(&mut g, 1);
        let reqs = feed(&mut g, 0x400, 2, &[7, 8]);
        assert!(reqs.is_empty());
    }

    #[test]
    fn dense_streaming_uses_two_stage_control() {
        let mut g = Gaze::new();
        // Train: several regions fully swept starting at block 0 then 1.
        for region in 1..=6u64 {
            let all: Vec<usize> = (0..64).collect();
            feed(&mut g, 0x400, region, &all);
            deactivate(&mut g, region);
        }
        // A new region with the streaming signature and a dense trigger PC
        // gets the high-aggressiveness pattern: 16 blocks to L1, rest to L2.
        let reqs = feed(&mut g, 0x400, 100, &[0, 1]);
        let l1 = reqs
            .iter()
            .filter(|r| r.fill_level == FillLevel::L1)
            .count();
        let l2 = reqs
            .iter()
            .filter(|r| r.fill_level == FillLevel::L2)
            .count();
        assert_eq!(
            l1 + l2,
            62,
            "all remaining blocks of the region are prefetched"
        );
        assert_eq!(
            l1, 14,
            "first 16 blocks (minus the 2 already accessed) go to L1"
        );
        assert_eq!(l2, 48);
    }

    #[test]
    fn unknown_pc_with_low_counter_does_not_stream_prefetch() {
        let mut g = Gaze::new();
        // One dense region is not enough to saturate confidence for unknown PCs.
        let all: Vec<usize> = (0..64).collect();
        feed(&mut g, 0x400, 1, &all);
        deactivate(&mut g, 1);
        let reqs = feed(&mut g, 0x999, 50, &[0, 1]);
        assert!(
            reqs.is_empty(),
            "unknown PC with unsaturated DC must refrain from prefetching"
        );
    }

    #[test]
    fn non_dense_streaming_regions_decay_confidence() {
        let mut g = Gaze::new();
        let all: Vec<usize> = (0..64).collect();
        for region in 1..=8u64 {
            feed(&mut g, 0x400, region, &all);
            deactivate(&mut g, region);
        }
        // Now several streaming-signature regions that are NOT dense.
        for region in 20..=40u64 {
            feed(&mut g, 0x500, region, &[0, 1, 2, 3]);
            deactivate(&mut g, region);
        }
        // Unknown PC: the dense counter has decayed, so no stream prefetch.
        let reqs = feed(&mut g, 0x777, 99, &[0, 1]);
        assert!(reqs.is_empty());
    }

    #[test]
    fn stride_backup_promotes_after_matching_strides() {
        let mut g = Gaze::new();
        // Event (3,4) unknown -> PHT miss -> stride_flag armed. Each further
        // access with two matching unit strides promotes the next 4 blocks
        // with 2 skipped: at access 5 -> {8..11}, at access 6 -> {9..12}.
        let reqs = feed(&mut g, 0x400, 7, &[3, 4, 5, 6]);
        let mut offs = offsets_of(&reqs);
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs, vec![8, 9, 10, 11, 12]);
        assert!(reqs.iter().all(|r| r.fill_level == FillLevel::L1));
    }

    #[test]
    fn stride_backup_handles_non_unit_strides() {
        let mut g = Gaze::new();
        let reqs = feed(&mut g, 0x400, 7, &[0, 2, 4, 6]);
        // Trigger 0, second 2 -> not the streaming signature; PHT miss ->
        // backup armed; strides (2,2) at accesses 4 and 6 promote
        // {10,12,14,16} and {12,14,16,18}.
        let mut offs = offsets_of(&reqs);
        offs.sort_unstable();
        offs.dedup();
        assert_eq!(offs, vec![10, 12, 14, 16, 18]);
    }

    #[test]
    fn offset_variant_awakens_on_first_access() {
        let mut g = Gaze::with_config_and_name(GazeConfig::offset_only(), "offset");
        feed(&mut g, 0x400, 1, &[5, 9, 13]);
        deactivate(&mut g, 1);
        // A brand-new region triggered at offset 5 predicts immediately.
        let reqs = feed(&mut g, 0x123, 2, &[5]);
        let mut offs = offsets_of(&reqs);
        offs.sort_unstable();
        assert_eq!(offs, vec![9, 13]);
    }

    #[test]
    fn streaming_only_variants_ignore_other_regions() {
        let mut g = Gaze::with_config_and_name(GazeConfig::streaming_module_only(), "sm4ss");
        feed(&mut g, 0x400, 1, &[5, 9, 13, 17]);
        deactivate(&mut g, 1);
        let reqs = feed(&mut g, 0x400, 2, &[5, 9]);
        assert!(reqs.is_empty(), "SM4SS only operates on streaming regions");
    }

    #[test]
    fn four_access_characterization_waits_longer() {
        let mut g = Gaze::with_config(GazeConfig::paper_default().with_initial_accesses(4));
        feed(&mut g, 0x400, 1, &[5, 9, 13, 17, 21]);
        deactivate(&mut g, 1);
        // Only two matching accesses: not enough to awaken with k = 4.
        let partial = feed(&mut g, 0x400, 2, &[5, 9]);
        assert!(partial.is_empty());
        // All four aligned accesses: prediction fires.
        let full = feed(&mut g, 0x400, 3, &[5, 9, 13, 17]);
        let mut offs = offsets_of(&full);
        offs.sort_unstable();
        assert_eq!(offs, vec![21]);
    }

    #[test]
    fn at_eviction_learns_pattern() {
        let mut g = Gaze::new();
        // Fill the 64-entry AT with streaming... use distinct non-streaming regions.
        feed(&mut g, 0x400, 500, &[5, 9, 13]);
        // Activate 64 more regions to evict region 500 from the AT by LRU.
        for region in 1000..1064u64 {
            feed(&mut g, 0x500, region, &[2, 3]);
        }
        // Region 500's pattern must have been learned on eviction.
        let reqs = feed(&mut g, 0x400, 2000, &[5, 9]);
        let mut offs = offsets_of(&reqs);
        offs.sort_unstable();
        assert_eq!(offs, vec![13]);
    }

    #[test]
    fn storage_matches_config() {
        let g = Gaze::new();
        assert_eq!(
            g.storage_bits(),
            GazeConfig::paper_default()
                .storage_breakdown_bits()
                .total_bits()
        );
        assert!((g.storage_bits() as f64 / 8.0 / 1024.0 - 4.46).abs() < 0.05);
    }

    #[test]
    fn stores_are_ignored() {
        let mut g = Gaze::new();
        for o in 0..10usize {
            let addr = 4096 + o as u64 * 64;
            assert!(g
                .on_access_vec(&DemandAccess::store(0x1, addr), false)
                .is_empty());
        }
        assert_eq!(g.stats().accesses, 0);
        assert!(g.tick_vec().is_empty());
    }

    #[test]
    fn vgaze_large_regions_predict_across_4kb_boundaries() {
        let cfg = GazeConfig::paper_default().with_region_size(16 * 1024);
        let mut g = Gaze::with_config_and_name(cfg, "vgaze-16k");
        let geom = RegionGeometry::new(16 * 1024, 64);
        // Train one 16 KB region with blocks spanning two 4 KB pages.
        for &o in &[3usize, 70, 130, 200] {
            let addr = 16 * 1024 + (o as u64) * 64;
            g.on_access_vec(&DemandAccess::load(0x400, addr), false);
        }
        g.on_evict(BlockAddr::new((16 * 1024) / 64));
        // Replay the event in another 16 KB region.
        let mut reqs = Vec::new();
        for &o in &[3usize, 70] {
            let addr = 2 * 16 * 1024 + (o as u64) * 64;
            reqs.extend(g.on_access_vec(&DemandAccess::load(0x400, addr), false));
            for _ in 0..300 {
                reqs.extend(g.tick_vec());
            }
        }
        let offs: Vec<usize> = reqs
            .iter()
            .map(|r| geom.offset_of(r.block.base_addr()))
            .collect();
        assert!(
            offs.contains(&130) && offs.contains(&200),
            "cross-page offsets predicted: {offs:?}"
        );
    }
}
