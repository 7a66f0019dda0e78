//! The [`Prefetcher`] trait and shared prefetcher statistics.

use crate::access::DemandAccess;
use crate::addr::BlockAddr;
use crate::request::PrefetchRequest;
use crate::sink::RequestSink;

/// Counters a prefetcher may expose for debugging and experiments.
///
/// The authoritative accuracy/coverage metrics are computed by the simulator
/// from the caches' point of view; these counters only describe what the
/// prefetcher *issued*.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrefetcherStats {
    /// Demand accesses the prefetcher observed.
    pub accesses: u64,
    /// Prefetch requests the prefetcher emitted.
    pub issued: u64,
    /// Regions (or streams) for which training completed.
    pub trainings: u64,
}

/// A hardware data prefetcher attached to a cache level.
///
/// The interface mirrors the ChampSim L1D prefetcher hooks used by the paper's
/// artifact:
///
/// * [`on_access`](Prefetcher::on_access) — called for every demand load or
///   store that reaches the cache, with the hit/miss outcome; prefetch
///   requests are pushed into the caller-owned [`RequestSink`] (the hot path
///   is allocation-free: no `Vec` is created per access),
/// * [`on_fill`](Prefetcher::on_fill) — called when a block (demand or
///   prefetch) is filled into the cache,
/// * [`on_evict`](Prefetcher::on_evict) — called when a block is evicted,
/// * [`tick`](Prefetcher::tick) — called on every simulated cycle so
///   prefetchers with internal queues (e.g. Gaze's Prefetch Buffer) can
///   smooth issuance; pushes any requests that become ready into the sink.
///
/// Implementations must be deterministic: the simulator relies on identical
/// behaviour across runs for A/B experiments.
pub trait Prefetcher {
    /// Short human-readable name, e.g. `"gaze"`, `"pmp"`, `"bingo"`.
    fn name(&self) -> &str;

    /// Observes a demand access and pushes prefetch requests into `sink`.
    ///
    /// `cache_hit` reports whether the access hit in the cache the prefetcher
    /// is attached to (before any prefetch effect from this call). The sink
    /// is not cleared by the callee; the caller owns its lifecycle.
    fn on_access(&mut self, access: &DemandAccess, cache_hit: bool, sink: &mut RequestSink);

    /// Notifies the prefetcher that `block` was filled into the cache.
    ///
    /// `was_prefetch` distinguishes prefetch fills from demand fills.
    fn on_fill(&mut self, block: BlockAddr, was_prefetch: bool) {
        let _ = (block, was_prefetch);
    }

    /// Notifies the prefetcher that `block` was evicted from the cache.
    fn on_evict(&mut self, block: BlockAddr) {
        let _ = block;
    }

    /// Advances internal state by one cycle and pushes any requests that
    /// become ready into `sink` (used to smooth prefetch issuance). The
    /// simulator calls it exactly once per simulated cycle, before the
    /// cycle's demand accesses.
    fn tick(&mut self, sink: &mut RequestSink) {
        let _ = sink;
    }

    /// Total metadata storage required by the prefetcher, in bits.
    ///
    /// Used to reproduce Table I and Table IV.
    fn storage_bits(&self) -> u64;

    /// Issue-side statistics.
    fn stats(&self) -> PrefetcherStats {
        PrefetcherStats::default()
    }
}

/// Convenience adapters over [`Prefetcher`] for tests, examples and
/// diagnostics. These allocate a `Vec` per call — never use them on the
/// simulation hot path.
pub trait PrefetcherExt: Prefetcher {
    /// Runs [`on_access`](Prefetcher::on_access) through a scratch sink and
    /// returns the emitted requests.
    fn on_access_vec(&mut self, access: &DemandAccess, cache_hit: bool) -> Vec<PrefetchRequest> {
        let mut sink = RequestSink::new();
        self.on_access(access, cache_hit, &mut sink);
        sink.to_vec()
    }

    /// Runs [`tick`](Prefetcher::tick) through a scratch sink and returns the
    /// emitted requests.
    fn tick_vec(&mut self) -> Vec<PrefetchRequest> {
        let mut sink = RequestSink::new();
        self.tick(&mut sink);
        sink.to_vec()
    }
}

impl<P: Prefetcher + ?Sized> PrefetcherExt for P {}

/// A prefetcher that never prefetches; the "no prefetching" baseline.
#[derive(Debug, Default, Clone)]
pub struct NullPrefetcher {
    stats: PrefetcherStats,
}

impl NullPrefetcher {
    /// Creates a no-op prefetcher.
    pub fn new() -> Self {
        Self::default()
    }
}

impl Prefetcher for NullPrefetcher {
    fn name(&self) -> &str {
        "none"
    }

    fn on_access(&mut self, _access: &DemandAccess, _cache_hit: bool, _sink: &mut RequestSink) {
        self.stats.accesses += 1;
    }

    fn storage_bits(&self) -> u64 {
        0
    }

    fn stats(&self) -> PrefetcherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_prefetcher_never_issues() {
        let mut p = NullPrefetcher::new();
        let mut sink = RequestSink::new();
        for i in 0..100 {
            p.on_access(&DemandAccess::load(1, i * 64), i % 2 == 0, &mut sink);
            assert!(sink.is_empty());
        }
        p.tick(&mut sink);
        assert!(sink.is_empty());
        assert_eq!(p.stats().accesses, 100);
        assert_eq!(p.storage_bits(), 0);
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn ext_helpers_collect_requests() {
        let mut p = NullPrefetcher::new();
        assert!(p
            .on_access_vec(&DemandAccess::load(1, 64), false)
            .is_empty());
        assert!(p.tick_vec().is_empty());
    }
}
