//! Process-global `gzr_*` metric series for the store.
//!
//! Every [`ResultsStore`](crate::ResultsStore) instance in the process
//! contributes to one shared family set (registered lazily in the
//! [`gaze_obs`] registry): cumulative I/O counters, index effectiveness
//! (bloom hit/miss), and flush/compaction duration histograms. Per-store
//! snapshots stay on the store itself (`records_decoded()` etc.); these
//! series exist so `/metrics` can expose store behaviour without holding
//! a store lock.

use std::sync::OnceLock;

use gaze_obs::metrics::{registry, Counter, Histogram};

/// The store-layer metric handles, registered once per process.
pub(crate) struct StoreMetrics {
    /// Point lookups whose bloom filter admitted the segment.
    pub bloom_hits: Counter,
    /// Point lookups short-circuited by the bloom filter.
    pub bloom_misses: Counter,
    /// Positioned single-record reads (lazy lookups).
    pub preads: Counter,
    /// Records decoded from disk (point reads + full scans).
    pub records_decoded: Counter,
    /// Record reads that failed and were treated as misses.
    pub read_errors: Counter,
    /// `.gzx` sidecars rejected at open (corrupt/stale; segment scanned).
    pub sidecars_rejected: Counter,
    /// Fingerprint memo files rejected at load (re-synthesized instead).
    pub memos_rejected: Counter,
    /// Wall time of flushes that persisted at least one record.
    pub flush_duration_us: Histogram,
    /// Wall time of compactions that actually merged segments.
    pub compact_duration_us: Histogram,
}

/// The lazily registered process-global [`StoreMetrics`].
pub(crate) fn metrics() -> &'static StoreMetrics {
    static METRICS: OnceLock<StoreMetrics> = OnceLock::new();
    METRICS.get_or_init(|| {
        let r = registry();
        StoreMetrics {
            bloom_hits: r.counter(
                "gzr_bloom_hits_total",
                "Point lookups whose bloom filter admitted the segment",
            ),
            bloom_misses: r.counter(
                "gzr_bloom_misses_total",
                "Point lookups short-circuited by the bloom filter",
            ),
            preads: r.counter("gzr_preads_total", "Positioned single-record segment reads"),
            records_decoded: r.counter(
                "gzr_records_decoded_total",
                "Records decoded from disk across all stores",
            ),
            read_errors: r.counter(
                "gzr_read_errors_total",
                "Record reads that failed and were treated as misses",
            ),
            sidecars_rejected: r.counter(
                "gzr_sidecars_rejected_total",
                "Sidecar indexes rejected at segment load",
            ),
            memos_rejected: r.counter(
                "gzr_fingerprint_memos_rejected_total",
                "Trace-fingerprint memo files rejected at load",
            ),
            flush_duration_us: r.histogram(
                "gzr_flush_duration_us",
                "Wall time of flushes that persisted records, in microseconds",
            ),
            compact_duration_us: r.histogram(
                "gzr_compact_duration_us",
                "Wall time of compactions that merged segments, in microseconds",
            ),
        }
    })
}
