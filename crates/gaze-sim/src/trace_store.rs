//! Where experiment traces come from: in-memory generators or packed GZT
//! files streamed from disk.
//!
//! Every figure asks this module for its workloads. By default the
//! synthetic generator builds the trace in memory; when the
//! `GAZE_TRACE_DIR` environment variable points at a directory of packed
//! `<workload>.gzt` files (produced by the `trace-pack` binary), the
//! matching file is streamed from disk instead — through the bounded
//! chunk reader of [`sim_core::gzt`], never materialising the pass. The
//! two paths yield identical record streams, so every report is
//! bit-identical either way (asserted by the streaming determinism tests).
//!
//! The experiment engine does not need a trace to look a job up in the
//! results store, only its fingerprint. The engine resolves each
//! workload's fingerprint once per plan — from a packed file when one
//! exists, else from the **fingerprint memo** (process-global, backed by
//! the store directory's [`results_store::memo`] file), else by
//! synthesizing the trace — and materializes a trace only for the jobs
//! the store misses. A warm sweep therefore synthesizes nothing.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

use results_store::memo::{self, Memo, MemoKey};
use sim_core::gzt::GztTrace;
use sim_core::trace::{Trace, TraceReader, TraceSource};
use workloads::{build_workload, GENERATOR_VERSION};

/// A trace from either source, usable anywhere a
/// [`TraceSource`] is expected.
#[derive(Debug, Clone)]
pub enum AnyTrace {
    /// The whole pass held in memory (synthetic generator output).
    Memory(Trace),
    /// A packed GZT file streamed through a bounded chunk buffer.
    File(GztTrace),
}

impl AnyTrace {
    /// Whether this trace streams from disk.
    pub fn is_streamed(&self) -> bool {
        matches!(self, AnyTrace::File(_))
    }
}

impl TraceSource for AnyTrace {
    fn name(&self) -> &str {
        match self {
            AnyTrace::Memory(t) => t.name(),
            AnyTrace::File(t) => TraceSource::name(t),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyTrace::Memory(t) => t.len(),
            AnyTrace::File(t) => TraceSource::len(t),
        }
    }

    fn instructions_per_pass(&self) -> u64 {
        match self {
            AnyTrace::Memory(t) => t.instructions_per_pass(),
            AnyTrace::File(t) => TraceSource::instructions_per_pass(t),
        }
    }

    fn reader(&self) -> Box<dyn TraceReader + '_> {
        match self {
            AnyTrace::Memory(t) => TraceSource::reader(t),
            AnyTrace::File(t) => TraceSource::reader(t),
        }
    }

    fn fingerprint(&self) -> u64 {
        // Delegate so the file variant hits GztTrace's memoized override.
        match self {
            AnyTrace::Memory(t) => TraceSource::fingerprint(t),
            AnyTrace::File(t) => TraceSource::fingerprint(t),
        }
    }
}

/// The packed-trace directory, if `GAZE_TRACE_DIR` is set and non-empty.
pub fn trace_dir() -> Option<PathBuf> {
    std::env::var_os("GAZE_TRACE_DIR")
        .filter(|v| !v.is_empty())
        .map(PathBuf::from)
}

/// Synthetic traces built by this process (every in-memory synthesis
/// through this module).
static TRACES_BUILT: AtomicU64 = AtomicU64::new(0);

/// Synthetic traces this process has built so far. A sweep served from a
/// warm store with a warm fingerprint memo builds none.
pub fn traces_built() -> u64 {
    TRACES_BUILT.load(Ordering::Relaxed)
}

/// Synthesizes the workload in memory, counting it.
fn synthesize(name: &str, records: usize) -> AnyTrace {
    TRACES_BUILT.fetch_add(1, Ordering::Relaxed);
    gaze_obs::metrics::registry()
        .counter(
            "gaze_sim_traces_built_total",
            "Synthetic workload traces built in memory",
        )
        .inc();
    AnyTrace::Memory(build_workload(name, records))
}

/// Loads `<dir>/<name>.gzt` if `dir` is given and the file exists and
/// validates; otherwise builds the synthetic workload in memory.
///
/// A present-but-corrupt file — or one whose header names a *different*
/// workload (a copied/renamed file would otherwise silently substitute
/// another workload's trace) — is an error the caller should see, not a
/// silent fallback, so both panic with the file path.
pub fn load_from_dir_or_build(dir: Option<&Path>, name: &str, records: usize) -> AnyTrace {
    if let Some(dir) = dir {
        let path = dir.join(workloads::pack::gzt_file_name(name));
        if path.exists() {
            let gzt = GztTrace::open(&path)
                .unwrap_or_else(|e| panic!("invalid packed trace {}: {e}", path.display()));
            assert_eq!(
                TraceSource::name(&gzt),
                name,
                "packed trace {} is named '{}' but was requested as '{name}' \
                 (misplaced or renamed file?)",
                path.display(),
                TraceSource::name(&gzt),
            );
            return AnyTrace::File(gzt);
        }
    }
    synthesize(name, records)
}

/// Whether `dir` holds a packed trace for `name` (which
/// [`load_from_dir_or_build`] would then stream instead of synthesizing).
fn packed_in(dir: Option<&Path>, name: &str) -> bool {
    dir.is_some_and(|d| d.join(workloads::pack::gzt_file_name(name)).exists())
}

/// Loads the workload from `GAZE_TRACE_DIR` when packed there, else builds
/// it in memory (the drop-in point every experiment uses).
pub fn load_or_build(name: &str, records: usize) -> AnyTrace {
    load_from_dir_or_build(trace_dir().as_deref(), name, records)
}

/// The process-global fingerprint memo: every synthetic trace
/// fingerprint this process computed or read from a store's memo file.
fn process_memo() -> &'static Mutex<Memo> {
    static MEMO: OnceLock<Mutex<Memo>> = OnceLock::new();
    MEMO.get_or_init(|| Mutex::new(Memo::new()))
}

fn memo_key(name: &str, records: usize) -> MemoKey {
    MemoKey {
        workload: name.to_string(),
        records: records as u64,
        generator: GENERATOR_VERSION,
    }
}

/// Forgets every fingerprint this process has memoized, as a fresh
/// process would start. The memo files in store directories are left
/// alone; deleting such a file is how that copy is reset.
pub fn clear_fingerprint_memo() {
    process_memo()
        .lock()
        .expect("fingerprint memo poisoned")
        .clear();
}

/// One workload of a [`PlanTraces`].
#[derive(Debug, Default)]
struct Slot {
    /// The resolved trace fingerprint (only resolved when a store is
    /// active: nothing else needs it before simulation).
    fingerprint: Option<u64>,
    /// The trace, built (or opened) at most once.
    trace: OnceLock<AnyTrace>,
}

/// The workloads of one plan: fingerprints resolved up front, traces
/// materialized on demand.
///
/// With a store directory, each workload's fingerprint is resolved once,
/// in this order:
///
/// 1. a packed GZT file in `GAZE_TRACE_DIR` (the memo never shadows one);
/// 2. the fingerprint memo, keyed by (workload, records,
///    [`GENERATOR_VERSION`]) — in process first, then the store
///    directory's memo file;
/// 3. synthesis: the trace is built, kept for simulation, and its
///    fingerprint memoized.
///
/// [`trace`](Self::trace) then builds a trace only when a job needs to
/// simulate, and checks a memoized fingerprint against the built trace:
/// a wrong entry is logged, counted in
/// `gaze_sim_fingerprint_memo_mismatches_total`, and corrected.
#[derive(Debug)]
pub(crate) struct PlanTraces {
    records: usize,
    trace_dir: Option<PathBuf>,
    store_dir: Option<PathBuf>,
    slots: HashMap<String, Slot>,
    built: AtomicUsize,
    /// Fingerprints this plan verified by synthesis, to persist.
    verified: Mutex<Memo>,
}

impl PlanTraces {
    /// Resolves `names` (in first-use order) at `records` records each.
    /// Fingerprints are resolved only when `store_dir` is given.
    pub(crate) fn resolve<'a>(
        names: impl IntoIterator<Item = &'a str>,
        records: usize,
        store_dir: Option<&Path>,
    ) -> PlanTraces {
        let mut plan = PlanTraces {
            records,
            trace_dir: trace_dir(),
            store_dir: store_dir.map(Path::to_path_buf),
            slots: HashMap::new(),
            built: AtomicUsize::new(0),
            verified: Mutex::new(Memo::new()),
        };
        let mut disk_read = false;
        for name in names {
            if plan.slots.contains_key(name) {
                continue;
            }
            let mut slot = Slot::default();
            if let Some(dir) = &plan.store_dir {
                slot.fingerprint = Some(plan.resolve_one(name, dir, &mut disk_read, &slot.trace));
            }
            plan.slots.insert(name.to_string(), slot);
        }
        plan
    }

    fn resolve_one(
        &self,
        name: &str,
        store_dir: &Path,
        disk_read: &mut bool,
        trace: &OnceLock<AnyTrace>,
    ) -> u64 {
        if packed_in(self.trace_dir.as_deref(), name) {
            return trace.get_or_init(|| self.load(name)).fingerprint();
        }
        let key = memo_key(name, self.records);
        let mut memo = process_memo().lock().expect("fingerprint memo poisoned");
        if !memo.contains_key(&key) && !*disk_read {
            *disk_read = true;
            for (k, fp) in memo::load_memo(store_dir) {
                memo.entry(k).or_insert(fp);
            }
        }
        if let Some(&fp) = memo.get(&key) {
            return fp;
        }
        drop(memo);
        let fp = trace.get_or_init(|| self.load(name)).fingerprint();
        self.remember(key, fp);
        fp
    }

    /// Loads (or synthesizes, counting it) one workload's trace.
    fn load(&self, name: &str) -> AnyTrace {
        let trace = load_from_dir_or_build(self.trace_dir.as_deref(), name, self.records);
        if !trace.is_streamed() {
            self.built.fetch_add(1, Ordering::Relaxed);
        }
        trace
    }

    /// Records a fingerprint verified by synthesis, in process and for
    /// [`persist`](Self::persist).
    fn remember(&self, key: MemoKey, fp: u64) {
        process_memo()
            .lock()
            .expect("fingerprint memo poisoned")
            .insert(key.clone(), fp);
        self.verified
            .lock()
            .expect("fingerprint memo poisoned")
            .insert(key, fp);
    }

    /// The resolved fingerprint of `name` (`None` without a store).
    pub(crate) fn fingerprint(&self, name: &str) -> Option<u64> {
        self.slots[name].fingerprint
    }

    /// The trace of `name`, built at most once per plan. A synthesized
    /// trace whose fingerprint disagrees with the memoized one corrects
    /// the memo.
    pub(crate) fn trace(&self, name: &str) -> &AnyTrace {
        let slot = &self.slots[name];
        slot.trace.get_or_init(|| {
            let trace = self.load(name);
            if let Some(memoized) = slot.fingerprint {
                let actual = trace.fingerprint();
                if actual != memoized && !trace.is_streamed() {
                    gaze_obs::metrics::registry()
                        .counter(
                            "gaze_sim_fingerprint_memo_mismatches_total",
                            "Memoized trace fingerprints contradicted by the synthesized trace",
                        )
                        .inc();
                    gaze_obs::log::warn(
                        "gaze-sim",
                        "fingerprint memo entry contradicted by synthesis; correcting it",
                        &[
                            ("workload", &name),
                            ("records", &self.records),
                            ("memoized", &format!("{memoized:016x}")),
                            ("synthesized", &format!("{actual:016x}")),
                        ],
                    );
                    self.remember(memo_key(name, self.records), actual);
                }
            }
            trace
        })
    }

    /// Traces this plan synthesized.
    pub(crate) fn built(&self) -> usize {
        self.built.load(Ordering::Relaxed)
    }

    /// Merges the fingerprints this plan verified into the store
    /// directory's memo file. A failed write is logged, never fatal: the
    /// memo is derived data, and the next run just synthesizes again.
    pub(crate) fn persist(&self) {
        let Some(dir) = &self.store_dir else { return };
        let verified = self.verified.lock().expect("fingerprint memo poisoned");
        if verified.is_empty() {
            return;
        }
        if let Err(e) = memo::merge_memo(dir, &verified) {
            gaze_obs::log::warn(
                "gaze-sim",
                "fingerprint memo write failed",
                &[("dir", &dir.display()), ("error", &e)],
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim_core::trace::source_fingerprint;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gzt-store-{}-{tag}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create temp dir");
        dir
    }

    #[test]
    fn falls_back_to_memory_without_a_dir_or_file() {
        let mem = load_from_dir_or_build(None, "bwaves_s", 3_000);
        assert!(!mem.is_streamed());
        let dir = temp_dir("nofile");
        let miss = load_from_dir_or_build(Some(&dir), "bwaves_s", 3_000);
        assert!(!miss.is_streamed());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streams_a_packed_file_identically_to_memory() {
        let dir = temp_dir("stream");
        workloads::pack::pack_workload("mcf_s", 3_000, &dir.join("mcf_s.gzt")).expect("pack");
        let streamed = load_from_dir_or_build(Some(&dir), "mcf_s", 3_000);
        assert!(streamed.is_streamed());
        let mem = load_from_dir_or_build(None, "mcf_s", 3_000);
        assert_eq!(streamed.name(), mem.name());
        assert_eq!(streamed.len(), mem.len());
        assert_eq!(
            source_fingerprint(&streamed),
            source_fingerprint(&mem),
            "streamed and in-memory record streams must be identical"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "requested as")]
    fn renamed_packed_files_fail_loudly() {
        let dir = temp_dir("renamed");
        // Pack bwaves_s but store it under mcf_s's file name.
        workloads::pack::pack_workload("bwaves_s", 2_000, &dir.join("mcf_s.gzt")).expect("pack");
        let _ = load_from_dir_or_build(Some(&dir), "mcf_s", 2_000);
    }

    #[test]
    #[should_panic(expected = "invalid packed trace")]
    fn corrupt_packed_files_fail_loudly() {
        let dir = temp_dir("corrupt");
        std::fs::write(dir.join("bwaves_s.gzt"), b"not a gzt file").expect("write");
        let _ = load_from_dir_or_build(Some(&dir), "bwaves_s", 1_000);
    }
}
