//! Integration tests of the persistent results store: write-through from
//! the parallel engine, warm-store figure regeneration with zero
//! simulation, and bit-identical round-trips.
//!
//! The store handle is process-global, so every test takes `STORE_LOCK`
//! and configures its own temporary directory (restoring "no store" on
//! drop) — tests stay correct regardless of harness thread interleaving.

use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard, OnceLock};

use gaze_sim::experiments::{run_experiment, run_matrix, ExperimentScale};
use gaze_sim::results;
use gaze_sim::runner::{
    mix_label, multicore_speedup, records_for, run_homogeneous, simulated_instructions, RunParams,
};
use results_store::{ResultsStore, RunQuery};
use sim_core::params::mix_fingerprint;
use sim_core::trace::{source_fingerprint, TraceSource};
use workloads::build_workload;

fn store_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .expect("store test lock")
}

/// Configures `dir` as the active store and deactivates it again on drop.
struct ActiveDir;

impl ActiveDir {
    fn new(dir: &std::path::Path) -> ActiveDir {
        let _ = std::fs::remove_dir_all(dir);
        results::configure(Some(dir)).expect("configure store");
        ActiveDir
    }

    /// Like [`ActiveDir::new`] but keeps the existing on-disk contents.
    fn new_existing(dir: &std::path::Path) -> ActiveDir {
        results::configure(Some(dir)).expect("configure store");
        ActiveDir
    }
}

impl Drop for ActiveDir {
    fn drop(&mut self) {
        results::configure(None).expect("deactivate store");
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("gzr-it-{}-{tag}", std::process::id()))
}

fn tiny_scale() -> ExperimentScale {
    ExperimentScale {
        params: RunParams {
            warmup: 2_000,
            measured: 8_000,
            ..RunParams::test()
        },
        workloads_per_suite: 1,
    }
}

#[test]
fn warm_store_regenerates_figures_with_zero_simulation() {
    let _guard = store_lock();
    let dir = temp_dir("warm");
    let scale = tiny_scale();

    // Cold pass: simulates and persists.
    let cold_csv: String = {
        let _active = ActiveDir::new(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig09", &scale);
        assert!(simulated_instructions() > before, "cold pass must simulate");
        tables.iter().map(|t| t.to_csv()).collect()
    };

    // Warm pass through a *reopened* store (fresh handle, data from disk).
    let warm_csv: String = {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig09", &scale);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every run without simulating"
        );
        tables.iter().map(|t| t.to_csv()).collect()
    };

    assert_eq!(
        cold_csv, warm_csv,
        "store-served figures must be byte-identical to simulated ones"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// The warm-store acceptance criterion for the multi-core path: Fig. 13
/// (multi-level, persisted as v1 rows keyed by the combined `l1+l2`
/// name) regenerates from a reopened store with zero simulation,
/// byte-identical to the cold pass.
#[test]
fn warm_store_regenerates_fig13_with_zero_simulation() {
    let _guard = store_lock();
    let dir = temp_dir("warm-fig13");
    let scale = tiny_scale();

    let cold_csv: String = {
        let _active = ActiveDir::new(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig13", &scale);
        assert!(simulated_instructions() > before, "cold pass must simulate");
        tables.iter().map(|t| t.to_csv()).collect()
    };

    let warm_csv: String = {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let tables = run_experiment("fig13", &scale);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every multi-level run without simulating"
        );
        tables.iter().map(|t| t.to_csv()).collect()
    };

    assert_eq!(cold_csv, warm_csv, "byte-identical fig13 from the store");
    std::fs::remove_dir_all(&dir).ok();
}

/// Multi-core runs (heterogeneous, homogeneous and their shared "none"
/// baseline) persist as v2 mix records and are served back bit-identically
/// with zero simulation after a reopen.
#[test]
fn multicore_runs_round_trip_through_the_store() {
    let _guard = store_lock();
    let dir = temp_dir("multicore");
    let params = RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    };
    let t1 = build_workload("bwaves_s", records_for(&params));
    let t2 = build_workload("mcf_s", records_for(&params));

    // Cold: simulate a heterogeneous pair and a homogeneous pair.
    let (cold_het, cold_base, cold_speedup) = {
        let _active = ActiveDir::new(&dir);
        let out = multicore_speedup(&[&t1, &t2], "gaze", &params);
        results::flush();
        out
    };
    let cold_homo = {
        let _active = ActiveDir::new_existing(&dir);
        let report = run_homogeneous(&t1, "pmp", 2, &params);
        results::flush();
        report
    };

    // The v2 rows are durable and typed correctly.
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 0, "no single-core rows in this sweep");
    assert_eq!(store.mix_len(), 3, "het gaze + het none + homo pmp");
    let het_fp = mix_fingerprint(&[source_fingerprint(&t1), source_fingerprint(&t2)]);
    let keyed = params.with_cores(2).fingerprint();
    let rec = store.get_mix(het_fp, keyed, "gaze").expect("het row");
    assert_eq!(rec.label, mix_label(&[&t1 as &dyn TraceSource, &t2]));
    assert_eq!(rec.report, cold_het, "bit-identical per-core counters");
    let base = store.get_mix(het_fp, keyed, "none").expect("baseline row");
    assert_eq!(base.report, cold_base);
    assert_eq!(rec.speedup_over(&base), cold_speedup);

    // Warm: a fresh process (handle) serves everything with zero
    // simulation, bit-identically. The in-process baseline cache would
    // also hit, so drive it cold through a *new* store handle.
    {
        let _active = ActiveDir::new_existing(&dir);
        let before = simulated_instructions();
        let (warm_het, warm_base, warm_speedup) = multicore_speedup(&[&t1, &t2], "gaze", &params);
        let warm_homo = run_homogeneous(&t1, "pmp", 2, &params);
        assert_eq!(
            simulated_instructions(),
            before,
            "a warm store must serve every mix without simulating"
        );
        assert_eq!(warm_het, cold_het);
        assert_eq!(warm_base, cold_base);
        assert_eq!(warm_speedup, cold_speedup);
        assert_eq!(warm_homo, cold_homo);
    }
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn parallel_engine_write_through_persists_every_pair() {
    let _guard = store_lock();
    let dir = temp_dir("parallel");
    let params = RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    };
    let traces = [
        build_workload("bwaves_s", records_for(&params)),
        build_workload("mcf_s", records_for(&params)),
        build_workload("PageRank", records_for(&params)),
    ];
    let prefetchers = ["gaze", "pmp", "ip-stride"];
    let matrix = {
        let _active = ActiveDir::new(&dir);
        run_matrix(&traces, &prefetchers, &params)
    };

    // Every (prefetcher × trace) pair landed in the store, durably.
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), prefetchers.len() * traces.len());
    assert_eq!(store.pending_len(), 0, "run_matrix flushes");
    for (pi, prefetcher) in prefetchers.iter().enumerate() {
        for (ti, trace) in traces.iter().enumerate() {
            let rec = store
                .get(source_fingerprint(trace), params.fingerprint(), prefetcher)
                .unwrap_or_else(|| panic!("missing {prefetcher} × {}", trace.name()));
            assert_eq!(rec.stats, matrix[pi][ti].stats, "bit-identical stats");
            assert_eq!(rec.baseline, matrix[pi][ti].baseline);
            assert_eq!(rec.speedup(), matrix[pi][ti].speedup());
        }
    }

    // The typed query API slices the matrix both ways.
    let per_prefetcher = store.query(&RunQuery {
        prefetcher: Some("gaze".into()),
        ..RunQuery::default()
    });
    assert_eq!(per_prefetcher.len(), traces.len());
    let per_workload = store.query(&RunQuery {
        workload: Some("mcf_s".into()),
        params_fingerprint: Some(params.fingerprint()),
        ..RunQuery::default()
    });
    assert_eq!(per_workload.len(), prefetchers.len());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn rerunning_a_sweep_adds_no_duplicate_rows() {
    let _guard = store_lock();
    let dir = temp_dir("rerun");
    let params = RunParams {
        warmup: 1_000,
        measured: 4_000,
        ..RunParams::test()
    };
    let traces = [build_workload("bwaves_s", records_for(&params))];
    {
        let _active = ActiveDir::new(&dir);
        run_matrix(&traces, &["gaze", "pmp"], &params);
        run_matrix(&traces, &["gaze", "pmp"], &params);
    }
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 2, "second sweep was served from the store");
    assert_eq!(store.conflicting_appends(), 0);

    // A different scale is a different key: the store accumulates both.
    let other = RunParams {
        warmup: 1_000,
        measured: 5_000,
        ..RunParams::test()
    };
    {
        let _active = ActiveDir::new_existing(&dir);
        let other_traces = [build_workload("bwaves_s", records_for(&other))];
        run_matrix(&other_traces, &["gaze"], &other);
    }
    let store = ResultsStore::open(&dir).expect("reopen");
    assert_eq!(store.len(), 3);
    std::fs::remove_dir_all(&dir).ok();
}

// --- Warm path without trace synthesis --------------------------------
//
// The engine plans on trace fingerprints: a packed file's own, else the
// fingerprint memo's, else a synthesized trace's. These tests pin what a
// warm run must not do (synthesize a trace) and what the memo must never
// do (shadow a packed file, or serve a wrong fingerprint uncorrected).

use gaze_sim::spec::{builtin, plan, plan_specs};
use gaze_sim::trace_store::{clear_fingerprint_memo, traces_built};
use results_store::memo::{memo_path, merge_memo, read_memo, Memo, MemoKey};

/// The fig09 sweep at the tiny scale: 15 single-core jobs over 5
/// workloads (one per main suite).
fn fig09_csv(scale: &ExperimentScale) -> String {
    run_experiment("fig09", scale)
        .iter()
        .map(|t| t.to_csv())
        .collect()
}

fn fig09_plan(scale: &ExperimentScale) -> plan::JobPlan {
    let spec = builtin::builtin_spec("fig09").expect("builtin fig09");
    plan_specs(&[&spec], scale)
}

fn memo_key(workload: &str, scale: &ExperimentScale) -> MemoKey {
    MemoKey {
        workload: workload.to_string(),
        records: records_for(&scale.params) as u64,
        generator: workloads::GENERATOR_VERSION,
    }
}

fn counter(name: &'static str, help: &'static str) -> u64 {
    gaze_obs::metrics::registry().counter(name, help).get()
}

fn memo_mismatches() -> u64 {
    counter(
        "gaze_sim_fingerprint_memo_mismatches_total",
        "Memoized trace fingerprints contradicted by the synthesized trace",
    )
}

fn memos_rejected() -> u64 {
    counter(
        "gzr_fingerprint_memos_rejected_total",
        "Trace-fingerprint memo files rejected at load",
    )
}

/// Cold fig09 into a fresh `dir` with the in-process memo cleared, so the
/// run synthesizes every workload and writes the memo file. Returns the
/// CSV.
fn cold_fig09(dir: &std::path::Path, scale: &ExperimentScale) -> String {
    clear_fingerprint_memo();
    let _active = ActiveDir::new(dir);
    let built = traces_built();
    let csv = fig09_csv(scale);
    assert_eq!(traces_built() - built, 5, "one synthesis per workload");
    assert_eq!(read_memo(dir).expect("memo written").len(), 5);
    csv
}

/// What a warm fig09 in a fresh process over `dir` does: (traces built,
/// instructions simulated, CSV).
fn warm_fig09(dir: &std::path::Path, scale: &ExperimentScale) -> (u64, u64, String) {
    clear_fingerprint_memo();
    let _active = ActiveDir::new_existing(dir);
    let (built, instr) = (traces_built(), simulated_instructions());
    let csv = fig09_csv(scale);
    (
        traces_built() - built,
        simulated_instructions() - instr,
        csv,
    )
}

#[test]
fn warm_run_from_the_memo_file_builds_no_trace() {
    let _guard = store_lock();
    let dir = temp_dir("memo-warm");
    let scale = tiny_scale();
    let cold = cold_fig09(&dir, &scale);
    let (built, instr, warm) = warm_fig09(&dir, &scale);
    assert_eq!(built, 0, "a warm store and memo synthesize nothing");
    assert_eq!(instr, 0, "a warm store simulates nothing");
    assert_eq!(warm, cold, "byte-identical CSV");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn warm_dry_run_builds_no_trace() {
    let _guard = store_lock();
    let dir = temp_dir("memo-dry");
    let scale = tiny_scale();
    cold_fig09(&dir, &scale);
    clear_fingerprint_memo();
    let _active = ActiveDir::new_existing(&dir);
    let built = traces_built();
    let report = plan::dry_run(&fig09_plan(&scale), &scale);
    assert_eq!(traces_built(), built);
    assert_eq!(report.traces_built, 0);
    assert_eq!((report.warm, report.cold), (15, 0));
    std::fs::remove_dir_all(&dir).ok();
}

/// Restores `GAZE_TRACE_DIR` on drop. Every test in this binary holds
/// `store_lock`, so no other test reads the variable meanwhile.
struct TraceDirVar;

impl Drop for TraceDirVar {
    fn drop(&mut self) {
        std::env::remove_var("GAZE_TRACE_DIR");
    }
}

#[test]
fn a_packed_trace_wins_over_the_memo() {
    let _guard = store_lock();
    let dir = temp_dir("memo-packed");
    let packed = temp_dir("memo-packed-traces");
    let scale = tiny_scale();
    cold_fig09(&dir, &scale);
    let workload = "bwaves-06";
    let memoized = read_memo(&dir).expect("memo")[&memo_key(workload, &scale)];

    // Different content under the workload's name: half the records.
    std::fs::create_dir_all(&packed).expect("trace dir");
    let file = packed.join(workloads::pack::gzt_file_name(workload));
    let half = records_for(&scale.params) / 2;
    workloads::pack::pack_workload(workload, half, &file).expect("pack");
    let packed_fp = source_fingerprint(&workloads::build_workload(workload, half));
    assert_ne!(packed_fp, memoized);

    std::env::set_var("GAZE_TRACE_DIR", &packed);
    let _var = TraceDirVar;
    let _active = ActiveDir::new_existing(&dir);
    let (built, instr) = (traces_built(), simulated_instructions());
    fig09_csv(&scale);
    assert_eq!(
        traces_built(),
        built,
        "the packed file is streamed, not built"
    );
    assert!(
        simulated_instructions() > instr,
        "the packed trace's jobs are new keys and must simulate"
    );
    let store = ResultsStore::open(&dir).expect("reopen");
    let row = store
        .get(packed_fp, scale.params.fingerprint(), "gaze")
        .expect("rows keyed by the packed file's own fingerprint");
    assert_eq!(row.workload, workload);
    assert_eq!(
        read_memo(&dir).expect("memo")[&memo_key(workload, &scale)],
        memoized,
        "a packed file's fingerprint never enters the memo"
    );
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&packed).ok();
}

#[test]
fn a_wrong_memo_entry_is_detected_counted_and_corrected() {
    let _guard = store_lock();
    let dir = temp_dir("memo-wrong");
    let scale = tiny_scale();
    let cold = cold_fig09(&dir, &scale);
    let key = memo_key("bwaves-06", &scale);
    let right = read_memo(&dir).expect("memo")[&key];
    let mut wrong = Memo::new();
    wrong.insert(key.clone(), right ^ 0x5a5a);
    merge_memo(&dir, &wrong).expect("inject a wrong entry");

    let mismatches = memo_mismatches();
    let (built, instr, warm) = warm_fig09(&dir, &scale);
    assert_eq!(built, 1, "only the workload whose jobs missed is built");
    assert_eq!(memo_mismatches() - mismatches, 1, "the mismatch is counted");
    assert_eq!(
        instr, 0,
        "under its real fingerprint the workload is still stored"
    );
    assert_eq!(warm, cold, "byte-identical CSV despite the wrong entry");
    assert_eq!(
        read_memo(&dir).expect("memo")[&key],
        right,
        "the memo file is corrected"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_rejected_memo_file_is_rebuilt_and_the_warm_run_stays_correct() {
    let _guard = store_lock();
    let dir = temp_dir("memo-torn");
    let scale = tiny_scale();
    let cold = cold_fig09(&dir, &scale);
    let path = memo_path(&dir);
    let bytes = std::fs::read(&path).expect("memo bytes");
    std::fs::write(&path, &bytes[..bytes.len() / 2]).expect("tear the memo");

    let rejected = memos_rejected();
    let (built, instr, warm) = warm_fig09(&dir, &scale);
    assert!(memos_rejected() > rejected, "the torn memo is counted");
    assert_eq!(built, 5, "every fingerprint is re-derived by synthesis");
    assert_eq!(instr, 0, "the store itself is intact");
    assert_eq!(warm, cold);
    assert_eq!(std::fs::read(&path).expect("rebuilt memo"), bytes);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_failed_memo_write_never_fails_a_sweep() {
    use results_store::fault::{self, FaultKind};
    let _guard = store_lock();
    let scale = tiny_scale();
    let reference = cold_fig09(&temp_dir("memo-fault-ref"), &scale);
    std::fs::remove_dir_all(temp_dir("memo-fault-ref")).ok();
    let _fx = fault::exclusive();
    for point in [
        "gzf.memo.create",
        "gzf.memo.write",
        "gzf.memo.fsync",
        "gzf.memo.rename",
    ] {
        let dir = temp_dir(&format!("memo-fault-{point}"));
        clear_fingerprint_memo();
        fault::arm(point, FaultKind::Error(std::io::ErrorKind::Other));
        let cold = {
            let _active = ActiveDir::new(&dir);
            fig09_csv(&scale)
        };
        fault::clear_all();
        assert_eq!(cold, reference, "{point}: the sweep itself is unaffected");
        assert!(!memo_path(&dir).exists(), "{point}: no memo was renamed in");
        assert_eq!(ResultsStore::open(&dir).expect("reopen").len(), 15);
        // Without a memo the next run re-derives the fingerprints by
        // synthesis and still serves everything from the store.
        let (built, instr, warm) = warm_fig09(&dir, &scale);
        assert_eq!((built, instr), (5, 0), "{point}");
        assert_eq!(warm, reference, "{point}");
        assert!(
            memo_path(&dir).exists(),
            "{point}: the retry wrote the memo"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
