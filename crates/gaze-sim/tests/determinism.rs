//! Determinism regression tests for the parallel experiment engine.
//!
//! The engine's optimizations — thread-pool fan-out and baseline
//! memoization — must both be *exact*: the parallel engine produces
//! bit-identical statistics to a fresh serial simulation of every pair.

use gaze_sim::experiments::{run_matrix, run_over, ExperimentScale};
use gaze_sim::factory::make_prefetcher;
use gaze_sim::runner::{records_for, run_single, simulate_core, RunParams};
use gaze_sim::SingleRun;
use sim_core::trace::TraceSource;
use workloads::build_workload;

/// Serial, cache-free reference: fresh simulation of both runs of a
/// pair through the unified [`simulate_core`] primitive.
fn run_uncached(trace: &dyn TraceSource, prefetcher: &str, params: &RunParams) -> SingleRun {
    SingleRun {
        workload: trace.name().to_string(),
        prefetcher: prefetcher.to_string(),
        stats: simulate_core(trace, make_prefetcher(prefetcher), None, params),
        baseline: simulate_core(trace, make_prefetcher("none"), None, params),
    }
}

fn scale() -> ExperimentScale {
    ExperimentScale {
        params: RunParams {
            warmup: 2_000,
            measured: 8_000,
            ..RunParams::test()
        },
        workloads_per_suite: 1,
    }
}

fn assert_same_runs(a: &[SingleRun], b: &[SingleRun]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.workload, y.workload);
        assert_eq!(x.prefetcher, y.prefetcher);
        // CoreStats is PartialEq over every counter — bit-identical or bust.
        assert_eq!(
            x.stats, y.stats,
            "{}/{} stats diverged",
            x.prefetcher, x.workload
        );
        assert_eq!(
            x.baseline, y.baseline,
            "{}/{} baseline diverged",
            x.prefetcher, x.workload
        );
    }
}

#[test]
fn parallel_run_over_matches_serial_uncached_reference() {
    let s = scale();
    let traces: Vec<_> = ["bwaves_s", "mcf_s", "PageRank"]
        .iter()
        .map(|n| build_workload(n, records_for(&s.params)))
        .collect();
    for prefetcher in ["gaze", "pmp", "ip-stride"] {
        // Serial reference: fresh simulation of both runs of every pair, no
        // cache, no thread pool.
        let reference: Vec<SingleRun> = traces
            .iter()
            .map(|t| run_uncached(t, prefetcher, &s.params))
            .collect();
        let parallel = run_over(&traces, prefetcher, &s);
        assert_same_runs(&parallel, &reference);
    }
}

#[test]
fn run_matrix_matches_serial_reference_and_is_repeatable() {
    let s = scale();
    let traces: Vec<_> = ["fotonik3d_s", "cassandra"]
        .iter()
        .map(|n| build_workload(n, records_for(&s.params)))
        .collect();
    let prefetchers = ["gaze", "vberti"];
    let first = run_matrix(&traces, &prefetchers, &s.params);
    let second = run_matrix(&traces, &prefetchers, &s.params);
    assert_eq!(first.len(), prefetchers.len());
    for (a, b) in first.iter().zip(&second) {
        assert_same_runs(a, b);
    }
    for (pi, prefetcher) in prefetchers.iter().enumerate() {
        let reference: Vec<SingleRun> = traces
            .iter()
            .map(|t| run_uncached(t, prefetcher, &s.params))
            .collect();
        assert_same_runs(&first[pi], &reference);
    }
}

#[test]
fn memoized_baseline_is_bit_identical_to_fresh_baseline() {
    let s = scale();
    let trace = build_workload("lbm_s", records_for(&s.params));
    let cached = run_single(&trace, "gaze", &s.params);
    let fresh = run_uncached(&trace, "gaze", &s.params);
    assert_eq!(cached.stats, fresh.stats);
    assert_eq!(cached.baseline, fresh.baseline);
    // Second cached call: still identical (cache hit path).
    let cached_again = run_single(&trace, "gaze", &s.params);
    assert_eq!(cached_again.baseline, cached.baseline);
}
