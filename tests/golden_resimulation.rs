//! Cold counterpart of `golden_figures.rs`.
//!
//! `golden_figures.rs` proves the committed store still *serves* the
//! fixture CSVs without simulating. This test proves the simulator still
//! *computes* them: it re-simulates fig06 (every main prefetcher against
//! the no-prefetching baseline, single core) at the `test` scale with no
//! results store and requires `tests/fixtures/fig06.csv` byte for byte.
//! Any change to the core, cache, hierarchy, DRAM or prefetcher models
//! that moves a single counter fails here.
//!
//! It lives in its own test binary because the simulated-instruction
//! counter and the results store are process-global: running next to the
//! zero-simulation assertions of `golden_figures.rs` would race them.

use gaze_repro::gaze_sim::experiments::{run_experiment, ExperimentScale};
use gaze_repro::gaze_sim::runner::simulated_instructions;

#[test]
fn fig06_resimulates_byte_identically_to_the_golden_csv() {
    let scale = ExperimentScale::named("test").expect("test scale");
    let before = simulated_instructions();
    let csv: String = run_experiment("fig06", &scale)
        .iter()
        .map(|t| t.to_csv())
        .collect();
    assert!(
        simulated_instructions() > before,
        "fig06 must be simulated here, not served from a results store"
    );
    assert_eq!(
        csv,
        include_str!("fixtures/fig06.csv"),
        "a cold fig06 simulation must reproduce tests/fixtures/fig06.csv byte for byte"
    );
}
