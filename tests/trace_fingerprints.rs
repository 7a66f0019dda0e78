//! Generator guard for the fingerprint memo.
//!
//! A warm sweep keys its store lookups on trace fingerprints memoized by
//! (workload, records, `workloads::GENERATOR_VERSION`) instead of
//! synthesizing the traces again. That is only sound while a generator
//! edit always comes with a version bump: an edited generator under an
//! unchanged version would let stale memo entries (and the store rows
//! they key) stand in for the new traces.
//!
//! `tests/fixtures/trace-fingerprints.txt` pins, for every registered
//! workload at the `test` scale, the fingerprint its synthesized trace
//! had at the pinned generator version. This test re-derives every row
//! from real synthesis. If it fails, bump `workloads::GENERATOR_VERSION`
//! and replace the fixture with the table the failure prints.

use std::collections::BTreeMap;

use gaze_repro::sim_core::params::{records_for, RunParams};
use gaze_repro::sim_core::trace::source_fingerprint;
use gaze_repro::workloads::{build_workload, workload_names, Suite, GENERATOR_VERSION};

const FIXTURE: &str = include_str!("fixtures/trace-fingerprints.txt");

/// The fixture's table as this build synthesizes it.
fn derived_table(records: usize) -> String {
    let mut table = String::from("# generator workload records fingerprint\n");
    for suite in Suite::all_suites() {
        for name in workload_names(suite) {
            let fp = source_fingerprint(&build_workload(name, records));
            table.push_str(&format!("{GENERATOR_VERSION} {name} {records} {fp:016x}\n"));
        }
    }
    table
}

#[test]
fn memoized_fingerprints_match_real_synthesis() {
    let records = records_for(&RunParams::test());
    let derived = derived_table(records);
    let rows = |text: &str| -> BTreeMap<String, String> {
        text.lines()
            .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
            .map(|l| {
                let name = l.split_whitespace().nth(1).expect("workload column");
                (name.to_string(), l.trim().to_string())
            })
            .collect()
    };
    let (pinned, now) = (rows(FIXTURE), rows(&derived));
    assert_eq!(
        pinned.keys().collect::<Vec<_>>(),
        now.keys().collect::<Vec<_>>(),
        "the pinned workload set differs from workload_names(); \
         replace tests/fixtures/trace-fingerprints.txt with:\n{derived}"
    );
    let changed: Vec<&str> = now
        .iter()
        .filter(|(name, row)| pinned[*name] != **row)
        .map(|(name, _)| name.as_str())
        .collect();
    assert!(
        changed.is_empty(),
        "synthesized traces no longer match the pinned fingerprints for {changed:?}: \
         bump `workloads::GENERATOR_VERSION` (memoized fingerprints of the old \
         generator must not key the new traces), then replace \
         tests/fixtures/trace-fingerprints.txt with:\n{derived}"
    );
}
