//! Benchmark harness crate.
//!
//! The figure-regeneration targets live under `benches/` (plain
//! `harness = false` binaries — the environment has no criterion):
//!
//! * `fig01_*` … `fig18_*`, `table1_*`, `table4_*` — regenerate the
//!   corresponding figure/table of the paper by calling
//!   [`gaze_sim::experiments::run_experiment`] and printing the resulting
//!   tables (scale controlled by the `GAZE_SCALE` environment variable;
//!   set `GAZE_TRACE_DIR` to stream packed GZT traces from disk instead
//!   of generating workloads in memory — see `docs/TRACES.md`),
//! * `micro_prefetcher_throughput` — microbenchmarks of prefetcher model
//!   throughput and simulator speed.
//!
//! The `sim-perf` binary (`cargo run --release -p bench --bin sim-perf`)
//! is the characterization harness: it measures every requested
//! (figure × thread count × engine mode) cell in its own child process and
//! appends one run record to the `BENCH_simperf.json` history (schema v2,
//! see `docs/PERF.md`), so the file accumulates the engine's perf
//! trajectory across PRs instead of holding a single overwritten snapshot.

use std::time::Instant;

/// Re-export of the experiment registry for convenience in scripts.
pub use gaze_sim::experiments::{experiment_names, run_experiment, ExperimentScale};

/// One measured (figure × threads × mode) characterization cell.
///
/// `mode` is one of:
/// * `"parallel"` — the full engine (thread pool, baseline memoization),
///   no results store,
/// * `"serial"` — every engine optimization off (one worker, no baseline
///   memoization),
/// * `"cold"` — the full engine writing through to an empty results store,
/// * `"warm"` — the same store re-read: every result served without
///   simulating (`simulated_instructions` is 0 when the store is fully warm).
#[derive(Debug, Clone)]
pub struct CellResult {
    /// Experiment name (e.g. `fig06`).
    pub figure: String,
    /// Engine mode (see type docs).
    pub mode: &'static str,
    /// Worker threads the cell ran with (`GAZE_THREADS`).
    pub threads: usize,
    /// Wall-clock seconds of the run.
    pub wall_seconds: f64,
    /// Instructions simulated during the run.
    pub simulated_instructions: u64,
    /// Simulator cycles advanced one at a time.
    pub cycles_stepped: u64,
}

impl CellResult {
    /// Simulated instructions per wall-clock second.
    pub fn sim_ips(&self) -> f64 {
        if self.wall_seconds <= 0.0 {
            0.0
        } else {
            self.simulated_instructions as f64 / self.wall_seconds
        }
    }

    /// Renders this cell as one line of the v2 JSON document.
    fn render(&self) -> String {
        format!(
            "{{\"figure\": \"{}\", \"mode\": \"{}\", \"threads\": {}, \
             \"wall_seconds\": {:.6}, \"simulated_instructions\": {}, \
             \"sim_instructions_per_second\": {:.1}, \"cycles_stepped\": {}}}",
            self.figure,
            self.mode,
            self.threads,
            self.wall_seconds,
            self.simulated_instructions,
            self.sim_ips(),
            self.cycles_stepped,
        )
    }
}

/// Measures one experiment in-process: wall seconds, simulated
/// instructions, and the stepped-cycle delta from the process-global
/// metrics. The tables themselves are discarded — this
/// measures the engine, not the figures.
pub fn time_experiment(name: &str, scale: &ExperimentScale) -> CellResult {
    let stepped_ctr = cycles_stepped_counter();
    let instructions_before = gaze_sim::runner::simulated_instructions();
    let stepped_before = stepped_ctr.get();
    let start = Instant::now();
    let tables = run_experiment(name, scale);
    let wall_seconds = start.elapsed().as_secs_f64();
    assert!(!tables.is_empty(), "experiment {name} produced no tables");
    CellResult {
        figure: name.to_string(),
        mode: "parallel",
        threads: gaze_sim::worker_count(),
        wall_seconds,
        simulated_instructions: gaze_sim::runner::simulated_instructions() - instructions_before,
        cycles_stepped: stepped_ctr.get() - stepped_before,
    }
}

/// The process-global stepped-cycle counter the simulator publishes into
/// (`gaze_sim_cycles_stepped_total`).
pub fn cycles_stepped_counter() -> gaze_obs::metrics::Counter {
    gaze_obs::metrics::registry().counter(
        "gaze_sim_cycles_stepped_total",
        "Simulator cycles advanced one at a time",
    )
}

/// Renders one run record of the v2 document (hand-rolled: no serde in the
/// build environment; every emitted value is numeric or a known-safe
/// identifier except the reference note, which is escaped).
///
/// `reference_seconds`, when given, records an externally measured wall
/// time for the same figure set (e.g. the pre-optimization serial engine)
/// and `reference_note` documents where that number came from.
pub fn render_run_json(
    scale_label: &str,
    host_parallelism: usize,
    unix_time: u64,
    cells: &[CellResult],
    reference_seconds: Option<f64>,
    reference_note: Option<&str>,
) -> String {
    let total: f64 = cells.iter().map(|c| c.wall_seconds).sum();
    let mut out = String::from("    {\n");
    out.push_str(&format!("      \"unix_time\": {unix_time},\n"));
    out.push_str(&format!("      \"scale\": \"{scale_label}\",\n"));
    out.push_str(&format!(
        "      \"host_parallelism\": {host_parallelism},\n"
    ));
    out.push_str("      \"cells\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str("        ");
        out.push_str(&c.render());
        out.push_str(if i + 1 < cells.len() { ",\n" } else { "\n" });
    }
    out.push_str("      ],\n");
    out.push_str(&format!("      \"total_wall_seconds\": {total:.6}"));
    if let Some(reference) = reference_seconds {
        out.push_str(&format!(
            ",\n      \"reference_wall_seconds\": {reference:.6}"
        ));
        if let Some(note) = reference_note {
            let escaped = note.replace('\\', "\\\\").replace('"', "\\\"");
            out.push_str(&format!(",\n      \"reference_note\": \"{escaped}\""));
        }
    }
    out.push_str("\n    }");
    out
}

const V2_HEADER: &str = "{\n  \"schema\": \"gaze-simperf-v2\",\n  \"runs\": [\n";
const V2_FOOTER: &str = "\n  ]\n}\n";

/// Appends a [`render_run_json`] record to an existing v2 document,
/// preserving all prior runs. A missing file, a v1 snapshot, or foreign
/// content starts a fresh history (the old single-snapshot document
/// survives in git history — v1 had no machine-appendable shape).
pub fn append_run(existing: Option<&str>, run: &str) -> String {
    if let Some(doc) = existing {
        if doc.starts_with(V2_HEADER) {
            if let Some(pos) = doc.rfind(V2_FOOTER) {
                let body = &doc[..pos];
                return format!("{body},\n{run}{V2_FOOTER}");
            }
        }
    }
    format!("{V2_HEADER}{run}{V2_FOOTER}")
}

/// Extracts, from the most recent run of a v2 document that has one, the
/// best (max across thread counts) `sim_instructions_per_second` among
/// `mode == "parallel"` cells for `figure` at `scale` — the number the CI
/// regression gate compares against.
pub fn latest_parallel_ips(doc: &str, figure: &str, scale: &str) -> Option<f64> {
    let figure_key = format!("\"figure\": \"{figure}\"");
    let scale_key = format!("\"scale\": \"{scale}\"");
    let mut latest: Option<f64> = None;
    let mut current: Option<f64> = None;
    let mut scale_matches = false;
    for line in doc.lines() {
        let t = line.trim_start();
        if t.starts_with("\"unix_time\"") {
            // New run record: bank the previous one.
            if current.is_some() {
                latest = current.take();
            }
            scale_matches = false;
        } else if t.starts_with("\"scale\"") {
            scale_matches = t.contains(&scale_key);
        } else if scale_matches && t.contains(&figure_key) && t.contains("\"mode\": \"parallel\"") {
            if let Some(ips) = extract_number(t, "\"sim_instructions_per_second\":") {
                current = Some(current.map_or(ips, |c: f64| c.max(ips)));
            }
        }
    }
    current.or(latest)
}

/// Parses the number following `key` on a single JSON line.
fn extract_number(line: &str, key: &str) -> Option<f64> {
    let start = line.find(key)? + key.len();
    let rest = line[start..].trim_start();
    let end = rest
        .find(|c: char| c != '.' && c != '-' && !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(figure: &str, mode: &'static str, threads: usize, ips_base: f64) -> CellResult {
        CellResult {
            figure: figure.into(),
            mode,
            threads,
            wall_seconds: 2.0,
            simulated_instructions: (ips_base * 2.0) as u64,
            cycles_stepped: 300,
        }
    }

    #[test]
    fn cell_computes_throughput() {
        let c = cell("fig99", "parallel", 1, 2_000_000.0);
        assert!((c.sim_ips() - 2_000_000.0).abs() < 1e-6);
    }

    #[test]
    fn v2_document_appends_and_stays_balanced() {
        let run1 = render_run_json(
            "quick",
            1,
            1_000,
            &[cell("fig06", "parallel", 1, 1_000_000.0)],
            Some(28.0),
            Some("see \"CHANGES.md\""),
        );
        let doc1 = append_run(None, &run1);
        assert!(doc1.starts_with('{') && doc1.ends_with("}\n"));
        assert!(doc1.contains("\"gaze-simperf-v2\""));
        assert_eq!(doc1.matches('{').count(), doc1.matches('}').count());

        let run2 = render_run_json(
            "quick",
            1,
            2_000,
            &[
                cell("fig06", "parallel", 1, 2_000_000.0),
                cell("fig06", "parallel", 2, 1_500_000.0),
                cell("fig06", "serial", 1, 500_000.0),
            ],
            None,
            None,
        );
        let doc2 = append_run(Some(&doc1), &run2);
        assert_eq!(doc2.matches("\"unix_time\"").count(), 2);
        assert!(doc2.contains("\"reference_note\""), "prior runs preserved");
        assert_eq!(doc2.matches('{').count(), doc2.matches('}').count());

        // A v1 snapshot cannot be appended to; the history restarts.
        let doc3 = append_run(Some("{\n  \"schema\": \"gaze-simperf-v1\"\n}\n"), &run1);
        assert_eq!(doc3.matches("\"unix_time\"").count(), 1);
    }

    #[test]
    fn gate_reads_the_latest_matching_run() {
        let run1 = render_run_json(
            "quick",
            1,
            1_000,
            &[cell("fig06", "parallel", 1, 1_000_000.0)],
            None,
            None,
        );
        let run2 = render_run_json(
            "quick",
            1,
            2_000,
            &[
                cell("fig06", "parallel", 1, 2_000_000.0),
                cell("fig06", "parallel", 2, 3_000_000.0),
                cell("fig06", "serial", 1, 9_000_000.0),
                cell("fig09", "parallel", 1, 4_000_000.0),
            ],
            None,
            None,
        );
        let doc = append_run(Some(&append_run(None, &run1)), &run2);
        // Best parallel cell of the latest run, serial cells ignored.
        let ips = latest_parallel_ips(&doc, "fig06", "quick").unwrap();
        assert!((ips - 3_000_000.0).abs() < 1.0);
        let ips = latest_parallel_ips(&doc, "fig09", "quick").unwrap();
        assert!((ips - 4_000_000.0).abs() < 1.0);
        assert!(latest_parallel_ips(&doc, "fig11", "quick").is_none());
        assert!(latest_parallel_ips(&doc, "fig06", "bench").is_none());

        // A latest run without the figure falls back to the previous run.
        let run3 = render_run_json(
            "quick",
            1,
            3_000,
            &[cell("fig09", "parallel", 1, 5_000_000.0)],
            None,
            None,
        );
        let doc = append_run(Some(&doc), &run3);
        let ips = latest_parallel_ips(&doc, "fig06", "quick").unwrap();
        assert!((ips - 3_000_000.0).abs() < 1.0);
    }

    #[test]
    fn time_experiment_runs_a_real_table() {
        let scale = ExperimentScale {
            params: gaze_sim::RunParams {
                warmup: 500,
                measured: 2_000,
                ..gaze_sim::RunParams::test()
            },
            workloads_per_suite: 1,
        };
        let t = time_experiment("table1", &scale);
        assert_eq!(t.figure, "table1");
        assert!(t.wall_seconds >= 0.0);
    }
}
