//! `sim-perf` — the simulator characterization harness.
//!
//! Measures wall time, simulated-instructions-per-second and stepped
//! cycles for a grid of (figure × thread count × engine mode) cells and
//! appends one run record to the `BENCH_simperf.json` history (schema v2,
//! `docs/PERF.md`), establishing the perf trajectory of the engine across
//! PRs.
//!
//! ```text
//! cargo run --release -p bench --bin sim-perf -- [figures...] \
//!     [--out PATH] [--threads LIST] [--compare-serial] [--warm] [--full] \
//!     [--gate PATH] [--gate-tolerance F] [--no-append] \
//!     [--reference SECONDS] [--reference-note TEXT]
//! ```
//!
//! * `figures...` — experiment names (default: `fig06 fig09 fig11`; `fig06`
//!   covers the fig06–08 nine-prefetcher comparison),
//! * `--out PATH` — history path (default `BENCH_simperf.json`); the run is
//!   appended to an existing v2 document (`--no-append` starts it fresh),
//! * `--threads LIST` — comma-separated worker-thread counts for the
//!   `parallel` mode cells (default: `1,<host parallelism>` deduplicated),
//! * `--compare-serial` — add a `serial` cell per figure: every engine
//!   optimization disabled (one worker, no baseline memoization),
//! * `--warm` — add `cold` + `warm` cells per figure: the full engine
//!   writing through to an empty results store, then the same store re-read
//!   (a fully warm store simulates nothing),
//! * `--full` — use the `bench` scale instead of `quick`,
//! * `--gate PATH` — regression gate: compare each figure's best `parallel`
//!   throughput against the latest run recorded in the v2 document at PATH
//!   and exit non-zero if it fell below `--gate-tolerance` (default 0.3)
//!   times the reference,
//! * `--reference SECONDS` / `--reference-note TEXT` — record an externally
//!   measured wall time for the same figure set and its provenance.
//!
//! Every cell runs in its own child process so the engine-mode environment
//! variables apply from process start and no cached baselines, results-store
//! handles or thread pools leak across cells.

use std::time::Instant;

use bench::{
    append_run, latest_parallel_ips, render_run_json, time_experiment, CellResult, ExperimentScale,
};
use gaze_sim::experiments::experiment_names;

/// Marker env var for cell child processes: run the named figure once,
/// print the measured cell on stdout, exit.
const CELL_CHILD: &str = "GAZE_SIMPERF_CHILD";

struct Options {
    figures: Vec<String>,
    threads: Vec<usize>,
    compare_serial: bool,
    warm: bool,
    full: bool,
    out_path: String,
    append: bool,
    gate_path: Option<String>,
    gate_tolerance: f64,
    reference_seconds: Option<f64>,
    reference_note: Option<String>,
}

fn parse_args(args: &[String]) -> Options {
    fn value_of(args: &[String], flag: &str) -> Option<String> {
        args.iter().position(|a| a == flag).map(|i| {
            args.get(i + 1)
                .unwrap_or_else(|| {
                    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                    eprintln!("sim-perf: {flag} requires a value");
                    std::process::exit(2);
                })
                .clone()
        })
    }
    let host = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut threads: Vec<usize> = value_of(args, "--threads")
        .map(|list| {
            list.split(',')
                .map(|t| {
                    t.trim().parse().unwrap_or_else(|_| {
                        // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                        eprintln!("sim-perf: bad thread count '{t}'");
                        std::process::exit(2);
                    })
                })
                .collect()
        })
        .unwrap_or_else(|| vec![1, host]);
    threads.retain(|&t| t > 0);
    threads.dedup();
    assert!(!threads.is_empty(), "--threads needs at least one count");

    const VALUE_FLAGS: [&str; 6] = [
        "--out",
        "--threads",
        "--gate",
        "--gate-tolerance",
        "--reference",
        "--reference-note",
    ];
    let mut figures: Vec<String> = Vec::new();
    let mut skip_next = false;
    for a in args {
        if skip_next {
            skip_next = false;
        } else if VALUE_FLAGS.contains(&a.as_str()) {
            skip_next = true;
        } else if !a.starts_with("--") {
            figures.push(a.clone());
        }
    }
    if figures.is_empty() {
        figures = vec!["fig06".into(), "fig09".into(), "fig11".into()];
    }
    for f in &figures {
        if !experiment_names().contains(&f.as_str()) {
            // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
            eprintln!(
                "unknown experiment '{f}'; available: {:?}",
                experiment_names()
            );
            std::process::exit(2);
        }
    }

    Options {
        figures,
        threads,
        compare_serial: args.iter().any(|a| a == "--compare-serial"),
        warm: args.iter().any(|a| a == "--warm"),
        full: args.iter().any(|a| a == "--full"),
        out_path: value_of(args, "--out").unwrap_or_else(|| "BENCH_simperf.json".into()),
        append: !args.iter().any(|a| a == "--no-append"),
        gate_path: value_of(args, "--gate"),
        gate_tolerance: value_of(args, "--gate-tolerance")
            .map(|v| {
                v.parse().unwrap_or_else(|_| {
                    // gaze-lint: allow(eprintln) -- CLI usage error: bare stderr line is the interface
                    eprintln!("sim-perf: bad tolerance '{v}'");
                    std::process::exit(2);
                })
            })
            .unwrap_or(0.3),
        reference_seconds: value_of(args, "--reference").and_then(|v| v.parse().ok()),
        reference_note: value_of(args, "--reference-note"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = parse_args(&args);
    let scale_label = if opts.full { "bench" } else { "quick" };
    let scale = if opts.full {
        ExperimentScale::default_bench()
    } else {
        ExperimentScale::quick()
    };

    // Child mode: one figure under whatever engine env the parent set,
    // stats printed on the last stdout line.
    if let Ok(figure) = std::env::var(CELL_CHILD) {
        let cell = time_experiment(&figure, &scale);
        println!(
            "cell wall_seconds={:.6} simulated_instructions={} cycles_stepped={}",
            cell.wall_seconds, cell.simulated_instructions, cell.cycles_stepped
        );
        return;
    }

    let mut cells: Vec<CellResult> = Vec::new();
    let start = Instant::now();
    for figure in &opts.figures {
        for &threads in &opts.threads {
            cells.push(run_cell(figure, "parallel", threads, &opts, None));
        }
        if opts.compare_serial {
            cells.push(run_cell(figure, "serial", 1, &opts, None));
        }
        if opts.warm {
            let store = tmp_store_dir(figure);
            let threads = opts.threads.iter().copied().max().unwrap_or(1);
            cells.push(run_cell(figure, "cold", threads, &opts, Some(&store)));
            let warm = run_cell(figure, "warm", threads, &opts, Some(&store));
            if warm.simulated_instructions > 0 {
                gaze_obs::log::warn(
                    "sim-perf",
                    "warm cell still simulated instructions (store not fully warm)",
                    &[
                        ("figure", &figure),
                        ("instructions", &warm.simulated_instructions),
                    ],
                );
            }
            cells.push(warm);
            let _ = std::fs::remove_dir_all(&store);
        }
    }
    gaze_obs::log::info(
        "sim-perf",
        "all cells measured",
        &[
            ("cells", &cells.len()),
            (
                "wall_seconds",
                &format!("{:.1}", start.elapsed().as_secs_f64()),
            ),
        ],
    );

    let unix_time = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let run = render_run_json(
        scale_label,
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1),
        unix_time,
        &cells,
        opts.reference_seconds,
        opts.reference_note.as_deref(),
    );
    let existing = if opts.append {
        std::fs::read_to_string(&opts.out_path).ok()
    } else {
        None
    };
    let doc = append_run(existing.as_deref(), &run);
    std::fs::write(&opts.out_path, &doc).unwrap_or_else(|e| {
        gaze_obs::log::error(
            "sim-perf",
            "cannot write history",
            &[("path", &opts.out_path), ("error", &e)],
        );
        std::process::exit(1);
    });
    println!("{run}");
    gaze_obs::log::info("sim-perf", "wrote history", &[("path", &opts.out_path)]);

    if let Some(gate_path) = &opts.gate_path {
        gate(gate_path, opts.gate_tolerance, scale_label, &cells);
    }
}

/// Regression gate: each figure's best parallel throughput this run must be
/// at least `tolerance` times the latest value recorded in the reference
/// history. A figure absent from the reference passes (first measurement).
fn gate(gate_path: &str, tolerance: f64, scale_label: &str, cells: &[CellResult]) {
    let reference = std::fs::read_to_string(gate_path).unwrap_or_else(|e| {
        gaze_obs::log::error(
            "sim-perf",
            "cannot read gate reference",
            &[("path", &gate_path), ("error", &e)],
        );
        std::process::exit(1);
    });
    let mut failed = false;
    let figures: Vec<&str> = {
        let mut f: Vec<&str> = cells.iter().map(|c| c.figure.as_str()).collect();
        f.dedup();
        f
    };
    for figure in figures {
        let measured = cells
            .iter()
            .filter(|c| c.figure == figure && c.mode == "parallel")
            .map(CellResult::sim_ips)
            .fold(0.0f64, f64::max);
        match latest_parallel_ips(&reference, figure, scale_label) {
            Some(reference_ips) => {
                let floor = reference_ips * tolerance;
                let ok = measured >= floor;
                gaze_obs::log::info(
                    "sim-perf",
                    "gate verdict",
                    &[
                        ("figure", &figure),
                        ("measured_ips", &format!("{measured:.0}")),
                        ("reference_ips", &format!("{reference_ips:.0}")),
                        ("floor", &format!("{floor:.0}")),
                        ("verdict", &if ok { "ok" } else { "REGRESSION" }),
                    ],
                );
                failed |= !ok;
            }
            None => gaze_obs::log::warn(
                "sim-perf",
                "gate has no reference at this scale, skipping figure",
                &[("figure", &figure), ("scale", &scale_label)],
            ),
        }
    }
    if failed {
        gaze_obs::log::error(
            "sim-perf",
            "regression gate FAILED",
            &[("tolerance", &tolerance)],
        );
        std::process::exit(1);
    }
    gaze_obs::log::info(
        "sim-perf",
        "regression gate passed",
        &[("tolerance", &tolerance)],
    );
}

/// Times `figure` in a child process under the given engine mode.
fn run_cell(
    figure: &str,
    mode: &'static str,
    threads: usize,
    opts: &Options,
    store_dir: Option<&std::path::Path>,
) -> CellResult {
    gaze_obs::log::info(
        "sim-perf",
        "cell start",
        &[("figure", &figure), ("mode", &mode), ("threads", &threads)],
    );
    let exe = std::env::current_exe().expect("current exe path");
    let mut cmd = std::process::Command::new(exe);
    if opts.full {
        cmd.arg("--full");
    }
    // A clean engine environment per cell, whatever the parent inherited.
    for var in ["GAZE_THREADS", "GAZE_BASELINE_CACHE", "GAZE_RESULTS_DIR"] {
        cmd.env_remove(var);
    }
    cmd.env(CELL_CHILD, figure)
        .env("GAZE_THREADS", threads.to_string());
    if mode == "serial" {
        cmd.env("GAZE_THREADS", "1").env("GAZE_BASELINE_CACHE", "0");
    }
    if let Some(dir) = store_dir {
        cmd.env("GAZE_RESULTS_DIR", dir);
    }
    let output = cmd.output().expect("spawn cell child");
    assert!(
        output.status.success(),
        "{mode} cell for {figure} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stats = stdout
        .lines()
        .rev()
        .find(|l| l.starts_with("cell "))
        .expect("cell child prints stats line");
    let field = |name: &str| -> f64 {
        stats
            .split_whitespace()
            .find_map(|kv| kv.strip_prefix(&format!("{name}=")))
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("cell stats missing {name}: {stats}"))
    };
    let cell = CellResult {
        figure: figure.to_string(),
        mode,
        threads,
        wall_seconds: field("wall_seconds"),
        simulated_instructions: field("simulated_instructions") as u64,
        cycles_stepped: field("cycles_stepped") as u64,
    };
    gaze_obs::log::info(
        "sim-perf",
        "cell done",
        &[
            ("figure", &figure),
            ("mode", &mode),
            ("threads", &threads),
            ("wall_seconds", &format!("{:.3}", cell.wall_seconds)),
            ("sim_mips", &format!("{:.2}", cell.sim_ips() / 1e6)),
        ],
    );
    cell
}

/// A fresh per-figure results-store directory under the system temp dir.
fn tmp_store_dir(figure: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "gaze-simperf-store-{figure}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp store dir");
    dir
}
