//! Child-process bodies. Every sample runs in a fresh process, because
//! baseline memoization and the results-store handle are process-global:
//! a second sweep in the same process would not be cold.
//!
//! A child reports on stdout, one `key value...` line per fact, which the
//! parent parses (see `main.rs`).

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use gaze_serve::http::{parse_target, Request};
use gaze_serve::jobs::JobManager;
use gaze_serve::loadgen::http_request;
use gaze_serve::routes::{handle, AppState};
use gaze_serve::{Server, ServerConfig};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::runner::simulated_instructions;
use gaze_sim::spec::plan::dry_run;
use gaze_sim::spec::{plan_specs, run_specs, text};
use gaze_sim::{results, Table, MAIN_PREFETCHERS};

use crate::traced::{self, Layers};
use crate::{inputs, SERVE_PAIRS};

/// Command-line flags of a child: `--key value` pairs and bare switches.
struct Flags(BTreeMap<String, String>);

impl Flags {
    fn parse(args: &[String]) -> Flags {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let key = args[i].trim_start_matches("--").to_string();
            match args.get(i + 1).filter(|v| !v.starts_with("--")) {
                Some(value) => {
                    map.insert(key, value.clone());
                    i += 2;
                }
                None => {
                    map.insert(key, String::new());
                    i += 1;
                }
            }
        }
        Flags(map)
    }

    fn str(&self, key: &str) -> &str {
        self.0
            .get(key)
            .unwrap_or_else(|| panic!("child flag --{key} is required"))
    }

    fn path(&self, key: &str) -> PathBuf {
        PathBuf::from(self.str(key))
    }

    fn num(&self, key: &str) -> u64 {
        self.str(key)
            .parse()
            .unwrap_or_else(|_| panic!("child flag --{key} must be a whole number"))
    }

    fn has(&self, key: &str) -> bool {
        self.0.contains_key(key)
    }
}

fn emit(key: &str, values: &[f64]) {
    let line: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
    println!("{key} {}", line.join(" "));
}

fn emit_layers(layers: &Layers) {
    for (name, value) in layers {
        println!("layer {name} {value}");
    }
}

/// Peak resident set size of this process in KiB (`VmHWM`).
fn peak_rss_kb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0.0)
}

fn read(path: &Path) -> String {
    std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

fn write(path: &Path, text: &str) {
    std::fs::write(path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
}

/// What a CLI invocation `gaze-experiments run --spec F1 --spec F2 ...
/// --csv` does: open the store, parse, plan jointly + execute + render,
/// format every spec's tables as CSV.
fn run_spec_texts(spec_texts: &[String], store: &Path) -> String {
    results::configure(Some(store)).expect("open results store");
    let specs: Vec<_> = spec_texts
        .iter()
        .map(|t| text::parse(t).expect("generated spec parses"))
        .collect();
    let refs: Vec<_> = specs.iter().collect();
    run_specs(&refs, &ExperimentScale::quick())
        .iter()
        .flatten()
        .map(Table::to_csv)
        .collect()
}

/// The texts of the comma-separated spec files of `--specs`.
fn spec_texts(flags: &Flags) -> Vec<String> {
    flags
        .str("specs")
        .split(',')
        .map(|f| read(Path::new(f)))
        .collect()
}

/// Dispatches `args` (after the `child` word) to a child body.
pub fn main(args: &[String]) {
    let mode = args.first().map(String::as_str).unwrap_or("");
    let flags = Flags::parse(&args[1.min(args.len())..]);
    match mode {
        "run" => run(&flags),
        "check" => check(&flags),
        "serve" => serve(&flags),
        "replay" => replay(&flags),
        other => panic!("unknown child mode '{other}'"),
    }
    emit("rss_kb", &[peak_rss_kb()]);
}

/// `run --specs F1,F2,... --store D --reps N (--csv-out C | --expect-csv
/// C1,C2,...) [--traced]`: runs the specs (jointly) `N` times against the
/// store, reopening it each time. Reports each repetition's latency, the
/// instructions simulated, and per repetition whether its CSV equals the
/// expected one (with `--csv-out`, the first repetition's, written to
/// `C`; with `--expect-csv`, the files' contents in turn). Traced, it also reports the per-layer values and the time spent
/// in named layer calls, summed over the repetitions.
fn run(flags: &Flags) {
    let texts = spec_texts(flags);
    let store = flags.path("store");
    let traced = flags.has("traced");
    let mut expected: Option<Vec<u8>> = flags.has("expect-csv").then(|| {
        flags
            .str("expect-csv")
            .split(',')
            .flat_map(|f| std::fs::read(f).expect("read expected CSV"))
            .collect()
    });
    let instr_before = simulated_instructions();
    let mut attributed = Duration::ZERO;
    for _ in 0..flags.num("reps") {
        let (csv, op) = if traced {
            let mut t = traced::pipeline(&texts, &store);
            traced::simulated_stats(&t.outputs, &mut t.layers);
            t.layers.extend(traced::obs());
            emit_layers(&t.layers);
            attributed += t.attributed;
            (t.csv, t.op)
        } else {
            let start = Instant::now();
            let csv = run_spec_texts(&texts, &store);
            (csv, start.elapsed())
        };
        emit("op_ms", &[op.as_secs_f64() * 1e3]);
        let expected = expected.get_or_insert_with(|| {
            write(&flags.path("csv-out"), &csv);
            csv.clone().into_bytes()
        });
        emit(
            "csv_ok",
            &[f64::from(u8::from(*expected == csv.as_bytes()))],
        );
    }
    emit("instr", &[(simulated_instructions() - instr_before) as f64]);
    if traced {
        emit("attributed_ms", &[attributed.as_secs_f64() * 1e3]);
    }
}

/// `check --specs F1,F2,... --store D`: the dry run of the specs planned
/// jointly — jobs planned, and how many the store already holds (warm)
/// or would simulate (cold).
fn check(flags: &Flags) {
    results::configure(Some(&flags.path("store"))).expect("open results store");
    let specs: Vec<_> = spec_texts(flags)
        .iter()
        .map(|t| text::parse(t).expect("generated spec parses"))
        .collect();
    let scale = ExperimentScale::quick();
    let refs: Vec<_> = specs.iter().collect();
    let report = dry_run(&plan_specs(&refs, &scale), &scale);
    emit("jobs", &[report.jobs as f64]);
    emit("warm", &[report.warm as f64]);
    emit("cold", &[report.cold as f64]);
}

/// `replay --seed S`: the prefetcher layer replayed in isolation over the
/// demand stream of one seeded workload per main suite.
fn replay(flags: &Flags) {
    let workloads = inputs::suite_heads(flags.num("seed"));
    emit_layers(&traced::replay(&workloads, &MAIN_PREFETCHERS));
}

/// Latencies and failures of one client route.
#[derive(Default)]
struct Route {
    ms: Vec<f64>,
    failed: u64,
}

impl Route {
    /// Issues `target`, timing it, and counts it failed unless the reply
    /// is 2xx and `ok` accepts the body.
    fn get(&mut self, addr: SocketAddr, target: &str, ok: impl Fn(&[u8]) -> bool) {
        let start = Instant::now();
        let reply = http_request(addr, "GET", target, Duration::from_secs(60));
        self.ms.push(start.elapsed().as_secs_f64() * 1e3);
        match reply {
            Ok((status, body)) if (200..300).contains(&status) && ok(&body) => {}
            Ok((status, _)) => {
                self.failed += 1;
                gaze_obs::log::warn(
                    "perfbench",
                    "bad reply",
                    &[("target", &target), ("status", &status)],
                );
            }
            Err(e) => {
                self.failed += 1;
                gaze_obs::log::warn(
                    "perfbench",
                    "request failed",
                    &[("target", &target), ("error", &e)],
                );
            }
        }
    }
}

/// `serve --store D --spec-dir S --ref-csvs C0,C1,.. --seed N --session I
/// [--traced]`: one serving session over the warm store at `D`. A reader
/// client alternates [`SERVE_PAIRS`] `/runs` point queries with
/// `/experiments` on the warm sweeps in the session's seeded order
/// (whose cold CSVs are `C0,C1,..`); a writer client requests a
/// never-seen tiny spec per main workload, each simulated and appended
/// write-through. Both are closed
/// loops with one request per connection.
fn serve(flags: &Flags) {
    let seed = flags.num("seed");
    let session = flags.num("session") as usize;
    let spec_dir = flags.path("spec-dir");
    let references: Vec<Vec<u8>> = flags
        .str("ref-csvs")
        .split(',')
        .map(|f| std::fs::read(f).expect("read reference CSV"))
        .collect();
    let write_specs = inputs::write_specs(seed, session);
    for w in &write_specs {
        write(&spec_dir.join(format!("{}.spec", w.name)), &w.text);
    }
    let run_targets = inputs::run_queries(seed, session, SERVE_PAIRS);
    let order = inputs::sweep_order(seed, session);

    let mut config = ServerConfig::new(flags.path("store"));
    config.addr = "127.0.0.1:0".to_string();
    config.threads = 2;
    config.spec_dir = Some(spec_dir.clone());
    let (addr, stop, join) = Server::spawn(&config).expect("start gaze-serve");

    // Two closed-loop clients when the host has two CPUs; one client
    // doing both in turn otherwise, so clients never outnumber CPUs.
    let two_clients = std::thread::available_parallelism().map_or(1, |n| n.get()) >= 2;
    let reader = |runs: &mut Route, figure: &mut Route| {
        for (j, target) in run_targets.iter().enumerate() {
            runs.get(addr, target, |b| b.starts_with(b"[{"));
            let k = order[j % order.len()];
            let figure_target = format!("/experiments?spec={}", inputs::sweep_name(k));
            figure.get(addr, &figure_target, |b| b == references[k].as_slice());
        }
    };
    let writer = |write: &mut Route| {
        for w in &write_specs {
            write.get(addr, &format!("/experiments?spec={}", w.name), |b| {
                b.starts_with(b"prefetcher,") && b.ends_with(b"\n")
            });
        }
    };
    let (mut runs, mut figure, mut write_route) =
        (Route::default(), Route::default(), Route::default());
    let start = Instant::now();
    if two_clients {
        let gate = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                gate.wait();
                writer(&mut write_route);
            });
            gate.wait();
            reader(&mut runs, &mut figure);
        });
    } else {
        reader(&mut runs, &mut figure);
        writer(&mut write_route);
    }
    let session_s = start.elapsed().as_secs_f64();
    stop.stop();
    join.join().expect("serve thread");

    emit("session_s", &[session_s]);
    emit("lat_runs", &runs.ms);
    emit("lat_experiments", &figure.ms);
    emit("lat_write", &write_route.ms);
    let attempted = runs.ms.len() + figure.ms.len() + write_route.ms.len();
    emit("attempted", &[attempted as f64]);
    emit(
        "failed",
        &[(runs.failed + figure.failed + write_route.failed) as f64],
    );
    if flags.has("traced") {
        serve_layers(
            seed,
            session,
            &spec_dir,
            &run_targets,
            &runs.ms,
            &references,
        );
    }
}

/// The traced part of a serving session, after the clients finished:
/// `routes::handle` called directly for each route (its time without the
/// transport), then one traced warm pipeline over the same store.
fn serve_layers(
    seed: u64,
    session: usize,
    spec_dir: &Path,
    run_targets: &[String],
    client_runs_ms: &[f64],
    references: &[Vec<u8>],
) {
    let state = AppState {
        store: results::active_store().expect("the server configured a store"),
        default_scale: "quick".to_string(),
        spec_dir: Some(spec_dir.to_path_buf()),
        jobs: JobManager::new(1, 1),
        started: Instant::now(),
    };
    let call = |target: &str| -> f64 {
        let (path, query) = parse_target(target);
        let req = Request {
            method: "GET".to_string(),
            path,
            query,
        };
        let start = Instant::now();
        let resp = handle(&state, &req);
        let us = start.elapsed().as_secs_f64() * 1e6;
        assert!(
            (200..300).contains(&resp.status),
            "{target}: {}",
            resp.status
        );
        us
    };
    let mut l = Layers::new();
    let runs_us: Vec<f64> = run_targets.iter().map(|t| call(t)).collect();
    let handle_runs = crate::stats::median(&runs_us);
    l.insert("http.handle_us.runs".into(), handle_runs);
    let figure_us: Vec<f64> = (0..references.len())
        .map(|k| call(&format!("/experiments?spec={}", inputs::sweep_name(k))))
        .collect();
    l.insert(
        "http.handle_us.experiments".into(),
        crate::stats::median(&figure_us),
    );
    // Fresh write specs (a session index no client used), so each call
    // simulates and appends.
    let fresh: Vec<_> = inputs::write_specs(seed, session + 100_000)
        .into_iter()
        .take(3)
        .collect();
    for w in &fresh {
        write(&spec_dir.join(format!("{}.spec", w.name)), &w.text);
    }
    let write_us: Vec<f64> = fresh
        .iter()
        .map(|w| call(&format!("/experiments?spec={}", w.name)))
        .collect();
    l.insert(
        "http.handle_us.write".into(),
        crate::stats::median(&write_us),
    );
    l.insert(
        "http.transport_us".into(),
        crate::stats::median(client_runs_ms) * 1e3 - handle_runs,
    );
    state.jobs.shutdown();

    let sweeps: Vec<String> = (0..references.len())
        .map(|k| read(&spec_dir.join(format!("{}.spec", inputs::sweep_name(k)))))
        .collect();
    let store_dir = state.store.with_store(|s| s.dir().to_path_buf());
    let mut t = traced::pipeline(&sweeps, &store_dir);
    assert!(
        t.csv.as_bytes() == references.concat(),
        "traced warm pipeline CSV differs from the cold CSVs"
    );
    traced::simulated_stats(&t.outputs, &mut t.layers);
    l.extend(t.layers);
    l.extend(traced::obs());
    emit_layers(&l);
}
