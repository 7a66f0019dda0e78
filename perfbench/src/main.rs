//! `perfbench` — the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <sweep_cold|mix_cold|sweep_warm|serve_mixed> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! Generates the workload's inputs from the seed, sets up, measures for
//! the given seconds (each sample in a fresh process), checks every
//! output, and prints as its last stdout line one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. A full
//! report — seed, generated spec texts, host shape, per-operation
//! latency tails with their percentile and sample count — is printed
//! above that line and saved under `.perfbench/results/`. See
//! `perfbench/README.md`.

mod child;
mod host;
mod inputs;
mod stats;
mod traced;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::Instant;

use gaze_serve::json::{json_f64, json_string, JsonObject};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::spec::plan::Job;
use gaze_sim::spec::{plan_specs, text};
use gaze_sim::MAIN_PREFETCHERS;

use crate::inputs::MIX_PREFETCHERS;

const USAGE: &str = "usage: perfbench --workload <sweep_cold|mix_cold|sweep_warm|serve_mixed> \
                     --seed <n> --seconds <n> --trace <0|1>";

/// Warm repetitions per `sweep_warm` sample process.
const WARM_REPS: usize = 10;
/// Reader request pairs (`/runs` + `/experiments`) per serving session.
pub const SERVE_PAIRS: usize = 160;
/// Samples measured at least, whatever the time budget.
const MIN_SAMPLES: usize = 3;

/// Every end-to-end metric: (name, unit).
const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("p50_ms", "ms"),
];

/// Every per-layer metric: (name, unit), in output order.
fn per_layer() -> Vec<(String, &'static str)> {
    let mut m: Vec<(String, &'static str)> = Vec::new();
    let mut push = |name: &str, unit: &'static str| m.push((name.to_string(), unit));
    push("workloads.build_ms", "ms");
    push("workloads.records", "count");
    push("workloads.ns_per_record", "ns");
    push("fingerprint.ms", "ms");
    push("fingerprint.calls", "count");
    push("spec.parse_ms", "ms");
    push("spec.plan_ms", "ms");
    push("spec.plan_jobs", "count");
    push("spec.render_ms", "ms");
    push("engine.execute_ms", "ms");
    push("engine.busy_ms", "ms");
    push("engine.utilization", "ratio");
    push("engine.threads", "count");
    push("simulate.ms", "ms");
    push("simulate.instructions", "count");
    push("simulate.ns_per_instr", "ns");
    push("simulate.none_ms", "ms");
    for p in MAIN_PREFETCHERS {
        push(&format!("simulate.{p}_ms"), "ms");
    }
    push("simulate.mix_ms", "ms");
    push("simulate.cycles_stepped", "count");
    push("simulate.cycles_skipped", "count");
    for p in MAIN_PREFETCHERS {
        push(&format!("prefetcher.{p}.ns_per_access"), "ns");
        push(&format!("prefetcher.{p}.requests"), "count");
    }
    push("store.open_ms", "ms");
    push("store.segments", "count");
    push("store.lookup_us", "us");
    push("store.hits", "count");
    push("store.misses", "count");
    push("store.append_rows", "count");
    push("store.flush_ms", "ms");
    push("store.query_us", "us");
    push("http.handle_us.runs", "us");
    push("http.handle_us.experiments", "us");
    push("http.handle_us.write", "us");
    push("http.transport_us", "us");
    push("obs.histogram_record_ns", "ns");
    push("obs.metrics_render_ms", "ms");
    push("trace.wall_s", "s");
    push("trace.untraced_wall_s", "s");
    push("trace.overhead_s", "s");
    push("trace.attributed_frac", "ratio");
    push("stat.none.ipc", "ratio");
    for p in MAIN_PREFETCHERS {
        for stat in ["ipc", "speedup", "accuracy", "coverage"] {
            push(&format!("stat.{p}.{stat}"), "ratio");
        }
    }
    for p in MIX_PREFETCHERS {
        push(&format!("stat.mix.{p}.speedup"), "ratio");
    }
    m
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    SweepCold,
    MixCold,
    SweepWarm,
    ServeMixed,
}

impl Workload {
    fn parse(s: &str) -> Option<Workload> {
        match s {
            "sweep_cold" => Some(Workload::SweepCold),
            "mix_cold" => Some(Workload::MixCold),
            "sweep_warm" => Some(Workload::SweepWarm),
            "serve_mixed" => Some(Workload::ServeMixed),
            _ => None,
        }
    }

    fn name(self) -> &'static str {
        match self {
            Workload::SweepCold => "sweep_cold",
            Workload::MixCold => "mix_cold",
            Workload::SweepWarm => "sweep_warm",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed must be a whole number")?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .ok()
                        .filter(|s| *s > 0.0)
                        .ok_or("--seconds must be positive")?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A reported metric: name, unit, value.
type Metric = (String, &'static str, f64);

/// One operation kind's latency: median, and the highest percentile with
/// ten samples beyond it as `(value, percentile)`.
struct OpSummary {
    kind: &'static str,
    samples: usize,
    p50_ms: f64,
    tail: Option<(f64, f64)>,
}

/// What a child process reported.
struct ChildOut {
    /// Wall time of the whole child process, seconds.
    wall: f64,
    values: BTreeMap<String, Vec<f64>>,
    layers: BTreeMap<String, Vec<f64>>,
}

impl ChildOut {
    fn one(&self, key: &str) -> f64 {
        self.values
            .get(key)
            .and_then(|v| v.first())
            .copied()
            .unwrap_or(f64::NAN)
    }

    fn all(&self, key: &str) -> &[f64] {
        self.values.get(key).map_or(&[], Vec::as_slice)
    }
}

/// One benchmark run: its options, scratch directory and everything
/// measured so far.
struct Bench {
    opts: Opts,
    exe: PathBuf,
    work: PathBuf,
    threads: usize,
    attempted: u64,
    failed: u64,
    problems: Vec<String>,
    setup: Vec<f64>,
    walls: Vec<f64>,
    rss_kb: Vec<f64>,
    ops: BTreeMap<&'static str, Vec<f64>>,
    /// In traced runs: operation wall times (s) of plain and traced
    /// samples, per-layer values of the traced ones, and per traced
    /// sample the time (s) spent in named layer calls.
    plain_op_s: Vec<f64>,
    traced_op_s: Vec<f64>,
    layers: BTreeMap<String, Vec<f64>>,
    attributed_s: Vec<f64>,
    /// Simulated instructions per cold sample, and its operation time.
    sim: Vec<(f64, f64)>,
    /// Every generated input, by name.
    inputs: BTreeMap<String, String>,
    /// Cold workloads: the current sample's spec files, and the
    /// instructions they must simulate into an empty store.
    cold_input: (Vec<PathBuf>, f64),
    /// Warm store and its reference CSV (warm and serving workloads).
    warm_store: PathBuf,
    warm_specs: Vec<PathBuf>,
    warm_csvs: Vec<PathBuf>,
}

impl Bench {
    /// Counts one checked operation; a failed check is recorded.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            let msg = what();
            gaze_obs::log::error("perfbench", "check failed", &[("what", &msg)]);
            self.problems.push(msg);
        }
    }

    fn path(&self, name: &str) -> PathBuf {
        self.work.join(name)
    }

    /// Runs `perfbench child <args>` to completion and parses its report.
    /// A child that fails counts as one failed operation.
    fn child(&mut self, args: &[String]) -> Option<ChildOut> {
        let mut cmd = Command::new(&self.exe);
        cmd.arg("child").args(args);
        // Every engine knob at its default except the thread count, so a
        // stray variable in the caller's environment cannot change what
        // is measured.
        for (key, _) in std::env::vars_os() {
            if key.to_string_lossy().starts_with("GAZE_") {
                cmd.env_remove(key);
            }
        }
        cmd.env("GAZE_THREADS", self.threads.to_string())
            .env("GAZE_LOG", "warn")
            .stdin(Stdio::null())
            .stderr(Stdio::inherit());
        let start = Instant::now();
        let output = cmd.output();
        let wall = start.elapsed().as_secs_f64();
        let output = match output {
            Ok(o) if o.status.success() => o,
            Ok(o) => {
                self.check(false, || format!("child {args:?} exited with {}", o.status));
                return None;
            }
            Err(e) => {
                self.check(false, || format!("child {args:?} did not start: {e}"));
                return None;
            }
        };
        let mut out = ChildOut {
            wall,
            values: BTreeMap::new(),
            layers: BTreeMap::new(),
        };
        for line in String::from_utf8_lossy(&output.stdout).lines() {
            let mut words = line.split_whitespace();
            let Some(key) = words.next() else { continue };
            if key == "layer" {
                let (Some(name), Some(v)) = (words.next(), words.next()) else {
                    continue;
                };
                if let Ok(v) = v.parse() {
                    out.layers.entry(name.to_string()).or_default().push(v);
                }
            } else {
                let values = words.filter_map(|w| w.parse::<f64>().ok());
                out.values
                    .entry(key.to_string())
                    .or_default()
                    .extend(values);
            }
        }
        Some(out)
    }

    fn write_input(&mut self, file: &str, text: &str) -> PathBuf {
        let path = self.path(file);
        std::fs::write(&path, text).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        self.inputs.insert(file.to_string(), text.to_string());
        path
    }

    /// Spec `k` of cold sample `sample` of this workload: a seeded sweep,
    /// or a seeded mix. A sample runs [`inputs::SWEEPS`] or
    /// [`inputs::MIXES`] of them jointly.
    fn cold_text(&self, sample: usize, k: usize) -> String {
        match self.opts.workload {
            Workload::MixCold => inputs::mix_text(self.opts.seed, sample, k),
            _ => inputs::sweep_text(self.opts.seed, sample, k),
        }
    }

    /// Instructions a run of `spec_texts` (planned jointly) must simulate
    /// into a store that holds every job of the `stored` workloads and
    /// nothing else: every other job's warm-up + measured instructions on
    /// every core, plus one memoized single-core baseline per such
    /// single-core workload.
    fn expected_instructions(spec_texts: &[String], stored: &BTreeSet<String>) -> f64 {
        let specs: Vec<_> = spec_texts
            .iter()
            .map(|t| text::parse(t).expect("generated spec parses"))
            .collect();
        let scale = ExperimentScale::quick();
        let per_core = (scale.params.warmup + scale.params.measured) as f64;
        let plan = plan_specs(&specs.iter().collect::<Vec<_>>(), &scale);
        let mut single_workloads = BTreeSet::new();
        let mut cores = 0usize;
        for job in plan.jobs() {
            match job {
                Job::Single { workload, .. } if !stored.contains(workload) => {
                    single_workloads.insert(workload.clone());
                    cores += 1;
                }
                Job::Single { .. } => {}
                Job::Mix { workloads, .. } => cores += workloads.len(),
            }
        }
        (cores + single_workloads.len()) as f64 * per_core
    }

    /// Cold set-up of sample `i`, just before it runs: each of its specs
    /// is one set-up — generate the text, write the file, and work out
    /// the instructions it must simulate into an empty store. The specs
    /// share no workload, so their sum is the sample's reference. Timing
    /// each spec gives a run some thirty set-ups of a fraction of a
    /// millisecond each, whose median is steadier than that of its three
    /// samples.
    fn setup_cold(&mut self, i: usize) {
        let mut specs = Vec::new();
        let mut expected = 0.0;
        let count = match self.opts.workload {
            Workload::MixCold => inputs::MIXES,
            _ => inputs::SWEEPS,
        };
        for k in 0..count {
            let start = Instant::now();
            let text = self.cold_text(i, k);
            specs.push(self.write_input(&format!("cold-{i}-{k}.spec"), &text));
            expected += Self::expected_instructions(&[text], &BTreeSet::new());
            self.setup.push(start.elapsed().as_secs_f64());
        }
        self.cold_input = (specs, expected);
    }

    /// Warm set-up: set-up `k` generates sweep `k` of the seed's first
    /// cold sample, fills it into the warm store with a cold run
    /// (checked: the instructions its not-yet-stored jobs imply), and
    /// dry-runs it again, which must report every job warm. The filled
    /// sweeps, jointly, are what the warm samples serve; their cold CSVs,
    /// in the order a sample serves them, are its reference.
    fn setup_warm(&mut self) {
        let store = self.path("warm-store");
        let store_s = store.display().to_string();
        std::fs::create_dir_all(self.path("specs")).expect("create spec dir");
        let mut stored = BTreeSet::new();
        for i in 0..inputs::SWEEPS {
            let start = Instant::now();
            let text = inputs::sweep_text(self.opts.seed, 0, i);
            let spec = self.write_input(&format!("specs/{}.spec", inputs::sweep_name(i)), &text);
            let csv = self.path(&format!("warm-{i}.csv"));
            let spec_s = spec.display().to_string();
            let expected = Self::expected_instructions(&[text], &stored);
            if let Some(out) = self.child(&args(&[
                "run",
                "--specs",
                &spec_s,
                "--store",
                &store_s,
                "--reps",
                "1",
                "--csv-out",
                &csv.display().to_string(),
            ])) {
                let instr = out.one("instr");
                self.check(instr == expected, || {
                    format!("warm set-up {i} simulated {instr} instructions, expected {expected}")
                });
            }
            if let Some(out) =
                self.child(&args(&["check", "--specs", &spec_s, "--store", &store_s]))
            {
                let (jobs, warm) = (out.one("jobs"), out.one("warm"));
                self.check(jobs > 0.0 && warm == jobs, || {
                    format!("warm set-up {i}: only {warm} of {jobs} jobs warm after the fill")
                });
            }
            self.setup.push(start.elapsed().as_secs_f64());
            stored.extend(inputs::sweep_workloads(self.opts.seed, 0, i));
            self.warm_specs.push(spec);
            self.warm_csvs.push(csv);
        }
        self.warm_store = store;
    }

    /// Counts one check per repetition a `run` child reported: its CSV
    /// matched the expected one.
    fn check_csvs(&mut self, out: &ChildOut, what: &str) {
        for ok in out.all("csv_ok").to_vec() {
            self.check(ok == 1.0, || {
                format!("{what}: CSV differs from the expected one")
            });
        }
    }

    /// Files a sample: an untraced one feeds the end-to-end metrics, a
    /// traced one the per-layer metrics; the operation times of both
    /// feed the tracing-overhead comparison.
    fn record(&mut self, traced: bool, out: ChildOut, wall: f64, op_s: &[f64]) {
        if traced {
            self.traced_op_s.extend(op_s);
            if let Some(&ms) = out.all("attributed_ms").first() {
                self.attributed_s.push(ms / 1e3);
            }
            merge(&mut self.layers, out.layers);
        } else {
            self.walls.push(wall);
            self.rss_kb.push(out.one("rss_kb"));
            self.plain_op_s.extend(op_s);
        }
    }

    /// One cold sample (`sweep_cold` / `mix_cold`): a fresh process runs
    /// sample `i`'s specs, jointly, into an empty store. Checked: the instructions
    /// simulated, and that a warm re-run from the filled store simulates
    /// nothing and renders the byte-identical CSV. A traced sample runs
    /// after the untraced one on the same inputs and must render its CSV.
    fn sample_cold(&mut self, i: usize, traced: bool) {
        if !traced {
            self.setup_cold(i);
        }
        let (specs, expected) = self.cold_input.clone();
        let tag = if traced { "traced" } else { "plain" };
        let store = self.path(&format!("cold-{i}-{tag}-store"));
        let csv = self
            .path(&format!("cold-{i}-plain.csv"))
            .display()
            .to_string();
        let spec_s = specs
            .iter()
            .map(|p| p.display().to_string())
            .collect::<Vec<_>>()
            .join(",");
        let store_s = store.display().to_string();
        let run = |csv_flag: &str| {
            args(&[
                "run", "--specs", &spec_s, "--store", &store_s, "--reps", "1", csv_flag, &csv,
            ])
        };
        let mut a = run(if traced { "--expect-csv" } else { "--csv-out" });
        if traced {
            a.push("--traced".into());
        }
        let Some(out) = self.child(&a) else { return };
        self.check_csvs(&out, &format!("traced cold sample {i}"));
        let instr = out.one("instr");
        self.check(instr == expected, || {
            format!("cold sample {i} simulated {instr} instructions, expected {expected}")
        });
        let op_s = out.one("op_ms") / 1e3;
        if !traced {
            let kind = match self.opts.workload {
                Workload::MixCold => "mix",
                _ => "sweep",
            };
            self.ops.entry(kind).or_default().push(op_s * 1e3);
            self.sim.push((instr, op_s));
        }
        let wall = out.wall;
        self.record(traced, out, wall, &[op_s]);
        if let Some(warm) = self.child(&run("--expect-csv")) {
            let warm_instr = warm.one("instr");
            self.check(warm_instr == 0.0, || {
                format!("warm re-run of cold sample {i} simulated {warm_instr} instructions")
            });
            self.check_csvs(&warm, &format!("warm re-run of cold sample {i}"));
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    /// One `sweep_warm` sample: a fresh process re-serves the warm sweeps,
    /// in sample `i`'s seeded order, [`WARM_REPS`] times, reopening the
    /// store each time. Checked: zero instructions simulated, and every
    /// CSV byte-identical to the fills' cold CSVs in that order.
    fn sample_warm(&mut self, i: usize, traced: bool) {
        let order = inputs::sweep_order(self.opts.seed, i);
        let list = |paths: &[PathBuf]| {
            order
                .iter()
                .map(|&k| paths[k].display().to_string())
                .collect::<Vec<_>>()
                .join(",")
        };
        let mut a = args(&[
            "run",
            "--specs",
            &list(&self.warm_specs),
            "--store",
            &self.warm_store.display().to_string(),
            "--reps",
            &WARM_REPS.to_string(),
            "--expect-csv",
            &list(&self.warm_csvs),
        ]);
        if traced {
            a.push("--traced".into());
        }
        let Some(out) = self.child(&a) else { return };
        let instr = out.one("instr");
        self.check(instr == 0.0, || {
            format!("warm sample simulated {instr} instructions")
        });
        self.check_csvs(&out, "warm repetition");
        let op_s: Vec<f64> = out.all("op_ms").iter().map(|ms| ms / 1e3).collect();
        if !traced {
            let ops = self.ops.entry("sweep").or_default();
            ops.extend(op_s.iter().map(|s| s * 1e3));
        }
        let wall = out.wall;
        self.record(traced, out, wall, &op_s);
    }

    /// One `serve_mixed` session over a fresh copy of the warm store.
    fn sample_serve(&mut self, i: usize, traced: bool) {
        let store = self.path(&format!("serve-{i}-{traced}-store"));
        copy_dir(&self.warm_store, &store);
        let refs: Vec<String> = self
            .warm_csvs
            .iter()
            .map(|p| p.display().to_string())
            .collect();
        for w in inputs::write_specs(self.opts.seed, i) {
            self.inputs.insert(format!("{}.spec", w.name), w.text);
        }
        let mut a = args(&[
            "serve",
            "--store",
            &store.display().to_string(),
            "--spec-dir",
            &self.path("specs").display().to_string(),
            "--ref-csvs",
            &refs.join(","),
            "--seed",
            &self.opts.seed.to_string(),
            "--session",
            &i.to_string(),
        ]);
        if traced {
            a.push("--traced".into());
        }
        if let Some(out) = self.child(&a) {
            let (attempted, failed) = (out.one("attempted"), out.one("failed"));
            self.attempted += attempted as u64;
            self.failed += failed as u64;
            if failed > 0.0 {
                self.problems.push(format!(
                    "session {i}: {failed} of {attempted} requests failed"
                ));
            }
            if !traced {
                for (kind, key) in [
                    ("runs", "lat_runs"),
                    ("experiments", "lat_experiments"),
                    ("write", "lat_write"),
                ] {
                    self.ops.entry(kind).or_default().extend(out.all(key));
                }
            }
            let session = out.one("session_s");
            self.record(traced, out, session, &[session]);
        }
        let _ = std::fs::remove_dir_all(&store);
    }

    fn sample(&mut self, i: usize, traced: bool) {
        match self.opts.workload {
            Workload::SweepCold | Workload::MixCold => self.sample_cold(i, traced),
            Workload::SweepWarm => self.sample_warm(i, traced),
            Workload::ServeMixed => self.sample_serve(i, traced),
        }
    }

    /// Set-up, then samples while the next one still fits in the time
    /// budget, going by the mean time of those so far (alternating
    /// untraced and traced samples on the same inputs in a traced run).
    fn run(&mut self) {
        if matches!(
            self.opts.workload,
            Workload::SweepWarm | Workload::ServeMixed
        ) {
            self.setup_warm();
        }
        let start = Instant::now();
        let mut i = 0;
        while i < MIN_SAMPLES || {
            let spent = start.elapsed().as_secs_f64();
            spent + spent / i as f64 <= self.opts.seconds
        } {
            self.sample(i, false);
            if self.opts.trace {
                self.sample(i, true);
            }
            i += 1;
        }
        if self.opts.trace {
            let seed = self.opts.seed.to_string();
            if let Some(out) = self.child(&args(&["replay", "--seed", &seed])) {
                merge(&mut self.layers, out.layers);
            }
        }
    }

    /// Median latency per operation kind, with its tail.
    fn op_summary(&self) -> Vec<OpSummary> {
        self.ops
            .iter()
            .map(|(kind, v)| OpSummary {
                kind,
                samples: v.len(),
                p50_ms: stats::median(v),
                tail: stats::tail(v),
            })
            .collect()
    }

    fn end_to_end(&self) -> Vec<Metric> {
        let p50s: Vec<f64> = self.op_summary().iter().map(|s| s.p50_ms).collect();
        // A sample's peak moves by several MB with the order in which it
        // builds traces, and each sample takes its own seeded order. The
        // mean averages over the orders; a median or maximum picks one.
        let peak_rss_kb = self.rss_kb.iter().sum::<f64>() / self.rss_kb.len().max(1) as f64;
        let values = [
            stats::median(&self.walls),
            stats::median(&self.setup),
            peak_rss_kb / 1024.0,
            stats::geomean(&p50s),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|((name, unit), v)| (name.to_string(), *unit, v))
            .collect()
    }

    fn per_layer_values(&self) -> Vec<Metric> {
        let traced = stats::median(&self.traced_op_s);
        let plain = stats::median(&self.plain_op_s);
        let mut derived = BTreeMap::new();
        derived.insert("trace.wall_s", traced);
        derived.insert("trace.untraced_wall_s", plain);
        derived.insert("trace.overhead_s", traced - plain);
        // The share of an untraced sample's wall time that the traced
        // sample right after it, on the same inputs, spent in named layer
        // calls; the median over such pairs, so that host speed drifting
        // over the run cancels. The serving session runs untraced, so it
        // has no such share.
        let shares: Vec<f64> = self
            .attributed_s
            .iter()
            .zip(&self.walls)
            .map(|(traced, plain)| traced / plain)
            .collect();
        let attributed = stats::median(&shares);
        derived.insert("trace.attributed_frac", attributed);
        per_layer()
            .into_iter()
            .map(|(name, unit)| {
                let values = self.layers.get(&name).map_or(&[][..], Vec::as_slice);
                let v = match derived.get(name.as_str()) {
                    Some(v) => *v,
                    // Counts and simulated statistics are exact: report
                    // the first traced operation's (sample 0, the same
                    // inputs on every run of a seed). Times are medians.
                    None if unit == "count" || name.starts_with("stat.") => {
                        values.first().copied().unwrap_or(0.0)
                    }
                    None => stats::median(values),
                };
                (name, unit, v)
            })
            .collect()
    }
}

fn args(words: &[&str]) -> Vec<String> {
    words.iter().map(|w| w.to_string()).collect()
}

fn merge(into: &mut BTreeMap<String, Vec<f64>>, from: BTreeMap<String, Vec<f64>>) {
    for (k, v) in from {
        into.entry(k).or_default().extend(v);
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).expect("create store copy");
    for entry in std::fs::read_dir(from).expect("list store") {
        let entry = entry.expect("store entry");
        if entry.file_type().is_ok_and(|t| t.is_file()) {
            std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy store file");
        }
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut obj = JsonObject::new();
    for (name, unit, value) in metrics {
        obj = obj.raw(
            name,
            JsonObject::new()
                .raw("value", json_f64(*value))
                .string("unit", unit)
                .build(),
        );
    }
    obj.build()
}

/// The human-readable report lines and the full JSON report.
fn report(bench: &Bench, host: &[(&str, String)], metrics: &[Metric]) -> (Vec<String>, String) {
    let o = &bench.opts;
    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} trace={} samples={} setups={}",
        o.workload.name(),
        o.seed,
        o.seconds,
        u8::from(o.trace),
        bench.walls.len(),
        bench.setup.len()
    )];
    lines.push(format!(
        "host {}",
        host.iter()
            .map(|(k, v)| format!("{k}={v:?}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    let mut ops = JsonObject::new();
    for OpSummary {
        kind,
        samples: n,
        p50_ms: p50,
        tail,
    } in bench.op_summary()
    {
        let tail_text = match tail {
            Some((v, pct)) => format!("p{pct:.1}={v:.3} ms"),
            None => "tail=n/a (fewer than 11 samples)".to_string(),
        };
        lines.push(format!("op {kind}: n={n} p50={p50:.3} ms {tail_text}"));
        let mut obj = JsonObject::new()
            .u64("samples", n as u64)
            .raw("p50_ms", json_f64(p50));
        if let Some((v, pct)) = tail {
            obj = obj
                .raw("tail_ms", json_f64(v))
                .raw("tail_percentile", json_f64(pct));
        }
        ops = ops.raw(kind, obj.build());
    }
    let mut extra = JsonObject::new();
    if !bench.sim.is_empty() {
        let mips: Vec<f64> = bench.sim.iter().map(|(i, s)| i / s / 1e6).collect();
        let m = stats::median(&mips);
        lines.push(format!(
            "sim_mips={m:.3} (simulated instructions per host second, median of {})",
            mips.len()
        ));
        extra = extra.raw("sim_mips", json_f64(m));
    }
    if o.workload == Workload::ServeMixed && !bench.walls.is_empty() {
        let requests: usize = ["runs", "experiments", "write"]
            .iter()
            .map(|k| bench.ops.get(k).map_or(0, Vec::len))
            .sum();
        let rps = requests as f64 / bench.walls.iter().sum::<f64>();
        lines.push(format!("rps={rps:.2} over {requests} requests"));
        extra = extra.raw("rps", json_f64(rps));
    }
    if o.trace {
        let l = |k: &str| metrics.iter().find(|m| m.0 == k).map_or(0.0, |m| m.2);
        lines.push(format!(
            "tracing: traced op {:.4} s, untraced op {:.4} s, overhead {:.4} s, attributed to named layer calls {:.1}%",
            l("trace.wall_s"),
            l("trace.untraced_wall_s"),
            l("trace.overhead_s"),
            100.0 * l("trace.attributed_frac")
        ));
    }
    for (name, unit, value) in metrics {
        lines.push(format!("metric {name} = {value} {unit}"));
    }
    lines.push(format!(
        "checks attempted={} failed={}",
        bench.attempted, bench.failed
    ));
    for p in &bench.problems {
        lines.push(format!("FAILED {p}"));
    }
    let mut inputs = JsonObject::new();
    for (name, text) in &bench.inputs {
        inputs = inputs.string(name, text);
    }
    let mut host_obj = JsonObject::new();
    for (k, v) in host {
        host_obj = host_obj.string(k, v);
    }
    let json = JsonObject::new()
        .string("workload", o.workload.name())
        .u64("seed", o.seed)
        .raw("seconds", json_f64(o.seconds))
        .raw("trace", o.trace.to_string())
        .raw("host", host_obj.build())
        .u64("engine_threads", bench.threads as u64)
        .raw(
            "setup_s",
            gaze_serve::json::json_array(bench.setup.iter().map(|v| json_f64(*v))),
        )
        .raw(
            "sample_wall_s",
            gaze_serve::json::json_array(bench.walls.iter().map(|v| json_f64(*v))),
        )
        .raw(
            "sample_peak_rss_kb",
            gaze_serve::json::json_array(bench.rss_kb.iter().map(|v| json_f64(*v))),
        )
        .raw("operations", ops.build())
        .raw("extra", extra.build())
        .raw("metrics", metrics_json(metrics))
        .u64("attempted", bench.attempted)
        .u64("failed", bench.failed)
        .raw(
            "problems",
            gaze_serve::json::json_array(bench.problems.iter().map(|p| json_string(p))),
        )
        .raw("inputs", inputs.build())
        .build();
    (lines, json)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("child") {
        child::main(&argv[1..]);
        return;
    }
    let opts = match parse_args(&argv) {
        Ok(o) => o,
        Err(e) => {
            println!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let root = std::env::current_dir().expect("current directory");
    let work = root
        .join(".perfbench")
        .join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).expect("create work directory");
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut bench = Bench {
        opts,
        exe: std::env::current_exe().expect("own executable"),
        work: work.clone(),
        threads,
        attempted: 0,
        failed: 0,
        problems: Vec::new(),
        setup: Vec::new(),
        walls: Vec::new(),
        rss_kb: Vec::new(),
        ops: BTreeMap::new(),
        plain_op_s: Vec::new(),
        traced_op_s: Vec::new(),
        layers: BTreeMap::new(),
        attributed_s: Vec::new(),
        sim: Vec::new(),
        inputs: BTreeMap::new(),
        cold_input: (Vec::new(), 0.0),
        warm_store: PathBuf::new(),
        warm_specs: Vec::new(),
        warm_csvs: Vec::new(),
    };
    let reference_before = host::reference_ms();
    bench.run();
    let reference_after = host::reference_ms();
    let _ = std::fs::remove_dir_all(&work);

    let metrics = if bench.opts.trace {
        bench.per_layer_values()
    } else {
        bench.end_to_end()
    };
    let mut host = host::shape();
    host.push((
        "reference_ms_start_end",
        format!("{reference_before:.1}/{reference_after:.1}"),
    ));
    let (lines, json) = report(&bench, &host, &metrics);
    for line in &lines {
        println!("{line}");
    }
    let results = root.join(".perfbench").join("results");
    if std::fs::create_dir_all(&results).is_ok() {
        let file = results.join(format!(
            "{}-seed{}-trace{}.json",
            bench.opts.workload.name(),
            bench.opts.seed,
            u8::from(bench.opts.trace)
        ));
        let _ = std::fs::write(file, json + "\n");
    }
    let correct = bench.failed == 0 && bench.attempted > 0;
    println!(
        "{}",
        JsonObject::new()
            .raw("correct", correct.to_string())
            .u64("attempted", bench.attempted.max(1))
            .u64("failed", bench.failed)
            .raw("metrics", metrics_json(&metrics))
            .build()
    );
    if !correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` declares exactly the metrics this program prints,
    /// with the same units.
    #[test]
    fn benchmark_json_lists_every_printed_metric() {
        let json = include_str!("../../BENCHMARK.json");
        let metrics: Vec<(String, &str)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), *u))
            .chain(per_layer())
            .collect();
        for (name, unit) in &metrics {
            let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "{name} ({unit}) missing");
        }
        let declared = json.matches("\"unit\":").count();
        assert_eq!(
            declared,
            metrics.len(),
            "BENCHMARK.json declares other metrics"
        );
    }
}
