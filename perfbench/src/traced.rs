//! The traced run: the spec pipeline re-assembled from each layer's
//! public functions, with a timer around every call into a layer. No
//! tracing lives inside the program; the untraced samples call the same
//! program through its one entry point (`spec::run_specs`), so the
//! difference between the two is the tracing overhead.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::rc::Rc;
use std::time::{Duration, Instant};

use gaze_sim::baseline_cache::{baseline_stats, multicore_baseline};
use gaze_sim::experiments::ExperimentScale;
use gaze_sim::runner::{
    multi_level_name, records_for, run_heterogeneous, simulate_core, simulated_instructions,
    SingleRun,
};
use gaze_sim::spec::plan::{self, Job};
use gaze_sim::spec::{plan_specs, render::render_spec, text};
use gaze_sim::{load_or_build, make_prefetcher, parallel_map, results, AnyTrace};
use prefetch_common::access::DemandAccess;
use prefetch_common::prefetcher::Prefetcher;
use prefetch_common::sink::RequestSink;
use results_store::RunQuery;
use sim_core::stats::SimReport;
use sim_core::trace::{source_fingerprint, TraceSource};

use crate::inputs::MIX_PREFETCHERS;

/// Per-layer values of one traced operation, by metric name.
pub type Layers = BTreeMap<String, f64>;

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn timed<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

fn add(layers: &mut Layers, name: &str, value: f64) {
    *layers.entry(name.to_string()).or_insert(0.0) += value;
}

/// The simulator's published cycle counters (stepped, skipped).
fn cycle_counters() -> (u64, u64) {
    let r = gaze_obs::metrics::registry();
    (
        r.counter(
            "gaze_sim_cycles_stepped_total",
            "Simulator cycles advanced one at a time",
        )
        .get(),
        r.counter(
            "gaze_sim_cycles_skipped_total",
            "Simulator cycles fast-forwarded by event-driven skipping",
        )
        .get(),
    )
}

/// What one engine job did, timed call by call.
#[derive(Default)]
struct JobTrace {
    busy: Duration,
    fingerprint: Duration,
    fingerprint_calls: u64,
    lookup: Duration,
    /// Whether the store held the job; `None` for a mix job, whose
    /// lookup happens inside the one timed mix call.
    hit: Option<bool>,
    simulate: Duration,
    sim_name: String,
    baseline: Duration,
    single: Option<SingleRun>,
    mix: Option<SimReport>,
}

/// One job through the store-backed path. A single-core job mirrors
/// `runner::run_multi_level_single` call by call. A mix job calls what
/// `plan::execute` calls (`multicore_baseline` / `run_heterogeneous`) and
/// times it as one call: those functions fingerprint, look up, simulate
/// and append by themselves, and repeating that work outside them would
/// time work the program does not do.
fn run_job(
    job: &Job,
    traces: &HashMap<String, AnyTrace>,
    store: &results::StoreHandle,
) -> JobTrace {
    let started = Instant::now();
    let mut t = JobTrace::default();
    match job {
        Job::Single {
            workload,
            l1,
            l2,
            params,
        } => {
            let trace = &traces[workload.as_str()];
            let (fp, d) = timed(|| source_fingerprint(trace));
            t.fingerprint = d;
            t.fingerprint_calls = 1;
            let name = multi_level_name(l1, l2.as_deref());
            let (stored, d) = timed(|| store.lookup(fp, params.fingerprint(), &name, workload));
            t.lookup = d;
            t.hit = Some(stored.is_some());
            let run = match stored {
                Some(run) => run,
                None => {
                    let (stats, d) = timed(|| {
                        simulate_core(
                            trace,
                            make_prefetcher(l1),
                            l2.as_deref().map(make_prefetcher),
                            params,
                        )
                    });
                    t.simulate = d;
                    t.sim_name = l1.clone();
                    let (baseline, d) = timed(|| baseline_stats(trace, params));
                    t.baseline = d;
                    let run = SingleRun {
                        workload: workload.clone(),
                        prefetcher: name,
                        stats,
                        baseline,
                    };
                    store.record(&run, fp, params);
                    run
                }
            };
            t.single = Some(run);
        }
        Job::Mix {
            workloads,
            prefetcher,
            params,
        } => {
            let refs: Vec<&dyn TraceSource> = workloads
                .iter()
                .map(|w| &traces[w.as_str()] as &dyn TraceSource)
                .collect();
            let (report, d) = timed(|| {
                if prefetcher == "none" {
                    multicore_baseline(&refs, params)
                } else {
                    run_heterogeneous(&refs, prefetcher, params)
                }
            });
            t.simulate = d;
            t.sim_name = "mix".to_string();
            t.mix = Some(report);
        }
    }
    t.busy = started.elapsed();
    t
}

/// Job output of one traced pipeline, for the simulated statistics.
pub struct Outputs {
    singles: Vec<SingleRun>,
    mixes: Vec<(Vec<String>, String, SimReport)>,
}

/// One traced operation.
pub struct Traced {
    /// Wall time of the operation.
    pub op: Duration,
    /// Time spent inside the named layer calls, summed.
    pub attributed: Duration,
    /// Every spec's tables as CSV, in order.
    pub csv: String,
    /// Per-layer values.
    pub layers: Layers,
    /// Job output, for the simulated statistics.
    pub outputs: Outputs,
}

/// Runs the specs (jointly planned, as one CLI invocation with several
/// `--spec`s) through the traced pipeline against the store at
/// `store_dir`: open → parse → plan → trace synthesis → engine (per job:
/// fingerprint → lookup → simulate → append) → flush → render.
pub fn pipeline(spec_texts: &[String], store_dir: &Path) -> Traced {
    let scale = ExperimentScale::quick();
    let mut l = Layers::new();
    let t0 = Instant::now();

    let (store, d) = timed(|| {
        results::configure(Some(store_dir))
            .expect("open results store")
            .expect("configure(Some) yields a store")
    });
    add(&mut l, "store.open_ms", ms(d));
    add(
        &mut l,
        "store.segments",
        store.with_store(|s| s.segment_count()) as f64,
    );
    let (specs, d) = timed(|| {
        spec_texts
            .iter()
            .map(|t| text::parse(t).expect("generated spec parses"))
            .collect::<Vec<_>>()
    });
    add(&mut l, "spec.parse_ms", ms(d));
    let refs: Vec<_> = specs.iter().collect();
    let (job_plan, d) = timed(|| plan_specs(&refs, &scale));
    add(&mut l, "spec.plan_ms", ms(d));
    add(&mut l, "spec.plan_jobs", job_plan.len() as f64);

    let records = records_for(&scale.params);
    let mut traces: HashMap<String, AnyTrace> = HashMap::new();
    let mut build = Duration::ZERO;
    let mut built_records = 0usize;
    for job in job_plan.jobs() {
        let names: Vec<&String> = match job {
            Job::Single { workload, .. } => vec![workload],
            Job::Mix { workloads, .. } => workloads.iter().collect(),
        };
        for name in names {
            if !traces.contains_key(name.as_str()) {
                let (trace, d) = timed(|| load_or_build(name, records));
                build += d;
                built_records += trace.len();
                traces.insert(name.clone(), trace);
            }
        }
    }
    add(&mut l, "workloads.build_ms", ms(build));
    add(&mut l, "workloads.records", built_records as f64);

    let mix_rows_before = store.with_store(|s| s.mix_len());
    let cycles_before = cycle_counters();
    let instr_before = simulated_instructions();
    let (jobs, execute) =
        timed(|| parallel_map(job_plan.jobs(), |job| run_job(job, &traces, &store)));
    let instructions = simulated_instructions() - instr_before;
    let cycles_after = cycle_counters();
    let ((), flush) = timed(|| {
        results::try_flush().expect("flush results store");
    });
    let engine_and_before = t0.elapsed();

    // Rendering needs `plan::JobResults`, which only `plan::execute` can
    // build. On the store the traced engine just filled, that execute is
    // all store hits; it stays outside the timed operation.
    let results_for_render = plan::execute(&job_plan, &scale);
    let (csv, render) = timed(|| {
        specs
            .iter()
            .flat_map(|spec| render_spec(spec, &scale, &results_for_render))
            .map(|table| table.to_csv())
            .collect::<String>()
    });
    let op = engine_and_before + render;

    add(&mut l, "spec.render_ms", ms(render));
    add(&mut l, "engine.execute_ms", ms(execute));
    add(&mut l, "engine.threads", gaze_sim::worker_count() as f64);
    add(&mut l, "store.flush_ms", ms(flush));
    add(&mut l, "simulate.instructions", instructions as f64);
    add(
        &mut l,
        "simulate.cycles_stepped",
        (cycles_after.0 - cycles_before.0) as f64,
    );
    add(
        &mut l,
        "simulate.cycles_skipped",
        (cycles_after.1 - cycles_before.1) as f64,
    );
    let mut outputs = Outputs {
        singles: Vec::new(),
        mixes: Vec::new(),
    };
    let (mut busy, mut fingerprint, mut lookup, mut simulate) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let (mut lookups, mut mix_jobs) = (0u64, 0u64);
    for (job, t) in job_plan.jobs().iter().zip(jobs) {
        busy += t.busy;
        fingerprint += t.fingerprint;
        add(&mut l, "fingerprint.calls", t.fingerprint_calls as f64);
        match t.hit {
            Some(hit) => {
                lookup += t.lookup;
                lookups += 1;
                add(&mut l, if hit { "store.hits" } else { "store.misses" }, 1.0);
                if !hit {
                    add(&mut l, "store.append_rows", 1.0);
                    add(
                        &mut l,
                        &format!("simulate.{}_ms", t.sim_name),
                        ms(t.simulate),
                    );
                    add(&mut l, "simulate.none_ms", ms(t.baseline));
                    simulate += t.simulate + t.baseline;
                }
            }
            None => {
                mix_jobs += 1;
                add(&mut l, "simulate.mix_ms", ms(t.simulate));
                simulate += t.simulate;
            }
        }
        if let Some(run) = t.single {
            outputs.singles.push(run);
        }
        if let (
            Some(report),
            Job::Mix {
                workloads,
                prefetcher,
                ..
            },
        ) = (t.mix, job)
        {
            outputs
                .mixes
                .push((workloads.clone(), prefetcher.clone(), report));
        }
    }
    // Each mix miss appended one mix row; the rest were hits.
    let mix_misses = (store.with_store(|s| s.mix_len()) - mix_rows_before) as u64;
    add(&mut l, "store.misses", mix_misses as f64);
    add(&mut l, "store.append_rows", mix_misses as f64);
    add(&mut l, "store.hits", (mix_jobs - mix_misses) as f64);
    add(&mut l, "engine.busy_ms", ms(busy));
    let threads = gaze_sim::worker_count().max(1) as f64;
    add(
        &mut l,
        "engine.utilization",
        busy.as_secs_f64() / (execute.as_secs_f64() * threads).max(1e-12),
    );
    add(&mut l, "fingerprint.ms", ms(fingerprint));
    add(
        &mut l,
        "store.lookup_us",
        lookup.as_secs_f64() * 1e6 / lookups.max(1) as f64,
    );
    add(&mut l, "simulate.ms", ms(simulate));
    if instructions > 0 {
        add(
            &mut l,
            "simulate.ns_per_instr",
            simulate.as_secs_f64() * 1e9 / instructions as f64,
        );
    }
    if built_records > 0 {
        add(
            &mut l,
            "workloads.ns_per_record",
            build.as_secs_f64() * 1e9 / built_records as f64,
        );
    }
    let attributed = [
        "store.open_ms",
        "spec.parse_ms",
        "spec.plan_ms",
        "workloads.build_ms",
        "engine.execute_ms",
        "store.flush_ms",
        "spec.render_ms",
    ]
    .iter()
    .map(|k| l[*k])
    .sum::<f64>();
    store_query(&store, &outputs, &mut l);
    Traced {
        op,
        attributed: Duration::from_secs_f64(attributed / 1e3),
        csv,
        layers: l,
        outputs,
    }
}

/// Point queries (`RunQuery`, the `/runs` path) on every stored key the
/// pipeline produced; mean microseconds per query.
fn store_query(store: &results::StoreHandle, outputs: &Outputs, l: &mut Layers) {
    if outputs.singles.is_empty() {
        return;
    }
    let (hits, d) = timed(|| {
        outputs
            .singles
            .iter()
            .map(|run| {
                let query = RunQuery {
                    workload: Some(run.workload.clone()),
                    prefetcher: Some(run.prefetcher.clone()),
                    limit: Some(1),
                    ..RunQuery::default()
                };
                store.with_store(|s| s.query(&query).len())
            })
            .sum::<usize>()
    });
    assert!(
        hits >= outputs.singles.len(),
        "stored rows must be queryable"
    );
    add(
        l,
        "store.query_us",
        d.as_secs_f64() * 1e6 / outputs.singles.len() as f64,
    );
}

/// The simulated statistics the pipeline produced: per prefetcher, the
/// mean IPC, speedup, accuracy and coverage over the sweep's workloads;
/// per mix prefetcher, the mean geometric-mean speedup over the mixes.
pub fn simulated_stats(outputs: &Outputs, l: &mut Layers) {
    let mut by_pf: BTreeMap<&str, Vec<&SingleRun>> = BTreeMap::new();
    for run in &outputs.singles {
        by_pf.entry(run.prefetcher.as_str()).or_default().push(run);
    }
    for (pf, runs) in &by_pf {
        let n = runs.len() as f64;
        let mean = |f: &dyn Fn(&SingleRun) -> f64| runs.iter().map(|r| f(r)).sum::<f64>() / n;
        add(l, &format!("stat.{pf}.ipc"), mean(&|r| r.stats.ipc()));
        add(l, &format!("stat.{pf}.speedup"), mean(&|r| r.speedup()));
        add(l, &format!("stat.{pf}.accuracy"), mean(&|r| r.accuracy()));
        add(l, &format!("stat.{pf}.coverage"), mean(&|r| r.coverage()));
    }
    if !outputs.singles.is_empty() {
        let n = outputs.singles.len() as f64;
        let base = outputs
            .singles
            .iter()
            .map(|r| r.baseline.ipc())
            .sum::<f64>();
        add(l, "stat.none.ipc", base / n);
    }
    for pf in MIX_PREFETCHERS {
        let speedups: Vec<f64> = outputs
            .mixes
            .iter()
            .filter(|(_, p, _)| p == pf)
            .filter_map(|(mix, _, report)| {
                outputs
                    .mixes
                    .iter()
                    .find(|(m, p, _)| m == mix && p == "none")
                    .map(|(_, _, base)| report.speedup_over(base))
            })
            .collect();
        if !speedups.is_empty() {
            add(
                l,
                &format!("stat.mix.{pf}.speedup"),
                speedups.iter().sum::<f64>() / speedups.len() as f64,
            );
        }
    }
}

/// Records the demand stream the L1D prefetcher sees, passing nothing
/// back (it behaves as `none`).
struct Recorder {
    log: Rc<RefCell<Vec<(DemandAccess, bool)>>>,
}

impl Prefetcher for Recorder {
    fn name(&self) -> &str {
        "none"
    }

    fn on_access(&mut self, access: &DemandAccess, cache_hit: bool, _sink: &mut RequestSink) {
        self.log.borrow_mut().push((*access, cache_hit));
    }

    fn storage_bits(&self) -> u64 {
        0
    }
}

/// Prefetcher layer in isolation: records the L1D demand stream of each
/// workload in `workloads` (one quick-budget run each), then replays the
/// concatenated stream through every prefetcher's `on_access` + `tick`.
/// Reports nanoseconds per access (median of three fresh passes) and
/// the requests the prefetcher emitted.
pub fn replay(workloads: &[String], prefetchers: &[&str]) -> Layers {
    let params = ExperimentScale::quick().params;
    let records = records_for(&params);
    let log = Rc::new(RefCell::new(Vec::new()));
    for w in workloads {
        let trace = load_or_build(w, records);
        let recorder = Recorder {
            log: Rc::clone(&log),
        };
        simulate_core(&trace, Box::new(recorder), None, &params);
    }
    let stream = log.take();
    let mut l = Layers::new();
    for pf in prefetchers {
        let mut times = Vec::new();
        let mut requests = 0usize;
        for _ in 0..3 {
            let mut p = make_prefetcher(pf);
            let mut sink = RequestSink::new();
            requests = 0;
            let start = Instant::now();
            for (access, hit) in &stream {
                p.on_access(access, *hit, &mut sink);
                requests += sink.len();
                sink.clear();
                p.tick(&mut sink);
                requests += sink.len();
                sink.clear();
            }
            times.push(start.elapsed().as_secs_f64() * 1e9 / stream.len().max(1) as f64);
        }
        add(
            &mut l,
            &format!("prefetcher.{pf}.ns_per_access"),
            crate::stats::median(&times),
        );
        add(
            &mut l,
            &format!("prefetcher.{pf}.requests"),
            requests as f64,
        );
    }
    l
}

/// The observability layer: cost of one histogram record, and of
/// rendering the process registry as `/metrics` text.
pub fn obs() -> Layers {
    let mut l = Layers::new();
    let h = gaze_obs::metrics::Histogram::new();
    const N: u64 = 200_000;
    let start = Instant::now();
    for i in 0..N {
        h.record(std::hint::black_box(
            i.wrapping_mul(2_654_435_761) % 1_000_000,
        ));
    }
    add(
        &mut l,
        "obs.histogram_record_ns",
        start.elapsed().as_secs_f64() * 1e9 / N as f64,
    );
    assert_eq!(h.count(), N);
    let renders: Vec<f64> = (0..5)
        .map(|_| {
            let (text, d) = timed(|| gaze_obs::metrics::registry().render());
            std::hint::black_box(text);
            ms(d)
        })
        .collect();
    add(
        &mut l,
        "obs.metrics_render_ms",
        crate::stats::median(&renders),
    );
    l
}
