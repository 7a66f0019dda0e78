//! The full simulated system: cores + prefetchers + memory hierarchy.
//!
//! [`System`] owns one [`CoreModel`], one trace
//! reader, one L1D prefetcher (and optionally an L2C prefetcher, for the
//! multi-level study of Fig. 13) per core, plus the shared
//! [`MemoryHierarchy`]. Traces arrive as
//! [`TraceSource`]s, so an in-memory [`Trace`](crate::trace::Trace) and a
//! streamed on-disk [`GztTrace`](crate::gzt::GztTrace) are interchangeable
//! (and produce bit-identical reports). Simulation follows the paper's
//! methodology: every core first executes a warm-up instruction budget with
//! statistics disabled, then a measured budget; cores that finish early keep
//! replaying their trace so that multi-core contention persists until the
//! slowest core completes.

use std::collections::VecDeque;

use prefetch_common::access::{AccessKind, DemandAccess};
use prefetch_common::prefetcher::Prefetcher;
use prefetch_common::request::{FillLevel, PrefetchRequest};
use prefetch_common::sink::RequestSink;

use crate::config::SimConfig;
use crate::core::CoreModel;
use crate::hierarchy::MemoryHierarchy;
use crate::stats::{CoreStats, SimReport};
use crate::trace::{TraceReader, TraceRecord, TraceSource};

/// Maximum cycles per retired instruction before the simulator declares the
/// run wedged. Generous enough for fully memory-bound phases.
const DEADLOCK_CYCLES_PER_INSTR: u64 = 10_000;

struct PerCore<'t> {
    core: CoreModel,
    reader: Box<dyn TraceReader + 't>,
    l1_prefetcher: Box<dyn Prefetcher>,
    l2_prefetcher: Option<Box<dyn Prefetcher>>,
    prefetch_queue: VecDeque<PrefetchRequest>,
    /// Reusable request buffer for this core's prefetcher hooks — the hot
    /// path never allocates.
    sink: RequestSink,
    pending: Option<(TraceRecord, u32)>,
    instr_id: u64,
    measured_cycles: Option<u64>,
    measure_start_cycle: u64,
    measured_instructions: u64,
}

/// A complete simulated machine executing one trace per core.
pub struct System<'t> {
    cfg: SimConfig,
    hierarchy: MemoryHierarchy,
    cores: Vec<PerCore<'t>>,
    cycle: u64,
    /// Watermark of the cycles already folded into the process-global
    /// metrics (the per-cycle loop must not touch shared atomics).
    published_cycles: u64,
}

impl<'t> System<'t> {
    /// Builds a single-core system.
    pub fn single_core(
        cfg: SimConfig,
        trace: &'t dyn TraceSource,
        prefetcher: Box<dyn Prefetcher>,
    ) -> Self {
        assert_eq!(cfg.cores, 1, "single_core requires a 1-core configuration");
        Self::new(cfg, vec![trace], vec![prefetcher])
    }

    /// Builds a system with one trace source and one L1D prefetcher per
    /// core. The same source may back several cores (homogeneous mixes) —
    /// every core gets its own independent reader.
    ///
    /// # Panics
    ///
    /// Panics if the number of traces or prefetchers does not match
    /// `cfg.cores`.
    pub fn new(
        cfg: SimConfig,
        traces: Vec<&'t dyn TraceSource>,
        prefetchers: Vec<Box<dyn Prefetcher>>,
    ) -> Self {
        assert_eq!(traces.len(), cfg.cores, "one trace per core required");
        assert_eq!(
            prefetchers.len(),
            cfg.cores,
            "one prefetcher per core required"
        );
        let hierarchy = MemoryHierarchy::new(cfg);
        let cores = traces
            .into_iter()
            .zip(prefetchers)
            .map(|(trace, l1_prefetcher)| PerCore {
                core: CoreModel::new(cfg.core),
                reader: trace.reader(),
                l1_prefetcher,
                l2_prefetcher: None,
                prefetch_queue: VecDeque::new(),
                sink: RequestSink::new(),
                pending: None,
                instr_id: 0,
                measured_cycles: None,
                measure_start_cycle: 0,
                measured_instructions: 0,
            })
            .collect();
        System {
            cfg,
            hierarchy,
            cores,
            cycle: 0,
            published_cycles: 0,
        }
    }

    /// Attaches an L2C prefetcher to `core` (multi-level prefetching,
    /// Fig. 13). The L2 prefetcher trains on the demand stream that misses
    /// the L1D and its requests are clamped to fill the L2C or below.
    pub fn set_l2_prefetcher(&mut self, core: usize, prefetcher: Box<dyn Prefetcher>) {
        self.cores[core].l2_prefetcher = Some(prefetcher);
    }

    /// The simulator configuration.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Moves the sink's requests into the bounded prefetch queue, optionally
    /// clamping L1-targeted requests to the L2 (for L2-attached prefetchers).
    fn enqueue_sink(
        queue: &mut VecDeque<PrefetchRequest>,
        cap: usize,
        sink: &RequestSink,
        clamp_to_l2: bool,
        dropped_queue_full: &mut u64,
    ) {
        for mut req in sink.iter() {
            if clamp_to_l2 && req.fill_level == FillLevel::L1 {
                req.fill_level = FillLevel::L2;
            }
            if queue.len() >= cap {
                *dropped_queue_full += 1;
            } else {
                queue.push_back(req);
            }
        }
    }

    /// Advances core `idx` by one cycle.
    fn step_core(&mut self, idx: usize, measuring: bool, target: u64) {
        let now = self.cycle;
        let cfg = self.cfg;
        let pc = &mut self.cores[idx];
        let mut dropped_queue_full = 0u64;

        // 1. Deliver fill / eviction notifications to the L1 prefetcher.
        for fill in self.hierarchy.take_l1_fills(idx) {
            pc.l1_prefetcher.on_fill(fill.block, fill.was_prefetch);
        }
        for block in self.hierarchy.take_l1_evictions(idx) {
            pc.l1_prefetcher.on_evict(block);
        }

        // 2. Give the prefetcher its cycle tick (e.g. Gaze's Prefetch Buffer
        //    drains a few blocks per cycle).
        pc.sink.clear();
        pc.l1_prefetcher.tick(&mut pc.sink);
        Self::enqueue_sink(
            &mut pc.prefetch_queue,
            cfg.prefetch_queue,
            &pc.sink,
            false,
            &mut dropped_queue_full,
        );

        // 3. Retire.
        pc.core.retire(now);
        if measuring && pc.measured_cycles.is_none() {
            let after = pc.core.retired_instructions();
            pc.measured_instructions = after;
            if after >= target {
                pc.measured_cycles = Some(now.saturating_sub(pc.measure_start_cycle).max(1));
            }
        }

        // 4. Dispatch up to `width` instructions.
        for _ in 0..cfg.core.width {
            if !pc.core.can_dispatch() {
                break;
            }
            if pc.pending.is_none() {
                let rec = pc.reader.next_record();
                pc.pending = Some((rec, rec.non_mem_before));
            }
            let (rec, remaining) = pc.pending.expect("pending record present");
            if remaining > 0 {
                pc.core.dispatch_simple(now);
                pc.pending = Some((rec, remaining - 1));
                continue;
            }
            // The memory instruction itself. Loads stall at dispatch when the
            // load queue or the L1D demand MSHRs are exhausted, which is what
            // bounds the memory-level parallelism a single core can expose.
            if !rec.is_store
                && (!pc.core.can_dispatch_load(now)
                    || self.hierarchy.l1_demand_occupancy(idx) >= cfg.l1d.mshrs)
            {
                break;
            }
            pc.instr_id += 1;
            let access = DemandAccess {
                pc: rec.pc,
                addr: rec.addr,
                kind: if rec.is_store {
                    AccessKind::Store
                } else {
                    AccessKind::Load
                },
                instr_id: pc.instr_id,
            };
            let result = self
                .hierarchy
                .demand_access(idx, rec.addr.block(), rec.is_store, now);
            pc.sink.clear();
            pc.l1_prefetcher
                .on_access(&access, result.l1_hit, &mut pc.sink);
            Self::enqueue_sink(
                &mut pc.prefetch_queue,
                cfg.prefetch_queue,
                &pc.sink,
                false,
                &mut dropped_queue_full,
            );
            if !result.l1_hit {
                if let Some(l2pf) = pc.l2_prefetcher.as_mut() {
                    let l2_hit = matches!(result.served_by, crate::hierarchy::HitLevel::L2);
                    pc.sink.clear();
                    l2pf.on_access(&access, l2_hit, &mut pc.sink);
                    // L2 prefetcher requests are clamped to fill the L2 or below.
                    Self::enqueue_sink(
                        &mut pc.prefetch_queue,
                        cfg.prefetch_queue,
                        &pc.sink,
                        true,
                        &mut dropped_queue_full,
                    );
                }
            }
            if rec.is_store {
                pc.core.dispatch_simple(now);
            } else {
                pc.core.dispatch_load(result.complete_at);
            }
            pc.pending = None;
        }

        // 5. Issue prefetches from the queue, after demands so that demand
        //    misses get MSHRs first. A prefetch that cannot get a fill-buffer
        //    slot is rotated to the back of the queue (it is not lost and it
        //    does not block requests behind it targeting other levels).
        for _ in 0..cfg.prefetch_issue_width {
            let Some(req) = pc.prefetch_queue.pop_front() else {
                break;
            };
            if self.hierarchy.issue_prefetch(idx, req, now)
                == crate::hierarchy::PrefetchOutcome::MshrFull
            {
                pc.prefetch_queue.push_back(req);
            }
        }
        if dropped_queue_full > 0 {
            self.hierarchy
                .note_prefetch_queue_drops(idx, dropped_queue_full);
        }
    }

    fn run_phase(&mut self, instructions_per_core: u64, measuring: bool) {
        for pc in &mut self.cores {
            pc.core.reset_retired();
            pc.measured_cycles = None;
            pc.measure_start_cycle = self.cycle;
            pc.measured_instructions = 0;
        }
        let deadline = self.cycle + instructions_per_core.max(1) * DEADLOCK_CYCLES_PER_INSTR;
        loop {
            let all_done = self
                .cores
                .iter()
                .all(|pc| pc.core.retired_instructions() >= instructions_per_core);
            if all_done {
                break;
            }
            assert!(
                self.cycle < deadline,
                "simulation wedged: no forward progress"
            );
            // Apply any cache fills that completed by this cycle so that
            // MSHRs free and stalled cores can make progress even on cycles
            // where they issue no new requests.
            self.hierarchy.advance_to(self.cycle);
            for idx in 0..self.cores.len() {
                self.step_core(idx, measuring, instructions_per_core);
            }
            self.cycle += 1;
        }
        if measuring {
            // Any core that reached the target exactly at the final cycle.
            for pc in &mut self.cores {
                if pc.measured_cycles.is_none() {
                    pc.measured_instructions = pc.core.retired_instructions();
                    pc.measured_cycles =
                        Some(self.cycle.saturating_sub(pc.measure_start_cycle).max(1));
                }
            }
        }
    }

    /// Runs `warmup` instructions per core with statistics disabled, then
    /// `measured` instructions per core with statistics enabled, and returns
    /// the per-core report.
    pub fn run(&mut self, warmup: u64, measured: u64) -> SimReport {
        assert!(measured > 0, "measured instruction budget must be positive");
        if warmup > 0 {
            self.hierarchy.set_stats_enabled(false);
            self.run_phase(warmup, false);
        }
        self.hierarchy.set_stats_enabled(true);
        self.hierarchy.reset_stats();
        self.run_phase(measured, true);
        self.hierarchy.finalize();
        self.publish_cycle_metrics();

        let cores = self
            .cores
            .iter()
            .enumerate()
            .map(|(idx, pc)| {
                let h = self.hierarchy.stats(idx);
                CoreStats {
                    // Report the instructions actually retired when the
                    // measurement window closed; padding this up to the
                    // budget would silently inflate IPC for under-retiring
                    // cores.
                    instructions: pc.measured_instructions,
                    cycles: pc.measured_cycles.unwrap_or(1),
                    l1d: h.l1d,
                    l2c: h.l2c,
                    llc: h.llc,
                    prefetch: h.prefetch,
                }
            })
            .collect();
        SimReport { cores }
    }

    /// Folds the cycles stepped since the previous publication into the
    /// process-global `gaze_sim_cycles_stepped_total`. One atomic add per
    /// `run`, nothing per cycle — and purely observational, so simulation
    /// output stays bit-exact.
    fn publish_cycle_metrics(&mut self) {
        use std::sync::OnceLock;
        static STEPPED: OnceLock<gaze_obs::metrics::Counter> = OnceLock::new();
        STEPPED
            .get_or_init(|| {
                gaze_obs::metrics::registry().counter(
                    "gaze_sim_cycles_stepped_total",
                    "Simulator cycles advanced one at a time",
                )
            })
            .add(self.cycle - self.published_cycles);
        self.published_cycles = self.cycle;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::Trace;
    use prefetch_common::prefetcher::NullPrefetcher;

    /// A deliberately aggressive prefetcher used only in tests: prefetches
    /// the next `degree` sequential blocks on every access, the first
    /// `l1_degree` of them into the L1D and the remainder into the L2C
    /// (the same fill-level split real spatial prefetchers use).
    struct NextLine {
        degree: usize,
        l1_degree: usize,
    }

    impl Prefetcher for NextLine {
        fn name(&self) -> &str {
            "test-next-line"
        }

        fn on_access(&mut self, access: &DemandAccess, _hit: bool, sink: &mut RequestSink) {
            for d in 1..=self.degree as i64 {
                let block = access.block().offset_by(d);
                if d <= self.l1_degree as i64 {
                    sink.push(PrefetchRequest::to_l1(block));
                } else {
                    sink.push(PrefetchRequest::to_l2(block));
                }
            }
        }

        fn storage_bits(&self) -> u64 {
            0
        }
    }

    fn streaming_trace(records: usize) -> Trace {
        let recs = (0..records)
            .map(|i| TraceRecord::load(0x400000, 0x10_0000 + i as u64 * 64, 4))
            .collect();
        Trace::new("stream", recs)
    }

    fn random_ish_trace(records: usize) -> Trace {
        // Deterministic pseudo-random walk over a 16 MB footprint.
        let mut state = 0x12345678u64;
        let recs = (0..records)
            .map(|i| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let addr = (state >> 16) % (16 * 1024 * 1024);
                TraceRecord::load(0x400100 + (i as u64 % 7) * 4, addr & !63, 2)
            })
            .collect();
        Trace::new("random", recs)
    }

    #[test]
    fn system_runs_and_reports_ipc() {
        let trace = streaming_trace(2000);
        let mut sys = System::single_core(
            SimConfig::paper_single_core(),
            &trace,
            Box::new(NullPrefetcher::new()),
        );
        let report = sys.run(1_000, 5_000);
        assert_eq!(report.cores.len(), 1);
        let ipc = report.cores[0].ipc();
        assert!(ipc > 0.05 && ipc <= 4.0, "IPC {ipc} out of plausible range");
        assert!(report.cores[0].l1d.demand_accesses > 0);
    }

    #[test]
    fn prefetching_improves_streaming_ipc() {
        let trace = streaming_trace(4000);
        let cfg = SimConfig::paper_single_core();
        let base =
            System::single_core(cfg, &trace, Box::new(NullPrefetcher::new())).run(2_000, 20_000);
        let pref = System::single_core(
            cfg,
            &trace,
            Box::new(NextLine {
                degree: 16,
                l1_degree: 4,
            }),
        )
        .run(2_000, 20_000);
        let speedup = pref.speedup_over(&base);
        assert!(
            speedup > 1.05,
            "next-line prefetching should speed up streaming, got {speedup:.3}"
        );
        assert!(pref.cores[0].overall_accuracy() > 0.8);
    }

    #[test]
    fn useless_prefetches_hurt_accuracy_on_random_accesses() {
        let trace = random_ish_trace(3000);
        let cfg = SimConfig::paper_single_core();
        let pref = System::single_core(
            cfg,
            &trace,
            Box::new(NextLine {
                degree: 4,
                l1_degree: 4,
            }),
        )
        .run(1_000, 10_000);
        assert!(
            pref.cores[0].overall_accuracy() < 0.5,
            "random accesses should make next-line inaccurate, got {:.3}",
            pref.cores[0].overall_accuracy()
        );
    }

    #[test]
    fn multicore_run_produces_per_core_stats() {
        let t0 = streaming_trace(1500);
        let t1 = random_ish_trace(1500);
        let cfg = SimConfig::paper_multi_core(2);
        let mut sys = System::new(
            cfg,
            vec![&t0 as &dyn TraceSource, &t1],
            vec![
                Box::new(NullPrefetcher::new()),
                Box::new(NullPrefetcher::new()),
            ],
        );
        let report = sys.run(500, 4_000);
        assert_eq!(report.cores.len(), 2);
        assert!(report.cores.iter().all(|c| c.instructions >= 4_000));
        assert!(report.cores.iter().all(|c| c.cycles > 0));
    }

    #[test]
    fn l2_prefetcher_requests_are_clamped_to_l2() {
        let trace = streaming_trace(2000);
        let cfg = SimConfig::paper_single_core();
        let mut sys = System::single_core(cfg, &trace, Box::new(NullPrefetcher::new()));
        sys.set_l2_prefetcher(
            0,
            Box::new(NextLine {
                degree: 2,
                l1_degree: 2,
            }),
        );
        let report = sys.run(500, 8_000);
        // The L2 prefetcher produced fills at the L2, never at the L1.
        assert_eq!(report.cores[0].l1d.prefetch_fills, 0);
        assert!(report.cores[0].l2c.prefetch_fills > 0);
    }

    #[test]
    #[should_panic(expected = "one trace per core")]
    fn trace_count_must_match_cores() {
        let trace = streaming_trace(10);
        let _ = System::new(
            SimConfig::paper_multi_core(2),
            vec![&trace as &dyn TraceSource],
            vec![Box::new(NullPrefetcher::new())],
        );
    }

    /// A core that can never retire steps to the deadline (100 × 10 000
    /// cycles here) and reports the wedge instead of spinning forever.
    #[test]
    #[should_panic(expected = "simulation wedged")]
    fn width_zero_core_panics_as_wedged() {
        let trace = streaming_trace(10);
        let mut cfg = SimConfig::paper_single_core();
        cfg.core.width = 0; // nothing can ever dispatch or retire
        System::single_core(cfg, &trace, Box::new(NullPrefetcher::new())).run(0, 100);
    }
}
