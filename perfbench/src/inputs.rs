//! Seeded input generation. Every input the program sees is spec text in
//! the `gaze_sim::spec::text` format (plus HTTP request targets for the
//! serving workload), derived only from the benchmark seed and a sample
//! index, so the same seed always yields the same inputs.
//!
//! Per-workload simulation cost varies several-fold, so no input rests
//! on a draw of a few workloads: a cold sample always covers every main
//! workload, and the seed decides how they are grouped — into sweeps for
//! the single-core workloads, into 4-core mixes for `mix_cold` — and in
//! which order. A run's time therefore measures the program, not the
//! cost of one seed's draw.

use gaze_sim::MAIN_PREFETCHERS;
use workloads::rng::SmallRng;
use workloads::suite::{workload_names, Suite};

/// The main workloads are dealt into this many sweeps, one Ligra workload
/// in each. A cold sample runs all of them jointly; the warm workloads
/// fill one per set-up and serve them, so every Ligra workload (whose
/// trace synthesis dominates a warm sweep) is served. Two Ligra traces
/// built in one request can raise its peak memory by 13 MB, depending on
/// their order, which would make that figure depend on the seed.
pub const SWEEPS: usize = 10;
/// Prefetchers of the mix spec (the `none` baseline is implicit).
pub const MIX_PREFETCHERS: [&str; 3] = ["pmp", "vberti", "gaze"];
/// Mixes per mix spec: as many 4-core mixes as the main workloads fill.
pub const MIXES: usize = 10;
/// Cores per mix.
pub const MIX_CORES: usize = 4;

/// The generator of one independent stream of `seed`.
fn rng(seed: u64, stream: u64) -> SmallRng {
    SmallRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
}

/// A seeded Fisher-Yates shuffle.
fn shuffle<T>(rng: &mut SmallRng, items: &mut [T]) {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..=i));
    }
}

/// Every main-suite workload, suite by suite, each suite in a seeded
/// order.
fn permuted_suites(seed: u64, stream: u64) -> Vec<Vec<&'static str>> {
    let mut rng = rng(seed, stream);
    Suite::main_suites()
        .iter()
        .map(|&suite| {
            let mut names = workload_names(suite);
            shuffle(&mut rng, &mut names);
            names
        })
        .collect()
}

/// The first workload of each main suite in the seed's order: the demand
/// streams the prefetcher layer is replayed over.
pub fn suite_heads(seed: u64) -> Vec<String> {
    permuted_suites(seed, 1)
        .iter()
        .map(|names| names[0].to_string())
        .collect()
}

/// The workloads of sweep `k` of sample `sample`: every main workload,
/// suite by suite in a seeded order, is dealt round-robin into
/// [`SWEEPS`] sweeps, so each sweep gets one or two workloads of the
/// larger suites (4 or 5 in all) and the sweeps together hold each once.
pub fn sweep_workloads(seed: u64, sample: usize, k: usize) -> Vec<String> {
    permuted_suites(seed, 0x100 + sample as u64)
        .into_iter()
        .flatten()
        .enumerate()
        .filter(|(j, _)| j % SWEEPS == k)
        .map(|(_, name)| name.to_string())
        .collect()
}

/// Name of sweep `k`'s spec.
pub fn sweep_name(k: usize) -> String {
    format!("bench_sweep_{k}")
}

/// The single-core spec of sweep `k` of sample `sample`: speedup,
/// accuracy and coverage tables of [`sweep_workloads`] over the nine
/// main prefetchers (the no-prefetching baseline runs implicitly with
/// every job).
pub fn sweep_text(seed: u64, sample: usize, k: usize) -> String {
    let traces = sweep_workloads(seed, sample, k).join(",");
    let mut text = format!("spec {}\n", sweep_name(k));
    for metric in ["speedup", "accuracy", "coverage"] {
        text.push_str(&format!(
            "\ntable\ntitle Seeded sweep ({metric})\nkind workload-rows\n\
             traces list:{traces}\nmetric {metric}\navg-row AVG\n"
        ));
        for p in MAIN_PREFETCHERS {
            text.push_str(&format!("row {p}\n"));
        }
        text.push_str("end\n");
    }
    text
}

/// The mixes of mix sample `sample`: [`MIXES`] mixes of [`MIX_CORES`]
/// workloads, taken in turn from a seeded permutation of every main
/// workload (the one left over sits out).
pub fn mix_workloads(seed: u64, sample: usize) -> Vec<Vec<String>> {
    let mut all: Vec<&str> = permuted_suites(seed, 2).into_iter().flatten().collect();
    shuffle(&mut rng(seed, 0x200 + sample as u64), &mut all);
    all.chunks(MIX_CORES)
        .take(MIXES)
        .map(|mix| mix.iter().map(|w| w.to_string()).collect())
        .collect()
}

/// The spec of mix `m` of mix sample `sample`: that 4-core mix of
/// [`mix_workloads`] × {none, pmp, vberti, gaze}. A sample runs the
/// [`MIXES`] mix specs jointly.
pub fn mix_text(seed: u64, sample: usize, m: usize) -> String {
    let mix = &mix_workloads(seed, sample)[m];
    let mut text = format!(
        "spec bench_mix_{m}\n\ntable\ntitle Seeded 4-core mix (per-core speedup)\nkind mix-per-core\n\
         mixdef mix{} = {}\n",
        m + 1,
        mix.join(",")
    );
    for p in MIX_PREFETCHERS {
        text.push_str(&format!("row {p}\n"));
    }
    text.push_str("end\n");
    text
}

/// One write request of the serving workload: a never-seen tiny spec
/// (one workload × one prefetcher at a seeded DRAM rate, so its run
/// parameters — and therefore its store key — are new), which the server
/// simulates and appends write-through.
#[derive(Debug, Clone)]
pub struct WriteSpec {
    /// Spec name (the file stem in the spec directory).
    pub name: String,
    /// Spec text.
    pub text: String,
}

/// The write specs of serve session `session`: one per main workload,
/// in a seeded order, each with the next main prefetcher in turn and its
/// own DRAM rate, so the keys are new within the session and every
/// session writes the same workloads.
pub fn write_specs(seed: u64, session: usize) -> Vec<WriteSpec> {
    let mut all: Vec<&str> = permuted_suites(seed, 4).into_iter().flatten().collect();
    let mut rng = rng(seed, 0x500 + session as u64);
    shuffle(&mut rng, &mut all);
    let base = rng.gen_range(900..1500u64);
    all.iter()
        .enumerate()
        .map(|(k, workload)| {
            let prefetcher = MAIN_PREFETCHERS[(session + k) % MAIN_PREFETCHERS.len()];
            let mtps = base + 11 * k as u64;
            let name = format!("write_{session}_{k}");
            let text = format!(
                "spec {name}\n\ntable\ntitle Write probe\nkind config-sweep\n\
                 traces list:{workload}\nmetric speedup\naxis dram-mtps\n\
                 point {mtps} = {mtps}\nrow {prefetcher}\nend\n"
            );
            WriteSpec { name, text }
        })
        .collect()
}

/// The order in which warm sample `sample` serves the [`SWEEPS`] warm
/// sweeps: a seeded permutation. A sample's peak memory depends on its
/// allocation sequence by several MB, so a run's samples must not all
/// repeat one order.
pub fn sweep_order(seed: u64, sample: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..SWEEPS).collect();
    shuffle(&mut rng(seed, 0x300 + sample as u64), &mut order);
    order
}

/// `/runs` point-query targets of serve session `session`, on keys the
/// warm sweeps stored.
pub fn run_queries(seed: u64, session: usize, count: usize) -> Vec<String> {
    let workloads: Vec<String> = (0..SWEEPS)
        .flat_map(|k| sweep_workloads(seed, 0, k))
        .collect();
    let mut rng = rng(seed, 0x400 + session as u64);
    (0..count)
        .map(|_| {
            let w = &workloads[rng.gen_range(0..workloads.len())];
            let p = MAIN_PREFETCHERS[rng.gen_range(0..MAIN_PREFETCHERS.len())];
            format!("/runs?workload={w}&prefetcher={p}&limit=1")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use workloads::suite::all_main_workloads;

    fn sorted(mut names: Vec<String>) -> Vec<String> {
        names.sort();
        names
    }

    fn main_workloads() -> Vec<String> {
        sorted(
            all_main_workloads()
                .into_iter()
                .map(|(_, name)| name.to_string())
                .collect(),
        )
    }

    /// Every cold sweep sample holds each main workload exactly once, with
    /// exactly one Ligra workload per sweep, whatever the seed.
    #[test]
    fn sweeps_cover_every_main_workload_once() {
        let ligra = workload_names(Suite::Ligra);
        for (seed, sample) in [(1, 0), (7, 3), (201, 9)] {
            let sweeps: Vec<Vec<String>> = (0..SWEEPS)
                .map(|k| sweep_workloads(seed, sample, k))
                .collect();
            assert_eq!(sorted(sweeps.concat()), main_workloads());
            for sweep in &sweeps {
                let n = sweep.iter().filter(|w| ligra.contains(&w.as_str())).count();
                assert_eq!(n, 1, "{sweep:?}");
            }
        }
    }

    /// The mixes of a sample are disjoint and leave out one main workload.
    #[test]
    fn mixes_use_distinct_main_workloads() {
        let mixes = mix_workloads(7, 2);
        assert_eq!(mixes.len(), MIXES);
        assert!(mixes.iter().all(|m| m.len() == MIX_CORES));
        let mut used = sorted(mixes.concat());
        used.dedup();
        assert_eq!(used.len(), MIXES * MIX_CORES);
        assert!(used.iter().all(|w| main_workloads().contains(w)));
    }

    /// A serving session writes every main workload once, each at its own
    /// DRAM rate, so every write is a new store key.
    #[test]
    fn writes_cover_every_main_workload_with_new_keys() {
        let writes = write_specs(7, 3);
        let traces: Vec<String> = writes
            .iter()
            .map(|w| {
                w.text
                    .split("list:")
                    .nth(1)
                    .unwrap()
                    .lines()
                    .next()
                    .unwrap()
                    .to_string()
            })
            .collect();
        assert_eq!(sorted(traces), main_workloads());
        let mut rates: Vec<&str> = writes
            .iter()
            .map(|w| {
                w.text
                    .split("point ")
                    .nth(1)
                    .unwrap()
                    .split(' ')
                    .next()
                    .unwrap()
            })
            .collect();
        rates.sort();
        rates.dedup();
        assert_eq!(rates.len(), writes.len());
    }

    #[test]
    fn same_seed_same_inputs() {
        assert_eq!(sweep_text(5, 1, 2), sweep_text(5, 1, 2));
        assert_eq!(mix_text(5, 1, 3), mix_text(5, 1, 3));
        assert_ne!(sweep_text(5, 1, 2), sweep_text(6, 1, 2));
    }
}
