//! The host shape recorded with every result: CPUs, CPU model, compiler
//! and source revision, plus a fixed reference kernel timed at the start
//! and end of the run, so a drift in host speed (other tenants of a
//! shared machine) is visible next to the figures.

use std::process::Command;
use std::time::Instant;

/// Host facts as `(key, value)` pairs.
pub fn shape() -> Vec<(&'static str, String)> {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    vec![
        ("nproc", nproc.to_string()),
        ("cpu_model", cpu),
        ("rustc", command_line("rustc", &["--version"])),
        // Only a checkout with its own git metadata knows its commit; an
        // exported tree must not report an enclosing repository's.
        (
            "commit",
            if std::path::Path::new(".git").exists() {
                command_line("git", &["rev-parse", "HEAD"])
            } else {
                "unknown".to_string()
            },
        ),
    ]
}

/// First stdout line of a command, or `unknown` when it cannot run.
fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8(o.stdout)
                .ok()
                .and_then(|s| s.lines().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Milliseconds for a fixed, program-independent kernel (a dependent
/// walk over a table of 8 MiB), median of three.
pub fn reference_ms() -> f64 {
    const WORDS: usize = 1 << 20;
    let table: Vec<u64> = (0..WORDS as u64)
        .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 44)
        .collect();
    let mut times: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut at = 0usize;
            for _ in 0..4_000_000 {
                at = (table[at] as usize ^ at.wrapping_mul(31)) % WORDS;
            }
            std::hint::black_box(at);
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    times.sort_by(f64::total_cmp);
    times[1]
}
