#![deny(missing_docs)]

//! `gaze-lint` — a workspace invariant analyzer.
//!
//! Every guarantee this reproduction rests on is a *contract between
//! PRs*: bit-exact simulation across thread counts and cache modes,
//! loud-failure crash safety behind `fault::check_io`, structured
//! logging, and a documented catalog of every metric and `GAZE_*`
//! environment variable. This crate enforces those contracts
//! mechanically instead of by reviewer vigilance: a hand-rolled,
//! std-only static analysis pass over the workspace's own `src/` trees
//! (a comment/string/char-literal-aware [`lexer`] plus a small rule
//! engine in [`rules`]), run both as a CLI (`cargo run -p gaze-lint --
//! .`) and as a tier-1 integration test.
//!
//! # Rules
//!
//! | rule | contract it enforces |
//! |---|---|
//! | `wall_clock` | no `SystemTime::now`/`Instant::now` in sim/render crates |
//! | `map_iteration` | no `HashMap`/`HashSet` iteration in sim/render crates |
//! | `fault_coverage` | raw I/O in store durability modules flows through failpoints |
//! | `safety_comment` | every `unsafe` has an adjacent `// SAFETY:` comment |
//! | `eprintln` | stderr prints go through `gaze_obs::log` except annotated CLI usage errors |
//! | `env_inventory` | `GAZE_*` env vars ⇆ the `docs/CONFIG.md` table (both directions) |
//! | `metrics_catalog` | registered metric names are Prometheus-shaped and cataloged in `docs/OBSERVABILITY.md` |
//!
//! # Suppression
//!
//! A finding is silenced per site with a comment on the same line or the
//! line above, and the reason is mandatory:
//!
//! ```text
//! // gaze-lint: allow(map_iteration) -- min() over u64 values is order-independent
//! ```
//!
//! An `allow` that suppresses nothing, names an unknown rule, or lacks
//! its `-- reason` is itself a finding (`unused_allow` / `bad_allow`),
//! so stale annotations cannot accumulate.
//!
//! # Scope
//!
//! The pass lints `src/**/*.rs` of every workspace crate plus the
//! umbrella crate (binaries included). `tests/`, `benches/` and
//! `examples/` are out of scope, as is anything inside `#[cfg(test)]`
//! items — the contracts govern production paths.

pub mod lexer;
pub mod rules;
pub mod source;

use std::io;
use std::path::{Path, PathBuf};

pub use rules::{Docs, Finding};
use source::SourceFile;

/// Directory names never descended into.
const SKIP_DIRS: &[&str] = &[
    "target", "tests", "benches", "examples", "fixtures", ".git", ".github",
];

/// Lints the workspace rooted at `root` (the directory holding the
/// workspace `Cargo.toml`): walks the `src/` trees, reads the
/// documentation files the inventory rules cross-check, and returns the
/// surviving findings sorted by path and line.
pub fn lint_workspace(root: &Path) -> io::Result<Vec<Finding>> {
    let mut paths: Vec<PathBuf> = Vec::new();
    walk(root, root, &mut paths)?;
    paths.sort();
    let mut files = Vec::with_capacity(paths.len());
    for path in &paths {
        let text = std::fs::read_to_string(root.join(path))?;
        files.push(SourceFile::new(
            &path.to_string_lossy().replace('\\', "/"),
            &text,
        ));
    }
    let docs = Docs {
        config_md: std::fs::read_to_string(root.join("docs/CONFIG.md")).ok(),
        observability_md: std::fs::read_to_string(root.join("docs/OBSERVABILITY.md")).ok(),
    };
    Ok(rules::run(&files, &docs))
}

/// Analyzes an in-memory file set — the entry point the fixture tests
/// use. `files` are `(workspace-relative path, source)` pairs.
pub fn analyze(files: &[(&str, &str)], docs: &Docs) -> Vec<Finding> {
    let sources: Vec<SourceFile> = files
        .iter()
        .map(|(path, text)| SourceFile::new(path, text))
        .collect();
    rules::run(&sources, docs)
}

/// Recursively collects `.rs` files under `dir`, recording paths
/// relative to `root` and skipping [`SKIP_DIRS`].
fn walk(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_str()) || name.starts_with('.') {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
