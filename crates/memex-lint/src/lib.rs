//! memex-lint: workspace-native static analysis for the memex codebase.
//!
//! Three rule families over a hand-rolled token stream (no external
//! dependencies, no rustc internals, nothing interprocedural — each rule
//! is a lexical pattern a reviewer can check by eye):
//!
//! 1. **panic** — no `unwrap`/`expect`/panic-macros in non-test code of
//!    any crate a wire request can reach, and no indexing in the
//!    `panic_crates` ([`rules::panic_rule`]).
//! 2. **locks** — nested lock acquisitions must follow the order declared
//!    in `LINT.toml`, and every declaration must be live
//!    ([`rules::locks`]).
//! 3. **metrics** — metric-name literals and `docs/METRICS.md` must agree
//!    bidirectionally ([`rules::metrics`]).
//!
//! Any finding fails the run: there is no baseline and no allow list.
//! What the linter does not check — and what does — is tabulated in
//! `docs/LINT.md`.

pub mod config;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use config::Config;
use rules::locks::LockAnalysis;
use rules::metrics::MetricUse;
use rules::Finding;

/// Result of scanning the workspace.
pub struct Scan {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    pub files_scanned: usize,
}

/// Directories under `src/` that never hold shipped code.
const SKIP_DIRS: [&str; 2] = ["target", "vendor"];

/// Crates whose code only the `experiments` and `memex-lint` binaries run:
/// a panic there ends a command-line tool, not a server, so the panic
/// rule skips them. Every other crate is on a path a wire request reaches.
const OFFLINE_CRATES: [&str; 2] = ["bench", "memex-lint"];

fn walk(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if !SKIP_DIRS.contains(&name.as_ref()) {
                walk(&path, out)?;
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Every `.rs` file under the root crate's `src/` and each
/// `crates/*/src/`. Integration tests, benches, and vendored code live
/// outside `src/` and are excluded by construction.
pub fn source_files(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut src_roots = vec![root.join("src")];
    if let Ok(entries) = fs::read_dir(root.join("crates")) {
        for entry in entries.flatten() {
            let candidate = entry.path().join("src");
            if candidate.is_dir() {
                src_roots.push(candidate);
            }
        }
    }
    let mut out = Vec::new();
    for src_root in src_roots {
        if src_root.is_dir() {
            walk(&src_root, &mut out)?;
        }
    }
    out.sort();
    Ok(out)
}

/// Repo-relative path with `/` separators.
fn rel(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Crate directory name owning a repo-relative source path
/// (`crates/memex-net/src/wire.rs` → `memex-net`; root `src/` → `<root>`).
fn crate_of(rel_path: &str) -> &str {
    match rel_path.strip_prefix("crates/") {
        Some(rest) => rest.split('/').next().unwrap_or(rest),
        None => "<root>",
    }
}

/// Scan the workspace rooted at `root` with the given configuration.
pub fn scan(root: &Path, cfg: &Config) -> io::Result<Scan> {
    let files = source_files(root)?;
    let mut findings: Vec<Finding> = Vec::new();
    let mut lock_analysis = LockAnalysis::default();
    let mut metric_uses: Vec<MetricUse> = Vec::new();

    for path in &files {
        let rel_path = rel(root, path);
        let text = fs::read_to_string(path)?;
        let model = parse::model(lexer::lex(&text));

        let krate = crate_of(&rel_path);
        if !OFFLINE_CRATES.contains(&krate) {
            let indexing = cfg.panic_crates.iter().any(|c| c == krate);
            findings.extend(rules::panic_rule::check(&model, &rel_path, indexing));
        }
        rules::locks::check(&model, &rel_path, cfg, &mut lock_analysis);
        metric_uses.extend(rules::metrics::collect_uses(&model, &rel_path));
    }

    findings.extend(lock_analysis.findings);
    findings.extend(rules::locks::cycle_findings(&lock_analysis.edges));
    findings.extend(rules::locks::dead_declarations(
        cfg,
        &lock_analysis.live_aliases,
    ));

    let catalog_path = cfg.metrics_catalog.as_str();
    let catalog_text = fs::read_to_string(root.join(catalog_path)).unwrap_or_default();
    let entries = rules::metrics::parse_catalog(&catalog_text);
    findings.extend(rules::metrics::check(catalog_path, &entries, &metric_uses));

    findings.sort_by(|a, b| {
        (&a.file, a.line, a.rule, &a.message).cmp(&(&b.file, b.line, b.rule, &b.message))
    });
    Ok(Scan {
        findings,
        files_scanned: files.len(),
    })
}
