//! Every backticked `*.rs` path in README.md, DESIGN.md, EXPERIMENTS.md
//! and `docs/*.md` names a file that exists. A path is read relative to
//! the repository root, `crates/`, any `crates/<crate>/`, or any crate's
//! `src/` or `tests/` — the ways the docs abbreviate one — so
//! `tests/fault.rs`, `memex-store/tests/fault.rs` and `vfs.rs` all
//! resolve. A deleted or renamed file that a doc still cites fails here.

use std::path::{Path, PathBuf};

/// The docs whose `.rs` references are checked.
fn doc_files(root: &Path) -> Vec<PathBuf> {
    let mut files: Vec<PathBuf> = ["README.md", "DESIGN.md", "EXPERIMENTS.md"]
        .iter()
        .map(|name| root.join(name))
        .collect();
    let mut docs: Vec<PathBuf> = std::fs::read_dir(root.join("docs"))
        .expect("docs/")
        .map(|entry| entry.expect("docs/ entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "md"))
        .collect();
    docs.sort();
    files.extend(docs);
    files
}

/// Every backticked span of `text` that is one word ending in `.rs`.
fn rs_paths(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    for line in text.lines() {
        let spans: Vec<&str> = line.split('`').collect();
        // The pieces between two backticks of one line.
        for span in spans.iter().skip(1).take(spans.len().saturating_sub(2)) {
            if span.ends_with(".rs") && !span.contains(char::is_whitespace) {
                out.push(*span);
            }
        }
    }
    out
}

/// The directories a doc path may be relative to.
fn bases(root: &Path) -> Vec<PathBuf> {
    let mut bases = vec![root.to_path_buf(), root.join("crates")];
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates/")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|path| path.is_dir())
        .collect();
    crates.sort();
    for krate in crates {
        bases.push(krate.join("src"));
        bases.push(krate.join("tests"));
        bases.push(krate);
    }
    bases
}

#[test]
fn every_backticked_rs_path_in_the_docs_resolves() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let bases = bases(root);
    let mut checked = 0usize;
    let mut missing = Vec::new();
    for doc in doc_files(root) {
        let text = std::fs::read_to_string(&doc).expect("readable doc");
        for path in rs_paths(&text) {
            checked += 1;
            if !bases.iter().any(|base| base.join(path).is_file()) {
                let name = doc.strip_prefix(root).unwrap_or(&doc);
                missing.push(format!("{}: `{path}`", name.display()));
            }
        }
    }
    assert!(checked >= 20, "found only {checked} `*.rs` references");
    assert!(
        missing.is_empty(),
        "doc references to no file:\n{}",
        missing.join("\n")
    );
}

#[test]
fn spans_are_one_word_ending_in_rs_within_a_line() {
    let text = "see `tests/fault.rs` and `vfs.rs`, not `a b.rs` or `x.rsx`\n\
                ```rust\nlet s = `c.rs`;\n```\nopen `d.rs\nnext.rs` line";
    assert_eq!(rs_paths(text), ["tests/fault.rs", "vfs.rs", "c.rs"]);
}
