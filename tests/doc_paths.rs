//! Every backticked `*.rs` path in README.md, DESIGN.md, EXPERIMENTS.md
//! and `docs/*.md` names a file that exists. A path is read relative to
//! the repository root, `crates/`, any `crates/<crate>/`, or any crate's
//! `src/` or `tests/` — the ways the docs abbreviate one — so
//! `tests/fault.rs`, `memex-store/tests/fault.rs` and `vfs.rs` all
//! resolve. A deleted or renamed file that a doc still cites fails here.
//!
//! A span naming a function in a file, `file.rs::name` (how the docs cite
//! a test), must also find `fn name` in the file it resolves to, so a
//! renamed or deleted test that a doc still cites fails here too.
//!
//! Every "ROADMAP item N" (or "ROADMAP items N, M and K") in README.md,
//! DESIGN.md, EXPERIMENTS.md and `benchmark/README.md` must name an item
//! that ROADMAP.md lists as open, so a doc that still points at a retired
//! or renumbered item fails here.

use std::collections::BTreeSet;
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

/// Every backticked span of `text` that is one word ending in `.rs`, or
/// one word `<path>.rs::<name>`: the path, and the name when there is one.
fn rs_paths(text: &str) -> Vec<(&str, Option<&str>)> {
    let mut out = Vec::new();
    for line in text.lines() {
        let spans: Vec<&str> = line.split('`').collect();
        // The pieces between two backticks of one line.
        for span in spans.iter().skip(1).take(spans.len().saturating_sub(2)) {
            if span.contains(char::is_whitespace) {
                continue;
            }
            match span.split_once("::") {
                Some((path, name)) if path.ends_with(".rs") && is_ident(name) => {
                    out.push((path, Some(name)));
                }
                None if span.ends_with(".rs") => out.push((*span, None)),
                _ => {}
            }
        }
    }
    out
}

fn is_ident(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

/// Does `source` declare `fn name`?
fn declares_fn(source: &str, name: &str) -> bool {
    let needle = format!("fn {name}");
    source.match_indices(&needle).any(|(at, _)| {
        source[at + needle.len()..]
            .chars()
            .next()
            .is_some_and(|c| !(c.is_ascii_alphanumeric() || c == '_'))
    })
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
    let mut named = 0usize;
    let mut missing = Vec::new();
    for doc in doc_files(root) {
        let text = std::fs::read_to_string(&doc).expect("readable doc");
        let doc_name = doc.strip_prefix(root).unwrap_or(&doc).display().to_string();
        for (path, name) in rs_paths(&text) {
            checked += 1;
            let Some(file) = bases
                .iter()
                .map(|base| base.join(path))
                .find(|file| file.is_file())
            else {
                missing.push(format!("{doc_name}: `{path}`"));
                continue;
            };
            if let Some(name) = name {
                named += 1;
                let source = std::fs::read_to_string(&file).expect("readable source");
                if !declares_fn(&source, name) {
                    missing.push(format!("{doc_name}: `{path}::{name}` (no `fn {name}`)"));
                }
            }
        }
    }
    assert!(checked >= 20, "found only {checked} `*.rs` references");
    assert!(named >= 6, "found only {named} `*.rs::name` references");
    assert!(
        missing.is_empty(),
        "doc references to no file:\n{}",
        missing.join("\n")
    );
}

#[test]
fn spans_are_one_word_ending_in_rs_within_a_line() {
    let text = "see `tests/fault.rs` and `vfs.rs`, not `a b.rs` or `x.rsx`\n\
                ```rust\nlet s = `c.rs`;\n```\nopen `d.rs\nnext.rs` line\n\
                `lsm.rs::seal`, not `lsm.rs::` or `lsm.rs::a b` or `e.rs::f()`";
    assert_eq!(
        rs_paths(text),
        [
            ("tests/fault.rs", None),
            ("vfs.rs", None),
            ("c.rs", None),
            ("lsm.rs", Some("seal")),
        ]
    );
}

#[test]
fn a_named_function_must_be_declared_whole() {
    let source = "fn seal_deferred() {}\npub fn sealed<T>() {}\n";
    assert!(declares_fn(source, "sealed"));
    assert!(declares_fn(source, "seal_deferred"));
    assert!(!declares_fn(source, "seal"));
}

/// The numbers of the items ROADMAP.md lists as open: its `N. **…`
/// headings under "## Open items", up to the next `## ` heading.
fn open_items(roadmap: &str) -> BTreeSet<u32> {
    roadmap
        .lines()
        .skip_while(|line| *line != "## Open items")
        .skip(1)
        .take_while(|line| !line.starts_with("## "))
        .filter_map(|line| line.split_once(". **")?.0.parse().ok())
        .collect()
}

/// The item numbers every "ROADMAP item N" or "ROADMAP items N, M and K"
/// in `text` names, read across line breaks.
fn roadmap_refs(text: &str) -> Vec<u32> {
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut out = Vec::new();
    for (at, pair) in words.windows(2).enumerate() {
        let lead = pair[0].trim_start_matches(|c: char| !c.is_ascii_alphanumeric());
        if lead != "ROADMAP" || !matches!(pair[1], "item" | "items") {
            continue;
        }
        for word in &words[at + 2..] {
            if *word == "and" {
                continue;
            }
            let digits = word.len() - word.trim_start_matches(|c: char| c.is_ascii_digit()).len();
            let Ok(item) = word[..digits].parse() else {
                break;
            };
            out.push(item);
            // A list goes on past a comma or a bare number, and ends at
            // anything else (`4.`, `11(c)`, `20:`).
            if !matches!(&word[digits..], "" | ",") {
                break;
            }
        }
    }
    out
}

#[test]
fn every_roadmap_item_the_docs_name_is_open() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let roadmap = std::fs::read_to_string(root.join("ROADMAP.md")).expect("ROADMAP.md");
    let open = open_items(&roadmap);
    assert!(open.len() >= 10, "found only {} open items", open.len());
    let mut checked = 0usize;
    let mut retired = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        "benchmark/README.md",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("readable doc");
        for item in roadmap_refs(&text) {
            checked += 1;
            if !open.contains(&item) {
                retired.push(format!("{doc}: ROADMAP item {item}"));
            }
        }
    }
    assert!(checked >= 5, "found only {checked} ROADMAP item references");
    assert!(
        retired.is_empty(),
        "doc references to no open ROADMAP item:\n{}",
        retired.join("\n")
    );
}

#[test]
fn roadmap_references_are_read_as_lists_across_lines() {
    let text = "see ROADMAP items 3, 4 and 5; (ROADMAP\nitem 11(c)), **ROADMAP item 9**,\n\
                ROADMAP item 20: step 2, not ROADMAP.md item 7 or ROADMAP item x";
    assert_eq!(roadmap_refs(text), [3, 4, 5, 11, 9, 20]);
    let roadmap = "# R\n1. **Not open**\n## Open items\n1. Item 2 first.\n\
                   2. **Two**\n   3. **nested**\n14. **Fourteen**\n## Recent\n5. **Done**\n";
    assert_eq!(open_items(roadmap), BTreeSet::from([2, 14]));
}
