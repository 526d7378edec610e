//! Lock order, checked over the source tree: wherever one function body
//! takes a lock while another may still be held, both locks are in
//! [`LOCKS`] and the outer one ranks first. `std::sync` locks are futexes
//! on Linux, invisible to ThreadSanitizer's deadlock detector, so this
//! lexical check is what keeps their order; it also covers paths no test
//! executes.
//!
//! An acquisition is a `.lock()` / `.read()` / `.write()` call with empty
//! parens (which keeps `io::Read::read(buf)` out). Its receiver path, as
//! written (`self.shared.state`), resolves to a lock through the aliases
//! in [`LOCKS`]: `file.rs:path`, longest path suffix first. A let-bound
//! guard is taken to live to the end of its brace scope, a temporary to
//! the end of its statement. That over-approximates (an early `drop` is
//! invisible), and the remedy is an inner block. Nesting across a call is
//! not seen: take a lock inline, never through a helper.
//!
//! Every alias must resolve at least one acquisition in the tree, so a
//! renamed field or a lock taken through a helper shows up as a dead
//! alias instead of silently leaving the check.

mod lex;

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use lex::{model, Model, Tok};

/// Lock names outermost first, each with its receiver aliases.
type Table = [(&'static str, &'static [&'static str])];

/// The tree's lock order. Holding one of these, a function may take only
/// a lock further down the table.
const LOCKS: &Table = &[
    ("net.accept_rx", &["server.rs:rx"]),
    ("net.memex", &["server.rs:self.memex"]),
    ("net.read_cache", &["server.rs:self.cache"]),
    ("net.live_conns", &["server.rs:transport.live"]),
    ("store.vfs.inner", &["vfs.rs:self.inner"]),
    ("store.vfs.script", &["vfs.rs:self.script"]),
    ("server.fetcher.state", &["fetcher.rs:state"]),
    ("obs.trace.ring", &["trace.rs:self.inner.ring"]),
    ("obs.trace.slot", &["trace.rs:slot"]),
    ("obs.trace.slow", &["trace.rs:self.inner.slow"]),
    ("obs.trace.metrics", &["trace.rs:self.inner.metrics"]),
    ("obs.slots", &["registry.rs:slots"]),
    ("obs.events", &["registry.rs:events"]),
];

/// Findings so far, and the aliases some acquisition resolved to.
#[derive(Default)]
struct Analysis {
    findings: Vec<String>,
    live: BTreeSet<&'static str>,
}

/// One acquisition site in a non-test function body.
struct Acq {
    path: String,
    /// Rank in the table, when an alias matched.
    rank: Option<usize>,
    line: usize,
    token: usize,
    depth: usize,
    let_bound: bool,
    fn_id: usize,
}

/// The `(rank, alias)` a receiver path in `file` resolves to.
fn resolve(locks: &'static Table, file: &str, path: &str) -> Option<(usize, &'static str)> {
    let segments: Vec<&str> = path.split('.').collect();
    (0..segments.len()).find_map(|start| {
        let key = format!("{file}:{}", segments[start..].join("."));
        locks.iter().enumerate().find_map(|(rank, (_, aliases))| {
            aliases.iter().find(|a| **a == key).map(|a| (rank, *a))
        })
    })
}

/// The receiver path before the `.` at `dot`: `a.b.c` in `a.b.c.lock()`.
fn receiver_path(m: &Model, dot: usize) -> String {
    let mut parts = Vec::new();
    let mut i = dot;
    while let Some(Tok::Ident(s)) = i.checked_sub(1).and_then(|j| m.tok(j)) {
        parts.push(s.as_str());
        if i < 2 || !m.punct(i - 2, '.') {
            break;
        }
        i -= 2;
    }
    parts.reverse();
    parts.join(".")
}

/// Was the statement holding token `i` started with `let`?
fn statement_has_let(m: &Model, i: usize) -> bool {
    m.tokens[..i]
        .iter()
        .rev()
        .map(|t| &t.tok)
        .take_while(|t| !matches!(t, Tok::Punct(';' | '{' | '}')))
        .any(|t| matches!(t, Tok::Ident(s) if s == "let"))
}

fn acquisitions(m: &Model) -> Vec<Acq> {
    (1..m.tokens.len())
        .filter(|&i| {
            !m.in_test[i]
                && matches!(m.tok(i), Some(Tok::Ident(s)) if s == "lock" || s == "read" || s == "write")
                && m.punct(i - 1, '.')
                && m.punct(i + 1, '(')
                && m.punct(i + 2, ')')
        })
        .filter_map(|i| {
            let path = receiver_path(m, i - 1);
            Some(Acq {
                rank: None,
                line: m.tokens[i].line,
                token: i,
                depth: m.depth[i],
                let_bound: statement_has_let(m, i),
                fn_id: m.fn_of[i]?,
                path: (!path.is_empty()).then_some(path)?,
            })
        })
        .collect()
}

/// The token where the guard taken at `acq` is released: the `}` closing
/// its scope, or for a temporary the `;` ending its statement.
fn held_until(m: &Model, acq: &Acq) -> usize {
    (acq.token + 1..m.tokens.len())
        .find(|&j| match m.tokens[j].tok {
            Tok::Punct('}') => m.depth[j] <= acq.depth,
            Tok::Punct(';') => !acq.let_bound && m.depth[j] == acq.depth,
            _ => false,
        })
        .unwrap_or(m.tokens.len())
}

/// Check one file (`path` relative to the repo root) against `locks`.
fn check(locks: &'static Table, path: &str, src: &str, out: &mut Analysis) {
    let file = path.rsplit('/').next().unwrap_or(path);
    let m = model(src);
    let mut acqs = acquisitions(&m);
    for acq in &mut acqs {
        if let Some((rank, alias)) = resolve(locks, file, &acq.path) {
            out.live.insert(alias);
            acq.rank = Some(rank);
        }
    }
    for (ai, a) in acqs.iter().enumerate() {
        let a_end = held_until(&m, a);
        for b in acqs[ai + 1..]
            .iter()
            .filter(|b| b.fn_id == a.fn_id && b.token < a_end)
        {
            let what = match (a.rank, b.rank) {
                (Some(ra), Some(rb)) if ra == rb => format!(
                    "recursive acquisition of `{}` (outer at line {}): std::sync locks self-deadlock",
                    locks[ra].0, a.line
                ),
                (Some(ra), Some(rb)) if ra > rb => format!(
                    "lock order violation: `{}` taken while `{}` (line {}) is held; the table ranks it first",
                    locks[rb].0, locks[ra].0, a.line
                ),
                (Some(_), Some(_)) => continue,
                _ => format!(
                    "undeclared nested acquisition: `{}` inside `{}` (line {}); rank both in LOCKS",
                    b.path, a.path, a.line
                ),
            };
            out.findings.push(format!(
                "{path}:{}: {what} (in {})",
                b.line, m.functions[b.fn_id]
            ));
        }
    }
}

/// Aliases no acquisition resolved to, and locks without an alias.
fn dead_declarations(locks: &'static Table, live: &BTreeSet<&'static str>) -> Vec<String> {
    locks
        .iter()
        .flat_map(|(lock, aliases)| {
            let dead = aliases
                .iter()
                .filter(|a| !live.contains(*a))
                .map(move |a| format!("dead alias `{a}` of `{lock}`: no acquisition resolves to it (renamed, removed, or taken through a helper)"));
            let unaliased = aliases
                .is_empty()
                .then(|| format!("`{lock}` has no alias: no acquisition can resolve to it"));
            dead.chain(unaliased)
        })
        .collect()
}

/// Every `.rs` file under the root `src/` and each `crates/*/src/`.
fn source_files(root: &Path) -> Vec<PathBuf> {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        for entry in fs::read_dir(dir).expect("readable source dir").flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, out);
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    let mut out = Vec::new();
    walk(&root.join("src"), &mut out);
    for krate in fs::read_dir(root.join("crates"))
        .expect("crates/")
        .flatten()
    {
        let src = krate.path().join("src");
        if src.is_dir() {
            walk(&src, &mut out);
        }
    }
    out.sort();
    out
}

#[test]
fn nested_acquisitions_in_the_tree_follow_the_lock_table() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut analysis = Analysis::default();
    for path in source_files(root) {
        let rel = path.strip_prefix(root).expect("under the root");
        let rel = rel.to_string_lossy().replace('\\', "/");
        let src = fs::read_to_string(&path).expect("utf-8 source");
        check(LOCKS, &rel, &src, &mut analysis);
    }
    let mut findings = analysis.findings;
    findings.extend(dead_declarations(LOCKS, &analysis.live));
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

// Fixtures: the rule on snippets, against a two-lock table.

const FIXTURE: &Table = &[("outer", &["x.rs:a"]), ("inner", &["x.rs:b"])];

fn run(src: &str) -> Analysis {
    let mut analysis = Analysis::default();
    check(FIXTURE, "crates/x/src/x.rs", src, &mut analysis);
    analysis
}

fn only_finding(src: &str) -> String {
    let findings = run(src).findings;
    assert_eq!(findings.len(), 1, "{findings:?}");
    findings[0].clone()
}

#[test]
fn ordered_nesting_passes() {
    let got = run("fn f(a: M, b: M) { let ga = a.lock(); let gb = b.write(); }");
    assert!(got.findings.is_empty(), "{:?}", got.findings);
    assert!(dead_declarations(FIXTURE, &got.live).is_empty());
}

#[test]
fn reversed_nesting_fails() {
    let finding = only_finding("fn f(a: M, b: M) { let gb = b.lock(); let ga = a.read(); }");
    assert!(finding.contains("lock order violation"), "{finding}");
    assert!(finding.starts_with("crates/x/src/x.rs:1:"), "{finding}");
}

#[test]
fn recursive_acquisition_fails() {
    let finding = only_finding("fn f(a: M) {\n let g1 = a.read();\n let g2 = a.write();\n}");
    assert!(
        finding.contains("recursive acquisition of `outer`"),
        "{finding}"
    );
}

#[test]
fn undeclared_nested_acquisition_fails() {
    let finding = only_finding("fn f(a: M, m: M) { let ga = a.lock(); let gm = mystery.lock(); }");
    assert!(
        finding.contains("undeclared nested acquisition"),
        "{finding}"
    );
}

#[test]
fn dead_alias_and_unaliased_lock_fail() {
    const TABLE: &Table = &[("outer", &["x.rs:a", "x.rs:renamed"]), ("ghost", &[])];
    let mut analysis = Analysis::default();
    check(
        TABLE,
        "x.rs",
        "fn f(a: M) { let g = a.lock(); }",
        &mut analysis,
    );
    let findings = dead_declarations(TABLE, &analysis.live);
    assert_eq!(findings.len(), 2, "{findings:?}");
    assert!(findings[0].contains("dead alias `x.rs:renamed`"));
    assert!(findings[1].contains("`ghost` has no alias"));
}

/// What is not a nesting: a temporary dropped at its `;`, a guard that
/// ends with its inner block, I/O `read(buf)`, locks in comments and
/// strings, and test code.
#[test]
fn released_guards_io_comments_and_tests_do_not_nest() {
    let src = r##"
        fn temporary(a: M, b: M) { b.lock().push(1); let ga = a.lock(); }
        fn inner_block(a: M) -> u32 {
            { let g = a.read(); if g.ready { return g.value; } }
            let mut g = a.write();
            g.value
        }
        fn io(s: &mut TcpStream, buf: &mut [u8], b: M) { let gb = b.lock(); s.read(buf); s.write(buf); }
        fn quiet(b: M) {
            let gb = b.lock();
            // a.lock()
            let s = "a.lock()"; let r = r#"a.lock()"#; let c = '"';
        }
        #[cfg(test)]
        mod tests {
            #[test]
            fn t(a: M, b: M) { let gb = b.lock(); let ga = a.lock(); }
        }
    "##;
    let got = run(src);
    assert!(got.findings.is_empty(), "{:?}", got.findings);
}
