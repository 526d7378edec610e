//! Rule family 2: **lock discipline** — the poor man's deadlock detector.
//!
//! Extraction: every `.lock()` / `.read()` / `.write()` call **with empty
//! argument parens** is a lock acquisition (the empty parens keep
//! `io::Read::read(buf)` and `io::Write::write(buf)` out). The receiver
//! path (`shared.memex`, `self.state`, `rx`) is resolved to a declared
//! lock name through `[locks.aliases]` in `LINT.toml`.
//!
//! Guard lifetime is approximated from the token stream: a let-bound
//! guard lives to the end of its enclosing brace scope; a temporary
//! (`x.lock().unwrap().field`) lives to the `;` that ends its statement.
//! This over-approximates (an early `drop(guard)` is invisible), which is
//! the safe direction for a deadlock detector; the remedy for a false
//! positive is an inner block, which also documents the guard's extent.
//! Nesting across a *call* is not seen at all (docs/LINT.md says what
//! covers that instead).
//!
//! Checks, for every acquisition of `B` while `A` is (possibly) held:
//! - `A` and `B` both in `[locks] order` → the nesting must follow the
//!   declared order (`rank(A) < rank(B)`).
//! - Same lock nested inside itself → recursive-acquisition finding
//!   (`std::sync::Mutex` self-deadlocks).
//! - Either side unresolvable through the aliases → *undeclared nested
//!   acquisition*: nesting is exactly when a lock must be named and
//!   ordered.
//! - Declared-but-unordered pairs accumulate into a workspace-wide
//!   nesting graph; a cycle anywhere in it fails the run, naming the
//!   participating edges.
//!
//! And, so the declarations cannot rot into a vacuous green: an alias
//! row that no acquisition in the tree resolved to, and an `order` name
//! no alias maps to, are findings ([`dead_declarations`]) — a renamed
//! field, or a lock taken through a helper the extraction cannot see,
//! shows up as a dead row instead of silently dropping out of the check.

use std::collections::{BTreeMap, BTreeSet};

use crate::config::{Config, Rule};
use crate::lexer::Tok;
use crate::parse::FileModel;
use crate::rules::Finding;

/// One lock acquisition site.
#[derive(Debug, Clone)]
struct Acq {
    /// Receiver path as written, e.g. `shared.memex`.
    path: String,
    /// Resolved lock name, if an alias matched.
    name: Option<String>,
    line: usize,
    token: usize,
    depth: usize,
    /// True when the guard is let-bound (scope lifetime); false for a
    /// temporary (statement lifetime).
    let_bound: bool,
    fn_id: usize,
}

/// A nested acquisition `outer → inner` observed somewhere.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Edge {
    pub outer: String,
    pub inner: String,
    pub file: String,
    pub line: usize,
    pub function: String,
}

/// Per-workspace accumulator: findings are immediate; edges between
/// declared-but-unordered locks wait for the cycle pass, and the alias
/// rows that resolved at least one acquisition wait for
/// [`dead_declarations`].
#[derive(Debug, Default)]
pub struct LockAnalysis {
    pub findings: Vec<Finding>,
    pub edges: Vec<Edge>,
    pub live_aliases: BTreeSet<String>,
}

fn method_at(model: &FileModel, i: usize) -> Option<&str> {
    match &model.tokens[i].tok {
        Tok::Ident(s) if s == "lock" || s == "read" || s == "write" => Some(s),
        _ => None,
    }
}

fn punct_at(model: &FileModel, i: usize, c: char) -> bool {
    matches!(model.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Walk back from the `.` before the method to collect the receiver path.
fn receiver_path(model: &FileModel, dot: usize) -> String {
    let mut parts: Vec<&str> = Vec::new();
    let mut i = dot; // index of the `.` token
    loop {
        if i == 0 {
            break;
        }
        match &model.tokens[i - 1].tok {
            Tok::Ident(s) => {
                parts.push(s);
                // Continue only across another `.`
                if i >= 2 && punct_at(model, i - 2, '.') {
                    i -= 2;
                } else {
                    break;
                }
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.join(".")
}

/// Was the statement containing token `i` started with `let`? Scans back
/// to the nearest statement boundary (`;`, `{`, `}`).
fn statement_has_let(model: &FileModel, i: usize) -> bool {
    let mut j = i;
    while j > 0 {
        j -= 1;
        match &model.tokens[j].tok {
            Tok::Punct(';') | Tok::Punct('{') | Tok::Punct('}') => return false,
            Tok::Ident(s) if s == "let" => return true,
            _ => {}
        }
    }
    false
}

/// Collect every acquisition in non-test functions of this file.
fn acquisitions(model: &FileModel) -> Vec<Acq> {
    let mut out = Vec::new();
    for i in 0..model.tokens.len() {
        if model.in_test[i] {
            continue;
        }
        let Some(fn_id) = model.fn_of[i] else {
            continue;
        };
        if method_at(model, i).is_none() {
            continue;
        }
        // Shape: `.` method `(` `)`
        if i == 0
            || !punct_at(model, i - 1, '.')
            || !punct_at(model, i + 1, '(')
            || !punct_at(model, i + 2, ')')
        {
            continue;
        }
        let path = receiver_path(model, i - 1);
        if path.is_empty() {
            continue;
        }
        out.push(Acq {
            path,
            name: None,
            line: model.tokens[i].line,
            token: i,
            depth: model.depth[i],
            let_bound: statement_has_let(model, i),
            fn_id,
        });
    }
    out
}

/// Token index where the guard acquired at `acq` stops being held (the
/// over-approximation described in the module docs). Body tokens and
/// the closing `}` of a scope share the same depth, so the brace that
/// ends the acquiring scope is the first `}` at `depth <= acq.depth`.
fn held_until(model: &FileModel, acq: &Acq) -> usize {
    let n = model.tokens.len();
    for j in acq.token + 1..n {
        match &model.tokens[j].tok {
            Tok::Punct('}') if model.depth[j] <= acq.depth => return j,
            Tok::Punct(';') if !acq.let_bound && model.depth[j] == acq.depth => return j,
            _ => {}
        }
    }
    n
}

/// Analyze one file, appending findings and nesting edges.
pub fn check(model: &FileModel, file: &str, cfg: &Config, analysis: &mut LockAnalysis) {
    let mut acqs = acquisitions(model);
    for acq in &mut acqs {
        if let Some((alias, name)) = cfg.resolve_lock(file, &acq.path) {
            analysis.live_aliases.insert(alias.to_string());
            acq.name = Some(name.to_string());
        }
    }
    for (ai, a) in acqs.iter().enumerate() {
        let a_end = held_until(model, a);
        for b in acqs.iter().skip(ai + 1) {
            if b.fn_id != a.fn_id || b.token >= a_end {
                continue;
            }
            // `b` is acquired while `a` may still be held.
            let function = model.fn_name(b.token).to_string();
            let mut fail = |message: String| {
                analysis.findings.push(Finding {
                    rule: Rule::Locks,
                    file: file.to_string(),
                    line: b.line,
                    function: function.clone(),
                    message,
                });
            };
            match (&a.name, &b.name) {
                (Some(an), Some(bn)) if an == bn => {
                    fail(format!(
                        "recursive acquisition of `{an}` (outer at line {}): \
                         std::sync primitives self-deadlock",
                        a.line
                    ));
                }
                (Some(an), Some(bn)) => {
                    match (cfg.lock_rank(an), cfg.lock_rank(bn)) {
                        (Some(ra), Some(rb)) if ra >= rb => {
                            fail(format!(
                                "lock order violation: `{bn}` (rank {rb}) acquired \
                                 while `{an}` (rank {ra}, outer at line {}) is held — \
                                 declared order requires `{bn}` before `{an}`",
                                a.line
                            ));
                        }
                        (Some(_), Some(_)) => {} // declared and ordered correctly
                        _ => {
                            // Declared (aliased) but not ranked: feed the
                            // cycle detector.
                            analysis.edges.push(Edge {
                                outer: an.clone(),
                                inner: bn.clone(),
                                file: file.to_string(),
                                line: b.line,
                                function,
                            });
                        }
                    }
                }
                _ => {
                    let unnamed = if a.name.is_none() { &a.path } else { &b.path };
                    fail(format!(
                        "undeclared nested acquisition: `{}` inside `{}` — give \
                         `{unnamed}` a name in [locks.aliases] and a rank in \
                         [locks] order",
                        b.path, a.path
                    ));
                }
            }
        }
    }
}

/// Cycle pass over the accumulated nesting graph (runs once per
/// workspace). Any strongly-connected component with a cycle fails each
/// participating edge.
pub fn cycle_findings(edges: &[Edge]) -> Vec<Finding> {
    // Adjacency over distinct lock names.
    let mut adj: BTreeMap<&str, BTreeSet<&str>> = BTreeMap::new();
    for e in edges {
        adj.entry(&e.outer).or_default().insert(&e.inner);
    }
    // A name is cyclic when it can reach itself.
    let mut cyclic: BTreeSet<&str> = BTreeSet::new();
    for &start in adj.keys() {
        let mut stack: Vec<&str> = adj.get(start).into_iter().flatten().copied().collect();
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        while let Some(node) = stack.pop() {
            if node == start {
                cyclic.insert(start);
                break;
            }
            if seen.insert(node) {
                stack.extend(adj.get(node).into_iter().flatten().copied());
            }
        }
    }
    let mut out = Vec::new();
    for e in edges {
        if cyclic.contains(e.outer.as_str()) && cyclic.contains(e.inner.as_str()) {
            out.push(Finding {
                rule: Rule::Locks,
                file: e.file.clone(),
                line: e.line,
                function: e.function.clone(),
                message: format!(
                    "lock nesting cycle: `{}` → `{}` participates in a cycle — \
                     declare a total order for these locks in [locks] order",
                    e.outer, e.inner
                ),
            });
        }
    }
    out
}

/// The no-vacuous-green pass (runs once per workspace, after every file):
/// each `[locks.aliases]` row must have resolved an acquisition somewhere,
/// and each `[locks] order` name must be the target of some alias.
pub fn dead_declarations(cfg: &Config, live_aliases: &BTreeSet<String>) -> Vec<Finding> {
    let finding = |message: String| Finding {
        rule: Rule::Locks,
        file: "LINT.toml".to_string(),
        line: 1,
        function: "[locks]".to_string(),
        message,
    };
    let dead = cfg
        .lock_aliases
        .iter()
        .filter(|(alias, _)| !live_aliases.contains(*alias))
        .map(|(alias, name)| {
            finding(format!(
                "dead alias: no acquisition in the tree resolves to \"{alias}\" = \
                 \"{name}\" — the lock was renamed, removed, or is taken through a \
                 helper the lint cannot see"
            ))
        });
    let unaliased = cfg
        .lock_order
        .iter()
        .filter(|name| !cfg.lock_aliases.values().any(|n| n == *name))
        .map(|name| {
            finding(format!(
                "`{name}` is ranked in [locks] order but no [locks.aliases] row maps to it"
            ))
        });
    dead.chain(unaliased).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::model;

    fn cfg(order: &[&str], aliases: &[(&str, &str)]) -> Config {
        let mut c = Config {
            lock_order: order.iter().map(|s| s.to_string()).collect(),
            ..Config::default()
        };
        for (k, v) in aliases {
            c.lock_aliases.insert(k.to_string(), v.to_string());
        }
        c
    }

    fn run(src: &str, cfg: &Config) -> LockAnalysis {
        let mut analysis = LockAnalysis::default();
        check(&model(lex(src)), "x.rs", cfg, &mut analysis);
        analysis
    }

    #[test]
    fn ordered_nesting_passes_and_reversed_fails() {
        let c = cfg(
            &["outer.lock", "inner.lock"],
            &[("a", "outer.lock"), ("b", "inner.lock")],
        );
        let good = r#"
            fn f(a: M, b: M) {
                let ga = a.lock();
                let gb = b.lock();
            }
        "#;
        assert!(run(good, &c).findings.is_empty());
        let bad = r#"
            fn f(a: M, b: M) {
                let gb = b.lock();
                let ga = a.lock();
            }
        "#;
        let got = run(bad, &c);
        assert_eq!(got.findings.len(), 1, "{:?}", got.findings);
        assert!(got.findings[0].message.contains("lock order violation"));
    }

    #[test]
    fn temporaries_end_at_statement_boundary() {
        let c = cfg(
            &["outer.lock", "inner.lock"],
            &[("a", "outer.lock"), ("b", "inner.lock")],
        );
        // Reversed order, but the first guard is a temporary dropped at
        // the `;` — no nesting.
        let src = r#"
            fn f(a: M, b: M) {
                b.lock();
                let ga = a.lock();
            }
        "#;
        assert!(run(src, &c).findings.is_empty());
    }

    #[test]
    fn inner_block_guard_ends_at_the_block() {
        // The read-then-write upgrade idiom: the first guard is let-bound
        // inside an inner block and dropped at its `}` — no recursion.
        let c = cfg(&["m.lock"], &[("m", "m.lock")]);
        let src = r#"
            fn f(m: L) -> u32 {
                {
                    let g = m.read();
                    if g.ready { return g.value; }
                }
                let mut g = m.write();
                g.value
            }
        "#;
        assert!(run(src, &c).findings.is_empty());
    }

    #[test]
    fn recursive_acquisition_is_flagged() {
        let c = cfg(&["m.lock"], &[("m", "m.lock")]);
        let src = r#"
            fn f(m: M) {
                let g1 = m.lock();
                let g2 = m.lock();
            }
        "#;
        let got = run(src, &c);
        assert_eq!(got.findings.len(), 1);
        assert!(got.findings[0].message.contains("recursive"));
    }

    #[test]
    fn undeclared_nested_lock_is_flagged() {
        let c = cfg(&["outer.lock"], &[("a", "outer.lock")]);
        let src = r#"
            fn f(a: M, mystery: M) {
                let ga = a.lock();
                let gm = mystery.lock();
            }
        "#;
        let got = run(src, &c);
        assert_eq!(got.findings.len(), 1);
        assert!(got.findings[0].message.contains("undeclared"));
    }

    #[test]
    fn io_read_write_with_args_are_not_acquisitions() {
        let c = cfg(&[], &[]);
        let src = r#"
            fn f(s: &mut TcpStream, buf: &mut Vec<u8>) {
                s.read(buf);
                s.write(buf);
                s.read_exact(buf);
            }
        "#;
        let got = run(src, &c);
        assert!(got.findings.is_empty());
        assert!(got.edges.is_empty());
    }

    #[test]
    fn unordered_declared_pair_feeds_cycle_detector() {
        // Aliased but NOT in [locks] order: f1 nests a→b, f2 nests b→a.
        let c = cfg(&[], &[("a", "lock.a"), ("b", "lock.b")]);
        let src = r#"
            fn f1(a: M, b: M) {
                let ga = a.read();
                let gb = b.write();
            }
            fn f2(a: M, b: M) {
                let gb = b.read();
                let ga = a.write();
            }
        "#;
        let got = run(src, &c);
        assert!(got.findings.is_empty(), "{:?}", got.findings);
        assert_eq!(got.edges.len(), 2);
        let cycles = cycle_findings(&got.edges);
        assert_eq!(cycles.len(), 2, "both edges of the cycle are named");
        assert!(cycles[0].message.contains("cycle"));
    }

    #[test]
    fn acyclic_unordered_edges_pass() {
        let c = cfg(&[], &[("a", "lock.a"), ("b", "lock.b")]);
        let src = r#"
            fn f1(a: M, b: M) {
                let ga = a.lock();
                let gb = b.lock();
            }
        "#;
        let got = run(src, &c);
        assert!(got.findings.is_empty());
        assert!(cycle_findings(&got.edges).is_empty());
    }

    #[test]
    fn dead_alias_and_unaliased_rank_are_findings() {
        let c = cfg(
            &["lock.a", "lock.ghost"],
            &[("a", "lock.a"), ("renamed_away", "lock.a")],
        );
        let got = run("fn f(a: M) { let g = a.lock(); }", &c);
        let findings = dead_declarations(&c, &got.live_aliases);
        assert_eq!(findings.len(), 2, "{findings:?}");
        assert!(findings[0].message.contains("renamed_away"));
        assert!(findings[1].message.contains("lock.ghost"));
    }

    #[test]
    fn test_code_is_exempt() {
        let c = cfg(&[], &[]);
        let src = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t(a: M, b: M) {
                    let gb = b.lock();
                    let ga = a.lock();
                }
            }
        "#;
        let got = run(src, &c);
        assert!(got.findings.is_empty());
    }
}
