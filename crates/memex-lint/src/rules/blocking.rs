//! Rule family 5: **blocking-under-lock**.
//!
//! While a guard for a lock declared in `[locks] order` is live, nothing
//! in the guarded region may block: no file sync/flush, no socket
//! connect/accept/read, no `thread::sleep`, no channel `recv`, no thread
//! `join`. A blocked critical section stalls every other thread queued
//! on that lock — for the served Memex that means writes stall reads,
//! which is exactly the hazard PR 5 split the dispatch path to avoid.
//!
//! The check is interprocedural: a call inside the guarded region whose
//! transitive summary (bounded depth) contains a blocking effect is
//! flagged with the call chain that reaches it. Deliberate designs — a
//! mutex-wrapped channel receiver, a sealed-run write under the manifest
//! lock — are exempted per `(lock, function)` pair via
//! `[[blocking.allow]]`, each with a human-readable `reason`.

use crate::callgraph::{CallGraph, FileUnit};
use crate::config::{Config, Rule};
use crate::dataflow::{render_chain, Dataflow, EffectKind};
use crate::rules::Finding;

/// Check every non-test function of the workspace.
pub fn check(files: &[FileUnit], graph: &CallGraph, flow: &Dataflow, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for (id, node) in graph.nodes.iter().enumerate() {
        if node.in_test {
            continue;
        }
        let model = &files[node.file_idx].model;
        for held in &flow.direct[id].locks {
            // Only locks in the declared order define critical sections;
            // undeclared nesting is the lock rules' business.
            let Some(lock) = held.name.as_deref() else {
                continue;
            };
            if cfg.lock_rank(lock).is_none() {
                continue;
            }
            if cfg.blocking_allowed(lock, &node.name, &node.qname()) {
                continue;
            }
            // Direct blocking ops inside the guarded region.
            for op in &flow.direct[id].blocking {
                if op.token > held.token && op.token < held.until {
                    out.push(Finding {
                        rule: Rule::Blocking,
                        file: node.file.clone(),
                        line: op.line,
                        function: model.fn_name(op.token).to_string(),
                        message: format!(
                            "blocking `{}()` while `{lock}` guard (acquired line {}) is held",
                            op.method, held.line
                        ),
                    });
                }
            }
            // Calls inside the region whose summaries block.
            for call in &graph.calls[id] {
                if call.token <= held.token || call.token >= held.until {
                    continue;
                }
                for e in flow.effects_of_call(graph, call.callee, call.line) {
                    if e.kind != EffectKind::Blocking {
                        continue;
                    }
                    out.push(Finding {
                        rule: Rule::Blocking,
                        file: node.file.clone(),
                        line: call.line,
                        function: model.fn_name(call.token).to_string(),
                        message: format!(
                            "call blocks (`{}()` at {}:{}) while `{lock}` guard \
                             (acquired line {}) is held{}",
                            e.name,
                            e.file,
                            e.line,
                            held.line,
                            render_chain(&e.hops)
                        ),
                    });
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::FileUnit;
    use crate::dataflow::Dataflow;
    use crate::lexer::lex;
    use crate::parse::model;

    fn run(src: &str, allow: &[(&str, &str)]) -> Vec<Finding> {
        let mut cfg = Config {
            lock_order: vec!["l.m".into()],
            blocking_methods: vec!["sleep".into(), "sync".into(), "recv".into()],
            ..Config::default()
        };
        cfg.lock_aliases.insert("m".into(), "l.m".into());
        for (l, f) in allow {
            cfg.blocking_allow.push((l.to_string(), f.to_string()));
        }
        let files = vec![FileUnit {
            path: "x.rs".into(),
            crate_name: "t".into(),
            model: model(lex(src)),
        }];
        let graph = CallGraph::build(&files);
        let flow = Dataflow::build(&files, &graph, &cfg);
        check(&files, &graph, &flow, &cfg)
    }

    #[test]
    fn direct_blocking_under_guard_is_flagged() {
        let src = r#"
            fn f(m: M, file: F) {
                let g = m.lock();
                file.sync();
            }
        "#;
        let got = run(src, &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("blocking `sync()`"));
    }

    #[test]
    fn blocking_after_guard_scope_passes() {
        let src = r#"
            fn f(m: M, file: F) {
                {
                    let g = m.lock();
                }
                file.sync();
            }
        "#;
        assert!(run(src, &[]).is_empty());
    }

    #[test]
    fn transitive_blocking_through_a_callee_is_flagged_with_chain() {
        let src = r#"
            fn helper(file: F) { file.sync(); }
            fn f(m: M, file: F) {
                let g = m.lock();
                helper(file);
            }
        "#;
        let got = run(src, &[]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("via helper"), "{}", got[0].message);
    }

    #[test]
    fn allow_entry_exempts_the_pair() {
        let src = r#"
            fn worker(m: M) {
                let g = m.lock();
                g.recv();
            }
        "#;
        assert_eq!(run(src, &[]).len(), 1);
        assert!(run(src, &[("l.m", "worker")]).is_empty());
    }
}
