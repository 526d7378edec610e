//! Rule family 7: **durability-order** — sync-before-truncate on WAL
//! storage, checked along call chains.
//!
//! The bug class: a checkpoint that truncates the WAL before the state
//! it covers is durable loses committed writes on crash. PR 2 found it
//! in the checkpoint of the B+Tree store this workspace then had, PR 4
//! re-found it under review, PR 8 had to get it right again in
//! `LsmStore::seal`. This rule encodes the
//! invariant: within each function chain rooted at a `[durability]
//! functions` entry, every `truncate`/`set_len` on a WAL-tagged receiver
//! (`[durability] wal_paths`) must be preceded — in flattened call
//! order, recursing through resolved callees — by a `sync`-class call on
//! WAL storage.
//!
//! Findings are **hard**: the baseline cannot absorb them. A truncate
//! that is legitimately sync-free (e.g. the inner `checkpoint_wal`
//! helper whose callers sync first) should not be listed as a root —
//! roots are the entry points whose *whole chains* carry the invariant.

use crate::callgraph::{CallGraph, FileUnit};
use crate::config::{Config, Rule};
use crate::dataflow::{durability_events, DurEvent};
use crate::rules::Finding;

/// Check every configured root in the workspace.
pub fn check(files: &[FileUnit], graph: &CallGraph, cfg: &Config) -> Vec<Finding> {
    let mut out = Vec::new();
    for root in &cfg.durability_functions {
        let ids = graph.resolve_name(root);
        if ids.is_empty() {
            // A root that matches nothing makes the whole pass vacuous —
            // fail loudly (hard, like every durability finding) so a
            // rename cannot silently retire the invariant.
            out.push(Finding {
                rule: Rule::Durability,
                file: "LINT.toml".to_string(),
                line: 0,
                function: "<config>".to_string(),
                message: format!(
                    "[durability] functions entry `{root}` matches no function in \
                     the workspace — fix the name or remove the entry"
                ),
            });
            continue;
        }
        for id in ids {
            let mut events = Vec::new();
            durability_events(
                files,
                graph,
                cfg,
                id,
                cfg.call_depth(),
                &mut Vec::new(),
                &mut events,
            );
            let mut synced = false;
            for ev in &events {
                match ev {
                    DurEvent::Sync { .. } => synced = true,
                    DurEvent::Truncate {
                        line,
                        file,
                        function,
                        method,
                        hops,
                    } => {
                        if !synced {
                            let chain = if hops.len() > 1 {
                                format!(" (chain: {})", hops.join(" → "))
                            } else {
                                String::new()
                            };
                            out.push(Finding {
                                rule: Rule::Durability,
                                file: file.clone(),
                                line: *line,
                                function: function.clone(),
                                message: format!(
                                    "durability order violation in `{root}` chain: \
                                     `{method}()` on WAL storage before any `sync`{chain} \
                                     — committed state must be durable before the log \
                                     that covers it is destroyed"
                                ),
                            });
                        }
                    }
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::model;

    fn run(src: &str, roots: &[&str]) -> Vec<Finding> {
        let cfg = Config {
            durability_functions: roots.iter().map(|s| s.to_string()).collect(),
            durability_sync: vec!["sync".into(), "sync_all".into()],
            durability_truncate: vec!["truncate".into(), "set_len".into()],
            durability_wal_paths: vec!["wal".into()],
            ..Config::default()
        };
        let files = vec![FileUnit {
            path: "s.rs".into(),
            crate_name: "t".into(),
            model: model(lex(src)),
        }];
        let graph = CallGraph::build(&files);
        check(&files, &graph, &cfg)
    }

    #[test]
    fn sync_before_truncate_passes_truncate_first_fails() {
        let good = r#"
            struct S { wal: W }
            impl S {
                fn seal(&self) {
                    self.wal.sync();
                    self.wal.truncate();
                }
            }
        "#;
        assert!(run(good, &["S::seal"]).is_empty());
        let bad = r#"
            struct S { wal: W }
            impl S {
                fn seal(&self) {
                    self.wal.truncate();
                    self.wal.sync();
                }
            }
        "#;
        let got = run(bad, &["S::seal"]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].rule, Rule::Durability);
    }

    #[test]
    fn order_is_checked_across_helpers() {
        // The sync lives in a helper the root calls first: fine.
        let good = r#"
            struct S { wal: W }
            impl S {
                fn make_durable(&self) { self.wal.sync(); }
                fn seal(&self) {
                    self.make_durable();
                    self.wal.truncate();
                }
            }
        "#;
        assert!(run(good, &["S::seal"]).is_empty());
        // The truncate lives in a helper called before any sync: flagged,
        // and the chain names the helper.
        let bad = r#"
            struct S { wal: W }
            impl S {
                fn reset_log(&self) { self.wal.truncate(); }
                fn seal(&self) {
                    self.reset_log();
                    self.wal.sync();
                }
            }
        "#;
        let got = run(bad, &["S::seal"]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert!(got[0].message.contains("chain:"), "{}", got[0].message);
        assert_eq!(got[0].function, "reset_log");
    }

    #[test]
    fn non_wal_receivers_are_ignored() {
        let src = r#"
            struct S { wal: W, scratch: F }
            impl S {
                fn seal(&self) {
                    self.scratch.truncate();
                    self.wal.sync();
                    self.wal.truncate();
                }
            }
        "#;
        assert!(run(src, &["S::seal"]).is_empty());
    }

    #[test]
    fn unlisted_functions_are_not_checked() {
        // `checkpoint_wal` truncates sync-free but is not a root and is
        // not called from one — its callers carry the invariant.
        let src = r#"
            struct S { wal: W }
            impl S {
                fn checkpoint_wal(&self) { self.wal.truncate(); }
                fn seal(&self) { self.wal.sync(); }
            }
        "#;
        assert!(run(src, &["S::seal"]).is_empty());
    }

    #[test]
    fn unresolvable_root_is_a_hard_config_error() {
        let got = run("fn other() {}", &["S::seal"]);
        assert_eq!(got.len(), 1, "{got:?}");
        assert_eq!(got[0].file, "LINT.toml");
        assert!(
            got[0].message.contains("matches no function"),
            "{}",
            got[0].message
        );
    }
}
