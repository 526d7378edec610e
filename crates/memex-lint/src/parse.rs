//! Lightweight structure over the token stream: which function each token
//! belongs to, whether it sits in test-only code, and its brace depth.
//!
//! This is deliberately not a parser. It tracks exactly three things with
//! a single forward pass and a scope stack:
//!
//! 1. **Brace depth** — every `{`/`}` pushes/pops a scope.
//! 2. **Functions** — `fn name … {` opens a function scope (a `;` before
//!    the `{` cancels it: trait method declarations have no body).
//! 3. **Test regions** — a `#[cfg(test)]` / `#[test]`-style attribute arms
//!    the next `{` it decorates; everything inside inherits test-ness.
//!    Files under `tests/`, `benches/`, or `examples/` are excluded before
//!    this module is ever consulted.

use crate::lexer::{Tok, Token};

/// One `fn` item (or nested fn) found in the file.
#[derive(Debug, Clone)]
pub struct FnInfo {
    pub name: String,
    /// Token index of the body-opening `{`.
    pub body_start: usize,
    /// Token index one past the body-closing `}` (or `tokens.len()` when
    /// the file ends inside the body).
    pub body_end: usize,
    pub line: usize,
    pub in_test: bool,
}

/// Per-token structural facts, parallel to the token vector.
pub struct FileModel {
    pub tokens: Vec<Token>,
    /// Enclosing function id (innermost) per token, if any.
    pub fn_of: Vec<Option<usize>>,
    /// True when the token sits in test-only code.
    pub in_test: Vec<bool>,
    /// Brace depth per token (depth *after* processing a `{`, *before*
    /// processing its `}` — i.e. body tokens share the body depth).
    pub depth: Vec<usize>,
    pub functions: Vec<FnInfo>,
}

struct Scope {
    is_test: bool,
    /// Function whose body this brace opened, if any.
    fn_id: Option<usize>,
}

/// True when the attribute token span marks test-only code: `#[test]`,
/// `#[cfg(test)]`, `#[cfg(any(test, …))]`, `#[tokio::test]`, …
fn attr_is_test(tokens: &[Token]) -> bool {
    tokens
        .iter()
        .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"))
}

/// Build the [`FileModel`] for a lexed file.
pub fn model(tokens: Vec<Token>) -> FileModel {
    let n = tokens.len();
    let mut fn_of = vec![None; n];
    let mut in_test = vec![false; n];
    let mut depth = vec![0usize; n];
    let mut functions: Vec<FnInfo> = Vec::new();

    let mut scopes: Vec<Scope> = Vec::new();
    // Armed by a test attribute; applied to the next `{`, cleared by `;`
    // at attribute level (e.g. `#[cfg(test)] use …;`).
    let mut test_armed = false;
    // Set when `fn` + name were seen and the body `{` is still pending.
    let mut pending_fn: Option<(String, usize)> = None;

    let mut i = 0usize;
    while i < n {
        let cur_test = test_armed || scopes.iter().any(|s| s.is_test);
        let cur_fn = scopes.iter().rev().find_map(|s| s.fn_id);
        fn_of[i] = cur_fn;
        in_test[i] = cur_test;
        depth[i] = scopes.len();

        match &tokens[i].tok {
            // Attribute: `#` `[` … `]` (also `#![…]`). Consume it wholesale
            // so its brackets/idents never look like expressions.
            Tok::Punct('#')
                if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('[')))
                    || (matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('!')))
                        && matches!(tokens.get(i + 2).map(|t| &t.tok), Some(Tok::Punct('[')))) =>
            {
                let open = if matches!(tokens.get(i + 1).map(|t| &t.tok), Some(Tok::Punct('['))) {
                    i + 1
                } else {
                    i + 2
                };
                let mut j = open + 1;
                let mut brackets = 1usize;
                while j < n && brackets > 0 {
                    match tokens[j].tok {
                        Tok::Punct('[') => brackets += 1,
                        Tok::Punct(']') => brackets -= 1,
                        _ => {}
                    }
                    j += 1;
                }
                if attr_is_test(&tokens[open..j]) {
                    test_armed = true;
                }
                for k in i..j.min(n) {
                    fn_of[k] = cur_fn;
                    in_test[k] = cur_test;
                    depth[k] = scopes.len();
                }
                i = j;
                continue;
            }
            Tok::Ident(id) if id == "fn" => {
                if let Some(Tok::Ident(name)) = tokens.get(i + 1).map(|t| &t.tok) {
                    pending_fn = Some((name.clone(), tokens[i].line));
                }
            }
            Tok::Punct('{') => {
                let fn_id = pending_fn.take().map(|(name, line)| {
                    functions.push(FnInfo {
                        name,
                        body_start: i,
                        body_end: n,
                        line,
                        in_test: cur_test,
                    });
                    functions.len() - 1
                });
                scopes.push(Scope {
                    is_test: test_armed,
                    fn_id,
                });
                test_armed = false;
            }
            Tok::Punct('}') => {
                if let Some(scope) = scopes.pop() {
                    if let Some(id) = scope.fn_id {
                        functions[id].body_end = i + 1;
                    }
                }
            }
            Tok::Punct(';') => {
                // A `;` before any body brace cancels a pending fn (trait
                // method declaration) and disarms an attribute that
                // decorated a non-brace item.
                if scopes.is_empty() || pending_fn.is_none() {
                    test_armed = false;
                }
                pending_fn = None;
            }
            _ => {}
        }
        i += 1;
    }

    FileModel {
        tokens,
        fn_of,
        in_test,
        depth,
        functions,
    }
}

impl FileModel {
    /// The name of the function enclosing token `i`, or `"<file>"`.
    pub fn fn_name(&self, i: usize) -> &str {
        match self.fn_of.get(i).copied().flatten() {
            Some(id) => &self.functions[id].name,
            None => "<file>",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    #[test]
    fn functions_and_test_mods_are_tracked() {
        let src = r#"
            fn live() { body(); }

            #[cfg(test)]
            mod tests {
                #[test]
                fn exercised() { checked(); }
            }
        "#;
        let m = model(lex(src));
        assert_eq!(m.functions.len(), 2);
        assert!(!m.functions[0].in_test);
        assert!(m.functions[1].in_test);
        // Every token of the test mod body is flagged.
        let body = &m.functions[1];
        for k in body.body_start..body.body_end {
            assert!(m.in_test[k], "token {k} should be in test code");
        }
    }

    #[test]
    fn attr_on_use_does_not_leak_testness() {
        let src = r#"
            #[cfg(test)]
            use std::collections::HashMap;
            fn live() { body(); }
        "#;
        let m = model(lex(src));
        assert_eq!(m.functions.len(), 1);
        assert!(!m.functions[0].in_test);
        let f = &m.functions[0];
        assert!(!m.in_test[f.body_start + 1]);
    }

    #[test]
    fn trait_method_decl_is_not_a_body() {
        let src = r#"
            trait T {
                fn no_body(&self);
                fn with_body(&self) { x(); }
            }
        "#;
        let m = model(lex(src));
        assert_eq!(m.functions.len(), 1);
        assert_eq!(m.functions[0].name, "with_body");
    }

    #[test]
    fn nested_fns_attribute_tokens_to_the_inner_one() {
        let src = r#"
            fn outer() {
                fn inner() { marker(); }
                after();
            }
        "#;
        let m = model(lex(src));
        let marker = m
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "marker"))
            .unwrap();
        assert_eq!(m.fn_name(marker), "inner");
        let after = m
            .tokens
            .iter()
            .position(|t| matches!(&t.tok, Tok::Ident(s) if s == "after"))
            .unwrap();
        assert_eq!(m.fn_name(after), "outer");
    }
}
