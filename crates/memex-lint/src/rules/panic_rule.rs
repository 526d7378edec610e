//! Rule family 1: **panic-freedom**.
//!
//! In a long-running server a panic is an outage-shaped event: it kills a
//! worker thread, poisons whatever lock it held, and turns one bad request
//! into degraded service for everyone behind it. This rule flags the
//! panic-shaped constructs in non-test code, in two halves:
//!
//! - **calls** — `unwrap()`, `expect(…)`, `panic!`, `unreachable!`,
//!   `todo!`, `unimplemented!` — in every crate a wire request can reach
//!   (the driver in `lib.rs` exempts only the offline-tool crates);
//! - **indexing** — `buf[i]`, `buf[a..b]` — only in the `panic_crates` of
//!   `LINT.toml`, where bytes from the wire or the disk are decoded.
//!
//! There is no allow list: a finding is rewritten as a typed error or so
//! that the type carries the invariant.

use crate::config::Rule;
use crate::lexer::Tok;
use crate::parse::FileModel;
use crate::rules::Finding;

/// Macro names that unconditionally panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Keywords that can directly precede `[` without the bracket being an
/// index expression (array literals, mostly).
const NON_INDEX_PREV: [&str; 20] = [
    "return", "break", "in", "if", "else", "match", "as", "mut", "ref", "move", "const", "static",
    "let", "dyn", "impl", "where", "for", "while", "loop", "use",
];

fn punct_at(m: &FileModel, i: usize, c: char) -> bool {
    matches!(m.tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(p)) if *p == c)
}

/// Scan one file. `include_indexing` adds the indexing half (the file
/// belongs to one of `panic_crates`).
pub fn check(model: &FileModel, file: &str, include_indexing: bool) -> Vec<Finding> {
    let mut out = Vec::new();
    for i in 0..model.tokens.len() {
        if model.in_test[i] {
            continue;
        }
        let line = model.tokens[i].line;
        let mut push = |message: String| {
            out.push(Finding {
                rule: Rule::Panic,
                file: file.to_string(),
                line,
                function: model.fn_name(i).to_string(),
                message,
            });
        };
        match &model.tokens[i].tok {
            // Method call: `.unwrap()` / `.expect(` — a bare fn named
            // `unwrap` or a struct field does not count.
            Tok::Ident(id)
                if (id == "unwrap" || id == "expect")
                    && i > 0
                    && punct_at(model, i - 1, '.')
                    && punct_at(model, i + 1, '(') =>
            {
                push(format!("`.{id}()` on the non-test path"));
            }
            Tok::Ident(id)
                if PANIC_MACROS.contains(&id.as_str()) && punct_at(model, i + 1, '!') =>
            {
                push(format!("`{id}!` on the non-test path"));
            }
            Tok::Punct('[') if include_indexing && i > 0 => {
                // Index expression: `expr[…]` where expr ends in an
                // identifier, `)`, or `]`. Array literals/types follow
                // punctuation or keywords instead.
                let is_index = match &model.tokens[i - 1].tok {
                    Tok::Ident(prev) => !NON_INDEX_PREV.contains(&prev.as_str()),
                    Tok::Punct(')') | Tok::Punct(']') => true,
                    _ => false,
                };
                if is_index {
                    push("slice/array index (can panic out-of-bounds)".to_string());
                }
            }
            _ => {}
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::parse::model;

    fn findings_with(src: &str, include_indexing: bool) -> Vec<String> {
        check(&model(lex(src)), "f.rs", include_indexing)
            .into_iter()
            .map(|f| f.message)
            .collect()
    }

    fn findings(src: &str) -> Vec<String> {
        findings_with(src, true)
    }

    #[test]
    fn flags_the_panic_family() {
        let src = r#"
            fn f(x: Option<u32>) -> u32 {
                let a = x.unwrap();
                let b = x.expect("present");
                if a > b { panic!("no"); }
                unreachable!()
            }
        "#;
        let got = findings(src);
        assert_eq!(got.len(), 4, "{got:?}");
    }

    #[test]
    fn test_code_is_exempt() {
        let src = r#"
            fn live(x: Option<u32>) -> Option<u32> { x }

            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { super::live(Some(1)).unwrap(); }
            }
        "#;
        assert!(findings(src).is_empty());
    }

    #[test]
    fn index_expressions_but_not_array_literals() {
        let src = r#"
            fn f(buf: &[u8], n: usize) -> u8 {
                let arr = [0u8; 4];
                let t: [u8; 2] = [1, 2];
                let x = buf[n];
                let y = &buf[1..n];
                x + y[0] + t[0] + arr[1]
            }
        "#;
        let got = findings(src);
        assert_eq!(got.len(), 5, "{got:?}");
        // Outside `panic_crates` only the call half applies.
        assert!(findings_with(src, false).is_empty());
    }

    #[test]
    fn strings_and_comments_do_not_count() {
        let src = r#"
            fn f() -> &'static str {
                // panic!("commented out") and x.unwrap()
                "contains panic! and .unwrap() text"
            }
        "#;
        assert!(findings(src).is_empty());
    }

    #[test]
    fn vec_macro_is_not_an_index() {
        let src = "fn f() -> Vec<u8> { vec![0u8; 4] }";
        assert!(findings(src).is_empty());
    }
}
