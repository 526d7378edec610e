//! A Rust lexer and structure pass with just enough fidelity for the lock
//! rule. Comments, strings, chars and lifetimes never look like code; each
//! token knows its enclosing function, its brace depth and whether it sits
//! in test-only code. This is deliberately not a parser: one forward pass
//! and a scope stack.

/// One token. Identifiers and punctuation are all the rule reads; every
/// literal and lifetime is opaque.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Tok {
    Ident(String),
    Punct(char),
    Opaque,
}

/// A token plus the 1-based line it starts on.
#[derive(Debug, Clone)]
pub struct Token {
    pub tok: Tok,
    pub line: usize,
}

struct Cursor<'a> {
    src: &'a [u8],
    pos: usize,
    line: usize,
}

impl Cursor<'_> {
    fn peek(&self, ahead: usize) -> Option<u8> {
        self.src.get(self.pos + ahead).copied()
    }

    fn bump(&mut self) -> Option<u8> {
        let b = self.peek(0)?;
        self.pos += 1;
        if b == b'\n' {
            self.line += 1;
        }
        Some(b)
    }

    fn bump_while(&mut self, keep: impl Fn(u8) -> bool) {
        while self.peek(0).is_some_and(&keep) {
            self.bump();
        }
    }
}

fn is_ident_start(b: u8) -> bool {
    b.is_ascii_alphabetic() || b == b'_' || b >= 0x80
}

fn is_ident_cont(b: u8) -> bool {
    b.is_ascii_alphanumeric() || b == b'_' || b >= 0x80
}

/// Lex `src`. Never fails: an unterminated construct runs to the end.
pub fn lex(src: &str) -> Vec<Token> {
    let mut cur = Cursor {
        src: src.as_bytes(),
        pos: 0,
        line: 1,
    };
    let mut out = Vec::new();
    while let Some(b) = cur.peek(0) {
        let line = cur.line;
        let tok = match b {
            b' ' | b'\t' | b'\r' | b'\n' => {
                cur.bump();
                continue;
            }
            b'/' if cur.peek(1) == Some(b'/') => {
                cur.bump_while(|c| c != b'\n');
                continue;
            }
            b'/' if cur.peek(1) == Some(b'*') => {
                skip_block_comment(&mut cur);
                continue;
            }
            b'"' => {
                skip_string(&mut cur);
                Tok::Opaque
            }
            b'\'' => {
                // `'a` not followed by a quote is a lifetime; `'a'`, `'\n'`
                // and friends are chars.
                let next = cur.peek(1);
                let lifetime = next.is_some_and(is_ident_start) && cur.peek(2) != Some(b'\'');
                cur.bump();
                if lifetime {
                    cur.bump_while(is_ident_cont);
                } else {
                    if cur.bump() == Some(b'\\') {
                        // `\n`, `\'`, `\x41`, `\u{..}`: run to the quote.
                        cur.bump();
                        cur.bump_while(|c| c != b'\'');
                    }
                    if cur.peek(0) == Some(b'\'') {
                        cur.bump();
                    }
                }
                Tok::Opaque
            }
            _ if b.is_ascii_digit() => {
                // A `.` joins a number only before a digit, so `0..n` stays
                // a range.
                cur.bump();
                loop {
                    match cur.peek(0) {
                        Some(c) if is_ident_cont(c) => {}
                        Some(b'.') if cur.peek(1).is_some_and(|d| d.is_ascii_digit()) => {}
                        _ => break,
                    }
                    cur.bump();
                }
                Tok::Opaque
            }
            _ if is_ident_start(b) => {
                if skip_prefixed_string(&mut cur) {
                    Tok::Opaque
                } else {
                    let start = cur.pos;
                    cur.bump_while(is_ident_cont);
                    Tok::Ident(String::from_utf8_lossy(&cur.src[start..cur.pos]).into_owned())
                }
            }
            _ => {
                cur.bump();
                Tok::Punct(b as char)
            }
        };
        out.push(Token { tok, line });
    }
    out
}

fn skip_block_comment(cur: &mut Cursor<'_>) {
    cur.bump();
    cur.bump();
    let mut depth = 1usize;
    while depth > 0 {
        match (cur.peek(0), cur.peek(1)) {
            (Some(b'/'), Some(b'*')) => {
                cur.bump();
                depth += 1;
            }
            (Some(b'*'), Some(b'/')) => {
                cur.bump();
                depth -= 1;
            }
            (None, _) => return,
            _ => {}
        }
        cur.bump();
    }
}

/// A cooked string from its opening `"`.
fn skip_string(cur: &mut Cursor<'_>) {
    cur.bump();
    while let Some(c) = cur.bump() {
        match c {
            b'"' => return,
            b'\\' => {
                cur.bump();
            }
            _ => {}
        }
    }
}

/// A raw string after its `r`: `#`*n* `"` … `"` `#`*n*.
fn skip_raw_string(cur: &mut Cursor<'_>) {
    let mut hashes = 0usize;
    while cur.peek(0) == Some(b'#') {
        hashes += 1;
        cur.bump();
    }
    cur.bump();
    while let Some(c) = cur.bump() {
        if c == b'"' && (0..hashes).all(|i| cur.peek(i) == Some(b'#')) {
            for _ in 0..hashes {
                cur.bump();
            }
            return;
        }
    }
}

/// Skip a literal behind a string prefix (`r`, `b`, `br`, `c`), if the
/// cursor sits on one.
fn skip_prefixed_string(cur: &mut Cursor<'_>) -> bool {
    let (prefix, raw) = match (cur.peek(0), cur.peek(1), cur.peek(2)) {
        (Some(b'r'), Some(b'"' | b'#'), _) => (1, true),
        (Some(b'b' | b'c'), Some(b'"'), _) => (1, false),
        (Some(b'b'), Some(b'r'), Some(b'"' | b'#')) => (2, true),
        _ => return false,
    };
    for _ in 0..prefix {
        cur.bump();
    }
    if raw {
        skip_raw_string(cur);
    } else {
        skip_string(cur);
    }
    true
}

/// Per-token structure, parallel to the token vector.
pub struct Model {
    pub tokens: Vec<Token>,
    /// Innermost enclosing function (an index into `functions`).
    pub fn_of: Vec<Option<usize>>,
    /// True inside `#[cfg(test)]` / `#[test]`-decorated code.
    pub in_test: Vec<bool>,
    /// Brace depth before the token: a body's tokens and its closing `}`
    /// share one depth, its opening `{` has the depth outside.
    pub depth: Vec<usize>,
    /// Function names, by id.
    pub functions: Vec<String>,
}

impl Model {
    pub fn tok(&self, i: usize) -> Option<&Tok> {
        self.tokens.get(i).map(|t| &t.tok)
    }

    pub fn punct(&self, i: usize, c: char) -> bool {
        self.tok(i) == Some(&Tok::Punct(c))
    }
}

struct Scope {
    is_test: bool,
    fn_id: Option<usize>,
}

/// The structure pass. A `fn name … {` opens a function scope (a `;`
/// first cancels it: a trait method without a body); a test attribute arms
/// the next `{` it decorates, and everything inside inherits test-ness.
pub fn model(src: &str) -> Model {
    let tokens = lex(src);
    let n = tokens.len();
    let mut m = Model {
        fn_of: vec![None; n],
        in_test: vec![false; n],
        depth: vec![0; n],
        functions: Vec::new(),
        tokens,
    };
    let mut scopes: Vec<Scope> = Vec::new();
    // Armed by a test attribute, applied to the next `{`, cleared by a `;`
    // at item level (`#[cfg(test)] use …;`).
    let mut test_armed = false;
    let mut pending_fn: Option<String> = None;
    let mut i = 0usize;
    while i < n {
        // An attribute, `#[…]` or `#![…]`, is consumed whole so its
        // brackets never look like expressions.
        let attribute = m.punct(i, '#') && (m.punct(i + 1, '[') || m.punct(i + 1, '!'));
        let end = if attribute {
            let open = if m.punct(i + 1, '[') { i + 1 } else { i + 2 };
            let mut brackets = 0usize;
            let mut j = open;
            while j < n {
                match &m.tokens[j].tok {
                    Tok::Punct('[') => brackets += 1,
                    Tok::Punct(']') => brackets = brackets.saturating_sub(1),
                    _ => {}
                }
                j += 1;
                if brackets == 0 {
                    break;
                }
            }
            j
        } else {
            i + 1
        };
        let cur_test = test_armed || scopes.iter().any(|s| s.is_test);
        let cur_fn = scopes.iter().rev().find_map(|s| s.fn_id);
        for k in i..end {
            m.fn_of[k] = cur_fn;
            m.in_test[k] = cur_test;
            m.depth[k] = scopes.len();
        }
        match &m.tokens[i].tok {
            _ if attribute => {
                // `#[test]`, `#[cfg(test)]`, `#[cfg(any(test, …))]`, …
                test_armed |= m.tokens[i..end]
                    .iter()
                    .any(|t| matches!(&t.tok, Tok::Ident(s) if s == "test"));
            }
            Tok::Ident(id) if id == "fn" => {
                if let Some(Tok::Ident(name)) = m.tok(i + 1) {
                    pending_fn = Some(name.clone());
                }
            }
            Tok::Punct('{') => {
                let fn_id = pending_fn.take().map(|name| {
                    m.functions.push(name);
                    m.functions.len() - 1
                });
                scopes.push(Scope {
                    is_test: test_armed,
                    fn_id,
                });
                test_armed = false;
            }
            Tok::Punct('}') => {
                scopes.pop();
            }
            Tok::Punct(';') => {
                if scopes.is_empty() || pending_fn.is_none() {
                    test_armed = false;
                }
                pending_fn = None;
            }
            _ => {}
        }
        i = end;
    }
    m
}
