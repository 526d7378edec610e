//! HTML-aware tokenisation, as one streaming pass.
//!
//! Visited pages arrive as HTML-ish text; bookmark imports arrive as
//! Netscape bookmark files (also HTML). [`Tokens`] walks the input once:
//! it skips tags, comments, `<script>`/`<style>` bodies and entities,
//! lower-cases, breaks words at every non-alphanumeric character and
//! writes each kept token into a buffer the caller owns — no copy of the
//! input, no intermediate string, and a caller that wants only the first
//! token stops there. [`Words`] is that caller packaged: a snippet's walk
//! over a page's display words, each with its first token, or an archived
//! page's analysis reading every token word by word ([`word_start`]
//! finds one of them again without the tokens). [`tokenize`] is
//! the collecting wrapper. Nothing here panics on arbitrary input, and
//! `tests/prop.rs` holds all three to the two-pass strip-then-split
//! reference they replaced.

/// Maximum token length kept; longer blobs are almost always noise
/// (base64, session ids) and would bloat term statistics.
pub const MAX_TOKEN_LEN: usize = 24;
/// Minimum token length kept.
pub const MIN_TOKEN_LEN: usize = 2;

/// A cursor over the kept tokens of one HTML-or-text input.
///
/// Tokens are maximal runs of alphanumeric characters, lower-cased and
/// length-filtered in characters; pure digit runs longer than four are
/// dropped (ports, timestamps, ids). Markup separates words: a tag, a
/// comment, a `<script>`/`<style>` element with its body, or an entity
/// (decoded or not — every entity we decode is punctuation). An
/// unterminated `<…` or `<!--…` swallows the rest of the input.
#[derive(Debug, Clone)]
pub struct Tokens<'a> {
    input: &'a str,
    pos: usize,
    /// Where the walk stops: the input's end, or a word's when [`Words`]
    /// reads one word's tokens out of a whole text. Markup is still
    /// skipped to its end in the whole input, past this if it runs on.
    end: usize,
}

impl<'a> Tokens<'a> {
    pub fn new(input: &'a str) -> Tokens<'a> {
        Tokens {
            input,
            pos: 0,
            end: input.len(),
        }
    }

    /// Overwrite `token` with the next kept token; `false` (and an empty
    /// `token`) once the input is exhausted. `token` never grows past
    /// [`MAX_TOKEN_LEN`] characters, so one buffer serves any input.
    pub fn next_into(&mut self, token: &mut String) -> bool {
        let bytes = self.input.as_bytes().get(..self.end).unwrap_or_default();
        token.clear();
        // Characters of the word under the cursor, counted past the cap.
        let mut chars = 0usize;
        while let Some(&b) = bytes.get(self.pos) {
            let mut width = 1;
            if b.is_ascii_alphanumeric() {
                push_capped(token, &mut chars, b.to_ascii_lowercase() as char);
                self.pos += 1;
                continue;
            }
            if !b.is_ascii() {
                // `pos` is always on a char boundary.
                let Some(ch) = self.input[self.pos..].chars().next() else {
                    break;
                };
                width = ch.len_utf8();
                if ch.is_alphanumeric() {
                    for c in ch.to_lowercase() {
                        push_capped(token, &mut chars, c);
                    }
                    self.pos += width;
                    continue;
                }
            }
            // A separator ends the word; a kept one is handed out with the
            // cursor still on the separator.
            if chars > 0 {
                if keep_or_clear(token, chars) {
                    return true;
                }
                chars = 0;
            }
            self.pos = match b {
                b'<' => self.after_markup(),
                b'&' => self.after_entity(),
                _ => self.pos + width,
            };
        }
        keep_or_clear(token, chars)
    }

    /// The position after the markup construct that opens at `pos`.
    fn after_markup(&self) -> usize {
        let bytes = self.input.as_bytes();
        let rest = &bytes[self.pos..];
        let end = bytes.len();
        if rest.starts_with(b"<!--") {
            return find(rest, b"-->").map_or(end, |at| self.pos + at + 3);
        }
        // Script/style elements go with their bodies, up to the `>` of the
        // closing tag.
        for close in [&b"</script"[..], b"</style"] {
            let name = &close[2..];
            if rest
                .get(1..1 + name.len())
                .is_some_and(|n| n.eq_ignore_ascii_case(name))
            {
                let Some(at) = find(rest, close) else {
                    return end;
                };
                return tag_end(&rest[at..]).map_or(end, |gt| self.pos + at + gt);
            }
        }
        tag_end(rest).map_or(end, |gt| self.pos + gt)
    }

    /// The position after the entity that opens at `pos`: through a `;`
    /// within eight characters, else just the `&`.
    fn after_entity(&self) -> usize {
        let semi = self.input[self.pos..]
            .char_indices()
            .take(8)
            .find(|&(_, c)| c == ';');
        self.pos + semi.map_or(1, |(at, _)| at + 1)
    }
}

/// A cursor over the whitespace-separated words of a text, each read for
/// its first token: what `text.split_whitespace()` with a [`Tokens`] per
/// word gives, in one walk. A snippet shows the words and matches on the
/// tokens.
#[derive(Debug, Clone)]
pub struct Words<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> Words<'a> {
    pub fn new(text: &'a str) -> Words<'a> {
        Words { text, pos: 0 }
    }

    /// The next word and its byte offset, with `token` overwritten by the
    /// word's first kept token — empty when it has none. `firsts` gates the
    /// copy: a word that is one ASCII alphanumeric run whose lower-cased
    /// first byte is not in it leaves `token` empty, uncopied (a caller that
    /// looks tokens up by their first byte needs no more; `[true; 256]`
    /// reads every token).
    pub fn next_into(
        &mut self,
        token: &mut String,
        firsts: &[bool; 256],
    ) -> Option<(usize, &'a str)> {
        token.clear();
        let (start, end, run) = self.advance()?;
        if run {
            let gated = self
                .text
                .as_bytes()
                .get(start)
                .is_some_and(|b| !firsts[usize::from(b.to_ascii_lowercase())]);
            if !gated {
                self.copy_run(token, start, end);
            }
        } else {
            Tokens::new(&self.text[start..end]).next_into(token);
        }
        Some((start, &self.text[start..end]))
    }

    /// Every kept token of the next word, in order: each written into
    /// `token` and handed to `each` with its index in the word. `None` past
    /// the last word; else the word's start in bytes, and `true` when these
    /// are the tokens a [`Tokens`] walk of the whole text reads in the word,
    /// and also the ones the word read on its own gives — so the first is
    /// [`Words::next_into`]'s — which holds unless markup or an entity
    /// opened in the word runs past its end in the whole text (a tag whose
    /// attributes hold a space, say): then `false`, after the tokens read
    /// up to that construct, and from there on the two readings may differ.
    pub(crate) fn next_tokens(
        &mut self,
        token: &mut String,
        mut each: impl FnMut(&mut String, usize),
    ) -> Option<(usize, bool)> {
        token.clear();
        let (start, end, run) = self.advance()?;
        if run {
            if self.copy_run(token, start, end) {
                each(token, 0);
            }
            return Some((start, true));
        }
        // The whole text's walk, entered where it enters the word: the
        // same separators, the same markup ends.
        let mut tokens = Tokens {
            input: self.text,
            pos: start,
            end,
        };
        let mut n = 0;
        while tokens.next_into(token) {
            each(token, n);
            n += 1;
        }
        Some((start, tokens.pos <= end))
    }

    /// Move past the next word: its start and end, and whether it is one
    /// run of ASCII letters and digits — one token at most, the run itself.
    /// Nearly every word is such a run up to the next blank; any other
    /// (punctuation, markup, a wider character) is scanned on to its end.
    fn advance(&mut self) -> Option<(usize, usize, bool)> {
        let bytes = self.text.as_bytes();
        let start = self.scan(self.pos, true);
        let mut end = start;
        while bytes.get(end).is_some_and(u8::is_ascii_alphanumeric) {
            end += 1;
        }
        let run = bytes.get(end).is_none_or(|&b| ascii_whitespace(b));
        if !run {
            end = self.scan(end, false);
        }
        self.pos = end;
        (start < end).then_some((start, end, run))
    }

    /// Overwrite `token` with the run of ASCII letters and digits at
    /// `start..end`, copied in one piece and lower-cased; `false` (and an
    /// empty `token`) if the length or digit filter drops it.
    fn copy_run(&self, token: &mut String, start: usize, end: usize) -> bool {
        token.push_str(&self.text[start..end.min(start + MAX_TOKEN_LEN)]);
        token.make_ascii_lowercase();
        keep_or_clear(token, end - start)
    }

    /// The first position at or after `at` whose character is not
    /// (`whitespace`) or is (`!whitespace`) whitespace.
    fn scan(&self, mut at: usize, whitespace: bool) -> usize {
        let bytes = self.text.as_bytes();
        while let Some(&b) = bytes.get(at) {
            let (is_whitespace, width) = if b.is_ascii() {
                (ascii_whitespace(b), 1)
            } else {
                // `at` is always on a char boundary.
                self.text[at..]
                    .chars()
                    .next()
                    .map_or((true, 1), |c| (c.is_whitespace(), c.len_utf8()))
            };
            if is_whitespace != whitespace {
                break;
            }
            at += width;
        }
        at
    }
}

/// One in each byte of a `u64`, and each byte's high bit.
const ONES: u64 = 0x0101_0101_0101_0101;
const HIGH_BITS: u64 = ONES * 0x80;

/// Where word `n` (from 0) of `text` starts, or `text.len()` if it has no
/// such word — words as [`Words`] and `split_whitespace` cut them. One
/// scan: eight ASCII bytes at a time, their word starts counted without a
/// branch per byte, and a character at a time only where a wider one is.
pub fn word_start(text: &str, n: usize) -> usize {
    let bytes = text.as_bytes();
    // Words begun before `at`, and whether the character before it is
    // whitespace (the text's start counts as such).
    let (mut at, mut begun, mut blank) = (0usize, 0usize, true);
    while at < bytes.len() {
        let chunk = bytes
            .get(at..at + 8)
            .and_then(|c| <[u8; 8]>::try_from(c).ok())
            .map(u64::from_le_bytes)
            .filter(|x| x & HIGH_BITS == 0);
        if let Some(x) = chunk {
            // Low bit of each byte: whitespace; a word starts at each
            // other byte whose predecessor is whitespace.
            let blanks = ascii_whitespace_bytes(x) >> 7;
            let starts = !blanks & ((blanks << 8) | u64::from(blank)) & ONES;
            let found = starts.count_ones() as usize;
            if begun + found > n {
                // Drop the starts before word `n`; the lowest one left is it.
                let mut starts = starts;
                for _ in begun..n {
                    starts &= starts - 1;
                }
                return at + starts.trailing_zeros() as usize / 8;
            }
            begun += found;
            blank = blanks >> 56 != 0;
            at += 8;
            continue;
        }
        // The last few bytes, or a wider character among the next eight.
        let (is_blank, width) = match bytes.get(at) {
            Some(&b) if b.is_ascii() => (ascii_whitespace(b), 1),
            // `at` is always on a char boundary.
            _ => text[at..]
                .chars()
                .next()
                .map_or((true, 1), |c| (c.is_whitespace(), c.len_utf8())),
        };
        if blank && !is_blank {
            if begun == n {
                return at;
            }
            begun += 1;
        }
        blank = is_blank;
        at += width;
    }
    text.len()
}

/// [`ascii_whitespace`] for each byte of eight ASCII bytes (all below
/// 0x80): the byte's high bit set where it is whitespace. Exact, because
/// no per-byte sum below carries into the next byte.
fn ascii_whitespace_bytes(x: u64) -> u64 {
    const LOW_BITS: u64 = ONES * 0x7f;
    // A space: a byte that is zero once xored with b' '.
    let spaced = x ^ (ONES * u64::from(b' '));
    let space = !(((spaced & LOW_BITS) + LOW_BITS) | spaced) & HIGH_BITS;
    // b'\t'..=b'\r': the high bit reached by adding 0x80 - 9, not by
    // adding 0x80 - 14.
    let at_least_tab = x + ONES * (0x80 - 9);
    let past_return = x + ONES * (0x80 - 14);
    space | (at_least_tab & !past_return & HIGH_BITS)
}

/// `char::is_whitespace` for an ASCII byte.
fn ascii_whitespace(b: u8) -> bool {
    matches!(b, b' ' | b'\t'..=b'\r')
}

fn push_capped(token: &mut String, chars: &mut usize, c: char) {
    if *chars < MAX_TOKEN_LEN {
        token.push(c);
    }
    *chars += 1;
}

/// The length and digit-run filters on a finished word of `chars`
/// characters (a `token` of at most [`MAX_TOKEN_LEN`] is whole): `true` if
/// it is kept, else `token` is emptied.
fn keep_or_clear(token: &mut String, chars: usize) -> bool {
    let kept = (MIN_TOKEN_LEN..=MAX_TOKEN_LEN).contains(&chars)
        && !(chars > 4 && token.bytes().all(|b| b.is_ascii_digit()));
    if !kept {
        token.clear();
    }
    kept
}

/// The offset just past the first `>` of `tag`.
fn tag_end(tag: &[u8]) -> Option<usize> {
    tag.iter().position(|&b| b == b'>').map(|gt| gt + 1)
}

/// First offset of `needle` in `hay`, ASCII case-insensitively.
fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len())
        .position(|w| w.eq_ignore_ascii_case(needle))
}

/// Every kept token of `html_or_text`, collected.
pub fn tokenize(html_or_text: &str) -> Vec<String> {
    let mut tokens = Tokens::new(html_or_text);
    let mut out = Vec::new();
    let mut token = String::new();
    while tokens.next_into(&mut token) {
        out.push(token.clone());
    }
    out
}

/// Extract the `href` targets of anchor tags — bookmark-import and crawl
/// code uses this to recover the link structure of archived HTML.
pub fn extract_hrefs(html: &str) -> Vec<String> {
    let lower = html.to_ascii_lowercase();
    let mut out = Vec::new();
    let mut i = 0usize;
    while let Some(pos) = lower[i..].find("href") {
        let mut j = i + pos + 4;
        let bytes = lower.as_bytes();
        while j < bytes.len() && (bytes[j] == b' ' || bytes[j] == b'=') {
            j += 1;
        }
        if j >= bytes.len() {
            break;
        }
        let quote = bytes[j];
        if quote == b'"' || quote == b'\'' {
            j += 1;
            if let Some(end) = lower[j..].find(quote as char) {
                out.push(html[j..j + end].to_string());
                i = j + end;
                continue;
            }
        }
        i = j;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_words() {
        assert_eq!(tokenize("Hello, World!"), vec!["hello", "world"]);
        assert_eq!(tokenize("web-based IR"), vec!["web", "based", "ir"]);
    }

    #[test]
    fn length_filters() {
        assert!(tokenize("a I x").is_empty(), "single chars dropped");
        let long = "x".repeat(MAX_TOKEN_LEN + 1);
        assert!(tokenize(&long).is_empty(), "overlong tokens dropped");
        assert_eq!(tokenize(&long[1..]), vec![&long[1..]]);
        assert_eq!(
            tokenize("12345 1999"),
            vec!["1999"],
            "long digit runs dropped, years kept"
        );
    }

    #[test]
    fn strips_tags_and_entities() {
        let html = "<html><body><h1>Classical&nbsp;Music</h1><p>Bach &amp; Handel</p></body>";
        let toks = tokenize(html);
        assert_eq!(toks, vec!["classical", "music", "bach", "handel"]);
    }

    #[test]
    fn strips_script_and_style_bodies() {
        let html = "<script>var secretterm = 1;</script><style>.x{color:red}</style>visible";
        let toks = tokenize(html);
        assert_eq!(toks, vec!["visible"]);
    }

    #[test]
    fn strips_comments() {
        assert_eq!(tokenize("<!-- hiddenterm -->shown"), vec!["shown"]);
    }

    #[test]
    fn survives_malformed_html() {
        // Unterminated constructs must not panic or loop.
        for bad in [
            "<unclosed",
            "&unterminated",
            "<!-- no end",
            "<script>never closed",
            "a<b",
            "&",
        ] {
            let _ = tokenize(bad);
        }
        assert_eq!(tokenize("trailing <"), vec!["trailing"]);
    }

    #[test]
    fn unicode_is_lowercased_not_mangled() {
        assert_eq!(tokenize("Über Straße"), vec!["über", "straße"]);
    }

    #[test]
    fn href_extraction() {
        let html = r#"<a href="http://a.example/x">A</a> <A HREF='http://b.example'>B</A>"#;
        assert_eq!(
            extract_hrefs(html),
            vec!["http://a.example/x", "http://b.example"]
        );
        assert!(extract_hrefs("no links here").is_empty());
        assert!(extract_hrefs("<a href=").is_empty());
    }
}
