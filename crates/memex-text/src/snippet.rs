//! Query-biased snippets: pick the window of a page's text that covers the
//! most (distinct, then total) query terms — what the search tab shows
//! under each hit.
//!
//! A request analyses its query once ([`SnippetQuery`]) and then reads each
//! returned page in a single pass over its display words, collecting the
//! words that match a query stem (the hits). Two sources say which stem a
//! word matches:
//!
//! * the text walk ([`SnippetQuery::snippet`]): every whitespace-separated
//!   word is read for its first token ([`Words`]) and, if a query stem
//!   starts with its first byte, stemmed in place in one reused buffer and
//!   looked up among the query's stems;
//! * the page's word memo ([`page_words`], read by
//!   [`SnippetQuery::snippet_from_words`]): per word, where its first
//!   token's stem sits among the page's terms, so a word costs one compare
//!   against the query stems' positions and nothing is copied or stemmed.
//!
//! Either way the window is chosen from the hits alone: the first best
//! window starts at word 0 or ends on a hit — one whose last word is not a
//! hit covers no more than the window one word earlier — so only those are
//! scored. Rendering then finds the best window's first word with one
//! whitespace scan. Cost is linear in the page's words with a constant
//! number of allocations, whatever the page's length.

use crate::analyze::Analyzer;
use crate::stem::stem_in_place;
use crate::tokenize::{word_start, Words};

/// A word-memo entry: the word has no kept token.
pub const NO_TOKEN: u16 = u16::MAX;
/// A word-memo entry: the stem of the word's first token is not among the
/// page's terms (a stopword, or a token markup cut differently when the
/// page was analysed whole). Positions are below it.
pub const OUTSIDE: u16 = u16::MAX - 1;

/// The distinct terms of one query, ready to be matched against any number
/// of texts.
#[derive(Debug, Clone)]
pub struct SnippetQuery {
    /// Sorted, so a display word costs a binary search however long the
    /// query.
    stems: Vec<String>,
    /// The bytes the stems start with. Stemming never changes a token's
    /// first byte, so a word whose token starts elsewhere matches nothing
    /// and is neither copied nor stemmed.
    firsts: [bool; 256],
    token: String,
    /// Per query stem found among a page's terms, its position there and
    /// its index in `stems`, sorted by position: reused page after page by
    /// [`SnippetQuery::snippet_from_words`].
    positions: Vec<(u16, usize)>,
    /// The page's hits: each word that matches a query stem, and that
    /// stem's index in `stems`, in word order. Reused page after page by
    /// both sources, as is `inside`.
    hits: Vec<(usize, usize)>,
    /// Per query stem, its hits inside the window being scored.
    inside: Vec<usize>,
}

impl SnippetQuery {
    pub fn new(query: &str) -> SnippetQuery {
        SnippetQuery::from_terms(Analyzer.counts(query).into_keys())
    }

    /// From terms already analysed: the keys of [`Analyzer::counts`].
    pub fn from_terms(terms: impl IntoIterator<Item = String>) -> SnippetQuery {
        let mut stems: Vec<String> = terms.into_iter().collect();
        stems.sort_unstable();
        stems.dedup();
        let mut firsts = [false; 256];
        for first in stems.iter().filter_map(|s| s.bytes().next()) {
            firsts[usize::from(first)] = true;
        }
        SnippetQuery {
            stems,
            firsts,
            token: String::new(),
            positions: Vec::new(),
            hits: Vec::new(),
            inside: Vec::new(),
        }
    }

    /// The query's distinct stems, sorted: what the `i` of
    /// [`SnippetQuery::snippet_from_words`]'s `position(i)` indexes.
    pub fn stems(&self) -> &[String] {
        &self.stems
    }

    /// Extract a snippet of at most `window` words from `text` biased
    /// toward the query. Matching is stem-level, so "optimizing" matches a
    /// query for "optimization". Returns the original-case words joined by
    /// spaces, with an ellipsis on clipped ends. Empty text gives an empty
    /// string.
    pub fn snippet(&mut self, text: &str, window: usize) -> String {
        let SnippetQuery {
            stems,
            firsts,
            token,
            hits,
            inside,
            ..
        } = self;
        hits.clear();
        // A text has at most one word per two bytes: room for every word, so
        // a page costs no reallocation past the longest one read so far.
        hits.reserve(text.len() / 2 + 1);
        let mut words = Words::new(text);
        let mut n = 0usize;
        while words.next_into(token, firsts).is_some() {
            // The query stem the word matches, if any: by its first token
            // (none, or one no stem starts like, leaves nothing to stem).
            if token.bytes().next().is_some_and(|b| firsts[usize::from(b)]) {
                stem_in_place(token);
                let stem = token.as_str();
                if let Ok(q) = stems.binary_search_by(|s| s.as_str().cmp(stem)) {
                    hits.push((n, q));
                }
            }
            n += 1;
        }
        let best_word = hit_window(hits, inside, stems.len(), window, n);
        render(text, best_word, window, n)
    }

    /// [`SnippetQuery::snippet`] of `text`, read from `words`, its word memo
    /// ([`page_words`] of the same text) instead of from its tokens.
    /// `position(i)` is where query stem `i` ([`SnippetQuery::stems`]) sits
    /// among the terms the memo was built against, if it is one of them.
    ///
    /// `None` — read the text instead — when some query stem is not among
    /// those terms and some word is [`OUTSIDE`] them: that word's stem may
    /// be the missing one. Otherwise a missing stem matches no word, every
    /// other stem matches exactly the words at its position, and the
    /// snippet is the text walk's, bit for bit.
    pub fn snippet_from_words(
        &mut self,
        text: &str,
        words: &[u16],
        mut position: impl FnMut(usize) -> Option<usize>,
        window: usize,
    ) -> Option<String> {
        self.positions.clear();
        let mut missing = false;
        for q in 0..self.stems.len() {
            match entry(position(q)) {
                Some(p) => self.positions.push((p, q)),
                None => missing = true,
            }
        }
        if missing && words.contains(&OUTSIDE) {
            return None;
        }
        self.positions.sort_unstable();
        let positions = &self.positions;
        self.hits.clear();
        // Room for every word, so a page costs no reallocation past the
        // longest one read so far.
        self.hits.reserve(words.len());
        for (i, word) in words.iter().enumerate() {
            let at = positions.binary_search_by_key(word, |&(p, _)| p);
            if let Some(&(_, q)) = at.ok().and_then(|at| positions.get(at)) {
                self.hits.push((i, q));
            }
        }
        let best_word = hit_window(
            &self.hits,
            &mut self.inside,
            self.stems.len(),
            window,
            words.len(),
        );
        Some(render(text, best_word, window, words.len()))
    }
}

/// A page's word memo, the source [`SnippetQuery::snippet_from_words`]
/// reads instead of the text: for each display word of `text`, where its
/// first token's stem sits among the page's terms (`position`), [`OUTSIDE`]
/// if it is not one of them (or sits at [`OUTSIDE`] or beyond), and
/// [`NO_TOKEN`] if the word has no kept token. One walk of the text that
/// stems every word: the reference
/// [`Analyzer::index_page`](crate::analyze::Analyzer::index_page) writes the
/// same memo by, inside the walk that counts the page's terms.
pub fn page_words(text: &str, mut position: impl FnMut(&str) -> Option<usize>) -> Box<[u16]> {
    let mut words = Words::new(text);
    let mut token = String::new();
    let mut memo = Vec::new();
    while words.next_into(&mut token, &[true; 256]).is_some() {
        memo.push(if token.is_empty() {
            NO_TOKEN
        } else {
            stem_in_place(&mut token);
            entry(position(&token)).unwrap_or(OUTSIDE)
        });
    }
    memo.into_boxed_slice()
}

/// A position among a page's terms as a word-memo entry, if it is one and
/// lies below the markers.
fn entry(position: Option<usize>) -> Option<u16> {
    position
        .and_then(|p| u16::try_from(p).ok())
        .filter(|&p| p < OUTSIDE)
}

/// The first word of the first best window of `window` words among `n`,
/// from their `hits` alone: each `(word, stem)`, in word order, for a query
/// of `stems` stems; `inside` is scratch for the per-stem counts. Score =
/// (distinct stems covered, total hits), and the first window with the best
/// score wins; word 0 when no window fits or none scores.
///
/// A window starting at word `s > 0` whose last word is not a hit covers
/// no hit the window starting at `s - 1` lacks, so it is never the first
/// best: only the window at word 0 and the windows ending on a hit are
/// scored, in order, with two cursors into `hits`.
fn hit_window(
    hits: &[(usize, usize)],
    inside: &mut Vec<usize>,
    stems: usize,
    window: usize,
    n: usize,
) -> usize {
    let window = window.max(1);
    if n < window {
        return 0;
    }
    inside.clear();
    inside.resize(stems, 0);
    let (mut distinct, mut total) = (0usize, 0usize);
    let mut best_score = (0usize, 0usize);
    let mut best_word = 0usize;
    // `hits[left..right]` are inside the window.
    let (mut left, mut right) = (0usize, 0usize);
    let last_words = hits.iter().map(|&(word, _)| word).filter(|&w| w >= window);
    for last in std::iter::once(window - 1).chain(last_words) {
        while let Some(&(_, q)) = hits.get(right).filter(|&&(word, _)| word <= last) {
            if inside[q] == 0 {
                distinct += 1;
            }
            inside[q] += 1;
            total += 1;
            right += 1;
        }
        let first = last + 1 - window;
        while let Some(&(_, q)) = hits.get(left).filter(|&&(word, _)| word < first) {
            inside[q] -= 1;
            if inside[q] == 0 {
                distinct -= 1;
            }
            total -= 1;
            left += 1;
        }
        if (distinct, total) > best_score {
            best_score = (distinct, total);
            best_word = first;
        }
    }
    best_word
}

/// The snippet of `window` words from word `best_word` of `text`'s `n`,
/// with an ellipsis on clipped ends.
fn render(text: &str, best_word: usize, window: usize, n: usize) -> String {
    let w = window.max(1).min(n);
    let mut out = String::new();
    if best_word > 0 {
        out.push_str("… ");
    }
    let shown = text[word_start(text, best_word)..]
        .split_whitespace()
        .take(w);
    for (i, word) in shown.enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(word);
    }
    if best_word + w < n {
        out.push_str(" …");
    }
    out
}

/// One-shot [`SnippetQuery::snippet`]: analyse `query`, read one `text`.
pub fn snippet(text: &str, query: &str, window: usize) -> String {
    SnippetQuery::new(query).snippet(text, window)
}

#[cfg(test)]
mod tests {
    use super::*;

    const TEXT: &str = "the quick brown fox jumps over the lazy dog while a \
                        compiler optimizes the inner loops of the interpreter \
                        and the band plays baroque music in the garden";

    #[test]
    fn finds_the_relevant_window() {
        let s = snippet(TEXT, "compiler optimization", 8);
        assert!(s.contains("compiler"), "{s}");
        assert!(s.contains("optimizes"), "stem-level match: {s}");
        assert!(!s.contains("baroque"), "window stays tight: {s}");
    }

    #[test]
    fn ellipses_mark_clipping() {
        let s = snippet(TEXT, "baroque music", 6);
        assert!(s.starts_with("… "), "{s}");
        assert!(s.contains("baroque music"));
        let s2 = snippet(TEXT, "quick brown", 6);
        assert!(!s2.starts_with('…'));
        assert!(s2.ends_with(" …"));
    }

    #[test]
    fn no_match_returns_leading_window() {
        let s = snippet(TEXT, "zeppelin", 5);
        assert!(s.starts_with("the quick brown fox jumps"));
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(snippet("", "anything", 10), "");
        assert_eq!(snippet("word", "", 10), "word");
        let s = snippet("one two", "two", 100);
        assert_eq!(s, "one two", "window larger than text");
    }

    #[test]
    fn prefers_windows_covering_more_distinct_terms() {
        let text = "music music music music nothing nothing compiler music interlude";
        let s = snippet(text, "compiler music", 3);
        assert!(s.contains("compiler"), "{s}");
    }

    /// The page's terms as `Analyzer::counts` gives them, sorted: a
    /// position is an index into them.
    fn terms(page: &str) -> Vec<String> {
        let mut terms: Vec<String> = Analyzer.counts(page).into_keys().collect();
        terms.sort_unstable();
        terms
    }

    /// `query`'s snippet of `text` from its word memo against `terms`.
    fn from_words(text: &str, terms: &[String], query: &str, window: usize) -> Option<String> {
        let memo = page_words(text, |stem| {
            terms.binary_search_by(|t| t.as_str().cmp(stem)).ok()
        });
        let mut q = SnippetQuery::new(query);
        let stems = q.stems().to_vec();
        q.snippet_from_words(text, &memo, |i| terms.binary_search(&stems[i]).ok(), window)
    }

    #[test]
    fn the_memo_marks_words_without_a_token_and_stems_outside_the_terms() {
        let text = "The compilers -- optimize x Loops";
        let terms = terms(text);
        let memo = page_words(text, |stem| {
            terms.binary_search_by(|t| t.as_str().cmp(stem)).ok()
        });
        let at = |term: &str| terms.binary_search_by(|t| t.as_str().cmp(term)).ok();
        let at = |term| at(term).and_then(|p| u16::try_from(p).ok());
        assert_eq!(
            memo.iter().map(|&w| Some(w)).collect::<Vec<_>>(),
            [
                Some(OUTSIDE),
                at("compil"),
                Some(NO_TOKEN),
                at("optim"),
                Some(NO_TOKEN),
                at("loop"),
            ]
        );
    }

    /// "page" is a stopword, so not among the page's terms, yet the query
    /// "pages" stems to it: only the text can say which words match.
    #[test]
    fn a_missing_stem_falls_back_only_when_a_word_is_outside_the_terms() {
        let text = "compiler notes on the page about loops";
        assert_eq!(from_words(text, &terms(text), "pages", 3), None);
        assert_eq!(snippet(text, "pages", 3), "… on the page …");
        let plain = "compiler notes loops compiler";
        assert_eq!(
            from_words(plain, &terms(plain), "pages loops", 2).as_deref(),
            Some(snippet(plain, "pages loops", 2).as_str())
        );
    }
}
