//! Query-biased snippets: pick the window of a page's text that covers the
//! most (distinct, then total) query terms — what the search tab shows
//! under each hit.
//!
//! A request analyses its query once ([`SnippetQuery`]) and then reads each
//! returned page in a single pass: every whitespace-separated display word
//! is read for its first token ([`Words`]) and, if a query stem starts with
//! its first byte, stemmed in place in one reused buffer and looked up
//! among the query's stems, while a ring of the last
//! `window` lookups slides the window. Cost is linear in the page's words
//! with a constant number of allocations, whatever the page's length.

use crate::analyze::Analyzer;
use crate::stem::stem_in_place;
use crate::tokenize::Words;

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
        }
    }

    /// Extract a snippet of at most `window` words from `text` biased
    /// toward the query. Matching is stem-level, so "optimizing" matches a
    /// query for "optimization". Returns the original-case words joined by
    /// spaces, with an ellipsis on clipped ends. Empty text gives an empty
    /// string.
    pub fn snippet(&mut self, text: &str, window: usize) -> String {
        let window = window.max(1);
        // `ring[i % window]` is word `i` while it is inside the window:
        // where it starts and which query stem it matches. A text has at
        // most one word per two bytes, so a window longer than that never
        // wraps and needs no more slots.
        let slots = window.min(text.len() / 2 + 1);
        let mut ring: Vec<(usize, Option<usize>)> = vec![(0, None); slots];
        // Per query stem, its hits inside the window; score = (distinct
        // stems covered, total hits), and the first window with the best
        // score wins.
        let mut inside = vec![0usize; self.stems.len()];
        let (mut distinct, mut total) = (0usize, 0usize);
        let mut best_score = (0usize, 0usize);
        // The best window's first word: its index and its byte offset.
        let (mut best_word, mut best_offset) = (0usize, 0usize);
        let mut n = 0usize;
        let mut words = Words::new(text);
        while let Some((start, _)) = words.next_into(&mut self.token, &self.firsts) {
            let slot = n % ring.len();
            if n >= window {
                if let (_, Some(q)) = ring[slot] {
                    inside[q] -= 1;
                    if inside[q] == 0 {
                        distinct -= 1;
                    }
                    total -= 1;
                }
            }
            // The query stem the word matches, if any: by its first token
            // (none, or one no stem starts like, leaves nothing to stem).
            let hit = match self.token.bytes().next() {
                Some(first) if self.firsts[usize::from(first)] => {
                    stem_in_place(&mut self.token);
                    let stem = self.token.as_str();
                    self.stems.binary_search_by(|s| s.as_str().cmp(stem)).ok()
                }
                _ => None,
            };
            ring[slot] = (start, hit);
            if let Some(q) = hit {
                if inside[q] == 0 {
                    distinct += 1;
                }
                inside[q] += 1;
                total += 1;
            }
            n += 1;
            if n >= window && (distinct, total) > best_score {
                best_score = (distinct, total);
                // The oldest word in the ring opens this window.
                (best_word, best_offset) = (n - window, ring[n % ring.len()].0);
            }
        }
        let w = window.min(n);
        let mut out = String::new();
        if best_word > 0 {
            out.push_str("… ");
        }
        let shown = text[best_offset..].split_whitespace().take(w);
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
}

/// One-shot [`SnippetQuery::snippet`]: analyse `query`, read one `text`.
pub fn snippet(text: &str, query: &str, window: usize) -> String {
    SnippetQuery::new(query).snippet(text, window)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stem::stem;
    use crate::stopwords::is_stopword;
    use crate::tokenize::tokenize;
    use proptest::prelude::*;

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

    /// `snippet` as it was before it slid its window: every window position
    /// rescanned, its distinct stems collected into a fresh set. Kept as the
    /// reference the sliding version is held to.
    fn snippet_by_rescan(text: &str, query: &str, window: usize) -> String {
        use std::collections::HashSet;
        let window = window.max(1);
        let display: Vec<&str> = text.split_whitespace().collect();
        if display.is_empty() {
            return String::new();
        }
        let query_stems: HashSet<String> = tokenize(query)
            .into_iter()
            .filter(|w| !is_stopword(w))
            .map(|w| stem(&w))
            .collect();
        let stems: Vec<Option<String>> = display
            .iter()
            .map(|w| tokenize(w).first().map(|t| stem(t)))
            .collect();
        let is_hit: Vec<bool> = stems
            .iter()
            .map(|s| s.as_ref().is_some_and(|s| query_stems.contains(s)))
            .collect();
        let mut best_start = 0usize;
        let mut best_score = (0usize, 0usize);
        let n = display.len();
        let w = window.min(n);
        for start in 0..=(n - w) {
            let mut distinct = HashSet::new();
            let mut total = 0usize;
            for i in start..start + w {
                if is_hit[i] {
                    total += 1;
                    if let Some(s) = &stems[i] {
                        distinct.insert(s.clone());
                    }
                }
            }
            let score = (distinct.len(), total);
            if score > best_score {
                best_score = score;
                best_start = start;
            }
        }
        let mut out = String::new();
        if best_start > 0 {
            out.push_str("… ");
        }
        out.push_str(&display[best_start..best_start + w].join(" "));
        if best_start + w < n {
            out.push_str(" …");
        }
        out
    }

    /// Words that collide at stem level, stopwords, punctuation, a token
    /// `tokenize` splits in two and one it drops, and every kind of
    /// whitespace `split_whitespace` breaks a word at.
    const WORDS: [&str; 22] = [
        "compiler",
        "Compilers",
        "optimizes",
        "optimization,",
        "music",
        "musical",
        "baroque",
        "the",
        "of",
        "loop",
        "loops.",
        "inner-loop",
        "garden",
        "x",
        "--",
        "<b>bold</b>",
        "Über-garden",
        "music\u{a0}garden",
        "loop\u{3000}\u{2003}compiler",
        "baroque\tmusic\nloops\r\n",
        "\u{b}garden\u{c}",
        "\u{85}",
    ];

    fn words(max: usize) -> impl Strategy<Value = String> {
        proptest::collection::vec(0..WORDS.len(), 0..max).prop_map(|picks| {
            picks
                .iter()
                .map(|&i| WORDS[i])
                .collect::<Vec<_>>()
                .join(" ")
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Empty texts, empty queries and windows past the end included.
        #[test]
        fn sliding_window_equals_the_rescan(
            text in words(40),
            query in words(5),
            window in 0usize..50,
        ) {
            prop_assert_eq!(
                snippet(&text, &query, window),
                snippet_by_rescan(&text, &query, window),
                "text {:?} query {:?} window {}", text, query, window
            );
        }
    }
}
