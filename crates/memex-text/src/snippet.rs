//! Query-biased snippets: pick the window of a page's text that covers the
//! most (distinct, then total) query terms — what the search tab shows
//! under each hit.

use std::collections::HashMap;

use crate::stem::stem;
use crate::stopwords::is_stopword;
use crate::tokenize::tokenize;

/// Extract a snippet of at most `window` words from `text` biased toward
/// `query`. Matching is stem-level, so "optimizing" matches a query for
/// "optimization". Returns the original-case words joined by spaces, with
/// an ellipsis on clipped ends. Empty text gives an empty string.
pub fn snippet(text: &str, query: &str, window: usize) -> String {
    let window = window.max(1);
    // Original words, for display.
    let display: Vec<&str> = text.split_whitespace().collect();
    if display.is_empty() {
        return String::new();
    }
    // Distinct query stems, numbered in order of appearance.
    let mut query_stems: HashMap<String, usize> = HashMap::new();
    for word in tokenize(query).into_iter().filter(|w| !is_stopword(w)) {
        let next = query_stems.len();
        query_stems.entry(stem(&word)).or_insert(next);
    }
    // Per word of the text: the query stem it matches, if any.
    let hit: Vec<Option<usize>> = display
        .iter()
        .map(|w| {
            let toks = tokenize(w);
            toks.first()
                .and_then(|t| query_stems.get(&stem(t)).copied())
        })
        .collect();
    // Slide the window once, keeping a count per query stem of the hits
    // inside it; score = (distinct stems covered, total hits), and the
    // first window with the best score wins.
    let mut best_start = 0usize;
    let mut best_score = (0usize, 0usize);
    let n = display.len();
    let w = window.min(n);
    let mut inside = vec![0usize; query_stems.len()];
    let (mut distinct, mut total) = (0usize, 0usize);
    for end in 0..n {
        if let Some(q) = hit[end] {
            if inside[q] == 0 {
                distinct += 1;
            }
            inside[q] += 1;
            total += 1;
        }
        if let Some(q) = end.checked_sub(w).and_then(|left| hit[left]) {
            inside[q] -= 1;
            if inside[q] == 0 {
                distinct -= 1;
            }
            total -= 1;
        }
        if end + 1 >= w && (distinct, total) > best_score {
            best_score = (distinct, total);
            best_start = end + 1 - w;
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

#[cfg(test)]
mod tests {
    use super::*;
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
    /// `tokenize` splits in two and one it drops.
    const WORDS: [&str; 16] = [
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
