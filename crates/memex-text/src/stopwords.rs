//! English stopword list — the classic van Rijsbergen-style function-word
//! set trimmed to terms that actually occur in web text. Stopword removal
//! happens *before* stemming in the [`Analyzer`](crate::analyze::Analyzer)
//! pipeline.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::stem::stem;

/// The raw list (lower-case, unstemmed).
pub const STOPWORDS: &[&str] = &[
    "about",
    "above",
    "after",
    "again",
    "against",
    "all",
    "also",
    "am",
    "an",
    "and",
    "any",
    "are",
    "as",
    "at",
    "be",
    "because",
    "been",
    "before",
    "being",
    "below",
    "between",
    "both",
    "but",
    "by",
    "can",
    "cannot",
    "could",
    "did",
    "do",
    "does",
    "doing",
    "down",
    "during",
    "each",
    "few",
    "for",
    "from",
    "further",
    "had",
    "has",
    "have",
    "having",
    "he",
    "her",
    "here",
    "hers",
    "herself",
    "him",
    "himself",
    "his",
    "how",
    "if",
    "in",
    "into",
    "is",
    "it",
    "its",
    "itself",
    "just",
    "me",
    "more",
    "most",
    "my",
    "myself",
    "no",
    "nor",
    "not",
    "now",
    "of",
    "off",
    "on",
    "once",
    "only",
    "or",
    "other",
    "our",
    "ours",
    "ourselves",
    "out",
    "over",
    "own",
    "same",
    "she",
    "should",
    "so",
    "some",
    "such",
    "than",
    "that",
    "the",
    "their",
    "theirs",
    "them",
    "themselves",
    "then",
    "there",
    "these",
    "they",
    "this",
    "those",
    "through",
    "to",
    "too",
    "under",
    "until",
    "up",
    "very",
    "was",
    "we",
    "were",
    "what",
    "when",
    "where",
    "which",
    "while",
    "who",
    "whom",
    "why",
    "will",
    "with",
    "would",
    "you",
    "your",
    "yours",
    "yourself",
    "yourselves",
    // Web chrome that behaves like a stopword in browsing corpora.
    "http",
    "https",
    "www",
    "com",
    "html",
    "htm",
    "home",
    "page",
    "click",
    "link",
    "site",
];

fn set() -> &'static HashMap<&'static str, u32> {
    static SET: OnceLock<HashMap<&'static str, u32>> = OnceLock::new();
    SET.get_or_init(|| STOPWORDS.iter().copied().zip(0..).collect())
}

/// Is `word` (already lower-cased) a stopword?
pub fn is_stopword(word: &str) -> bool {
    set().contains_key(word)
}

/// The index of `word` (already lower-cased) in [`STOPWORDS`], if it is one.
pub(crate) fn stopword(word: &str) -> Option<u32> {
    set().get(word).copied()
}

/// The Porter stem of the stopword at `index` in [`STOPWORDS`]: a page's
/// word memo places a stopword by its stem, which a term of the page may
/// share. Stemmed once per process, on first use.
pub(crate) fn stopword_stem(index: u32) -> Option<&'static str> {
    static STEMS: OnceLock<Vec<String>> = OnceLock::new();
    let stems = STEMS.get_or_init(|| STOPWORDS.iter().map(|w| stem(w)).collect());
    stems.get(index as usize).map(String::as_str)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn function_words_are_stopwords() {
        for w in ["the", "and", "was", "with", "http", "www"] {
            assert!(is_stopword(w), "{w} should be a stopword");
        }
    }

    #[test]
    fn content_words_are_not() {
        for w in ["music", "compiler", "cycling", "bach", "crawler"] {
            assert!(!is_stopword(w), "{w} must survive");
        }
    }

    #[test]
    fn a_stopword_is_found_by_index_and_stems_as_stem_does() {
        for w in ["the", "page", "being", "does"] {
            let index = stopword(w).expect("a stopword");
            assert_eq!(STOPWORDS[index as usize], w);
            assert_eq!(stopword_stem(index), Some(stem(w).as_str()));
        }
        assert_eq!(stopword("music"), None);
        assert_eq!(stopword_stem(STOPWORDS.len() as u32), None);
    }

    #[test]
    fn list_is_all_lowercase_and_unique() {
        let mut seen = std::collections::HashSet::new();
        for w in STOPWORDS {
            assert_eq!(*w, w.to_lowercase());
            assert!(seen.insert(*w), "duplicate stopword {w}");
        }
    }
}
