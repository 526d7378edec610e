//! The search-box query language of the era: loose terms are ranked
//! (BM25), `+term` must appear, `-term` must not, and `"quoted words"`
//! must appear as an exact phrase.
//!
//! ```text
//! classical +bach -jazz "organ fugue"
//! ```
//!
//! Parsing works on raw text; term resolution happens against a
//! [`Vocabulary`] through the same analyzer the corpus was indexed with,
//! so stemming and stopwords behave identically on both sides.

use memex_store::error::StoreResult;
use memex_text::analyze::Analyzer;
use memex_text::vocab::{TermId, Vocabulary};

use crate::index::InvertedIndex;
use crate::postings::{difference, intersect};
use crate::search::{bm25_search, phrase_search, Bm25Params, SearchHit};

/// A parsed query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Query {
    /// Terms contributing to the BM25 score (includes `+` terms).
    pub ranked: Vec<String>,
    /// Terms that must be present (`+term`).
    pub must: Vec<String>,
    /// Terms that must be absent (`-term`).
    pub must_not: Vec<String>,
    /// Exact phrases (`"..."`), each a list of words.
    pub phrases: Vec<Vec<String>>,
}

impl Query {
    /// Parse the raw query text. Unterminated quotes swallow the rest of
    /// the line (browser search boxes did the same).
    pub fn parse(input: &str) -> Query {
        let mut q = Query::default();
        let mut rest = input.trim();
        while !rest.is_empty() {
            rest = rest.trim_start();
            if rest.is_empty() {
                break;
            }
            if let Some(after) = rest.strip_prefix('"') {
                let (phrase, tail) = after.split_once('"').unwrap_or((after, ""));
                let words: Vec<String> = phrase.split_whitespace().map(str::to_string).collect();
                if !words.is_empty() {
                    q.phrases.push(words);
                }
                rest = tail;
                continue;
            }
            let (token, tail) = rest.split_once(char::is_whitespace).unwrap_or((rest, ""));
            rest = tail;
            if let Some(t) = token.strip_prefix('+') {
                if !t.is_empty() {
                    q.must.push(t.to_string());
                    q.ranked.push(t.to_string());
                }
            } else if let Some(t) = token.strip_prefix('-') {
                if !t.is_empty() {
                    q.must_not.push(t.to_string());
                }
            } else {
                q.ranked.push(token.to_string());
            }
        }
        q
    }

    /// True when the query has no usable content.
    pub fn is_empty(&self) -> bool {
        self.ranked.is_empty() && self.must.is_empty() && self.phrases.is_empty()
    }
}

/// Execute a parsed query: BM25 over the ranked terms, filtered by the
/// `+`/`-`/phrase constraints. Phrase-only queries rank by phrase presence
/// (score 1.0). Terms unknown to the vocabulary make `+`/phrase
/// constraints unsatisfiable (correct: the corpus cannot contain them).
pub fn execute(
    index: &InvertedIndex,
    vocab: &Vocabulary,
    analyzer: &Analyzer,
    query: &Query,
    k: usize,
) -> StoreResult<Vec<SearchHit>> {
    // Resolve text -> term ids through the analyzer (stem + stop).
    let resolve = |word: &str| -> Vec<TermId> {
        analyzer
            .term_sequence(word)
            .iter()
            .filter_map(|t| vocab.id(t))
            .collect()
    };
    // Hard filters.
    let mut allowed: Option<Vec<u32>> = None;
    let constrain = |docs: Vec<u32>, allowed: &mut Option<Vec<u32>>| {
        *allowed = Some(match allowed.take() {
            None => docs,
            Some(prev) => intersect(&prev, &docs),
        });
    };
    for phrase in &query.phrases {
        let mut ids = Vec::new();
        for w in phrase {
            ids.extend(resolve(w));
        }
        // A phrase whose words all analysed away (stopwords) is vacuous.
        if ids.is_empty() {
            continue;
        }
        constrain(phrase_search(index, &ids)?, &mut allowed);
    }
    for term in &query.must {
        let ids = resolve(term);
        if ids.is_empty() {
            constrain(Vec::new(), &mut allowed); // unknown term: nothing matches
            continue;
        }
        let mut docs: Option<Vec<u32>> = None;
        for id in ids {
            let d = index.postings(id)?.docs();
            docs = Some(match docs.take() {
                None => d,
                Some(prev) => intersect(&prev, &d),
            });
        }
        constrain(docs.unwrap_or_default(), &mut allowed);
    }
    let mut excluded: Vec<u32> = Vec::new();
    for term in &query.must_not {
        for id in resolve(term) {
            excluded = crate::postings::union(&excluded, &index.postings(id)?.docs());
        }
    }
    // Ranked retrieval.
    let ranked_ids: Vec<(TermId, u32)> = query
        .ranked
        .iter()
        .flat_map(|w| resolve(w))
        .map(|id| (id, 1))
        .collect();
    let mut hits: Vec<SearchHit> = if ranked_ids.is_empty() {
        // Phrase/+-only query: every allowed doc scores 1.0.
        allowed
            .clone()
            .unwrap_or_default()
            .into_iter()
            .map(|doc| SearchHit { doc, score: 1.0 })
            .collect()
    } else {
        let pool = k.saturating_mul(20).saturating_add(50);
        bm25_search(index, &ranked_ids, pool, Bm25Params::default())?
    };
    if let Some(allowed) = &allowed {
        hits.retain(|h| allowed.binary_search(&h.doc).is_ok());
    }
    if !excluded.is_empty() {
        let keep: Vec<u32> = {
            let docs: Vec<u32> = hits.iter().map(|h| h.doc).collect();
            let mut sorted = docs.clone();
            sorted.sort_unstable();
            difference(&sorted, &excluded)
        };
        hits.retain(|h| keep.binary_search(&h.doc).is_ok());
    }
    hits.truncate(k);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_splits_operators() {
        let q = Query::parse(r#"classical +bach -jazz "organ fugue" music"#);
        assert_eq!(q.ranked, vec!["classical", "bach", "music"]);
        assert_eq!(q.must, vec!["bach"]);
        assert_eq!(q.must_not, vec!["jazz"]);
        assert_eq!(
            q.phrases,
            vec![vec!["organ".to_string(), "fugue".to_string()]]
        );
    }

    #[test]
    fn parser_edge_cases() {
        assert!(Query::parse("").is_empty());
        assert!(Query::parse("   ").is_empty());
        let q = Query::parse(r#""unterminated phrase"#);
        assert_eq!(
            q.phrases,
            vec![vec!["unterminated".to_string(), "phrase".to_string()]]
        );
        let q = Query::parse("+ - \"\"");
        assert!(q.is_empty(), "bare operators are ignored: {q:?}");
        let q = Query::parse("-only -negative");
        assert!(q.ranked.is_empty());
        assert_eq!(q.must_not.len(), 2);
    }

    /// Index four tiny docs through the real analyzer and vocabulary.
    fn setup() -> (InvertedIndex, Vocabulary, Analyzer) {
        let analyzer = Analyzer::default();
        let mut vocab = Vocabulary::new();
        let mut index = InvertedIndex::open_memory().unwrap();
        let docs = [
            (1u32, "bach organ fugue in classical style"),
            (2u32, "bach jazz crossover recordings"),
            (3u32, "organ fugue without the master"),
            (4u32, "classical guitar music"),
        ];
        for (id, text) in docs {
            analyzer.index_document(&mut vocab, text);
            let seq = analyzer.intern_sequence(&mut vocab, text);
            index.add_document_positional(id, &seq).unwrap();
        }
        (index, vocab, analyzer)
    }

    #[test]
    fn must_and_not_filters() {
        let (index, vocab, analyzer) = setup();
        let q = Query::parse("+bach -jazz");
        let hits = execute(&index, &vocab, &analyzer, &q, 10).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].doc, 1);
    }

    #[test]
    fn phrase_constraint_applies() {
        let (index, vocab, analyzer) = setup();
        let q = Query::parse(r#""organ fugue""#);
        let docs: Vec<u32> = execute(&index, &vocab, &analyzer, &q, 10)
            .unwrap()
            .iter()
            .map(|h| h.doc)
            .collect();
        assert_eq!(docs, vec![1, 3]);
        // Phrase + exclusion.
        let q = Query::parse(r#""organ fugue" -classical"#);
        let docs: Vec<u32> = execute(&index, &vocab, &analyzer, &q, 10)
            .unwrap()
            .iter()
            .map(|h| h.doc)
            .collect();
        assert_eq!(docs, vec![3]);
    }

    #[test]
    fn ranked_terms_still_rank() {
        let (index, vocab, analyzer) = setup();
        let q = Query::parse("classical bach");
        let hits = execute(&index, &vocab, &analyzer, &q, 10).unwrap();
        assert_eq!(hits[0].doc, 1, "doc with both terms first");
        assert!(hits.len() >= 3);
    }

    #[test]
    fn unknown_must_term_matches_nothing() {
        let (index, vocab, analyzer) = setup();
        let q = Query::parse("+zeppelin bach");
        assert!(execute(&index, &vocab, &analyzer, &q, 10)
            .unwrap()
            .is_empty());
        // But an unknown *ranked* term degrades gracefully.
        let q = Query::parse("zeppelin bach");
        assert!(!execute(&index, &vocab, &analyzer, &q, 10)
            .unwrap()
            .is_empty());
    }
}
