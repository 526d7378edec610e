//! The analysis pipeline: raw page text → terms → term counts → interned
//! TF-IDF vectors.
//!
//! A *term* is a kept token ([`Tokens`]) that is not a stopword, Porter
//! stemmed. [`Analyzer::counts`] is the one place that says so: the
//! archive path counts a page's terms with it and
//! [`SnippetQuery`](crate::snippet::SnippetQuery) takes a query's terms
//! from it. It streams — one token buffer, stemmed in place, and a key
//! allocated only the first time a term is seen.

use std::collections::HashMap;

use crate::stem::stem_in_place;
use crate::stopwords::is_stopword;
use crate::tokenize::Tokens;
use crate::vector::SparseVec;
use crate::vocab::{IdfTable, TermId, Vocabulary};

/// Bag-of-words counts for one document, pre-interning.
pub type TermCounts = HashMap<String, u32>;

/// Stateless text→counts analyzer plus helpers to intern counts into a
/// shared [`Vocabulary`].
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

impl Analyzer {
    /// HTML/text → term counts.
    pub fn counts(&self, text: &str) -> TermCounts {
        let mut counts = TermCounts::new();
        let mut tokens = Tokens::new(text);
        let mut term = String::new();
        while tokens.next_into(&mut term) {
            if is_stopword(&term) {
                continue;
            }
            stem_in_place(&mut term);
            match counts.get_mut(term.as_str()) {
                Some(count) => *count += 1,
                None => {
                    counts.insert(term.clone(), 1);
                }
            }
        }
        counts
    }

    /// Intern counts into `vocab` (creating ids as needed) and record the
    /// document for df statistics. Returns raw term-frequency pairs.
    pub fn intern_counts(&self, vocab: &mut Vocabulary, counts: &TermCounts) -> Vec<(TermId, u32)> {
        // Intern in lexicographic term order, not `HashMap` iteration
        // order: id assignment must be a pure function of the documents
        // fed in, so two archives ingesting the same stream (e.g. a
        // benchmark's oracle and the served process it checks) number
        // their vocabularies identically and stay float-for-float
        // comparable.
        let mut items: Vec<(&str, u32)> = counts.iter().map(|(t, &c)| (t.as_str(), c)).collect();
        items.sort_unstable_by_key(|&(t, _)| t);
        let mut pairs: Vec<(TermId, u32)> = items
            .into_iter()
            .map(|(t, c)| (vocab.intern(t), c))
            .collect();
        pairs.sort_unstable_by_key(|&(id, _)| id);
        vocab.observe_doc(pairs.iter().map(|&(id, _)| id));
        pairs
    }

    /// One-shot: text → interned tf pairs (df recorded).
    pub fn index_document(&self, vocab: &mut Vocabulary, text: &str) -> Vec<(TermId, u32)> {
        let counts = self.counts(text);
        self.intern_counts(vocab, &counts)
    }

    /// Convert tf pairs into a TF-IDF vector using `vocab`'s current df
    /// statistics: `(1 + ln tf) * idf(t)`, L2-normalised.
    pub fn tfidf(&self, vocab: &Vocabulary, tf_pairs: &[(TermId, u32)]) -> SparseVec {
        self.tfidf_at(vocab.idf_table(), tf_pairs)
    }

    /// [`Analyzer::tfidf`] against idf statistics frozen earlier (a cloned
    /// [`IdfTable`]): the vector the document had when the table was taken.
    pub fn tfidf_at(&self, idf: &IdfTable, tf_pairs: &[(TermId, u32)]) -> SparseVec {
        let mut v: SparseVec = tf_pairs
            .iter()
            .map(|&(id, tf)| (id, (1.0 + (tf as f32).ln()) * idf.idf(id)))
            .collect();
        v.normalize();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_stems_and_stops() {
        let a = Analyzer;
        let counts = a.counts("The compilers were optimizing the optimization of compilers");
        // "the", "were", "of" are stopwords; compilers/compiler -> compil.
        assert!(counts.keys().all(|k| !is_stopword(k)));
        assert_eq!(counts.get("compil"), Some(&2));
        assert_eq!(counts.get("optim"), Some(&2));
    }

    #[test]
    fn tfidf_vectors_are_unit_and_idf_weighted() {
        let a = Analyzer;
        let mut vocab = Vocabulary::new();
        // "web" appears everywhere, "theremin" once.
        let mut pairs_last = Vec::new();
        for i in 0..20 {
            let text = if i == 0 {
                "web theremin"
            } else {
                "web browser"
            };
            pairs_last = a.index_document(&mut vocab, text);
        }
        let rare_doc = a.index_document(&mut vocab, "web theremin");
        let v = a.tfidf(&vocab, &rare_doc);
        assert!((v.norm() - 1.0).abs() < 1e-5);
        let web = vocab.id("web").unwrap();
        let rare = vocab.id("theremin").unwrap();
        assert!(v.get(rare) > v.get(web), "rare term should dominate");
        let _ = pairs_last;
    }

    #[test]
    fn similar_documents_have_high_cosine() {
        let a = Analyzer;
        let mut vocab = Vocabulary::new();
        let d1 = a.index_document(&mut vocab, "bach fugue organ baroque music");
        let d2 = a.index_document(&mut vocab, "baroque organ music by bach");
        let d3 = a.index_document(&mut vocab, "mountain bike trail riding gear");
        let v1 = a.tfidf(&vocab, &d1);
        let v2 = a.tfidf(&vocab, &d2);
        let v3 = a.tfidf(&vocab, &d3);
        assert!(v1.cosine(&v2) > 0.8);
        assert!(v1.cosine(&v3) < 0.1);
    }
}
