//! The analysis pipeline: raw page text → terms → term counts → interned
//! TF-IDF vectors.
//!
//! A *term* is a kept token ([`Tokens`]) that is not a stopword, Porter
//! stemmed. One private walk is the one place that says so:
//! [`Analyzer::index_document`] (the archive path) and [`Analyzer::counts`]
//! (which [`SnippetQuery`](crate::snippet::SnippetQuery) takes a query's
//! terms from) both read terms through it. It streams — one token buffer,
//! stemmed in place.

use std::collections::HashMap;

use crate::stem::stem_in_place;
use crate::stopwords::is_stopword;
use crate::tokenize::{Tokens, MIN_TOKEN_LEN};
use crate::vector::SparseVec;
use crate::vocab::{IdfTable, TermId, Vocabulary};

/// Bag-of-words counts for one document, pre-interning.
pub type TermCounts = HashMap<String, u32>;

/// Stateless text→terms analyzer: counts, interned tf pairs and TF-IDF
/// vectors over a shared [`Vocabulary`].
#[derive(Debug, Clone, Default)]
pub struct Analyzer;

/// Every term of `text`, in order: tokenised, stopwords skipped, stemmed in
/// place in the one buffer `each` borrows.
fn for_each_term(text: &str, mut each: impl FnMut(&str)) {
    let mut tokens = Tokens::new(text);
    let mut term = String::new();
    while tokens.next_into(&mut term) {
        if is_stopword(&term) {
            continue;
        }
        stem_in_place(&mut term);
        each(&term);
    }
}

impl Analyzer {
    /// HTML/text → term counts: a key allocated only the first time a term
    /// is seen.
    pub fn counts(&self, text: &str) -> TermCounts {
        let mut counts = TermCounts::new();
        for_each_term(text, |term| match counts.get_mut(term) {
            Some(count) => *count += 1,
            None => {
                counts.insert(term.to_owned(), 1);
            }
        });
        counts
    }

    /// Text → interned term-frequency pairs, sorted by id, exactly sized;
    /// the document is recorded for df statistics. One vocabulary probe
    /// per term: a term `vocab` knows costs an `(id, 1)` push, and only a
    /// term it has never seen is copied.
    pub fn index_document(&self, vocab: &mut Vocabulary, text: &str) -> Vec<(TermId, u32)> {
        // A term is at least `MIN_TOKEN_LEN` bytes of text and a separator
        // ends it, so the walk never pushes past this.
        let mut pairs: Vec<(TermId, u32)> =
            Vec::with_capacity(text.len() / (MIN_TOKEN_LEN + 1) + 1);
        // Every occurrence of a term `vocab` has never seen, each followed
        // by a space (no term contains one).
        let mut fresh = String::new();
        for_each_term(text, |term| match vocab.id(term) {
            Some(id) => pairs.push((id, 1)),
            None => {
                fresh.push_str(term);
                fresh.push(' ');
            }
        });
        let mut terms: Vec<&str> = fresh.split_terminator(' ').collect();
        // Intern new terms in lexicographic order, not the order the
        // page says them: id assignment must be a pure function of the
        // documents fed in, so two archives ingesting the same stream
        // (e.g. a benchmark's oracle and the served process it checks)
        // number their vocabularies identically and stay
        // float-for-float comparable.
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            if let [term, ..] = run {
                let count = u32::try_from(run.len()).unwrap_or(u32::MAX);
                pairs.push((vocab.intern(term), count));
            }
        }
        pairs.sort_unstable_by_key(|&(id, _)| id);
        pairs.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 = kept.1.saturating_add(next.1);
            }
            same
        });
        vocab.observe_doc(pairs.iter().map(|&(id, _)| id));
        // The pairs outlive the page's analysis (a server keeps them): a
        // copy exactly their size, while the walk's one slot per token
        // goes back whole for the next page's walk to reuse.
        pairs.to_vec()
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
