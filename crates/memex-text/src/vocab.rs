//! Vocabulary interning: string terms become dense `u32` ids, numbered in
//! the order they are first interned, and the vocabulary tracks document
//! frequencies so TF-IDF weights and feature selection can be computed
//! without re-touching text.

use std::collections::HashMap;

/// Dense term identifier.
pub type TermId = u32;

/// Everything [`Vocabulary::idf`] reads, and nothing else: a clone is the
/// vocabulary's idf weighting frozen at that instant (one `Vec<u32>` copy),
/// so vectors can be weighted later exactly as they would have been then
/// ([`crate::analyze::Analyzer::tfidf_at`]) while the live vocabulary keeps
/// observing documents.
#[derive(Debug, Default, Clone)]
pub struct IdfTable {
    /// Documents containing the term at least once.
    doc_freq: Vec<u32>,
    /// Total documents observed through [`Vocabulary::observe_doc`].
    num_docs: u64,
}

impl IdfTable {
    /// Document frequency of a term.
    pub fn df(&self, id: TermId) -> u32 {
        self.doc_freq.get(id as usize).copied().unwrap_or(0)
    }

    /// Documents observed so far.
    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Smoothed inverse document frequency `ln((N + 1) / (df + 1)) + 1`.
    /// Always positive, defined even for unseen terms.
    pub fn idf(&self, id: TermId) -> f32 {
        let n = self.num_docs as f32;
        let df = self.df(id) as f32;
        ((n + 1.0) / (df + 1.0)).ln() + 1.0
    }
}

/// Interning vocabulary with document-frequency accounting.
#[derive(Debug, Default, Clone)]
pub struct Vocabulary {
    term_to_id: HashMap<String, TermId>,
    id_to_term: Vec<String>,
    idf: IdfTable,
}

impl Vocabulary {
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Intern `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        if let Some(&id) = self.term_to_id.get(term) {
            return id;
        }
        let id = self.id_to_term.len() as TermId;
        self.term_to_id.insert(term.to_string(), id);
        self.id_to_term.push(term.to_string());
        self.idf.doc_freq.push(0);
        id
    }

    /// Id of `term` if already interned: the one probe
    /// [`Analyzer::index_document`](crate::analyze::Analyzer::index_document)
    /// makes per term of a page, which interns only the page's new terms.
    pub fn id(&self, term: &str) -> Option<TermId> {
        self.term_to_id.get(term).copied()
    }

    /// Term string for `id`.
    pub fn term(&self, id: TermId) -> Option<&str> {
        self.id_to_term.get(id as usize).map(String::as_str)
    }

    /// Number of distinct terms.
    pub fn len(&self) -> usize {
        self.id_to_term.len()
    }

    pub fn is_empty(&self) -> bool {
        self.id_to_term.is_empty()
    }

    /// Record one document's distinct term set for df statistics.
    pub fn observe_doc(&mut self, distinct_terms: impl IntoIterator<Item = TermId>) {
        self.idf.num_docs += 1;
        for id in distinct_terms {
            if let Some(df) = self.idf.doc_freq.get_mut(id as usize) {
                *df += 1;
            }
        }
    }

    /// Document frequency of a term.
    pub fn df(&self, id: TermId) -> u32 {
        self.idf.df(id)
    }

    /// Documents observed so far.
    pub fn num_docs(&self) -> u64 {
        self.idf.num_docs()
    }

    /// Smoothed inverse document frequency, see [`IdfTable::idf`].
    pub fn idf(&self, id: TermId) -> f32 {
        self.idf.idf(id)
    }

    /// The live idf inputs; clone to freeze them.
    pub fn idf_table(&self) -> &IdfTable {
        &self.idf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut v = Vocabulary::new();
        let a = v.intern("music");
        let b = v.intern("music");
        assert_eq!(a, b);
        assert_eq!(v.len(), 1);
        let c = v.intern("cycling");
        assert_ne!(a, c);
        assert_eq!(v.term(a), Some("music"));
        assert_eq!(v.id("cycling"), Some(c));
        assert_eq!(v.id("absent"), None);
    }

    #[test]
    fn df_counts_documents_not_occurrences() {
        let mut v = Vocabulary::new();
        let m = v.intern("music");
        let c = v.intern("cycling");
        v.observe_doc([m]);
        v.observe_doc([m, c]);
        assert_eq!(v.df(m), 2);
        assert_eq!(v.df(c), 1);
        assert_eq!(v.num_docs(), 2);
    }

    #[test]
    fn idf_orders_rare_above_common() {
        let mut v = Vocabulary::new();
        let common = v.intern("web");
        let rare = v.intern("theremin");
        for i in 0..100 {
            if i == 0 {
                v.observe_doc([common, rare]);
            } else {
                v.observe_doc([common]);
            }
        }
        assert!(v.idf(rare) > v.idf(common));
        assert!(v.idf(common) > 0.0);
    }

    #[test]
    fn a_cloned_idf_table_stays_where_it_was_frozen() {
        let mut v = Vocabulary::new();
        let web = v.intern("web");
        v.observe_doc([web]);
        let frozen = v.idf_table().clone();
        let before = v.idf(web);
        let late = v.intern("late");
        v.observe_doc([late]);
        v.observe_doc([late]);
        assert_ne!(v.idf(web).to_bits(), before.to_bits(), "live idf moved");
        assert_eq!(frozen.idf(web).to_bits(), before.to_bits());
        assert_eq!(frozen.num_docs(), 1);
        // A term interned after the freeze is unseen there, as it was then.
        assert_eq!(frozen.df(late), 0);
    }
}
