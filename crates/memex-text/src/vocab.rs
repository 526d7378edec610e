//! Vocabulary interning: string terms become dense `u32` ids, numbered in
//! the order they are first interned, and the vocabulary tracks document
//! frequencies so TF-IDF weights and feature selection can be computed
//! without re-touching text.
//!
//! Its one string-keyed map, the lexicon, also remembers what each raw
//! token the analysis has read turned out to be — a stopword or a term —
//! so a page's walk makes one probe per token and stops and stems a token
//! only the first time it meets it. A token that is its own stem (most of
//! them) shares its entry with the term.

use std::collections::HashMap;
use std::mem::size_of;

/// Dense term identifier.
pub type TermId = u32;

/// What a raw lower-cased token is to the analysis: a stopword, by its
/// index in [`STOPWORDS`](crate::stopwords::STOPWORDS), or — stemmed — a
/// term.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Form {
    Stop(u32),
    Term(TermId),
}

/// A lexicon entry: its string as a raw token and as a stem, each packed
/// in a `u32`, so a map slot is the size it was when it held an id alone.
#[derive(Debug, Clone, Copy)]
struct Lexeme {
    /// [`NONE`], `STOP | index` for a stopword, or a term id below
    /// [`STOP`].
    form: u32,
    /// The term id of the string as a stem, or [`NONE`].
    stem: u32,
}

const NONE: u32 = u32::MAX;
/// The bit that marks a stopword's form; a term id at or past it (two
/// billion terms) is never remembered as a form, only re-derived.
const STOP: u32 = 1 << 31;

/// Heap bytes of a `HashMap` table that holds `capacity` entries of `slot`
/// bytes: a power of two of buckets, seven in eight of them usable from
/// eight up, and a control byte per bucket plus one group's worth.
fn table_bytes(capacity: usize, slot: usize) -> usize {
    if capacity == 0 {
        return 0;
    }
    let buckets = if capacity < 8 {
        (capacity + 1).next_power_of_two()
    } else {
        (capacity * 8 / 7).next_power_of_two()
    };
    buckets * (slot + 1) + 16
}

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
    /// Every string met as a raw token or interned as a term. Keyed by
    /// std's keyed hasher: the keys come from fetched pages.
    lexicon: HashMap<String, Lexeme>,
    id_to_term: Vec<String>,
    /// Bytes of the lexicon's keys and of `id_to_term`'s strings.
    text_bytes: usize,
    idf: IdfTable,
}

impl Vocabulary {
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Intern `term`, returning its id (existing or fresh).
    pub fn intern(&mut self, term: &str) -> TermId {
        let id = self.id_to_term.len() as TermId;
        match self.lexicon.get_mut(term) {
            Some(lexeme) if lexeme.stem != NONE => return lexeme.stem,
            Some(lexeme) => lexeme.stem = id,
            None => {
                self.lexicon.insert(
                    term.to_owned(),
                    Lexeme {
                        form: NONE,
                        stem: id,
                    },
                );
                self.text_bytes += term.len();
            }
        }
        self.id_to_term.push(term.to_owned());
        self.text_bytes += term.len();
        self.idf.doc_freq.push(0);
        id
    }

    /// Id of `term` if already interned.
    pub fn id(&self, term: &str) -> Option<TermId> {
        let stem = self.lexicon.get(term)?.stem;
        (stem != NONE).then_some(stem)
    }

    /// What the raw lower-cased `token` was found to be, if the analysis
    /// has met it: the one probe a page's walk makes per token.
    pub(crate) fn form(&self, token: &str) -> Option<Form> {
        match self.lexicon.get(token)?.form {
            NONE => None,
            form if form & STOP != 0 => Some(Form::Stop(form & !STOP)),
            id => Some(Form::Term(id)),
        }
    }

    /// Remember what `token` is, so the next walk to meet it neither stops
    /// nor stems it.
    pub(crate) fn learn(&mut self, token: &str, form: Form) {
        let packed = match form {
            Form::Stop(index) if index < STOP => STOP | index,
            Form::Term(id) if id < STOP => id,
            _ => return,
        };
        match self.lexicon.get_mut(token) {
            Some(lexeme) => lexeme.form = packed,
            None => {
                let lexeme = Lexeme {
                    form: packed,
                    stem: NONE,
                };
                self.lexicon.insert(token.to_owned(), lexeme);
                self.text_bytes += token.len();
            }
        }
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

    /// Heap bytes the vocabulary holds: the lexicon's table and keys, the
    /// id → term strings and the document frequencies. Kept as it grows,
    /// so reading it costs nothing.
    pub fn heap_bytes(&self) -> usize {
        table_bytes(self.lexicon.capacity(), size_of::<(String, Lexeme)>())
            + self.id_to_term.capacity() * size_of::<String>()
            + self.text_bytes
            + self.idf.doc_freq.capacity() * size_of::<u32>()
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

    /// A form and a stem are two readings of one entry: learning a form
    /// interns nothing, and a form that is its own stem adds no entry.
    #[test]
    fn forms_and_stems_share_the_lexicon() {
        let mut v = Vocabulary::new();
        let page = v.intern("page");
        let before = v.lexicon.len();
        v.learn("page", Form::Stop(7));
        v.learn("pages", Form::Term(page));
        v.learn("the", Form::Stop(3));
        assert_eq!(v.lexicon.len(), before + 2, "\"page\" shares its entry");
        assert_eq!(
            (v.len(), v.id("page"), v.id("pages")),
            (1, Some(page), None)
        );
        assert_eq!(v.form("page"), Some(Form::Stop(7)));
        assert_eq!(v.form("pages"), Some(Form::Term(page)));
        assert_eq!(v.form("the"), Some(Form::Stop(3)));
        assert_eq!(v.form("music"), None);
        // Interning a string first met as a form gives it an id.
        let the = v.intern("the");
        assert_eq!(
            (v.id("the"), v.form("the")),
            (Some(the), Some(Form::Stop(3)))
        );
        // An id the packing cannot hold is not remembered.
        v.learn("huge", Form::Term(STOP));
        assert_eq!(v.form("huge"), None);
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
