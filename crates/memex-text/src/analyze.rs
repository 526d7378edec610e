//! The analysis pipeline: raw page text → terms → term counts → interned
//! TF-IDF vectors.
//!
//! A *term* is a kept token ([`Tokens`]) that is not a stopword, Porter
//! stemmed. One private walk is the one place that says so:
//! [`Analyzer::counts`] (which [`SnippetQuery`](crate::snippet::SnippetQuery)
//! takes a query's terms from) reads terms through it. It streams — one
//! token buffer, stemmed in place. The archive path has one more:
//! [`Analyzer::index_page`] (the fetch demon's) and
//! [`Analyzer::index_document`] share one walk that counts the terms as it
//! reads them word by word, and that writes the page's word memo
//! ([`snippet::PageMemo`]) as it goes when asked to.

use std::collections::HashMap;

use crate::snippet::{self, Entry, PageMemo, MAX_TEXT_LEN};
use crate::stem::stem_in_place;
use crate::stopwords::{is_stopword, stopword, stopword_stem};
use crate::tokenize::{Tokens, Words, MAX_TOKEN_LEN, MIN_TOKEN_LEN};
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
    let mut term = String::with_capacity(MAX_TOKEN_LEN);
    while tokens.next_into(&mut term) {
        if is_stopword(&term) {
            continue;
        }
        stem_in_place(&mut term);
        each(&term);
    }
}

/// An archived page's analysis ([`Analyzer::index_page`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexedPage {
    /// Interned term-frequency pairs, sorted by id, exactly sized.
    pub tf: Vec<(TermId, u32)>,
    /// The word memo of the page's text against `tf`
    /// ([`snippet::page_words`]); `None` for a text longer than
    /// [`MAX_TEXT_LEN`].
    pub memo: Option<PageMemo>,
}

/// A word of a page as its analysis first reads it for the word memo: what
/// its first token's stem is, resolved to a position among the page's terms
/// ([`Entry`]) once they are all interned. Eight bytes: a page reserves one,
/// with the word's start, per two bytes of text.
#[derive(Clone, Copy)]
enum Draft {
    /// The word has no kept token.
    NoToken,
    /// A stem the vocabulary knows.
    Known(TermId),
    /// A term the vocabulary had not seen: the page's `k`-th occurrence of
    /// such a term ([`Tally::add`]), whose id interning gives it.
    Fresh(u32),
    /// A stopword, by its index in
    /// [`STOPWORDS`](crate::stopwords::STOPWORDS): not a term, but a term
    /// of the page may share its stem.
    Stopword(u32),
}

/// One page's terms as the walk reads them: an `(id, 1)` per occurrence of
/// a term `vocab` knows, and every occurrence of one it has never seen in
/// `fresh`, each followed by a space (no term contains one).
struct Tally {
    pairs: Vec<(TermId, u32)>,
    fresh: String,
    /// Occurrences in `fresh`.
    fresh_count: u32,
}

impl Tally {
    /// For a page of `bytes` bytes: a term is at least `MIN_TOKEN_LEN`
    /// bytes of text and a separator ends it, so the walk never pushes
    /// past this.
    fn new(bytes: usize) -> Tally {
        Tally {
            pairs: Vec::with_capacity(bytes / (MIN_TOKEN_LEN + 1) + 1),
            fresh: String::new(),
            fresh_count: 0,
        }
    }

    /// Count one occurrence of `term`, and draft it: by its id if `vocab`
    /// has one, else by which occurrence of a new term it is.
    fn add(&mut self, vocab: &Vocabulary, term: &str) -> Draft {
        match vocab.id(term) {
            Some(id) => {
                self.pairs.push((id, 1));
                Draft::Known(id)
            }
            None => {
                self.fresh.push_str(term);
                self.fresh.push(' ');
                self.fresh_count = self.fresh_count.saturating_add(1);
                Draft::Fresh(self.fresh_count - 1)
            }
        }
    }

    /// Forget every occurrence counted, keeping the room.
    fn clear(&mut self) {
        self.pairs.clear();
        self.fresh.clear();
        self.fresh_count = 0;
    }

    /// The page's pairs, sorted by id and exactly sized, once its new
    /// terms are interned, and the id each occurrence of a new term was
    /// given, in [`Tally::add`]'s order; the document is recorded for df
    /// statistics.
    fn finish(self, vocab: &mut Vocabulary) -> (Vec<(TermId, u32)>, Vec<TermId>) {
        let Tally {
            mut pairs, fresh, ..
        } = self;
        let mut terms: Vec<(&str, usize)> = fresh.split_terminator(' ').zip(0..).collect();
        let mut fresh_ids = vec![0; terms.len()];
        // Intern new terms in lexicographic order, not the order the
        // page says them: id assignment must be a pure function of the
        // documents fed in, so two archives ingesting the same stream
        // (e.g. a benchmark's oracle and the served process it checks)
        // number their vocabularies identically and stay
        // float-for-float comparable.
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a.0 == b.0) {
            if let [(term, _), ..] = run {
                let id = vocab.intern(term);
                let count = u32::try_from(run.len()).unwrap_or(u32::MAX);
                pairs.push((id, count));
                for &(_, k) in run {
                    if let Some(slot) = fresh_ids.get_mut(k) {
                        *slot = id;
                    }
                }
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
        (pairs.to_vec(), fresh_ids)
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
        self.walk(vocab, "", text, false).tf
    }

    /// An archived page's analysis: [`Analyzer::index_document`] of
    /// `"{title} {text}"`, read in place, and in the same walk the word memo
    /// of `text` that [`snippet::page_words`] gives against the returned
    /// pairs.
    pub fn index_page(&self, vocab: &mut Vocabulary, title: &str, text: &str) -> IndexedPage {
        self.walk(vocab, title, text, true)
    }

    /// The one walk behind both: `title`'s terms, then `text`'s read word by
    /// word ([`Words::next_tokens`]) — each kept token stopped, stemmed in
    /// place and probed once — and, when `memo` is asked for, each word's
    /// start recorded and its first token drafted ([`Draft`]). Drafts are
    /// resolved to positions in the pairs once the page's new terms are
    /// interned, and the memo is built from them, with no second pass over
    /// the text. A page whose markup runs across a word boundary, or whose title holds any markup or
    /// entity, has whole-text tokens its words do not: it is read again
    /// whole, as `"{title} {text}"`, and its memo built by
    /// [`snippet::page_words`].
    fn walk(&self, vocab: &mut Vocabulary, title: &str, text: &str, memo: bool) -> IndexedPage {
        let mut tally = Tally::new(title.len() + 1 + text.len());
        // Only a text of at most 64 KiB has a memo; its page's occurrences
        // of new terms fit `Draft::Fresh` below 4 GiB of title and text.
        let memo =
            memo && text.len() <= MAX_TEXT_LEN && u32::try_from(title.len() + text.len()).is_ok();
        // A text has at most one word per two bytes.
        let mut words: Vec<(u32, Draft)> = Vec::new();
        if memo {
            words.reserve(text.len() / 2 + 1);
        }
        let mut whole = !title.contains(['<', '&']);
        if whole {
            for_each_term(title, |term| {
                tally.add(vocab, term);
            });
            let mut read = Words::new(text);
            let mut token = String::with_capacity(MAX_TOKEN_LEN);
            while whole {
                let mut first = Draft::NoToken;
                let Some((start, within)) = read.next_tokens(&mut token, |token, n| {
                    let read_first = memo && n == 0;
                    if let Some(stop) = stopword(token) {
                        if read_first {
                            first = Draft::Stopword(stop);
                        }
                        return;
                    }
                    stem_in_place(token);
                    let draft = tally.add(vocab, token);
                    if read_first {
                        first = draft;
                    }
                }) else {
                    break;
                };
                if memo {
                    words.push((start as u32, first));
                }
                whole = within;
            }
        }
        if !whole {
            tally.clear();
            let joined;
            let page = if title.is_empty() {
                text
            } else {
                joined = format!("{title} {text}");
                &joined
            };
            for_each_term(page, |term| {
                tally.add(vocab, term);
            });
        }
        let (tf, fresh_ids) = tally.finish(vocab);
        let memo = memo.then(|| {
            let position = |id: TermId| tf.binary_search_by_key(&id, |&(t, _)| t).ok();
            if !whole {
                return snippet::page_words(text, tf.len(), |stem| position(vocab.id(stem)?));
            }
            // Each draft resolved into its own slot: an entry is the
            // draft's size, so the collect reuses the drafts' buffer.
            let words: Vec<(u32, Entry)> = words
                .into_iter()
                .map(|(start, word)| {
                    let id = match word {
                        Draft::NoToken => return (start, Entry::NoToken),
                        Draft::Known(id) => Some(id),
                        Draft::Fresh(k) => fresh_ids.get(k as usize).copied(),
                        Draft::Stopword(stop) => stopword_stem(stop).and_then(|s| vocab.id(s)),
                    };
                    (start, snippet::entry(id.and_then(position), tf.len()))
                })
                .collect();
            let words = words.iter().map(|&(start, entry)| (start as usize, entry));
            PageMemo::new(text.len(), tf.len(), words)
        });
        IndexedPage {
            tf,
            memo: memo.flatten(),
        }
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

    /// "page" is a stopword that "pages" stems to: its word is placed at
    /// that term. A tag with a space inside runs across words, so that page
    /// is read whole, and a word read alone says "href" where the page
    /// says nothing. Either way the memo is the reference's.
    #[test]
    fn index_page_places_every_word_of_the_text() {
        let mut vocab = Vocabulary::new();
        for (title, text) in [
            ("Compiler", "The pages -- compilers page"),
            ("", "<a href=x y>loops</a>"),
        ] {
            let page = Analyzer.index_page(&mut vocab, title, text);
            let reference = snippet::page_words(text, page.tf.len(), |stem| {
                let id = vocab.id(stem)?;
                page.tf.binary_search_by_key(&id, |&(t, _)| t).ok()
            });
            assert_eq!(page.memo, reference, "{text:?}");
        }
        let (compil, pages) = (vocab.id("compil"), vocab.id("page"));
        let page = Analyzer.index_page(&mut vocab, "Compiler", "The pages -- compilers page");
        assert_eq!(page.tf, [(compil.unwrap(), 2), (pages.unwrap(), 1)]);
        let memo = page.memo.expect("a memo");
        assert_eq!(memo.words(), 5);
        assert!(memo.outside(), "\"The\" is a stopword no term stems to");
        let mut query = snippet::SnippetQuery::new("pages");
        let at = |_: usize| Some(1);
        let read = query.snippet_from_memo("The pages -- compilers page", &memo, at, 1);
        assert_eq!(read.as_deref(), Some("… pages …"));
    }

    #[test]
    fn a_draft_is_eight_bytes() {
        assert_eq!(std::mem::size_of::<Draft>(), 8);
    }

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
