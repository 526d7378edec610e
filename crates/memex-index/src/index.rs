//! The segmented inverted index.
//!
//! Documents accumulate in an in-memory buffer; every [`BUFFER_DOCS`]th
//! document (or an explicit `commit()`) seals the buffer into a numbered
//! segment inside the keyed store, one key per term per segment. A
//! document is added once, so a term's postings lie in disjoint runs — the
//! buffer's list, kept in document order, then one encoded list per
//! segment — and a query reads them where they lie
//! ([`InvertedIndex::for_each_posting`]): the buffer's list borrowed, each
//! segment decoded as the store walks it, nothing copied or merged, and
//! the term's df is the sum of the runs' lengths. What a query sees — and,
//! the buffer bound being the only thing that seals, what the store holds
//! — is a function of the documents added, not of how they arrived.
//!
//! Key layout in the keyed store:
//! ```text
//! P<term BE32><seg BE32> -> compressed posting list
//! L<doc BE32>            -> varint doc length (token count)
//! Mseg                   -> next segment number (BE32)
//! ```
//! Every key written is one a query or a reopen reads. (A directory from a
//! build that also stored positional lists may hold `Q…` keys: never read.)

use std::collections::HashMap;
use std::ops::Bound;
use std::path::Path;

use memex_obs::{Counter, Histogram, MetricsRegistry};
use memex_store::codec::{get_uvarint, put_uvarint};
use memex_store::error::{StoreError, StoreResult};
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_text::vocab::TermId;

use crate::postings::{self, PostingList};

/// The buffer is sealed into a segment when it holds this many documents.
pub const BUFFER_DOCS: usize = 512;

/// Obs handles (inert until [`InvertedIndex::attach_registry`] is called).
#[derive(Default)]
pub(crate) struct IndexMetrics {
    docs: Counter,
    tokens: Counter,
    commits: Counter,
    /// Posting-list entries sealed into segments (postings growth).
    postings_flushed: Counter,
    commit_latency: Histogram,
    /// Recorded by the search layer (`index.query.latency`).
    pub(crate) query_latency: Histogram,
    /// Postings the search layer read, from the buffer and the segments
    /// (`index.query.postings`).
    pub(crate) query_postings: Counter,
    /// Documents it scored (`index.query.scored`).
    pub(crate) query_scored: Counter,
}

/// A segmented inverted index over term ids.
///
/// [`InvertedIndex::for_each_posting`] takes `&self` and reaches the store
/// through [`LsmStore`]'s own `&self` reads — no index-level lock.
pub struct InvertedIndex {
    kv: LsmStore,
    /// term -> buffered postings, in document order, one per document.
    buffer: HashMap<TermId, Vec<(u32, u32)>>,
    buffered_docs: usize,
    /// doc -> token length (cache of the L records): the documents held.
    doc_len: HashMap<u32, u32>,
    /// The largest document id held.
    max_doc: Option<u32>,
    total_tokens: u64,
    next_seg: u32,
    pub(crate) metrics: IndexMetrics,
}

impl InvertedIndex {
    /// In-memory index (still runs the full segment machinery).
    pub fn open_memory() -> StoreResult<InvertedIndex> {
        Self::build(LsmStore::open_memory()?)
    }

    /// Durable index under `dir/index/` (WAL, manifest, runs).
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> StoreResult<InvertedIndex> {
        Self::build(LsmStore::open_dir(
            dir.as_ref().join("index"),
            LsmOptions::default(),
        )?)
    }

    fn build(kv: LsmStore) -> StoreResult<InvertedIndex> {
        // Restore doc lengths and segment counter.
        let mut doc_len = HashMap::new();
        let mut total_tokens = 0u64;
        let mut failed = None;
        kv.for_each_range(Bound::Included(b"L"), Bound::Unbounded, &mut |k, v| {
            if !k.starts_with(b"L") {
                return false;
            }
            if let &[_, a, b, c, d] = k {
                let mut pos = 0usize;
                match get_uvarint(v, &mut pos) {
                    Ok(len) => {
                        let len = len as u32;
                        doc_len.insert(u32::from_be_bytes([a, b, c, d]), len);
                        total_tokens += u64::from(len);
                    }
                    Err(e) => failed = Some(e),
                }
            }
            failed.is_none()
        })?;
        if let Some(e) = failed {
            return Err(e);
        }
        let next_seg = kv
            .get(b"Mseg")?
            .and_then(|v| <[u8; 4]>::try_from(v.as_slice()).ok())
            .map_or(0, u32::from_be_bytes);
        Ok(InvertedIndex {
            kv,
            buffer: HashMap::new(),
            buffered_docs: 0,
            max_doc: doc_len.keys().copied().max(),
            doc_len,
            total_tokens,
            next_seg,
            metrics: IndexMetrics::default(),
        })
    }

    /// Register this index and its backing store with `registry`
    /// (`index.*` plus the `store.*` families of the underlying store).
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.kv.attach_registry(registry);
        self.metrics = IndexMetrics {
            docs: registry.counter("index.docs"),
            tokens: registry.counter("index.tokens"),
            commits: registry.counter("index.commits"),
            postings_flushed: registry.counter("index.postings_flushed"),
            commit_latency: registry.histogram("index.commit.latency"),
            query_latency: registry.histogram("index.query.latency"),
            query_postings: registry.counter("index.query.postings"),
            query_scored: registry.counter("index.query.scored"),
        };
    }

    /// Index one document. Each `(doc, tf)` pair goes to its document's
    /// place in its term's buffered list; a term listed twice keeps one
    /// posting with the larger count, and every count adds to the length.
    /// A document is added once: a doc id the index already holds is
    /// `Invalid`, and nothing is written.
    pub fn add_document(&mut self, doc: u32, tf: &[(TermId, u32)]) -> StoreResult<()> {
        if self.doc_len.contains_key(&doc) {
            return Err(StoreError::Invalid(format!(
                "document {doc} is already indexed"
            )));
        }
        let mut len = 0u32;
        for &(t, c) in tf {
            if c == 0 {
                continue;
            }
            let list = self.buffer.entry(t).or_default();
            let at = list.partition_point(|&(d, _)| d < doc);
            match list.get_mut(at) {
                Some((d, count)) if *d == doc => *count = (*count).max(c),
                _ => list.insert(at, (doc, c)),
            }
            len += c;
        }
        let mut lv = Vec::with_capacity(4);
        put_uvarint(&mut lv, u64::from(len));
        self.kv.put(&Self::len_key(doc), &lv)?;
        self.doc_len.insert(doc, len);
        self.max_doc = self.max_doc.max(Some(doc));
        self.metrics.docs.inc();
        self.metrics.tokens.add(u64::from(len));
        self.total_tokens += u64::from(len);
        self.buffered_docs += 1;
        if self.buffered_docs >= BUFFER_DOCS {
            self.commit()?;
        }
        Ok(())
    }

    /// Seal the buffer into a new segment.
    pub fn commit(&mut self) -> StoreResult<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        let _span = self.metrics.commit_latency.start_span();
        let seg = self.next_seg;
        self.next_seg += 1;
        self.kv.put(b"Mseg", &self.next_seg.to_be_bytes())?;
        let mut terms: Vec<_> = self.buffer.drain().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        for (term, pairs) in terms {
            self.metrics.postings_flushed.add(pairs.len() as u64);
            let encoded = PostingList::from_pairs(pairs).encode()?;
            self.kv.put(&Self::seg_key(term, seg), &encoded)?;
        }
        self.buffered_docs = 0;
        self.metrics.commits.inc();
        Ok(())
    }

    /// Hand every posting of `term` to `f` where it lies — the buffer's
    /// list borrowed, then each segment's bytes decoded as the store walks
    /// them — and return how many there were: the term's df, since the
    /// runs are disjoint. Each run is in document order; the runs are
    /// not in order among themselves.
    pub fn for_each_posting(&self, term: TermId, mut f: impl FnMut(u32, u32)) -> StoreResult<u64> {
        let buffered = self.buffer.get(&term).map_or(&[][..], Vec::as_slice);
        for &(doc, tf) in buffered {
            f(doc, tf);
        }
        let mut df = buffered.len() as u64;
        let prefix = Self::term_prefix(term);
        let mut failed = None;
        self.kv.for_each_range(
            Bound::Included(&prefix),
            Bound::Unbounded,
            &mut |key, value| {
                if !key.starts_with(&prefix) {
                    return false;
                }
                match postings::for_each_encoded(value, &mut f) {
                    Ok(n) => df += n,
                    Err(e) => failed = Some(e),
                }
                failed.is_none()
            },
        )?;
        failed.map_or(Ok(df), Err)
    }

    /// All postings for `term`, sorted by document: what
    /// [`InvertedIndex::for_each_posting`] reads, collected.
    #[cfg(test)]
    pub fn postings(&self, term: TermId) -> StoreResult<PostingList> {
        let mut pairs = Vec::new();
        self.for_each_posting(term, |doc, tf| pairs.push((doc, tf)))?;
        Ok(PostingList::from_pairs(pairs))
    }

    /// Flush everything durable.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        self.commit()?;
        self.kv.seal()
    }

    pub fn num_docs(&self) -> u64 {
        self.doc_len.len() as u64
    }

    /// Mean document length (tokens).
    pub fn avg_doc_len(&self) -> f64 {
        if self.doc_len.is_empty() {
            0.0
        } else {
            self.total_tokens as f64 / self.doc_len.len() as f64
        }
    }

    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }

    /// The largest document id the index holds (`None` when empty).
    pub fn max_doc(&self) -> Option<u32> {
        self.max_doc
    }

    /// `P<term BE32>`: the prefix of every segment key of `term`.
    fn term_prefix(term: TermId) -> [u8; 5] {
        let [a, b, c, d] = term.to_be_bytes();
        [b'P', a, b, c, d]
    }

    fn seg_key(term: TermId, seg: u32) -> Vec<u8> {
        let mut k = Vec::with_capacity(9);
        k.extend_from_slice(&Self::term_prefix(term));
        k.extend_from_slice(&seg.to_be_bytes());
        k
    }

    fn len_key(doc: u32) -> Vec<u8> {
        let mut k = Vec::with_capacity(5);
        k.push(b'L');
        k.extend_from_slice(&doc.to_be_bytes());
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> InvertedIndex {
        InvertedIndex::open_memory().unwrap()
    }

    #[test]
    fn postings_visible_before_and_after_commit() {
        let mut ix = idx();
        ix.add_document(10, &[(1, 3), (2, 1)]).unwrap();
        assert_eq!(
            ix.postings(1).unwrap().entries(),
            &[(10, 3)],
            "buffered postings visible"
        );
        ix.commit().unwrap();
        assert_eq!(ix.postings(1).unwrap().entries(), &[(10, 3)]);
        ix.add_document(11, &[(1, 2)]).unwrap();
        assert_eq!(ix.postings(1).unwrap().entries(), &[(10, 3), (11, 2)]);
    }

    #[test]
    fn buffer_bound_seals_on_document_512_and_not_before() {
        let registry = MetricsRegistry::new();
        let mut ix = idx();
        ix.attach_registry(&registry);
        let commits = registry.counter("index.commits");
        let last = BUFFER_DOCS as u32 - 1;
        for d in 0..last {
            ix.add_document(d, &[(7, 1)]).unwrap();
        }
        assert_eq!(commits.get(), 0, "511 documents stay buffered");
        assert_eq!(ix.postings(7).unwrap().len(), BUFFER_DOCS - 1);
        ix.add_document(last, &[(7, 1)]).unwrap();
        assert_eq!(commits.get(), 1, "document 512 seals the segment");
        assert!(ix.buffer.is_empty());
        ix.add_document(last + 1, &[(7, 1)]).unwrap();
        assert_eq!(commits.get(), 1);
        assert_eq!(ix.postings(7).unwrap().len(), BUFFER_DOCS + 1);
    }

    #[test]
    fn the_buffer_keeps_each_term_in_document_order() {
        let mut ix = idx();
        for (doc, tf) in [(9, 1), (3, 2), (7, 1), (12, 4), (0, 1)] {
            ix.add_document(doc, &[(5, tf)]).unwrap();
        }
        // A term listed twice: one posting with the larger count, and both
        // counts in the length.
        ix.add_document(4, &[(5, 1), (6, 2), (5, 3)]).unwrap();
        assert_eq!(
            ix.buffer.get(&5).map(Vec::as_slice),
            Some(&[(0, 1), (3, 2), (4, 3), (7, 1), (9, 1), (12, 4)][..]),
        );
        assert_eq!(ix.doc_len(4), 6);
        assert_eq!(ix.max_doc(), Some(12));
    }

    #[test]
    fn a_re_added_doc_is_rejected_and_changes_nothing() {
        // Across a segment boundary and inside the buffer alike.
        let registry = MetricsRegistry::new();
        let mut ix = idx();
        ix.attach_registry(&registry);
        ix.add_document(1, &[(7, 2), (8, 1)]).unwrap();
        ix.add_document(2, &[(7, 1)]).unwrap();
        ix.commit().unwrap();
        ix.add_document(3, &[(7, 3)]).unwrap();
        let before = (ix.postings(7).unwrap(), ix.postings(8).unwrap());
        let stored = ix.kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        for (doc, tf) in [(1, &[(7, 1)][..]), (2, &[(7, 2), (8, 1)]), (3, &[(8, 5)])] {
            assert!(matches!(
                ix.add_document(doc, tf),
                Err(StoreError::Invalid(_))
            ));
        }
        assert_eq!((ix.postings(7).unwrap(), ix.postings(8).unwrap()), before);
        assert_eq!(
            ix.kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
            stored,
            "nothing written"
        );
        assert_eq!((ix.num_docs(), ix.doc_len(1), ix.doc_len(3)), (3, 3, 3));
        assert_eq!(ix.avg_doc_len(), 7.0 / 3.0);
        assert_eq!(registry.counter("index.docs").get(), 3);
    }

    #[test]
    fn a_reopened_index_rejects_the_docs_it_held() {
        let dir = std::env::temp_dir().join(format!("memex-index-readd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = {
            let mut ix = InvertedIndex::open_dir(&dir).unwrap();
            ix.add_document(1, &[(7, 9)]).unwrap();
            ix.add_document(2, &[(7, 3)]).unwrap();
            ix.checkpoint().unwrap();
            ix.avg_doc_len()
        };
        let mut reopened = InvertedIndex::open_dir(&dir).unwrap();
        assert_eq!(reopened.max_doc(), Some(2));
        assert!(reopened.add_document(1, &[(7, 1), (8, 2)]).is_err());
        assert_eq!(reopened.num_docs(), 2);
        assert_eq!(reopened.avg_doc_len(), live);
        assert_eq!(reopened.postings(7).unwrap().entries(), &[(1, 9), (2, 3)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn doc_lengths_and_averages() {
        let mut ix = idx();
        ix.add_document(1, &[(1, 3), (2, 2)]).unwrap();
        ix.add_document(2, &[(1, 5)]).unwrap();
        assert_eq!(ix.doc_len(1), 5);
        assert_eq!(ix.doc_len(2), 5);
        assert_eq!(ix.num_docs(), 2);
        assert!((ix.avg_doc_len() - 5.0).abs() < 1e-9);
        assert_eq!(ix.doc_len(99), 0);
    }

    #[test]
    fn persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("memex-index-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut ix = InvertedIndex::open_dir(&dir).unwrap();
            ix.add_document(5, &[(42, 2)]).unwrap();
            ix.checkpoint().unwrap();
        }
        {
            let mut ix = InvertedIndex::open_dir(&dir).unwrap();
            assert_eq!(ix.num_docs(), 1);
            assert_eq!(ix.postings(42).unwrap().entries(), &[(5, 2)]);
            // Segment counter restored: new commits do not collide.
            ix.add_document(6, &[(42, 1)]).unwrap();
            ix.commit().unwrap();
            assert_eq!(ix.postings(42).unwrap().len(), 2);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_common_term_round_trips_through_its_single_p_key() {
        // 400 documents in one segment: one key holds them all.
        let mut ix = idx();
        let common = 7u32;
        for d in 0..400u32 {
            ix.add_document(d, &[(common, 20), (1000 + d, 20)]).unwrap();
        }
        ix.commit().unwrap();
        let prefix = InvertedIndex::term_prefix(common);
        let keys = ix
            .kv
            .scan(Bound::Included(&prefix), Bound::Unbounded)
            .unwrap();
        let keys = keys.iter().filter(|(k, _)| k.starts_with(&prefix)).count();
        assert_eq!(keys, 1, "one P key per term per segment");
        let list = ix.postings(common).unwrap();
        assert_eq!(list.len(), 400);
        assert_eq!(list.entries().get(123), Some(&(123, 20)));
    }

    #[test]
    fn every_stored_key_is_one_a_query_or_a_reopen_reads() {
        // 600 documents: one sealed segment (512) plus a sealed remainder.
        let mut ix = idx();
        for d in 0..600u32 {
            ix.add_document(d, &[(d % 13, 2), (100 + d, 1)]).unwrap();
        }
        ix.checkpoint().unwrap();
        let keys = ix.kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(keys.len() > 600);
        for (k, _) in keys {
            assert!(
                matches!(k.first(), Some(b'P' | b'L' | b'M')),
                "stored key {k:?} is read by nothing"
            );
        }
    }

    #[test]
    fn unknown_term_is_empty() {
        let ix = idx();
        assert!(ix.postings(999).unwrap().is_empty());
    }
}
