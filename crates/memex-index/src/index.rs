//! The segmented inverted index.
//!
//! Documents accumulate in an in-memory buffer; every [`BUFFER_DOCS`]th
//! document (or an explicit `commit()`) seals the buffer into a numbered
//! segment inside the keyed store, one key per term per segment. The
//! buffer keeps each term's postings in document order and every segment
//! is sealed from such a list, so a query gathers a term's postings as
//! already-sorted runs — the buffer's, then one per segment — and merges
//! them. What a query sees — and, the buffer bound being the only thing
//! that seals, what the store holds — is a function of the documents
//! added, not of how they arrived.
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
use std::path::Path;

use memex_obs::{Counter, Histogram, MetricsRegistry};
use memex_store::codec::{get_uvarint, put_uvarint};
use memex_store::error::StoreResult;
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_text::vocab::TermId;

use crate::postings::PostingList;

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
    /// Postings the search layer's merge stepped over or scored
    /// (`index.query.postings`).
    pub(crate) query_postings: Counter,
    /// Documents it scored (`index.query.scored`).
    pub(crate) query_scored: Counter,
}

/// A segmented inverted index over term ids.
///
/// [`InvertedIndex::postings`] takes `&self` and reaches the store through
/// [`LsmStore`]'s own `&self` reads — no index-level lock.
pub struct InvertedIndex {
    kv: LsmStore,
    /// term -> buffered postings, in document order; a re-added document's
    /// pairs in the order they were added.
    buffer: HashMap<TermId, Vec<(u32, u32)>>,
    buffered_docs: usize,
    /// doc -> token length (cache of the L records).
    doc_len: HashMap<u32, u32>,
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
        for (k, v) in kv.scan_prefix(b"L")? {
            if let &[_, a, b, c, d] = k.as_slice() {
                let mut pos = 0usize;
                let len = get_uvarint(&v, &mut pos)? as u32;
                doc_len.insert(u32::from_be_bytes([a, b, c, d]), len);
                total_tokens += u64::from(len);
            }
        }
        let next_seg = kv
            .get(b"Mseg")?
            .and_then(|v| <[u8; 4]>::try_from(v.as_slice()).ok())
            .map_or(0, u32::from_be_bytes);
        Ok(InvertedIndex {
            kv,
            buffer: HashMap::new(),
            buffered_docs: 0,
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
    /// place in its term's buffered list, after any pair of the same
    /// document. Re-adding a doc id replaces its length record; its
    /// postings are unioned with the earlier ones, per term the larger tf
    /// winning.
    pub fn add_document(&mut self, doc: u32, tf: &[(TermId, u32)]) -> StoreResult<()> {
        let mut len = 0u32;
        for &(t, c) in tf {
            if c == 0 {
                continue;
            }
            let list = self.buffer.entry(t).or_default();
            list.insert(list.partition_point(|&(d, _)| d <= doc), (doc, c));
            len += c;
        }
        let mut lv = Vec::with_capacity(4);
        put_uvarint(&mut lv, u64::from(len));
        self.kv.put(&Self::len_key(doc), &lv)?;
        let replaced = self.doc_len.insert(doc, len).unwrap_or(0);
        self.metrics.docs.inc();
        self.metrics.tokens.add(u64::from(len));
        self.total_tokens = self.total_tokens - u64::from(replaced) + u64::from(len);
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

    /// All postings for `term`: the buffer's, then every segment's, each a
    /// run already in document order, merged by
    /// [`PostingList::from_pairs`]'s run-adaptive sort in linear time per
    /// run.
    pub fn postings(&self, term: TermId) -> StoreResult<PostingList> {
        let mut pairs = self.buffer.get(&term).cloned().unwrap_or_default();
        for (_k, v) in self.kv.scan_prefix(&Self::term_prefix(term))? {
            pairs.extend_from_slice(PostingList::decode(&v)?.entries());
        }
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

    /// `P<term BE32>`: the prefix of every segment key of `term`.
    fn term_prefix(term: TermId) -> Vec<u8> {
        let mut k = Vec::with_capacity(9);
        k.push(b'P');
        k.extend_from_slice(&term.to_be_bytes());
        k
    }

    fn seg_key(term: TermId, seg: u32) -> Vec<u8> {
        let mut k = Self::term_prefix(term);
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
        for (doc, tf) in [(9, 1), (3, 2), (7, 1), (3, 1), (12, 4), (0, 1), (7, 3)] {
            ix.add_document(doc, &[(5, tf)]).unwrap();
        }
        assert_eq!(
            ix.buffer.get(&5).map(Vec::as_slice),
            Some(&[(0, 1), (3, 2), (3, 1), (7, 1), (7, 3), (9, 1), (12, 4)][..]),
            "by document, a re-added one's pairs in arrival order"
        );
        assert_eq!(
            ix.postings(5).unwrap().entries(),
            &[(0, 1), (3, 2), (7, 3), (9, 1), (12, 4)]
        );
    }

    #[test]
    fn a_re_added_doc_keeps_the_larger_tf() {
        // Across a segment boundary and inside the buffer alike.
        let mut ix = idx();
        ix.add_document(1, &[(7, 2), (8, 1)]).unwrap();
        ix.add_document(2, &[(7, 1)]).unwrap();
        ix.commit().unwrap();
        ix.add_document(1, &[(7, 1)]).unwrap();
        ix.add_document(2, &[(7, 2), (8, 1)]).unwrap();
        ix.add_document(2, &[(7, 1), (8, 1)]).unwrap();
        assert_eq!(ix.postings(7).unwrap().entries(), &[(1, 2), (2, 2)]);
        assert_eq!(ix.num_docs(), 2);
    }

    #[test]
    fn re_added_doc_keeps_avg_doc_len_equal_to_a_reopened_index() {
        // A reopen recomputes the average from the L records, which hold
        // one length per doc id: the live total must drop the replaced one.
        let dir = std::env::temp_dir().join(format!("memex-index-readd-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let live = {
            let mut ix = InvertedIndex::open_dir(&dir).unwrap();
            ix.add_document(1, &[(7, 9)]).unwrap();
            ix.add_document(2, &[(7, 3)]).unwrap();
            ix.add_document(1, &[(7, 1), (8, 2)]).unwrap();
            assert_eq!(ix.doc_len(1), 3);
            assert_eq!(ix.avg_doc_len(), 3.0);
            ix.checkpoint().unwrap();
            ix.avg_doc_len()
        };
        let reopened = InvertedIndex::open_dir(&dir).unwrap();
        assert_eq!(reopened.num_docs(), 2);
        assert_eq!(reopened.avg_doc_len(), live);
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
        let keys = ix
            .kv
            .scan_prefix(&InvertedIndex::term_prefix(common))
            .unwrap();
        assert_eq!(keys.len(), 1, "one P key per term per segment");
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
        let keys = ix.kv.scan_prefix(b"").unwrap();
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
