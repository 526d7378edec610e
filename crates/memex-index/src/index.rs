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

use std::mem::size_of;
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

/// `doc_len`'s marker for an id the index does not hold.
const ABSENT: u32 = u32::MAX;

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
/// Term ids and document ids are dense (a `Vocabulary`'s, and page ids the
/// fetcher numbers), so the in-memory tables are `Vec`s indexed by id, one
/// slot per id up to the largest held.
///
/// [`InvertedIndex::for_each_posting`] takes `&self` and reaches the store
/// through [`LsmStore`]'s own `&self` reads — no index-level lock.
pub struct InvertedIndex {
    kv: LsmStore,
    /// Indexed by term id: the term's buffered postings, in document order,
    /// one per document. Empty while no posting is buffered.
    buffer: Vec<Vec<(u32, u32)>>,
    /// Heap bytes of the buffered lists (`buffer`'s own slots aside).
    buffer_bytes: usize,
    buffered_docs: usize,
    /// Indexed by document id: its token length (cache of the L records),
    /// or [`ABSENT`]. Its last slot is the largest document held.
    doc_len: Vec<u32>,
    /// Documents held.
    docs: u64,
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
        let mut doc_len = Vec::new();
        let mut docs = 0u64;
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
                        let len = (len as u32).min(ABSENT - 1);
                        hold(&mut doc_len, u32::from_be_bytes([a, b, c, d]), len);
                        docs += 1;
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
            buffer: Vec::new(),
            buffer_bytes: 0,
            buffered_docs: 0,
            doc_len,
            docs,
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

    /// Index one document. Each `(term, tf)` pair goes to its document's
    /// place in its term's buffered list; a term listed twice keeps one
    /// posting with the counts summed, so the length — every count added —
    /// is the sum of the document's postings. A document is added once: a
    /// doc id the index already holds is `Invalid`, and nothing is written.
    pub fn add_document(&mut self, doc: u32, tf: &[(TermId, u32)]) -> StoreResult<()> {
        if self.holds(doc) {
            return Err(StoreError::Invalid(format!(
                "document {doc} is already indexed"
            )));
        }
        let mut len = 0u32;
        for &(t, c) in tf {
            if c == 0 {
                continue;
            }
            let slot = t as usize;
            if slot >= self.buffer.len() {
                self.buffer.resize_with(slot + 1, Vec::new);
            }
            let Some(list) = self.buffer.get_mut(slot) else {
                continue;
            };
            let capacity = list.capacity();
            let at = list.partition_point(|&(d, _)| d < doc);
            match list.get_mut(at) {
                Some((d, count)) if *d == doc => *count = count.saturating_add(c),
                _ => list.insert(at, (doc, c)),
            }
            self.buffer_bytes += (list.capacity() - capacity) * size_of::<(u32, u32)>();
            len = len.saturating_add(c).min(ABSENT - 1);
        }
        let mut lv = Vec::with_capacity(4);
        put_uvarint(&mut lv, u64::from(len));
        self.kv.put(&Self::len_key(doc), &lv)?;
        hold(&mut self.doc_len, doc, len);
        self.docs += 1;
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
        self.buffer_bytes = 0;
        for (term, pairs) in (0..).zip(std::mem::take(&mut self.buffer)) {
            if pairs.is_empty() {
                continue;
            }
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
        let buffered = self
            .buffer
            .get(term as usize)
            .map_or(&[][..], Vec::as_slice);
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
        self.docs
    }

    /// Mean document length (tokens).
    pub fn avg_doc_len(&self) -> f64 {
        if self.docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.docs as f64
        }
    }

    /// Token length of `doc`; 0 for a document the index does not hold.
    pub fn doc_len(&self, doc: u32) -> u32 {
        match self.doc_len.get(doc as usize) {
            Some(&len) if len != ABSENT => len,
            _ => 0,
        }
    }

    fn holds(&self, doc: u32) -> bool {
        self.doc_len
            .get(doc as usize)
            .is_some_and(|&len| len != ABSENT)
    }

    /// The largest document id the index holds (`None` when empty).
    pub fn max_doc(&self) -> Option<u32> {
        self.doc_len.len().checked_sub(1).map(|doc| doc as u32)
    }

    /// Heap bytes of the index's own tables: the buffer (its slot per term
    /// and the buffered lists) and the document lengths. The store's are
    /// not counted here (`store.lsm.*` gauges it). Kept as they grow, so
    /// reading it costs nothing.
    pub fn heap_bytes(&self) -> usize {
        self.buffer.capacity() * size_of::<Vec<(u32, u32)>>()
            + self.buffer_bytes
            + self.doc_len.capacity() * size_of::<u32>()
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

/// Record `len` as `doc`'s length in `doc_len`, growing it to reach `doc`.
fn hold(doc_len: &mut Vec<u32>, doc: u32, len: u32) {
    let slot = doc as usize;
    if slot >= doc_len.len() {
        doc_len.resize(slot + 1, ABSENT);
    }
    if let Some(held) = doc_len.get_mut(slot) {
        *held = len;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;

    struct Counting;

    thread_local! {
        /// Bytes this thread allocated minus bytes it freed.
        static LIVE: Cell<isize> = const { Cell::new(0) };
    }

    // SAFETY: every call is forwarded unchanged to `System`; the only
    // addition is a thread-local counter update, which neither allocates
    // nor unwinds.
    unsafe impl GlobalAlloc for Counting {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            LIVE.with(|n| n.set(n.get() + layout.size() as isize));
            System.alloc(layout)
        }
        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            LIVE.with(|n| n.set(n.get() - layout.size() as isize));
            System.dealloc(ptr, layout)
        }
        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            LIVE.with(|n| n.set(n.get() + new_size as isize - layout.size() as isize));
            System.realloc(ptr, layout, new_size)
        }
    }

    /// Counts this test binary's heap per thread, for
    /// `heap_bytes_is_what_dropping_the_tables_frees`; no other test reads it.
    #[global_allocator]
    static GLOBAL: Counting = Counting;

    fn idx() -> InvertedIndex {
        InvertedIndex::open_memory().unwrap()
    }

    /// An index shaped like the benchmark world's — 640 pages of about 45
    /// terms from a few thousand, arriving in shuffled order, the first 512
    /// sealed by the bound — reports as its tables' heap what dropping them
    /// frees, to within 10 %, and after the seal a buffer of the rest alone.
    #[test]
    fn heap_bytes_is_what_dropping_the_tables_frees() {
        let mut ix = idx();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |n: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % n
        };
        let mut docs: Vec<u32> = (0..640).collect();
        for i in (1..docs.len()).rev() {
            docs.swap(i, next(i as u64 + 1) as usize);
        }
        for &doc in &docs {
            let mut tf: Vec<(TermId, u32)> = (0..45)
                .map(|_| (next(64).pow(2) as u32, 1 + next(4) as u32))
                .collect();
            tf.sort_unstable();
            tf.dedup_by_key(|pair| pair.0);
            ix.add_document(doc, &tf).unwrap();
        }
        assert_eq!(ix.buffered_docs, 640 - BUFFER_DOCS);
        let reported = ix.heap_bytes() as f64;
        let before = LIVE.with(Cell::get);
        drop(std::mem::take(&mut ix.buffer));
        drop(std::mem::take(&mut ix.doc_len));
        let freed = (before - LIVE.with(Cell::get)) as f64;
        assert!(freed > 0.0);
        assert!(
            (reported - freed).abs() <= 0.1 * freed,
            "heap_bytes {reported}, dropping the tables freed {freed}"
        );
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
        ix.add_document(4, &[(5, 1), (6, 2)]).unwrap();
        assert_eq!(
            ix.buffer.get(5).map(Vec::as_slice),
            Some(&[(0, 1), (3, 2), (4, 1), (7, 1), (9, 1), (12, 4)][..]),
        );
        assert_eq!(ix.doc_len(4), 3);
        assert_eq!(ix.max_doc(), Some(12));
        assert_eq!((ix.doc_len(5), ix.doc_len(13)), (0, 0), "ids not held");
    }

    /// A term listed twice keeps one posting with both counts, so BM25
    /// scores the document against the length its postings add up to.
    #[test]
    fn a_term_listed_twice_sums_into_one_posting_and_the_length() {
        let mut ix = idx();
        ix.add_document(4, &[(5, 1), (6, 2), (5, 3)]).unwrap();
        ix.add_document(2, &[(5, 2)]).unwrap();
        assert_eq!(ix.postings(5).unwrap().entries(), &[(2, 2), (4, 4)]);
        assert_eq!(ix.postings(6).unwrap().entries(), &[(4, 2)]);
        let held: u32 = [5, 6]
            .iter()
            .flat_map(|&t| ix.postings(t).unwrap().entries().to_vec())
            .filter(|&(doc, _)| doc == 4)
            .map(|(_, tf)| tf)
            .sum();
        assert_eq!((ix.doc_len(4), held), (6, 6));
        ix.commit().unwrap();
        assert_eq!(ix.postings(5).unwrap().entries(), &[(2, 2), (4, 4)]);
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
