//! The segmented inverted index.
//!
//! Documents accumulate in an in-memory buffer; `commit()` seals the buffer
//! into a numbered segment inside the keyed store (one key per term per
//! segment). Queries read all segments of a term and merge. `merge_segments`
//! compacts everything into segment 0 — the background-demon maintenance
//! cycle of the paper's Fig. 3.
//!
//! Key layout in the keyed store:
//! ```text
//! P<term BE32><seg BE32> -> compressed posting list
//! L<doc BE32>            -> varint doc length (token count)
//! Mseg                   -> next segment number (BE32)
//! ```

use std::collections::HashMap;
use std::path::Path;

use memex_obs::{Counter, Histogram, MetricsRegistry};
use memex_store::codec::{get_uvarint, put_uvarint};
use memex_store::error::StoreResult;
use memex_store::lsm::{LsmOptions, LsmSnapshot, LsmStore};
use memex_text::vocab::TermId;

use crate::postings::{PositionalList, PostingList};

/// Index tuning.
#[derive(Debug, Clone, Copy)]
pub struct IndexOptions {
    /// Auto-commit the buffer after this many documents.
    pub auto_commit_docs: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        IndexOptions {
            auto_commit_docs: 512,
        }
    }
}

/// Statistics exposed for benches and the server dashboard.
#[derive(Debug, Clone, Copy, Default)]
pub struct IndexStats {
    pub num_docs: u64,
    pub total_tokens: u64,
    pub segments: u32,
    pub commits: u64,
    pub merges: u64,
}

/// Obs handles (inert until [`InvertedIndex::attach_registry`] is called).
#[derive(Default)]
pub(crate) struct IndexMetrics {
    docs: Counter,
    tokens: Counter,
    commits: Counter,
    merges: Counter,
    /// Posting-list entries sealed into segments (postings growth).
    postings_flushed: Counter,
    commit_latency: Histogram,
    /// Recorded by the search layer (`index.query.latency`).
    pub(crate) query_latency: Histogram,
}

/// A segmented inverted index over term ids.
///
/// Queries ([`InvertedIndex::postings`], [`InvertedIndex::positions`],
/// [`InvertedIndex::df`]) take `&self` and reach the store through
/// [`LsmStore`]'s own `&self` reads — no index-level lock.
///
/// For reads that must not contend with ingest at all, take a
/// [`read_snapshot`](InvertedIndex::read_snapshot): it pins the store's
/// point-in-time view (a cheap run-set epoch pin) plus the in-memory
/// buffer, and every query on it reads the pinned state only.
pub struct InvertedIndex {
    kv: LsmStore,
    opts: IndexOptions,
    /// term -> buffered postings (sorted by insertion; docs increase).
    buffer: HashMap<TermId, Vec<(u32, u32)>>,
    /// term -> buffered positional postings (parallel namespace, written
    /// only for documents indexed through [`InvertedIndex::add_document_positional`]).
    pos_buffer: HashMap<TermId, Vec<(u32, Vec<u32>)>>,
    buffered_docs: usize,
    /// doc -> token length (cache of the L records).
    doc_len: HashMap<u32, u32>,
    total_tokens: u64,
    next_seg: u32,
    stats: IndexStats,
    pub(crate) metrics: IndexMetrics,
}

impl InvertedIndex {
    /// In-memory index (still runs the full segment machinery).
    pub fn open_memory(opts: IndexOptions) -> StoreResult<InvertedIndex> {
        Self::build(LsmStore::open_memory()?, opts)
    }

    /// Durable index under `dir/index/` (WAL, manifest, runs).
    pub fn open_dir<P: AsRef<Path>>(dir: P, opts: IndexOptions) -> StoreResult<InvertedIndex> {
        let store = LsmStore::open_dir(dir.as_ref().join("index"), LsmOptions::default())?;
        Self::build(store, opts)
    }

    fn build(kv: LsmStore, opts: IndexOptions) -> StoreResult<InvertedIndex> {
        // Restore doc lengths and segment counter.
        let mut doc_len = HashMap::new();
        let mut total_tokens = 0u64;
        for (k, v) in kv.scan_prefix(b"L")? {
            if k.len() == 1 + 4 {
                let doc = u32::from_be_bytes(k[1..5].try_into().expect("checked"));
                let mut pos = 0usize;
                let len = get_uvarint(&v, &mut pos)? as u32;
                doc_len.insert(doc, len);
                total_tokens += u64::from(len);
            }
        }
        let next_seg = match kv.get(b"Mseg")? {
            Some(v) if v.len() == 4 => u32::from_be_bytes(v[..4].try_into().expect("checked")),
            _ => 0,
        };
        let num_docs = doc_len.len() as u64;
        Ok(InvertedIndex {
            kv,
            opts,
            buffer: HashMap::new(),
            pos_buffer: HashMap::new(),
            buffered_docs: 0,
            doc_len,
            total_tokens,
            next_seg,
            stats: IndexStats {
                num_docs,
                total_tokens,
                segments: next_seg,
                ..Default::default()
            },
            metrics: IndexMetrics::default(),
        })
    }

    /// The engine epoch a snapshot taken right now would pin. Comparing
    /// this against a held [`IndexSnapshot::epoch`] measures how stale
    /// that snapshot has become (state transitions, not wall time).
    pub fn engine_epoch(&self) -> u64 {
        self.kv.epoch()
    }

    /// Register this index and its backing store with `registry`
    /// (`index.*` plus the `store.*` families of the underlying store).
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.kv.attach_registry(registry);
        self.metrics = IndexMetrics {
            docs: registry.counter("index.docs"),
            tokens: registry.counter("index.tokens"),
            commits: registry.counter("index.commits"),
            merges: registry.counter("index.merges"),
            postings_flushed: registry.counter("index.postings_flushed"),
            commit_latency: registry.histogram("index.commit.latency"),
            query_latency: registry.histogram("index.query.latency"),
        };
    }

    /// Index one document. Re-adding a doc id replaces its length record but
    /// old postings are only superseded at merge time (documented
    /// limitation matching segment designs of the era).
    pub fn add_document(&mut self, doc: u32, tf: &[(TermId, u32)]) -> StoreResult<()> {
        let mut len = 0u32;
        for &(t, c) in tf {
            if c == 0 {
                continue;
            }
            self.buffer.entry(t).or_default().push((doc, c));
            len += c;
        }
        let mut lv = Vec::with_capacity(4);
        put_uvarint(&mut lv, u64::from(len));
        self.kv.put(&Self::len_key(doc), &lv)?;
        if self.doc_len.insert(doc, len).is_none() {
            self.stats.num_docs += 1;
        }
        self.metrics.docs.inc();
        self.metrics.tokens.add(u64::from(len));
        self.total_tokens += u64::from(len);
        self.stats.total_tokens = self.total_tokens;
        self.buffered_docs += 1;
        if self.buffered_docs >= self.opts.auto_commit_docs {
            self.commit()?;
        }
        Ok(())
    }

    /// Index a document from its *ordered* (analysed) token sequence,
    /// recording positions so phrase queries work. Also feeds the plain
    /// frequency postings, so ranked search sees the document too.
    pub fn add_document_positional(
        &mut self,
        doc: u32,
        ordered_terms: &[TermId],
    ) -> StoreResult<()> {
        let mut per_term: HashMap<TermId, Vec<u32>> = HashMap::new();
        let mut tf: HashMap<TermId, u32> = HashMap::new();
        for (i, &t) in ordered_terms.iter().enumerate() {
            per_term.entry(t).or_default().push(i as u32);
            *tf.entry(t).or_insert(0) += 1;
        }
        let mut tf: Vec<(TermId, u32)> = tf.into_iter().collect();
        tf.sort_unstable_by_key(|&(t, _)| t);
        for (t, positions) in per_term {
            self.pos_buffer.entry(t).or_default().push((doc, positions));
        }
        self.add_document(doc, &tf)
    }

    /// All positional postings for `term` across buffer and segments.
    pub fn positions(&self, term: TermId) -> StoreResult<PositionalList> {
        let mut merged = PositionalList::new();
        let prefix = Self::pos_prefix(term);
        let rows = self.kv.scan_prefix(&prefix)?;
        for (_k, v) in rows {
            merged = merged.merge(&PositionalList::decode(&v)?);
        }
        if let Some(entries) = self.pos_buffer.get(&term) {
            let mut sorted = entries.clone();
            sorted.sort_by_key(|&(d, _)| d);
            let mut buf = PositionalList::new();
            for (d, p) in sorted {
                // Duplicate doc ids in the buffer: keep the first (push
                // enforces strict order, so skip dups).
                let _ = buf.push(d, p);
            }
            merged = merged.merge(&buf);
        }
        Ok(merged)
    }

    /// Seal the buffer into a new segment.
    pub fn commit(&mut self) -> StoreResult<()> {
        if self.buffer.is_empty() && self.pos_buffer.is_empty() {
            return Ok(());
        }
        let _span = self.metrics.commit_latency.start_span();
        let seg = self.next_seg;
        self.next_seg += 1;
        let next_seg = self.next_seg;
        self.kv.put(b"Mseg", &next_seg.to_be_bytes())?;
        let mut terms: Vec<(TermId, Vec<(u32, u32)>)> = self.buffer.drain().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        for (term, pairs) in terms {
            self.metrics.postings_flushed.add(pairs.len() as u64);
            let list = PostingList::from_pairs(pairs);
            let encoded = list.encode()?;
            self.kv.put(&Self::postings_key(term, seg), &encoded)?;
        }
        type PosTerm = (TermId, Vec<(u32, Vec<u32>)>);
        let mut pos_terms: Vec<PosTerm> = self.pos_buffer.drain().collect();
        pos_terms.sort_unstable_by_key(|&(t, _)| t);
        for (term, mut entries) in pos_terms {
            entries.sort_by_key(|&(d, _)| d);
            entries.dedup_by_key(|&mut (d, _)| d); // duplicate doc ids: keep first
            self.write_positional_chunks(term, seg, &entries)?;
        }
        self.buffered_docs = 0;
        self.metrics.commits.inc();
        self.stats.commits += 1;
        self.stats.segments = self.next_seg;
        Ok(())
    }

    /// All postings for `term` across buffer and segments, merged.
    pub fn postings(&self, term: TermId) -> StoreResult<PostingList> {
        let mut merged = PostingList::new();
        let prefix = Self::term_prefix(term);
        let rows = self.kv.scan_prefix(&prefix)?;
        for (_k, v) in rows {
            merged = merged.merge(&PostingList::decode(&v)?);
        }
        if let Some(pairs) = self.buffer.get(&term) {
            merged = merged.merge(&PostingList::from_pairs(pairs.clone()));
        }
        Ok(merged)
    }

    /// Document frequency of a term (docs containing it).
    pub fn df(&self, term: TermId) -> StoreResult<u32> {
        Ok(self.postings(term)?.len() as u32)
    }

    /// Compact all segments (plus the buffer) into segment 0.
    pub fn merge_segments(&mut self) -> StoreResult<()> {
        self.commit()?;
        // Positional namespace first (same per-term merge policy).
        {
            let all = self.kv.scan_prefix(b"Q")?;
            let mut per_term: HashMap<TermId, PositionalList> = HashMap::new();
            let mut old_keys = Vec::with_capacity(all.len());
            for (k, v) in all {
                if k.len() != 1 + 4 + 4 + 2 {
                    continue;
                }
                let term = u32::from_be_bytes(k[1..5].try_into().expect("checked"));
                let list = PositionalList::decode(&v)?;
                per_term
                    .entry(term)
                    .and_modify(|acc| *acc = acc.merge(&list))
                    .or_insert(list);
                old_keys.push(k);
            }
            for k in old_keys {
                self.kv.delete(&k)?;
            }
            let mut terms: Vec<(TermId, PositionalList)> = per_term.into_iter().collect();
            terms.sort_unstable_by_key(|&(t, _)| t);
            for (term, list) in terms {
                let entries: Vec<(u32, Vec<u32>)> = list.entries().to_vec();
                self.write_positional_chunks(term, 0, &entries)?;
            }
        }
        // Gather per-term merged lists.
        let all = self.kv.scan_prefix(b"P")?;
        let mut per_term: HashMap<TermId, PostingList> = HashMap::new();
        let mut old_keys = Vec::with_capacity(all.len());
        for (k, v) in all {
            if k.len() != 1 + 4 + 4 {
                continue;
            }
            let term = u32::from_be_bytes(k[1..5].try_into().expect("checked"));
            let list = PostingList::decode(&v)?;
            per_term
                .entry(term)
                .and_modify(|acc| *acc = acc.merge(&list))
                .or_insert(list);
            old_keys.push(k);
        }
        for k in old_keys {
            self.kv.delete(&k)?;
        }
        let mut terms: Vec<(TermId, PostingList)> = per_term.into_iter().collect();
        terms.sort_unstable_by_key(|&(t, _)| t);
        for (term, list) in terms {
            let encoded = list.encode()?;
            self.kv.put(&Self::postings_key(term, 0), &encoded)?;
        }
        self.next_seg = 1;
        self.kv.put(b"Mseg", &1u32.to_be_bytes())?;
        self.metrics.merges.inc();
        self.stats.merges += 1;
        self.stats.segments = 1;
        Ok(())
    }

    /// Flush everything durable.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        self.commit()?;
        self.kv.seal()
    }

    /// Pin a point-in-time read view: a store snapshot (a cheap run-set
    /// epoch pin) plus the in-memory buffers as of now. Queries on the
    /// returned [`IndexSnapshot`] never touch the store lock again, so
    /// mining demons read a stable view while ingest — and compaction —
    /// continue underneath.
    pub fn read_snapshot(&self) -> StoreResult<IndexSnapshot> {
        Ok(IndexSnapshot {
            view: self.kv.snapshot(),
            buffer: self.buffer.clone(),
            pos_buffer: self.pos_buffer.clone(),
            doc_len: self.doc_len.clone(),
            num_docs: self.stats.num_docs,
            total_tokens: self.total_tokens,
        })
    }

    pub fn num_docs(&self) -> u64 {
        self.stats.num_docs
    }

    /// Mean document length (tokens).
    pub fn avg_doc_len(&self) -> f64 {
        if self.stats.num_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.stats.num_docs as f64
        }
    }

    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }

    pub fn stats(&self) -> IndexStats {
        self.stats
    }

    fn postings_key(term: TermId, seg: u32) -> Vec<u8> {
        let mut k = Vec::with_capacity(9);
        k.push(b'P');
        k.extend_from_slice(&term.to_be_bytes());
        k.extend_from_slice(&seg.to_be_bytes());
        k
    }

    fn term_prefix(term: TermId) -> Vec<u8> {
        let mut k = Vec::with_capacity(5);
        k.push(b'P');
        k.extend_from_slice(&term.to_be_bytes());
        k
    }

    /// Positional keys carry a chunk index: frequent terms accumulate more
    /// position bytes per segment than one KV value may hold, so a
    /// segment's list is split across `Q<term><seg><chunk>` keys (the
    /// prefix scan in [`InvertedIndex::positions`] reassembles them).
    fn pos_key(term: TermId, seg: u32, chunk: u16) -> Vec<u8> {
        let mut k = Vec::with_capacity(11);
        k.push(b'Q');
        k.extend_from_slice(&term.to_be_bytes());
        k.extend_from_slice(&seg.to_be_bytes());
        k.extend_from_slice(&chunk.to_be_bytes());
        k
    }

    fn pos_prefix(term: TermId) -> Vec<u8> {
        let mut k = Vec::with_capacity(5);
        k.push(b'Q');
        k.extend_from_slice(&term.to_be_bytes());
        k
    }

    /// Write one segment's positional entries for `term`, split into
    /// chunks that each encode comfortably below the KV value cap. A
    /// single document's position list must fit on its own (guaranteed for
    /// realistic page lengths; violations surface as a store error).
    fn write_positional_chunks(
        &mut self,
        term: TermId,
        seg: u32,
        entries: &[(u32, Vec<u32>)],
    ) -> StoreResult<()> {
        const CHUNK_BUDGET: usize = 1_400; // encoded bytes per chunk, with headroom
        let mut chunk_idx: u16 = 0;
        let mut list = PositionalList::new();
        let mut approx = 0usize;
        for (d, p) in entries {
            let entry_cost = 8 + p.len() * 3;
            if approx > 0 && approx + entry_cost > CHUNK_BUDGET {
                let encoded = list.encode()?;
                self.kv
                    .put(&Self::pos_key(term, seg, chunk_idx), &encoded)?;
                chunk_idx += 1;
                list = PositionalList::new();
                approx = 0;
            }
            list.push(*d, p.clone())?;
            approx += entry_cost;
        }
        if !list.is_empty() {
            let encoded = list.encode()?;
            self.kv
                .put(&Self::pos_key(term, seg, chunk_idx), &encoded)?;
        }
        Ok(())
    }

    fn len_key(doc: u32) -> Vec<u8> {
        let mut k = Vec::with_capacity(5);
        k.push(b'L');
        k.extend_from_slice(&doc.to_be_bytes());
        k
    }
}

/// A pinned point-in-time view of the index: segments come from an
/// [`LsmSnapshot`], buffered (uncommitted) postings from a clone taken at
/// snapshot time. Every query here is lock-free — ingest proceeding on the
/// live [`InvertedIndex`] is invisible to this view.
pub struct IndexSnapshot {
    view: LsmSnapshot,
    buffer: HashMap<TermId, Vec<(u32, u32)>>,
    pos_buffer: HashMap<TermId, Vec<(u32, Vec<u32>)>>,
    doc_len: HashMap<u32, u32>,
    num_docs: u64,
    total_tokens: u64,
}

impl IndexSnapshot {
    /// The engine epoch this snapshot pinned.
    pub fn epoch(&self) -> u64 {
        self.view.epoch()
    }

    /// All postings for `term` as of snapshot time.
    pub fn postings(&self, term: TermId) -> StoreResult<PostingList> {
        let mut merged = PostingList::new();
        for (_k, v) in self.view.scan_prefix(&InvertedIndex::term_prefix(term)) {
            merged = merged.merge(&PostingList::decode(&v)?);
        }
        if let Some(pairs) = self.buffer.get(&term) {
            merged = merged.merge(&PostingList::from_pairs(pairs.clone()));
        }
        Ok(merged)
    }

    /// All positional postings for `term` as of snapshot time.
    pub fn positions(&self, term: TermId) -> StoreResult<PositionalList> {
        let mut merged = PositionalList::new();
        for (_k, v) in self.view.scan_prefix(&InvertedIndex::pos_prefix(term)) {
            merged = merged.merge(&PositionalList::decode(&v)?);
        }
        if let Some(entries) = self.pos_buffer.get(&term) {
            let mut sorted = entries.clone();
            sorted.sort_by_key(|&(d, _)| d);
            let mut buf = PositionalList::new();
            for (d, p) in sorted {
                let _ = buf.push(d, p); // duplicate doc ids: keep first
            }
            merged = merged.merge(&buf);
        }
        Ok(merged)
    }

    /// Document frequency of a term as of snapshot time.
    pub fn df(&self, term: TermId) -> StoreResult<u32> {
        Ok(self.postings(term)?.len() as u32)
    }

    pub fn num_docs(&self) -> u64 {
        self.num_docs
    }

    /// Mean document length (tokens) as of snapshot time.
    pub fn avg_doc_len(&self) -> f64 {
        if self.num_docs == 0 {
            0.0
        } else {
            self.total_tokens as f64 / self.num_docs as f64
        }
    }

    pub fn doc_len(&self, doc: u32) -> u32 {
        self.doc_len.get(&doc).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn idx() -> InvertedIndex {
        InvertedIndex::open_memory(IndexOptions {
            auto_commit_docs: 4,
        })
        .unwrap()
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
    fn auto_commit_triggers_and_segments_accumulate() {
        let mut ix = idx();
        for d in 0..9u32 {
            ix.add_document(d, &[(7, 1)]).unwrap();
        }
        assert!(ix.stats().commits >= 2);
        assert_eq!(ix.postings(7).unwrap().len(), 9);
    }

    #[test]
    fn merge_compacts_to_one_segment() {
        let mut ix = idx();
        for d in 0..20u32 {
            ix.add_document(d, &[(1, 1), (2 + d % 3, 1)]).unwrap();
        }
        ix.merge_segments().unwrap();
        assert_eq!(ix.stats().segments, 1);
        assert_eq!(ix.postings(1).unwrap().len(), 20);
        assert_eq!(ix.df(2).unwrap(), 7);
        // Still writable after a merge.
        ix.add_document(100, &[(1, 5)]).unwrap();
        assert_eq!(ix.postings(1).unwrap().len(), 21);
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
            let mut ix = InvertedIndex::open_dir(&dir, IndexOptions::default()).unwrap();
            ix.add_document(5, &[(42, 2)]).unwrap();
            ix.checkpoint().unwrap();
        }
        {
            let mut ix = InvertedIndex::open_dir(&dir, IndexOptions::default()).unwrap();
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
    fn common_terms_chunk_across_kv_values() {
        // Regression: a term occurring many times in many documents of one
        // segment must not blow the KV value cap — its positional list is
        // chunked across keys and reassembled on read.
        let mut ix = InvertedIndex::open_memory(IndexOptions {
            auto_commit_docs: 4096,
        })
        .unwrap();
        let common = 7u32;
        for d in 0..400u32 {
            // 20 occurrences per document.
            let seq: Vec<u32> = (0..20)
                .map(|i| if i % 2 == 0 { common } else { 1000 + d })
                .collect();
            ix.add_document_positional(d, &seq).unwrap();
        }
        ix.commit().unwrap();
        let list = ix.positions(common).unwrap();
        assert_eq!(list.len(), 400);
        assert_eq!(list.positions(123), &[0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
        ix.merge_segments().unwrap();
        let list = ix.positions(common).unwrap();
        assert_eq!(list.len(), 400);
        assert_eq!(ix.postings(common).unwrap().len(), 400);
    }

    #[test]
    fn snapshot_pins_postings_while_ingest_continues() {
        let mut ix = InvertedIndex::open_memory(IndexOptions {
            auto_commit_docs: 2,
        })
        .unwrap();
        for d in 0..5u32 {
            ix.add_document(d, &[(7, 1)]).unwrap();
        }
        let snap = ix.read_snapshot().unwrap();
        for d in 5..40u32 {
            ix.add_document(d, &[(7, 2)]).unwrap();
        }
        ix.merge_segments().unwrap();
        // The live index sees everything; the snapshot sees exactly
        // the pre-burst state — committed segments and the buffer.
        assert_eq!(ix.postings(7).unwrap().len(), 40);
        assert_eq!(snap.postings(7).unwrap().len(), 5);
        assert_eq!(snap.num_docs(), 5);
        assert_eq!(snap.doc_len(3), 1);
        assert_eq!(snap.df(7).unwrap(), 5);
        assert_eq!(snap.df(999).unwrap(), 0);
    }

    #[test]
    fn unknown_term_is_empty() {
        let ix = idx();
        assert!(ix.postings(999).unwrap().is_empty());
        assert_eq!(ix.df(999).unwrap(), 0);
    }
}
