//! Ranked (BM25) retrieval over the inverted index.
//!
//! One search serves both questions asked of it. [`bm25_search`] ranks
//! every document that matches; [`bm25_search_among`] ranks the matching
//! documents among a caller's candidates — recall's "only pages I visited".
//! It scores term at a time, reading each query term's postings where they
//! lie ([`InvertedIndex::for_each_posting`]): a posting of a document that
//! is not a candidate is dropped as it is read, and a candidate's tf goes
//! into that candidate's slot, one row of slots per candidate. Only then,
//! with every term's df known, is each candidate's score summed, in
//! query-term order. A non-candidate never competes for the `k` places, so
//! `k` is what the caller wants back, not a guess at how deep the
//! unfiltered ranking must be cut for enough of the caller's documents to
//! survive.

use memex_store::error::StoreResult;
use memex_text::vocab::TermId;

use crate::index::InvertedIndex;

/// One ranked result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SearchHit {
    pub doc: u32,
    pub score: f32,
}

/// BM25 parameters (classic defaults).
#[derive(Debug, Clone, Copy)]
pub struct Bm25Params {
    pub k1: f32,
    pub b: f32,
}

impl Default for Bm25Params {
    fn default() -> Self {
        Bm25Params { k1: 1.2, b: 0.75 }
    }
}

/// The documents a search scores, each with a slot: a bitset over the
/// document ids `0..=max_doc` of the index, plus per 64-bit word the number
/// of candidates below it, so a candidate's slot is its rank among the
/// candidates. Sized by the index, never by the candidates: an id the
/// index does not hold cannot match, and a candidate list may hold any id.
/// Document ids are page ids, dense from 0, so the bitset is about one bit
/// a document.
struct Candidates {
    bits: Vec<u64>,
    rank: Vec<u32>,
    len: usize,
}

impl Candidates {
    /// Every id up to `max_doc`, or those of them in `among`, in whatever
    /// order and however often `among` lists them.
    fn new(max_doc: u32, among: Option<&[u32]>) -> Candidates {
        let words = max_doc as usize / 64 + 1;
        let mut bits = vec![0u64; words];
        match among {
            None => {
                bits.fill(u64::MAX);
                if let Some(last) = bits.last_mut() {
                    *last = u64::MAX >> (63 - max_doc % 64);
                }
            }
            Some(among) => {
                for &doc in among.iter().filter(|&&doc| doc <= max_doc) {
                    if let Some(word) = bits.get_mut(doc as usize / 64) {
                        *word |= 1 << (doc % 64);
                    }
                }
            }
        }
        let mut rank = Vec::with_capacity(words);
        let mut len = 0u32;
        for word in &bits {
            rank.push(len);
            len += word.count_ones();
        }
        Candidates {
            bits,
            rank,
            len: len as usize,
        }
    }

    /// `doc`'s slot, if it is a candidate.
    #[inline]
    fn slot(&self, doc: u32) -> Option<usize> {
        let at = doc as usize / 64;
        let (word, rank) = (self.bits.get(at)?, self.rank.get(at)?);
        let bit = 1u64 << (doc % 64);
        (word & bit != 0).then(|| *rank as usize + (word & (bit - 1)).count_ones() as usize)
    }

    /// The candidates in ascending order, which is slot order.
    fn docs(&self) -> impl Iterator<Item = u32> + '_ {
        self.bits.iter().enumerate().flat_map(|(at, &word)| {
            let mut rest = word;
            std::iter::from_fn(move || {
                (rest != 0).then(|| {
                    let bit = rest.trailing_zeros();
                    rest &= rest - 1;
                    at as u32 * 64 + bit
                })
            })
        })
    }
}

/// Ranked top-`k` retrieval for a bag-of-terms query: [`bm25_search_among`]
/// with every document a candidate.
pub fn bm25_search(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
) -> StoreResult<Vec<SearchHit>> {
    search(index, query_terms, k, params, None)
}

/// Ranked top-`k` retrieval among the documents in `candidates`, which may
/// come in any order, repeat, and name documents the index lacks: the
/// answer depends only on the set of ids.
///
/// Each query term's postings are read once, where they lie, and a
/// candidate's tf is kept in its slot; a candidate with any tf is then
/// scored by summing, in query-term order, the share of every term that
/// has it — the same f32 expression a document-at-a-time merge would
/// evaluate, so every score is bit for bit the same. The best `k` are then
/// selected, and only those sorted, by `(score desc, doc asc)`.
pub fn bm25_search_among(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
    candidates: &[u32],
) -> StoreResult<Vec<SearchHit>> {
    search(index, query_terms, k, params, Some(candidates))
}

fn search(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
    among: Option<&[u32]>,
) -> StoreResult<Vec<SearchHit>> {
    let _span = index.metrics.query_latency.start_span();
    let max_doc = match index.max_doc() {
        Some(max_doc) if !query_terms.is_empty() && k > 0 => max_doc,
        _ => return Ok(Vec::new()),
    };
    let n = index.num_docs() as f32;
    let avg_len = index.avg_doc_len() as f32;
    let candidates = Candidates::new(max_doc, among);
    // Row per candidate, column per query term: its tf, 0 for none.
    let terms = query_terms.len();
    let mut tfs = vec![0u32; candidates.len * terms];
    let mut idfs = Vec::with_capacity(terms);
    let mut postings_read = 0u64;
    for (column, &(term, _)) in query_terms.iter().enumerate() {
        let df = index.for_each_posting(term, |doc, tf| {
            if let Some(cell) = candidates
                .slot(doc)
                .and_then(|slot| tfs.get_mut(slot * terms + column))
            {
                *cell = tf;
            }
        })?;
        postings_read += df;
        let df = df as f32;
        // BM25 idf with the usual +1 to keep it positive.
        idfs.push(((n - df + 0.5) / (df + 0.5) + 1.0).ln());
    }
    let mut hits: Vec<SearchHit> = Vec::with_capacity(candidates.len);
    for (doc, row) in candidates.docs().zip(tfs.chunks_exact(terms)) {
        if row.iter().all(|&tf| tf == 0) {
            continue;
        }
        let dl = index.doc_len(doc) as f32;
        let length_norm = params.k1 * (1.0 - params.b + params.b * dl / avg_len.max(1.0));
        let mut score = 0.0f32;
        for ((&tf, &idf), &(_, qtf)) in row.iter().zip(&idfs).zip(query_terms) {
            if tf != 0 {
                let tf = tf as f32;
                let contribution = idf * tf * (params.k1 + 1.0) / (tf + length_norm);
                score += contribution * qtf as f32;
            }
        }
        hits.push(SearchHit { doc, score });
    }
    index.metrics.query_postings.add(postings_read);
    index.metrics.query_scored.add(hits.len() as u64);
    let by_rank = |a: &SearchHit, b: &SearchHit| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    };
    if k < hits.len() {
        hits.select_nth_unstable_by(k, by_rank);
        hits.truncate(k);
    }
    hits.sort_unstable_by(by_rank);
    Ok(hits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::InvertedIndex;

    /// Docs: 1 = "music music bach", 2 = "music cycling", 3 = "cycling
    /// cycling gear", 4 = long doc mentioning music once.
    fn corpus() -> InvertedIndex {
        let mut ix = InvertedIndex::open_memory().unwrap();
        const MUSIC: u32 = 1;
        const BACH: u32 = 2;
        const CYCLING: u32 = 3;
        const GEAR: u32 = 4;
        const FILLER: u32 = 5;
        ix.add_document(1, &[(MUSIC, 2), (BACH, 1)]).unwrap();
        ix.add_document(2, &[(MUSIC, 1), (CYCLING, 1)]).unwrap();
        ix.add_document(3, &[(CYCLING, 2), (GEAR, 1)]).unwrap();
        ix.add_document(4, &[(MUSIC, 1), (FILLER, 50)]).unwrap();
        ix
    }

    #[test]
    fn bm25_ranks_frequency_and_length() {
        let ix = corpus();
        let hits = bm25_search(&ix, &[(1, 1)], 10, Bm25Params::default()).unwrap();
        assert_eq!(hits.len(), 3);
        assert_eq!(hits[0].doc, 1, "doc with tf=2 ranks first");
        // The long doc (4) is penalised below the short doc (2).
        let pos2 = hits.iter().position(|h| h.doc == 2).unwrap();
        let pos4 = hits.iter().position(|h| h.doc == 4).unwrap();
        assert!(pos2 < pos4, "length normalisation must demote doc 4");
        assert!(hits.windows(2).all(|w| w[0].score >= w[1].score));
    }

    #[test]
    fn multi_term_queries_prefer_docs_matching_both() {
        let ix = corpus();
        let hits = bm25_search(&ix, &[(1, 1), (3, 1)], 10, Bm25Params::default()).unwrap();
        assert_eq!(hits[0].doc, 2, "only doc 2 has music AND cycling");
    }

    #[test]
    fn rare_terms_weigh_more() {
        let ix = corpus();
        // bach (df=1) should outscore music (df=3) for the same doc/tf.
        let b = bm25_search(&ix, &[(2, 1)], 1, Bm25Params::default()).unwrap();
        let m = bm25_search(&ix, &[(1, 1)], 3, Bm25Params::default()).unwrap();
        let music_score_doc1 = m.iter().find(|h| h.doc == 1).unwrap().score;
        assert!(b[0].score > music_score_doc1 / 2.0);
        assert_eq!(b[0].doc, 1);
    }

    #[test]
    fn top_k_truncates() {
        let ix = corpus();
        let hits = bm25_search(&ix, &[(1, 1)], 2, Bm25Params::default()).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(bm25_search(&ix, &[(1, 1)], 0, Bm25Params::default())
            .unwrap()
            .is_empty());
        assert!(bm25_search(&ix, &[], 5, Bm25Params::default())
            .unwrap()
            .is_empty());
        assert!(bm25_search(&ix, &[(99, 1)], 5, Bm25Params::default())
            .unwrap()
            .is_empty());
    }

    #[test]
    fn a_candidate_slot_is_its_rank_among_the_candidates() {
        let among = Candidates::new(200, Some(&[130, 3, 64, 3, 200, 201, u32::MAX, 63]));
        assert_eq!(among.len, 5, "repeats and ids past the index drop out");
        assert_eq!(among.bits.len(), 4, "sized by the index's largest id");
        for (slot, doc) in [3, 63, 64, 130, 200].into_iter().enumerate() {
            assert_eq!(among.slot(doc), Some(slot));
        }
        for doc in [0, 65, 201, u32::MAX] {
            assert_eq!(among.slot(doc), None);
        }
        assert_eq!(among.docs().collect::<Vec<_>>(), [3, 63, 64, 130, 200]);
        let every = Candidates::new(127, None);
        assert_eq!(every.len, 128);
        assert_eq!(every.slot(127), Some(127));
        assert_eq!(every.docs().count(), 128);
    }

    #[test]
    fn empty_index_is_graceful() {
        let ix = InvertedIndex::open_memory().unwrap();
        assert!(bm25_search(&ix, &[(1, 1)], 5, Bm25Params::default())
            .unwrap()
            .is_empty());
    }
}
