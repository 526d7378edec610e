//! Ranked (BM25) retrieval over the inverted index.
//!
//! One merge loop serves both questions asked of it. [`bm25_search`] ranks
//! every document that matches; [`bm25_search_among`] ranks the matching
//! documents a caller's filter keeps — recall's "only pages I visited" —
//! and asks the filter *before* a document costs anything: a rejected
//! document is stepped over in the posting lists, never scored, and never
//! competes for the `k` places. So `k` is what the caller wants back, not
//! a guess at how deep the unfiltered ranking must be cut for enough of
//! the caller's documents to survive.

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

/// One query term's postings, consumed front to back by the merge.
struct TermCursor<'a> {
    idf: f32,
    qtf: f32,
    rest: &'a [(u32, u32)],
}

/// Ranked top-`k` retrieval for a bag-of-terms query: [`bm25_search_among`]
/// with every document kept.
pub fn bm25_search(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
) -> StoreResult<Vec<SearchHit>> {
    bm25_search_among(index, query_terms, k, params, |_| true)
}

/// Ranked top-`k` retrieval among the documents `keep` accepts.
///
/// Posting lists are sorted by document, so the lists of the query's terms
/// are merged in one pass: the smallest document under any cursor is scored
/// by summing, in query-term order, the share of every term that has it —
/// one score per matching document, no table keyed by document. The best
/// `k` are then selected, and only those sorted, by `(score desc, doc asc)`.
///
/// `keep` is asked exactly once per matching document, in ascending
/// document order (so a caller holding a sorted set can answer from a
/// cursor), before the document's length is read. A kept document's score
/// does not depend on what else was kept.
pub fn bm25_search_among(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
    mut keep: impl FnMut(u32) -> bool,
) -> StoreResult<Vec<SearchHit>> {
    let _span = index.metrics.query_latency.start_span();
    let _trace = memex_obs::trace::span("index.bm25");
    let n = index.num_docs() as f32;
    if n == 0.0 || query_terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let avg_len = index.avg_doc_len() as f32;
    let lists = query_terms
        .iter()
        .map(|&(term, _)| index.postings(term))
        .collect::<StoreResult<Vec<_>>>()?;
    let mut cursors: Vec<TermCursor> = Vec::with_capacity(lists.len());
    for (list, &(_, qtf)) in lists.iter().zip(query_terms) {
        let df = list.len() as f32;
        if df == 0.0 {
            continue;
        }
        cursors.push(TermCursor {
            // BM25 idf with the usual +1 to keep it positive.
            idf: ((n - df + 0.5) / (df + 0.5) + 1.0).ln(),
            qtf: qtf as f32,
            rest: list.entries(),
        });
    }
    let mut hits: Vec<SearchHit> = Vec::new();
    let mut postings_walked = 0u64;
    while let Some(doc) = cursors
        .iter()
        .filter_map(|c| c.rest.first().map(|&(doc, _)| doc))
        .min()
    {
        // `None`: rejected, its postings are only stepped over.
        let length_norm = keep(doc).then(|| {
            let dl = index.doc_len(doc) as f32;
            params.k1 * (1.0 - params.b + params.b * dl / avg_len.max(1.0))
        });
        let mut score = 0.0f32;
        for c in &mut cursors {
            if let Some((&(d, tf), rest)) = c.rest.split_first() {
                if d == doc {
                    c.rest = rest;
                    postings_walked += 1;
                    if let Some(length_norm) = length_norm {
                        let tf = tf as f32;
                        let contribution = c.idf * tf * (params.k1 + 1.0) / (tf + length_norm);
                        score += contribution * c.qtf;
                    }
                }
            }
        }
        if length_norm.is_some() {
            hits.push(SearchHit { doc, score });
        }
    }
    index.metrics.query_postings.add(postings_walked);
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
    fn empty_index_is_graceful() {
        let ix = InvertedIndex::open_memory().unwrap();
        assert!(bm25_search(&ix, &[(1, 1)], 5, Bm25Params::default())
            .unwrap()
            .is_empty());
    }
}
