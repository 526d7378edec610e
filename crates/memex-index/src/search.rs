//! Ranked (BM25) and boolean retrieval over the inverted index.

use std::collections::HashMap;

use memex_store::error::StoreResult;
use memex_text::vocab::TermId;

use crate::index::InvertedIndex;
use crate::postings::{difference, intersect, union};

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

/// Ranked top-`k` retrieval for a bag-of-terms query.
pub fn bm25_search(
    index: &InvertedIndex,
    query_terms: &[(TermId, u32)],
    k: usize,
    params: Bm25Params,
) -> StoreResult<Vec<SearchHit>> {
    let _span = index.metrics.query_latency.start_span();
    let _trace = memex_obs::trace::span("index.bm25");
    let n = index.num_docs() as f32;
    if n == 0.0 || query_terms.is_empty() || k == 0 {
        return Ok(Vec::new());
    }
    let avg_len = index.avg_doc_len() as f32;
    let mut scores: HashMap<u32, f32> = HashMap::new();
    for &(term, qtf) in query_terms {
        let postings = index.postings(term)?;
        let df = postings.len() as f32;
        if df == 0.0 {
            continue;
        }
        // BM25 idf with the usual +1 to keep it positive.
        let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        for &(doc, tf) in postings.entries() {
            let dl = index.doc_len(doc) as f32;
            let tf = tf as f32;
            let denom = tf + params.k1 * (1.0 - params.b + params.b * dl / avg_len.max(1.0));
            let contribution = idf * tf * (params.k1 + 1.0) / denom;
            *scores.entry(doc).or_insert(0.0) += contribution * qtf as f32;
        }
    }
    let mut hits: Vec<SearchHit> = scores
        .into_iter()
        .map(|(doc, score)| SearchHit { doc, score })
        .collect();
    hits.sort_by(|a, b| {
        b.score
            .partial_cmp(&a.score)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.doc.cmp(&b.doc))
    });
    hits.truncate(k);
    Ok(hits)
}

/// Exact phrase search over positional postings: documents containing the
/// terms at strictly consecutive positions (in the analysed token stream —
/// stopwords removed, stems applied — so "compiler optimization" matches
/// "compilers optimize"). Returns sorted doc ids. A single-term phrase
/// degenerates to that term's document list; an empty phrase matches
/// nothing. Only documents indexed via
/// [`InvertedIndex::add_document_positional`] can match.
pub fn phrase_search(index: &InvertedIndex, phrase: &[TermId]) -> StoreResult<Vec<u32>> {
    let _span = index.metrics.query_latency.start_span();
    let _trace = memex_obs::trace::span("index.phrase");
    let Some((&first, rest)) = phrase.split_first() else {
        return Ok(Vec::new());
    };
    let first_list = index.positions(first)?;
    if rest.is_empty() {
        return Ok(first_list.entries().iter().map(|&(d, _)| d).collect());
    }
    let rest_lists: Vec<_> = rest
        .iter()
        .map(|&t| index.positions(t))
        .collect::<StoreResult<Vec<_>>>()?;
    let mut out = Vec::new();
    'docs: for (doc, first_positions) in first_list.entries() {
        // Candidate start positions; prune against each following term.
        let mut starts: Vec<u32> = first_positions.clone();
        for (offset, list) in rest_lists.iter().enumerate() {
            let needed = offset as u32 + 1;
            let positions = list.positions(*doc);
            if positions.is_empty() {
                continue 'docs;
            }
            starts.retain(|&s| positions.binary_search(&(s + needed)).is_ok());
            if starts.is_empty() {
                continue 'docs;
            }
        }
        out.push(*doc);
    }
    Ok(out)
}

/// Boolean query tree. `Not` is interpreted as "all indexed docs minus X"
/// using the given universe, so it composes anywhere.
#[derive(Debug, Clone)]
pub enum BoolExpr {
    Term(TermId),
    And(Vec<BoolExpr>),
    Or(Vec<BoolExpr>),
    Not(Box<BoolExpr>),
}

/// Evaluate a boolean expression to a sorted doc-id set. `universe` must be
/// sorted (use all doc ids for full NOT semantics).
pub fn boolean_search(
    index: &InvertedIndex,
    expr: &BoolExpr,
    universe: &[u32],
) -> StoreResult<Vec<u32>> {
    let _trace = memex_obs::trace::span("index.boolean");
    Ok(match expr {
        BoolExpr::Term(t) => index.postings(*t)?.docs(),
        BoolExpr::And(parts) => {
            let mut acc: Option<Vec<u32>> = None;
            for p in parts {
                let s = boolean_search(index, p, universe)?;
                acc = Some(match acc {
                    None => s,
                    Some(a) => intersect(&a, &s),
                });
                if acc.as_ref().is_some_and(Vec::is_empty) {
                    break;
                }
            }
            acc.unwrap_or_default()
        }
        BoolExpr::Or(parts) => {
            let mut acc = Vec::new();
            for p in parts {
                acc = union(&acc, &boolean_search(index, p, universe)?);
            }
            acc
        }
        BoolExpr::Not(inner) => difference(universe, &boolean_search(index, inner, universe)?),
    })
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
    fn boolean_combinators() {
        let ix = corpus();
        let universe = vec![1, 2, 3, 4];
        let and = BoolExpr::And(vec![BoolExpr::Term(1), BoolExpr::Term(3)]);
        assert_eq!(boolean_search(&ix, &and, &universe).unwrap(), vec![2]);
        let or = BoolExpr::Or(vec![BoolExpr::Term(2), BoolExpr::Term(4)]);
        assert_eq!(boolean_search(&ix, &or, &universe).unwrap(), vec![1, 3]);
        let and_not = BoolExpr::And(vec![
            BoolExpr::Term(1),
            BoolExpr::Not(Box::new(BoolExpr::Term(3))),
        ]);
        assert_eq!(
            boolean_search(&ix, &and_not, &universe).unwrap(),
            vec![1, 4]
        );
        let nothing = BoolExpr::And(vec![BoolExpr::Term(2), BoolExpr::Term(4)]);
        assert!(boolean_search(&ix, &nothing, &universe).unwrap().is_empty());
    }

    #[test]
    fn phrase_search_requires_adjacency() {
        let mut ix = InvertedIndex::open_memory().unwrap();
        // Doc 1: "music bach organ"; doc 2: "music organ bach"; doc 3:
        // "bach music" (reverse); term ids: music=1, bach=2, organ=3.
        ix.add_document_positional(1, &[1, 2, 3]).unwrap();
        ix.add_document_positional(2, &[1, 3, 2]).unwrap();
        ix.add_document_positional(3, &[2, 1]).unwrap();
        assert_eq!(phrase_search(&ix, &[1, 2]).unwrap(), vec![1], "music bach");
        assert_eq!(phrase_search(&ix, &[2, 1]).unwrap(), vec![3], "bach music");
        assert_eq!(phrase_search(&ix, &[1, 2, 3]).unwrap(), vec![1]);
        assert_eq!(phrase_search(&ix, &[1]).unwrap(), vec![1, 2, 3]);
        assert!(phrase_search(&ix, &[]).unwrap().is_empty());
        assert!(phrase_search(&ix, &[3, 1]).unwrap().is_empty());
        // Ranked search still sees positionally-indexed docs.
        let hits = bm25_search(&ix, &[(1, 1)], 10, Bm25Params::default()).unwrap();
        assert_eq!(hits.len(), 3);
    }

    #[test]
    fn phrase_search_spans_segments_and_the_buffer() {
        let mut ix = InvertedIndex::open_memory().unwrap();
        ix.add_document_positional(1, &[7, 8]).unwrap();
        ix.commit().unwrap();
        ix.add_document_positional(2, &[7, 8]).unwrap();
        ix.add_document_positional(3, &[8, 7]).unwrap();
        assert_eq!(phrase_search(&ix, &[7, 8]).unwrap(), vec![1, 2]);
        ix.commit().unwrap();
        ix.add_document_positional(4, &[7, 8]).unwrap();
        assert_eq!(phrase_search(&ix, &[7, 8]).unwrap(), vec![1, 2, 4]);
    }

    #[test]
    fn empty_index_is_graceful() {
        let ix = InvertedIndex::open_memory().unwrap();
        assert!(bm25_search(&ix, &[(1, 1)], 5, Bm25Params::default())
            .unwrap()
            .is_empty());
        assert!(boolean_search(&ix, &BoolExpr::Term(1), &[])
            .unwrap()
            .is_empty());
    }
}
