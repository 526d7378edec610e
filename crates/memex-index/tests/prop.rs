//! Property tests for the inverted index: it agrees with a naive in-memory
//! model wherever the segment boundaries fall, ranked search over it
//! returns what scoring every posting into a table returned, and a filtered
//! search returns what filtering the whole ranking returned — also over
//! documents that arrive out of order and are re-added.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use proptest::prelude::*;

use memex_index::index::InvertedIndex;
use memex_index::postings::PostingList;
use memex_index::search::{bm25_search, bm25_search_among, Bm25Params, SearchHit};

/// `bm25_search` as it was before it merged posting lists: every posting of
/// every query term added into a table keyed by document, the whole table
/// sorted, `k` kept. The reference the merge is held to, bit for bit.
fn bm25_by_table(
    index: &InvertedIndex,
    query_terms: &[(u32, u32)],
    k: usize,
    params: Bm25Params,
) -> Vec<SearchHit> {
    let corpus = Corpus {
        n: index.num_docs() as f32,
        avg_len: index.avg_doc_len() as f32,
        postings: &|term| index.postings(term).unwrap().entries().to_vec(),
        doc_len: &|doc| index.doc_len(doc),
    };
    bm25_over(&corpus, query_terms, k, params)
}

/// What BM25 reads of an index, from wherever the test takes it.
struct Corpus<'a> {
    n: f32,
    avg_len: f32,
    postings: &'a dyn Fn(u32) -> Vec<(u32, u32)>,
    doc_len: &'a dyn Fn(u32) -> u32,
}

/// [`bm25_by_table`] over `corpus`.
fn bm25_over(
    corpus: &Corpus,
    query_terms: &[(u32, u32)],
    k: usize,
    params: Bm25Params,
) -> Vec<SearchHit> {
    let (n, avg_len) = (corpus.n, corpus.avg_len);
    if n == 0.0 || query_terms.is_empty() || k == 0 {
        return Vec::new();
    }
    let mut scores: HashMap<u32, f32> = HashMap::new();
    for &(term, qtf) in query_terms {
        let postings = (corpus.postings)(term);
        let df = postings.len() as f32;
        if df == 0.0 {
            continue;
        }
        let idf = ((n - df + 0.5) / (df + 0.5) + 1.0).ln();
        for &(doc, tf) in &postings {
            let dl = (corpus.doc_len)(doc) as f32;
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
    hits
}

#[derive(Debug, Clone)]
enum Op {
    Add { doc: u32, terms: Vec<(u32, u32)> },
    Commit,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u32..30, proptest::collection::vec((0u32..12, 1u32..4), 1..6))
            .prop_map(|(doc, terms)| Op::Add { doc, terms }),
        2 => Just(Op::Commit),
    ]
}

/// One step of [`postings_and_scores_equal_the_model_after_every_step`]:
/// a document added (its pairs may repeat a term, and a tf may be 0, which
/// adds nothing) or the buffer sealed.
#[derive(Debug, Clone)]
enum Step {
    Add { doc: u32, pairs: Vec<(u32, u32)> },
    Commit,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        5 => (0u32..24, proptest::collection::vec((0u32..8, 0u32..5), 0..6))
            .prop_map(|(doc, pairs)| Step::Add { doc, pairs }),
        1 => Just(Step::Commit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Documents arrive in any order and are re-added with larger and
    /// smaller tfs, the buffer sealed at random points: after every step,
    /// a term's postings are `from_pairs` of every pair ever added for it
    /// — itself the model's per-document largest tf — and filtered BM25
    /// scores, bit for bit, what the table scores over the model's lists.
    #[test]
    fn postings_and_scores_equal_the_model_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..48),
        query in proptest::collection::vec((0u32..9, 1u32..3), 1..4),
        kept in proptest::collection::btree_set(0u32..24, 0..24),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        // term -> every pair added for it, in arrival order.
        let mut added: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
        // doc -> its last length.
        let mut lengths: BTreeMap<u32, u32> = BTreeMap::new();
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Add { doc, pairs } => {
                    index.add_document(*doc, pairs).unwrap();
                    for &(t, c) in pairs.iter().filter(|&&(_, c)| c > 0) {
                        added.entry(t).or_default().push((*doc, c));
                    }
                    lengths.insert(*doc, pairs.iter().map(|&(_, c)| c).sum());
                }
                Step::Commit => index.commit().unwrap(),
            }
            let mut model: BTreeMap<u32, Vec<(u32, u32)>> = BTreeMap::new();
            for (&t, pairs) in &added {
                let mut max_tf: BTreeMap<u32, u32> = BTreeMap::new();
                for &(d, c) in pairs {
                    let tf = max_tf.entry(d).or_insert(0);
                    *tf = (*tf).max(c);
                }
                let list: Vec<(u32, u32)> = max_tf.into_iter().collect();
                prop_assert_eq!(PostingList::from_pairs(pairs.clone()).entries(), list.as_slice());
                model.insert(t, list);
            }
            for term in 0u32..9 {
                let expected = model.get(&term).cloned().unwrap_or_default();
                prop_assert_eq!(
                    index.postings(term).unwrap().entries(), expected.as_slice(),
                    "term {} after step {}", term, i
                );
            }
            let total: u64 = lengths.values().map(|&l| u64::from(l)).sum();
            let corpus = Corpus {
                n: lengths.len() as f32,
                avg_len: if lengths.is_empty() { 0.0 } else { (total as f64 / lengths.len() as f64) as f32 },
                postings: &|term| model.get(&term).cloned().unwrap_or_default(),
                doc_len: &|doc| lengths.get(&doc).copied().unwrap_or(0),
            };
            let everything = bm25_over(&corpus, &query, usize::MAX, Bm25Params::default());
            let expected: Vec<SearchHit> =
                everything.into_iter().filter(|h| kept.contains(&h.doc)).collect();
            for k in [1, expected.len(), usize::MAX] {
                let got = bm25_search_among(&index, &query, k, Bm25Params::default(), |doc| {
                    kept.contains(&doc)
                })
                .unwrap();
                prop_assert_eq!(got.len(), expected.len().min(k), "k {} after step {}", k, i);
                for (g, e) in got.iter().zip(&expected) {
                    prop_assert_eq!(g.doc, e.doc, "k {} got {:?} expected {:?}", k, got, expected);
                    prop_assert_eq!(g.score.to_bits(), e.score.to_bits(), "doc {}", g.doc);
                }
            }
        }
    }

    /// The index's postings match a reference model regardless of when
    /// commits happen.
    #[test]
    fn index_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut index = InvertedIndex::open_memory().unwrap();
        // term -> doc -> max tf (re-adds keep the max, see add_document docs).
        let mut model: BTreeMap<u32, BTreeMap<u32, u32>> = BTreeMap::new();
        let mut seen_docs: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Add { doc, terms } => {
                    // A re-added doc id unions its postings per-term-max; to
                    // keep the model simple we skip duplicate ids.
                    if !seen_docs.insert(doc) {
                        continue;
                    }
                    let mut merged: BTreeMap<u32, u32> = BTreeMap::new();
                    for (t, c) in terms {
                        *merged.entry(t).or_insert(0) += c;
                    }
                    let tf: Vec<(u32, u32)> = merged.iter().map(|(&t, &c)| (t, c)).collect();
                    index.add_document(doc, &tf).unwrap();
                    for (t, c) in merged {
                        model.entry(t).or_default().insert(doc, c);
                    }
                }
                Op::Commit => index.commit().unwrap(),
            }
        }
        for term in 0u32..12 {
            let got = index.postings(term).unwrap();
            let expected: Vec<(u32, u32)> = model
                .get(&term)
                .map(|m| m.iter().map(|(&d, &c)| (d, c)).collect())
                .unwrap_or_default();
            prop_assert_eq!(got.entries(), expected.as_slice(), "term {}", term);
        }
        prop_assert_eq!(index.num_docs(), seen_docs.len() as u64);
    }

    /// The merge scores like the table did: the same documents in the same
    /// order with the same bits, for one to four query terms (a term may
    /// repeat, `qtf` may exceed 1, a term may match nothing), documents
    /// with equal scores, postings split between a sealed segment and the
    /// buffer, and `k` below, at and above the number of matches.
    #[test]
    fn bm25_merge_equals_the_table(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..5), 1..40),
        sealed in 0usize..40,
        query in proptest::collection::vec((0u32..10, 1u32..4), 1..5),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        for (doc, terms) in docs.iter().enumerate() {
            // tf from a small range, so equal-score documents are common.
            let tf: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1 + (doc as u32 + t) % 3)).collect();
            index.add_document(doc as u32, &tf).unwrap();
            if doc + 1 == sealed {
                index.commit().unwrap();
            }
        }
        let params = Bm25Params::default();
        let matches = bm25_by_table(&index, &query, usize::MAX, params).len();
        for k in [1, matches.saturating_sub(1), matches, matches + 1, usize::MAX] {
            let got = bm25_search(&index, &query, k, params).unwrap();
            let expected = bm25_by_table(&index, &query, k, params);
            prop_assert_eq!(got.len(), expected.len(), "k {}", k);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.doc, e.doc, "k {} got {:?} expected {:?}", k, got, expected);
                prop_assert_eq!(g.score.to_bits(), e.score.to_bits(), "doc {}", g.doc);
            }
        }
    }

    /// Filtering inside the merge is filtering the whole ranking afterwards:
    /// the same documents in the same order with the same bits, for every
    /// `k` — and `keep` is asked about each matching document exactly once,
    /// in ascending order, about nothing else.
    #[test]
    fn filtered_search_equals_filtering_the_whole_ranking(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..5), 1..40),
        sealed in 0usize..40,
        query in proptest::collection::vec((0u32..10, 1u32..4), 1..5),
        kept in proptest::collection::btree_set(0u32..40, 0..40),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        for (doc, terms) in docs.iter().enumerate() {
            let tf: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1 + (doc as u32 + t) % 3)).collect();
            index.add_document(doc as u32, &tf).unwrap();
            if doc + 1 == sealed {
                index.commit().unwrap();
            }
        }
        let params = Bm25Params::default();
        let everything = bm25_search(&index, &query, usize::MAX, params).unwrap();
        let matching: BTreeSet<u32> = everything.iter().map(|h| h.doc).collect();
        let expected: Vec<SearchHit> =
            everything.into_iter().filter(|h| kept.contains(&h.doc)).collect();
        for k in [1, expected.len().saturating_sub(1), expected.len(), expected.len() + 1, usize::MAX] {
            let mut asked: Vec<u32> = Vec::new();
            let got = bm25_search_among(&index, &query, k, params, |doc| {
                asked.push(doc);
                kept.contains(&doc)
            })
            .unwrap();
            // (Asking for nothing costs nothing: no document is offered.)
            let offered: Vec<u32> = matching.iter().copied().filter(|_| k > 0).collect();
            prop_assert_eq!(asked, offered, "every matching document once, ascending");
            prop_assert_eq!(got.len(), expected.len().min(k), "k {}", k);
            for (g, e) in got.iter().zip(&expected) {
                prop_assert_eq!(g.doc, e.doc, "k {} got {:?} expected {:?}", k, got, expected);
                prop_assert_eq!(g.score.to_bits(), e.score.to_bits(), "doc {}", g.doc);
            }
        }
    }
}
