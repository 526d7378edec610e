//! Property tests for the inverted index: it agrees with a naive in-memory
//! model wherever the segment boundaries fall, ranked search over it
//! returns what scoring every posting into a table returned, and a filtered
//! search returns what filtering the whole ranking returned — also over
//! documents that arrive out of order, and whatever the order, repetition
//! or range of the candidate ids. A document is added once: adding it
//! again is an error that changes nothing.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use memex_store::error::StoreError;

use proptest::prelude::*;

use memex_index::index::InvertedIndex;
use memex_index::search::{bm25_search, bm25_search_among, Bm25Params, SearchHit};

/// `term`'s postings as the search reads them
/// ([`InvertedIndex::for_each_posting`]), collected in document order.
fn postings(index: &InvertedIndex, term: u32) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    index
        .for_each_posting(term, |doc, tf| pairs.push((doc, tf)))
        .unwrap();
    pairs.sort_unstable_by_key(|&(doc, _)| doc);
    pairs
}

/// `bm25_search` as it was before it merged posting lists: every posting of
/// every query term added into a table keyed by document, the whole table
/// sorted, `k` kept. The reference the search is held to, bit for bit.
fn bm25_by_table(
    index: &InvertedIndex,
    query_terms: &[(u32, u32)],
    k: usize,
    params: Bm25Params,
) -> Vec<SearchHit> {
    let corpus = Corpus {
        n: index.num_docs() as f32,
        avg_len: index.avg_doc_len() as f32,
        postings: &|term| postings(index, term),
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
/// adds nothing; its id may already be held) or the buffer sealed.
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

/// `docs[i]`'s terms, each with a tf from a small range (so equal-score
/// documents are common), added as document `i`, the buffer sealed after
/// each document whose index is in `seals`.
fn index_of(docs: &[BTreeSet<u32>], seals: &BTreeSet<usize>) -> InvertedIndex {
    let mut index = InvertedIndex::open_memory().unwrap();
    for (doc, terms) in docs.iter().enumerate() {
        let tf: Vec<(u32, u32)> = terms
            .iter()
            .map(|&t| (t, 1 + (doc as u32 + t) % 3))
            .collect();
        index.add_document(doc as u32, &tf).unwrap();
        if seals.contains(&doc) {
            index.commit().unwrap();
        }
    }
    index
}

/// The same documents in the same order with the same score bits.
fn same_hits(got: &[SearchHit], expected: &[SearchHit]) -> Result<(), TestCaseError> {
    prop_assert_eq!(
        got.len(),
        expected.len(),
        "got {:?} expected {:?}",
        got,
        expected
    );
    for (g, e) in got.iter().zip(expected) {
        prop_assert_eq!(g.doc, e.doc, "got {:?} expected {:?}", got, expected);
        prop_assert_eq!(g.score.to_bits(), e.score.to_bits(), "doc {}", g.doc);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Documents arrive in any order, the buffer sealed at random points,
    /// and an id already held is added again: after every step, a term's
    /// postings are the model's — per document, the summed tf of a term
    /// it lists twice — and filtered BM25 scores, bit for bit, what the
    /// table scores over the model's lists. A re-add is `Invalid` and
    /// changes neither postings nor scores.
    #[test]
    fn postings_and_scores_equal_the_model_after_every_step(
        steps in proptest::collection::vec(step_strategy(), 1..48),
        query in proptest::collection::vec((0u32..9, 1u32..3), 1..4),
        kept in proptest::collection::vec(0u32..24, 0..24),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        // term -> doc -> tf.
        let mut model: BTreeMap<u32, BTreeMap<u32, u32>> = BTreeMap::new();
        // doc -> its length.
        let mut lengths: BTreeMap<u32, u32> = BTreeMap::new();
        let kept_set: BTreeSet<u32> = kept.iter().copied().collect();
        for (i, step) in steps.iter().enumerate() {
            match step {
                Step::Add { doc, pairs } if lengths.contains_key(doc) => {
                    let added = index.add_document(*doc, pairs);
                    prop_assert!(matches!(added, Err(StoreError::Invalid(_))), "re-add of {}", doc);
                }
                Step::Add { doc, pairs } => {
                    index.add_document(*doc, pairs).unwrap();
                    for &(t, c) in pairs.iter().filter(|&&(_, c)| c > 0) {
                        let tf = model.entry(t).or_default().entry(*doc).or_insert(0);
                        *tf += c;
                    }
                    lengths.insert(*doc, pairs.iter().map(|&(_, c)| c).sum());
                }
                Step::Commit => index.commit().unwrap(),
            }
            let list = |term: u32| -> Vec<(u32, u32)> {
                model.get(&term).map(|m| m.iter().map(|(&d, &c)| (d, c)).collect()).unwrap_or_default()
            };
            for term in 0u32..9 {
                prop_assert_eq!(
                    postings(&index, term), list(term),
                    "term {} after step {}", term, i
                );
            }
            let total: u64 = lengths.values().map(|&l| u64::from(l)).sum();
            let corpus = Corpus {
                n: lengths.len() as f32,
                avg_len: if lengths.is_empty() { 0.0 } else { (total as f64 / lengths.len() as f64) as f32 },
                postings: &list,
                doc_len: &|doc| lengths.get(&doc).copied().unwrap_or(0),
            };
            let everything = bm25_over(&corpus, &query, usize::MAX, Bm25Params::default());
            let expected: Vec<SearchHit> =
                everything.into_iter().filter(|h| kept_set.contains(&h.doc)).collect();
            for k in [1, expected.len(), usize::MAX] {
                let got = bm25_search_among(&index, &query, k, Bm25Params::default(), &kept).unwrap();
                same_hits(&got, &expected[..expected.len().min(k)])?;
            }
        }
    }

    /// The index's postings match a reference model regardless of when
    /// commits happen, and an id already held is refused.
    #[test]
    fn index_matches_model(ops in proptest::collection::vec(op_strategy(), 1..40)) {
        let mut index = InvertedIndex::open_memory().unwrap();
        // term -> doc -> tf.
        let mut model: BTreeMap<u32, BTreeMap<u32, u32>> = BTreeMap::new();
        let mut seen_docs: BTreeSet<u32> = BTreeSet::new();
        for op in ops {
            match op {
                Op::Add { doc, terms } => {
                    let mut merged: BTreeMap<u32, u32> = BTreeMap::new();
                    for (t, c) in terms {
                        *merged.entry(t).or_insert(0) += c;
                    }
                    let tf: Vec<(u32, u32)> = merged.iter().map(|(&t, &c)| (t, c)).collect();
                    if !seen_docs.insert(doc) {
                        prop_assert!(index.add_document(doc, &tf).is_err());
                        continue;
                    }
                    index.add_document(doc, &tf).unwrap();
                    for (t, c) in merged {
                        model.entry(t).or_default().insert(doc, c);
                    }
                }
                Op::Commit => index.commit().unwrap(),
            }
        }
        for term in 0u32..12 {
            let got = postings(&index, term);
            let expected: Vec<(u32, u32)> = model
                .get(&term)
                .map(|m| m.iter().map(|(&d, &c)| (d, c)).collect())
                .unwrap_or_default();
            prop_assert_eq!(got, expected, "term {}", term);
        }
        prop_assert_eq!(index.num_docs(), seen_docs.len() as u64);
    }

    /// The search scores like the table did: the same documents in the
    /// same order with the same bits, for one to four query terms (a term
    /// may repeat, `qtf` may exceed 1, a term may match nothing), documents
    /// with equal scores, postings spread over several sealed segments and
    /// the buffer, and `k` below, at and above the number of matches.
    #[test]
    fn bm25_merge_equals_the_table(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..5), 1..40),
        seals in proptest::collection::btree_set(0usize..40, 0..5),
        query in proptest::collection::vec((0u32..10, 1u32..4), 1..5),
    ) {
        let index = index_of(&docs, &seals);
        let params = Bm25Params::default();
        let matches = bm25_by_table(&index, &query, usize::MAX, params).len();
        for k in [1, matches.saturating_sub(1), matches, matches + 1, usize::MAX] {
            let got = bm25_search(&index, &query, k, params).unwrap();
            same_hits(&got, &bm25_by_table(&index, &query, k, params))?;
        }
    }

    /// Filtering inside the search is filtering the whole ranking
    /// afterwards: the same documents in the same order with the same bits,
    /// for every `k`, with the documents spread over several sealed
    /// segments and the buffer — and the candidates shuffled, repeated,
    /// and naming ids the index lacks (up to `u32::MAX`), none of which
    /// moves the answer.
    #[test]
    fn filtered_search_equals_filtering_the_whole_ranking(
        docs in proptest::collection::vec(
            proptest::collection::btree_set(0u32..8, 1..5), 1..40),
        seals in proptest::collection::btree_set(0usize..40, 1..5),
        query in proptest::collection::vec((0u32..10, 1u32..4), 1..5),
        mut candidates in proptest::collection::vec(0u32..48, 0..60),
        (huge, at) in (0usize..4, any::<usize>()),
    ) {
        // Maybe one more id the index lacks, anywhere in the list.
        if let Some(&id) = [u32::MAX, 1 << 20, 64].get(huge) {
            candidates.insert(at % (candidates.len() + 1), id);
        }
        let index = index_of(&docs, &seals);
        let kept: BTreeSet<u32> = candidates.iter().copied().collect();
        let sorted: Vec<u32> = kept.iter().copied().collect();
        let params = Bm25Params::default();
        let everything = bm25_search(&index, &query, usize::MAX, params).unwrap();
        let expected: Vec<SearchHit> =
            everything.into_iter().filter(|h| kept.contains(&h.doc)).collect();
        for k in [1, expected.len().saturating_sub(1), expected.len(), expected.len() + 1, usize::MAX] {
            let got = bm25_search_among(&index, &query, k, params, &candidates).unwrap();
            same_hits(&got, &expected[..expected.len().min(k)])?;
            let once_ascending = bm25_search_among(&index, &query, k, params, &sorted).unwrap();
            same_hits(&once_ascending, &got)?;
        }
    }
}
