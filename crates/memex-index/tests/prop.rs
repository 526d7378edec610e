//! Property tests for the inverted index: the index agrees with a naive
//! in-memory model wherever the segment boundaries fall, and boolean search
//! obeys set-algebra laws (De Morgan, idempotence).

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use memex_index::index::InvertedIndex;
use memex_index::query::Query;
use memex_index::search::{boolean_search, phrase_search, BoolExpr};

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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

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

    /// Boolean algebra laws over random indexes: De Morgan, idempotence,
    /// absorption.
    #[test]
    fn boolean_laws(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..6, 0..5), 1..20),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        let mut universe = Vec::new();
        for (d, terms) in docs.iter().enumerate() {
            let d = d as u32;
            universe.push(d);
            let mut tf: Vec<(u32, u32)> = terms.iter().map(|&t| (t, 1)).collect();
            tf.sort_unstable();
            tf.dedup();
            index.add_document(d, &tf).unwrap();
        }
        let a = BoolExpr::Term(1);
        let b = BoolExpr::Term(2);
        let eval = |ix: &InvertedIndex, e: &BoolExpr| boolean_search(ix, e, &universe).unwrap();
        // De Morgan: !(A or B) == !A and !B
        let lhs = eval(&index, &BoolExpr::Not(Box::new(BoolExpr::Or(vec![a.clone(), b.clone()]))));
        let rhs = eval(&index, &BoolExpr::And(vec![
            BoolExpr::Not(Box::new(a.clone())),
            BoolExpr::Not(Box::new(b.clone())),
        ]));
        prop_assert_eq!(lhs, rhs);
        // Idempotence: A and A == A
        let aa = eval(&index, &BoolExpr::And(vec![a.clone(), a.clone()]));
        let just_a = eval(&index, &a);
        prop_assert_eq!(&aa, &just_a);
        // Absorption: A or (A and B) == A
        let absorbed = eval(&index, &BoolExpr::Or(vec![
            a.clone(),
            BoolExpr::And(vec![a.clone(), b.clone()]),
        ]));
        prop_assert_eq!(&absorbed, &just_a);
        // Double negation.
        let nn = eval(&index, &BoolExpr::Not(Box::new(BoolExpr::Not(Box::new(a.clone())))));
        prop_assert_eq!(&nn, &just_a);
        // Complement partitions the universe.
        let not_a = eval(&index, &BoolExpr::Not(Box::new(a)));
        let mut both = just_a.clone();
        both.extend(not_a);
        both.sort_unstable();
        prop_assert_eq!(both, universe);
    }

    /// Phrase search agrees with a brute-force scan over the documents.
    #[test]
    fn phrase_matches_brute_force(
        docs in proptest::collection::vec(proptest::collection::vec(0u32..5, 1..10), 1..15),
        phrase in proptest::collection::vec(0u32..5, 1..4),
    ) {
        let mut index = InvertedIndex::open_memory().unwrap();
        for (d, terms) in docs.iter().enumerate() {
            index.add_document_positional(d as u32, terms).unwrap();
        }
        let got = phrase_search(&index, &phrase).unwrap();
        let want: Vec<u32> = docs
            .iter()
            .enumerate()
            .filter(|(_, terms)| terms.windows(phrase.len()).any(|w| w == phrase.as_slice()))
            .map(|(d, _)| d as u32)
            .collect();
        prop_assert_eq!(got, want);
    }

    /// The query parser never panics and re-parsing its own rendering of
    /// plain ranked terms is stable.
    #[test]
    fn query_parser_total(input in "\\PC{0,80}") {
        let q = Query::parse(&input);
        // Every captured token is non-empty.
        prop_assert!(q.ranked.iter().all(|t| !t.is_empty()));
        prop_assert!(q.must.iter().all(|t| !t.is_empty()));
        prop_assert!(q.must_not.iter().all(|t| !t.is_empty()));
        prop_assert!(q.phrases.iter().all(|p| !p.is_empty()));
    }
}
