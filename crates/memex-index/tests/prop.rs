//! Property test for the inverted index: it agrees with a naive in-memory
//! model wherever the segment boundaries fall.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use memex_index::index::InvertedIndex;

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
}
