//! Property tests for the learning substrate: taxonomy edits preserve
//! tree well-formedness, naive Bayes posteriors stay proper distributions
//! under arbitrary training streams, the frozen scorer says what the model
//! it was frozen from says.

use proptest::prelude::*;

use memex_learn::nb::{ClassCounts, NaiveBayes, NbOptions, NbScorer};
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_text::features::FeatureScore;

#[derive(Debug, Clone)]
enum TaxOp {
    AddChild {
        parent_pick: usize,
        name: u8,
    },
    Reparent {
        node_pick: usize,
        parent_pick: usize,
    },
    Remove {
        node_pick: usize,
    },
    Rename {
        node_pick: usize,
        name: u8,
    },
}

/// A document over a small term universe (`0..terms`), so classes overlap.
fn doc_strategy(terms: u32) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0..terms, 1u32..5), 0..10)
}

/// Queries to put to a model trained on terms `0..40`: the empty document,
/// documents within the model's terms, ones reaching terms it never saw
/// (40..60) and ones whose ids lie far past its term index.
fn queries() -> impl Strategy<Value = Vec<Vec<(u32, u32)>>> {
    let query = prop_oneof![
        4 => doc_strategy(60),
        1 => proptest::collection::vec((0u32..1_000_000, 1u32..5), 1..6),
        1 => Just(Vec::new()),
    ];
    proptest::collection::vec(query, 1..8)
}

/// The distinct terms of some labelled documents.
fn distinct_terms<'a>(docs: impl IntoIterator<Item = &'a (usize, Vec<(u32, u32)>)>) -> usize {
    let mut terms: Vec<u32> = docs
        .into_iter()
        .flat_map(|(_, tf)| tf.iter().map(|&(t, _)| t))
        .collect();
    terms.sort_unstable();
    terms.dedup();
    terms.len()
}

/// Same posteriors to the bit, hence the same prediction.
fn assert_same_answers(
    nb: &NaiveBayes,
    scorer: &NbScorer,
    queries: &[Vec<(u32, u32)>],
) -> Result<(), TestCaseError> {
    for q in queries.iter().chain([&Vec::new()]) {
        let bits = |post: Vec<f64>| post.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(scorer.log_posteriors(q)),
            bits(nb.log_posteriors(q)),
            "posteriors of {:?}",
            q
        );
        prop_assert_eq!(scorer.predict(q), nb.predict(q), "prediction for {:?}", q);
    }
    Ok(())
}

fn tax_op() -> impl Strategy<Value = TaxOp> {
    prop_oneof![
        (any::<usize>(), any::<u8>()).prop_map(|(p, n)| TaxOp::AddChild {
            parent_pick: p,
            name: n
        }),
        (any::<usize>(), any::<usize>()).prop_map(|(a, b)| TaxOp::Reparent {
            node_pick: a,
            parent_pick: b
        }),
        any::<usize>().prop_map(|n| TaxOp::Remove { node_pick: n }),
        (any::<usize>(), any::<u8>()).prop_map(|(p, n)| TaxOp::Rename {
            node_pick: p,
            name: n
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of valid edits keeps the taxonomy well-formed, and
    /// derived queries (paths, depths, lca) stay consistent.
    #[test]
    fn taxonomy_survives_random_edit_sequences(ops in proptest::collection::vec(tax_op(), 0..40)) {
        let mut tax = Taxonomy::new();
        for op in ops {
            let live: Vec<TopicId> = tax.all_topics();
            match op {
                TaxOp::AddChild { parent_pick, name } => {
                    let parent = live[parent_pick % live.len()];
                    tax.add_child(parent, &format!("n{name}"));
                }
                TaxOp::Reparent { node_pick, parent_pick } => {
                    let node = live[node_pick % live.len()];
                    let parent = live[parent_pick % live.len()];
                    let legal = node != Taxonomy::ROOT && !tax.is_ancestor_or_self(node, parent);
                    prop_assert_eq!(tax.reparent(node, parent), legal);
                }
                TaxOp::Remove { node_pick } => {
                    let node = live[node_pick % live.len()];
                    if node != Taxonomy::ROOT {
                        tax.remove(node);
                    }
                }
                TaxOp::Rename { node_pick, name } => {
                    let node = live[node_pick % live.len()];
                    tax.rename(node, &format!("r{name}"));
                }
            }
            tax.check_invariants().unwrap();
        }
        // Derived queries agree with structure.
        for &t in &tax.all_topics() {
            prop_assert!(tax.is_live(t));
            prop_assert!(tax.is_ancestor_or_self(Taxonomy::ROOT, t));
            prop_assert_eq!(tax.distance(t, t), 0);
            let depth = tax.depth(t);
            if let Some(p) = tax.parent(t) {
                prop_assert_eq!(tax.depth(p) + 1, depth);
                prop_assert_eq!(tax.lca(t, p), p);
            }
            prop_assert!(tax.path(t).starts_with('/'));
        }
        let leaves = tax.leaves();
        for l in leaves {
            prop_assert!(tax.children(l).is_empty());
        }
    }

    /// Posteriors are proper distributions for any training stream and any
    /// query document; predictions are within range.
    #[test]
    fn nb_posteriors_are_proper(
        train in proptest::collection::vec(
            (0usize..3, proptest::collection::vec((0u32..50, 1u32..5), 0..10)), 0..30),
        query in proptest::collection::vec((0u32..60, 1u32..5), 0..10),
    ) {
        let mut nb = NaiveBayes::new(3, NbOptions::default());
        for (class, tf) in &train {
            nb.add_document(*class, tf);
        }
        let post = nb.posteriors(&query);
        prop_assert_eq!(post.len(), 3);
        prop_assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-6);
        prop_assert!(post.iter().all(|&p| (0.0..=1.0 + 1e-9).contains(&p)));
        prop_assert!(nb.predict(&query) < 3);
    }

    /// A frozen scorer answers as the model it was frozen from: the same
    /// posterior bits and the same class, ties included — with and without
    /// Fisher selection, and after documents were removed again (counts
    /// clamped at zero, terms left behind with no tokens).
    #[test]
    fn scorer_equals_the_model_it_froze(
        classes in 2usize..10,
        train in proptest::collection::vec((0usize..9, doc_strategy(40)), 0..30),
        removed in proptest::collection::vec(any::<bool>(), 30),
        select in 1usize..30,
        queries in queries(),
    ) {
        let mut nb = NaiveBayes::new(classes, NbOptions::default());
        for (class, tf) in &train {
            nb.add_document(class % classes, tf);
        }
        assert_same_answers(&nb, &NbScorer::new(&nb), &queries)?;
        // Documents leave again — some of them, then (with the features
        // selected in between) all of them.
        for take_all in [false, true] {
            for ((class, tf), &gone) in train.iter().zip(&removed) {
                if gone || take_all {
                    nb.remove_document(class % classes, tf);
                }
            }
            assert_same_answers(&nb, &NbScorer::new(&nb), &queries)?;
            if !take_all {
                nb.select_features(FeatureScore::Fisher, select);
                assert_same_answers(&nb, &NbScorer::new(&nb), &queries)?;
            }
        }
    }

    /// A model re-selected in place after more documents is, bit for bit,
    /// the model built from all of them and selected once — whenever
    /// `reselect_in_place` says so, which it must at `k` or fewer terms
    /// seen, no document removed and no term dropped by an earlier
    /// selection.
    #[test]
    fn reselecting_in_place_equals_building_from_scratch(
        classes in 2usize..5,
        first in proptest::collection::vec((0usize..5, doc_strategy(40)), 1..12),
        more in proptest::collection::vec((0usize..5, doc_strategy(40)), 0..12),
        select_first in any::<bool>(),
        first_k in 0usize..50,
        k in prop_oneof![Just(None), (0usize..50).prop_map(Some)],
        remove_one in any::<bool>(),
        queries in queries(),
    ) {
        let mut live = NaiveBayes::new(classes, NbOptions::default());
        let mut fresh = NaiveBayes::new(classes, NbOptions::default());
        for (class, tf) in &first {
            live.add_document(class % classes, tf);
        }
        if select_first {
            live.select_features(FeatureScore::Fisher, first_k);
        }
        for (class, tf) in &more {
            live.add_document(class % classes, tf);
        }
        let mut kept: Vec<&(usize, Vec<(u32, u32)>)> = first.iter().chain(&more).collect();
        if remove_one {
            let (class, tf) = kept.remove(0);
            live.remove_document(class % classes, tf);
        }
        for (class, tf) in &kept {
            fresh.add_document(class % classes, tf);
        }
        if let Some(k) = k {
            fresh.select_features(FeatureScore::Fisher, k);
        }
        // A selection of k keeps every term when there are k or fewer.
        let expected = !remove_one && match k {
            None => !select_first,
            Some(k) => {
                distinct_terms(first.iter().chain(&more)) <= k
                    && (!select_first || distinct_terms(&first) <= first_k)
            }
        };
        prop_assert_eq!(live.reselect_in_place(k), expected);
        if expected {
            for q in queries.iter().chain([&Vec::new()]) {
                let bits = |post: Vec<f64>| post.into_iter().map(f64::to_bits).collect::<Vec<_>>();
                prop_assert_eq!(
                    bits(live.log_posteriors(q)),
                    bits(fresh.log_posteriors(q)),
                    "posteriors of {:?}",
                    q
                );
            }
        }
    }

    /// A scorer filled from per-class counts is the model trained on the
    /// same documents one by one, frozen: the same posterior bits and the
    /// same class, ties included — a class with no document among them, and
    /// one class (the background of every topic filter) over terms the
    /// others never saw.
    #[test]
    fn from_counts_equals_training_document_by_document(
        own in 1usize..8,
        train in proptest::collection::vec((0usize..8, doc_strategy(40)), 0..20),
        background in proptest::collection::vec(doc_strategy(50), 0..20),
        queries in queries(),
    ) {
        let mut nb = NaiveBayes::new(own + 1, NbOptions::default());
        let mut per_class: Vec<Vec<&[(u32, u32)]>> = vec![Vec::new(); own + 1];
        for (class, tf) in &train {
            nb.add_document(class % own, tf);
            per_class[class % own].push(tf);
        }
        for tf in &background {
            nb.add_document(own, tf);
            per_class[own].push(tf);
        }
        let counts: Vec<ClassCounts> = per_class.into_iter().map(ClassCounts::from_documents).collect();
        prop_assert_eq!(counts[own].num_docs(), background.len() as f64);
        let classes: Vec<&ClassCounts> = counts.iter().collect();
        let scorer = NbScorer::from_counts(&classes, NbOptions::default());
        assert_same_answers(&nb, &scorer, &queries)?;
    }

    /// Adding then removing a document restores the previous prediction
    /// behaviour (counts round-trip).
    #[test]
    fn nb_remove_undoes_add(
        base in proptest::collection::vec((0usize..2, proptest::collection::vec((0u32..20, 1u32..4), 1..6)), 1..10),
        extra in proptest::collection::vec((0u32..20, 1u32..4), 1..6),
        extra_class in 0usize..2,
        query in proptest::collection::vec((0u32..20, 1u32..4), 1..6),
    ) {
        let mut nb = NaiveBayes::new(2, NbOptions::default());
        // Pin the term universe up front: the smoothing vocabulary
        // (`all_terms`) is append-only by design, so a removed document's
        // *novel* terms would otherwise legitimately shift the denominator.
        let priming: Vec<(u32, u32)> = (0u32..20).map(|t| (t, 1)).collect();
        nb.add_document(0, &priming);
        for (c, tf) in &base {
            nb.add_document(*c, tf);
        }
        let before = nb.log_posteriors(&query);
        nb.add_document(extra_class, &extra);
        nb.remove_document(extra_class, &extra);
        let after = nb.log_posteriors(&query);
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() < 1e-6, "posterior changed: {b} vs {a}");
        }
    }
}
