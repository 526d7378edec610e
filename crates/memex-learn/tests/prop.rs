//! Property tests for the learning substrate: taxonomy edits preserve
//! tree well-formedness, naive Bayes posteriors stay proper distributions
//! under arbitrary training streams, and evaluation splits partition.

use proptest::prelude::*;

use memex_learn::eval::{k_fold, train_test_split, Confusion};
use memex_learn::nb::{NaiveBayes, NbOptions};
use memex_learn::taxonomy::{Taxonomy, TopicId};

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

    /// k-fold and train/test splits partition the index set exactly.
    #[test]
    fn splits_partition(n in 4usize..60, seed in any::<u64>()) {
        let (train, test) = train_test_split(n, 0.25, seed);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
        let k = 4.min(n);
        let folds = k_fold(n, k, seed);
        let mut seen = vec![0u8; n];
        for (_, test) in &folds {
            for &t in test {
                seen[t] += 1;
            }
        }
        prop_assert!(seen.iter().all(|&c| c == 1));
    }

    /// Confusion-matrix accuracy is invariant under consistent relabelling
    /// of *predictions and truth together*.
    #[test]
    fn confusion_accuracy_permutation_invariant(
        pairs in proptest::collection::vec((0usize..4, 0usize..4), 1..50),
        offset in 0usize..4,
    ) {
        let truth: Vec<usize> = pairs.iter().map(|&(t, _)| t).collect();
        let pred: Vec<usize> = pairs.iter().map(|&(_, p)| p).collect();
        let a = Confusion::from_pairs(4, &truth, &pred).accuracy();
        let truth2: Vec<usize> = truth.iter().map(|&t| (t + offset) % 4).collect();
        let pred2: Vec<usize> = pred.iter().map(|&p| (p + offset) % 4).collect();
        let b = Confusion::from_pairs(4, &truth2, &pred2).accuracy();
        prop_assert!((a - b).abs() < 1e-12);
    }
}
