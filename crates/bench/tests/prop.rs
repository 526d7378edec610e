//! Property tests for the experiment-only tools: crawls never escape the
//! web, evaluation splits partition, confusion accuracy ignores label
//! names, clustering quality metrics stay in range, and the MDL cost
//! behaves monotonically in alpha.

use proptest::prelude::*;

use memex_bench::crawler::unfocused_crawl;
use memex_bench::eval::{train_test_split, Confusion};
use memex_bench::quality::{nmi, partition_cost, purity};
use memex_text::vector::SparseVec;
use memex_web::corpus::{Corpus, CorpusConfig};

fn docs_strategy(max_docs: usize) -> impl Strategy<Value = Vec<SparseVec>> {
    proptest::collection::vec(
        proptest::collection::vec((0u32..24, 0.1f32..5.0), 1..6).prop_map(SparseVec::from_pairs),
        1..max_docs,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Crawls visit only valid pages, never revisit, and respect budgets.
    #[test]
    fn crawl_stays_in_bounds(seed in any::<u64>(), budget in 1usize..40) {
        let corpus = Corpus::generate(CorpusConfig {
            num_topics: 3,
            pages_per_topic: 12,
            interior_tokens: (5, 10),
            seed,
            ..CorpusConfig::default()
        });
        let trace = unfocused_crawl(&corpus, &[0, 5], 1, budget);
        prop_assert!(trace.order.len() <= budget);
        let mut seen = std::collections::HashSet::new();
        for &p in &trace.order {
            prop_assert!((p as usize) < corpus.num_pages());
            prop_assert!(seen.insert(p), "refetched {p}");
        }
        let hr = trace.harvest_rate();
        prop_assert!((0.0..=1.0).contains(&hr));
    }

    /// A train/test split partitions the index set exactly.
    #[test]
    fn splits_partition(n in 4usize..60, seed in any::<u64>()) {
        let (train, test) = train_test_split(n, 0.25, seed);
        let mut all: Vec<usize> = train.iter().chain(&test).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(all, (0..n).collect::<Vec<_>>());
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

    /// Purity and NMI live in [0, 1]; purity of the identity labelling is 1.
    #[test]
    fn quality_metrics_bounded(
        labels in proptest::collection::vec(0usize..5, 1..40),
        truth in proptest::collection::vec(0usize..5, 1..40),
    ) {
        let n = labels.len().min(truth.len());
        let labels = &labels[..n];
        let truth = &truth[..n];
        let p = purity(labels, truth);
        prop_assert!((0.0..=1.0).contains(&p));
        let m = nmi(labels, truth);
        prop_assert!((0.0..=1.0).contains(&m));
        prop_assert_eq!(purity(truth, truth), 1.0);
        let self_nmi = nmi(truth, truth);
        prop_assert!(self_nmi > 0.999 || truth.iter().all(|&t| t == truth[0]));
    }

    /// Description cost grows linearly in alpha with fixed partition.
    #[test]
    fn cost_monotone_in_alpha(docs in docs_strategy(16), labels_seed in any::<u64>()) {
        let k = 3usize;
        let labels: Vec<usize> =
            (0..docs.len()).map(|i| ((i as u64).wrapping_mul(labels_seed | 1) % k as u64) as usize).collect();
        let c1 = partition_cost(&docs, &labels, 0.5);
        let c2 = partition_cost(&docs, &labels, 1.5);
        prop_assert!(c2 >= c1);
        let clusters = labels.iter().collect::<std::collections::HashSet<_>>().len() as f64;
        prop_assert!((c2 - c1 - clusters).abs() < 1e-6, "slope must be #clusters");
    }
}
