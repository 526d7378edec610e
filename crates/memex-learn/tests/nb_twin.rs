//! The term-table `NaiveBayes` against its hash-map reference: random
//! sequences of `add_document`, `remove_document`, `select_features` and
//! `reselect_in_place` over documents that come unsorted, repeat terms and
//! reach ids far past the model, and after every step the same posterior
//! bits, the same prediction, the same Fisher/χ²/MI top-k lists and the same
//! frozen scorer. The reference is the model as it was first written — a
//! `HashMap` of token counts per class, `HashSet`s for the vocabulary and
//! the selection, a `HashMap` of document frequencies per term — with one
//! fix both share: a document that repeats a term counts its tokens once
//! summed and the document once.

use proptest::prelude::*;

use memex_learn::nb::{NaiveBayes, NbOptions, NbScorer};
use memex_text::features::FeatureScore;

mod reference {
    use std::collections::{HashMap, HashSet};

    use memex_learn::nb::{argmax, log_normalize, NbOptions};
    use memex_text::features::FeatureScore;

    type TermId = u32;

    /// `tf` with each repeated term's counts summed, in first-seen order.
    fn distinct(tf: &[(TermId, u32)]) -> Vec<(TermId, u32)> {
        let mut at: HashMap<TermId, usize> = HashMap::new();
        let mut doc: Vec<(TermId, u32)> = Vec::new();
        for &(t, c) in tf {
            match at.get(&t) {
                Some(&i) => doc[i].1 = doc[i].1.saturating_add(c),
                None => {
                    at.insert(t, doc.len());
                    doc.push((t, c));
                }
            }
        }
        doc
    }

    /// Per-class binary term-presence statistics.
    #[derive(Debug, Clone)]
    pub struct ClassTermStats {
        class_docs: Vec<u32>,
        term_class_df: HashMap<TermId, Vec<u32>>,
    }

    impl ClassTermStats {
        fn new(num_classes: usize) -> ClassTermStats {
            ClassTermStats {
                class_docs: vec![0; num_classes],
                term_class_df: HashMap::new(),
            }
        }

        fn add_doc(&mut self, class: usize, distinct_terms: impl IntoIterator<Item = TermId>) {
            self.class_docs[class] += 1;
            let k = self.class_docs.len();
            for t in distinct_terms {
                self.term_class_df.entry(t).or_insert_with(|| vec![0; k])[class] += 1;
            }
        }

        fn num_terms(&self) -> usize {
            self.term_class_df.len()
        }

        fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
            self.term_class_df.keys().copied()
        }

        fn total_docs(&self) -> u32 {
            self.class_docs.iter().sum()
        }

        fn score(&self, term: TermId, how: FeatureScore) -> f64 {
            let Some(dfs) = self.term_class_df.get(&term) else {
                return 0.0;
            };
            match how {
                FeatureScore::Fisher => self.fisher(dfs),
                FeatureScore::ChiSquare => self.chi_square(dfs),
                FeatureScore::MutualInfo => self.mutual_info(dfs),
            }
        }

        pub fn select_top_k(&self, how: FeatureScore, k: usize) -> Vec<TermId> {
            let mut scored: Vec<(TermId, f64)> = self
                .term_class_df
                .keys()
                .map(|&t| (t, self.score(t, how)))
                .collect();
            scored.sort_by(|a, b| {
                b.1.partial_cmp(&a.1)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.0.cmp(&b.0))
            });
            scored.truncate(k);
            scored.into_iter().map(|(t, _)| t).collect()
        }

        fn fisher(&self, dfs: &[u32]) -> f64 {
            let rates = || {
                dfs.iter().zip(&self.class_docs).map(|(&df, &n)| {
                    if n == 0 {
                        0.0
                    } else {
                        f64::from(df) / f64::from(n)
                    }
                })
            };
            let k = dfs.len().min(self.class_docs.len()) as f64;
            if k < 2.0 {
                return 0.0;
            }
            let mean = rates().sum::<f64>() / k;
            let between: f64 = rates().map(|p| (p - mean).powi(2)).sum::<f64>() / k;
            let within: f64 = rates().map(|p| p * (1.0 - p)).sum::<f64>() / k;
            between / (within + 1e-9)
        }

        fn chi_square(&self, dfs: &[u32]) -> f64 {
            let n = f64::from(self.total_docs());
            if n == 0.0 {
                return 0.0;
            }
            let term_total: f64 = dfs.iter().map(|&d| f64::from(d)).sum();
            let mut chi = 0.0;
            for (&df, &nc) in dfs.iter().zip(&self.class_docs) {
                let nc = f64::from(nc);
                for (observed, term_mass) in [
                    (f64::from(df), term_total),
                    (nc - f64::from(df), n - term_total),
                ] {
                    let expected = nc * term_mass / n;
                    if expected > 0.0 {
                        chi += (observed - expected).powi(2) / expected;
                    }
                }
            }
            chi
        }

        fn mutual_info(&self, dfs: &[u32]) -> f64 {
            let n = f64::from(self.total_docs());
            if n == 0.0 {
                return 0.0;
            }
            let p_term = dfs.iter().map(|&d| f64::from(d)).sum::<f64>() / n;
            let mut mi = 0.0;
            for (&df, &nc) in dfs.iter().zip(&self.class_docs) {
                let p_c = f64::from(nc) / n;
                for (joint, p_t) in [
                    (f64::from(df) / n, p_term),
                    ((f64::from(nc) - f64::from(df)) / n, 1.0 - p_term),
                ] {
                    if joint > 0.0 && p_c > 0.0 && p_t > 0.0 {
                        mi += joint * (joint / (p_c * p_t)).ln();
                    }
                }
            }
            mi.max(0.0)
        }
    }

    /// The hash-map multinomial naive Bayes.
    #[derive(Debug, Clone)]
    pub struct NaiveBayes {
        opts: NbOptions,
        class_docs: Vec<f64>,
        term_counts: Vec<HashMap<TermId, f64>>,
        token_totals: Vec<f64>,
        all_terms: HashSet<TermId>,
        pub presence: ClassTermStats,
        selected: Option<HashSet<TermId>>,
        unselected: Vec<TermId>,
        unlearned: bool,
    }

    impl NaiveBayes {
        pub fn new(num_classes: usize, opts: NbOptions) -> NaiveBayes {
            NaiveBayes {
                opts,
                class_docs: vec![0.0; num_classes],
                term_counts: vec![HashMap::new(); num_classes],
                token_totals: vec![0.0; num_classes],
                all_terms: HashSet::new(),
                presence: ClassTermStats::new(num_classes),
                selected: None,
                unselected: Vec::new(),
                unlearned: false,
            }
        }

        fn num_docs(&self) -> f64 {
            self.class_docs.iter().sum()
        }

        pub fn add_document(&mut self, class: usize, tf: &[(TermId, u32)]) {
            let tf = distinct(tf);
            self.class_docs[class] += 1.0;
            for &(t, c) in &tf {
                let c = f64::from(c);
                *self.term_counts[class].entry(t).or_insert(0.0) += c;
                if self.selected.as_ref().is_none_or(|s| s.contains(&t)) {
                    self.token_totals[class] += c;
                }
                if self.all_terms.insert(t) && self.selected.is_some() {
                    self.unselected.push(t);
                }
            }
            self.presence.add_doc(class, tf.iter().map(|&(t, _)| t));
        }

        pub fn remove_document(&mut self, class: usize, tf: &[(TermId, u32)]) {
            self.unlearned = true;
            self.class_docs[class] = (self.class_docs[class] - 1.0).max(0.0);
            for (t, c) in distinct(tf) {
                let c = f64::from(c);
                if let Some(slot) = self.term_counts[class].get_mut(&t) {
                    let dec = slot.min(c);
                    *slot -= dec;
                    if self.selected.as_ref().is_none_or(|s| s.contains(&t)) {
                        self.token_totals[class] = (self.token_totals[class] - dec).max(0.0);
                    }
                }
            }
        }

        pub fn select_features(&mut self, score: FeatureScore, k: usize) {
            let chosen: HashSet<TermId> = if k >= self.presence.num_terms() {
                self.presence.terms().collect()
            } else {
                self.presence.select_top_k(score, k).into_iter().collect()
            };
            for (class, counts) in self.term_counts.iter().enumerate() {
                self.token_totals[class] = counts
                    .iter()
                    .filter(|(t, _)| chosen.contains(*t))
                    .map(|(_, &c)| c)
                    .sum();
            }
            self.selected = Some(chosen);
            self.unselected.clear();
        }

        pub fn reselect_in_place(&mut self, k: Option<usize>) -> bool {
            if self.unlearned {
                return false;
            }
            let Some(k) = k else {
                return self.selected.is_none();
            };
            if self.all_terms.len() > k {
                return false;
            }
            match &mut self.selected {
                None => self.selected = Some(self.all_terms.clone()),
                Some(selected) => {
                    if selected.len() + self.unselected.len() != self.all_terms.len() {
                        return false;
                    }
                    for t in self.unselected.drain(..) {
                        for (total, counts) in self.token_totals.iter_mut().zip(&self.term_counts) {
                            *total += counts.get(&t).copied().unwrap_or(0.0);
                        }
                        selected.insert(t);
                    }
                }
            }
            true
        }

        fn vocab_size(&self) -> f64 {
            match &self.selected {
                Some(s) => s.len().max(1) as f64,
                None => self.all_terms.len().max(1) as f64,
            }
        }

        fn term_active(&self, t: TermId) -> bool {
            self.selected.as_ref().is_none_or(|s| s.contains(&t))
        }

        pub fn log_posteriors(&self, tf: &[(TermId, u32)]) -> Vec<f64> {
            let n = self.num_docs().max(1.0);
            let k = self.class_docs.len() as f64;
            let v = self.vocab_size();
            let alpha = self.opts.smoothing;
            let mut scores: Vec<f64> = self
                .class_docs
                .iter()
                .map(|&d| ((d + 1.0) / (n + k)).ln())
                .collect();
            for &(t, count) in tf {
                if !self.term_active(t) {
                    continue;
                }
                for (c, score) in scores.iter_mut().enumerate() {
                    let tc = self.term_counts[c].get(&t).copied().unwrap_or(0.0);
                    let total = self.token_totals[c];
                    *score += f64::from(count) * ((tc + alpha) / (total + alpha * v)).ln();
                }
            }
            log_normalize(&mut scores);
            scores
        }

        pub fn predict(&self, tf: &[(TermId, u32)]) -> usize {
            argmax(&self.log_posteriors(tf))
        }
    }
}

/// One step of a training stream.
#[derive(Debug, Clone)]
enum Op {
    Add(usize, Vec<(u32, u32)>),
    /// Remove a document drawn at random: often one never added.
    Remove(usize, Vec<(u32, u32)>),
    /// Remove one of the documents added so far, by pick.
    RemoveAdded(usize),
    Select(FeatureScore, usize),
    Reselect(Option<usize>),
}

/// Documents over a small universe, so terms repeat within one and across
/// classes, drawn in no order; and a few with ids far past the model.
fn doc() -> impl Strategy<Value = Vec<(u32, u32)>> {
    prop_oneof![
        6 => proptest::collection::vec((0u32..40, 1u32..5), 0..12),
        1 => proptest::collection::vec((0u32..4_000_000, 1u32..5), 1..4),
    ]
}

fn score() -> impl Strategy<Value = FeatureScore> {
    prop_oneof![
        Just(FeatureScore::Fisher),
        Just(FeatureScore::ChiSquare),
        Just(FeatureScore::MutualInfo),
    ]
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        8 => (0usize..9, doc()).prop_map(|(c, d)| Op::Add(c, d)),
        1 => (0usize..9, doc()).prop_map(|(c, d)| Op::Remove(c, d)),
        1 => any::<usize>().prop_map(Op::RemoveAdded),
        1 => (score(), 0usize..50).prop_map(|(s, k)| Op::Select(s, k)),
        2 => prop_oneof![Just(None), (0usize..60).prop_map(Some)].prop_map(Op::Reselect),
    ]
}

/// The two models answer alike, to the bit.
fn assert_twins(
    nb: &NaiveBayes,
    twin: &reference::NaiveBayes,
    queries: &[Vec<(u32, u32)>],
) -> Result<(), TestCaseError> {
    let bits = |post: Vec<f64>| post.into_iter().map(f64::to_bits).collect::<Vec<_>>();
    let scorer = NbScorer::new(nb);
    for q in queries.iter().chain([&Vec::new()]) {
        let expected = bits(twin.log_posteriors(q));
        prop_assert_eq!(
            bits(nb.log_posteriors(q)),
            expected.clone(),
            "posteriors of {:?}",
            q
        );
        prop_assert_eq!(
            bits(scorer.log_posteriors(q)),
            expected,
            "frozen, of {:?}",
            q
        );
        prop_assert_eq!(nb.predict(q), twin.predict(q), "prediction for {:?}", q);
    }
    let stats = nb.term_stats();
    for how in [
        FeatureScore::Fisher,
        FeatureScore::ChiSquare,
        FeatureScore::MutualInfo,
    ] {
        for k in [0, 3, 17, usize::MAX] {
            prop_assert_eq!(
                stats.select_top_k(how, k),
                twin.presence.select_top_k(how, k),
                "top {} by {:?}",
                k,
                how
            );
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(if cfg!(debug_assertions) { 48 } else { 256 }))]

    #[test]
    fn the_term_table_answers_as_the_hash_map_model(
        classes in 2usize..6,
        ops in proptest::collection::vec(op(), 0..40),
        queries in proptest::collection::vec(doc(), 1..6),
    ) {
        let mut nb = NaiveBayes::new(classes, NbOptions::default());
        let mut twin = reference::NaiveBayes::new(classes, NbOptions::default());
        let mut added: Vec<(usize, Vec<(u32, u32)>)> = Vec::new();
        for op in ops {
            match op {
                Op::Add(class, tf) => {
                    nb.add_document(class % classes, &tf);
                    twin.add_document(class % classes, &tf);
                    added.push((class % classes, tf));
                }
                Op::Remove(class, tf) => {
                    nb.remove_document(class % classes, &tf);
                    twin.remove_document(class % classes, &tf);
                }
                Op::RemoveAdded(pick) => {
                    if !added.is_empty() {
                        let (class, tf) = added.remove(pick % added.len());
                        nb.remove_document(class, &tf);
                        twin.remove_document(class, &tf);
                    }
                }
                Op::Select(how, k) => {
                    nb.select_features(how, k);
                    twin.select_features(how, k);
                }
                Op::Reselect(k) => {
                    prop_assert_eq!(nb.reselect_in_place(k), twin.reselect_in_place(k), "reselect {:?}", k);
                }
            }
            assert_twins(&nb, &twin, &queries)?;
        }
    }
}
