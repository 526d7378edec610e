//! Feature selection for hierarchical text classification, after
//! Chakrabarti et al.'s TAPER system (paper ref \[3\]): terms are scored by
//! how well they *discriminate between sibling classes* and only the top
//! fraction is retained. Three classic scores are provided — the Fisher
//! discriminant used by TAPER, χ², and mutual information — all on binary
//! term presence.
//!
//! The statistics are a view ([`ClassTermStats`]) of a term-major table a
//! classifier keeps anyway: its terms in ascending order and, per term, one
//! [`TermCell`] per class. A naive Bayes model reads the token counts of the
//! same cells, so the two need no second table.

use crate::vocab::TermId;

/// One class's cell of a term's row: the tokens of the term that class's
/// training documents hold, and how many of those documents hold it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TermCell {
    pub tokens: u32,
    pub docs: u32,
}

/// Per-class binary term-presence statistics: a view of a term-major
/// table.
#[derive(Debug, Clone, Copy)]
pub struct ClassTermStats<'a> {
    /// Documents per class.
    class_docs: &'a [u32],
    /// Every term recorded, ascending.
    terms: &'a [TermId],
    /// `cells[row * k + class]`: `k` cells per term, in `terms`' order.
    cells: &'a [TermCell],
}

/// Which discriminative score to use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FeatureScore {
    /// Between-class vs within-class scatter of presence rates (TAPER).
    Fisher,
    /// Pearson χ² over the term×class contingency table.
    ChiSquare,
    /// Mutual information I(term; class) in nats.
    MutualInfo,
}

impl<'a> ClassTermStats<'a> {
    /// The statistics of a table with `class_docs[c]` documents in class
    /// `c`, the terms `terms` (ascending) and `cells[row * k + c]` the cell
    /// of term `terms[row]` in class `c`, `k` being `class_docs.len()`.
    pub fn new(
        class_docs: &'a [u32],
        terms: &'a [TermId],
        cells: &'a [TermCell],
    ) -> ClassTermStats<'a> {
        debug_assert_eq!(cells.len(), terms.len() * class_docs.len());
        debug_assert!(terms.windows(2).all(|w| w[0] < w[1]));
        ClassTermStats {
            class_docs,
            terms,
            cells,
        }
    }

    pub fn num_classes(&self) -> usize {
        self.class_docs.len()
    }

    /// Distinct terms recorded.
    pub fn num_terms(&self) -> usize {
        self.terms.len()
    }

    /// Every term recorded, in ascending order.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + 'a {
        self.terms.iter().copied()
    }

    /// Total documents.
    pub fn total_docs(&self) -> u32 {
        self.class_docs.iter().sum()
    }

    /// Score a single term.
    pub fn score(&self, term: TermId, how: FeatureScore) -> f64 {
        match self.terms.binary_search(&term) {
            Ok(row) => self.score_row(row, how),
            Err(_) => 0.0,
        }
    }

    /// The `k` best-scoring terms, descending (ties broken by term id for
    /// determinism).
    pub fn select_top_k(&self, how: FeatureScore, k: usize) -> Vec<TermId> {
        let mut scored: Vec<(TermId, f64)> = (self.terms.iter().enumerate())
            .map(|(row, &t)| (t, self.score_row(row, how)))
            .collect();
        scored.sort_by(|a, b| {
            b.1.partial_cmp(&a.1)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.0.cmp(&b.0))
        });
        scored.truncate(k);
        scored.into_iter().map(|(t, _)| t).collect()
    }

    /// The per-class document frequencies of the term in row `row`.
    fn dfs(&self, row: usize) -> impl Iterator<Item = u32> + Clone + 'a {
        let k = self.class_docs.len();
        let cells = self.cells.get(row * k..(row + 1) * k).unwrap_or_default();
        cells.iter().map(|cell| cell.docs)
    }

    fn score_row(&self, row: usize, how: FeatureScore) -> f64 {
        let dfs = self.dfs(row);
        match how {
            FeatureScore::Fisher => self.fisher(dfs),
            FeatureScore::ChiSquare => self.chi_square(dfs),
            FeatureScore::MutualInfo => self.mutual_info(dfs),
        }
    }

    fn fisher(&self, dfs: impl Iterator<Item = u32> + Clone) -> f64 {
        // Presence rate per class, recomputed by each pass below rather
        // than collected: the same values summed in the same order.
        let rates = || {
            dfs.clone().zip(self.class_docs).map(|(df, &n)| {
                if n == 0 {
                    0.0
                } else {
                    f64::from(df) / f64::from(n)
                }
            })
        };
        let k = self.class_docs.len() as f64;
        if k < 2.0 {
            return 0.0;
        }
        let mean = rates().sum::<f64>() / k;
        let between: f64 = rates().map(|p| (p - mean).powi(2)).sum::<f64>() / k;
        // Within-class variance of a Bernoulli(p) presence indicator.
        let within: f64 = rates().map(|p| p * (1.0 - p)).sum::<f64>() / k;
        between / (within + 1e-9)
    }

    fn chi_square(&self, dfs: impl Iterator<Item = u32> + Clone) -> f64 {
        let n = f64::from(self.total_docs());
        if n == 0.0 {
            return 0.0;
        }
        let term_total: f64 = dfs.clone().map(f64::from).sum();
        let mut chi = 0.0;
        for (df, &nc) in dfs.zip(self.class_docs) {
            let nc = f64::from(nc);
            // Cells: (present, class c) and (absent, class c).
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

    fn mutual_info(&self, dfs: impl Iterator<Item = u32> + Clone) -> f64 {
        let n = f64::from(self.total_docs());
        if n == 0.0 {
            return 0.0;
        }
        let p_term = dfs.clone().map(f64::from).sum::<f64>() / n;
        let mut mi = 0.0;
        for (df, &nc) in dfs.zip(self.class_docs) {
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

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;

    /// An owned table for [`ClassTermStats`] to view, filled a document
    /// (class, distinct terms) at a time.
    struct Table {
        class_docs: Vec<u32>,
        df: BTreeMap<TermId, Vec<u32>>,
        terms: Vec<TermId>,
        cells: Vec<TermCell>,
    }

    impl Table {
        fn new(num_classes: usize) -> Table {
            Table {
                class_docs: vec![0; num_classes],
                df: BTreeMap::new(),
                terms: Vec::new(),
                cells: Vec::new(),
            }
        }

        fn add_doc(&mut self, class: usize, distinct_terms: impl IntoIterator<Item = TermId>) {
            let k = self.class_docs.len();
            self.class_docs[class] += 1;
            for t in distinct_terms {
                self.df.entry(t).or_insert_with(|| vec![0; k])[class] += 1;
            }
            self.terms = self.df.keys().copied().collect();
            self.cells = (self.df.values().flatten())
                .map(|&docs| TermCell { tokens: 0, docs })
                .collect();
        }

        fn stats(&self) -> ClassTermStats<'_> {
            ClassTermStats::new(&self.class_docs, &self.terms, &self.cells)
        }
    }

    /// Two classes; term 1 is a perfect discriminator, term 2 is uniform
    /// noise, term 3 is a partial signal.
    fn fixture() -> Table {
        let mut s = Table::new(2);
        for i in 0..20 {
            if i < 10 {
                // Class 0 docs: always term 1 and 2, never 3.
                s.add_doc(0, [1u32, 2]);
            } else if i < 15 {
                s.add_doc(1, [2u32, 3]);
            } else {
                s.add_doc(1, [2u32]);
            }
        }
        s
    }

    #[test]
    fn all_scores_rank_discriminator_above_noise() {
        let table = fixture();
        let s = table.stats();
        for how in [
            FeatureScore::Fisher,
            FeatureScore::ChiSquare,
            FeatureScore::MutualInfo,
        ] {
            let perfect = s.score(1, how);
            let noise = s.score(2, how);
            let partial = s.score(3, how);
            assert!(
                perfect > partial,
                "{how:?}: perfect {perfect} <= partial {partial}"
            );
            assert!(
                partial > noise,
                "{how:?}: partial {partial} <= noise {noise}"
            );
        }
    }

    #[test]
    fn top_k_selection_is_ordered_and_bounded() {
        let table = fixture();
        let s = table.stats();
        let top = s.select_top_k(FeatureScore::Fisher, 2);
        assert_eq!(top[0], 1);
        assert_eq!(top.len(), 2);
        let all = s.select_top_k(FeatureScore::Fisher, 100);
        assert_eq!(all.len(), 3, "only as many terms as exist");
    }

    /// The Fisher score as first written, over a collected rate per class.
    fn fisher_collected(class_docs: &[u32], dfs: &[u32]) -> f64 {
        let rates: Vec<f64> = dfs
            .iter()
            .zip(class_docs)
            .map(|(&df, &n)| {
                if n == 0 {
                    0.0
                } else {
                    f64::from(df) / f64::from(n)
                }
            })
            .collect();
        let k = rates.len() as f64;
        if k < 2.0 {
            return 0.0;
        }
        let mean = rates.iter().sum::<f64>() / k;
        let between: f64 = rates.iter().map(|p| (p - mean).powi(2)).sum::<f64>() / k;
        let within: f64 = rates.iter().map(|p| p * (1.0 - p)).sum::<f64>() / k;
        between / (within + 1e-9)
    }

    #[test]
    fn fisher_is_the_collected_rates_formula_bit_for_bit() {
        // Five classes, the last never trained; terms spread unevenly.
        let mut table = Table::new(5);
        for doc in 0u32..60 {
            let class = (doc * 7 % 4) as usize;
            table.add_doc(
                class,
                (0u32..40).filter(|t| (doc + t * 3) % (t % 5 + 2) == 0),
            );
        }
        let s = table.stats();
        assert!(s.num_terms() > 30);
        for t in s.terms() {
            let dfs = &table.df[&t];
            let fisher = s.score(t, FeatureScore::Fisher);
            assert_eq!(
                fisher.to_bits(),
                fisher_collected(&table.class_docs, dfs).to_bits(),
                "term {t}"
            );
        }
    }

    #[test]
    fn terms_come_in_ascending_order() {
        let mut table = Table::new(2);
        table.add_doc(0, [9u32, 4, 7]);
        table.add_doc(1, [1u32, 9]);
        let s = table.stats();
        assert_eq!(s.terms().collect::<Vec<_>>(), [1, 4, 7, 9]);
        assert_eq!(s.num_terms(), 4);
        assert_eq!(s.total_docs(), 2);
    }

    #[test]
    fn unknown_term_scores_zero() {
        let table = fixture();
        assert_eq!(table.stats().score(999, FeatureScore::Fisher), 0.0);
    }

    #[test]
    fn uniform_term_has_near_zero_mi() {
        let table = fixture();
        assert!(table.stats().score(2, FeatureScore::MutualInfo) < 1e-9);
    }
}
