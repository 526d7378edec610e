//! Feature selection for hierarchical text classification, after
//! Chakrabarti et al.'s TAPER system (paper ref \[3\]): terms are scored by
//! how well they *discriminate between sibling classes* and only the top
//! fraction is retained. Three classic scores are provided — the Fisher
//! discriminant used by TAPER, χ², and mutual information — all on binary
//! term presence.

use std::collections::HashMap;

use crate::vocab::TermId;

/// Per-class binary term-presence statistics.
#[derive(Debug, Default, Clone)]
pub struct ClassTermStats {
    /// Documents per class.
    class_docs: Vec<u32>,
    /// term -> per-class document frequency.
    term_class_df: HashMap<TermId, Vec<u32>>,
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

impl ClassTermStats {
    pub fn new(num_classes: usize) -> ClassTermStats {
        ClassTermStats {
            class_docs: vec![0; num_classes],
            term_class_df: HashMap::new(),
        }
    }

    pub fn num_classes(&self) -> usize {
        self.class_docs.len()
    }

    /// Record one document of class `class` with the given distinct terms.
    pub fn add_doc(&mut self, class: usize, distinct_terms: impl IntoIterator<Item = TermId>) {
        assert!(class < self.class_docs.len(), "class out of range");
        self.class_docs[class] += 1;
        let k = self.class_docs.len();
        for t in distinct_terms {
            self.term_class_df.entry(t).or_insert_with(|| vec![0; k])[class] += 1;
        }
    }

    /// Distinct terms recorded.
    pub fn num_terms(&self) -> usize {
        self.term_class_df.len()
    }

    /// Every term recorded, in no particular order.
    pub fn terms(&self) -> impl Iterator<Item = TermId> + '_ {
        self.term_class_df.keys().copied()
    }

    /// Total documents.
    pub fn total_docs(&self) -> u32 {
        self.class_docs.iter().sum()
    }

    /// Score a single term.
    pub fn score(&self, term: TermId, how: FeatureScore) -> f64 {
        let Some(dfs) = self.term_class_df.get(&term) else {
            return 0.0;
        };
        match how {
            FeatureScore::Fisher => self.fisher(dfs),
            FeatureScore::ChiSquare => self.chi_square(dfs),
            FeatureScore::MutualInfo => self.mutual_info(dfs),
        }
    }

    /// The `k` best-scoring terms, descending (ties broken by term id for
    /// determinism).
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
        // Presence rate per class, recomputed by each pass below rather
        // than collected: the same values summed in the same order.
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
        // Within-class variance of a Bernoulli(p) presence indicator.
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
        for (c, (&df, &nc)) in dfs.iter().zip(&self.class_docs).enumerate() {
            let _ = c;
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes; term 1 is a perfect discriminator, term 2 is uniform
    /// noise, term 3 is a partial signal.
    fn fixture() -> ClassTermStats {
        let mut s = ClassTermStats::new(2);
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
        let s = fixture();
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
        let s = fixture();
        let top = s.select_top_k(FeatureScore::Fisher, 2);
        assert_eq!(top[0], 1);
        assert_eq!(top.len(), 2);
        let all = s.select_top_k(FeatureScore::Fisher, 100);
        assert_eq!(all.len(), 3, "only as many terms as exist");
    }

    /// The Fisher score as first written, over a collected rate per class.
    fn fisher_collected(s: &ClassTermStats, dfs: &[u32]) -> f64 {
        let rates: Vec<f64> = dfs
            .iter()
            .zip(&s.class_docs)
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
        let mut s = ClassTermStats::new(5);
        for doc in 0u32..60 {
            let class = (doc * 7 % 4) as usize;
            s.add_doc(
                class,
                (0u32..40).filter(|t| (doc + t * 3) % (t % 5 + 2) == 0),
            );
        }
        assert!(s.num_terms() > 30);
        for t in s.terms() {
            let dfs = &s.term_class_df[&t];
            let fisher = s.score(t, FeatureScore::Fisher);
            assert_eq!(
                fisher.to_bits(),
                fisher_collected(&s, dfs).to_bits(),
                "term {t}"
            );
        }
    }

    #[test]
    fn unknown_term_scores_zero() {
        let s = fixture();
        assert_eq!(s.score(999, FeatureScore::Fisher), 0.0);
    }

    #[test]
    fn uniform_term_has_near_zero_mi() {
        let s = fixture();
        assert!(s.score(2, FeatureScore::MutualInfo) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "class out of range")]
    fn class_bounds_checked() {
        let mut s = ClassTermStats::new(1);
        s.add_doc(1, [0u32]);
    }
}
