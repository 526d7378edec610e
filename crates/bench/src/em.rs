//! Semi-supervised naive Bayes via Expectation–Maximisation (Nigam,
//! McCallum, Thrun & Mitchell, 1999/2000 — the contemporaneous technique a
//! 2000-era classification demon would reach for).
//!
//! Memex's demon sits on exactly this data shape: a handful of *labelled*
//! documents (deliberate bookmarks) and a flood of *unlabelled* ones (the
//! rest of the history). EM alternates:
//!
//! * **E-step** — score every unlabelled document with the current model's
//!   posteriors;
//! * **M-step** — retrain with unlabelled documents contributing
//!   *fractionally* (weighted by posterior, scaled by `unlabelled_weight`
//!   so the unlabelled mass cannot drown the labelled evidence).
//!
//! Ablation A5 measures what this buys over supervised-only text and where
//! it stands relative to the link/folder-enhanced classifier.

use memex_text::vocab::TermId;

use memex_learn::nb::{argmax, log_normalize, NaiveBayes, NbOptions};

/// EM configuration.
#[derive(Debug, Clone, Copy)]
pub struct EmOptions {
    /// EM rounds (1 = classic self-training-ish single pass).
    pub iterations: usize,
    /// Scale applied to every unlabelled document's fractional counts
    /// (Nigam et al.'s λ; 0.1–1.0 typical).
    pub unlabelled_weight: f64,
    /// Underlying naive Bayes smoothing.
    pub nb: NbOptions,
}

impl Default for EmOptions {
    fn default() -> Self {
        EmOptions {
            iterations: 5,
            unlabelled_weight: 0.5,
            nb: NbOptions::default(),
        }
    }
}

/// Result of an EM run.
#[derive(Debug, Clone)]
pub struct EmResult {
    /// Posterior class distribution per document (labelled docs: one-hot).
    pub posteriors: Vec<Vec<f64>>,
    /// Argmax per document.
    pub predictions: Vec<usize>,
    /// Predictions of the purely supervised model (round 0 baseline).
    pub supervised_only: Vec<usize>,
}

/// Weighted multinomial NB trainer used inside the M-step: like
/// [`NaiveBayes`] but documents carry fractional class responsibility.
struct WeightedNb {
    class_docs: Vec<f64>,
    term_counts: Vec<std::collections::HashMap<TermId, f64>>,
    token_totals: Vec<f64>,
    vocab: std::collections::HashSet<TermId>,
    smoothing: f64,
}

impl WeightedNb {
    fn new(k: usize, smoothing: f64) -> WeightedNb {
        WeightedNb {
            class_docs: vec![0.0; k],
            term_counts: vec![std::collections::HashMap::new(); k],
            token_totals: vec![0.0; k],
            vocab: std::collections::HashSet::new(),
            smoothing,
        }
    }

    fn add(&mut self, class: usize, tf: &[(TermId, u32)], weight: f64) {
        if weight <= 0.0 {
            return;
        }
        self.class_docs[class] += weight;
        for &(t, c) in tf {
            let w = weight * f64::from(c);
            *self.term_counts[class].entry(t).or_insert(0.0) += w;
            self.token_totals[class] += w;
            self.vocab.insert(t);
        }
    }

    fn log_posteriors(&self, tf: &[(TermId, u32)]) -> Vec<f64> {
        let k = self.class_docs.len();
        let total_docs: f64 = self.class_docs.iter().sum::<f64>().max(1e-9);
        let v = self.vocab.len().max(1) as f64;
        let mut scores: Vec<f64> = (0..k)
            .map(|c| ((self.class_docs[c] + 1.0) / (total_docs + k as f64)).ln())
            .collect();
        for &(t, count) in tf {
            for (c, s) in scores.iter_mut().enumerate() {
                let tc = self.term_counts[c].get(&t).copied().unwrap_or(0.0);
                let p = (tc + self.smoothing) / (self.token_totals[c] + self.smoothing * v);
                *s += f64::from(count) * p.ln();
            }
        }
        log_normalize(&mut scores);
        scores
    }
}

/// Run EM over `docs` where `labels[d]` is `Some(class)` for the labelled
/// subset. Returns posteriors and predictions for every document.
pub fn em_naive_bayes(
    num_classes: usize,
    docs: &[Vec<(TermId, u32)>],
    labels: &[Option<usize>],
    opts: EmOptions,
) -> EmResult {
    assert_eq!(docs.len(), labels.len());
    let n = docs.len();
    // Round 0: purely supervised model.
    let mut supervised = NaiveBayes::new(num_classes, opts.nb);
    for (d, l) in labels.iter().enumerate() {
        if let Some(c) = l {
            supervised.add_document(*c, &docs[d]);
        }
    }
    let mut posteriors: Vec<Vec<f64>> = (0..n)
        .map(|d| match labels[d] {
            Some(c) => one_hot(num_classes, c),
            None => supervised.posteriors(&docs[d]),
        })
        .collect();
    let supervised_only: Vec<usize> = (0..n)
        .map(|d| match labels[d] {
            Some(c) => c,
            None => argmax(&posteriors[d]),
        })
        .collect();
    for _ in 0..opts.iterations {
        // M-step with fractional counts.
        let mut model = WeightedNb::new(num_classes, opts.nb.smoothing);
        for d in 0..n {
            match labels[d] {
                Some(c) => model.add(c, &docs[d], 1.0),
                None => {
                    for (c, &p) in posteriors[d].iter().enumerate() {
                        model.add(c, &docs[d], opts.unlabelled_weight * p);
                    }
                }
            }
        }
        // E-step.
        for d in 0..n {
            if labels[d].is_none() {
                posteriors[d] = model
                    .log_posteriors(&docs[d])
                    .iter()
                    .map(|&l| l.exp())
                    .collect();
            }
        }
    }
    let predictions: Vec<usize> = (0..n)
        .map(|d| match labels[d] {
            Some(c) => c,
            None => argmax(&posteriors[d]),
        })
        .collect();
    EmResult {
        posteriors,
        predictions,
        supervised_only,
    }
}

fn one_hot(k: usize, c: usize) -> Vec<f64> {
    let mut v = vec![0.0; k];
    v[c] = 1.0;
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two classes with overlapping vocabulary; only 2 labelled docs each,
    /// but plenty of unlabelled structure for EM to exploit.
    #[allow(clippy::type_complexity)]
    fn problem() -> (Vec<Vec<(TermId, u32)>>, Vec<Option<usize>>, Vec<usize>) {
        let mut docs = Vec::new();
        let mut labels = Vec::new();
        let mut truth = Vec::new();
        for i in 0..40usize {
            let class = i % 2;
            truth.push(class);
            // Class 0: terms {1,2} strong, {10} weak; class 1 mirrored;
            // term 5 shared. Unlabelled docs carry only one strong term, so
            // the supervised model (trained on 2 docs/class) is shaky.
            let tf = if class == 0 {
                if i < 4 {
                    vec![(1u32, 3u32), (2, 2), (5, 1)]
                } else {
                    vec![(1 + (i as u32 % 2), 1), (5, 1)]
                }
            } else if i < 4 {
                vec![(10u32, 3u32), (11, 2), (5, 1)]
            } else {
                vec![(10 + (i as u32 % 2), 1), (5, 1)]
            };
            docs.push(tf);
            labels.push(if i < 4 { Some(class) } else { None });
        }
        (docs, labels, truth)
    }

    #[test]
    fn em_improves_or_matches_supervised() {
        let (docs, labels, truth) = problem();
        let result = em_naive_bayes(2, &docs, &labels, EmOptions::default());
        let acc = |preds: &[usize]| {
            preds
                .iter()
                .zip(&truth)
                .zip(&labels)
                .filter(|((_, _), l)| l.is_none())
                .filter(|((p, t), _)| p == t)
                .count() as f64
                / labels.iter().filter(|l| l.is_none()).count() as f64
        };
        let em_acc = acc(&result.predictions);
        let sup_acc = acc(&result.supervised_only);
        assert!(
            em_acc >= sup_acc,
            "EM {em_acc} must not be worse than supervised {sup_acc}"
        );
        assert!(em_acc > 0.9, "EM should nearly solve this: {em_acc}");
    }

    #[test]
    fn labelled_docs_are_clamped() {
        let (docs, labels, _) = problem();
        let result = em_naive_bayes(2, &docs, &labels, EmOptions::default());
        for (d, l) in labels.iter().enumerate() {
            if let Some(c) = l {
                assert_eq!(result.predictions[d], *c);
                assert_eq!(result.posteriors[d][*c], 1.0);
            }
        }
    }

    #[test]
    fn posteriors_are_distributions() {
        let (docs, labels, _) = problem();
        let result = em_naive_bayes(2, &docs, &labels, EmOptions::default());
        for p in &result.posteriors {
            assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-6);
            assert!(p.iter().all(|&x| (0.0..=1.0 + 1e-9).contains(&x)));
        }
    }

    #[test]
    fn zero_iterations_equals_supervised() {
        let (docs, labels, _) = problem();
        let opts = EmOptions {
            iterations: 0,
            ..Default::default()
        };
        let result = em_naive_bayes(2, &docs, &labels, opts);
        assert_eq!(result.predictions, result.supervised_only);
    }

    #[test]
    fn all_unlabelled_is_harmless() {
        // No labels at all: the model falls back to priors; must not panic.
        let docs = vec![vec![(1u32, 1u32)], vec![(2, 1)]];
        let labels = vec![None, None];
        let result = em_naive_bayes(2, &docs, &labels, EmOptions::default());
        assert_eq!(result.predictions.len(), 2);
    }
}
