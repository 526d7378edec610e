//! Evaluation kit: confusion matrices, accuracy/F1, seeded splits and
//! k-fold cross-validation — everything the T1/F1 experiments need to
//! report numbers the way the paper's companion evaluation did.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A k×k confusion matrix (`rows = truth`, `cols = prediction`).
#[derive(Debug, Clone)]
pub struct Confusion {
    k: usize,
    counts: Vec<u64>,
}

impl Confusion {
    pub fn new(num_classes: usize) -> Confusion {
        Confusion {
            k: num_classes,
            counts: vec![0; num_classes * num_classes],
        }
    }

    /// Build from parallel truth/prediction slices.
    pub fn from_pairs(num_classes: usize, truth: &[usize], pred: &[usize]) -> Confusion {
        assert_eq!(truth.len(), pred.len());
        let mut c = Confusion::new(num_classes);
        for (&t, &p) in truth.iter().zip(pred) {
            c.record(t, p);
        }
        c
    }

    pub fn record(&mut self, truth: usize, pred: usize) {
        assert!(truth < self.k && pred < self.k);
        self.counts[truth * self.k + pred] += 1;
    }

    pub fn get(&self, truth: usize, pred: usize) -> u64 {
        self.counts[truth * self.k + pred]
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Fraction on the diagonal.
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.k).map(|i| self.get(i, i)).sum();
        correct as f64 / total as f64
    }
}

/// Deterministic shuffled split: returns (train, test) index sets with
/// `test_fraction` of items in the test set (at least 1 of each when
/// possible).
pub fn train_test_split(n: usize, test_fraction: f64, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!((0.0..1.0).contains(&test_fraction));
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut n_test = ((n as f64) * test_fraction).round() as usize;
    if n >= 2 {
        n_test = n_test.clamp(1, n - 1);
    }
    let test = idx[..n_test].to_vec();
    let train = idx[n_test..].to_vec();
    (train, test)
}

/// Deterministic k-fold assignment: returns for each fold the (train, test)
/// index sets. Every item appears in exactly one test fold.
pub fn k_fold(n: usize, k: usize, seed: u64) -> Vec<(Vec<usize>, Vec<usize>)> {
    assert!(k >= 2 && k <= n, "need 2 <= k <= n");
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    idx.shuffle(&mut rng);
    let mut folds: Vec<Vec<usize>> = vec![Vec::new(); k];
    for (i, &item) in idx.iter().enumerate() {
        folds[i % k].push(item);
    }
    (0..k)
        .map(|f| {
            let test = folds[f].clone();
            let train: Vec<usize> = folds
                .iter()
                .enumerate()
                .filter(|&(i, _)| i != f)
                .flat_map(|(_, v)| v.iter().copied())
                .collect();
            (train, test)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_on_known_matrix() {
        // truth:  0 0 0 1 1 1 ; pred: 0 0 1 1 1 0
        let c = Confusion::from_pairs(2, &[0, 0, 0, 1, 1, 1], &[0, 0, 1, 1, 1, 0]);
        assert!((c.accuracy() - 4.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn empty_matrix_is_zero_not_nan() {
        let c = Confusion::new(3);
        assert_eq!(c.accuracy(), 0.0);
    }

    #[test]
    fn split_is_deterministic_and_partitions() {
        let (train1, test1) = train_test_split(100, 0.3, 42);
        let (train2, test2) = train_test_split(100, 0.3, 42);
        assert_eq!(train1, train2);
        assert_eq!(test1, test2);
        assert_eq!(test1.len(), 30);
        let mut all: Vec<usize> = train1.iter().chain(&test1).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..100).collect::<Vec<_>>());
        let (_, test_other_seed) = train_test_split(100, 0.3, 43);
        assert_ne!(test1, test_other_seed, "seed changes the split");
    }

    #[test]
    fn split_never_empties_either_side() {
        let (train, test) = train_test_split(2, 0.01, 7);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
    }

    #[test]
    fn k_fold_covers_everything_once() {
        let folds = k_fold(23, 5, 9);
        assert_eq!(folds.len(), 5);
        let mut seen = [0u32; 23];
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), 23);
            for &t in test {
                seen[t] += 1;
            }
            // Train and test are disjoint.
            for &t in test {
                assert!(!train.contains(&t));
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }
}
