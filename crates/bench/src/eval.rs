//! Evaluation kit: confusion matrices with accuracy, and seeded
//! train/test splits — what the ablations report their numbers with.

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
}
