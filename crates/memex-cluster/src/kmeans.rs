//! Spherical k-means: cosine assignment, mean-of-unit-vectors centroids,
//! deterministic under a caller-provided seed. Used directly, as the
//! refinement pass of Buckshot Scatter/Gather, and by theme discovery to
//! split a loose theme in two.
//!
//! An iteration costs the documents' terms, not documents × centroid
//! length: assignment walks each document once against an inverted list of
//! the centroids ([`CentroidIndex`]), and re-estimation sums each cluster
//! through a dense accumulator ([`SumAccumulator`]) instead of merging the
//! growing sum with every member. Both give the bits of the sorted merges
//! they stand for, so labels and centroids are what those would give.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use memex_text::vector::{SparseVec, SumAccumulator};

use crate::nearest::CentroidIndex;

/// k-means configuration.
#[derive(Debug, Clone, Copy)]
pub struct KMeans {
    pub k: usize,
    pub max_iters: usize,
    /// Keep only this many terms per centroid (Scatter/Gather's truncated
    /// profiles; 0 = no truncation).
    pub centroid_terms: usize,
    pub seed: u64,
}

impl KMeans {
    pub fn new(k: usize) -> KMeans {
        KMeans {
            k,
            max_iters: 20,
            centroid_terms: 64,
            seed: 0x5EED,
        }
    }

    /// Cluster `docs` (normalised internally). Seeds are random distinct
    /// documents unless `seeds` is given.
    pub fn run(&self, docs: &[SparseVec], seeds: Option<Vec<SparseVec>>) -> KMeansResult {
        let n = docs.len();
        let k = self.k.max(1).min(n.max(1));
        let mut normed: Vec<SparseVec> = docs
            .iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                v
            })
            .collect();
        if n == 0 {
            return KMeansResult {
                labels: Vec::new(),
                centroids: Vec::new(),
                iterations: 0,
            };
        }
        let mut centroids: Vec<SparseVec> = match seeds {
            Some(s) if !s.is_empty() => {
                let mut s = s;
                for c in &mut s {
                    c.normalize();
                }
                s.truncate(k);
                s
            }
            _ => {
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut idx: Vec<usize> = (0..n).collect();
                idx.shuffle(&mut rng);
                idx[..k].iter().map(|&i| normed[i].clone()).collect()
            }
        };
        let k = centroids.len();
        let mut labels = vec![0usize; n];
        let mut iterations = 0usize;
        let mut acc = SumAccumulator::default();
        for it in 0..self.max_iters {
            iterations = it + 1;
            // Assign.
            let index = CentroidIndex::new(&centroids.iter().collect::<Vec<_>>());
            let mut changed = false;
            for (d, doc) in normed.iter().enumerate() {
                let best = index.nearest(doc).unwrap_or(0);
                if labels[d] != best {
                    labels[d] = best;
                    changed = true;
                }
            }
            if it > 0 && !changed {
                break;
            }
            // Re-estimate: each cluster's members summed in document order.
            let mut sums: Vec<SparseVec> = Vec::with_capacity(k);
            for c in 0..k {
                let mut members = 0usize;
                for (doc, _) in normed.iter().zip(&labels).filter(|&(_, &l)| l == c) {
                    acc.add(doc);
                    members += 1;
                }
                let mut sum = acc.take();
                if members == 0 {
                    // Empty cluster: reseed with the doc farthest from its
                    // centroid (deterministic: lowest dot wins).
                    let worst = normed
                        .iter()
                        .enumerate()
                        .map(|(d, doc)| (doc, doc.dot(&centroids[labels[d]])))
                        .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
                    if let Some((doc, _)) = worst {
                        sum = doc.clone();
                    }
                }
                sum.normalize();
                if self.centroid_terms > 0 {
                    sum.truncate_top(self.centroid_terms);
                    sum.normalize();
                }
                sums.push(sum);
            }
            centroids = sums;
        }
        // Normalised docs are no longer needed; free before returning.
        normed.clear();
        KMeansResult {
            labels,
            centroids,
            iterations,
        }
    }
}

/// k-means output.
#[derive(Debug, Clone)]
pub struct KMeansResult {
    pub labels: Vec<usize>,
    pub centroids: Vec<SparseVec>,
    pub iterations: usize,
}

impl KMeansResult {
    /// Mean cosine of documents to their assigned centroid (cohesion).
    pub fn cohesion(&self, docs: &[SparseVec]) -> f32 {
        if docs.is_empty() {
            return 0.0;
        }
        let total: f32 = docs
            .iter()
            .zip(&self.labels)
            .map(|(d, &l)| {
                let mut v = d.clone();
                v.normalize();
                v.dot(&self.centroids[l])
            })
            .sum();
        total / docs.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    fn two_blobs() -> (Vec<SparseVec>, Vec<usize>) {
        let mut docs = Vec::new();
        let mut truth = Vec::new();
        for i in 0..10u32 {
            if i < 5 {
                docs.push(v(&[(1, 2.0), (2, 1.0 + 0.1 * i as f32)]));
                truth.push(0);
            } else {
                docs.push(v(&[(10, 2.0), (11, 1.0 + 0.1 * i as f32)]));
                truth.push(1);
            }
        }
        (docs, truth)
    }

    #[test]
    fn separates_two_blobs() {
        let (docs, truth) = two_blobs();
        let result = KMeans::new(2).run(&docs, None);
        // Same partition up to label swap.
        let l = &result.labels;
        let consistent = truth
            .iter()
            .zip(l)
            .all(|(&t, &p)| p == l[0] && t == truth[0] || p != l[0] && t != truth[0]);
        assert!(consistent, "labels {l:?}");
        assert!(result.cohesion(&docs) > 0.95);
    }

    #[test]
    fn deterministic_given_seed() {
        let (docs, _) = two_blobs();
        let a = KMeans::new(2).run(&docs, None);
        let b = KMeans::new(2).run(&docs, None);
        assert_eq!(a.labels, b.labels);
        let mut other = KMeans::new(2);
        other.seed = 999;
        let _ = other.run(&docs, None); // may differ, must not panic
    }

    #[test]
    fn explicit_seeds_are_respected() {
        let (docs, _) = two_blobs();
        let seeds = vec![docs[0].clone(), docs[9].clone()];
        let result = KMeans::new(2).run(&docs, Some(seeds));
        assert_eq!(result.labels[0], 0);
        assert_eq!(result.labels[9], 1);
    }

    #[test]
    fn empty_cluster_is_reseeded_with_the_farthest_doc() {
        // Two identical seeds: every doc lands in one cluster, the other
        // is empty after the first assignment and is reseeded with the doc
        // farthest from its centroid — the run still finds both blobs.
        let (docs, truth) = two_blobs();
        let seeds = vec![docs[0].clone(), docs[0].clone()];
        let result = KMeans::new(2).run(&docs, Some(seeds));
        let l = &result.labels;
        assert!(
            truth
                .iter()
                .zip(l)
                .all(|(&t, &p)| (p == l[0]) == (t == truth[0])),
            "labels {l:?}"
        );
        assert!(result.cohesion(&docs) > 0.95);
    }

    #[test]
    fn k_larger_than_n_clamps() {
        let docs = vec![v(&[(1, 1.0)]), v(&[(2, 1.0)])];
        let result = KMeans::new(10).run(&docs, None);
        assert_eq!(result.centroids.len(), 2);
    }

    #[test]
    fn empty_input_is_fine() {
        let result = KMeans::new(3).run(&[], None);
        assert!(result.labels.is_empty());
        assert!(result.centroids.is_empty());
    }

    #[test]
    fn centroid_truncation_bounds_profile_size() {
        let (docs, _) = two_blobs();
        let mut km = KMeans::new(2);
        km.centroid_terms = 1;
        let result = km.run(&docs, None);
        assert!(result.centroids.iter().all(|c| c.len() <= 1));
    }
}
