//! Clustering quality metrics: purity, normalised mutual information, and
//! the MDL-style *description cost* F4 scores theme discovery with (Fig. 4):
//! model cost per theme + data cost for how badly each document fits its
//! theme centroid.

use std::collections::HashMap;

use memex_text::vector::SparseVec;

/// Purity: fraction of documents in the majority-truth class of their
/// cluster. 1.0 = perfect, 1/k-ish = random.
pub fn purity(labels: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(labels.len(), truth.len());
    if labels.is_empty() {
        return 0.0;
    }
    let mut per_cluster: HashMap<usize, HashMap<usize, usize>> = HashMap::new();
    for (&l, &t) in labels.iter().zip(truth) {
        *per_cluster.entry(l).or_default().entry(t).or_insert(0) += 1;
    }
    let correct: usize = per_cluster
        .values()
        .map(|counts| counts.values().max().copied().unwrap_or(0))
        .sum();
    correct as f64 / labels.len() as f64
}

/// Normalised mutual information between a clustering and the truth, in
/// `[0, 1]` (arithmetic-mean normalisation).
pub fn nmi(labels: &[usize], truth: &[usize]) -> f64 {
    assert_eq!(labels.len(), truth.len());
    let n = labels.len() as f64;
    if labels.is_empty() {
        return 0.0;
    }
    let mut joint: HashMap<(usize, usize), f64> = HashMap::new();
    let mut pl: HashMap<usize, f64> = HashMap::new();
    let mut pt: HashMap<usize, f64> = HashMap::new();
    for (&l, &t) in labels.iter().zip(truth) {
        *joint.entry((l, t)).or_insert(0.0) += 1.0;
        *pl.entry(l).or_insert(0.0) += 1.0;
        *pt.entry(t).or_insert(0.0) += 1.0;
    }
    let mut mi = 0.0;
    for (&(l, t), &c) in &joint {
        let pxy = c / n;
        let px = pl[&l] / n;
        let py = pt[&t] / n;
        mi += pxy * (pxy / (px * py)).ln();
    }
    let hl: f64 = -pl.values().map(|&c| (c / n) * (c / n).ln()).sum::<f64>();
    let ht: f64 = -pt.values().map(|&c| (c / n) * (c / n).ln()).sum::<f64>();
    let denom = 0.5 * (hl + ht);
    if denom <= 0.0 {
        // Degenerate: single cluster and single class => identical.
        return if hl == ht { 1.0 } else { 0.0 };
    }
    (mi / denom).clamp(0.0, 1.0)
}

/// MDL-style cost of a flat partition of `docs`:
/// `alpha * num_clusters + sum_d (1 - cos(d, centroid(cluster(d))))`.
///
/// The first term charges for model complexity (each theme's signature must
/// be described); the second is the data misfit. Refining a loose theme
/// pays `alpha` but recovers misfit; coarsening a tiny theme saves `alpha`
/// at little misfit cost — exactly the paper's "refining topics where
/// needed and coarsening where possible" trade-off.
pub fn partition_cost(docs: &[SparseVec], labels: &[usize], alpha: f64) -> f64 {
    assert_eq!(docs.len(), labels.len());
    if docs.is_empty() {
        return 0.0;
    }
    let k = labels.iter().max().map(|&m| m + 1).unwrap_or(0);
    let mut sums = vec![SparseVec::new(); k];
    let mut used = vec![false; k];
    for (doc, &l) in docs.iter().zip(labels) {
        let mut v = doc.clone();
        v.normalize();
        sums[l].add_assign(&v);
        used[l] = true;
    }
    for s in &mut sums {
        s.normalize();
    }
    let num_clusters = used.iter().filter(|&&u| u).count();
    let mut data = 0.0f64;
    for (doc, &l) in docs.iter().zip(labels) {
        let mut v = doc.clone();
        v.normalize();
        data += f64::from(1.0 - v.dot(&sums[l]));
    }
    alpha * num_clusters as f64 + data
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn purity_extremes() {
        assert_eq!(purity(&[0, 0, 1, 1], &[0, 0, 1, 1]), 1.0);
        assert_eq!(purity(&[0, 1, 0, 1], &[0, 0, 1, 1]), 0.5);
        // Singleton clusters are trivially pure.
        assert_eq!(purity(&[0, 1, 2, 3], &[0, 0, 1, 1]), 1.0);
    }

    #[test]
    fn nmi_extremes() {
        assert!(
            (nmi(&[0, 0, 1, 1], &[1, 1, 0, 0]) - 1.0).abs() < 1e-9,
            "label permutation is perfect"
        );
        let low = nmi(&[0, 1, 0, 1], &[0, 0, 1, 1]);
        assert!(low < 0.01, "independent labelling has ~zero NMI, got {low}");
        // Singletons are penalised relative to the permutation case.
        assert!(nmi(&[0, 1, 2, 3], &[0, 0, 1, 1]) < 1.0);
    }

    #[test]
    fn cost_prefers_the_true_structure() {
        // Two tight groups. Correct 2-way split should beat both the 1-way
        // and the 4-way splits at moderate alpha.
        let docs = vec![
            v(&[(1, 1.0), (2, 0.2)]),
            v(&[(1, 1.0), (2, 0.3)]),
            v(&[(9, 1.0), (8, 0.2)]),
            v(&[(9, 1.0), (8, 0.3)]),
        ];
        let alpha = 0.05;
        let two = partition_cost(&docs, &[0, 0, 1, 1], alpha);
        let one = partition_cost(&docs, &[0, 0, 0, 0], alpha);
        let four = partition_cost(&docs, &[0, 1, 2, 3], alpha);
        assert!(two < one, "refinement pays off: {two} vs {one}");
        assert!(two < four, "over-refinement is charged: {two} vs {four}");
    }

    #[test]
    fn cost_is_zero_clusters_for_empty() {
        assert_eq!(partition_cost(&[], &[], 1.0), 0.0);
    }
}
