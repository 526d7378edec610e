//! Scatter/Gather (Cutting, Karger & Pedersen, paper ref \[6\]): cluster a
//! collection fast enough to *browse* it. The key to "constant
//! interaction-time" is seeding k-means from a small sample instead of
//! running HAC over everything:
//!
//! * **Buckshot** — HAC over a random sample of √(k·n) documents, use the
//!   resulting k centroids as k-means seeds: O(k·n) overall.
//! * **Fractionation** — repeatedly HAC fixed-size buckets down to a ρ
//!   fraction, treating merged groups as pseudo-documents, until k remain.
//!
//! The T3 experiment plots both against full HAC as n grows.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use memex_text::vector::SparseVec;
use memex_text::vocab::{TermId, Vocabulary};

use crate::hac::{hac_cut, Hac};
use crate::kmeans::{KMeans, KMeansResult};

/// Buckshot clustering: sample-seeded spherical k-means.
pub fn buckshot(docs: &[SparseVec], k: usize, seed: u64) -> KMeansResult {
    let n = docs.len();
    if n == 0 {
        return KMeans::new(k).run(docs, None);
    }
    let sample_size = (((k * n) as f64).sqrt().ceil() as usize).clamp(k.min(n), n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut idx: Vec<usize> = (0..n).collect();
    idx.shuffle(&mut rng);
    let sample: Vec<SparseVec> = idx[..sample_size]
        .iter()
        .map(|&i| docs[i].clone())
        .collect();
    let labels = hac_cut(&sample, k);
    let seeds = centroids_of(&sample, &labels, k);
    let mut km = KMeans::new(k);
    km.seed = seed;
    km.run(docs, Some(seeds))
}

/// Fractionation clustering: bottom-up bucketed agglomeration to k seeds,
/// then one k-means pass.
///
/// Groups carry their mass (`(sum of unit vectors, count)`) between rounds
/// so the in-bucket group-average linkage stays exact over the original
/// documents; buckets are formed after sorting by dominant term (Cutting
/// et al.'s locality trick).
pub fn fractionation(
    docs: &[SparseVec],
    k: usize,
    bucket: usize,
    rho: f64,
    seed: u64,
) -> KMeansResult {
    let n = docs.len();
    if n == 0 {
        return KMeans::new(k).run(docs, None);
    }
    assert!(bucket >= 2 && (0.0..1.0).contains(&rho) && rho > 0.0);
    let mut pseudo: Vec<(SparseVec, usize)> = docs
        .iter()
        .map(|d| {
            let mut v = d.clone();
            v.normalize();
            (v, 1)
        })
        .collect();
    // Merge a labelled chunk of weighted groups into `target` groups.
    fn merge_groups(
        chunk: &[(SparseVec, usize)],
        labels: &[usize],
        target: usize,
    ) -> Vec<(SparseVec, usize)> {
        let mut out: Vec<(SparseVec, usize)> = vec![(SparseVec::new(), 0); target];
        for ((sum, size), &l) in chunk.iter().zip(labels) {
            if l < target {
                out[l].0.add_assign(sum);
                out[l].1 += size;
            }
        }
        out.retain(|(_, size)| *size > 0);
        out
    }
    while pseudo.len() > k {
        // Final round: one weighted HAC straight to k so we never undershoot.
        if pseudo.len() <= bucket || ((pseudo.len() as f64 * rho).ceil() as usize) < k {
            let labels = Hac::new_weighted(&pseudo).run().cut(k);
            pseudo = merge_groups(&pseudo, &labels, k);
            break;
        }
        // Locality: sort by dominant term so buckets are mostly-kindred.
        pseudo.sort_by_key(|(v, _)| {
            v.entries()
                .iter()
                .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
                .map(|&(t, _)| t)
                .unwrap_or(u32::MAX)
        });
        let mut next: Vec<(SparseVec, usize)> =
            Vec::with_capacity((pseudo.len() as f64 * rho) as usize + 1);
        for chunk in pseudo.chunks(bucket) {
            let target = ((chunk.len() as f64 * rho).ceil() as usize).clamp(1, chunk.len());
            let labels = Hac::new_weighted(chunk).run().cut(target);
            next.extend(merge_groups(chunk, &labels, target));
        }
        if next.len() >= pseudo.len() {
            // No progress possible (tiny inputs): force-merge to k.
            let labels = Hac::new_weighted(&pseudo).run().cut(k);
            pseudo = merge_groups(&pseudo, &labels, k);
            break;
        }
        pseudo = next;
    }
    let seeds: Vec<SparseVec> = pseudo
        .into_iter()
        .map(|(mut sum, _)| {
            sum.normalize();
            sum
        })
        .collect();
    let mut km = KMeans::new(k);
    km.seed = seed;
    km.run(docs, Some(seeds))
}

/// Cluster centroids (unit-normalised) from a flat labelling.
fn centroids_of(docs: &[SparseVec], labels: &[usize], k: usize) -> Vec<SparseVec> {
    let mut sums = vec![SparseVec::new(); k];
    for (d, &l) in labels.iter().enumerate() {
        if l < k {
            let mut v = docs[d].clone();
            v.normalize();
            sums[l].add_assign(&v);
        }
    }
    sums.retain(|s| !s.is_empty());
    for s in &mut sums {
        s.normalize();
    }
    sums
}

/// An interactive Scatter/Gather session over a fixed document set: scatter
/// into k clusters with term summaries, gather a subset, re-scatter.
pub struct ScatterGather<'a> {
    docs: &'a [SparseVec],
    vocab: &'a Vocabulary,
    k: usize,
    seed: u64,
    /// Currently in-focus documents (indices into `docs`).
    focus: Vec<usize>,
}

/// One displayed cluster: member doc indices and summary terms.
#[derive(Debug, Clone)]
pub struct ClusterView {
    pub members: Vec<usize>,
    pub summary: Vec<String>,
}

impl<'a> ScatterGather<'a> {
    pub fn new(docs: &'a [SparseVec], vocab: &'a Vocabulary, k: usize, seed: u64) -> Self {
        ScatterGather {
            docs,
            vocab,
            k,
            seed,
            focus: (0..docs.len()).collect(),
        }
    }

    /// Scatter the focus set into k summarised clusters (Buckshot).
    pub fn scatter(&self) -> Vec<ClusterView> {
        let subset: Vec<SparseVec> = self.focus.iter().map(|&i| self.docs[i].clone()).collect();
        let result = buckshot(&subset, self.k.min(subset.len().max(1)), self.seed);
        let k = result.centroids.len();
        let mut views: Vec<ClusterView> = (0..k)
            .map(|_| ClusterView {
                members: Vec::new(),
                summary: Vec::new(),
            })
            .collect();
        for (local, &l) in result.labels.iter().enumerate() {
            views[l].members.push(self.focus[local]);
        }
        for (c, view) in views.iter_mut().enumerate() {
            view.summary = top_terms(&result.centroids[c], self.vocab, 5);
        }
        views.retain(|v| !v.members.is_empty());
        views
    }

    /// Gather: narrow the focus to the union of the chosen clusters.
    pub fn gather(&mut self, chosen: &[&ClusterView]) {
        let mut focus: Vec<usize> = chosen
            .iter()
            .flat_map(|v| v.members.iter().copied())
            .collect();
        focus.sort_unstable();
        focus.dedup();
        if !focus.is_empty() {
            self.focus = focus;
        }
    }

    /// Reset the focus to the full collection.
    pub fn reset(&mut self) {
        self.focus = (0..self.docs.len()).collect();
    }
}

/// Highest-weight vocabulary terms of a centroid.
pub fn top_terms(centroid: &SparseVec, vocab: &Vocabulary, k: usize) -> Vec<String> {
    let mut entries: Vec<(TermId, f32)> = centroid.entries().to_vec();
    entries.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    entries
        .into_iter()
        .take(k)
        .filter_map(|(t, _)| vocab.term(t).map(str::to_string))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Build m separable groups of docs plus the vocabulary naming them.
    fn groups(m: usize, per: usize) -> (Vec<SparseVec>, Vec<usize>, Vocabulary) {
        let mut vocab = Vocabulary::new();
        let mut docs = Vec::new();
        let mut truth = Vec::new();
        for g in 0..m {
            let anchor = vocab.intern(&format!("topic{g}"));
            let extra = vocab.intern(&format!("aux{g}"));
            for j in 0..per {
                let w = 1.0 + (j % 3) as f32 * 0.1;
                docs.push(SparseVec::from_pairs(vec![(anchor, 2.0), (extra, w)]));
                truth.push(g);
            }
        }
        (docs, truth, vocab)
    }

    fn purity(labels: &[usize], truth: &[usize]) -> f64 {
        let k = labels.iter().max().map(|&m| m + 1).unwrap_or(0);
        let mut correct = 0usize;
        for c in 0..k {
            let mut counts = std::collections::HashMap::new();
            for (l, t) in labels.iter().zip(truth) {
                if *l == c {
                    *counts.entry(*t).or_insert(0usize) += 1;
                }
            }
            correct += counts.values().max().copied().unwrap_or(0);
        }
        correct as f64 / labels.len() as f64
    }

    #[test]
    fn buckshot_recovers_groups() {
        let (docs, truth, _) = groups(4, 20);
        let result = buckshot(&docs, 4, 7);
        assert!(purity(&result.labels, &truth) > 0.9, "purity too low");
    }

    #[test]
    fn fractionation_recovers_groups() {
        let (docs, truth, _) = groups(3, 15);
        let result = fractionation(&docs, 3, 10, 0.3, 7);
        assert!(purity(&result.labels, &truth) > 0.9);
    }

    #[test]
    fn scatter_summaries_name_the_topics() {
        let (docs, _, vocab) = groups(3, 10);
        let sg = ScatterGather::new(&docs, &vocab, 3, 1);
        let views = sg.scatter();
        assert_eq!(views.len(), 3);
        let mut seen_anchors = 0;
        for v in &views {
            assert!(!v.members.is_empty());
            if v.summary.iter().any(|s| s.starts_with("topic")) {
                seen_anchors += 1;
            }
        }
        assert_eq!(
            seen_anchors, 3,
            "each cluster summary should surface its anchor term"
        );
    }

    #[test]
    fn gather_narrows_then_rescatters() {
        let (docs, truth, vocab) = groups(3, 10);
        let mut sg = ScatterGather::new(&docs, &vocab, 3, 1);
        let views = sg.scatter();
        // Pick the cluster holding doc 0.
        let chosen: Vec<&ClusterView> = views.iter().filter(|v| v.members.contains(&0)).collect();
        sg.gather(&chosen);
        assert!(sg.focus.len() < docs.len());
        let inner = sg.scatter();
        // Re-scattering the gathered subset still covers only group 0 docs.
        for v in &inner {
            for &m in &v.members {
                assert_eq!(truth[m], truth[0]);
            }
        }
        sg.reset();
        assert_eq!(sg.focus.len(), docs.len());
    }

    #[test]
    fn tiny_collections_do_not_break() {
        let (docs, _, _) = groups(1, 2);
        let r = buckshot(&docs, 5, 3);
        assert_eq!(r.labels.len(), 2);
        let r = fractionation(&docs, 1, 2, 0.5, 3);
        assert_eq!(r.labels.len(), 2);
        let r = buckshot(&[], 3, 3);
        assert!(r.labels.is_empty());
    }
}
