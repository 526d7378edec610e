//! Group-average hierarchical agglomerative clustering (HAC).
//!
//! Documents are L2-normalised sparse vectors, so the *exact* group-average
//! cosine linkage between clusters A and B is
//! `sim(A, B) = (S_A · S_B) / (|A| · |B|)` where `S_X` is the sum of X's
//! unit vectors — merges need only vector sums, never pairwise matrices.
//! Nearest-neighbour caching keeps the whole run at roughly O(n² · d̄).

use memex_text::vector::SparseVec;

/// One merge step: clusters `a` and `b` (ids) merged into `into` at
/// group-average similarity `sim`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Merge {
    pub a: usize,
    pub b: usize,
    pub into: usize,
    pub sim: f32,
}

/// The full merge history. Leaves are 0..n; merge `i` creates cluster
/// `n + i`.
#[derive(Debug, Clone)]
pub struct Dendrogram {
    pub num_leaves: usize,
    pub merges: Vec<Merge>,
}

impl Dendrogram {
    /// Flat clustering with `k` clusters: undo the last `k - 1` merges.
    /// Returns a label in `0..k` per leaf (labels are dense, arbitrary).
    pub fn cut(&self, k: usize) -> Vec<usize> {
        let n = self.num_leaves;
        assert!(k >= 1);
        if n == 0 {
            return Vec::new();
        }
        let k = k.min(n);
        // Union-find over leaves, applying merges until only k clusters.
        let mut parent: Vec<usize> = (0..n + self.merges.len()).collect();
        fn find(parent: &mut [usize], mut x: usize) -> usize {
            while parent[x] != x {
                parent[x] = parent[parent[x]];
                x = parent[x];
            }
            x
        }
        let mut clusters = n;
        for m in &self.merges {
            if clusters <= k {
                break;
            }
            let ra = find(&mut parent, m.a);
            let rb = find(&mut parent, m.b);
            parent[ra] = m.into;
            parent[rb] = m.into;
            clusters -= 1;
        }
        // Compact roots to 0..k labels.
        let mut label_of_root = std::collections::HashMap::new();
        let mut out = Vec::with_capacity(n);
        for leaf in 0..n {
            let root = find(&mut parent, leaf);
            let next = label_of_root.len();
            let label = *label_of_root.entry(root).or_insert(next);
            out.push(label);
        }
        out
    }
}

struct Cluster {
    /// Sum of member unit vectors.
    sum: SparseVec,
    size: usize,
    alive: bool,
}

/// HAC runner.
pub struct Hac {
    clusters: Vec<Cluster>,
    num_leaves: usize,
}

impl Hac {
    /// Prepare from documents (normalised internally).
    pub fn new(docs: &[SparseVec]) -> Hac {
        let clusters = docs
            .iter()
            .map(|d| {
                let mut v = d.clone();
                v.normalize();
                Cluster {
                    sum: v,
                    size: 1,
                    alive: true,
                }
            })
            .collect();
        Hac {
            clusters,
            num_leaves: docs.len(),
        }
    }

    /// Prepare from pre-agglomerated groups: each leaf is `(sum of member
    /// unit vectors, member count)`. Group-average linkage then remains
    /// *exact* with respect to the original documents — the property
    /// Fractionation needs when it feeds merged buckets back in as
    /// pseudo-documents.
    pub fn new_weighted(groups: &[(SparseVec, usize)]) -> Hac {
        let clusters = groups
            .iter()
            .map(|(sum, size)| Cluster {
                sum: sum.clone(),
                size: (*size).max(1),
                alive: true,
            })
            .collect();
        Hac {
            clusters,
            num_leaves: groups.len(),
        }
    }

    fn sim(&self, a: usize, b: usize) -> f32 {
        let ca = &self.clusters[a];
        let cb = &self.clusters[b];
        ca.sum.dot(&cb.sum) / (ca.size as f32 * cb.size as f32)
    }

    /// Run to completion (single cluster) and return the dendrogram.
    pub fn run(mut self) -> Dendrogram {
        let n = self.num_leaves;
        let mut merges = Vec::with_capacity(n.saturating_sub(1));
        if n <= 1 {
            return Dendrogram {
                num_leaves: n,
                merges,
            };
        }
        // Nearest-neighbour cache: nn[i] = (best_j, sim).
        let mut active: Vec<usize> = (0..n).collect();
        let mut nn: Vec<Option<(usize, f32)>> = vec![None; n + (n - 1)];
        for &i in &active {
            nn[i] = self.best_neighbour(i, &active);
        }
        while active.len() > 1 {
            // Best merge among cached NNs.
            // (Two active clusters always have a neighbour each; were the
            // cache ever empty, the dendrogram simply stops short.)
            let Some((&best_i, &(best_j, best_sim))) = active
                .iter()
                .filter_map(|i| nn[*i].as_ref().map(|p| (i, p)))
                .max_by(|a, b| {
                    a.1 .1
                        .partial_cmp(&b.1 .1)
                        .unwrap_or(std::cmp::Ordering::Equal)
                })
            else {
                break;
            };
            // Merge best_i and best_j into a fresh cluster id.
            let into = self.clusters.len();
            let mut sum = self.clusters[best_i].sum.clone();
            sum.add_assign(&self.clusters[best_j].sum);
            let size = self.clusters[best_i].size + self.clusters[best_j].size;
            self.clusters[best_i].alive = false;
            self.clusters[best_j].alive = false;
            self.clusters.push(Cluster {
                sum,
                size,
                alive: true,
            });
            merges.push(Merge {
                a: best_i,
                b: best_j,
                into,
                sim: best_sim,
            });
            active.retain(|&x| x != best_i && x != best_j);
            active.push(into);
            if nn.len() <= into {
                nn.resize(into + 1, None);
            }
            // Refresh NN for the new cluster and any cluster whose NN died.
            nn[into] = self.best_neighbour(into, &active);
            for &i in &active {
                if i == into {
                    continue;
                }
                match nn[i] {
                    Some((j, _)) if j == best_i || j == best_j => {
                        nn[i] = self.best_neighbour(i, &active);
                    }
                    None => nn[i] = self.best_neighbour(i, &active),
                    _ => {
                        // A new cluster may be closer than the cached NN.
                        let s = self.sim(i, into);
                        if let Some((_, cached)) = nn[i] {
                            if s > cached {
                                nn[i] = Some((into, s));
                            }
                        }
                    }
                }
            }
        }
        Dendrogram {
            num_leaves: n,
            merges,
        }
    }

    fn best_neighbour(&self, i: usize, active: &[usize]) -> Option<(usize, f32)> {
        active
            .iter()
            .filter(|&&j| j != i && self.clusters[j].alive)
            .map(|&j| (j, self.sim(i, j)))
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
    }
}

/// Convenience: cluster `docs` into `k` flat clusters by full HAC.
pub fn hac_cut(docs: &[SparseVec], k: usize) -> Vec<usize> {
    Hac::new(docs).run().cut(k)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    /// Three tight groups in disjoint term subspaces.
    fn three_groups() -> (Vec<SparseVec>, Vec<usize>) {
        let mut docs = Vec::new();
        let mut truth = Vec::new();
        for g in 0..3u32 {
            for j in 0..5u32 {
                let base = g * 10;
                docs.push(v(&[(base, 3.0), (base + 1 + (j % 2), 1.0)]));
                truth.push(g as usize);
            }
        }
        (docs, truth)
    }

    fn same_partition(a: &[usize], b: &[usize]) -> bool {
        // Equal up to label permutation.
        let mut map = std::collections::HashMap::new();
        let mut rev = std::collections::HashMap::new();
        for (&x, &y) in a.iter().zip(b) {
            if *map.entry(x).or_insert(y) != y || *rev.entry(y).or_insert(x) != x {
                return false;
            }
        }
        true
    }

    #[test]
    fn recovers_separable_groups() {
        let (docs, truth) = three_groups();
        let labels = hac_cut(&docs, 3);
        assert!(
            same_partition(&labels, &truth),
            "labels {labels:?} vs {truth:?}"
        );
    }

    #[test]
    fn dendrogram_shape() {
        let (docs, _) = three_groups();
        let d = Hac::new(&docs).run();
        assert_eq!(d.num_leaves, 15);
        assert_eq!(d.merges.len(), 14, "n-1 merges to a single root");
        // Merge similarities trend downward-ish: the first merge is among
        // the most similar pair, the last joins the least similar groups.
        assert!(d.merges.first().unwrap().sim >= d.merges.last().unwrap().sim);
    }

    #[test]
    fn cut_extremes() {
        let (docs, _) = three_groups();
        let d = Hac::new(&docs).run();
        let all_one = d.cut(1);
        assert!(all_one.iter().all(|&l| l == 0));
        let singletons = d.cut(15);
        let mut sorted = singletons.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 15);
        let over = d.cut(99);
        assert_eq!(over, singletons, "k > n behaves like k = n");
    }

    #[test]
    fn tiny_inputs() {
        assert!(hac_cut(&[], 3).is_empty());
        assert_eq!(hac_cut(&[v(&[(1, 1.0)])], 2), vec![0]);
        let two = vec![v(&[(1, 1.0)]), v(&[(2, 1.0)])];
        assert_eq!(hac_cut(&two, 2), vec![0, 1]);
        assert_eq!(hac_cut(&two, 1), vec![0, 0]);
    }

    #[test]
    fn group_average_prefers_tight_merge() {
        // a1,a2 nearly identical; b far away: first merge must be a1-a2.
        let docs = vec![
            v(&[(1, 1.0), (2, 0.1)]),
            v(&[(1, 1.0), (2, 0.12)]),
            v(&[(9, 1.0)]),
        ];
        let d = Hac::new(&docs).run();
        let first = d.merges[0];
        assert_eq!((first.a.min(first.b), first.a.max(first.b)), (0, 1));
    }
}
