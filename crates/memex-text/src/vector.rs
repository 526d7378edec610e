//! Sparse term vectors (sorted id/weight pairs) and the algebra the
//! clustering and classification layers need: dot products, cosine
//! similarity, accumulation, normalisation, centroids.

use crate::vocab::TermId;

/// A sparse vector over term ids, kept sorted by id with no duplicates and
/// no explicit zeros.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseVec {
    entries: Vec<(TermId, f32)>,
}

impl SparseVec {
    pub fn new() -> SparseVec {
        SparseVec::default()
    }

    /// Build from possibly-unsorted, possibly-duplicated pairs: duplicates
    /// are summed, zeros dropped.
    pub fn from_pairs(mut pairs: Vec<(TermId, f32)>) -> SparseVec {
        pairs.sort_unstable_by_key(|&(id, _)| id);
        let mut entries: Vec<(TermId, f32)> = Vec::with_capacity(pairs.len());
        for (id, w) in pairs {
            match entries.last_mut() {
                Some((last_id, last_w)) if *last_id == id => *last_w += w,
                _ => entries.push((id, w)),
            }
        }
        entries.retain(|&(_, w)| w != 0.0);
        SparseVec { entries }
    }

    /// Sorted `(id, weight)` view.
    pub fn entries(&self) -> &[(TermId, f32)] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Weight of `id` (0.0 when absent).
    pub fn get(&self, id: TermId) -> f32 {
        self.entries
            .binary_search_by_key(&id, |&(i, _)| i)
            .map(|i| self.entries[i].1)
            .unwrap_or(0.0)
    }

    /// Dot product (linear in the shorter operand via merge).
    pub fn dot(&self, other: &SparseVec) -> f32 {
        let (mut i, mut j) = (0usize, 0usize);
        let mut acc = 0.0f32;
        while i < self.entries.len() && j < other.entries.len() {
            let (a, wa) = self.entries[i];
            let (b, wb) = other.entries[j];
            match a.cmp(&b) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    acc += wa * wb;
                    i += 1;
                    j += 1;
                }
            }
        }
        acc
    }

    /// Euclidean norm.
    pub fn norm(&self) -> f32 {
        self.entries.iter().map(|&(_, w)| w * w).sum::<f32>().sqrt()
    }

    /// Cosine similarity in `[-1, 1]`; 0 when either vector is empty.
    pub fn cosine(&self, other: &SparseVec) -> f32 {
        let denom = self.norm() * other.norm();
        if denom == 0.0 {
            0.0
        } else {
            (self.dot(other) / denom).clamp(-1.0, 1.0)
        }
    }

    /// Scale in place.
    pub fn scale(&mut self, s: f32) {
        for (_, w) in &mut self.entries {
            *w *= s;
        }
        if s == 0.0 {
            self.entries.clear();
        }
    }

    /// Normalise to unit length (no-op for the zero vector).
    pub fn normalize(&mut self) {
        let n = self.norm();
        if n > 0.0 {
            self.scale(1.0 / n);
        }
    }

    /// `self += other` (merge).
    pub fn add_assign(&mut self, other: &SparseVec) {
        if other.is_empty() {
            return;
        }
        let mut merged = Vec::with_capacity(self.entries.len() + other.entries.len());
        let (mut i, mut j) = (0usize, 0usize);
        while i < self.entries.len() || j < other.entries.len() {
            match (self.entries.get(i), other.entries.get(j)) {
                (Some(&(a, wa)), Some(&(b, wb))) => match a.cmp(&b) {
                    std::cmp::Ordering::Less => {
                        merged.push((a, wa));
                        i += 1;
                    }
                    std::cmp::Ordering::Greater => {
                        merged.push((b, wb));
                        j += 1;
                    }
                    std::cmp::Ordering::Equal => {
                        let w = wa + wb;
                        if w != 0.0 {
                            merged.push((a, w));
                        }
                        i += 1;
                        j += 1;
                    }
                },
                (Some(&(a, wa)), None) => {
                    merged.push((a, wa));
                    i += 1;
                }
                (None, Some(&(b, wb))) => {
                    merged.push((b, wb));
                    j += 1;
                }
                (None, None) => break,
            }
        }
        self.entries = merged;
    }

    /// Mean of `vectors` (empty input gives the zero vector).
    pub fn centroid<'a>(vectors: impl IntoIterator<Item = &'a SparseVec>) -> SparseVec {
        let mut acc = SparseVec::new();
        let mut n = 0usize;
        for v in vectors {
            acc.add_assign(v);
            n += 1;
        }
        if n > 0 {
            acc.scale(1.0 / n as f32);
        }
        acc
    }

    /// Keep only the `k` highest-magnitude entries (centroid truncation,
    /// standard in Scatter/Gather for constant-time behaviour). Entries rank
    /// by `|w|` descending, then by id ascending: of entries tied in
    /// magnitude at the cut the lowest ids stay. A NaN weight ranks above
    /// every number. Costs a selection, not a sort, of the entries.
    pub fn truncate_top(&mut self, k: usize) {
        if self.entries.len() <= k {
            return;
        }
        self.entries.select_nth_unstable_by(k, |a, b| {
            b.1.abs().total_cmp(&a.1.abs()).then(a.0.cmp(&b.0))
        });
        self.entries.truncate(k);
        self.entries.sort_unstable_by_key(|&(id, _)| id);
    }
}

/// Takes many dot products against one vector: [`DotScratch::scatter`] lays
/// it into a dense array indexed by term id, and each [`Scattered::dot`]
/// then walks the other operand's entries only. The shared terms' products
/// are added in ascending term order, as [`SparseVec::dot`] adds them, so
/// the dot is that merge's bit for bit. Reusable: dropping the
/// [`Scattered`] clears the entries it wrote, never the whole array.
#[derive(Debug, Default)]
pub struct DotScratch {
    dense: Vec<f32>,
}

impl DotScratch {
    /// `v` laid out by term id until the returned view is dropped.
    pub fn scatter<'a>(&'a mut self, v: &'a SparseVec) -> Scattered<'a> {
        if let Some(&(last, _)) = v.entries.last() {
            if last as usize >= self.dense.len() {
                self.dense.resize(last as usize + 1, 0.0);
            }
        }
        for &(id, w) in &v.entries {
            self.dense[id as usize] = w;
        }
        Scattered {
            dense: &mut self.dense,
            v,
        }
    }
}

/// One vector held in a [`DotScratch`].
#[derive(Debug)]
pub struct Scattered<'a> {
    dense: &'a mut Vec<f32>,
    v: &'a SparseVec,
}

impl Scattered<'_> {
    /// `v.dot(other)` for the scattered `v`. A term `v` lacks reads as 0.0
    /// and adds nothing (a vector holds no explicit zero).
    pub fn dot(&self, other: &SparseVec) -> f32 {
        let mut acc = 0.0f32;
        for &(id, w) in &other.entries {
            let held = self.dense.get(id as usize).copied().unwrap_or(0.0);
            if held != 0.0 {
                acc += held * w;
            }
        }
        acc
    }
}

impl Drop for Scattered<'_> {
    fn drop(&mut self) {
        for &(id, _) in &self.v.entries {
            self.dense[id as usize] = 0.0;
        }
    }
}

/// Folds [`SparseVec::add_assign`] over many vectors through a dense
/// accumulator instead of re-merging the running sum once per vector. The
/// sum is the fold's bit for bit: a term's weights are added in the order
/// the vectors arrive, and a weight that cancels to zero drops its entry, as
/// the merge drops it. Reusable: [`SumAccumulator::take`] leaves it empty.
#[derive(Debug, Default)]
pub struct SumAccumulator {
    weights: Vec<f32>,
    /// Per term: [`UNTOUCHED`], [`HELD`] or [`CANCELLED`].
    state: Vec<u8>,
    /// Every term whose state is not [`UNTOUCHED`], once.
    touched: Vec<TermId>,
}

const UNTOUCHED: u8 = 0;
/// The sum has an entry for the term; its weight is in `weights`.
const HELD: u8 = 1;
/// The term's weights cancelled to zero: no entry until it is added again.
const CANCELLED: u8 = 2;

impl SumAccumulator {
    /// `sum += v`.
    pub fn add(&mut self, v: &SparseVec) {
        let Some(&(last, _)) = v.entries.last() else {
            return;
        };
        if last as usize >= self.state.len() {
            self.weights.resize(last as usize + 1, 0.0);
            self.state.resize(last as usize + 1, UNTOUCHED);
        }
        for &(id, w) in &v.entries {
            let at = id as usize;
            if self.state[at] == HELD {
                let sum = self.weights[at] + w;
                if sum != 0.0 {
                    self.weights[at] = sum;
                } else {
                    self.state[at] = CANCELLED;
                }
                continue;
            }
            if self.state[at] == UNTOUCHED {
                self.touched.push(id);
            }
            self.weights[at] = w;
            self.state[at] = HELD;
        }
    }

    /// The sum so far; the accumulator starts over from zero.
    pub fn take(&mut self) -> SparseVec {
        self.touched.sort_unstable();
        let mut entries = Vec::with_capacity(self.touched.len());
        for id in self.touched.drain(..) {
            let at = id as usize;
            if self.state[at] == HELD {
                entries.push((id, self.weights[at]));
            }
            self.state[at] = UNTOUCHED;
        }
        SparseVec { entries }
    }
}

impl FromIterator<(TermId, f32)> for SparseVec {
    fn from_iter<T: IntoIterator<Item = (TermId, f32)>>(iter: T) -> Self {
        SparseVec::from_pairs(iter.into_iter().collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(pairs: &[(u32, f32)]) -> SparseVec {
        SparseVec::from_pairs(pairs.to_vec())
    }

    #[test]
    fn from_pairs_sorts_dedups_and_drops_zeros() {
        let s = v(&[(5, 1.0), (2, 2.0), (5, 3.0), (7, 0.0)]);
        assert_eq!(s.entries(), &[(2, 2.0), (5, 4.0)]);
    }

    #[test]
    fn dot_and_cosine() {
        let a = v(&[(1, 1.0), (2, 2.0), (4, 3.0)]);
        let b = v(&[(2, 1.0), (3, 5.0), (4, 1.0)]);
        assert_eq!(a.dot(&b), 2.0 + 3.0);
        let unit_self = v(&[(9, 2.0)]);
        assert!((unit_self.cosine(&unit_self) - 1.0).abs() < 1e-6);
        assert_eq!(a.cosine(&SparseVec::new()), 0.0);
        let orth = v(&[(100, 1.0)]);
        assert_eq!(a.cosine(&orth), 0.0);
    }

    #[test]
    fn normalize_gives_unit_norm() {
        let mut a = v(&[(1, 3.0), (2, 4.0)]);
        a.normalize();
        assert!((a.norm() - 1.0).abs() < 1e-6);
        let mut zero = SparseVec::new();
        zero.normalize();
        assert!(zero.is_empty());
    }

    #[test]
    fn add_assign_merges() {
        let mut a = v(&[(1, 1.0), (3, 1.0)]);
        a.add_assign(&v(&[(2, 2.0), (3, -1.0)]));
        assert_eq!(a.entries(), &[(1, 1.0), (2, 2.0)]);
    }

    #[test]
    fn sum_accumulator_is_the_add_assign_fold() {
        // Term 3 cancels to zero and comes back; term 9 cancels for good.
        let vectors = [
            v(&[(1, 0.1), (3, 1.0), (9, 2.0)]),
            v(&[(3, -1.0), (4, 0.7), (9, -2.0)]),
            v(&[(1, 0.2), (3, 0.3)]),
            SparseVec::new(),
            v(&[(1, 0.3), (700, 1.5)]),
        ];
        let mut acc = SumAccumulator::default();
        for round in 0..2 {
            let mut folded = SparseVec::new();
            for x in &vectors[round..] {
                folded.add_assign(x);
                acc.add(x);
            }
            let summed = acc.take();
            let bits = |s: &SparseVec| -> Vec<(u32, u32)> {
                s.entries().iter().map(|&(t, w)| (t, w.to_bits())).collect()
            };
            assert_eq!(bits(&summed), bits(&folded), "round {round}");
            assert!(round == 1 || summed.get(9) == 0.0 && summed.get(3) == 0.3);
        }
        assert!(acc.take().is_empty());
    }

    #[test]
    fn centroid_of_unit_vectors() {
        let a = v(&[(1, 1.0)]);
        let b = v(&[(2, 1.0)]);
        let c = SparseVec::centroid([&a, &b]);
        assert_eq!(c.entries(), &[(1, 0.5), (2, 0.5)]);
        assert!(SparseVec::centroid(std::iter::empty()).is_empty());
    }

    #[test]
    fn truncate_keeps_heaviest() {
        let mut a = v(&[(1, 0.1), (2, 5.0), (3, -4.0), (4, 0.2)]);
        a.truncate_top(2);
        assert_eq!(a.entries(), &[(2, 5.0), (3, -4.0)]);
    }

    #[test]
    fn truncate_tolerates_a_nan_weight() {
        // A NaN sorts as the heaviest entry instead of panicking the
        // comparator; the finite entries keep their order around it.
        let mut a = v(&[(1, 3.0), (2, f32::NAN), (3, 1.0), (4, -2.0)]);
        a.truncate_top(3);
        let kept: Vec<u32> = a.entries().iter().map(|&(id, _)| id).collect();
        assert_eq!(kept, vec![1, 2, 4]);
        a.truncate_top(1);
        assert!(a.entries()[0].1.is_nan());
    }

    #[test]
    fn get_binary_search() {
        let a = v(&[(10, 1.5), (20, 2.5)]);
        assert_eq!(a.get(10), 1.5);
        assert_eq!(a.get(15), 0.0);
    }
}
