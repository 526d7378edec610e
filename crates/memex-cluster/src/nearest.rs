//! Nearest-centroid assignment, term-major: an inverted list of the
//! centroids, so that one walk over a document's terms yields its dot
//! product with every centroid — instead of one sorted merge of the
//! document against each centroid, whose cost is the centroid's length.
//!
//! Each centroid's accumulator receives its products in ascending term
//! order, exactly as [`SparseVec::dot`]'s merge adds them, so a dot here is
//! that dot bit for bit and the nearest centroid is the same one, ties
//! included. Used by k-means' assignment step and by leaf-theme routing.

use memex_text::vector::SparseVec;

/// An inverted list over a fixed set of centroids.
pub struct CentroidIndex {
    centroids: usize,
    /// The postings of term `t` are `postings[offsets[t]..offsets[t + 1]]`.
    offsets: Vec<u32>,
    /// `(centroid, weight)`.
    postings: Vec<(u32, f32)>,
}

impl CentroidIndex {
    pub fn new(centroids: &[&SparseVec]) -> CentroidIndex {
        let terms = centroids
            .iter()
            .filter_map(|c| c.entries().last())
            .map(|&(t, _)| t as usize + 1)
            .max()
            .unwrap_or(0);
        // Count each term's postings, turn the counts into start offsets,
        // then let each term's start run forward as its postings land.
        let mut offsets = vec![0u32; terms + 1];
        for c in centroids {
            for &(t, _) in c.entries() {
                offsets[t as usize + 1] += 1;
            }
        }
        for t in 0..terms {
            offsets[t + 1] += offsets[t];
        }
        let mut next = offsets.clone();
        let mut postings = vec![(0u32, 0.0f32); offsets[terms] as usize];
        for (c, centroid) in centroids.iter().enumerate() {
            for &(t, w) in centroid.entries() {
                postings[next[t as usize] as usize] = (c as u32, w);
                next[t as usize] += 1;
            }
        }
        CentroidIndex {
            centroids: centroids.len(),
            offsets,
            postings,
        }
    }

    /// `doc.dot(c)` for every centroid `c`, in the order they were given.
    pub fn dots(&self, doc: &SparseVec) -> Vec<f32> {
        let mut dots = vec![0.0f32; self.centroids];
        for &(t, w) in doc.entries() {
            let t = t as usize;
            if t + 1 >= self.offsets.len() {
                break;
            }
            let (from, to) = (self.offsets[t] as usize, self.offsets[t + 1] as usize);
            for &(c, cw) in &self.postings[from..to] {
                dots[c as usize] += w * cw;
            }
        }
        dots
    }

    /// The centroid nearest to `doc` by dot product; among equals the last
    /// one. `None` when there are no centroids.
    pub fn nearest(&self, doc: &SparseVec) -> Option<usize> {
        self.dots(doc)
            .into_iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(c, _)| c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dots_are_the_merge_dots_and_ties_go_to_the_last() {
        let v = |pairs: &[(u32, f32)]| SparseVec::from_pairs(pairs.to_vec());
        let long = [
            (1, 0.3),
            (2, 0.77),
            (4, 0.9),
            (7, 0.1),
            (8, 0.61),
            (9, 0.13),
        ];
        let centroids = [
            v(&long),
            SparseVec::new(),
            v(&[(0, 0.5), (4, 0.2), (90, 0.7)]),
            v(&long),
        ];
        let index = CentroidIndex::new(&centroids.iter().collect::<Vec<_>>());
        for doc in [
            v(&[
                (1, 0.7),
                (2, 0.31),
                (4, 0.1),
                (7, 0.3),
                (8, 0.9),
                (9, 0.57),
                (200, 1.0),
            ]),
            v(&[(90, 1.0)]),
            v(&[(5, 1.0)]),
            SparseVec::new(),
        ] {
            let merged: Vec<u32> = centroids.iter().map(|c| doc.dot(c).to_bits()).collect();
            let indexed: Vec<u32> = index.dots(&doc).iter().map(|d| d.to_bits()).collect();
            assert_eq!(indexed, merged);
        }
        assert_eq!(index.nearest(&v(&[(4, 1.0)])), Some(3), "0 and 3 tie");
        assert_eq!(index.nearest(&v(&[(5, 1.0)])), Some(3), "all zero");
        assert_eq!(CentroidIndex::new(&[]).nearest(&v(&[(4, 1.0)])), None);
    }
}
