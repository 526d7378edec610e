//! Posting lists: per-term `(doc id, term frequency)` pairs, stored sorted
//! by doc id and compressed with delta + varint coding (the doc-id gaps of
//! a Zipfian corpus compress extremely well).

use memex_store::codec::{decode_deltas, encode_deltas, get_uvarint, put_uvarint};
use memex_store::error::{StoreError, StoreResult};

/// A sorted posting list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    /// `(doc, tf)` sorted by doc, no duplicate docs, tf >= 1.
    entries: Vec<(u32, u32)>,
}

impl PostingList {
    pub fn new() -> PostingList {
        PostingList::default()
    }

    /// Build from possibly-unsorted pairs; duplicate docs keep the larger tf
    /// (idempotent re-adds).
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> PostingList {
        pairs.sort_unstable_by_key(|&(d, _)| d);
        let mut entries: Vec<(u32, u32)> = Vec::with_capacity(pairs.len());
        for (d, tf) in pairs {
            if tf == 0 {
                continue;
            }
            match entries.last_mut() {
                Some((last, ltf)) if *last == d => *ltf = (*ltf).max(tf),
                _ => entries.push((d, tf)),
            }
        }
        PostingList { entries }
    }

    pub fn entries(&self) -> &[(u32, u32)] {
        &self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Sorted doc ids only.
    pub fn docs(&self) -> Vec<u32> {
        self.entries.iter().map(|&(d, _)| d).collect()
    }

    /// Append a posting with `doc` greater than everything present.
    pub fn push(&mut self, doc: u32, tf: u32) -> StoreResult<()> {
        if let Some(&(last, _)) = self.entries.last() {
            if doc <= last {
                return Err(StoreError::Invalid(format!(
                    "posting doc {doc} not greater than last {last}"
                )));
            }
        }
        if tf == 0 {
            return Err(StoreError::Invalid("tf must be >= 1".into()));
        }
        self.entries.push((doc, tf));
        Ok(())
    }

    /// Compressed encoding: delta-coded doc ids then varint tfs.
    pub fn encode(&self) -> StoreResult<Vec<u8>> {
        let mut out = Vec::with_capacity(self.entries.len() * 2 + 8);
        let docs: Vec<u64> = self.entries.iter().map(|&(d, _)| u64::from(d)).collect();
        encode_deltas(&mut out, &docs)?;
        for &(_, tf) in &self.entries {
            put_uvarint(&mut out, u64::from(tf));
        }
        Ok(out)
    }

    /// Inverse of [`PostingList::encode`].
    pub fn decode(bytes: &[u8]) -> StoreResult<PostingList> {
        let mut pos = 0usize;
        let docs = decode_deltas(bytes, &mut pos)?;
        let mut entries = Vec::with_capacity(docs.len());
        for d in docs {
            let tf = get_uvarint(bytes, &mut pos)? as u32;
            let doc =
                u32::try_from(d).map_err(|_| StoreError::Corrupt("doc id exceeds u32".into()))?;
            entries.push((doc, tf));
        }
        Ok(PostingList { entries })
    }
}

/// A positional posting list: per document, the sorted token positions at
/// which the term occurs. Positions are indices into the document's
/// filtered (stopped + stemmed) token sequence, so phrase queries analysed
/// the same way line up exactly.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PositionalList {
    /// `(doc, positions)` sorted by doc; positions sorted, non-empty.
    entries: Vec<(u32, Vec<u32>)>,
}

impl PositionalList {
    /// Build from possibly-unsorted pairs; a duplicate doc keeps its
    /// larger position set, the earlier of two equally large ones
    /// (idempotent re-adds).
    pub fn from_pairs(mut pairs: Vec<(u32, Vec<u32>)>) -> PositionalList {
        pairs.sort_by_key(|&(d, _)| d);
        let mut entries: Vec<(u32, Vec<u32>)> = Vec::with_capacity(pairs.len());
        for (d, positions) in pairs {
            match entries.last_mut() {
                Some((last, kept)) if *last == d => {
                    if positions.len() > kept.len() {
                        *kept = positions;
                    }
                }
                _ => entries.push((d, positions)),
            }
        }
        PositionalList { entries }
    }

    pub fn entries(&self) -> &[(u32, Vec<u32>)] {
        &self.entries
    }

    pub fn into_entries(self) -> Vec<(u32, Vec<u32>)> {
        self.entries
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Positions of the term in `doc` (empty slice when absent).
    pub fn positions(&self, doc: u32) -> &[u32] {
        self.entries
            .binary_search_by_key(&doc, |&(d, _)| d)
            .ok()
            .and_then(|i| self.entries.get(i))
            .map_or(&[], |(_, positions)| positions.as_slice())
    }

    /// Compressed encoding: delta docs, then per doc a delta position list.
    pub fn encode(&self) -> StoreResult<Vec<u8>> {
        let mut out = Vec::with_capacity(self.entries.len() * 4 + 8);
        let docs: Vec<u64> = self.entries.iter().map(|&(d, _)| u64::from(d)).collect();
        encode_deltas(&mut out, &docs)?;
        for (_, positions) in &self.entries {
            let ps: Vec<u64> = positions.iter().map(|&p| u64::from(p)).collect();
            encode_deltas(&mut out, &ps)?;
        }
        Ok(out)
    }

    /// Inverse of [`PositionalList::encode`].
    pub fn decode(bytes: &[u8]) -> StoreResult<PositionalList> {
        let mut pos = 0usize;
        let docs = decode_deltas(bytes, &mut pos)?;
        let mut entries = Vec::with_capacity(docs.len());
        for d in docs {
            let doc =
                u32::try_from(d).map_err(|_| StoreError::Corrupt("doc id exceeds u32".into()))?;
            let ps = decode_deltas(bytes, &mut pos)?;
            let positions: Vec<u32> = ps
                .into_iter()
                .map(|p| {
                    u32::try_from(p).map_err(|_| StoreError::Corrupt("position exceeds u32".into()))
                })
                .collect::<StoreResult<_>>()?;
            entries.push((doc, positions));
        }
        Ok(PositionalList { entries })
    }
}

/// Sorted-vec set intersection.
pub fn intersect(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0usize, 0usize);
    while let (Some(&x), Some(&y)) = (a.get(i), b.get(j)) {
        match x.cmp(&y) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(x);
                i += 1;
                j += 1;
            }
        }
    }
    out
}

/// Sorted-vec set union.
pub fn union(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        match (a.get(i), b.get(j)) {
            (Some(&x), Some(&y)) => match x.cmp(&y) {
                std::cmp::Ordering::Less => {
                    out.push(x);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(y);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(x);
                    i += 1;
                    j += 1;
                }
            },
            (Some(&x), None) => {
                out.push(x);
                i += 1;
            }
            (None, Some(&y)) => {
                out.push(y);
                j += 1;
            }
            (None, None) => break,
        }
    }
    out
}

/// Sorted-vec set difference `a \ b`.
pub fn difference(a: &[u32], b: &[u32]) -> Vec<u32> {
    let mut out = Vec::with_capacity(a.len());
    let mut j = 0usize;
    for &x in a {
        while b.get(j).is_some_and(|&y| y < x) {
            j += 1;
        }
        if b.get(j) != Some(&x) {
            out.push(x);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sort_dedup() {
        let p = PostingList::from_pairs(vec![(5, 2), (1, 1), (5, 3), (9, 1), (3, 0)]);
        assert_eq!(p.entries(), &[(1, 1), (5, 3), (9, 1)]);
        assert_eq!(p.docs(), vec![1, 5, 9]);
    }

    #[test]
    fn push_enforces_order() {
        let mut p = PostingList::new();
        p.push(3, 1).unwrap();
        p.push(7, 2).unwrap();
        assert!(p.push(7, 1).is_err());
        assert!(p.push(2, 1).is_err());
        assert!(p.push(9, 0).is_err());
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = PostingList::from_pairs((0..500).map(|i| (i * 7, i % 9 + 1)).collect());
        let bytes = p.encode().unwrap();
        assert_eq!(PostingList::decode(&bytes).unwrap(), p);
        // Compression sanity: far below 8 bytes/posting for small gaps.
        assert!(
            bytes.len() < p.len() * 4,
            "{} bytes for {} postings",
            bytes.len(),
            p.len()
        );
        let empty = PostingList::new();
        assert_eq!(
            PostingList::decode(&empty.encode().unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn set_ops() {
        let a = vec![1, 3, 5, 7];
        let b = vec![3, 4, 5, 8];
        assert_eq!(intersect(&a, &b), vec![3, 5]);
        assert_eq!(union(&a, &b), vec![1, 3, 4, 5, 7, 8]);
        assert_eq!(difference(&a, &b), vec![1, 7]);
        assert_eq!(intersect(&a, &[]), Vec::<u32>::new());
        assert_eq!(union(&a, &[]), a);
        assert_eq!(difference(&a, &[]), a);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PostingList::decode(&[0xFF, 0xFF, 0xFF]).is_err());
    }

    #[test]
    fn positional_round_trip() {
        let p = PositionalList::from_pairs(vec![(3, vec![0, 4, 9]), (10, vec![2])]);
        let enc = p.encode().unwrap();
        assert_eq!(PositionalList::decode(&enc).unwrap(), p);
        assert_eq!(p.positions(3), &[0, 4, 9]);
        assert_eq!(p.positions(10), &[2]);
        assert!(p.positions(99).is_empty());
    }

    #[test]
    fn positional_from_pairs_keeps_richer_entry() {
        let m = PositionalList::from_pairs(vec![
            (3, vec![1, 5]),
            (1, vec![0]),
            (1, vec![0, 7]),
            (2, vec![4]),
            (2, vec![9]),
        ]);
        assert_eq!(m.positions(1), &[0, 7]);
        assert_eq!(m.positions(2), &[4]);
        assert_eq!(m.positions(3), &[1, 5]);
        assert_eq!(m.len(), 3);
    }
}
