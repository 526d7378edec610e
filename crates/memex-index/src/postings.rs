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
    /// Build from possibly-unsorted pairs; duplicate docs keep the larger tf
    /// (idempotent re-adds). The sort is stable and run-adaptive: pairs that
    /// come as a few runs already in doc order are merged, not re-sorted.
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> PostingList {
        pairs.sort_by_key(|&(d, _)| d);
        pairs.retain(|&(_, tf)| tf != 0);
        pairs.dedup_by(|later, kept| {
            let same_doc = later.0 == kept.0;
            if same_doc {
                kept.1 = kept.1.max(later.1);
            }
            same_doc
        });
        PostingList { entries: pairs }
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_sort_dedup() {
        let p = PostingList::from_pairs(vec![(5, 2), (1, 1), (5, 3), (9, 1), (3, 0)]);
        assert_eq!(p.entries(), &[(1, 1), (5, 3), (9, 1)]);
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
        let empty = PostingList::default();
        assert_eq!(
            PostingList::decode(&empty.encode().unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PostingList::decode(&[0xFF, 0xFF, 0xFF]).is_err());
    }
}
