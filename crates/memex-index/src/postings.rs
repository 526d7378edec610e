//! Posting lists: per-term `(doc id, term frequency)` pairs, stored sorted
//! by doc id and compressed with delta + varint coding (the doc-id gaps of
//! a Zipfian corpus compress extremely well).

use memex_store::codec::{decode_deltas, encode_deltas, get_uvarint, put_uvarint};
use memex_store::error::{StoreError, StoreResult};

/// A sorted posting list.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PostingList {
    /// `(doc, tf)` sorted by doc, no duplicate docs.
    entries: Vec<(u32, u32)>,
}

impl PostingList {
    /// Build from the pairs of distinct documents, in any order. The sort
    /// is stable and run-adaptive: pairs that come as a few runs already in
    /// doc order are merged, not re-sorted.
    pub fn from_pairs(mut pairs: Vec<(u32, u32)>) -> PostingList {
        pairs.sort_by_key(|&(d, _)| d);
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

/// Hand every `(doc, tf)` of an encoded list to `f` in doc order, read
/// straight from `bytes` — nothing is built — and return how many there
/// were. The doc gaps come first and the tfs after them, so one scan over
/// the gaps' last bytes finds where the tfs start, and the two are then
/// decoded side by side. A count the bytes cannot hold (each posting takes
/// at least a byte of gap and one of tf) is `Corrupt`.
pub(crate) fn for_each_encoded(bytes: &[u8], mut f: impl FnMut(u32, u32)) -> StoreResult<u64> {
    let corrupt = |what: &str| StoreError::Corrupt(format!("posting list: {what}"));
    let mut gaps = 0usize;
    let n = get_uvarint(bytes, &mut gaps)?;
    let rest = bytes.get(gaps..).unwrap_or_default();
    if n > rest.len() as u64 / 2 {
        return Err(corrupt("count exceeds the bytes left"));
    }
    let Some(last) = (n as usize).checked_sub(1) else {
        return Ok(0);
    };
    // A varint's last byte is the one below 0x80.
    let mut tfs = rest
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b < 0x80)
        .nth(last)
        .map(|(i, _)| gaps + i + 1)
        .ok_or_else(|| corrupt("doc gaps truncated"))?;
    let mut doc = 0u32;
    for i in 0..n {
        let gap = u32::try_from(get_uvarint(bytes, &mut gaps)?)
            .map_err(|_| corrupt("doc id exceeds u32"))?;
        doc = if i == 0 {
            gap
        } else {
            doc.checked_add(gap)
                .ok_or_else(|| corrupt("doc id exceeds u32"))?
        };
        f(doc, get_uvarint(bytes, &mut tfs)? as u32);
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Counts of 2^32 - 1 and 2^60 with nothing behind them.
    const HUGE_COUNTS: [&[u8]; 2] = [
        &[0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
        &[0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10],
    ];

    #[test]
    fn build_sorts_by_doc() {
        let p = PostingList::from_pairs(vec![(5, 2), (1, 1), (9, 1), (3, 4)]);
        assert_eq!(p.entries(), &[(1, 1), (3, 4), (5, 2), (9, 1)]);
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
    fn the_streaming_reader_reads_what_decode_reads() {
        for entries in [
            vec![],
            vec![(0, 1)],
            vec![(3, 300), (200, 1), (70_000, 2), (u32::MAX, 9)],
            (0..500).map(|i| (i * 7, i % 9 + 1)).collect(),
        ] {
            let bytes = PostingList::from_pairs(entries.clone()).encode().unwrap();
            let mut read = Vec::new();
            let n = for_each_encoded(&bytes, |doc, tf| read.push((doc, tf))).unwrap();
            assert_eq!(read, entries);
            assert_eq!(n, entries.len() as u64);
            assert_eq!(PostingList::decode(&bytes).unwrap().entries(), entries);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PostingList::decode(&[0xFF, 0xFF, 0xFF]).is_err());
        assert!(for_each_encoded(&[0xFF, 0xFF, 0xFF], |_, _| {}).is_err());
        for bytes in HUGE_COUNTS {
            assert!(PostingList::decode(bytes).is_err(), "{bytes:?}");
            assert!(for_each_encoded(bytes, |_, _| {}).is_err(), "{bytes:?}");
        }
        // Two postings' gaps but one tf; a gap that overflows a doc id.
        for bytes in [
            &[2u8, 1, 1, 1][..],
            &[2, 0xFF, 0xFF, 0xFF, 0xFF, 0x0F, 1, 1, 1],
        ] {
            assert!(PostingList::decode(bytes).is_err(), "{bytes:?}");
            assert!(for_each_encoded(bytes, |_, _| {}).is_err(), "{bytes:?}");
        }
    }
}
