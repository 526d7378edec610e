//! Immutable sorted runs: the on-disk unit of the LSM engine.
//!
//! A run is a sealed memtable (or a compaction merge): a sorted list of
//! `(key, value-or-tombstone)` entries written as one buffer, synced, and
//! never modified again: a merge writes a new run and drops its inputs
//! whole, so recovery only ever has to choose between complete files.
//!
//! Each run carries the two read-amplification guards tiered compaction
//! needs: a **bloom filter** over the keys (seeded FNV-1a base hash with
//! a SplitMix64-derived second hash, double hashing) so a point lookup
//! skips runs that cannot contain the key, and a **sparse index** of
//! every block's first key, so a lookup that does consult the run decodes
//! one small block instead of binary-searching materialized entries. The
//! entries themselves stay encoded in one contiguous buffer — no `Vec` of
//! per-entry allocations is resident.
//!
//! File format (all little-endian via [`codec`](crate::codec)):
//!
//! ```text
//! [magic u32][version=2 u32][count u32][data_len u32]
//! data:  count * entry                      (blocked every BLOCK_ENTRIES)
//! index: [n_blocks u32] n_blocks * ( [offset u32][count u32][first_key bytes] )
//! bloom: [seed u64][k u32][nbits u64][n_words u32] n_words * [word u64]
//! [crc32 u32 over everything before it]
//!
//! entry: [flag uvarint: 0=tombstone 1=value] [key bytes] [value bytes]?
//! ```
//!
//! This is the only format. Version 1 (no index, no bloom) was never
//! written by a deployed build; a file carrying any other version number
//! is [`StoreError::Corrupt`] like every other header mismatch.
//!
//! A run referenced by the manifest was synced before the manifest record
//! that names it, so a decode failure there is [`StoreError::Corrupt`] —
//! never silently skipped. Partially-written files a crash leaves behind
//! are *not* referenced and are deleted by recovery (the orphan scan).

use crate::codec::{
    crc32, get_bytes, get_u32, get_u64, get_uvarint, put_bytes, put_u32, put_u64, put_uvarint,
};
use crate::error::{StoreError, StoreResult};
use crate::vfs::Storage;

const MAGIC: u32 = 0x4D58_524E; // "MXRN"
const VERSION: u32 = 2;

/// Entries per sparse-index block: small enough that the linear decode
/// inside one block is a handful of key compares, large enough that the
/// index stays a fraction of the data size.
const BLOCK_ENTRIES: u32 = 16;

/// Bloom bits per key (~1% false-positive rate with `BLOOM_K` probes).
const BLOOM_BITS_PER_KEY: u64 = 10;
const BLOOM_K: u32 = 7;

// ---------------------------------------------------------------------------
// Bloom filter
// ---------------------------------------------------------------------------

/// SplitMix64 finalizer: cheap avalanche used both to derive the per-run
/// bloom seed from the run id and as the second hash of the double-hash
/// probe sequence.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over `key`. Computed once per lookup (not once per run): each
/// run's bloom mixes its own seed into this base hash afterwards, so a
/// 16-run stack pays one byte walk, not sixteen.
pub fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// A per-run bloom filter. Double hashing: probe `i` tests the bit
/// multiply-shift-reduced from `h1 + i*h2`, with `h1` the seed-mixed key
/// hash and `h2` SplitMix64-derived (forced odd so the probe sequence
/// covers the table).
pub struct Bloom {
    seed: u64,
    k: u32,
    nbits: u64,
    words: Vec<u64>,
}

impl Bloom {
    /// The deterministic seed for run `id` — recomputable at load, so a
    /// stored bloom whose seed disagrees is corruption, not a mystery.
    fn seed_for(id: u64) -> u64 {
        splitmix64(id ^ 0xA076_1D64_78BD_642F)
    }

    fn with_capacity(id: u64, count: usize) -> Bloom {
        let nbits = (count as u64)
            .saturating_mul(BLOOM_BITS_PER_KEY)
            .max(64)
            .next_multiple_of(64);
        Bloom {
            seed: Bloom::seed_for(id),
            k: BLOOM_K,
            nbits,
            words: vec![0u64; (nbits / 64) as usize],
        }
    }

    /// Per-run probe pair from the shared [`key_hash`]: mixing the seed
    /// in *after* the byte walk keeps the per-run cost to two finalizers.
    fn probes(&self, hash: u64) -> (u64, u64) {
        let h1 = splitmix64(hash ^ self.seed);
        let h2 = splitmix64(h1) | 1;
        (h1, h2)
    }

    /// Multiply-shift range reduction: maps `h` uniformly onto
    /// `0..nbits` without the 64-bit division a `%` would cost on every
    /// probe of every run.
    fn bit_index(h: u64, nbits: u64) -> u64 {
        ((u128::from(h) * u128::from(nbits)) >> 64) as u64
    }

    fn insert(&mut self, hash: u64) {
        let (h1, h2) = self.probes(hash);
        for i in 0..u64::from(self.k) {
            let bit = Bloom::bit_index(h1.wrapping_add(i.wrapping_mul(h2)), self.nbits);
            if let Some(word) = self.words.get_mut((bit / 64) as usize) {
                *word |= 1u64 << (bit % 64);
            }
        }
    }

    fn might_contain(&self, hash: u64) -> bool {
        let (h1, h2) = self.probes(hash);
        for i in 0..u64::from(self.k) {
            let bit = Bloom::bit_index(h1.wrapping_add(i.wrapping_mul(h2)), self.nbits);
            let word = self.words.get((bit / 64) as usize).copied().unwrap_or(0);
            if word & (1u64 << (bit % 64)) == 0 {
                return false;
            }
        }
        true
    }

    fn encode(&self, out: &mut Vec<u8>) {
        put_u64(out, self.seed);
        put_u32(out, self.k);
        put_u64(out, self.nbits);
        put_u32(out, self.words.len() as u32);
        for w in &self.words {
            put_u64(out, *w);
        }
    }

    fn decode(id: u64, buf: &[u8], pos: &mut usize) -> StoreResult<Bloom> {
        let seed = get_u64(buf, pos)?;
        let k = get_u32(buf, pos)?;
        let nbits = get_u64(buf, pos)?;
        let n_words = get_u32(buf, pos)? as usize;
        if seed != Bloom::seed_for(id) || k == 0 || nbits == 0 || nbits != n_words as u64 * 64 {
            return Err(StoreError::Corrupt(format!(
                "run {id}: bloom parameters inconsistent"
            )));
        }
        let mut words = Vec::with_capacity(n_words);
        for _ in 0..n_words {
            words.push(get_u64(buf, pos)?);
        }
        Ok(Bloom {
            seed,
            k,
            nbits,
            words,
        })
    }
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

/// One sparse-index entry: where block `i` starts in the data region and
/// the first key it holds.
struct BlockMeta {
    offset: u32,
    count: u32,
    first_key: Vec<u8>,
}

/// The outcome of probing one run for a key — the three cases the
/// `store.lsm.bloom.{skip,hit,fp}` counters classify.
pub enum Probe<'a> {
    /// The run's key-range bounds or bloom filter excluded the key: the
    /// run's index was not consulted.
    Skip,
    /// The bloom admitted the key but the run does not hold it (a bloom
    /// false positive — the block decode was wasted).
    Miss,
    /// The key is in this run. `None` is a tombstone hit: the key is
    /// deleted and older runs must not be consulted.
    Hit(Option<&'a [u8]>),
}

/// One sealed run: `id` names the file; entries live encoded in `data`
/// (sorted by key, `None` = tombstone) behind a bloom filter and a sparse
/// block index; `bytes` is the on-disk size.
pub struct Run {
    pub id: u64,
    /// Encoded entries, contiguous, grouped into `BLOCK_ENTRIES` blocks.
    data: Vec<u8>,
    index: Vec<BlockMeta>,
    bloom: Bloom,
    /// Largest key in the run (derived at build/load, not stored): with
    /// the first index block's key it bounds the run's key range, so
    /// point lookups prune disjoint runs before touching the bloom.
    max_key: Vec<u8>,
    count: u32,
    pub bytes: u64,
}

impl Run {
    /// File name for run `id` (zero-padded so directory listings sort in
    /// id order).
    pub fn file_name(id: u64) -> String {
        format!("run-{id:08}")
    }

    /// Parse a run file name back to its id; `None` for non-run files.
    pub fn parse_file_name(name: &str) -> Option<u64> {
        name.strip_prefix("run-")?.parse().ok()
    }

    /// Number of entries (tombstones included).
    pub fn entry_count(&self) -> usize {
        self.count as usize
    }

    /// Decode the entry at `pos` (which must sit on an entry boundary
    /// inside `data`). The buffer was validated at construction, so a
    /// decode failure here means memory corruption; it ends iteration
    /// rather than panicking.
    fn decode_entry_at(&self, pos: &mut usize) -> Option<(&[u8], Option<&[u8]>)> {
        let flag = get_uvarint(&self.data, pos).ok()?;
        let key = get_bytes(&self.data, pos).ok()?;
        match flag {
            0 => Some((key, None)),
            1 => {
                let value = get_bytes(&self.data, pos).ok()?;
                Some((key, Some(value)))
            }
            _ => None,
        }
    }

    /// Point lookup: key-range bounds, then bloom, then a binary search
    /// over the sparse index, then a linear decode of one block.
    pub fn probe(&self, key: &[u8]) -> Probe<'_> {
        self.probe_hashed(key, key_hash(key))
    }

    /// [`probe`](Run::probe) with the key's `key_hash` precomputed —
    /// multi-run lookups hash once and reuse it across the whole stack.
    pub fn probe_hashed(&self, key: &[u8], hash: u64) -> Probe<'_> {
        match self.index.first() {
            None => return Probe::Skip,
            Some(first) if key < first.first_key.as_slice() => return Probe::Skip,
            _ => {}
        }
        if key > self.max_key.as_slice() {
            return Probe::Skip;
        }
        if !self.bloom.might_contain(hash) {
            return Probe::Skip;
        }
        // Last block whose first key is <= key is the only one that can
        // hold it.
        let idx = self
            .index
            .partition_point(|b| b.first_key.as_slice() <= key);
        if idx == 0 {
            return Probe::Miss;
        }
        let Some(block) = self.index.get(idx - 1) else {
            return Probe::Miss;
        };
        let mut pos = block.offset as usize;
        for _ in 0..block.count {
            let Some((k, v)) = self.decode_entry_at(&mut pos) else {
                return Probe::Miss;
            };
            match k.cmp(key) {
                std::cmp::Ordering::Less => continue,
                std::cmp::Ordering::Equal => return Probe::Hit(v),
                std::cmp::Ordering::Greater => return Probe::Miss,
            }
        }
        Probe::Miss
    }

    /// Iterate every entry in key order, zero-copy out of the data region.
    pub fn iter(&self) -> RunIter<'_> {
        RunIter { run: self, pos: 0 }
    }

    /// Iterate entries with key >= `key`: skip whole blocks via the
    /// sparse index, then decode-skip within the landing block.
    pub fn iter_from(&self, key: &[u8]) -> RunIter<'_> {
        let idx = self.index.partition_point(|b| b.first_key.as_slice() < key);
        let start = if idx == 0 {
            0
        } else {
            // The previous block may still contain entries >= key.
            self.index.get(idx - 1).map_or(0, |b| b.offset as usize)
        };
        let mut it = RunIter {
            run: self,
            pos: start,
        };
        // Linear skip inside at most one block.
        while let Some((k, _)) = it.peek() {
            if k >= key {
                break;
            }
            it.next();
        }
        it
    }

    /// Encode `entries` into the blocked data region plus its sparse
    /// index and bloom filter.
    fn build(id: u64, entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> (Vec<u8>, Vec<BlockMeta>, Bloom) {
        let mut data = Vec::new();
        let mut index: Vec<BlockMeta> = Vec::new();
        let mut bloom = Bloom::with_capacity(id, entries.len());
        for (i, (key, value)) in entries.iter().enumerate() {
            if (i as u32).is_multiple_of(BLOCK_ENTRIES) {
                index.push(BlockMeta {
                    offset: data.len() as u32,
                    count: 0,
                    first_key: key.clone(),
                });
            }
            if let Some(last) = index.last_mut() {
                last.count += 1;
            }
            bloom.insert(key_hash(key));
            match value {
                Some(v) => {
                    put_uvarint(&mut data, 1);
                    put_bytes(&mut data, key);
                    put_bytes(&mut data, v);
                }
                None => {
                    put_uvarint(&mut data, 0);
                    put_bytes(&mut data, key);
                }
            }
        }
        (data, index, bloom)
    }

    /// Encode, write at offset 0, and sync `storage`.
    /// Entries must be sorted by strictly ascending key. The entry vector
    /// is transient: the returned run keeps only the encoded region.
    pub fn write(
        id: u64,
        entries: Vec<(Vec<u8>, Option<Vec<u8>>)>,
        storage: &mut dyn Storage,
    ) -> StoreResult<Run> {
        let count = u32::try_from(entries.len()).map_err(|_| StoreError::TooLarge {
            what: "run entry count",
            len: entries.len(),
            max: u32::MAX as usize,
        })?;
        let max_key = entries.last().map(|(k, _)| k.clone()).unwrap_or_default();
        let (data, index, bloom) = Run::build(id, &entries);
        drop(entries);
        let data_len = u32::try_from(data.len()).map_err(|_| StoreError::TooLarge {
            what: "run data region",
            len: data.len(),
            max: u32::MAX as usize,
        })?;
        let mut out = Vec::with_capacity(data.len() + 64);
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, VERSION);
        put_u32(&mut out, count);
        put_u32(&mut out, data_len);
        out.extend_from_slice(&data);
        put_u32(&mut out, index.len() as u32);
        for b in &index {
            put_u32(&mut out, b.offset);
            put_u32(&mut out, b.count);
            put_bytes(&mut out, &b.first_key);
        }
        bloom.encode(&mut out);
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        storage.set_len(0)?;
        storage.write_all_at(0, &out)?;
        storage.sync()?;
        Ok(Run {
            id,
            data,
            index,
            bloom,
            max_key,
            count,
            bytes: out.len() as u64,
        })
    }

    /// Load and verify a run from `storage`. Any framing, checksum,
    /// version or ordering problem is `Corrupt` — callers decide whether
    /// that means a fatal manifest inconsistency or a deletable orphan.
    pub fn load(id: u64, storage: &mut dyn Storage) -> StoreResult<Run> {
        let len = storage.len()?;
        let len_usize = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("oversized frame: {len} bytes")))?;
        if len_usize < 16 {
            return Err(StoreError::Corrupt(format!(
                "run {id}: file too short ({len_usize} bytes)"
            )));
        }
        let mut buf = vec![0u8; len_usize];
        storage.read_exact_at(0, &mut buf)?;
        let body_len = len_usize - 4;
        let mut tail_pos = body_len;
        let stored_crc = get_u32(&buf, &mut tail_pos)?;
        let body = buf
            .get(..body_len)
            .ok_or_else(|| StoreError::Corrupt(format!("run {id}: truncated body")))?;
        if crc32(body) != stored_crc {
            return Err(StoreError::Corrupt(format!("run {id}: checksum mismatch")));
        }
        let mut pos = 0usize;
        let magic = get_u32(body, &mut pos)?;
        if magic != MAGIC {
            return Err(StoreError::Corrupt(format!("run {id}: bad magic")));
        }
        let version = get_u32(body, &mut pos)?;
        if version != VERSION {
            return Err(StoreError::Corrupt(format!(
                "run {id}: unsupported version {version}"
            )));
        }
        let count = get_u32(body, &mut pos)?;
        let data_len = get_u32(body, &mut pos)? as usize;
        let data = body
            .get(pos..pos + data_len)
            .ok_or_else(|| StoreError::Corrupt(format!("run {id}: truncated data region")))?
            .to_vec();
        pos += data_len;
        let n_blocks = get_u32(body, &mut pos)? as usize;
        let mut index = Vec::with_capacity(n_blocks);
        for _ in 0..n_blocks {
            let offset = get_u32(body, &mut pos)?;
            let bcount = get_u32(body, &mut pos)?;
            let first_key = get_bytes(body, &mut pos)?.to_vec();
            index.push(BlockMeta {
                offset,
                count: bcount,
                first_key,
            });
        }
        let bloom = Bloom::decode(id, body, &mut pos)?;
        if pos != body_len {
            return Err(StoreError::Corrupt(format!(
                "run {id}: {} trailing bytes",
                body_len - pos
            )));
        }
        let max_key = Run::validate_data(id, &data, count, &index)?;
        Ok(Run {
            id,
            data,
            index,
            bloom,
            max_key,
            count,
            bytes: len,
        })
    }

    /// Walk the data region: verify entry framing, strict key ordering
    /// and the entry count, and recompute the sparse index, which must
    /// match the stored one. Returns the largest key.
    fn validate_data(
        id: u64,
        data: &[u8],
        count: u32,
        stored_index: &[BlockMeta],
    ) -> StoreResult<Vec<u8>> {
        let mut pos = 0usize;
        let mut index: Vec<BlockMeta> = Vec::new();
        let mut prev_key: Option<Vec<u8>> = None;
        for i in 0..count {
            let entry_off = pos;
            let flag = get_uvarint(data, &mut pos)?;
            let key = get_bytes(data, &mut pos)?;
            match flag {
                0 => {}
                1 => {
                    let _ = get_bytes(data, &mut pos)?;
                }
                other => {
                    return Err(StoreError::Corrupt(format!(
                        "run {id}: bad entry flag {other}"
                    )))
                }
            }
            if let Some(prev) = &prev_key {
                if prev.as_slice() >= key {
                    return Err(StoreError::Corrupt(format!("run {id}: keys out of order")));
                }
            }
            if i % BLOCK_ENTRIES == 0 {
                index.push(BlockMeta {
                    offset: entry_off as u32,
                    count: 0,
                    first_key: key.to_vec(),
                });
            }
            if let Some(last) = index.last_mut() {
                last.count += 1;
            }
            prev_key = Some(key.to_vec());
        }
        if pos != data.len() {
            return Err(StoreError::Corrupt(format!(
                "run {id}: {} trailing bytes",
                data.len() - pos
            )));
        }
        let matches = stored_index.len() == index.len()
            && stored_index.iter().zip(index.iter()).all(|(a, b)| {
                a.offset == b.offset && a.count == b.count && a.first_key == b.first_key
            });
        if !matches {
            return Err(StoreError::Corrupt(format!(
                "run {id}: sparse index disagrees with data region"
            )));
        }
        Ok(prev_key.unwrap_or_default())
    }
}

/// Streaming decoder over a run's data region. Yields entries in key
/// order, borrowing keys and values straight from the resident buffer.
pub struct RunIter<'a> {
    run: &'a Run,
    pos: usize,
}

impl<'a> RunIter<'a> {
    fn peek(&self) -> Option<(&'a [u8], Option<&'a [u8]>)> {
        if self.pos >= self.run.data.len() {
            return None;
        }
        let mut pos = self.pos;
        self.run.decode_entry_at(&mut pos)
    }
}

impl<'a> Iterator for RunIter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.pos >= self.run.data.len() {
            return None;
        }
        self.run.decode_entry_at(&mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::test_files::{flip, mem_file};

    fn sample() -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        vec![
            (b"alpha".to_vec(), Some(b"1".to_vec())),
            (b"beta".to_vec(), None),
            (b"gamma".to_vec(), Some(b"33".to_vec())),
        ]
    }

    fn probe_value(run: &Run, key: &[u8]) -> Option<Option<Vec<u8>>> {
        match run.probe(key) {
            Probe::Hit(v) => Some(v.map(|x| x.to_vec())),
            Probe::Miss | Probe::Skip => None,
        }
    }

    fn collect(run: &Run) -> Vec<(Vec<u8>, Option<Vec<u8>>)> {
        run.iter()
            .map(|(k, v)| (k.to_vec(), v.map(|x| x.to_vec())))
            .collect()
    }

    #[test]
    fn write_load_round_trip() {
        let mut s = mem_file(b"");
        let written = Run::write(7, sample(), s.as_mut()).unwrap();
        let loaded = Run::load(7, s.as_mut()).unwrap();
        assert_eq!(collect(&loaded), sample());
        assert_eq!(loaded.bytes, written.bytes);
        assert_eq!(probe_value(&loaded, b"alpha"), Some(Some(b"1".to_vec())));
        assert_eq!(probe_value(&loaded, b"beta"), Some(None), "tombstone hit");
        assert_eq!(probe_value(&loaded, b"delta"), None);
    }

    #[test]
    fn a_version_1_file_is_corrupt_not_loaded() {
        // The retired v1 layout, byte for byte: header, entries, crc — no
        // data_len, index or bloom. Intact checksum, so the version field
        // is what rejects it.
        let mut out = Vec::new();
        put_u32(&mut out, MAGIC);
        put_u32(&mut out, 1);
        put_u32(&mut out, 1);
        put_uvarint(&mut out, 1);
        put_bytes(&mut out, b"alpha");
        put_bytes(&mut out, b"1");
        let crc = crc32(&out);
        put_u32(&mut out, crc);
        let mut s = mem_file(&out);
        match Run::load(3, s.as_mut()) {
            Err(StoreError::Corrupt(msg)) => {
                assert!(msg.contains("unsupported version 1"), "{msg}")
            }
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a v1 file must not load"),
        }
    }

    #[test]
    fn bloom_skips_absent_keys() {
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..200u32)
            .map(|i| (format!("key-{i:04}").into_bytes(), Some(vec![i as u8])))
            .collect();
        let mut s = mem_file(b"");
        let run = Run::write(11, entries, s.as_mut()).unwrap();
        // Every present key must be admitted (no false negatives, ever).
        for i in 0..200u32 {
            let k = format!("key-{i:04}").into_bytes();
            assert!(
                matches!(run.probe(&k), Probe::Hit(Some(_))),
                "present key rejected"
            );
        }
        // Most absent keys are skipped without touching the index.
        let mut skipped = 0;
        for i in 0..200u32 {
            let k = format!("absent-{i:04}").into_bytes();
            match run.probe(&k) {
                Probe::Skip => skipped += 1,
                Probe::Miss => {}
                Probe::Hit(_) => panic!("absent key reported present"),
            }
        }
        assert!(skipped > 150, "bloom skipped only {skipped}/200");
    }

    #[test]
    fn iter_from_starts_at_lower_bound() {
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = (0..100u32)
            .map(|i| (format!("k{i:03}").into_bytes(), Some(vec![1])))
            .collect();
        let mut s = mem_file(b"");
        let run = Run::write(5, entries, s.as_mut()).unwrap();
        let from: Vec<Vec<u8>> = run.iter_from(b"k050").map(|(k, _)| k.to_vec()).collect();
        assert_eq!(from.len(), 50);
        assert_eq!(from[0], b"k050".to_vec());
        assert!(run.iter_from(b"zzz").next().is_none());
        assert_eq!(run.iter_from(b"").count(), 100);
        // Between-keys bound lands on the next entry.
        let between: Vec<Vec<u8>> = run.iter_from(b"k0505").map(|(k, _)| k.to_vec()).collect();
        assert_eq!(between[0], b"k051".to_vec());
    }

    #[test]
    fn corruption_is_detected() {
        let mut s = mem_file(b"");
        Run::write(1, sample(), s.as_mut()).unwrap();
        flip(s.as_mut(), 14, 0xFF);
        assert!(matches!(
            Run::load(1, s.as_mut()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn truncated_file_is_corrupt() {
        let mut s = mem_file(b"");
        Run::write(1, sample(), s.as_mut()).unwrap();
        let len = s.len().unwrap();
        s.set_len(len - 3).unwrap();
        assert!(matches!(
            Run::load(1, s.as_mut()),
            Err(StoreError::Corrupt(_))
        ));
        s.set_len(4).unwrap();
        assert!(matches!(
            Run::load(1, s.as_mut()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn unsorted_entries_rejected_at_load() {
        let mut s = mem_file(b"");
        let entries = vec![
            (b"b".to_vec(), Some(b"1".to_vec())),
            (b"a".to_vec(), Some(b"2".to_vec())),
        ];
        Run::write(1, entries, s.as_mut()).unwrap();
        assert!(matches!(
            Run::load(1, s.as_mut()),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn empty_run_round_trips() {
        let mut s = mem_file(b"");
        let run = Run::write(2, Vec::new(), s.as_mut()).unwrap();
        assert_eq!(run.entry_count(), 0);
        assert!(matches!(run.probe(b"x"), Probe::Skip | Probe::Miss));
        let loaded = Run::load(2, s.as_mut()).unwrap();
        assert_eq!(loaded.entry_count(), 0);
        assert!(loaded.iter().next().is_none());
    }

    #[test]
    fn file_names_sort_by_id() {
        assert_eq!(Run::file_name(3), "run-00000003");
        assert_eq!(Run::parse_file_name("run-00000003"), Some(3));
        assert_eq!(Run::parse_file_name("manifest"), None);
        assert!(Run::file_name(9) < Run::file_name(10));
    }
}
