//! Immutable sorted runs: the on-disk unit of the LSM engine.
//!
//! A run is a sealed memtable (or a tier merge): a sorted list of
//! `(key, value-or-tombstone)` entries, synced and never modified again.
//! A merge writes a new run and drops its inputs whole, so recovery only
//! ever has to choose between complete files.
//!
//! One [`RunEncoder`] builds every run: a seal feeds it the memtable, a
//! merge the k-way merge of its inputs, and it appends each entry to the
//! data region as it arrives. At the end one walk over the data derives
//! the sparse index, the bloom filter and the largest key, and the file
//! is written as header, data, index-and-bloom tail and checksum, with no
//! second copy of the data. [`Run::load`] runs the same walk over the
//! data it reads and requires the stored tail to equal the derived one
//! byte for byte.
//!
//! Each run carries the two read-amplification guards tiered compaction
//! needs: a **bloom filter** over the keys (seeded FNV-1a base hash with
//! a SplitMix64-derived second hash, double hashing) so a point lookup
//! skips runs that cannot contain the key, and a **sparse index** of
//! every block's offset, so a lookup that does consult the run decodes
//! one small block instead of binary-searching materialized entries. A
//! block's first key is read where it lies in the data region, which stays
//! encoded in one contiguous buffer: no per-entry allocation is resident.
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
    crc32, crc32_extend, get_bytes, get_u32, get_uvarint, put_bytes, put_u32, put_u64, put_uvarint,
};
use crate::error::{StoreError, StoreResult};
use crate::vfs::Storage;

const MAGIC: u32 = 0x4D58_524E; // "MXRN"
const VERSION: u32 = 2;

/// Header bytes before the data region: magic, version, count, data_len.
const HEADER_LEN: usize = 16;

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
pub(crate) fn key_hash(key: &[u8]) -> u64 {
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
struct Bloom {
    seed: u64,
    k: u32,
    nbits: u64,
    words: Vec<u64>,
}

impl Bloom {
    /// Sized for `count` keys of run `id`. The seed derives from the id,
    /// so the loader rebuilds the very same filter from the data region.
    fn with_capacity(id: u64, count: usize) -> Bloom {
        let nbits = (count as u64)
            .saturating_mul(BLOOM_BITS_PER_KEY)
            .max(64)
            .next_multiple_of(64);
        Bloom {
            seed: splitmix64(id ^ 0xA076_1D64_78BD_642F),
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
}

// ---------------------------------------------------------------------------
// Run
// ---------------------------------------------------------------------------

/// The outcome of probing one run for a key — the three cases the
/// `store.lsm.bloom.{skip,hit,fp}` counters classify.
pub(crate) enum Probe<'a> {
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
pub(crate) struct Run {
    pub(crate) id: u64,
    /// Encoded entries, contiguous, grouped into `BLOCK_ENTRIES` blocks.
    data: Vec<u8>,
    /// Where each block starts in `data`: the sparse index.
    blocks: Vec<u32>,
    bloom: Bloom,
    /// Where the last entry starts in `data`. Its key, the run's largest,
    /// and the first block's first key bound the run's key range, so
    /// point lookups prune disjoint runs before touching the bloom.
    last: usize,
    pub(crate) bytes: u64,
}

/// What one walk over a data region derives: the sparse index, the bloom
/// filter (sized by the entry count) and the last entry's offset, plus
/// the file's index-and-bloom tail as the encoder writes it.
struct Layout {
    blocks: Vec<u32>,
    bloom: Bloom,
    last: usize,
    tail: Vec<u8>,
    /// Whether the keys strictly ascend. The encoder's callers guarantee
    /// it; the loader checks it.
    ordered: bool,
}

/// Walk `count` entries of `data`, checking their framing, and derive the
/// run's [`Layout`]. The encoder calls this on the data it just appended,
/// the loader on the data it just read: one derivation for both.
fn walk(id: u64, data: &[u8], count: u32) -> StoreResult<Layout> {
    // Every entry takes at least two bytes: checking the count against
    // the data first bounds the allocations below.
    if count as usize > data.len() {
        return Err(StoreError::Corrupt(format!(
            "run {id}: {count} entries in {} data bytes",
            data.len()
        )));
    }
    let n_blocks = count.div_ceil(BLOCK_ENTRIES);
    let mut layout = Layout {
        blocks: Vec::with_capacity(n_blocks as usize),
        bloom: Bloom::with_capacity(id, count as usize),
        last: 0,
        tail: Vec::new(),
        ordered: true,
    };
    put_u32(&mut layout.tail, n_blocks);
    let mut pos = 0usize;
    let mut prev: Option<&[u8]> = None;
    for i in 0..count {
        let entry = pos;
        let flag = get_uvarint(data, &mut pos)?;
        let key = get_bytes(data, &mut pos)?;
        match flag {
            0 => {}
            1 => {
                get_bytes(data, &mut pos)?;
            }
            other => {
                return Err(StoreError::Corrupt(format!(
                    "run {id}: bad entry flag {other}"
                )))
            }
        }
        layout.ordered &= prev.is_none_or(|prev| prev < key);
        if i % BLOCK_ENTRIES == 0 {
            layout.blocks.push(entry as u32);
            put_u32(&mut layout.tail, entry as u32);
            put_u32(&mut layout.tail, (count - i).min(BLOCK_ENTRIES));
            put_bytes(&mut layout.tail, key);
        }
        layout.bloom.insert(key_hash(key));
        layout.last = entry;
        prev = Some(key);
    }
    if pos != data.len() {
        return Err(StoreError::Corrupt(format!(
            "run {id}: {} trailing bytes",
            data.len() - pos
        )));
    }
    // Room for the bloom and the checksum the encoder appends.
    let bloom_len = 24 + 8 * layout.bloom.words.len();
    layout.tail.reserve_exact(bloom_len + 4);
    layout.bloom.encode(&mut layout.tail);
    Ok(layout)
}

/// Builds one run from entries pushed in strictly ascending key order (a
/// memtable walk or a merge), then writes and syncs it in
/// [`finish`](RunEncoder::finish).
pub(crate) struct RunEncoder {
    data: Vec<u8>,
    count: usize,
}

impl RunEncoder {
    /// An encoder whose data region fits in `capacity` bytes without
    /// growing; [`finish`](RunEncoder::finish) returns what is unused.
    pub(crate) fn with_capacity(capacity: usize) -> RunEncoder {
        RunEncoder {
            data: Vec::with_capacity(capacity),
            count: 0,
        }
    }

    /// Append one entry (`None` = tombstone) to the data region.
    pub(crate) fn push(&mut self, key: &[u8], value: Option<&[u8]>) {
        put_uvarint(&mut self.data, u64::from(value.is_some()));
        put_bytes(&mut self.data, key);
        if let Some(value) = value {
            put_bytes(&mut self.data, value);
        }
        self.count += 1;
    }

    /// Derive the index and bloom, then write header, data, tail and
    /// checksum at offset 0 of `storage` and sync it.
    pub(crate) fn finish(self, id: u64, storage: &mut dyn Storage) -> StoreResult<Run> {
        let RunEncoder { mut data, count } = self;
        data.shrink_to_fit();
        let too_large = |what, len| StoreError::TooLarge {
            what,
            len,
            max: u32::MAX as usize,
        };
        let count = u32::try_from(count).map_err(|_| too_large("run entry count", count))?;
        let data_len =
            u32::try_from(data.len()).map_err(|_| too_large("run data region", data.len()))?;
        let Layout {
            blocks,
            bloom,
            last,
            mut tail,
            ..
        } = walk(id, &data, count)?;
        let mut header = Vec::with_capacity(HEADER_LEN);
        for field in [MAGIC, VERSION, count, data_len] {
            put_u32(&mut header, field);
        }
        let crc = crc32_extend(crc32_extend(crc32(&header), &data), &tail);
        put_u32(&mut tail, crc);
        let tail_at = (HEADER_LEN + data.len()) as u64;
        storage.set_len(0)?;
        storage.write_all_at(0, &header)?;
        storage.write_all_at(HEADER_LEN as u64, &data)?;
        storage.write_all_at(tail_at, &tail)?;
        storage.sync()?;
        Ok(Run {
            id,
            data,
            blocks,
            bloom,
            last,
            bytes: tail_at + tail.len() as u64,
        })
    }
}

impl Run {
    /// File name for run `id` (zero-padded so directory listings sort in
    /// id order).
    pub(crate) fn file_name(id: u64) -> String {
        format!("run-{id:08}")
    }

    /// Parse a run file name back to its id; `None` for non-run files.
    pub(crate) fn parse_file_name(name: &str) -> Option<u64> {
        name.strip_prefix("run-")?.parse().ok()
    }

    /// Decode the entry at `pos` (which must sit on an entry boundary
    /// inside `data`); `None` at the end of `data`. The buffer was
    /// validated at construction, so any other decode failure means
    /// memory corruption; it ends iteration rather than panicking.
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

    /// The key of the entry at `pos`, borrowed from `data`.
    fn key_at(&self, mut pos: usize) -> Option<&[u8]> {
        self.decode_entry_at(&mut pos).map(|(key, _)| key)
    }

    /// Point lookup with the key's [`key_hash`] precomputed (multi-run
    /// lookups hash once for the whole stack): key-range bounds, then
    /// bloom, then a binary search over the sparse index, then a linear
    /// decode of one block.
    pub(crate) fn probe_hashed(&self, key: &[u8], hash: u64) -> Probe<'_> {
        let (Some(first), Some(last)) = (self.key_at(0), self.key_at(self.last)) else {
            return Probe::Skip;
        };
        if key < first || key > last || !self.bloom.might_contain(hash) {
            return Probe::Skip;
        }
        // Last block whose first key is <= key is the only one that can
        // hold it.
        let idx = self
            .blocks
            .partition_point(|&at| self.key_at(at as usize).is_some_and(|k| k <= key));
        let Some(&start) = idx.checked_sub(1).and_then(|i| self.blocks.get(i)) else {
            return Probe::Miss;
        };
        let mut pos = start as usize;
        for _ in 0..BLOCK_ENTRIES {
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
    pub(crate) fn iter(&self) -> RunIter<'_> {
        RunIter { run: self, pos: 0 }
    }

    /// Iterate entries with key >= `key`: skip whole blocks via the
    /// sparse index, then decode-skip within the landing block.
    pub(crate) fn iter_from(&self, key: &[u8]) -> RunIter<'_> {
        let idx = self
            .blocks
            .partition_point(|&at| self.key_at(at as usize).is_some_and(|k| k < key));
        // The previous block may still contain entries >= key.
        let start = idx
            .checked_sub(1)
            .and_then(|i| self.blocks.get(i))
            .map_or(0, |&at| at as usize);
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

    /// Load and verify a run from `storage`. Any framing, checksum,
    /// version or ordering problem, or a stored index or bloom that
    /// differs by one byte from what the data region derives, is
    /// `Corrupt` — callers decide whether that means a fatal manifest
    /// inconsistency or a deletable orphan.
    pub(crate) fn load(id: u64, storage: &mut dyn Storage) -> StoreResult<Run> {
        let len = storage.len()?;
        let len_usize = usize::try_from(len)
            .map_err(|_| StoreError::Corrupt(format!("oversized frame: {len} bytes")))?;
        if len_usize < HEADER_LEN {
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
        let data_end = HEADER_LEN + get_u32(body, &mut pos)? as usize;
        let (Some(data), Some(stored_tail)) =
            (body.get(HEADER_LEN..data_end), body.get(data_end..))
        else {
            return Err(StoreError::Corrupt(format!(
                "run {id}: truncated data region"
            )));
        };
        let layout = walk(id, data, count)?;
        if !layout.ordered {
            return Err(StoreError::Corrupt(format!("run {id}: keys out of order")));
        }
        if layout.tail != stored_tail {
            return Err(StoreError::Corrupt(format!(
                "run {id}: index or bloom disagrees with data region"
            )));
        }
        // Keep the data region alone, in the buffer it was read into.
        buf.truncate(data_end);
        buf.drain(..HEADER_LEN);
        buf.shrink_to_fit();
        Ok(Run {
            id,
            data: buf,
            blocks: layout.blocks,
            bloom: layout.bloom,
            last: layout.last,
            bytes: len,
        })
    }
}

/// Streaming decoder over a run's data region. Yields entries in key
/// order, borrowing keys and values straight from the resident buffer.
pub(crate) struct RunIter<'a> {
    run: &'a Run,
    pos: usize,
}

impl<'a> RunIter<'a> {
    fn peek(&self) -> Option<(&'a [u8], Option<&'a [u8]>)> {
        let mut pos = self.pos;
        self.run.decode_entry_at(&mut pos)
    }
}

impl<'a> Iterator for RunIter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        self.run.decode_entry_at(&mut self.pos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::test_files::{flip, mem_file};

    /// Test-only entry points: the old call shape over [`RunEncoder`],
    /// and readouts the store itself never needs.
    impl Run {
        /// Encode `entries` (ascending keys) as run `id` into `storage`.
        pub(crate) fn write(
            id: u64,
            entries: Vec<(Vec<u8>, Option<Vec<u8>>)>,
            storage: &mut dyn Storage,
        ) -> StoreResult<Run> {
            let mut encoder = RunEncoder::with_capacity(0);
            for (key, value) in &entries {
                encoder.push(key, value.as_deref());
            }
            encoder.finish(id, storage)
        }

        /// Number of entries (tombstones included).
        pub(crate) fn entry_count(&self) -> usize {
            self.iter().count()
        }

        pub(crate) fn probe(&self, key: &[u8]) -> Probe<'_> {
            self.probe_hashed(key, key_hash(key))
        }
    }

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
    fn a_flipped_bloom_bit_under_a_valid_checksum_is_corrupt() {
        // The loader rebuilds the bloom from the data region and compares
        // every byte of it, not just its parameters.
        let mut s = mem_file(b"");
        let run = Run::write(1, sample(), s.as_mut()).unwrap();
        let len = run.bytes as usize;
        let mut bytes = vec![0u8; len];
        s.read_exact_at(0, &mut bytes).unwrap();
        bytes[len - 5] ^= 0x01; // the last bloom word's top byte
        let crc = crc32(&bytes[..len - 4]);
        bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
        s.write_all_at(0, &bytes).unwrap();
        match Run::load(1, s.as_mut()) {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("bloom"), "{msg}"),
            Err(other) => panic!("expected Corrupt, got {other}"),
            Ok(_) => panic!("a run whose bloom disagrees with its data must not load"),
        }
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
