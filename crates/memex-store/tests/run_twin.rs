//! The run format's twin: every run file the store writes, from a seal or
//! a tier merge, is byte-identical to what the batch encoder below writes
//! for that run's entries, and every merged run holds exactly the
//! `BTreeMap` merge of its inputs.
//!
//! The reference is the encoder the store used before seals and merges
//! streamed into one run encoder: the entries gathered in a `Vec`,
//! encoded into a data region with the sparse index and bloom built
//! alongside, then copied with the header into one buffer. It is kept
//! here verbatim in behaviour, so a format change fails here even when
//! the store still reads its own files.
//!
//! A [`RecordingDir`] logs every run file the store opens and the bytes
//! of every one it removes, so the runs a merge consumes within the same
//! seal are checked too. Seeded put/delete/seal mixes at several
//! `compact_min_runs` build stacks several levels deep, so merges happen
//! both above older runs (tombstones kept) and at the bottom (tombstones
//! dropped). After every seal the store is reopened, which loads every
//! live run. `PROPTEST_SEED=<n>` picks the cases.

use std::collections::BTreeMap;
use std::io;
use std::ops::Bound;
use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use memex_store::codec::{
    crc32, get_bytes, get_u32, get_uvarint, put_bytes, put_u32, put_u64, put_uvarint,
};
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_store::vfs::{MemDir, Storage, StorageDir};

type Entries = Vec<(Vec<u8>, Option<Vec<u8>>)>;

// ---------------------------------------------------------------------------
// The reference encoder
// ---------------------------------------------------------------------------

const MAGIC: u32 = 0x4D58_524E;
const VERSION: u32 = 2;
const BLOCK_ENTRIES: u32 = 16;
const BLOOM_BITS_PER_KEY: u64 = 10;
const BLOOM_K: u32 = 7;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn key_hash(key: &[u8]) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

struct Bloom {
    seed: u64,
    k: u32,
    nbits: u64,
    words: Vec<u64>,
}

impl Bloom {
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

    fn insert(&mut self, hash: u64) {
        let h1 = splitmix64(hash ^ self.seed);
        let h2 = splitmix64(h1) | 1;
        for i in 0..u64::from(self.k) {
            let h = h1.wrapping_add(i.wrapping_mul(h2));
            let bit = ((u128::from(h) * u128::from(self.nbits)) >> 64) as u64;
            self.words[(bit / 64) as usize] |= 1u64 << (bit % 64);
        }
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

struct BlockMeta {
    offset: u32,
    count: u32,
    first_key: Vec<u8>,
}

/// The data region, sparse index and bloom of `entries` (ascending keys).
fn reference_build(
    id: u64,
    entries: &[(Vec<u8>, Option<Vec<u8>>)],
) -> (Vec<u8>, Vec<BlockMeta>, Bloom) {
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

/// The whole file the reference encoder writes for run `id`.
fn reference_write(id: u64, entries: &[(Vec<u8>, Option<Vec<u8>>)]) -> Vec<u8> {
    let (data, index, bloom) = reference_build(id, entries);
    let mut out = Vec::with_capacity(data.len() + 64);
    put_u32(&mut out, MAGIC);
    put_u32(&mut out, VERSION);
    put_u32(&mut out, entries.len() as u32);
    put_u32(&mut out, data.len() as u32);
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
    out
}

/// The entries of a run file, read from its header and data region (the
/// rest of the file is checked by comparing it with `reference_write`).
fn decode_entries(file: &[u8]) -> Entries {
    let mut pos = 8;
    let count = get_u32(file, &mut pos).unwrap();
    let _data_len = get_u32(file, &mut pos).unwrap();
    (0..count)
        .map(|_| {
            let flag = get_uvarint(file, &mut pos).unwrap();
            let key = get_bytes(file, &mut pos).unwrap().to_vec();
            let value = (flag == 1).then(|| get_bytes(file, &mut pos).unwrap().to_vec());
            (key, value)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// A directory that records the store's run files
// ---------------------------------------------------------------------------

enum Event {
    Opened(u64),
    Removed(u64, Vec<u8>),
}

/// A [`MemDir`] that logs each run file the store opens, and the bytes of
/// each run file it removes.
#[derive(Clone, Default)]
struct RecordingDir {
    inner: MemDir,
    log: Arc<Mutex<Vec<Event>>>,
}

fn run_id(name: &str) -> Option<u64> {
    name.strip_prefix("run-")?.parse().ok()
}

fn read_all(dir: &MemDir, name: &str) -> Vec<u8> {
    let mut file = dir.open(name).unwrap();
    let mut bytes = vec![0u8; file.len().unwrap() as usize];
    file.read_exact_at(0, &mut bytes).unwrap();
    bytes
}

impl RecordingDir {
    fn take_log(&self) -> Vec<Event> {
        std::mem::take(&mut *self.log.lock().unwrap())
    }
}

impl StorageDir for RecordingDir {
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        if let Some(id) = run_id(name) {
            self.log.lock().unwrap().push(Event::Opened(id));
        }
        self.inner.open(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        if let Some(id) = run_id(name) {
            let bytes = read_all(&self.inner, name);
            self.log.lock().unwrap().push(Event::Removed(id, bytes));
        }
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// The twin
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Seal,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // A small alphabet, so keys recur across runs and shadow each other.
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)],
        1..4,
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..12))
            .prop_map(|(k, v)| Op::Put(k, v)),
        3 => key_strategy().prop_map(Op::Delete),
        2 => Just(Op::Seal),
    ]
}

/// The store's run stack as the twin tracks it: `(id, level)` newest
/// first, and what each run (live or already merged away) must hold.
#[derive(Default)]
struct Stack {
    runs: Vec<(u64, u32)>,
    entries: BTreeMap<u64, Entries>,
}

/// What one case saw, summed over the cases to show the mixes reach
/// every kind of merge.
#[derive(Default, Debug)]
struct Seen {
    merges_above: usize,
    merges_at_bottom: usize,
    tombstones_kept: usize,
}

/// Check the run files one seal wrote, from the log it left: a level-0
/// run holding `sealed` (when the memtable was not empty), then each merge
/// as the file it opened followed by the removal of its inputs. Every
/// file must equal the reference encoder's bytes for the entries it must
/// hold.
fn check_seal(
    log: Vec<Event>,
    sealed: Option<Entries>,
    stack: &mut Stack,
    dir: &MemDir,
    seen: &mut Seen,
) -> Result<(), TestCaseError> {
    let mut removed: BTreeMap<u64, Vec<u8>> = BTreeMap::new();
    let mut written: Vec<u64> = Vec::new();
    let mut events = log.into_iter().peekable();
    if let Some(sealed) = sealed {
        let Some(Event::Opened(id)) = events.next() else {
            return Err(TestCaseError::fail("a seal opened no run file"));
        };
        prop_assert!(
            stack.entries.keys().all(|&old| old < id),
            "run id {id} reused"
        );
        stack.runs.insert(0, (id, 0));
        stack.entries.insert(id, sealed);
        written.push(id);
    }
    while let Some(event) = events.next() {
        let Event::Opened(id) = event else {
            return Err(TestCaseError::fail("a run was removed outside a merge"));
        };
        let mut victims = Vec::new();
        while let Some(Event::Removed(victim, bytes)) =
            events.next_if(|e| matches!(e, Event::Removed(..)))
        {
            victims.push(victim);
            removed.insert(victim, bytes);
        }
        let Some(start) = stack
            .runs
            .iter()
            .position(|&(r, _)| Some(&r) == victims.first())
        else {
            return Err(TestCaseError::fail(format!(
                "merge {id} removed no live run"
            )));
        };
        let end = start + victims.len();
        prop_assert!(victims.len() >= 2, "merge {id} of {victims:?}");
        let span: Vec<(u64, u32)> = stack.runs[start..end].to_vec();
        prop_assert_eq!(
            span.iter().map(|&(r, _)| r).collect::<Vec<_>>(),
            victims.clone()
        );
        let level = span[0].1;
        prop_assert!(
            span.iter().all(|&(_, l)| l == level),
            "a merge spans one level"
        );
        let bottom = end == stack.runs.len();
        // The reference merge: oldest input first, so newer entries
        // overwrite; tombstones dropped only at the bottom of the stack.
        let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
        for victim in victims.iter().rev() {
            for (k, v) in &stack.entries[victim] {
                merged.insert(k.clone(), v.clone());
            }
        }
        let want: Entries = merged
            .into_iter()
            .filter(|(_, v)| v.is_some() || !bottom)
            .collect();
        if bottom {
            seen.merges_at_bottom += 1;
        } else {
            seen.merges_above += 1;
            seen.tombstones_kept += want.iter().filter(|(_, v)| v.is_none()).count();
        }
        stack.runs.splice(start..end, [(id, level + 1)]);
        stack.entries.insert(id, want);
        written.push(id);
    }
    for id in written {
        let bytes = match removed.remove(&id) {
            Some(bytes) => bytes,
            None => read_all(dir, &format!("run-{id:08}")),
        };
        let want = &stack.entries[&id];
        prop_assert_eq!(&decode_entries(&bytes), want, "run {} entries", id);
        prop_assert!(
            bytes == reference_write(id, want),
            "run {id}: bytes differ from the reference encoder's"
        );
    }
    Ok(())
}

/// Drive one seeded mix, checking every seal's files as it goes and the
/// reopened store's contents after each seal.
fn twin_case(min_runs: usize, ops: &[Op]) -> Result<Seen, TestCaseError> {
    let opts = LsmOptions {
        memtable_bytes: u64::MAX,
        compact_min_runs: min_runs,
    };
    let dir = RecordingDir::default();
    let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), opts).unwrap();
    let mut memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    let mut stack = Stack::default();
    let mut seen = Seen::default();
    dir.take_log();
    for op in ops.iter().chain([&Op::Seal]) {
        match op {
            Op::Put(k, v) => {
                store.put(k, v).unwrap();
                memtable.insert(k.clone(), Some(v.clone()));
                model.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                store.delete(k).unwrap();
                memtable.insert(k.clone(), None);
                model.remove(k);
            }
            Op::Seal => {
                store.seal().unwrap();
                let sealed = (!memtable.is_empty())
                    .then(|| std::mem::take(&mut memtable).into_iter().collect());
                check_seal(dir.take_log(), sealed, &mut stack, &dir.inner, &mut seen)?;
                prop_assert_eq!(store.run_levels(), stack.runs.clone());
                // Reopening loads every live run.
                drop(store);
                store = LsmStore::open_with_dir(Arc::new(dir.clone()), opts).unwrap();
                dir.take_log();
                prop_assert_eq!(store.stats().recovered_orphan_runs, 0);
                prop_assert_eq!(store.run_levels(), stack.runs.clone());
                let scanned = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
                let want: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
                prop_assert_eq!(scanned, want);
            }
        }
    }
    Ok(seen)
}

fn mix_strategy() -> impl Strategy<Value = (usize, Vec<Op>)> {
    (2usize..=4, proptest::collection::vec(op_strategy(), 1..240))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_run_file_matches_the_reference_encoder((min_runs, ops) in mix_strategy()) {
        twin_case(min_runs, &ops)?;
    }
}

/// The mixes above are worth their cases: over a fixed batch of them,
/// merges happen both above older runs (keeping tombstones) and at the
/// bottom of the stack.
#[test]
fn the_mixes_merge_above_older_runs_and_at_the_bottom() {
    let mut rng = proptest::test_runner::TestRng::from_seed(52);
    let mut total = Seen::default();
    for _ in 0..16 {
        let (min_runs, ops) = mix_strategy().generate(&mut rng);
        let seen = twin_case(min_runs, &ops).unwrap_or_else(|e| panic!("{e:?}"));
        total.merges_above += seen.merges_above;
        total.merges_at_bottom += seen.merges_at_bottom;
        total.tombstones_kept += seen.tombstones_kept;
    }
    assert!(total.merges_above > 0, "{total:?}");
    assert!(total.merges_at_bottom > 0, "{total:?}");
    assert!(total.tombstones_kept > 0, "{total:?}");
}
