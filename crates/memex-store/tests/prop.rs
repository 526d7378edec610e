//! Property-based tests for the storage substrate: the keyed store is checked
//! against a `BTreeMap` reference model, the WAL against replay semantics,
//! and the codecs against round-trip laws.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use memex_store::codec;
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_store::vfs::{MemDir, StorageDir};
use memex_store::wal::{Wal, WalRecord};

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    Checkpoint,
}

fn key_strategy() -> impl Strategy<Value = Vec<u8>> {
    // Small alphabet so operations collide often (the interesting case).
    proptest::collection::vec(
        prop_oneof![Just(b'a'), Just(b'b'), Just(b'c'), Just(0u8)],
        1..6,
    )
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (
            key_strategy(),
            proptest::collection::vec(any::<u8>(), 0..20)
        )
            .prop_map(|(k, v)| Op::Put(k, v)),
        key_strategy().prop_map(Op::Delete),
        Just(Op::Checkpoint),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The keyed store behaves exactly like an in-memory ordered map —
    /// with a budget small enough that the stream seals on its own, and
    /// seals that merge every second run, so the stack deepens as it goes.
    #[test]
    fn kv_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 1..120)) {
        let mut kv = LsmStore::open_memory_opts(LsmOptions {
            memtable_bytes: 256,
            compact_min_runs: 2,
        })
        .unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    prop_assert_eq!(kv.get(k).unwrap(), model.get(k).cloned());
                    kv.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                Op::Delete(k) => {
                    prop_assert_eq!(kv.get(k).unwrap(), model.get(k).cloned());
                    kv.delete(k).unwrap();
                    model.remove(k);
                }
                Op::Checkpoint => kv.seal().unwrap(),
            }
        }
        kv.check().unwrap();
        let scanned = kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        let expected: Vec<(Vec<u8>, Vec<u8>)> =
            model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
        prop_assert_eq!(scanned, expected);
    }

    /// Replaying a WAL after any prefix of appends yields exactly the
    /// records appended since the last checkpoint.
    #[test]
    fn wal_replay_matches_appends(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let mut wal = Wal::with_storage(MemDir::new().open("wal").unwrap()).unwrap();
        let mut expected: Vec<WalRecord> = Vec::new();
        for op in &ops {
            let rec = match op {
                Op::Put(k, v) => WalRecord::Put { key: k.clone(), value: v.clone() },
                Op::Delete(k) => WalRecord::Delete { key: k.clone() },
                Op::Checkpoint => WalRecord::Checkpoint,
            };
            wal.append(&rec).unwrap();
            if matches!(rec, WalRecord::Checkpoint) {
                expected.clear();
            } else {
                expected.push(rec);
            }
        }
        let replay = wal.replay().unwrap();
        prop_assert!(!replay.torn_tail);
        let got: Vec<WalRecord> = replay.records.into_iter().map(|(_, r)| r).collect();
        prop_assert_eq!(got, expected);
    }

    /// Tearing any number of trailing bytes never corrupts the surviving
    /// prefix: replay returns a prefix of the appended records.
    #[test]
    fn wal_tear_yields_record_prefix(
        kvs in proptest::collection::vec((key_strategy(), key_strategy()), 1..20),
        tear in 1u64..64,
    ) {
        let mut wal = Wal::with_storage(MemDir::new().open("wal").unwrap()).unwrap();
        for (k, v) in &kvs {
            wal.append(&WalRecord::Put { key: k.clone(), value: v.clone() }).unwrap();
        }
        wal.tear_tail(tear).unwrap();
        let replay = wal.replay().unwrap();
        prop_assert!(replay.records.len() <= kvs.len());
        for (i, (_, rec)) in replay.records.iter().enumerate() {
            let (k, v) = &kvs[i];
            prop_assert_eq!(rec, &WalRecord::Put { key: k.clone(), value: v.clone() });
        }
    }

    /// Varint encodings round-trip.
    #[test]
    fn varints_round_trip(u in any::<u64>()) {
        let mut buf = Vec::new();
        codec::put_uvarint(&mut buf, u);
        let mut pos = 0;
        prop_assert_eq!(codec::get_uvarint(&buf, &mut pos).unwrap(), u);
        prop_assert_eq!(pos, buf.len());
    }

    /// Delta encoding round-trips any strictly increasing sequence.
    #[test]
    fn deltas_round_trip(mut xs in proptest::collection::btree_set(any::<u32>(), 0..200)) {
        let seq: Vec<u64> = xs.iter().map(|&x| u64::from(x)).collect();
        xs.clear();
        let mut buf = Vec::new();
        codec::encode_deltas(&mut buf, &seq).unwrap();
        let mut pos = 0;
        prop_assert_eq!(codec::decode_deltas(&buf, &mut pos).unwrap(), seq);
    }

    /// CRC-32 detects any single-byte corruption.
    #[test]
    fn crc_detects_single_byte_flip(data in proptest::collection::vec(any::<u8>(), 1..64), idx in any::<usize>(), flip in 1u8..=255) {
        let before = codec::crc32(&data);
        let mut mutated = data.clone();
        let i = idx % mutated.len();
        mutated[i] ^= flip;
        prop_assert_ne!(before, codec::crc32(&mutated));
    }

    /// The slicing-by-8 CRC equals the bytewise definition on every prefix
    /// of a random 300-byte input: every length 0–300, so every tail length
    /// 0–7 after every number of 8-byte blocks.
    #[test]
    fn crc_slicing_matches_bytewise_reference(data in proptest::collection::vec(any::<u8>(), 300)) {
        for n in 0..=data.len() {
            prop_assert_eq!(codec::crc32(&data[..n]), bytewise_crc32(&data[..n]));
        }
    }

    /// Extending a prefix's CRC over the rest equals the CRC of the whole.
    #[test]
    fn crc_extend_continues_a_prefix(data in proptest::collection::vec(any::<u8>(), 0..=300), split in any::<usize>()) {
        let (a, b) = data.split_at(split % (data.len() + 1));
        prop_assert_eq!(codec::crc32_extend(codec::crc32(a), b), codec::crc32(&data));
    }
}

/// CRC-32/IEEE one bit at a time, straight from the reflected polynomial:
/// the reference the table-driven `codec::crc32` is held to.
fn bytewise_crc32(data: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c ^= u32::from(b);
        for _ in 0..8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
        }
    }
    !c
}
