//! Deterministic fault-injection harness for the storage substrate.
//!
//! Everything here is reproducible from a seed: every file of a `MemDir`
//! models an OS page cache over a disk (synced bytes are durable, unsynced
//! writes may vanish at a crash — possibly torn mid-write), and a
//! `FaultyDir` wrapped around it injects write errors, short writes and
//! sync failures from a seeded schedule or a scripted `FaultControl`.
//!
//! The central property is **prefix consistency**: after running an
//! arbitrary operation sequence against the store, crashing at an
//! arbitrary point, and reopening, the recovered state must equal the
//! model state after some prefix `p` of the acknowledged operations with
//! `synced ≤ p ≤ acked` — every operation covered by a sync survives, and
//! nothing that was never acknowledged is ever resurrected.
//!
//! The [`Rig`] below drives an [`LsmStore`] over a crash-modelling
//! [`MemDir`] and knows how to cut power and reopen; the store's internal
//! barriers (seal, tier compaction) get their own scripted schedules on
//! top.
//!
//! Run a specific schedule with `PROPTEST_SEED=<n> cargo test -p
//! memex-store --test fault` (this is what CI's fault-matrix job does):
//! the proptests draw their cases from it, and the two seeded chaos tests
//! run it as a fault-schedule seed after their four fixed ones.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use proptest::prelude::*;

use memex_obs::MetricsRegistry;
use memex_store::lsm::{LsmOptions, LsmStore};
use memex_store::vfs::{FaultConfig, FaultControl, FaultyDir, MemDir, Storage, StorageDir};
use memex_store::wal::{Wal, WalRecord};

// ---------------------------------------------------------------------------
// Operation model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Op {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    /// `Wal::sync` — establishes a durability watermark.
    Sync,
    /// Full checkpoint — seals the memtable and truncates the log.
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
        4 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..24))
            .prop_map(|(k, v)| Op::Put(k, v)),
        2 => key_strategy().prop_map(Op::Delete),
        1 => Just(Op::Sync),
        1 => Just(Op::Checkpoint),
    ]
}

/// Reference state after the first `p` operations.
fn model_at(ops: &[Op], p: usize) -> BTreeMap<Vec<u8>, Vec<u8>> {
    let mut m = BTreeMap::new();
    for op in &ops[..p] {
        match op {
            Op::Put(k, v) => {
                m.insert(k.clone(), v.clone());
            }
            Op::Delete(k) => {
                m.remove(k);
            }
            Op::Sync | Op::Checkpoint => {}
        }
    }
    m
}

fn small_lsm_opts() -> LsmOptions {
    LsmOptions {
        // Tiny budget so random schedules seal mid-stream (the
        // interesting case: crashes land between WAL and run state).
        memtable_bytes: 512,
        // Seals merge every third run, so deep stacks form as they go.
        compact_min_runs: 3,
    }
}

/// The stack's levels, newest run first.
fn levels(store: &LsmStore) -> Vec<u32> {
    store.run_levels().iter().map(|&(_, l)| l).collect()
}

/// Does some tier — a run of equal levels — hold `min_runs` runs, i.e.
/// would the next seal merge it?
fn tier_ready(store: &LsmStore, min_runs: usize) -> bool {
    levels(store)
        .chunk_by(|a, b| a == b)
        .any(|tier| tier.len() >= min_runs)
}

/// The store under test plus the raw in-memory directory under it, so the
/// harness can cut power (`crash`) and reopen over the surviving bytes.
struct Rig {
    store: LsmStore,
    dir: MemDir,
}

impl Rig {
    /// Power cut: drop the store, then each file keeps its durable bytes
    /// plus a seeded-random prefix of the unsynced writes (final write
    /// possibly torn). Returns the store reopened over what is left —
    /// always through the unfaulted directory.
    fn crash_and_reopen(self, seed: u64) -> LsmStore {
        let Rig { store, dir } = self;
        drop(store);
        dir.crash(seed);
        LsmStore::open_with_dir(Arc::new(dir), small_lsm_opts())
            .expect("reopen after crash must succeed")
    }
}

fn open_rig() -> Rig {
    let dir = MemDir::new();
    let store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
    Rig { store, dir }
}

/// Like [`open_rig`], but the whole directory — WAL, runs and manifest
/// alike — sits behind a [`FaultControl`] script.
fn open_faulty_rig(cfg: FaultConfig) -> (Rig, FaultControl) {
    let dir = MemDir::new();
    let faulty = FaultyDir::new(dir.clone(), cfg);
    let ctl = faulty.control();
    let store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();
    (Rig { store, dir }, ctl)
}

/// A file of a fresh [`MemDir`] holding `bytes`.
fn mem_file(bytes: &[u8]) -> Box<dyn Storage> {
    let mut f = MemDir::new().open("file").unwrap();
    f.write_all_at(0, bytes).unwrap();
    f
}

/// The bytes of a WAL holding `kvs` as puts.
fn wal_bytes(kvs: &[(Vec<u8>, Vec<u8>)]) -> Vec<u8> {
    let dir = MemDir::new();
    let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
    for (k, v) in kvs {
        wal.append(&WalRecord::Put {
            key: k.clone(),
            value: v.clone(),
        })
        .unwrap();
    }
    let mut f = dir.open("wal").unwrap();
    let mut bytes = vec![0u8; f.len().unwrap() as usize];
    f.read_exact_at(0, &mut bytes).unwrap();
    bytes
}

/// The seeded chaos schedules: four fixed seeds, plus `PROPTEST_SEED`
/// when it is set, so each CI fault-matrix job adds a schedule of its own.
fn chaos_seeds() -> Vec<u64> {
    let mut seeds = vec![1u64, 7, 42, 0x2000_0101];
    let env = std::env::var("PROPTEST_SEED").ok();
    if let Some(seed) = env.and_then(|s| s.parse::<u64>().ok()) {
        if !seeds.contains(&seed) {
            seeds.push(seed);
        }
    }
    seeds
}

/// Does `recovered` equal `model_at(ops, p)` for some `synced <= p <=
/// ops.len()`? Returns the matching prefix length.
fn matching_prefix(recovered: &[(Vec<u8>, Vec<u8>)], ops: &[Op], synced: usize) -> Option<usize> {
    (synced..=ops.len()).find(|&p| {
        let m = model_at(ops, p);
        recovered.len() == m.len()
            && recovered
                .iter()
                .all(|(k, v)| m.get(k).map(|mv| mv == v).unwrap_or(false))
    })
}

// ---------------------------------------------------------------------------
// Crash-recovery property
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Run a random op sequence, crash at an arbitrary (seeded) point in
    /// the unsynced write stream, reopen, and check prefix consistency:
    /// the recovered state is `model(p)` for some `synced <= p <= acked`.
    /// The tiny memtable budget forces mid-stream auto-seals, so crashes
    /// land between WAL, run files and manifest records, not just inside
    /// the log.
    #[test]
    fn crash_recovery_is_prefix_consistent(
        ops in proptest::collection::vec(op_strategy(), 1..80),
        crash_seed in any::<u64>(),
    ) {
        let mut rig = open_rig();

        let mut synced = 0usize;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Put(k, v) => {
                    rig.store.put(k, v).unwrap();
                }
                Op::Delete(k) => {
                    rig.store.delete(k).unwrap();
                }
                Op::Sync => {
                    rig.store.sync().unwrap();
                    synced = i + 1;
                }
                Op::Checkpoint => {
                    rig.store.seal().unwrap();
                    synced = i + 1;
                }
            }
        }
        let acked = ops.len();

        let mut store = rig.crash_and_reopen(crash_seed);
        store.check().unwrap();
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();

        prop_assert!(
            matching_prefix(&recovered, &ops, synced).is_some(),
            "recovered state is not a prefix of acked ops \
             (synced={synced}, acked={acked}, crash_seed={crash_seed}, \
              recovered {} entries)",
            recovered.len(),
        );

        // And the reopened store keeps working.
        store.put(b"post-crash", b"ok").unwrap();
        prop_assert_eq!(store.get(b"post-crash").unwrap().unwrap(), b"ok".to_vec());
    }

    /// Cut the WAL at *every* byte offset: replay must never fail, must
    /// yield a prefix of the appended records, and — after its torn-tail
    /// repair — must leave a log that appends and replays cleanly.
    #[test]
    fn wal_cut_at_every_byte_offset_recovers_record_prefix(
        kvs in proptest::collection::vec((key_strategy(), key_strategy()), 1..10),
    ) {
        let bytes = wal_bytes(&kvs);

        for cut in 0..=bytes.len() {
            let mut wal = Wal::with_storage(mem_file(&bytes[..cut])).unwrap();
            let replay = wal.replay().unwrap_or_else(|e| {
                panic!("replay failed at cut {cut}/{}: {e}", bytes.len())
            });
            prop_assert!(replay.records.len() <= kvs.len());
            for (i, (_, rec)) in replay.records.iter().enumerate() {
                let (k, v) = &kvs[i];
                prop_assert_eq!(
                    rec,
                    &WalRecord::Put { key: k.clone(), value: v.clone() },
                    "cut at {} replayed a record that was never appended", cut
                );
            }
            // The repaired log accepts and recovers a fresh append.
            wal.append(&WalRecord::Put { key: b"x".to_vec(), value: b"y".to_vec() })
                .unwrap();
            let again = wal.replay().unwrap();
            prop_assert!(!again.torn_tail, "repair at cut {} left garbage", cut);
            prop_assert_eq!(again.records.len(), replay.records.len() + 1);
        }
    }

    /// Flip a byte at *every* offset of an intact WAL: the CRC framing
    /// must confine the damage — replay never fails and yields a prefix
    /// of the appended records (everything before the corrupt frame).
    #[test]
    fn wal_byte_flip_at_every_offset_yields_record_prefix(
        kvs in proptest::collection::vec((key_strategy(), key_strategy()), 1..8),
        xor in 1u8..=255,
    ) {
        let bytes = wal_bytes(&kvs);

        for off in 0..bytes.len() {
            let mut mutated = bytes.clone();
            mutated[off] ^= xor;
            let mut wal = Wal::with_storage(mem_file(&mutated)).unwrap();
            let replay = wal.replay().unwrap_or_else(|e| {
                panic!("replay failed with flip at {off}: {e}")
            });
            prop_assert!(replay.torn_tail, "flip at {} went undetected", off);
            prop_assert!(replay.records.len() < kvs.len());
            for (i, (_, rec)) in replay.records.iter().enumerate() {
                let (k, v) = &kvs[i];
                prop_assert_eq!(
                    rec,
                    &WalRecord::Put { key: k.clone(), value: v.clone() },
                    "flip at {} corrupted an earlier record", off
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Scripted write-path and seal-window faults
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random ops with random sync points, then a seal that fails *after*
    /// its leading log sync (the run file's `set_len` is refused), then a
    /// crash. The log sync succeeded, so *every* acked op must survive —
    /// recovery lands on exactly the acked state, regardless of which
    /// unsynced writes the crash kept.
    #[test]
    fn failed_seal_after_its_log_sync_recovers_every_acked_op(
        ops in proptest::collection::vec(op_strategy(), 1..40),
        crash_seed in any::<u64>(),
    ) {
        let (mut rig, ctl) = open_faulty_rig(FaultConfig::default());
        for op in &ops {
            match op {
                Op::Put(k, v) => {
                    rig.store.put(k, v).unwrap();
                }
                Op::Delete(k) => {
                    rig.store.delete(k).unwrap();
                }
                // Only a *durability* op here — the harness drives the one
                // interesting seal itself, below.
                Op::Sync | Op::Checkpoint => {
                    rig.store.sync().unwrap();
                }
            }
        }
        // An explicit seal of an empty memtable writes no run (nothing to
        // refuse); one more put guarantees there is something to seal.
        rig.store.put(b"last", b"op").unwrap();
        let mut m = model_at(&ops, ops.len());
        m.insert(b"last".to_vec(), b"op".to_vec());

        ctl.fail_next_set_lens(1);
        prop_assert!(rig.store.seal().is_err(), "set_len failure must surface");

        let store = rig.crash_and_reopen(crash_seed);
        store.check().unwrap();
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        prop_assert_eq!(
            recovered.len(),
            m.len(),
            "the seal's log sync made every acked op durable; none may vanish"
        );
        for (k, v) in &recovered {
            prop_assert_eq!(m.get(k), Some(v));
        }
    }
}

/// A scripted write failure during an append must not acknowledge the
/// operation, corrupt the store, or poison later operations.
#[test]
fn failed_append_is_not_acked_and_store_survives() {
    let (Rig { mut store, .. }, ctl) = open_faulty_rig(FaultConfig::default());

    store.put(b"ok1", b"1").unwrap();
    ctl.fail_next_writes(1);
    assert!(store.put(b"denied", b"x").is_err());
    assert!(
        store.get(b"denied").unwrap().is_none(),
        "failed put must not be visible"
    );
    ctl.tear_next_write(3);
    assert!(store.put(b"torn", b"x").is_err());
    assert!(store.get(b"torn").unwrap().is_none());
    store.put(b"ok2", b"2").unwrap();
    store.check().unwrap();
    let all = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
    assert_eq!(all.len(), 2);
    assert!(ctl.injected_total() >= 2);
}

// ---------------------------------------------------------------------------
// Scripted store-internal barriers (seal, compaction)
// ---------------------------------------------------------------------------

/// March a single injected sync failure across every durability barrier
/// of a seal (leading WAL sync, run-file sync, manifest sync, WAL
/// truncation sync — i.e. a crash mid-seal at each step), then cut power
/// and reopen. Whichever barrier failed, the recovered state must be a
/// model prefix no older than the last explicit sync.
#[test]
fn scripted_sync_barrier_faults_stay_prefix_consistent() {
    let mut seal_errors = 0u32;
    for barrier in 0..5u32 {
        for crash_seed in [3u64, 0xB44D_F00D] {
            let (mut rig, ctl) = open_faulty_rig(FaultConfig::default());

            let mut acked: Vec<Op> = Vec::new();
            for i in 0..30u32 {
                let k = format!("k{:02}", i % 6).into_bytes();
                let v = format!("v{i}").into_bytes();
                rig.store.put(&k, &v).unwrap();
                acked.push(Op::Put(k, v));
            }
            rig.store.sync().unwrap();
            let mut synced = acked.len();
            for i in 0..4u32 {
                let k = format!("x{i}").into_bytes();
                rig.store.put(&k, b"u").unwrap();
                acked.push(Op::Put(k, b"u".to_vec()));
            }

            // Fail the (barrier+1)-th sync the seal issues; barriers past
            // the seal's sync count simply pass.
            ctl.fail_syncs_after(barrier, 1);
            if rig.store.seal().is_ok() {
                synced = acked.len();
            } else {
                seal_errors += 1;
            }

            let mut store = rig.crash_and_reopen(crash_seed);
            store.check().unwrap();
            let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
            assert!(
                matching_prefix(&recovered, &acked, synced).is_some(),
                "barrier {barrier} seed {crash_seed}: \
                 recovery lost acked state (synced={synced})",
            );
            store.put(b"post-crash", b"ok").unwrap();
        }
    }
    assert!(
        seal_errors > 0,
        "no barrier ever failed — the sweep is vacuous"
    );
}

/// Crash mid-seal between the (fully synced) run file and the manifest
/// record that would commit it. The staged manifest record may or may
/// not land at the crash, so recovery must *reconcile*: adopt the run if
/// its record became durable, delete it as an orphan otherwise — counted
/// in `store.recovery.orphan_runs` and never resurrected, its id never
/// re-allocated.
#[test]
fn crash_mid_seal_reconciles_manifest_against_partial_runs() {
    let mut saw_orphan = false;
    let mut saw_adopted = false;
    for crash_seed in [0u64, 1, 7, 42, 0x2000_0101] {
        let dir = MemDir::new();
        let faulty = FaultyDir::new(dir.clone(), FaultConfig::default());
        let ctl = faulty.control();
        let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

        for i in 0..4u8 {
            store.put(&[b'k', i], &[i]).unwrap();
        }
        // Seal syncs: #1 leading WAL, #2 run file, #3 manifest. Fail #3:
        // the run file is durable, its manifest record staged but not.
        ctl.fail_syncs_after(2, 1);
        assert!(store.seal().is_err(), "manifest sync failure must surface");
        let orphan_name = dir
            .list()
            .unwrap()
            .into_iter()
            .find(|n| n.starts_with("run-"))
            .expect("the synced run file must remain for recovery to reconcile");
        drop(store);

        dir.crash(crash_seed);

        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery must reconcile the manifest against partial runs");
        let registry = MetricsRegistry::new();
        store.attach_registry(&registry);
        let orphans = registry.snapshot().counter("store.recovery.orphan_runs");
        assert_eq!(orphans, store.stats().recovered_orphan_runs);
        // Every acked op was WAL-durable (the seal's leading log sync),
        // so the full state survives whether or not the record landed.
        for i in 0..4u8 {
            assert_eq!(
                store.get(&[b'k', i]).unwrap().unwrap(),
                vec![i],
                "seed {crash_seed}: acked op lost in the seal window"
            );
        }
        if orphans > 0 {
            saw_orphan = true;
            assert!(
                !dir.list().unwrap().contains(&orphan_name),
                "seed {crash_seed}: orphan run deleted but still listed"
            );
        } else {
            saw_adopted = true;
        }

        // The orphan's id is burned: the recovered store allocates past
        // it, so the deleted file's name is never rewritten while a copy
        // of its manifest record could still be in flight.
        store.put(b"fresh", b"1").unwrap();
        store.seal().unwrap();
        if orphans > 0 {
            assert!(
                dir.list().unwrap().iter().all(|n| n != &orphan_name),
                "seed {crash_seed}: orphan run id was re-allocated"
            );
        }
        drop(store);

        // Reopen again without a crash: the orphan must not come back,
        // and the sealed state reads back whole.
        let store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
        assert_eq!(
            store.stats().recovered_orphan_runs,
            0,
            "seed {crash_seed}: orphan resurrected on the second open"
        );
        for i in 0..4u8 {
            assert_eq!(store.get(&[b'k', i]).unwrap().unwrap(), vec![i]);
        }
        assert_eq!(store.get(b"fresh").unwrap().unwrap(), b"1");
    }
    // The seed set must exercise both reconciliation outcomes, or the
    // test silently stops covering one of them.
    assert!(
        saw_orphan,
        "no seed left the staged manifest record undurable"
    );
    assert!(saw_adopted, "no seed landed the staged manifest record");
}

/// The seal that readies a tier, with that tier's merge failing at each
/// of its durability barriers (merged-run sync, manifest sync). The young
/// tier carries a tombstone whose live value sits in a deeper run, so the
/// merge is not a bottom merge and must keep it. The run the seal wrote is
/// already durable, so the seal still returns `Ok`: the failure is counted
/// in `store.lsm.compact.errors` and the tier waits for the next seal.
/// Reads equal the model throughout; a crash recovers exactly the
/// pre-crash state with the stack's invariants intact and the deleted key
/// still deleted; and the next seal — on the live store or the recovered
/// one — completes the merge.
#[test]
fn a_merge_that_fails_during_a_seal_is_counted_and_retried_by_the_next() {
    for barrier in 0..2u32 {
        for crash_seed in [
            None,
            Some(5u64),
            Some(0xFACE_F00D),
            Some(9),
            Some(0xC0FF_EE42),
        ] {
            let case = format!("barrier {barrier} crash {crash_seed:?}");
            let (Rig { mut store, dir }, ctl) = open_faulty_rig(FaultConfig::default());
            let registry = MetricsRegistry::new();
            store.attach_registry(&registry);

            // A deep (level-1) run holding a key the young tier deletes.
            store.put(b"old", b"live").unwrap();
            for k in [b"base1", b"base2", b"base3"] {
                store.put(k, b"1").unwrap();
                store.seal().unwrap();
            }
            assert_eq!(levels(&store), vec![1], "{case}");
            store.delete(b"old").unwrap();
            for k in [b"y1", b"y2", b"y3"] {
                store.put(k, b"2").unwrap();
                if k != b"y3" {
                    store.seal().unwrap();
                }
            }
            assert_eq!(levels(&store), vec![0, 0, 1], "{case}");
            let expected = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
            assert!(expected.iter().all(|(k, _)| k != b"old"));
            let snap = registry.snapshot();
            assert_eq!(snap.counter("store.lsm.compactions"), 1, "{case}");

            // The seal's syncs: #1 leading WAL, #2 run file, #3 manifest,
            // #4 WAL truncation, #5 checkpoint record; then the merge's
            // #6 merged-run file and #7 manifest record.
            ctl.fail_syncs_after(5 + barrier, 1);
            store
                .seal()
                .unwrap_or_else(|e| panic!("{case}: a failed merge failed the seal: {e}"));
            let snap = registry.snapshot();
            assert_eq!(snap.counter("store.lsm.compact.errors"), 1, "{case}");
            assert_eq!(snap.counter("store.lsm.compactions"), 1, "{case}");
            assert_eq!(levels(&store), vec![0, 0, 0, 1], "{case}: tier still ready");
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected,
                "{case}: reads changed"
            );
            assert_eq!(store.get(b"old").unwrap(), None, "{case}");
            assert_eq!(store.get(b"y3").unwrap().unwrap(), b"2", "{case}");

            if let Some(seed) = crash_seed {
                drop(store);
                dir.crash(seed);
                store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
                    .expect("recovery after a failed merge");
                store.check().unwrap();
                assert_eq!(
                    store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                    expected,
                    "{case}: sealed state changed"
                );
                assert_eq!(
                    store.get(b"old").unwrap(),
                    None,
                    "{case}: the crash resurrected a deleted key"
                );
            }

            // The next seal completes the merge. (If the failed manifest
            // record landed at the crash, it already did, and the seal
            // finds nothing to merge.)
            store.seal().unwrap();
            assert_eq!(levels(&store), vec![1, 1], "{case}");
            store.check().unwrap();
            assert_eq!(
                store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
                expected,
                "{case}: the retried merge changed the state"
            );
            assert_eq!(store.get(b"old").unwrap(), None, "{case}");
        }
    }
}

/// A merge whose manifest sync fails leaves a staged record naming its
/// run, and a crash can still land it. The next seal must therefore not
/// write its own run under that name: if it did and its commit failed
/// too, a crash landing the merge's record would adopt the seal's data as
/// the merged run and reap the merge's inputs as orphans.
#[test]
fn a_failed_merge_never_lends_its_run_id_to_the_next_seal() {
    // Seed 12 is one that lands the merge's record alone.
    for crash_seed in 0u64..32 {
        let (Rig { mut store, dir }, ctl) = open_faulty_rig(FaultConfig::default());
        let mut acked: Vec<Op> = Vec::new();
        let mut put = |store: &mut LsmStore, k: &[u8]| {
            store.put(k, b"v").unwrap();
            acked.push(Op::Put(k.to_vec(), b"v".to_vec()));
        };
        for k in [b"a1", b"a2"] {
            put(&mut store, k);
            store.seal().unwrap();
        }
        put(&mut store, b"a3");
        // This seal readies the level-0 tier; fail the merge's manifest
        // sync (#7, as counted above).
        ctl.fail_syncs_after(6, 1);
        store.seal().unwrap();
        assert_eq!(levels(&store), vec![0, 0, 0]);
        // The next seal's own commit fails too (#3: its manifest sync).
        put(&mut store, b"b1");
        ctl.fail_syncs_after(2, 1);
        assert!(store.seal().is_err(), "manifest sync failure must surface");
        drop(store);

        dir.crash(crash_seed);
        let store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery after two failed commits");
        store.check().unwrap();
        // The failed seal's leading WAL sync made every acked op durable.
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&recovered, &acked, acked.len()).is_some(),
            "seed {crash_seed}: recovered {recovered:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Tiered compaction vs. flat model
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum TierOp {
    Put(Vec<u8>, Vec<u8>),
    Delete(Vec<u8>),
    /// Seal, merging every tier it readies.
    Seal,
    /// Sync, power-cut with this seed, reopen.
    Crash(u64),
}

fn tier_op_strategy() -> impl Strategy<Value = TierOp> {
    prop_oneof![
        5 => (key_strategy(), proptest::collection::vec(any::<u8>(), 0..16))
            .prop_map(|(k, v)| TierOp::Put(k, v)),
        2 => key_strategy().prop_map(TierOp::Delete),
        3 => Just(TierOp::Seal),
        1 => any::<u64>().prop_map(TierOp::Crash),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of writes, seals (and the merges they run) and
    /// (synced) crashes leaves the tiered store read-equivalent to the
    /// flat `BTreeMap` model — point reads, bloom filters and sparse
    /// indexes included. Seals merge every second run, so a stack counts
    /// its seals in binary and several levels form within one case.
    #[test]
    fn tiered_compaction_is_read_equivalent_to_flat_model(
        ops in proptest::collection::vec(tier_op_strategy(), 1..48),
    ) {
        let opts = LsmOptions { compact_min_runs: 2, ..small_lsm_opts() };
        let dir = MemDir::new();
        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), opts).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for op in &ops {
            match op {
                TierOp::Put(k, v) => {
                    store.put(k, v).unwrap();
                    model.insert(k.clone(), v.clone());
                }
                TierOp::Delete(k) => {
                    store.delete(k).unwrap();
                    model.remove(k);
                }
                TierOp::Seal => {
                    store.seal().unwrap();
                    prop_assert!(!tier_ready(&store, 2), "a seal left a tier ready");
                }
                TierOp::Crash(seed) => {
                    store.sync().unwrap();
                    drop(store);
                    dir.crash(*seed);
                    store = LsmStore::open_with_dir(Arc::new(dir.clone()), opts)
                        .expect("reopen after synced crash");
                }
            }
            let live = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
            let want: Vec<(Vec<u8>, Vec<u8>)> =
                model.iter().map(|(k, v)| (k.clone(), v.clone())).collect();
            prop_assert_eq!(&live, &want, "scan diverged after {:?}", op);
            for (k, v) in &want {
                prop_assert_eq!(
                    store.get(k).unwrap().as_ref(),
                    Some(v),
                    "point read diverged after {:?}",
                    op
                );
            }
        }
        store.check().unwrap();
    }
}

// ---------------------------------------------------------------------------
// Seeded chaos schedule
// ---------------------------------------------------------------------------

/// Run a fixed op stream against storage behind a seeded fault schedule
/// (write errors, torn writes, sync failures), then crash and reopen.
/// Failed operations are simply not acked; the recovered state must be a
/// model prefix of the *acked* sequence — injected faults never corrupt,
/// they only shorten. The whole directory is faulted, so the schedule
/// also lands inside budget-triggered auto-seals (whose failures are
/// deferred, never retracting an acked op).
#[test]
fn seeded_fault_schedule_preserves_prefix_consistency() {
    for seed in chaos_seeds() {
        let cfg = FaultConfig {
            seed,
            write_err_per_10k: 800,
            short_write_per_10k: 600,
            sync_err_per_10k: 500,
        };
        let (mut rig, ctl) = open_faulty_rig(cfg);
        let registry = MetricsRegistry::new();
        ctl.attach_registry(&registry);

        // Acked operations in order; failures are dropped (not acked).
        let mut acked: Vec<Op> = Vec::new();
        for i in 0..240u32 {
            let k = format!("k{:02}", i % 24).into_bytes();
            if i % 5 == 4 {
                let _ = rig.store.sync(); // may fail: no watermark credit
            } else if i % 7 == 6 {
                if rig.store.delete(&k).is_ok() {
                    acked.push(Op::Delete(k));
                }
            } else {
                let v = format!("v{i}").into_bytes();
                if rig.store.put(&k, &v).is_ok() {
                    acked.push(Op::Put(k, v));
                }
            }
        }
        assert!(
            ctl.injected_total() > 0,
            "seed {seed}: schedule never fired — test is vacuous",
        );
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("fault.injected.write_errors")
                + snap.counter("fault.injected.short_writes")
                + snap.counter("fault.injected.sync_errors"),
            ctl.injected_total(),
            "obs mirror must agree with the control handle"
        );

        let store = rig.crash_and_reopen(seed.wrapping_mul(0x5851_F42D_4C95_7F2D));
        store.check().unwrap();
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&recovered, &acked, 0).is_some(),
            "seed {seed}: recovered state is not a prefix of the acked ops",
        );
    }
}

/// Compaction chaos: seal cycles, and the merges they run, under a seeded
/// fault schedule. Reorganization failures only defer the merge — the
/// live view always equals the acked model, a crash recovers a prefix,
/// and a clean seal merges every tier left ready with nothing lost.
#[test]
fn seeded_compaction_chaos_never_corrupts() {
    for seed in chaos_seeds() {
        let cfg = FaultConfig {
            seed,
            write_err_per_10k: 400,
            short_write_per_10k: 300,
            sync_err_per_10k: 400,
        };
        let dir = MemDir::new();
        let faulty = FaultyDir::new(dir.clone(), cfg);
        let ctl = faulty.control();
        let mut store = LsmStore::open_with_dir(Arc::new(faulty), small_lsm_opts()).unwrap();

        let mut acked: Vec<Op> = Vec::new();
        for round in 0..8u32 {
            for i in 0..12u32 {
                let k = format!("k{:02}", (round * 5 + i) % 16).into_bytes();
                let v = format!("v{round}.{i}").into_bytes();
                if store.put(&k, &v).is_ok() {
                    acked.push(Op::Put(k, v));
                }
            }
            // Reorganization under chaos: the seal or its merges may
            // fail, neither may lose or invent data.
            let _ = store.seal();
        }
        assert!(
            ctl.injected_total() > 0,
            "seed {seed}: schedule never fired — test is vacuous"
        );
        // The live view equals the acked model exactly.
        let live = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&live, &acked, acked.len()).is_some(),
            "seed {seed}: live view diverged from the acked model"
        );
        drop(store);

        dir.crash(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15));

        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts())
            .expect("recovery after compaction chaos");
        store.check().unwrap();
        let recovered = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(
            matching_prefix(&recovered, &acked, 0).is_some(),
            "seed {seed}: recovered state is not a prefix of the acked ops"
        );
        // A clean seal converges without changing the logical state.
        store.seal().unwrap();
        assert!(!tier_ready(&store, small_lsm_opts().compact_min_runs));
        assert_eq!(
            store.scan(Bound::Unbounded, Bound::Unbounded).unwrap(),
            recovered,
            "seed {seed}: retried compaction changed the logical state"
        );
    }
}

/// Recovery outcomes surface in `store.recovery.*` once a registry is
/// attached.
#[test]
fn recovery_metrics_report_replay_and_repair() {
    let dir = MemDir::new();
    {
        let mut store = LsmStore::open_with_dir(Arc::new(dir.clone()), small_lsm_opts()).unwrap();
        store.put(b"a", b"1").unwrap();
        store.put(b"b", b"2").unwrap();
        store.sync().unwrap();
    }

    // Tear mid-frame: strip the last 3 bytes of the log.
    {
        let mut wal = dir.open("wal").unwrap();
        let len = wal.len().unwrap();
        wal.set_len(len - 3).unwrap();
    }
    let mut store = LsmStore::open_with_dir(Arc::new(dir), small_lsm_opts()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_registry(&registry);
    let snap = registry.snapshot();
    assert_eq!(snap.counter("store.recovery.replayed_records"), 1);
    assert_eq!(snap.counter("store.recovery.torn_tails"), 1);
    assert!(snap.counter("store.recovery.repaired_bytes") > 0);
    assert_eq!(store.stats().recovered_records, 1);
    assert!(store.stats().recovered_torn_tail);
    assert_eq!(store.get(b"a").unwrap().unwrap(), b"1");
    assert!(store.get(b"b").unwrap().is_none(), "torn record dropped");
}
