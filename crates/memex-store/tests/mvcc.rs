//! MVCC acceptance for the keyed store: a snapshot opened before an
//! ingest burst reads the *exact* pre-burst state with zero blocking —
//! its reads take no lock — while the writer ingests, the tiny memtable
//! budget forces seals, and the background compaction demon merges runs
//! underneath it.
//!
//! This is also the concurrency schedule the sanitizer matrix runs under
//! ThreadSanitizer: writer thread + snapshot reader + compactor demon all
//! touching the shared LSM state at once.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::thread;
use std::time::{Duration, Instant};

use memex_obs::MetricsRegistry;
use memex_store::lsm::{LsmOptions, LsmStore};

fn burst_opts() -> LsmOptions {
    LsmOptions {
        // Tiny budget: the burst seals every few writes.
        memtable_bytes: 256,
        compact_min_runs: 2,
        background_compaction: true,
        sync_every_append: false,
    }
}

#[test]
fn snapshot_scans_pre_burst_state_while_ingest_and_compaction_run() {
    let mut store = LsmStore::open_memory_opts(burst_opts()).unwrap();
    let registry = MetricsRegistry::new();
    store.attach_registry(&registry);

    // Pre-burst state, spread over sealed runs and the memtable.
    let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
    for i in 0..40u32 {
        let (k, v) = (
            format!("k{i:03}").into_bytes(),
            format!("v{i}").into_bytes(),
        );
        store.put(&k, &v).unwrap();
        model.insert(k, v);
    }
    let expected = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
    let snap = store.snapshot();
    let pinned_epoch = snap.epoch();

    // Reader thread: scans the pinned view over and over while the burst
    // runs. Every scan must return the identical pre-burst state.
    let reader_expected = expected.clone();
    let reader = thread::spawn(move || {
        for round in 0..200u32 {
            let mut got = Vec::new();
            snap.for_each_range(Bound::Unbounded, Bound::Unbounded, &mut |k, v| {
                got.push((k.to_vec(), v.to_vec()));
                true
            });
            assert_eq!(got, reader_expected, "round {round}: snapshot view drifted");
            assert_eq!(snap.epoch(), pinned_epoch, "round {round}: epoch moved");
        }
        snap
    });

    // Writer: ingest burst with updates and deletes — seals fire from the
    // memtable budget, and each seal past `compact_min_runs` wakes the
    // background compactor.
    for i in 0..400u32 {
        let k = format!("k{:03}", i % 80).into_bytes();
        let v = format!("w{i}").into_bytes();
        store.put(&k, &v).unwrap();
        model.insert(k, v);
        if i % 16 == 15 {
            let k = format!("k{:03}", (i / 16) % 40).into_bytes();
            store.delete(&k).unwrap();
            model.remove(&k);
        }
    }

    let snap = reader.join().unwrap();

    // The snapshot still reads the pre-burst state after the burst...
    let mut got = Vec::new();
    snap.for_each_range(Bound::Unbounded, Bound::Unbounded, &mut |k, v| {
        got.push((k.to_vec(), v.to_vec()));
        true
    });
    assert_eq!(got, expected);
    // ...while the live store has moved on to the post-burst state.
    assert!(
        store.epoch() > pinned_epoch,
        "burst never advanced the epoch"
    );
    let live = store.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
    let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
    assert_eq!(live, want, "live view diverged from the model");

    // The burst really did seal and compact underneath the reader: seals
    // are synchronous, compactions happen on the demon — give it a
    // bounded moment to drain.
    let snap_metrics = registry.snapshot();
    assert!(
        snap_metrics.counter("store.lsm.seals") > 0,
        "burst never sealed"
    );
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        if registry.snapshot().counter("store.lsm.compactions") > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background compactor never merged the burst's runs"
        );
        thread::sleep(Duration::from_millis(5));
    }
}

/// The same pinning contract with nothing running underneath: a snapshot
/// ignores later overwrites and the seal that moves them into a run.
#[test]
fn snapshots_pin_their_view_across_overwrites_and_a_seal() {
    let mut store = LsmStore::open_memory().unwrap();
    for i in 0..10u8 {
        store.put(&[b'k', i], &[i]).unwrap();
    }
    let view = store.snapshot();
    for i in 0..10u8 {
        store.put(&[b'k', i], &[i + 100]).unwrap();
    }
    store.seal().unwrap();
    for i in 0..10u8 {
        assert_eq!(
            view.get(&[b'k', i]),
            Some(vec![i]),
            "snapshot leaked a later write"
        );
        assert_eq!(store.get(&[b'k', i]).unwrap(), Some(vec![i + 100]));
    }
    assert!(
        store.epoch() > view.epoch(),
        "the seal moved the live epoch on"
    );
}
