//! # memex-store::lsm — the keyed store: log-structured, MVCC
//!
//! The archive workload the paper describes has one shape: browsers
//! stream events in *continuously* while mining demons read long-lived
//! views. A store that mutates pages in place makes every reader share a
//! lock with the writer; this one never modifies anything it has written:
//!
//! * **Writes** land in a sorted in-memory memtable, logged through the
//!   [`Wal`] (crash recovery replays it back).
//! * **Seal**: when the memtable outgrows its budget (or on an explicit
//!   checkpoint) it is written as one immutable sorted [`Run`] file on a
//!   [`StorageDir`], the `Manifest` records the new run set, and the
//!   WAL is truncated.
//! * **Tiered compaction**: runs carry a **level** (0 = freshly sealed).
//!   The background demon merges one tier — a maximal contiguous span of
//!   same-level runs — when it reaches `compact_min_runs`, producing one
//!   run a level deeper. Each record is therefore rewritten O(levels)
//!   times instead of O(total-data/seal) times, which is the whole point:
//!   the archive only grows, and full merges grow with it. Tombstones are
//!   dropped only when the merge reaches the **bottom** of the stack —
//!   anywhere else a dropped tombstone would resurrect a deleted key
//!   still shadowed in an older run.
//! * **Bloom + sparse index**: every run carries a bloom filter and a
//!   sparse block index, so a point lookup consults only runs whose bloom
//!   admits the key and decodes one small block there — `get()` stays
//!   flat as runs accumulate. `store.lsm.bloom.{hit,skip,fp}` classify
//!   every probe.
//! * **MVCC snapshots**: [`LsmSnapshot`] clones the (bounded) memtable
//!   and grabs `Arc`s on the immutable runs under one brief read lock;
//!   every read after that touches no lock at all, so a mining demon can
//!   scan a pinned epoch while ingest and compaction continue.
//!
//! ## Durability protocol (the order is the contract)
//!
//! Seal: `wal.sync` → write+sync run file → manifest append+sync →
//! install in memory → WAL truncate+checkpoint. A crash between any two
//! steps recovers to a state in the `[synced, acked]` prefix window:
//! before the manifest append the full WAL replays; after it the run
//! holds the same data and WAL replay over it is idempotent (the leading
//! `wal.sync` is what makes it idempotent — without it a durable *prefix*
//! of the WAL could replay stale values over a newer run). Run files a
//! crash leaves un-referenced are deleted by the orphan scan at open and
//! counted in `store.recovery.orphan_runs`. Tier compaction follows the
//! same shape: write+sync merged run → manifest append+sync → swap; a
//! crash between the two leaves either the old state (new file is an
//! orphan) or the new one (victims are orphans).
//!
//! Lock order (the `LOCKS` table in `tests/lock_order`): `store.lsm.wake` →
//! `store.lsm.manifest` → `store.lsm.state` → `store.lsm.metrics`. The
//! manifest mutex also serializes run-set transitions (seal vs. compact),
//! so the run list read under it cannot change until it is released.
//! Reads (`get`/scans/`snapshot`) take `&self`: their shared counters are
//! atomics and the metrics handles sit behind an `RwLock` only so
//! `attach_registry` can swap them.

mod manifest;
mod run;

pub use run::{Probe, Run};

use std::collections::{BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::ops::Bound;
use std::path::Path;
use std::sync::{Arc, Condvar, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

use memex_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::error::{StoreError, StoreResult};
use crate::vfs::{FileDir, MemDir, StorageDir};
use crate::wal::{Wal, WalRecord};

use manifest::Manifest;

const MANIFEST_FILE: &str = "manifest";
const WAL_FILE: &str = "wal";

/// Tuning knobs for an [`LsmStore`].
#[derive(Debug, Clone, Copy)]
pub struct LsmOptions {
    /// Seal the memtable into a run once its tracked bytes exceed this.
    pub memtable_bytes: u64,
    /// Compact a tier once its run count reaches this.
    pub compact_min_runs: usize,
    /// Run the compaction demon on a background thread. Tests that need
    /// deterministic schedules turn this off and call
    /// [`LsmStore::compact_now`].
    pub background_compaction: bool,
}

/// The seal budget, measured rather than guessed: unsealed data lives
/// twice (memtable + WAL), so the budget is resident memory per store. On
/// the serving benchmark 1 MiB cost 6 % peak RSS on `ingest` (over the
/// 5 % bound) for no throughput or latency over 256 KiB, which matched or
/// beat the deleted B+Tree on every metric (DESIGN.md §14 has the table).
const MEMTABLE_BYTES: u64 = 256 << 10;

impl Default for LsmOptions {
    fn default() -> Self {
        LsmOptions {
            memtable_bytes: MEMTABLE_BYTES,
            compact_min_runs: 4,
            background_compaction: true,
        }
    }
}

/// What recovery found at open time. Operation counts live in the registry
/// only (`store.kv.*`, `store.lsm.*`; see [`LsmStore::attach_registry`]).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LsmStats {
    /// Records recovered from the WAL at open time.
    pub recovered_records: u64,
    /// True if recovery found (and dropped) a torn WAL or manifest tail.
    pub recovered_torn_tail: bool,
    /// Bytes trimmed repairing torn tails at open time.
    pub recovered_repaired_bytes: u64,
    /// Partially-written run files deleted by the orphan scan at open.
    pub recovered_orphan_runs: u64,
}

/// Obs handles (inert until [`LsmStore::attach_registry`]).
struct LsmMetrics {
    puts: Counter,
    gets: Counter,
    deletes: Counter,
    memtable_bytes: Gauge,
    seals: Counter,
    seal_errors: Counter,
    seal_latency: Histogram,
    runs: Gauge,
    levels: Gauge,
    compactions: Counter,
    compact_bytes: Counter,
    compact_latency: Histogram,
    compact_errors: Counter,
    read_amp: Histogram,
    bloom_hit: Counter,
    bloom_skip: Counter,
    bloom_fp: Counter,
    snapshots: Counter,
}

impl LsmMetrics {
    fn new(registry: &MetricsRegistry) -> LsmMetrics {
        LsmMetrics {
            puts: registry.counter("store.kv.puts"),
            gets: registry.counter("store.kv.gets"),
            deletes: registry.counter("store.kv.deletes"),
            memtable_bytes: registry.gauge("store.lsm.memtable.bytes"),
            seals: registry.counter("store.lsm.seals"),
            seal_errors: registry.counter("store.lsm.seal.errors"),
            seal_latency: registry.histogram("store.lsm.seal.latency"),
            runs: registry.gauge("store.lsm.runs"),
            levels: registry.gauge("store.lsm.levels"),
            compactions: registry.counter("store.lsm.compactions"),
            compact_bytes: registry.counter("store.lsm.compact.bytes"),
            compact_latency: registry.histogram("store.lsm.compact.latency"),
            compact_errors: registry.counter("store.lsm.compact.errors"),
            read_amp: registry.histogram("store.lsm.read.amplification"),
            bloom_hit: registry.counter("store.lsm.bloom.hit"),
            bloom_skip: registry.counter("store.lsm.bloom.skip"),
            bloom_fp: registry.counter("store.lsm.bloom.fp"),
            snapshots: registry.counter("store.lsm.snapshots"),
        }
    }
}

impl Default for LsmMetrics {
    fn default() -> Self {
        LsmMetrics::new(&MetricsRegistry::disabled())
    }
}

/// One live run plus its tier level. Level 0 is freshly sealed; a tier
/// merge outputs one level deeper than its inputs.
#[derive(Clone)]
struct LeveledRun {
    run: Arc<Run>,
    level: u32,
}

/// Mutable engine state behind the RwLock: what a point-in-time view is
/// made of.
struct LsmState {
    /// Sorted write buffer; `None` = tombstone.
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Tracked memtable footprint in bytes (keys + values + overhead).
    memtable_bytes: u64,
    /// Immutable runs, newest first; levels are non-decreasing front to
    /// back (level 0 youngest, deepest tier oldest).
    runs: Vec<LeveledRun>,
    /// Bumped on every run-set transition (seal or compaction).
    epoch: u64,
}

/// Per-entry bookkeeping cost used for the memtable budget.
fn entry_cost(key_len: usize, value_len: usize) -> u64 {
    (key_len + value_len + 32) as u64
}

impl LsmState {
    /// Insert and return the change in tracked bytes (negative when a
    /// larger value was overwritten) — what the shared
    /// `store.lsm.memtable.bytes` gauge moves by.
    fn memtable_insert(&mut self, key: &[u8], value: Option<Vec<u8>>) -> i64 {
        let before = self.memtable_bytes;
        let add = entry_cost(key.len(), value.as_ref().map_or(0, |v| v.len()));
        if let Some(old) = self.memtable.insert(key.to_vec(), value) {
            let sub = entry_cost(key.len(), old.as_ref().map_or(0, |v| v.len()));
            self.memtable_bytes = self.memtable_bytes.saturating_sub(sub);
        }
        self.memtable_bytes += add;
        self.memtable_bytes as i64 - before as i64
    }
}

/// Number of distinct levels in a run list.
fn level_count(runs: &[LeveledRun]) -> usize {
    runs.iter()
        .map(|r| r.level)
        .collect::<BTreeSet<u32>>()
        .len()
}

/// Add (`sign = 1`) or retract (`sign = -1`) one store's whole contribution
/// to the gauges several stores share on one registry: `runs` and
/// `memtable.bytes` are sums, so every later change moves them by its
/// delta; `levels` is the deepest stack any store has reached, a
/// high-water mark that is never retracted.
fn publish_gauges(m: &LsmMetrics, state: &LsmState, sign: i64) {
    m.runs.add(sign * state.runs.len() as i64);
    m.memtable_bytes.add(sign * state.memtable_bytes as i64);
    if sign > 0 {
        m.levels.set_max(level_count(&state.runs) as i64);
    }
}

/// True when some tier (contiguous same-level span) holds at least
/// `min_runs` runs — i.e. a compaction pass would find work.
fn tier_ready(runs: &[LeveledRun], min_runs: usize) -> bool {
    select_tier(runs, min_runs).is_some()
}

/// Compactor wake-up channel.
#[derive(Default)]
struct WakeFlag {
    work: bool,
    shutdown: bool,
}

struct Wake {
    flag: Mutex<WakeFlag>,
    cond: Condvar,
}

/// State shared between the writer, readers (snapshots) and the
/// compaction demon.
struct LsmShared {
    state: RwLock<LsmState>,
    manifest: Mutex<Manifest>,
    metrics: RwLock<LsmMetrics>,
    wake: Wake,
    dir: Arc<dyn StorageDir>,
}

/// The keyed store. Writes are writer-owned (`&mut`); reads take `&self`
/// and concurrency happens through [`LsmStore::snapshot`] handles and the
/// background compactor.
pub struct LsmStore {
    shared: Arc<LsmShared>,
    wal: Wal,
    opts: LsmOptions,
    /// What recovery found at open time.
    recovered: LsmStats,
    compactor: Option<JoinHandle<()>>,
}

impl LsmStore {
    /// Fully in-memory store (still exercises WAL + run + manifest code).
    pub fn open_memory() -> StoreResult<LsmStore> {
        LsmStore::open_memory_opts(LsmOptions::default())
    }

    pub fn open_memory_opts(opts: LsmOptions) -> StoreResult<LsmStore> {
        LsmStore::open_with_dir(Arc::new(MemDir::new()), opts)
    }

    /// Open (or create) a store under `dir` on the real filesystem.
    pub fn open_dir<P: AsRef<Path>>(dir: P, opts: LsmOptions) -> StoreResult<LsmStore> {
        LsmStore::open_with_dir(Arc::new(FileDir::open(dir)?), opts)
    }

    /// Open over an arbitrary [`StorageDir`] — the fault-injection entry
    /// point: wrap a [`MemDir`] in a
    /// [`FaultyDir`](crate::vfs::FaultyDir) to script I/O failures and
    /// crashes against every file the engine touches.
    pub fn open_with_dir(dir: Arc<dyn StorageDir>, opts: LsmOptions) -> StoreResult<LsmStore> {
        // 1. Manifest: adopt the last intact run-set record.
        let manifest = Manifest::open(dir.open(MANIFEST_FILE)?)?;

        // 2. Load every referenced run. These were synced before the
        //    manifest record naming them, so failures here are real
        //    corruption, not crash debris.
        let mut runs = Vec::with_capacity(manifest.runs.len());
        for (id, level) in &manifest.runs {
            let mut storage = dir.open(&Run::file_name(*id))?;
            runs.push(LeveledRun {
                run: Arc::new(Run::load(*id, storage.as_mut())?),
                level: *level,
            });
        }

        // 3. Orphan scan — the recovery blind spot the fault harness
        //    exposes: a crash mid-seal or mid-compaction leaves run files
        //    the manifest never committed. They must be deleted (never
        //    resurrected), and their ids must never be re-allocated.
        let live: BTreeSet<u64> = manifest.runs.iter().map(|(id, _)| *id).collect();
        let mut next_run_id = manifest.next_run_id;
        let mut orphans = 0u64;
        for name in dir.list()? {
            if let Some(id) = Run::parse_file_name(&name) {
                if id >= next_run_id {
                    next_run_id = id + 1;
                }
                if !live.contains(&id) {
                    dir.remove(&name)?;
                    orphans += 1;
                }
            }
        }

        // 4. WAL replay into a fresh memtable (repairs torn tails).
        let mut wal = Wal::with_storage(dir.open(WAL_FILE)?)?;
        let replay = wal.replay()?;
        let mut state = LsmState {
            memtable: BTreeMap::new(),
            memtable_bytes: 0,
            runs,
            epoch: manifest.epoch,
        };
        for (_lsn, rec) in &replay.records {
            match rec {
                WalRecord::Put { key, value } => {
                    state.memtable_insert(key, Some(value.clone()));
                }
                WalRecord::Delete { key } => {
                    state.memtable_insert(key, None);
                }
                WalRecord::Checkpoint => {}
            }
        }

        let recovered = LsmStats {
            recovered_records: replay.records.len() as u64,
            recovered_torn_tail: replay.torn_tail || manifest.torn_tail,
            recovered_repaired_bytes: replay.repaired_bytes + manifest.repaired_bytes,
            recovered_orphan_runs: orphans,
        };
        let mut manifest = manifest;
        manifest.next_run_id = next_run_id;
        let shared = Arc::new(LsmShared {
            state: RwLock::new(state),
            manifest: Mutex::new(manifest),
            metrics: RwLock::new(LsmMetrics::default()),
            wake: Wake {
                flag: Mutex::new(WakeFlag::default()),
                cond: Condvar::new(),
            },
            dir,
        });
        let compactor = if opts.background_compaction {
            let thread_shared = Arc::clone(&shared);
            let min_runs = opts.compact_min_runs;
            Some(std::thread::spawn(move || {
                compactor_loop(&thread_shared, min_runs);
            }))
        } else {
            None
        };
        Ok(LsmStore {
            shared,
            wal,
            opts,
            recovered,
            compactor,
        })
    }

    /// Register this store with `registry` (`store.kv.*`, `store.lsm.*`,
    /// `store.wal.*`, recovery counters under `store.recovery.*`). Several
    /// stores may share one registry: counters add up by construction, and
    /// the `runs` / `memtable.bytes` gauges move by delta so they read the
    /// sum over attached stores (see `publish_gauges`).
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.wal.attach_registry(registry);
        {
            // The state lock is held across the swap so the compactor
            // (which moves `runs` under the state write lock) cannot land
            // a delta between "read the run count" and "publish it".
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            let mut m = self
                .shared
                .metrics
                .write()
                .unwrap_or_else(|e| e.into_inner());
            publish_gauges(&m, &state, -1);
            *m = LsmMetrics::new(registry);
            publish_gauges(&m, &state, 1);
        }
        registry
            .counter("store.recovery.replayed_records")
            .add(self.recovered.recovered_records);
        registry
            .counter("store.recovery.torn_tails")
            .add(u64::from(self.recovered.recovered_torn_tail));
        registry
            .counter("store.recovery.repaired_bytes")
            .add(self.recovered.recovered_repaired_bytes);
        registry
            .counter("store.recovery.orphan_runs")
            .add(self.recovered.recovered_orphan_runs);
    }

    /// Upsert. Once the WAL append returns, the write is acked: a
    /// budget-triggered seal that fails afterwards must not retract the
    /// ack, so its error is deferred — counted in `store.lsm.seal.errors`
    /// and retried on the next trigger or explicit [`LsmStore::seal`].
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> StoreResult<()> {
        let _trace = memex_obs::trace::span("store.kv.put");
        self.wal.append(&WalRecord::Put {
            key: key.to_vec(),
            value: value.to_vec(),
        })?;
        let (delta, bytes) = {
            let mut state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
            let delta = state.memtable_insert(key, Some(value.to_vec()));
            (delta, state.memtable_bytes)
        };
        {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.puts.inc();
            m.memtable_bytes.add(delta);
        }
        if bytes > self.opts.memtable_bytes {
            self.seal_deferred();
        }
        Ok(())
    }

    /// Delete (writes a tombstone; absent keys are fine). Seal-error
    /// deferral works exactly as in [`LsmStore::put`].
    pub fn delete(&mut self, key: &[u8]) -> StoreResult<()> {
        self.wal.append(&WalRecord::Delete { key: key.to_vec() })?;
        let (delta, bytes) = {
            let mut state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
            let delta = state.memtable_insert(key, None);
            (delta, state.memtable_bytes)
        };
        {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.deletes.inc();
            m.memtable_bytes.add(delta);
        }
        if bytes > self.opts.memtable_bytes {
            self.seal_deferred();
        }
        Ok(())
    }

    /// Budget-triggered seal: the covered writes are already acked (WAL +
    /// memtable), so a failure here only defers the seal — the memtable
    /// keeps growing past its budget until a later seal succeeds.
    fn seal_deferred(&mut self) {
        if self.seal().is_err() {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.seal_errors.inc();
        }
    }

    /// Point lookup: memtable first, then runs newest-to-oldest — but
    /// only runs whose key-range bounds and bloom filter both admit the
    /// key are consulted, and a consulted run decodes one sparse-index
    /// block. The consulted count is the read amplification recorded in
    /// `store.lsm.read.amplification`.
    pub fn get(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let _trace = memex_obs::trace::span("store.kv.get");
        let out = {
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            lookup(&state.memtable, &state.runs, key)
        };
        {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.gets.inc();
            m.read_amp.record(out.consulted);
            m.bloom_hit.add(out.bloom_hit);
            m.bloom_skip.add(out.bloom_skip);
            m.bloom_fp.add(out.bloom_fp);
        }
        Ok(out.value)
    }

    /// Merged range iteration over the live state (memtable shadows
    /// runs; newest run shadows older).
    pub fn for_each_range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) -> StoreResult<()> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        merged_for_each(&state.memtable, &state.runs, start, end, f);
        Ok(())
    }

    /// Collect every `(key, value)` whose key starts with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        Ok(merged_prefix(&state.memtable, &state.runs, prefix))
    }

    /// Collect a bounded range.
    pub fn scan(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
    ) -> StoreResult<Vec<(Vec<u8>, Vec<u8>)>> {
        let mut out = Vec::new();
        self.for_each_range(start, end, &mut |k, v| {
            out.push((k.to_vec(), v.to_vec()));
            true
        })?;
        Ok(out)
    }

    /// Make every acked record durable (WAL fsync).
    pub fn sync(&mut self) -> StoreResult<()> {
        self.wal.sync()
    }

    /// Open an MVCC snapshot: one brief read lock to clone the (bounded)
    /// memtable and pin the immutable run set, then every read on the
    /// returned handle is lock-free. Ingest, seals and compactions after
    /// this point are invisible to the snapshot.
    pub fn snapshot(&self) -> LsmSnapshot {
        let (memtable, runs, epoch) = {
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            (state.memtable.clone(), state.runs.clone(), state.epoch)
        };
        {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.snapshots.inc();
        }
        LsmSnapshot {
            memtable,
            runs,
            epoch,
        }
    }

    /// The run-set epoch readers would pin right now.
    pub fn epoch(&self) -> u64 {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        state.epoch
    }

    /// Live run count.
    pub fn run_count(&self) -> usize {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        state.runs.len()
    }

    /// Live `(run id, level)` pairs, newest first (test observability).
    #[doc(hidden)]
    pub fn run_levels(&self) -> Vec<(u64, u32)> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        state.runs.iter().map(|r| (r.run.id, r.level)).collect()
    }

    /// Seal the memtable into an immutable run and truncate the WAL. See
    /// the module docs for why each step orders before the next. An empty
    /// memtable still checkpoints the WAL (everything acked is already in
    /// runs, so dropping the log is safe).
    pub fn seal(&mut self) -> StoreResult<()> {
        let _trace = memex_obs::trace::span("store.lsm.seal");
        let started = Instant::now();
        // Make the whole log durable before anything derived from it is:
        // the run must never get ahead of the durable WAL, or a crash
        // could replay a stale prefix over newer run data.
        self.wal.sync()?;
        let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = {
            let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
            state
                .memtable
                .iter()
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect()
        };
        if entries.is_empty() {
            return self.checkpoint_wal();
        }
        let (sealed_bytes, levels, ready) = {
            // The manifest mutex serializes run-set transitions against
            // the compactor; the run list cannot change until released.
            let mut manifest = self
                .shared
                .manifest
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            let id = manifest.next_run_id;
            let name = Run::file_name(id);
            let run = {
                let mut storage = self.shared.dir.open(&name)?;
                match Run::write(id, entries, storage.as_mut()) {
                    Ok(run) => run,
                    Err(e) => {
                        // A partial file may remain: delete it if we can;
                        // otherwise the orphan scan reaps it at next open.
                        let _ = self.shared.dir.remove(&name);
                        return Err(e);
                    }
                }
            };
            let (epoch, list) = {
                let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
                let list: Vec<(u64, u32)> = std::iter::once((id, 0))
                    .chain(state.runs.iter().map(|r| (r.run.id, r.level)))
                    .collect();
                (state.epoch + 1, list)
            };
            // On failure, keep the run file: the append may have staged
            // its record before the failure, and a crash can still land
            // those bytes durably. If the record lands, the (fully
            // synced) run is live and must exist; if it does not, the
            // orphan scan reaps the file at the next open. Removing it
            // here would let a landed record point at nothing.
            manifest.append(epoch, id + 1, &list)?;
            // Committed: install in memory. From here on failure may only
            // leave the WAL un-truncated, which replays idempotently.
            let mut state = self.shared.state.write().unwrap_or_else(|e| e.into_inner());
            state.runs.insert(
                0,
                LeveledRun {
                    run: Arc::new(run),
                    level: 0,
                },
            );
            state.memtable.clear();
            let sealed_bytes = std::mem::take(&mut state.memtable_bytes);
            state.epoch = epoch;
            (
                sealed_bytes,
                level_count(&state.runs),
                tier_ready(&state.runs, self.opts.compact_min_runs),
            )
        };
        {
            let m = self
                .shared
                .metrics
                .read()
                .unwrap_or_else(|e| e.into_inner());
            m.seals.inc();
            m.memtable_bytes.add(-(sealed_bytes as i64));
            m.runs.add(1);
            m.levels.set_max(levels as i64);
            m.seal_latency.record(elapsed_ns(started));
        }
        if ready {
            self.wake_compactor();
        }
        self.checkpoint_wal()
    }

    /// Truncate the WAL and mark the checkpoint (the sealed runs now
    /// carry everything the log carried).
    fn checkpoint_wal(&mut self) -> StoreResult<()> {
        self.wal.truncate()?;
        self.wal.append(&WalRecord::Checkpoint)?;
        self.wal.sync()
    }

    /// Compact inline until nothing is left to merge, finishing with a
    /// bottom merge of the whole stack (deterministic alternative to the
    /// background demon; used by crash tests). Returns whether any merge
    /// happened.
    pub fn compact_now(&mut self) -> StoreResult<bool> {
        let mut any = false;
        while compact_once(&self.shared, 2, false)? {
            any = true;
        }
        if compact_once(&self.shared, 2, true)? {
            any = true;
        }
        Ok(any)
    }

    /// Run exactly one tier-compaction pass (no full merge): the
    /// fine-grained hook the tiering tests schedule crashes around.
    #[doc(hidden)]
    pub fn compact_tier_now(&mut self) -> StoreResult<bool> {
        compact_once(&self.shared, 2, false)
    }

    fn wake_compactor(&self) {
        if self.compactor.is_none() {
            return;
        }
        {
            let mut flag = self
                .shared
                .wake
                .flag
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            flag.work = true;
        }
        self.shared.wake.cond.notify_all();
    }

    /// Verify the tier-shape invariants (tests / debugging). Run files
    /// verify their checksum and ordering at load; what can go wrong live
    /// is the stack: levels non-decreasing newest-to-oldest, run ids
    /// globally unique, and ids strictly descending within each level
    /// (newer runs allocate higher ids).
    pub fn check(&self) -> StoreResult<()> {
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut prev_level: Option<u32> = None;
        let mut prev_id_in_level: Option<u64> = None;
        for entry in &state.runs {
            if let Some(level) = prev_level {
                if entry.level < level {
                    return Err(StoreError::Corrupt(format!(
                        "level order violated: level {} after level {}",
                        entry.level, level
                    )));
                }
                if entry.level > level {
                    prev_id_in_level = None;
                }
            }
            if !seen.insert(entry.run.id) {
                return Err(StoreError::Corrupt(format!(
                    "duplicate run id {}",
                    entry.run.id
                )));
            }
            if let Some(p) = prev_id_in_level {
                if entry.run.id >= p {
                    return Err(StoreError::Corrupt(format!(
                        "run order violated: {} after {} in level {}",
                        entry.run.id, p, entry.level
                    )));
                }
            }
            prev_level = Some(entry.level);
            prev_id_in_level = Some(entry.run.id);
        }
        Ok(())
    }

    /// What recovery found at open time.
    pub fn stats(&self) -> LsmStats {
        self.recovered
    }

    /// Expose the WAL for fault-injection in recovery experiments.
    #[doc(hidden)]
    pub fn wal_mut(&mut self) -> &mut Wal {
        &mut self.wal
    }
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        if let Some(handle) = self.compactor.take() {
            {
                let mut flag = self
                    .shared
                    .wake
                    .flag
                    .lock()
                    .unwrap_or_else(|e| e.into_inner());
                flag.shutdown = true;
            }
            self.shared.wake.cond.notify_all();
            let _ = handle.join();
        }
        // A closed store no longer counts toward the shared gauges.
        let state = self.shared.state.read().unwrap_or_else(|e| e.into_inner());
        let m = self
            .shared
            .metrics
            .read()
            .unwrap_or_else(|e| e.into_inner());
        publish_gauges(&m, &state, -1);
    }
}

fn elapsed_ns(started: Instant) -> u64 {
    u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Background compactor: waits for a wake, then runs tier merges until no
/// tier qualifies. Errors are counted and retried at the next wake — the
/// demon itself never dies and never panics.
fn compactor_loop(shared: &Arc<LsmShared>, min_runs: usize) {
    loop {
        {
            let mut flag = shared.wake.flag.lock().unwrap_or_else(|e| e.into_inner());
            while !flag.work && !flag.shutdown {
                flag = shared
                    .wake
                    .cond
                    .wait(flag)
                    .unwrap_or_else(|e| e.into_inner());
            }
            if flag.shutdown {
                return;
            }
            flag.work = false;
        }
        loop {
            match compact_once(shared, min_runs, false) {
                Ok(true) => continue,
                Ok(false) => break,
                Err(_) => {
                    let m = shared.metrics.read().unwrap_or_else(|e| e.into_inner());
                    m.compact_errors.inc();
                    break;
                }
            }
        }
    }
}

/// A compaction decision: merge `runs[start..end)` (a contiguous span)
/// into one run at `out_level`.
struct CompactPlan {
    victims: Vec<LeveledRun>,
    start: usize,
    end: usize,
    out_level: u32,
    /// The merge reaches the oldest run: nothing below can shadow, so
    /// tombstones may be dropped.
    bottom: bool,
    old_epoch: u64,
    id: u64,
}

/// Pick the first (youngest) tier — maximal contiguous same-level span —
/// holding at least `min_runs.max(2)` runs. Returns `(start, end,
/// out_level)`; the output lands one level deeper than its inputs.
fn select_tier(runs: &[LeveledRun], min_runs: usize) -> Option<(usize, usize, u32)> {
    let threshold = min_runs.max(2);
    let mut span_start = 0usize;
    let mut span_level: Option<u32> = None;
    for (i, r) in runs.iter().enumerate() {
        match span_level {
            Some(level) if level == r.level => {}
            _ => {
                if let Some(level) = span_level {
                    if i - span_start >= threshold {
                        return Some((span_start, i, level + 1));
                    }
                }
                span_level = Some(r.level);
                span_start = i;
            }
        }
    }
    if let Some(level) = span_level {
        if runs.len() - span_start >= threshold {
            return Some((span_start, runs.len(), level + 1));
        }
    }
    None
}

/// Pick the whole stack (a full merge), regardless of levels. The output
/// lands at the deepest input level (at least 1, so it never masquerades
/// as a fresh seal).
fn select_all(runs: &[LeveledRun]) -> Option<(usize, usize, u32)> {
    if runs.len() < 2 {
        return None;
    }
    let out_level = runs.iter().map(|r| r.level).max().unwrap_or(0).max(1);
    Some((0, runs.len(), out_level))
}

/// Merge one tier (or, with `full`, the whole stack) into one run a level
/// deeper. The merge itself happens on `Arc` clones with no lock held
/// (readers and the writer proceed); the manifest mutex is taken twice,
/// briefly: once to pick the victim span and reserve a run id, and once
/// to commit the transition (the state write lock is held just long
/// enough to splice the list). If the epoch moved between the two — a
/// seal or another compaction landed — the merged output is stale: the
/// orphan file is removed and the caller retries against the new run set.
/// Tombstones are dropped **only** when the span reaches the bottom of
/// the stack; anywhere else they must survive to keep shadowing deleted
/// keys in older runs. Snapshots holding the old runs keep them alive;
/// their files are deleted once the manifest stops referencing them
/// (failed deletions become orphans for the next open).
fn compact_once(shared: &Arc<LsmShared>, min_runs: usize, full: bool) -> StoreResult<bool> {
    let _trace = memex_obs::trace::span("store.lsm.compact");
    let started = Instant::now();
    let plan = {
        let mut manifest = shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
        let state = shared.state.read().unwrap_or_else(|e| e.into_inner());
        let selected = if full {
            select_all(&state.runs)
        } else {
            select_tier(&state.runs, min_runs)
        };
        let Some((start, end, out_level)) = selected else {
            return Ok(false);
        };
        // Reserve the run id in memory only: a concurrent seal allocates
        // past it, and the commit append persists the high-water mark.
        // A reservation abandoned by abort or crash is never densely
        // required — the orphan scan owns unreferenced files.
        let id = manifest.next_run_id;
        manifest.next_run_id = id + 1;
        CompactPlan {
            victims: state
                .runs
                .get(start..end)
                .into_iter()
                .flatten()
                .cloned()
                .collect(),
            start,
            end,
            out_level,
            bottom: end == state.runs.len(),
            old_epoch: state.epoch,
            id,
        }
    };
    // Oldest victim first so newer entries overwrite. No lock is held for
    // the merge or the run write: this is the bulk of the work, and
    // sealers must not stall behind it.
    let mut merged: BTreeMap<Vec<u8>, Option<Vec<u8>>> = BTreeMap::new();
    for victim in plan.victims.iter().rev() {
        for (k, v) in victim.run.iter() {
            merged.insert(k.to_vec(), v.map(|x| x.to_vec()));
        }
    }
    // Tombstones shadow matching keys in runs *below* the merged span;
    // only a merge that reaches the bottom of the stack may drop them.
    let entries: Vec<(Vec<u8>, Option<Vec<u8>>)> = if plan.bottom {
        merged.into_iter().filter(|(_, v)| v.is_some()).collect()
    } else {
        merged.into_iter().collect()
    };
    let input_bytes: u64 = plan.victims.iter().map(|r| r.run.bytes).sum();
    let name = Run::file_name(plan.id);
    let run = {
        let mut storage = shared.dir.open(&name)?;
        match Run::write(plan.id, entries, storage.as_mut()) {
            Ok(run) => run,
            Err(e) => {
                let _ = shared.dir.remove(&name);
                return Err(e);
            }
        }
    };
    let mut manifest = shared.manifest.lock().unwrap_or_else(|e| e.into_inner());
    let new_runs: Vec<LeveledRun> = {
        let state = shared.state.read().unwrap_or_else(|e| e.into_inner());
        if state.epoch != plan.old_epoch {
            // The run set changed under us (seal or concurrent compact):
            // the span indices no longer describe it, and installing the
            // merge could drop newcomers. Abandon this output and ask the
            // caller to retry against the new set. Never reached
            // single-threaded (compact_now in crash tests).
            drop(state);
            drop(manifest);
            let _ = shared.dir.remove(&name);
            return Ok(true);
        }
        // Epoch unchanged ⇒ the list is exactly the one the plan indexed.
        let mut list = Vec::with_capacity(state.runs.len() + 1 - plan.victims.len());
        list.extend(state.runs.get(..plan.start).into_iter().flatten().cloned());
        list.push(LeveledRun {
            run: Arc::new(run),
            level: plan.out_level,
        });
        list.extend(state.runs.get(plan.end..).into_iter().flatten().cloned());
        list
    };
    let epoch = plan.old_epoch + 1;
    // On failure, keep the merged run file — same reasoning as in `seal`:
    // the staged manifest record may still land at a crash. Either the
    // record lands (run live, victims become orphans) or it does not
    // (this file becomes the orphan) — recovery reconciles both. The
    // persisted next_run_id must cover ids a concurrent seal may have
    // taken after our reservation.
    let next_id = manifest.next_run_id.max(plan.id + 1);
    let record: Vec<(u64, u32)> = new_runs.iter().map(|r| (r.run.id, r.level)).collect();
    manifest.append(epoch, next_id, &record)?;
    {
        let mut state = shared.state.write().unwrap_or_else(|e| e.into_inner());
        state.runs = new_runs;
        state.epoch = epoch;
        // The shared gauges move under the state lock: `attach_registry`
        // swaps the handles under the same lock, so this delta lands on
        // exactly one side of the swap.
        let m = shared.metrics.read().unwrap_or_else(|e| e.into_inner());
        m.runs.add(1 - plan.victims.len() as i64);
        m.levels.set_max(level_count(&state.runs) as i64);
    }
    drop(manifest);
    for victim in &plan.victims {
        let _ = shared.dir.remove(&Run::file_name(victim.run.id));
    }
    {
        let m = shared.metrics.read().unwrap_or_else(|e| e.into_inner());
        m.compactions.inc();
        m.compact_bytes.add(input_bytes);
        m.compact_latency.record(elapsed_ns(started));
    }
    Ok(true)
}

// ---------------------------------------------------------------------------
// Merged reads
// ---------------------------------------------------------------------------

/// What one point lookup did: the value (if any), how many runs it
/// consulted (read amplification) and how each run's bloom classified it.
struct LookupOutcome {
    value: Option<Vec<u8>>,
    consulted: u64,
    bloom_hit: u64,
    bloom_skip: u64,
    bloom_fp: u64,
}

/// Point lookup over a memtable + run stack. Runs whose bloom rejects the
/// key are skipped outright; consulted runs resolve through their sparse
/// index. A tombstone hit stops the walk — older runs must not be asked.
fn lookup(
    memtable: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    runs: &[LeveledRun],
    key: &[u8],
) -> LookupOutcome {
    let mut out = LookupOutcome {
        value: None,
        consulted: 0,
        bloom_hit: 0,
        bloom_skip: 0,
        bloom_fp: 0,
    };
    if let Some(v) = memtable.get(key) {
        out.value = v.clone();
        return out;
    }
    // One key hash for the whole stack; each run's bloom mixes its own
    // seed into it.
    let hash = run::key_hash(key);
    for entry in runs {
        match entry.run.probe_hashed(key, hash) {
            Probe::Skip => out.bloom_skip += 1,
            Probe::Miss => {
                out.consulted += 1;
                out.bloom_fp += 1;
            }
            Probe::Hit(v) => {
                out.consulted += 1;
                out.bloom_hit += 1;
                out.value = v.map(|x| x.to_vec());
                return out;
            }
        }
    }
    out
}

/// True when the range can contain nothing (guards the `BTreeMap::range`
/// panic conditions as well).
fn empty_range(start: &Bound<&[u8]>, end: &Bound<&[u8]>) -> bool {
    match (start, end) {
        (Bound::Included(s), Bound::Included(e)) => s > e,
        (Bound::Included(s), Bound::Excluded(e))
        | (Bound::Excluded(s), Bound::Included(e))
        | (Bound::Excluded(s), Bound::Excluded(e)) => s >= e,
        _ => false,
    }
}

fn within_end(key: &[u8], end: &Bound<&[u8]>) -> bool {
    match end {
        Bound::Included(e) => key <= *e,
        Bound::Excluded(e) => key < *e,
        Bound::Unbounded => true,
    }
}

type MergeIter<'a> = Box<dyn Iterator<Item = (&'a [u8], Option<&'a [u8]>)> + 'a>;
type MergeSource<'a> = Peekable<MergeIter<'a>>;

/// K-way merge over the memtable and runs, youngest source wins per key,
/// tombstones suppressed. `f` returning `false` stops the iteration.
/// Run entries stream straight out of their resident encoded blocks.
fn merged_for_each(
    memtable: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    runs: &[LeveledRun],
    start: Bound<&[u8]>,
    end: Bound<&[u8]>,
    f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
) {
    if empty_range(&start, &end) {
        return;
    }
    // Sources ordered youngest-first: memtable, then runs newest-first.
    let mut sources: Vec<MergeSource<'_>> = Vec::with_capacity(runs.len() + 1);
    let mem_iter: MergeIter<'_> = Box::new(
        memtable
            .range::<[u8], _>((start, end))
            .map(|(k, v)| (k.as_slice(), v.as_deref())),
    );
    sources.push(mem_iter.peekable());
    for entry in runs {
        let it: MergeIter<'_> = match start {
            Bound::Included(k) => Box::new(
                entry
                    .run
                    .iter_from(k)
                    .take_while(move |(key, _)| within_end(key, &end)),
            ),
            Bound::Excluded(k) => Box::new(
                entry
                    .run
                    .iter_from(k)
                    .skip_while(move |(key, _)| *key == k)
                    .take_while(move |(key, _)| within_end(key, &end)),
            ),
            Bound::Unbounded => Box::new(
                entry
                    .run
                    .iter()
                    .take_while(move |(key, _)| within_end(key, &end)),
            ),
        };
        sources.push(it.peekable());
    }
    loop {
        // Find the smallest key any source is looking at.
        let mut min_key: Option<Vec<u8>> = None;
        for source in sources.iter_mut() {
            if let Some((k, _)) = source.peek() {
                match &min_key {
                    Some(m) if *k >= m.as_slice() => {}
                    _ => min_key = Some(k.to_vec()),
                }
            }
        }
        let Some(key) = min_key else {
            return;
        };
        // Pop every source at that key; the youngest (first) wins.
        let mut chosen: Option<Option<Vec<u8>>> = None;
        for source in sources.iter_mut() {
            if let Some((k, v)) = source.peek() {
                if *k == key.as_slice() {
                    if chosen.is_none() {
                        chosen = Some(v.map(|x| x.to_vec()));
                    }
                    source.next();
                }
            }
        }
        if let Some(Some(value)) = chosen {
            if !f(&key, &value) {
                return;
            }
        }
    }
}

/// Every merged `(key, value)` whose key starts with `prefix`.
fn merged_prefix(
    memtable: &BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    runs: &[LeveledRun],
    prefix: &[u8],
) -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut out = Vec::new();
    let start = Bound::Included(prefix);
    merged_for_each(memtable, runs, start, Bound::Unbounded, &mut |k, v| {
        if !k.starts_with(prefix) {
            return false;
        }
        out.push((k.to_vec(), v.to_vec()));
        true
    });
    out
}

// ---------------------------------------------------------------------------
// Snapshots
// ---------------------------------------------------------------------------

/// A pinned point-in-time view: the memtable as of the snapshot plus
/// `Arc`s on the then-live immutable runs. Reads take no lock at all.
pub struct LsmSnapshot {
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    runs: Vec<LeveledRun>,
    epoch: u64,
}

impl LsmSnapshot {
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    pub fn get(&self, key: &[u8]) -> Option<Vec<u8>> {
        lookup(&self.memtable, &self.runs, key).value
    }

    pub fn for_each_range(
        &self,
        start: Bound<&[u8]>,
        end: Bound<&[u8]>,
        f: &mut dyn FnMut(&[u8], &[u8]) -> bool,
    ) {
        merged_for_each(&self.memtable, &self.runs, start, end, f);
    }

    /// Collect every `(key, value)` whose key starts with `prefix`.
    pub fn scan_prefix(&self, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        merged_prefix(&self.memtable, &self.runs, prefix)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> LsmOptions {
        LsmOptions {
            memtable_bytes: 1 << 30, // never auto-seal
            compact_min_runs: 64,    // never auto-compact
            background_compaction: false,
        }
    }

    #[test]
    fn put_get_delete_round_trip() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        s.delete(b"a").unwrap();
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn seal_moves_memtable_into_a_run_and_reads_merge() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"a", b"old").unwrap();
        s.put(b"b", b"2").unwrap();
        s.seal().unwrap();
        assert_eq!(s.run_count(), 1);
        s.put(b"a", b"new").unwrap();
        s.delete(b"b").unwrap();
        assert_eq!(
            s.get(b"a").unwrap(),
            Some(b"new".to_vec()),
            "memtable shadows run"
        );
        assert_eq!(s.get(b"b").unwrap(), None, "tombstone shadows run");
        let all = s.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert_eq!(all, vec![(b"a".to_vec(), b"new".to_vec())]);
    }

    #[test]
    fn compaction_merges_runs_and_drops_tombstones() {
        let registry = MetricsRegistry::new();
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.attach_registry(&registry);
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.seal().unwrap();
        s.delete(b"a").unwrap();
        s.put(b"c", b"3").unwrap();
        s.seal().unwrap();
        assert_eq!(s.run_count(), 2);
        assert!(s.compact_now().unwrap());
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"c").unwrap(), Some(b"3".to_vec()));
        let state = s.shared.state.read().unwrap();
        let merged = state.runs.first().unwrap();
        assert_eq!(
            merged.run.entry_count(),
            2,
            "tombstone dropped by bottom merge"
        );
        assert_eq!(
            registry.snapshot().counter("store.lsm.compactions"),
            1,
            "compaction counted"
        );
    }

    #[test]
    fn tier_compaction_keeps_tombstones_above_older_runs() {
        // The tombstone-resurrection regression: delete a key whose live
        // value sits in an older (deeper) run, compact only the young
        // tier, and the key must stay deleted. The unguarded full-merge
        // logic dropped the tombstone here and resurrected `k`.
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"k", b"live").unwrap();
        s.put(b"f1", b"x").unwrap();
        s.seal().unwrap();
        s.put(b"f2", b"x").unwrap();
        s.seal().unwrap();
        // Bottom merge: `k` now lives in a level-1 run.
        assert!(s.compact_tier_now().unwrap());
        assert_eq!(
            s.run_levels().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![1]
        );
        s.delete(b"k").unwrap();
        s.put(b"f3", b"x").unwrap();
        s.seal().unwrap();
        s.put(b"f4", b"x").unwrap();
        s.seal().unwrap();
        // Merge ONLY the two young level-0 runs: not a bottom merge, so
        // the tombstone must survive into the merged run.
        assert!(s.compact_tier_now().unwrap());
        let levels: Vec<u32> = s.run_levels().iter().map(|(_, l)| *l).collect();
        assert_eq!(levels, vec![1, 1], "young tier merged above the old run");
        assert_eq!(
            s.get(b"k").unwrap(),
            None,
            "tier merge must not resurrect a deleted key"
        );
        s.check().unwrap();
        // The final bottom merge may (and does) drop the tombstone.
        assert!(s.compact_now().unwrap());
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.get(b"k").unwrap(), None);
    }

    #[test]
    fn tiers_deepen_and_invariants_hold() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        for round in 0..4u32 {
            s.put(format!("key-{round}").as_bytes(), b"v").unwrap();
            s.seal().unwrap();
        }
        assert_eq!(
            s.run_levels().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![0, 0, 0, 0]
        );
        // One tier pass merges the whole level-0 span (bottom ⇒ level 1).
        assert!(s.compact_tier_now().unwrap());
        assert_eq!(
            s.run_levels().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![1]
        );
        for round in 4..6u32 {
            s.put(format!("key-{round}").as_bytes(), b"v").unwrap();
            s.seal().unwrap();
        }
        // The two fresh seals tier-merge in front of the old level-1 run.
        assert!(s.compact_tier_now().unwrap());
        assert_eq!(
            s.run_levels().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![1, 1]
        );
        s.check().unwrap();
        // Now the level-1 tier qualifies; merging it reaches the bottom.
        assert!(s.compact_tier_now().unwrap());
        assert_eq!(
            s.run_levels().iter().map(|(_, l)| *l).collect::<Vec<_>>(),
            vec![2]
        );
        s.check().unwrap();
        for round in 0..6u32 {
            let k = format!("key-{round}");
            assert_eq!(s.get(k.as_bytes()).unwrap(), Some(b"v".to_vec()));
        }
    }

    #[test]
    fn bloom_counters_classify_lookups() {
        let registry = MetricsRegistry::new();
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.attach_registry(&registry);
        for i in 0..100u32 {
            s.put(format!("key-{i:03}").as_bytes(), b"v").unwrap();
        }
        s.seal().unwrap();
        for i in 0..100u32 {
            assert_eq!(
                s.get(format!("key-{i:03}").as_bytes()).unwrap(),
                Some(b"v".to_vec())
            );
        }
        for i in 0..100u32 {
            assert_eq!(s.get(format!("absent-{i:03}").as_bytes()).unwrap(), None);
        }
        let snap = registry.snapshot();
        assert_eq!(
            snap.counter("store.lsm.bloom.hit"),
            100,
            "every present key hits"
        );
        assert!(
            snap.counter("store.lsm.bloom.skip") > 80,
            "most absent keys are bloom-skipped (got {})",
            snap.counter("store.lsm.bloom.skip")
        );
        assert_eq!(
            snap.counter("store.lsm.bloom.skip") + snap.counter("store.lsm.bloom.fp"),
            100,
            "absent keys either skip or false-positive"
        );
        assert_eq!(snap.gauge("store.lsm.levels"), 1);
    }

    #[test]
    fn snapshot_pins_pre_burst_state_across_seal_and_compaction() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"k1", b"v1").unwrap();
        s.put(b"k2", b"v2").unwrap();
        let snap = s.snapshot();
        let epoch = snap.epoch();
        // Burst: overwrite, delete, seal twice, compact.
        s.put(b"k1", b"changed").unwrap();
        s.delete(b"k2").unwrap();
        s.seal().unwrap();
        s.put(b"k3", b"v3").unwrap();
        s.seal().unwrap();
        s.compact_now().unwrap();
        // The snapshot still reads the exact pre-burst state.
        assert_eq!(snap.get(b"k1"), Some(b"v1".to_vec()));
        assert_eq!(snap.get(b"k2"), Some(b"v2".to_vec()));
        assert_eq!(snap.get(b"k3"), None);
        let mut seen = Vec::new();
        snap.for_each_range(Bound::Unbounded, Bound::Unbounded, &mut |k, v| {
            seen.push((k.to_vec(), v.to_vec()));
            true
        });
        assert_eq!(
            seen,
            vec![
                (b"k1".to_vec(), b"v1".to_vec()),
                (b"k2".to_vec(), b"v2".to_vec())
            ]
        );
        assert!(s.epoch() > epoch, "live epoch moved on");
    }

    #[test]
    fn reopen_recovers_runs_and_wal() {
        let dir: Arc<MemDir> = Arc::new(MemDir::new());
        {
            let mut s = LsmStore::open_with_dir(dir.clone(), tiny_opts()).unwrap();
            s.put(b"sealed", b"1").unwrap();
            s.seal().unwrap();
            s.put(b"walled", b"2").unwrap();
            s.sync().unwrap();
        }
        let s = LsmStore::open_with_dir(dir, tiny_opts()).unwrap();
        assert_eq!(s.get(b"sealed").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"walled").unwrap(), Some(b"2".to_vec()));
        assert_eq!(
            s.stats().recovered_records,
            1,
            "only the unsealed op replays"
        );
    }

    #[test]
    fn reopen_preserves_levels() {
        let dir: Arc<MemDir> = Arc::new(MemDir::new());
        {
            let mut s = LsmStore::open_with_dir(dir.clone(), tiny_opts()).unwrap();
            for key in [b"a", b"b"] {
                s.put(key, b"1").unwrap();
                s.seal().unwrap();
            }
            assert!(s.compact_tier_now().unwrap());
            s.put(b"c", b"2").unwrap();
            s.seal().unwrap();
        }
        let s = LsmStore::open_with_dir(dir, tiny_opts()).unwrap();
        let levels: Vec<u32> = s.run_levels().iter().map(|(_, l)| *l).collect();
        assert_eq!(levels, vec![0, 1]);
        s.check().unwrap();
        assert_eq!(s.get(b"a").unwrap(), Some(b"1".to_vec()));
        assert_eq!(s.get(b"c").unwrap(), Some(b"2".to_vec()));
    }

    #[test]
    fn a_version_1_run_file_fails_the_open_with_a_typed_error() {
        // Run-format v1 had no deployed writer and its loader is gone: a
        // live run whose header says version 1 must surface as `Corrupt`
        // (never a panic, never a silently dropped run), every time the
        // store is opened.
        let dir: Arc<MemDir> = Arc::new(MemDir::new());
        let id = {
            let mut s = LsmStore::open_with_dir(dir.clone(), tiny_opts()).unwrap();
            s.put(b"k", b"v").unwrap();
            s.seal().unwrap();
            s.run_levels().first().unwrap().0
        };
        {
            // Rewrite the header's version field and re-seal the checksum,
            // so the version check is what rejects the file.
            let mut file = dir.open(&Run::file_name(id)).unwrap();
            let len = usize::try_from(file.len().unwrap()).unwrap();
            let mut bytes = vec![0u8; len];
            file.read_exact_at(0, &mut bytes).unwrap();
            bytes[4..8].copy_from_slice(&1u32.to_le_bytes());
            let crc = crate::codec::crc32(&bytes[..len - 4]);
            bytes[len - 4..].copy_from_slice(&crc.to_le_bytes());
            file.write_all_at(0, &bytes).unwrap();
            file.sync().unwrap();
        }
        for _ in 0..2 {
            match LsmStore::open_with_dir(dir.clone(), tiny_opts()) {
                Err(StoreError::Corrupt(msg)) => {
                    assert!(msg.contains("unsupported version 1"), "{msg}");
                }
                Err(other) => panic!("expected Corrupt, got {other}"),
                Ok(_) => panic!("a v1 run file must not load"),
            }
            assert!(
                dir.list().unwrap().contains(&Run::file_name(id)),
                "a failed open must not reap the file"
            );
        }
    }

    #[test]
    fn shared_gauges_sum_over_stores_on_one_registry() {
        // `rel` and the index each own a store and share the server's
        // registry: with `set()` the last writer won and Stats lied.
        let registry = MetricsRegistry::new();
        let gauge = |name: &str| registry.snapshot().gauge(name);
        let mut a = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        let mut b = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        // `a` already holds state when it attaches: it is published whole.
        a.put(b"a1", b"x").unwrap();
        a.seal().unwrap();
        a.put(b"a2", b"xx").unwrap();
        a.attach_registry(&registry);
        b.attach_registry(&registry);
        let a_bytes = entry_cost(2, 2) as i64;
        assert_eq!(gauge("store.lsm.runs"), 1);
        assert_eq!(gauge("store.lsm.memtable.bytes"), a_bytes);

        b.put(b"b1", b"yyy").unwrap();
        let b_bytes = entry_cost(2, 3) as i64;
        assert_eq!(gauge("store.lsm.memtable.bytes"), a_bytes + b_bytes);
        // Overwriting with a shorter value moves the sum down, not to it.
        b.put(b"b1", b"y").unwrap();
        let b_bytes = entry_cost(2, 1) as i64;
        assert_eq!(gauge("store.lsm.memtable.bytes"), a_bytes + b_bytes);

        b.seal().unwrap();
        assert_eq!(gauge("store.lsm.runs"), 2);
        assert_eq!(gauge("store.lsm.memtable.bytes"), a_bytes);
        a.seal().unwrap();
        assert_eq!(gauge("store.lsm.runs"), 3);
        assert_eq!(gauge("store.lsm.memtable.bytes"), 0);
        assert_eq!(gauge("store.lsm.levels"), 1);

        // A compaction in one store subtracts only what it merged away.
        assert!(a.compact_now().unwrap());
        assert_eq!(a.run_count(), 1);
        assert_eq!(gauge("store.lsm.runs"), 2);
        // Levels is the deepest stack any store reached: `a` now holds a
        // level-1 run over nothing else, `b` one level-0 run.
        a.put(b"a3", b"x").unwrap();
        a.seal().unwrap();
        assert_eq!(gauge("store.lsm.levels"), 2);
        assert_eq!(gauge("store.lsm.runs"), 3);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("store.kv.puts"), 3, "b1 twice, a3");
        assert_eq!(snap.counter("store.lsm.seals"), 3, "b, a, a (post-attach)");

        // A closed store stops counting.
        drop(a);
        assert_eq!(gauge("store.lsm.runs"), 1);
        drop(b);
        assert_eq!(gauge("store.lsm.runs"), 0);
        assert_eq!(gauge("store.lsm.memtable.bytes"), 0);
    }

    #[test]
    fn orphan_runs_are_deleted_and_counted_never_resurrected() {
        let dir: Arc<MemDir> = Arc::new(MemDir::new());
        {
            let mut s = LsmStore::open_with_dir(dir.clone(), tiny_opts()).unwrap();
            s.put(b"a", b"1").unwrap();
            s.seal().unwrap();
        }
        // Fake a crash mid-seal: a run file the manifest never committed.
        {
            let mut orphan = dir.open(&Run::file_name(99)).unwrap();
            let entries = vec![(b"ghost".to_vec(), Some(b"boo".to_vec()))];
            Run::write(99, entries, orphan.as_mut()).unwrap();
        }
        let mut s = LsmStore::open_with_dir(dir.clone(), tiny_opts()).unwrap();
        assert_eq!(s.stats().recovered_orphan_runs, 1);
        assert_eq!(
            s.get(b"ghost").unwrap(),
            None,
            "orphan data must not resurrect"
        );
        assert!(
            !dir.list().unwrap().contains(&Run::file_name(99)),
            "orphan file deleted"
        );
        // Ids never reused: the next seal allocates past the orphan.
        s.put(b"b", b"2").unwrap();
        s.seal().unwrap();
        assert!(dir.list().unwrap().contains(&Run::file_name(100)));
    }

    #[test]
    fn background_compactor_kicks_in() {
        let opts = LsmOptions {
            memtable_bytes: 64,
            compact_min_runs: 2,
            background_compaction: true,
        };
        let mut s = LsmStore::open_memory_opts(opts).unwrap();
        for i in 0..64u32 {
            let k = format!("key-{i:04}");
            s.put(k.as_bytes(), &[0u8; 40]).unwrap();
        }
        // Wait (bounded) for the demon to merge every ready tier.
        for _ in 0..200 {
            if s.run_count() <= 2 && !tier_ready(&s.shared.state.read().unwrap().runs, 2) {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        assert!(
            !tier_ready(&s.shared.state.read().unwrap().runs, 2),
            "no tier should remain compactable"
        );
        for i in 0..64u32 {
            let k = format!("key-{i:04}");
            assert_eq!(s.get(k.as_bytes()).unwrap(), Some(vec![0u8; 40]));
        }
        s.check().unwrap();
    }

    #[test]
    fn scan_prefix_and_ranges_merge_correctly() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"p/a", b"1").unwrap();
        s.put(b"p/b", b"2").unwrap();
        s.put(b"q/x", b"3").unwrap();
        s.seal().unwrap();
        s.put(b"p/b", b"2b").unwrap();
        s.put(b"p/c", b"4").unwrap();
        let got = s.scan_prefix(b"p/").unwrap();
        assert_eq!(
            got,
            vec![
                (b"p/a".to_vec(), b"1".to_vec()),
                (b"p/b".to_vec(), b"2b".to_vec()),
                (b"p/c".to_vec(), b"4".to_vec()),
            ]
        );
        let bounded = s
            .scan(
                Bound::Excluded(b"p/a".as_slice()),
                Bound::Included(b"p/c".as_slice()),
            )
            .unwrap();
        assert_eq!(bounded.len(), 2);
        assert!(s
            .scan(
                Bound::Included(b"z".as_slice()),
                Bound::Excluded(b"a".as_slice())
            )
            .unwrap()
            .is_empty());
    }
}
