//! # memex-store::lsm — the keyed store: log-structured, tier-compacted
//!
//! The archive only grows, and what the served system asks of it is the
//! contract of an ordered map: put, delete, point get, and an ordered range
//! walk. This store never modifies anything it has written:
//!
//! * **Writes** land in a sorted in-memory memtable, logged through the
//!   [`Wal`] (crash recovery replays it back).
//! * **Seal**: when the memtable outgrows its budget (or on an explicit
//!   checkpoint) its sorted entries stream into one immutable sorted run
//!   file on a [`StorageDir`], the `Manifest` records the new run set,
//!   and the WAL is truncated.
//! * **Tiered compaction**: runs carry a **level** (0 = freshly sealed).
//!   Once a seal has checkpointed the WAL it merges, inline, every tier —
//!   a maximal contiguous span of same-level runs — that has reached
//!   `compact_min_runs`, each into one run a level deeper. Each record is
//!   therefore rewritten O(levels) times instead of O(total-data/seal)
//!   times, which is the whole point: the archive only grows, and full
//!   merges grow with it. A merge streams its inputs through the k-way
//!   merge range reads use, straight into the run encoder, copying no
//!   entry. Tombstones are dropped only when the merge reaches the
//!   **bottom** of the stack — anywhere else a dropped tombstone would
//!   resurrect a deleted key still shadowed in an older run.
//! * **Bloom + sparse index**: every run carries a bloom filter and a
//!   sparse block index, derived from its data region by one walk when it
//!   is written and again when it is loaded. A point lookup consults only
//!   runs whose bloom admits the key and decodes one small block there —
//!   `get()` stays flat as runs accumulate. `store.lsm.bloom.{hit,skip,fp}`
//!   classify every probe.
//! * **One owner**: writes (and the seals and merges they trigger) take
//!   `&mut self`, reads ([`LsmStore::get`], [`LsmStore::for_each_range`])
//!   take `&self`. The store starts no thread and holds no lock; whoever
//!   shares it supplies the lock (the served store sits under the
//!   serving layer's read/write lock).
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
//! orphan) or the new one (victims are orphans). It never touches the
//! WAL, so it runs after the checkpoint, and a merge that fails only
//! leaves its tier for the next seal: the sealed run is already durable.

mod manifest;
mod run;

use run::{Probe, Run, RunEncoder, RunIter};

use std::collections::{btree_map, BTreeMap, BTreeSet};
use std::iter::Peekable;
use std::ops::Bound;
use std::path::Path;
use std::sync::Arc;

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
    /// A seal merges a tier once its run count reaches this.
    pub compact_min_runs: usize,
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
#[derive(Default)]
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
        }
    }
}

/// One live run plus its tier level. Level 0 is freshly sealed; a tier
/// merge outputs one level deeper than its inputs.
struct LeveledRun {
    run: Run,
    level: u32,
}

impl LeveledRun {
    /// The run as the manifest records it.
    fn id_level(&self) -> (u64, u32) {
        (self.run.id, self.level)
    }
}

/// Everything a read consults.
struct LsmState {
    /// Sorted write buffer; `None` = tombstone.
    memtable: BTreeMap<Vec<u8>, Option<Vec<u8>>>,
    /// Tracked memtable footprint in bytes (keys + values + overhead).
    memtable_bytes: u64,
    /// Immutable runs, newest first; levels are non-decreasing front to
    /// back (level 0 youngest, deepest tier oldest).
    runs: Vec<LeveledRun>,
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

/// The keyed store: one owner, writes through `&mut self`, reads through
/// `&self`, no thread and no lock of its own.
pub struct LsmStore {
    state: LsmState,
    manifest: Manifest,
    metrics: LsmMetrics,
    dir: Arc<dyn StorageDir>,
    wal: Wal,
    opts: LsmOptions,
    /// What recovery found at open time.
    recovered: LsmStats,
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
        let mut manifest = Manifest::open(dir.open(MANIFEST_FILE)?)?;

        // 2. Load every referenced run. These were synced before the
        //    manifest record naming them, so failures here are real
        //    corruption, not crash debris.
        let mut runs = Vec::with_capacity(manifest.runs.len());
        for (id, level) in &manifest.runs {
            let mut storage = dir.open(&Run::file_name(*id))?;
            runs.push(LeveledRun {
                run: Run::load(*id, storage.as_mut())?,
                level: *level,
            });
        }

        // 3. Orphan scan — the recovery blind spot the fault harness
        //    exposes: a crash mid-seal or mid-compaction leaves run files
        //    the manifest never committed. They must be deleted (never
        //    resurrected), and their ids must never be re-allocated.
        let live: BTreeSet<u64> = manifest.runs.iter().map(|(id, _)| *id).collect();
        let mut orphans = 0u64;
        for name in dir.list()? {
            if let Some(id) = Run::parse_file_name(&name) {
                manifest.next_run_id = manifest.next_run_id.max(id + 1);
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
        Ok(LsmStore {
            state,
            manifest,
            metrics: LsmMetrics::default(),
            dir,
            wal,
            opts,
            recovered,
        })
    }

    /// Register this store with `registry` (`store.kv.*`, `store.lsm.*`,
    /// `store.wal.*`, recovery counters under `store.recovery.*`). Several
    /// stores may share one registry: counters add up by construction, and
    /// the `runs` / `memtable.bytes` gauges move by delta so they read the
    /// sum over attached stores (see `publish_gauges`).
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.wal.attach_registry(registry);
        publish_gauges(&self.metrics, &self.state, -1);
        self.metrics = LsmMetrics::new(registry);
        publish_gauges(&self.metrics, &self.state, 1);
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
        let delta = self.state.memtable_insert(key, Some(value.to_vec()));
        self.metrics.puts.inc();
        self.metrics.memtable_bytes.add(delta);
        self.seal_if_over_budget();
        Ok(())
    }

    /// Delete (writes a tombstone; absent keys are fine). Seal-error
    /// deferral works exactly as in [`LsmStore::put`].
    pub fn delete(&mut self, key: &[u8]) -> StoreResult<()> {
        self.wal.append(&WalRecord::Delete { key: key.to_vec() })?;
        let delta = self.state.memtable_insert(key, None);
        self.metrics.deletes.inc();
        self.metrics.memtable_bytes.add(delta);
        self.seal_if_over_budget();
        Ok(())
    }

    /// Budget-triggered seal: the covered writes are already acked (WAL +
    /// memtable), so a failure here only defers the seal — the memtable
    /// keeps growing past its budget until a later seal succeeds.
    fn seal_if_over_budget(&mut self) {
        if self.state.memtable_bytes > self.opts.memtable_bytes && self.seal().is_err() {
            self.metrics.seal_errors.inc();
        }
    }

    /// Point lookup: memtable first, then runs newest-to-oldest — but
    /// only runs whose key-range bounds and bloom filter both admit the
    /// key are consulted, and a consulted run decodes one sparse-index
    /// block. The consulted count is the read amplification recorded in
    /// `store.lsm.read.amplification`.
    pub fn get(&self, key: &[u8]) -> StoreResult<Option<Vec<u8>>> {
        let _trace = memex_obs::trace::span("store.kv.get");
        let out = lookup(&self.state.memtable, &self.state.runs, key);
        let m = &self.metrics;
        m.gets.inc();
        m.read_amp.record(out.consulted);
        m.bloom_hit.add(out.bloom_hit);
        m.bloom_skip.add(out.bloom_skip);
        m.bloom_fp.add(out.bloom_fp);
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
        if empty_range(&start, &end) {
            return Ok(());
        }
        // Sources youngest first: the memtable's range, then every run
        // (newest first) from the range's start.
        let runs = &self.state.runs;
        let mut sources: Vec<MergeSource<'_>> = Vec::with_capacity(runs.len() + 1);
        sources.push(MergeIter::Mem(self.state.memtable.range::<[u8], _>((start, end))).peekable());
        for entry in runs {
            let it = match start {
                Bound::Included(k) | Bound::Excluded(k) => entry.run.iter_from(k),
                Bound::Unbounded => entry.run.iter(),
            };
            let mut source = MergeIter::Run(it, end).peekable();
            if let Bound::Excluded(k) = start {
                source.next_if(|&(key, _)| key == k);
            }
            sources.push(source);
        }
        merged_for_each(sources, |key, value| value.is_none_or(|v| f(key, v)));
        Ok(())
    }

    /// Collect a bounded range: [`LsmStore::for_each_range`], gathered.
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

    /// Live run count.
    pub fn run_count(&self) -> usize {
        self.state.runs.len()
    }

    /// Live `(run id, level)` pairs, newest first (test observability).
    #[doc(hidden)]
    pub fn run_levels(&self) -> Vec<(u64, u32)> {
        self.state.runs.iter().map(LeveledRun::id_level).collect()
    }

    /// Seal the memtable into an immutable run, truncate the WAL, then
    /// merge every tier that is ready. See the module docs for why each
    /// step orders before the next. An empty memtable still checkpoints
    /// the WAL (everything acked is already in runs, so dropping the log
    /// is safe) and still merges. A failed merge does not fail the seal:
    /// its inputs are durable, so it is counted in
    /// `store.lsm.compact.errors` and its tier waits for the next seal.
    pub fn seal(&mut self) -> StoreResult<()> {
        if self.state.memtable.is_empty() {
            self.wal.sync()?;
        } else {
            self.seal_memtable()?;
        }
        self.checkpoint_wal()?;
        loop {
            match self.compact_once() {
                Ok(true) => {}
                Ok(false) => return Ok(()),
                Err(_) => {
                    self.metrics.compact_errors.inc();
                    return Ok(());
                }
            }
        }
    }

    /// Write the (non-empty) memtable as a level-0 run and commit it,
    /// timed in `store.lsm.seal.latency`.
    fn seal_memtable(&mut self) -> StoreResult<()> {
        let _latency = self.metrics.seal_latency.start_span();
        // Make the whole log durable before anything derived from it is:
        // the run must never get ahead of the durable WAL, or a crash
        // could replay a stale prefix over newer run data.
        self.wal.sync()?;
        let id = self.allocate_run_id();
        // Each entry's tracked cost carries 32 bytes of overhead and its
        // encoding at most 11, so the memtable's bytes bound the run's.
        let capacity = usize::try_from(self.state.memtable_bytes).unwrap_or(0);
        let mut encoder = RunEncoder::with_capacity(capacity);
        for (key, value) in &self.state.memtable {
            encoder.push(key, value.as_deref());
        }
        let run = self.write_run(id, encoder)?;
        let list: Vec<(u64, u32)> = std::iter::once((id, 0))
            .chain(self.state.runs.iter().map(LeveledRun::id_level))
            .collect();
        // On failure, keep the run file: the append may have staged its
        // record before the failure, and a crash can still land those
        // bytes durably. If the record lands, the (fully synced) run is
        // live and must exist; if it does not, the orphan scan reaps the
        // file at the next open. Removing it here would let a landed
        // record point at nothing.
        self.commit_runs(&list)?;
        // Committed: install in memory. From here on failure may only
        // leave the WAL un-truncated, which replays idempotently.
        self.state.runs.insert(0, LeveledRun { run, level: 0 });
        self.state.memtable.clear();
        let sealed_bytes = std::mem::take(&mut self.state.memtable_bytes);
        let m = &self.metrics;
        m.seals.inc();
        m.memtable_bytes.add(-(sealed_bytes as i64));
        m.runs.add(1);
        m.levels.set_max(level_count(&self.state.runs) as i64);
        Ok(())
    }

    /// Truncate the WAL and mark the checkpoint (the sealed runs now
    /// carry everything the log carried).
    fn checkpoint_wal(&mut self) -> StoreResult<()> {
        self.wal.truncate()?;
        self.wal.append(&WalRecord::Checkpoint)?;
        self.wal.sync()
    }

    /// A fresh run id. It is burned even if its run never commits: a
    /// failed manifest append may have staged a record naming it that a
    /// crash can still land, so no later run may take its file name.
    fn allocate_run_id(&mut self) -> u64 {
        let id = self.manifest.next_run_id;
        self.manifest.next_run_id = id + 1;
        id
    }

    /// Append `runs` (newest first) as the next manifest record and sync
    /// it: the commit point of a seal or a merge.
    fn commit_runs(&mut self, runs: &[(u64, u32)]) -> StoreResult<()> {
        let (epoch, next_run_id) = (self.manifest.epoch + 1, self.manifest.next_run_id);
        self.manifest.append(epoch, next_run_id, runs)
    }

    /// Write and sync run `id` holding what `encoder` was fed. A partial
    /// file may remain when this fails: it is deleted if possible, and
    /// otherwise the orphan scan reaps it at the next open.
    fn write_run(&self, id: u64, encoder: RunEncoder) -> StoreResult<Run> {
        let name = Run::file_name(id);
        let mut storage = self.dir.open(&name)?;
        encoder.finish(id, storage.as_mut()).inspect_err(|_| {
            let _ = self.dir.remove(&name);
        })
    }

    /// Merge the first ready tier into one run a level deeper; returns
    /// whether there was one. The victims stream through the read path's
    /// k-way merge into the run encoder. Tombstones are dropped **only**
    /// when the tier reaches the bottom of the stack; anywhere else they
    /// must survive to keep shadowing deleted keys in older runs. The
    /// merged run is committed by a manifest record before it replaces
    /// its inputs in memory; the input files are deleted afterwards
    /// (failed deletions become orphans for the next open).
    fn compact_once(&mut self) -> StoreResult<bool> {
        let Some((start, end, out_level)) =
            select_tier(&self.state.runs, self.opts.compact_min_runs)
        else {
            return Ok(false);
        };
        let _latency = self.metrics.compact_latency.start_span();
        let id = self.allocate_run_id();
        let Some(victims) = self.state.runs.get(start..end) else {
            return Ok(false);
        };
        let bottom = end == self.state.runs.len();
        let input_bytes: u64 = victims.iter().map(|r| r.run.bytes).sum();
        // Victims newest first, so the youngest entry of a key wins.
        let sources = victims
            .iter()
            .map(|victim| MergeIter::Run(victim.run.iter(), Bound::Unbounded).peekable())
            .collect();
        // A merge never grows its inputs, so their file sizes bound it.
        let mut encoder = RunEncoder::with_capacity(usize::try_from(input_bytes).unwrap_or(0));
        merged_for_each(sources, |key, value| {
            if value.is_some() || !bottom {
                encoder.push(key, value);
            }
            true
        });
        let run = self.write_run(id, encoder)?;
        let runs = &self.state.runs;
        let list: Vec<(u64, u32)> = runs
            .iter()
            .take(start)
            .map(LeveledRun::id_level)
            .chain(std::iter::once((id, out_level)))
            .chain(runs.iter().skip(end).map(LeveledRun::id_level))
            .collect();
        // On failure, keep the merged run file — same reasoning as in
        // `seal_memtable`: the staged manifest record may still land at a
        // crash. Either the record lands (run live, victims become
        // orphans) or it does not (this file becomes the orphan) —
        // recovery reconciles both.
        self.commit_runs(&list)?;
        let merged_away: Vec<LeveledRun> = self
            .state
            .runs
            .splice(
                start..end,
                [LeveledRun {
                    run,
                    level: out_level,
                }],
            )
            .collect();
        for victim in &merged_away {
            let _ = self.dir.remove(&Run::file_name(victim.run.id));
        }
        let m = &self.metrics;
        m.runs.add(1 - merged_away.len() as i64);
        m.levels.set_max(level_count(&self.state.runs) as i64);
        m.compactions.inc();
        m.compact_bytes.add(input_bytes);
        Ok(true)
    }

    /// Verify the tier-shape invariants (tests / debugging). Run files
    /// verify their checksum and ordering at load; what can go wrong live
    /// is the stack: levels non-decreasing newest-to-oldest, run ids
    /// globally unique, and ids strictly descending within each level
    /// (newer runs allocate higher ids).
    pub fn check(&self) -> StoreResult<()> {
        let mut seen: BTreeSet<u64> = BTreeSet::new();
        let mut prev_level: Option<u32> = None;
        let mut prev_id_in_level: Option<u64> = None;
        for entry in &self.state.runs {
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
}

impl Drop for LsmStore {
    fn drop(&mut self) {
        // A closed store no longer counts toward the shared gauges.
        publish_gauges(&self.metrics, &self.state, -1);
    }
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

/// One source of a merged read: the memtable's range, or one run read
/// from a start key up to the range's end. An enum rather than a boxed
/// iterator, so a read allocates nothing per run. (Its `Peekable` keeps
/// the first `None` it sees, so a run is not read past the end.)
enum MergeIter<'a> {
    Mem(btree_map::Range<'a, Vec<u8>, Option<Vec<u8>>>),
    Run(RunIter<'a>, Bound<&'a [u8]>),
}

impl<'a> Iterator for MergeIter<'a> {
    type Item = (&'a [u8], Option<&'a [u8]>);

    fn next(&mut self) -> Option<Self::Item> {
        match self {
            MergeIter::Mem(range) => range.next().map(|(k, v)| (k.as_slice(), v.as_deref())),
            MergeIter::Run(run, end) => run.next().filter(|(key, _)| within_end(key, end)),
        }
    }
}

type MergeSource<'a> = Peekable<MergeIter<'a>>;

/// K-way merge of sorted sources, youngest first: each key goes to `f`
/// once, with its youngest source's value (`None` = tombstone). `f`
/// returning `false` stops the iteration. Run entries stream straight out
/// of their resident encoded blocks, and nothing is allocated. Reads and
/// tier merges both walk their sources through here.
fn merged_for_each(
    mut sources: Vec<MergeSource<'_>>,
    mut f: impl FnMut(&[u8], Option<&[u8]>) -> bool,
) {
    loop {
        // Find the smallest key any source is looking at. Every source
        // borrows from the memtable or a run, so keys and values are
        // compared and handed on as borrowed slices, never copied.
        let mut min_key: Option<&[u8]> = None;
        for source in sources.iter_mut() {
            if let Some(&(k, _)) = source.peek() {
                if min_key.is_none_or(|m| k < m) {
                    min_key = Some(k);
                }
            }
        }
        let Some(key) = min_key else {
            return;
        };
        // Pop every source at that key; the youngest (first) wins.
        let mut chosen: Option<Option<&[u8]>> = None;
        for source in sources.iter_mut() {
            if let Some((_, v)) = source.next_if(|&(k, _)| k == key) {
                chosen.get_or_insert(v);
            }
        }
        if let Some(value) = chosen {
            if !f(key, value) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_opts() -> LsmOptions {
        LsmOptions {
            memtable_bytes: 1 << 30, // never auto-seal
            compact_min_runs: 64,    // never compact
        }
    }

    /// [`tiny_opts`], but a seal merges a tier of `min_runs` runs.
    fn merging_opts(min_runs: usize) -> LsmOptions {
        LsmOptions {
            compact_min_runs: min_runs,
            ..tiny_opts()
        }
    }

    fn levels(s: &LsmStore) -> Vec<u32> {
        s.run_levels().iter().map(|(_, l)| *l).collect()
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
        let mut s = LsmStore::open_memory_opts(merging_opts(2)).unwrap();
        s.attach_registry(&registry);
        s.put(b"a", b"1").unwrap();
        s.put(b"b", b"2").unwrap();
        s.seal().unwrap();
        assert_eq!(s.run_count(), 1);
        s.delete(b"a").unwrap();
        s.put(b"c", b"3").unwrap();
        // The second run readies the level-0 tier: this seal merges it.
        s.seal().unwrap();
        assert_eq!(s.run_count(), 1);
        assert_eq!(s.get(b"a").unwrap(), None);
        assert_eq!(s.get(b"b").unwrap(), Some(b"2".to_vec()));
        assert_eq!(s.get(b"c").unwrap(), Some(b"3".to_vec()));
        let merged = s.state.runs.first().unwrap();
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
        // value sits in an older (deeper) run, merge only the young tier,
        // and the key must stay deleted. The unguarded full-merge logic
        // dropped the tombstone here and resurrected `k`.
        let mut s = LsmStore::open_memory_opts(merging_opts(3)).unwrap();
        s.put(b"k", b"live").unwrap();
        for f in [b"f1", b"f2", b"f3"] {
            s.put(f, b"x").unwrap();
            s.seal().unwrap();
        }
        // Bottom merge: `k` now lives in a level-1 run.
        assert_eq!(levels(&s), vec![1]);
        s.delete(b"k").unwrap();
        for f in [b"f4", b"f5", b"f6"] {
            s.put(f, b"x").unwrap();
            s.seal().unwrap();
        }
        // The third seal merged ONLY the young level-0 tier: not a bottom
        // merge, so the tombstone survives into the merged run.
        assert_eq!(
            levels(&s),
            vec![1, 1],
            "young tier merged above the old run"
        );
        assert_eq!(
            s.get(b"k").unwrap(),
            None,
            "tier merge must not resurrect a deleted key"
        );
        let young = s.state.runs.first().unwrap();
        assert_eq!(young.run.entry_count(), 4, "f4–f6 and the tombstone");
        s.check().unwrap();
        // Three more seals ready level 0, then level 1: the second merge
        // reaches the bottom and may (and does) drop the tombstone.
        for f in [b"f7", b"f8", b"f9"] {
            s.put(f, b"x").unwrap();
            s.seal().unwrap();
        }
        assert_eq!(levels(&s), vec![2]);
        assert_eq!(s.get(b"k").unwrap(), None);
        assert_eq!(s.state.runs.first().unwrap().run.entry_count(), 9);
    }

    #[test]
    fn tiers_deepen_and_invariants_hold() {
        let mut s = LsmStore::open_memory_opts(merging_opts(2)).unwrap();
        // Each seal adds a level-0 run; every ready tier then merges one
        // level deeper, so the stack counts seals in binary.
        let want: [&[u32]; 6] = [&[0], &[1], &[0, 1], &[2], &[0, 2], &[1, 2]];
        for (round, want) in want.iter().enumerate() {
            s.put(format!("key-{round}").as_bytes(), b"v").unwrap();
            s.seal().unwrap();
            assert_eq!(levels(&s), *want, "after seal {}", round + 1);
            assert!(select_tier(&s.state.runs, 2).is_none());
            s.check().unwrap();
        }
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
            let mut s = LsmStore::open_with_dir(dir.clone(), merging_opts(2)).unwrap();
            for key in [b"a", b"b"] {
                s.put(key, b"1").unwrap();
                s.seal().unwrap();
            }
            s.put(b"c", b"2").unwrap();
            s.seal().unwrap();
        }
        let s = LsmStore::open_with_dir(dir, merging_opts(2)).unwrap();
        assert_eq!(levels(&s), vec![0, 1]);
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
        // Several stores may share one registry: with `set()` the last
        // writer won and Stats lied.
        let registry = MetricsRegistry::new();
        let gauge = |name: &str| registry.snapshot().gauge(name);
        let mut a = LsmStore::open_memory_opts(merging_opts(3)).unwrap();
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

        // A compaction in one store subtracts only what it merged away:
        // `a`'s third run readies its tier, and the seal merges all three.
        a.put(b"a3", b"x").unwrap();
        a.seal().unwrap();
        assert_eq!(a.run_count(), 1);
        assert_eq!(gauge("store.lsm.runs"), 2);
        // Levels is the deepest stack any store reached: `a` now holds a
        // level-1 run over nothing else, `b` one level-0 run.
        a.put(b"a4", b"x").unwrap();
        a.seal().unwrap();
        assert_eq!(gauge("store.lsm.levels"), 2);
        assert_eq!(gauge("store.lsm.runs"), 3);

        let snap = registry.snapshot();
        assert_eq!(snap.counter("store.kv.puts"), 4, "b1 twice, a3, a4");
        assert_eq!(
            snap.counter("store.lsm.seals"),
            4,
            "b, a, a, a (post-attach)"
        );
        assert_eq!(snap.counter("store.lsm.compactions"), 1);

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
    fn a_seal_that_readies_a_tier_merges_it_before_returning() {
        // A burst of puts, overwrites and deletes under a tiny memtable
        // seals every few writes, and the seals merge as they go. Every
        // read must see the newest write of its key, wherever that lies,
        // and no seal may return with a tier still ready.
        let opts = LsmOptions {
            memtable_bytes: 256,
            compact_min_runs: 2,
        };
        let mut s = LsmStore::open_memory_opts(opts).unwrap();
        let registry = MetricsRegistry::new();
        s.attach_registry(&registry);
        let all = |s: &LsmStore| s.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        let mut model: BTreeMap<Vec<u8>, Vec<u8>> = BTreeMap::new();
        for i in 0..400u32 {
            let k = format!("k{:03}", i % 80).into_bytes();
            let v = format!("w{i}").into_bytes();
            s.put(&k, &v).unwrap();
            model.insert(k.clone(), v);
            assert_eq!(s.get(&k).unwrap().as_ref(), model.get(&k), "op {i}");
            assert!(select_tier(&s.state.runs, 2).is_none(), "op {i}: tier left");
            if i % 16 == 15 {
                let k = format!("k{:03}", (i / 16) % 40).into_bytes();
                s.delete(&k).unwrap();
                model.remove(&k);
                assert_eq!(s.get(&k).unwrap(), None, "op {i}: delete");
                assert!(select_tier(&s.state.runs, 2).is_none(), "op {i}: tier left");
            }
            if i % 50 == 49 {
                let want: Vec<(Vec<u8>, Vec<u8>)> = model.clone().into_iter().collect();
                assert_eq!(all(&s), want, "op {i}: scan");
            }
        }
        let snap = registry.snapshot();
        assert!(snap.counter("store.lsm.seals") > 0);
        assert!(snap.counter("store.lsm.compactions") > 0);
        assert_eq!(snap.counter("store.lsm.compact.errors"), 0);
        for i in 0..80u32 {
            let k = format!("k{i:03}").into_bytes();
            assert_eq!(s.get(&k).unwrap().as_ref(), model.get(&k), "key {i}");
        }
        let want: Vec<(Vec<u8>, Vec<u8>)> = model.into_iter().collect();
        assert_eq!(all(&s), want, "after the merges");
        s.check().unwrap();
        drop(s);
        assert_eq!(registry.snapshot().gauge("store.lsm.runs"), 0);
        assert_eq!(registry.snapshot().gauge("store.lsm.memtable.bytes"), 0);
    }

    #[test]
    fn ranges_merge_correctly() {
        let mut s = LsmStore::open_memory_opts(tiny_opts()).unwrap();
        s.put(b"p/a", b"1").unwrap();
        s.put(b"p/b", b"2").unwrap();
        s.put(b"q/x", b"3").unwrap();
        s.seal().unwrap();
        s.put(b"p/b", b"2b").unwrap();
        s.put(b"p/c", b"4").unwrap();
        let got = s
            .scan(
                Bound::Included(b"p/".as_slice()),
                Bound::Excluded(b"p0".as_slice()),
            )
            .unwrap();
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
