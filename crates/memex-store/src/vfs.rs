//! The storage VFS: raw-byte backing for the WAL and the run files, plus the
//! deterministic fault-injection layer behind experiment F3's recovery
//! claims.
//!
//! The paper's server "recovers from network and programming errors
//! quickly, even if it has to discard a few client events" (§3). Making
//! that claim *testable* needs failure to be a first-class input, so every
//! byte the store persists flows through a small [`Storage`] trait with
//! three implementations:
//!
//! * [`FileStorage`] — a real file (production path);
//! * [`MemStorage`] — an in-memory byte vector that **models crash
//!   semantics**: writes land in a "page cache" until [`Storage::sync`]
//!   makes them durable, and [`MemHandle::crash`] discards an arbitrary
//!   (seeded-random) suffix of the unsynced writes — exactly what a power
//!   cut does to a real disk;
//! * [`FaultyStorage`] — a decorator over any storage that injects I/O
//!   errors, short (torn) writes and sync failures from a seeded schedule
//!   or from a scripted [`FaultControl`] handle.
//!
//! Everything is deterministic given a seed, so any failing recovery run
//! is reproducible from the seed in the log.

use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use memex_obs::{Counter, MetricsRegistry};

/// Raw-byte backing for a log or page file. Implementations must make
/// `read_exact_at` observe all earlier `write_all_at`s (ordinary
/// read-your-writes, as the OS page cache provides); durability across a
/// crash is only promised for bytes written before the last [`sync`].
///
/// [`sync`]: Storage::sync
///
/// `Send + Sync` because the serving layer shares whole subsystems built
/// on storage (index, KV) behind an `RwLock`; every implementation here is
/// either plain owned data or already `Arc<Mutex<…>>`-based.
pub trait Storage: Send + Sync {
    /// Current size in bytes (includes unsynced writes).
    fn len(&self) -> io::Result<u64>;

    /// Fill `buf` from `offset`; reading past the end is an error.
    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()>;

    /// Write all of `data` at `offset`, extending the backing if needed.
    /// A failing implementation may leave a *prefix* of `data` written —
    /// the torn-write case recovery must tolerate.
    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()>;

    /// Make every prior write durable.
    fn sync(&mut self) -> io::Result<()>;

    /// Truncate (or extend with zeros) to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;

    /// True when `len() == 0` (convenience; mirrors `is_empty` idiom).
    fn is_empty(&self) -> io::Result<bool> {
        Ok(self.len()? == 0)
    }
}

/// Boxed storages forward, so decorators like [`FaultyStorage`] can wrap
/// whatever a [`StorageDir`] hands out without knowing the concrete type.
impl<S: Storage + ?Sized> Storage for Box<S> {
    fn len(&self) -> io::Result<u64> {
        (**self).len()
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        (**self).read_exact_at(offset, buf)
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        (**self).write_all_at(offset, data)
    }

    fn sync(&mut self) -> io::Result<()> {
        (**self).sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        (**self).set_len(len)
    }
}

// ---------------------------------------------------------------------------
// File storage
// ---------------------------------------------------------------------------

/// Production storage: a real file.
pub struct FileStorage {
    file: File,
}

impl FileStorage {
    /// Open (or create) `path` read-write without truncating.
    pub fn open<P: AsRef<Path>>(path: P) -> io::Result<FileStorage> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        Ok(FileStorage { file })
    }
}

impl Storage for FileStorage {
    fn len(&self) -> io::Result<u64> {
        Ok(self.file.metadata()?.len())
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.read_exact(buf)
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let len = self.file.metadata()?.len();
        if offset > len {
            // Fill the gap so offsets stay meaningful.
            self.file.set_len(offset)?;
        }
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.file.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
}

// ---------------------------------------------------------------------------
// Memory storage with crash semantics
// ---------------------------------------------------------------------------

/// A write not yet made durable by a sync.
enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

struct MemInner {
    /// What a reader sees now (page cache + disk).
    current: Vec<u8>,
    /// What survives a crash with certainty (state as of the last sync).
    durable: Vec<u8>,
    /// Writes since the last sync, in order.
    pending: Vec<PendingOp>,
}

impl MemInner {
    fn apply(bytes: &mut Vec<u8>, op: &PendingOp, limit: Option<usize>) {
        match op {
            PendingOp::Write { offset, data } => {
                let src = limit.and_then(|n| data.get(..n)).unwrap_or(data);
                let off = *offset as usize;
                let end = off + src.len();
                if bytes.len() < end {
                    bytes.resize(end, 0);
                }
                if let Some(dst) = bytes.get_mut(off..end) {
                    dst.copy_from_slice(src);
                }
            }
            PendingOp::SetLen(len) => bytes.resize(*len as usize, 0),
        }
    }
}

/// In-memory [`Storage`] modelling an OS page cache over a disk.
pub struct MemStorage {
    inner: Arc<Mutex<MemInner>>,
}

/// A cloneable handle onto a [`MemStorage`]'s bytes, held by a test
/// harness while the store owns the storage itself. Supports simulating a
/// crash and re-reading the surviving bytes.
#[derive(Clone)]
pub struct MemHandle {
    inner: Arc<Mutex<MemInner>>,
}

impl MemStorage {
    /// Empty storage.
    pub fn new() -> MemStorage {
        MemStorage::from_bytes(Vec::new())
    }

    /// Storage pre-loaded with `bytes` (already durable).
    pub fn from_bytes(bytes: Vec<u8>) -> MemStorage {
        MemStorage {
            inner: Arc::new(Mutex::new(MemInner {
                current: bytes.clone(),
                durable: bytes,
                pending: Vec::new(),
            })),
        }
    }

    /// A harness-side handle onto this storage's bytes.
    pub fn handle(&self) -> MemHandle {
        MemHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// A storage view over an existing byte store (shared with any other
    /// views of the same file) — how [`MemDir`] re-opens a named file.
    fn from_inner(inner: Arc<Mutex<MemInner>>) -> MemStorage {
        MemStorage { inner }
    }
}

impl Default for MemStorage {
    fn default() -> Self {
        MemStorage::new()
    }
}

impl MemHandle {
    /// The bytes a reader would see right now (including unsynced writes).
    pub fn current_bytes(&self) -> Vec<u8> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .current
            .clone()
    }

    /// The bytes guaranteed to survive a crash (state at the last sync).
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .durable
            .clone()
    }

    /// Number of writes not yet covered by a sync.
    pub fn pending_ops(&self) -> usize {
        self.inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .pending
            .len()
    }

    /// Flip bits at `offset` (in both the cached and durable views) —
    /// models media corruption for recovery tests. Out-of-range offsets
    /// are ignored.
    pub fn corrupt(&self, offset: u64, xor: u8) {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let off = offset as usize;
        if let Some(b) = inner.current.get_mut(off) {
            *b ^= xor;
        }
        if let Some(b) = inner.durable.get_mut(off) {
            *b ^= xor;
        }
    }

    /// Simulate a crash: the durable state plus a seeded-random *prefix* of
    /// the pending writes survives; the final surviving write may itself be
    /// torn partway through. Returns the surviving bytes (also installed as
    /// the new current/durable state, with pending cleared — as if the
    /// machine rebooted).
    pub fn crash(&self, seed: u64) -> Vec<u8> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let mut rng = SplitMix64::new(seed);
        let keep = if inner.pending.is_empty() {
            0
        } else {
            (rng.next() % (inner.pending.len() as u64 + 1)) as usize
        };
        let mut survived = inner.durable.clone();
        for op in inner.pending.iter().take(keep) {
            MemInner::apply(&mut survived, op, None);
        }
        // Possibly tear the next write partway (a torn sector).
        if let Some(next) = inner.pending.get(keep) {
            if rng.next().is_multiple_of(2) {
                if let PendingOp::Write { data, .. } = next {
                    if !data.is_empty() {
                        let part = (rng.next() % data.len() as u64) as usize;
                        if part > 0 {
                            MemInner::apply(&mut survived, next, Some(part));
                        }
                    }
                }
            }
        }
        inner.current = survived.clone();
        inner.durable = survived.clone();
        inner.pending.clear();
        survived
    }
}

impl Storage for MemStorage {
    fn len(&self) -> io::Result<u64> {
        Ok(self
            .inner
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .current
            .len() as u64)
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        let inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let off = offset as usize;
        let Some(src) = inner.current.get(off..off + buf.len()) else {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "read past end of mem storage",
            ));
        };
        buf.copy_from_slice(src);
        Ok(())
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let op = PendingOp::Write {
            offset,
            data: data.to_vec(),
        };
        MemInner::apply(&mut inner.current, &op, None);
        inner.pending.push(op);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        inner.durable = inner.current.clone();
        inner.pending.clear();
        Ok(())
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let mut inner = self.inner.lock().unwrap_or_else(|e| e.into_inner());
        let op = PendingOp::SetLen(len);
        MemInner::apply(&mut inner.current, &op, None);
        inner.pending.push(op);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Seeded fault schedule: each probability is expressed per 10 000
/// operations, so the schedule is integer-deterministic across platforms.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    pub seed: u64,
    /// Probability (per 10 000 reads) of an injected read error.
    pub read_err_per_10k: u32,
    /// Probability (per 10 000 writes) of an injected write error
    /// (nothing written).
    pub write_err_per_10k: u32,
    /// Probability (per 10 000 writes) of a short write: a prefix lands,
    /// then the write errors — the torn-write case.
    pub short_write_per_10k: u32,
    /// Probability (per 10 000 syncs) of a sync failure.
    pub sync_err_per_10k: u32,
}

/// Scripted one-shot faults plus injection counters, shared between the
/// [`FaultyStorage`] (owned by the store) and the test driving it.
#[derive(Default)]
struct FaultScript {
    fail_next_writes: u32,
    fail_next_syncs: u32,
    /// Syncs to let through before `fail_next_syncs` starts biting —
    /// lets a schedule target the K-th sync barrier inside a compound
    /// operation (checkpoint, seal, compaction).
    skip_syncs: u32,
    fail_next_set_lens: u32,
    /// Tear the next write after this many bytes (one-shot).
    tear_next_write_at: Option<usize>,
    injected_read_errors: u64,
    injected_write_errors: u64,
    injected_short_writes: u64,
    injected_sync_errors: u64,
    // Obs mirrors (inert until attach_registry).
    c_read: Counter,
    c_write: Counter,
    c_short: Counter,
    c_sync: Counter,
}

/// Cloneable control handle for a [`FaultyStorage`]: script one-shot
/// faults and read injection counters while the store owns the storage.
#[derive(Clone, Default)]
pub struct FaultControl {
    script: Arc<Mutex<FaultScript>>,
}

impl FaultControl {
    /// Fail the next `n` writes with an I/O error (nothing written).
    pub fn fail_next_writes(&self, n: u32) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fail_next_writes = n;
    }

    /// Fail the next `n` syncs.
    pub fn fail_next_syncs(&self, n: u32) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fail_next_syncs = n;
    }

    /// Let `skip` syncs through, then fail the following `n` — targets
    /// the (skip+1)-th sync barrier of a compound operation.
    pub fn fail_syncs_after(&self, skip: u32, n: u32) {
        let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
        s.skip_syncs = skip;
        s.fail_next_syncs = n;
    }

    /// Fail the next `n` `set_len` calls.
    pub fn fail_next_set_lens(&self, n: u32) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .fail_next_set_lens = n;
    }

    /// Tear the next write: `prefix` bytes land, then it errors.
    pub fn tear_next_write(&self, prefix: usize) {
        self.script
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .tear_next_write_at = Some(prefix);
    }

    /// (read, write, short-write, sync) errors injected so far.
    pub fn injected(&self) -> (u64, u64, u64, u64) {
        let s = self.script.lock().unwrap_or_else(|e| e.into_inner());
        (
            s.injected_read_errors,
            s.injected_write_errors,
            s.injected_short_writes,
            s.injected_sync_errors,
        )
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        let (r, w, s, y) = self.injected();
        r + w + s + y
    }

    /// Mirror injection counts into `registry` (`fault.injected.*`).
    /// Counter registration takes the registry's slot lock, so it happens
    /// before the script lock — never nested inside it.
    pub fn attach_registry(&self, registry: &MetricsRegistry) {
        let c_read = registry.counter("fault.injected.read_errors");
        let c_write = registry.counter("fault.injected.write_errors");
        let c_short = registry.counter("fault.injected.short_writes");
        let c_sync = registry.counter("fault.injected.sync_errors");
        let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
        s.c_read = c_read;
        s.c_write = c_write;
        s.c_short = c_short;
        s.c_sync = c_sync;
    }
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// Decorator that injects faults into any [`Storage`] from a seeded
/// schedule and/or a scripted [`FaultControl`].
pub struct FaultyStorage<S> {
    inner: S,
    cfg: FaultConfig,
    rng: SplitMix64,
    control: FaultControl,
}

impl<S: Storage> FaultyStorage<S> {
    pub fn new(inner: S, cfg: FaultConfig) -> FaultyStorage<S> {
        FaultyStorage::with_control(inner, cfg, FaultControl::default())
    }

    /// Like [`FaultyStorage::new`] but sharing an existing control handle,
    /// so every file a [`FaultyDir`] opens answers to one script and one
    /// set of injection counters.
    pub fn with_control(inner: S, cfg: FaultConfig, control: FaultControl) -> FaultyStorage<S> {
        FaultyStorage {
            inner,
            rng: SplitMix64::new(cfg.seed),
            cfg,
            control,
        }
    }

    /// The control handle (clone it before boxing the storage).
    pub fn control(&self) -> FaultControl {
        self.control.clone()
    }

    fn roll(&mut self, per_10k: u32) -> bool {
        per_10k > 0 && self.rng.next() % 10_000 < u64::from(per_10k)
    }
}

impl<S: Storage> Storage for FaultyStorage<S> {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        if self.roll(self.cfg.read_err_per_10k) {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.injected_read_errors += 1;
            s.c_read.inc();
            return Err(injected_err("read"));
        }
        self.inner.read_exact_at(offset, buf)
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let scripted_fail = {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if s.fail_next_writes > 0 {
                s.fail_next_writes -= 1;
                true
            } else {
                false
            }
        };
        if scripted_fail || self.roll(self.cfg.write_err_per_10k) {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.injected_write_errors += 1;
            s.c_write.inc();
            return Err(injected_err("write"));
        }
        let tear_at = {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.tear_next_write_at.take()
        };
        let tear_at = match tear_at {
            Some(t) => Some(t),
            None if self.roll(self.cfg.short_write_per_10k) && !data.is_empty() => {
                Some((self.rng.next() % data.len() as u64) as usize)
            }
            None => None,
        };
        if let Some(t) = tear_at {
            // A prefix lands, then the device gives up.
            self.inner
                .write_all_at(offset, data.get(..t).unwrap_or(data))?;
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.injected_short_writes += 1;
            s.c_short.inc();
            return Err(injected_err("short write"));
        }
        self.inner.write_all_at(offset, data)
    }

    fn sync(&mut self) -> io::Result<()> {
        let scripted = {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if s.skip_syncs > 0 {
                s.skip_syncs -= 1;
                false
            } else if s.fail_next_syncs > 0 {
                s.fail_next_syncs -= 1;
                true
            } else {
                false
            }
        };
        if scripted || self.roll(self.cfg.sync_err_per_10k) {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.injected_sync_errors += 1;
            s.c_sync.inc();
            return Err(injected_err("sync"));
        }
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        let scripted = {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if s.fail_next_set_lens > 0 {
                s.fail_next_set_lens -= 1;
                true
            } else {
                false
            }
        };
        if scripted {
            let mut s = self
                .control
                .script
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            s.injected_write_errors += 1;
            s.c_write.inc();
            return Err(injected_err("set_len"));
        }
        self.inner.set_len(len)
    }
}

// ---------------------------------------------------------------------------
// Directory storage
// ---------------------------------------------------------------------------

/// A flat namespace of named [`Storage`] files — what the LSM engine
/// stores its runs and manifest in. Three implementations mirror the
/// single-file story: [`FileDir`] (a real directory), [`MemDir`]
/// (in-memory, per-file crash semantics), and [`FaultyDir`] (injects
/// faults into every file it opens from one shared schedule/script).
pub trait StorageDir: Send + Sync {
    /// Open (or create) the named file.
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>>;

    /// Does the named file exist?
    fn exists(&self, name: &str) -> io::Result<bool>;

    /// Delete the named file. Deleting a missing file is an error, so
    /// recovery can distinguish "cleaned up" from "never existed".
    fn remove(&self, name: &str) -> io::Result<()>;

    /// Names of every file in the directory, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
}

/// FNV-1a, used to derive stable per-file seeds from a directory seed so
/// fault schedules and crash outcomes are reproducible per file name.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Production directory: real files under a root path.
pub struct FileDir {
    root: PathBuf,
}

impl FileDir {
    /// Open `root`, creating the directory if needed.
    pub fn open<P: AsRef<Path>>(root: P) -> io::Result<FileDir> {
        std::fs::create_dir_all(&root)?;
        Ok(FileDir {
            root: root.as_ref().to_path_buf(),
        })
    }
}

impl StorageDir for FileDir {
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        Ok(Box::new(FileStorage::open(self.root.join(name))?))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        Ok(self.root.join(name).exists())
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        std::fs::remove_file(self.root.join(name))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }
}

type MemFiles = Arc<Mutex<BTreeMap<String, Arc<Mutex<MemInner>>>>>;

/// In-memory [`StorageDir`] whose files are [`MemStorage`]s — each file
/// keeps the page-cache crash model, and [`MemDirHandle::crash`] crashes
/// them all at once with per-file seeded outcomes. Clones share the same
/// files, so a harness can reopen a store over the directory it crashed.
#[derive(Clone)]
pub struct MemDir {
    files: MemFiles,
}

/// Harness-side handle onto a [`MemDir`]: crash the whole directory, or
/// reach into a single file's bytes.
#[derive(Clone)]
pub struct MemDirHandle {
    files: MemFiles,
}

impl MemDir {
    pub fn new() -> MemDir {
        MemDir {
            files: Arc::new(Mutex::new(BTreeMap::new())),
        }
    }

    pub fn handle(&self) -> MemDirHandle {
        MemDirHandle {
            files: Arc::clone(&self.files),
        }
    }
}

impl Default for MemDir {
    fn default() -> Self {
        MemDir::new()
    }
}

impl StorageDir for MemDir {
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        let mut files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        let inner = files.entry(name.to_string()).or_insert_with(|| {
            Arc::new(Mutex::new(MemInner {
                current: Vec::new(),
                durable: Vec::new(),
                pending: Vec::new(),
            }))
        });
        Ok(Box::new(MemStorage::from_inner(Arc::clone(inner))))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        Ok(files.contains_key(name))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        let mut files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        match files.remove(name) {
            Some(_) => Ok(()),
            None => Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("no such mem file: {name}"),
            )),
        }
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        Ok(files.keys().cloned().collect())
    }
}

impl MemDirHandle {
    /// Simulate a whole-machine crash: every file independently keeps its
    /// durable state plus a seeded prefix of its pending writes (the last
    /// surviving write possibly torn), exactly as [`MemHandle::crash`]
    /// does for one file. Per-file outcomes derive from `seed ^
    /// fnv64(name)`, so a run is reproducible from the directory seed.
    ///
    /// Independence across files is the right adversary here: the store's
    /// durability protocol may only rely on explicit sync barriers, never
    /// on cross-file write ordering.
    pub fn crash(&self, seed: u64) {
        let entries: Vec<(String, Arc<Mutex<MemInner>>)> = {
            let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
            files
                .iter()
                .map(|(name, inner)| (name.clone(), Arc::clone(inner)))
                .collect()
        };
        for (name, inner) in entries {
            let handle = MemHandle { inner };
            handle.crash(seed ^ fnv64(name.as_bytes()));
        }
    }

    /// A byte-level handle onto one file, if it exists.
    pub fn file(&self, name: &str) -> Option<MemHandle> {
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        files.get(name).map(|inner| MemHandle {
            inner: Arc::clone(inner),
        })
    }

    /// Current file names, sorted.
    pub fn names(&self) -> Vec<String> {
        let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        files.keys().cloned().collect()
    }
}

/// Decorator that wraps every file another [`StorageDir`] opens in a
/// [`FaultyStorage`] sharing one [`FaultControl`] and one seeded
/// schedule (per-file seeds derive from the file name, so outcomes are
/// stable across runs regardless of open order).
pub struct FaultyDir<D> {
    inner: D,
    cfg: FaultConfig,
    control: FaultControl,
}

impl<D: StorageDir> FaultyDir<D> {
    pub fn new(inner: D, cfg: FaultConfig) -> FaultyDir<D> {
        FaultyDir {
            inner,
            cfg,
            control: FaultControl::default(),
        }
    }

    /// The shared control handle (clone it before boxing the dir).
    pub fn control(&self) -> FaultControl {
        self.control.clone()
    }
}

impl<D: StorageDir> StorageDir for FaultyDir<D> {
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        let storage = self.inner.open(name)?;
        let cfg = FaultConfig {
            seed: self.cfg.seed ^ fnv64(name.as_bytes()),
            ..self.cfg
        };
        Ok(Box::new(FaultyStorage::with_control(
            storage,
            cfg,
            self.control.clone(),
        )))
    }

    fn exists(&self, name: &str) -> io::Result<bool> {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

// ---------------------------------------------------------------------------
// Deterministic RNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, and identical on every platform — fault
/// schedules derived from it are reproducible from the seed alone.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64 {
            state: seed ^ 0x9E37_79B9_7F4A_7C15,
        }
    }

    #[allow(clippy::should_implement_trait)] // an RNG step, not an iterator
    pub fn next(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_storage_read_your_writes() {
        let mut s = MemStorage::new();
        s.write_all_at(0, b"hello").unwrap();
        s.write_all_at(5, b" world").unwrap();
        let mut buf = [0u8; 11];
        s.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"hello world");
        assert_eq!(s.len().unwrap(), 11);
        assert!(s.read_exact_at(6, &mut [0u8; 11]).is_err());
    }

    #[test]
    fn crash_discards_unsynced_suffix_only() {
        for seed in 0..32u64 {
            let mut s = MemStorage::new();
            let h = s.handle();
            s.write_all_at(0, b"durable!").unwrap();
            s.sync().unwrap();
            s.write_all_at(8, b"maybe").unwrap();
            s.write_all_at(13, b"lost").unwrap();
            let survived = h.crash(seed);
            assert!(survived.starts_with(b"durable!"), "synced prefix survives");
            assert!(survived.len() >= 8 && survived.len() <= 17);
            if survived.len() > 13 {
                // Writes survive in order: the second one (even torn) implies
                // the first landed whole.
                assert_eq!(&survived[8..13], b"maybe");
            }
        }
    }

    #[test]
    fn crash_is_deterministic_per_seed() {
        let stage = || {
            let s = MemStorage::new();
            let h = s.handle();
            let mut s = s;
            s.write_all_at(0, b"base").unwrap();
            s.sync().unwrap();
            for i in 0..5u8 {
                s.write_all_at(4 + u64::from(i) * 3, &[i; 3]).unwrap();
            }
            h
        };
        assert_eq!(stage().crash(42), stage().crash(42));
    }

    #[test]
    fn faulty_storage_scripted_faults_fire_once() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultConfig::default());
        let ctl = s.control();
        ctl.fail_next_writes(1);
        assert!(s.write_all_at(0, b"x").is_err());
        assert!(s.write_all_at(0, b"x").is_ok());
        ctl.fail_next_syncs(2);
        assert!(s.sync().is_err());
        assert!(s.sync().is_err());
        assert!(s.sync().is_ok());
        assert_eq!(ctl.injected(), (0, 1, 0, 2));
    }

    #[test]
    fn faulty_storage_tears_writes() {
        let mut s = FaultyStorage::new(MemStorage::new(), FaultConfig::default());
        let ctl = s.control();
        ctl.tear_next_write(3);
        assert!(s.write_all_at(0, b"abcdef").is_err());
        assert_eq!(s.len().unwrap(), 3, "prefix landed before the error");
        let mut buf = [0u8; 3];
        s.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"abc");
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed: u64| {
            let cfg = FaultConfig {
                seed,
                write_err_per_10k: 2_000,
                short_write_per_10k: 1_000,
                sync_err_per_10k: 1_500,
                ..FaultConfig::default()
            };
            let mut s = FaultyStorage::new(MemStorage::new(), cfg);
            let ctl = s.control();
            let mut outcome = Vec::new();
            for i in 0..200u64 {
                outcome.push(s.write_all_at(i * 4, &[1, 2, 3, 4]).is_ok());
                if i % 10 == 0 {
                    outcome.push(s.sync().is_ok());
                }
            }
            (outcome, ctl.injected_total())
        };
        assert_eq!(run(7), run(7));
        let (_, injected) = run(7);
        assert!(injected > 0, "schedule at 20%+ must fire over 200 ops");
        assert_ne!(run(7).0, run(8).0, "different seeds, different schedule");
    }

    #[test]
    fn mem_dir_round_trip_and_remove() {
        let dir = MemDir::new();
        {
            let mut f = dir.open("a").unwrap();
            f.write_all_at(0, b"alpha").unwrap();
            f.sync().unwrap();
        }
        {
            let mut f = dir.open("b").unwrap();
            f.write_all_at(0, b"beta").unwrap();
        }
        assert_eq!(dir.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        assert!(dir.exists("a").unwrap());
        // Re-opening sees the same bytes.
        let mut f = dir.open("a").unwrap();
        let mut buf = [0u8; 5];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(&buf, b"alpha");
        dir.remove("b").unwrap();
        assert!(!dir.exists("b").unwrap());
        assert!(dir.remove("b").is_err(), "double remove is an error");
    }

    #[test]
    fn mem_dir_crash_keeps_synced_files_and_is_deterministic() {
        let stage = || {
            let dir = MemDir::new();
            let h = dir.handle();
            let mut a = dir.open("a").unwrap();
            a.write_all_at(0, b"durable").unwrap();
            a.sync().unwrap();
            let mut b = dir.open("b").unwrap();
            b.write_all_at(0, b"pending-bytes").unwrap();
            h
        };
        let h1 = stage();
        h1.crash(42);
        assert_eq!(
            h1.file("a").unwrap().current_bytes(),
            b"durable".to_vec(),
            "synced file survives whole"
        );
        let b1 = h1.file("b").unwrap().current_bytes();
        assert!(
            b1.len() <= 13,
            "unsynced file keeps at most what was written"
        );
        let h2 = stage();
        h2.crash(42);
        assert_eq!(
            b1,
            h2.file("b").unwrap().current_bytes(),
            "same seed, same outcome"
        );
    }

    #[test]
    fn faulty_dir_scripts_apply_across_files() {
        let dir = FaultyDir::new(MemDir::new(), FaultConfig::default());
        let ctl = dir.control();
        let mut a = dir.open("a").unwrap();
        let mut b = dir.open("b").unwrap();
        ctl.fail_next_writes(1);
        assert!(a.write_all_at(0, b"x").is_err(), "script hits first writer");
        assert!(b.write_all_at(0, b"y").is_ok(), "one-shot script is spent");
        assert_eq!(ctl.injected(), (0, 1, 0, 0));
    }

    #[test]
    fn file_dir_round_trip() {
        let mut p = std::env::temp_dir();
        p.push(format!("memex-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        let dir = FileDir::open(&p).unwrap();
        {
            let mut f = dir.open("run-1").unwrap();
            f.write_all_at(0, b"contents").unwrap();
            f.sync().unwrap();
        }
        assert_eq!(dir.list().unwrap(), vec!["run-1".to_string()]);
        assert!(dir.exists("run-1").unwrap());
        dir.remove("run-1").unwrap();
        assert!(dir.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&p);
    }

    #[test]
    fn file_storage_round_trip() {
        let mut p = std::env::temp_dir();
        p.push(format!("memex-vfs-{}.bin", std::process::id()));
        let _ = std::fs::remove_file(&p);
        {
            let mut s = FileStorage::open(&p).unwrap();
            s.write_all_at(0, b"0123456789").unwrap();
            s.sync().unwrap();
            s.set_len(6).unwrap();
        }
        {
            let mut s = FileStorage::open(&p).unwrap();
            assert_eq!(s.len().unwrap(), 6);
            let mut buf = [0u8; 6];
            s.read_exact_at(0, &mut buf).unwrap();
            assert_eq!(&buf, b"012345");
        }
        let _ = std::fs::remove_file(&p);
    }
}
