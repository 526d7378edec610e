//! The storage VFS: raw-byte backing for the WAL, the manifest and the run
//! files, plus the deterministic fault-injection layer behind the store's
//! recovery claims.
//!
//! The paper's server "recovers from network and programming errors
//! quickly, even if it has to discard a few client events" (§3). Making
//! that claim *testable* needs failure to be a first-class input, so every
//! byte the store persists goes to a named [`Storage`] file opened through
//! a [`StorageDir`], of which there are three:
//!
//! * [`FileDir`] — a real directory whose files are [`std::fs::File`]s;
//! * [`MemDir`] — in-memory files that **model crash semantics**: writes
//!   land in a "page cache" until [`Storage::sync`] makes them durable, and
//!   [`MemDir::crash`] keeps each file's durable bytes plus a
//!   (seeded-random) prefix of its unsynced writes, the last one possibly
//!   torn — exactly what a power cut does to a real disk. The served stores
//!   run on these files;
//! * [`FaultyDir`] — wraps every file another directory opens and injects
//!   write errors, short (torn) writes and sync failures from a seeded
//!   schedule or from a scripted [`FaultControl`].
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
#[allow(clippy::len_without_is_empty)] // a fallible length; nothing asks for emptiness
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
}

/// A flat namespace of named [`Storage`] files — what the LSM engine
/// stores its WAL, manifest and runs in, and the only way to get a
/// [`Storage`].
pub trait StorageDir: Send + Sync {
    /// Open (or create) the named file.
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>>;

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

// ---------------------------------------------------------------------------
// Real files
// ---------------------------------------------------------------------------

/// Production storage: a real file, as [`FileDir`] opens it.
impl Storage for File {
    fn len(&self) -> io::Result<u64> {
        Ok(self.metadata()?.len())
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.seek(SeekFrom::Start(offset))?;
        self.read_exact(buf)
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        // Seeking past the end and writing leaves a zero-filled gap.
        self.seek(SeekFrom::Start(offset))?;
        self.write_all(data)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.sync_data()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        // Path-qualified: `self.set_len` would resolve to this method.
        File::set_len(self, len)
    }
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
    /// Open (or create) the file read-write without truncating it.
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.root.join(name))?;
        Ok(Box::new(file))
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

// ---------------------------------------------------------------------------
// In-memory files with crash semantics
// ---------------------------------------------------------------------------

/// A write not yet made durable by a sync.
enum PendingOp {
    Write { offset: u64, data: Vec<u8> },
    SetLen(u64),
}

#[derive(Default)]
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

/// One in-memory file modelling an OS page cache over a disk. Clones share
/// the bytes: [`MemDir`] keeps one and hands a clone to every opener.
#[derive(Clone, Default)]
struct MemFile {
    inner: Arc<Mutex<MemInner>>,
}

impl MemFile {
    /// Power cut: the durable state plus a seeded-random *prefix* of the
    /// pending writes survives, and the next write may itself be torn
    /// partway. The survivors become the new current and durable state,
    /// with nothing pending — as if the machine rebooted.
    fn crash(&self, seed: u64) {
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
        inner.durable = survived;
        inner.pending.clear();
    }
}

impl Storage for MemFile {
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
                "read past end of mem file",
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

/// In-memory [`StorageDir`]: each file keeps the page-cache crash model,
/// and [`MemDir::crash`] crashes them all at once with per-file seeded
/// outcomes. Clones share the same files, so a harness can keep one,
/// crash it, and reopen a store over what survived.
#[derive(Clone, Default)]
pub struct MemDir {
    files: Arc<Mutex<BTreeMap<String, MemFile>>>,
}

impl MemDir {
    pub fn new() -> MemDir {
        MemDir::default()
    }

    /// Simulate a whole-machine crash: every file independently keeps its
    /// durable state plus a seeded prefix of its pending writes (the last
    /// surviving write possibly torn). Per-file outcomes derive from
    /// `seed ^ fnv64(name)`, so a run is reproducible from the directory
    /// seed.
    ///
    /// Independence across files is the right adversary here: the store's
    /// durability protocol may only rely on explicit sync barriers, never
    /// on cross-file write ordering.
    pub fn crash(&self, seed: u64) {
        let files: Vec<(String, MemFile)> = {
            let files = self.files.lock().unwrap_or_else(|e| e.into_inner());
            files
                .iter()
                .map(|(name, file)| (name.clone(), file.clone()))
                .collect()
        };
        for (name, file) in files {
            file.crash(seed ^ fnv64(name.as_bytes()));
        }
    }
}

impl StorageDir for MemDir {
    fn open(&self, name: &str) -> io::Result<Box<dyn Storage>> {
        let mut files = self.files.lock().unwrap_or_else(|e| e.into_inner());
        Ok(Box::new(files.entry(name.to_string()).or_default().clone()))
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

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// Seeded fault schedule: each probability is expressed per 10 000
/// operations, so the schedule is integer-deterministic across platforms.
/// Reads are never faulted: replay must be able to see what survived.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultConfig {
    pub seed: u64,
    /// Probability (per 10 000 writes) of an injected write error
    /// (nothing written).
    pub write_err_per_10k: u32,
    /// Probability (per 10 000 writes) of a short write: a prefix lands,
    /// then the write errors — the torn-write case.
    pub short_write_per_10k: u32,
    /// Probability (per 10 000 syncs) of a sync failure.
    pub sync_err_per_10k: u32,
}

/// Scripted one-shot faults plus injection counters, shared by every file
/// a [`FaultyDir`] opens and the test driving it.
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
    injected_write_errors: u64,
    injected_short_writes: u64,
    injected_sync_errors: u64,
    // Obs mirrors (inert until attach_registry).
    c_write: Counter,
    c_short: Counter,
    c_sync: Counter,
}

impl FaultScript {
    fn write_error(&mut self, what: &str) -> io::Error {
        self.injected_write_errors += 1;
        self.c_write.inc();
        injected_err(what)
    }
}

/// Spend one shot of a scripted fault: true when one was armed.
fn take_one(shots: &mut u32) -> bool {
    let armed = *shots > 0;
    *shots = shots.saturating_sub(1);
    armed
}

/// Cloneable control handle for a [`FaultyDir`]: script one-shot faults
/// and read injection counters while the store owns the directory.
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

    /// (write, short-write, sync) errors injected so far.
    pub fn injected(&self) -> (u64, u64, u64) {
        let s = self.script.lock().unwrap_or_else(|e| e.into_inner());
        (
            s.injected_write_errors,
            s.injected_short_writes,
            s.injected_sync_errors,
        )
    }

    /// Total faults injected so far.
    pub fn injected_total(&self) -> u64 {
        let (w, s, y) = self.injected();
        w + s + y
    }

    /// Mirror injection counts into `registry` (`fault.injected.*`).
    /// Counter registration takes the registry's slot lock, so it happens
    /// before the script lock — never nested inside it.
    pub fn attach_registry(&self, registry: &MetricsRegistry) {
        let c_write = registry.counter("fault.injected.write_errors");
        let c_short = registry.counter("fault.injected.short_writes");
        let c_sync = registry.counter("fault.injected.sync_errors");
        let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
        s.c_write = c_write;
        s.c_short = c_short;
        s.c_sync = c_sync;
    }
}

fn injected_err(what: &str) -> io::Error {
    io::Error::other(format!("injected fault: {what}"))
}

/// Does this operation draw the fault? A zero probability consumes no
/// roll, so switching one fault kind off never shifts another's stream.
fn roll(rng: &mut SplitMix64, per_10k: u32) -> bool {
    per_10k > 0 && rng.next() % 10_000 < u64::from(per_10k)
}

/// Decorator that wraps every file another [`StorageDir`] opens in a
/// faulty file answering to one shared [`FaultControl`] and one seeded
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
        Ok(Box::new(FaultyFile {
            inner: self.inner.open(name)?,
            cfg: self.cfg,
            rng: SplitMix64::new(self.cfg.seed ^ fnv64(name.as_bytes())),
            script: Arc::clone(&self.control.script),
        }))
    }

    fn remove(&self, name: &str) -> io::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }
}

/// One file of a [`FaultyDir`]. Each operation decides its fault under a
/// single script lock, releases it, and only then touches the inner file.
struct FaultyFile {
    inner: Box<dyn Storage>,
    cfg: FaultConfig,
    rng: SplitMix64,
    script: Arc<Mutex<FaultScript>>,
}

impl Storage for FaultyFile {
    fn len(&self) -> io::Result<u64> {
        self.inner.len()
    }

    fn read_exact_at(&mut self, offset: u64, buf: &mut [u8]) -> io::Result<()> {
        self.inner.read_exact_at(offset, buf)
    }

    fn write_all_at(&mut self, offset: u64, data: &[u8]) -> io::Result<()> {
        let tear_at = {
            let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
            if take_one(&mut s.fail_next_writes) || roll(&mut self.rng, self.cfg.write_err_per_10k)
            {
                return Err(s.write_error("write"));
            }
            let tear_at = match s.tear_next_write_at.take() {
                Some(t) => Some(t),
                None if roll(&mut self.rng, self.cfg.short_write_per_10k) && !data.is_empty() => {
                    Some((self.rng.next() % data.len() as u64) as usize)
                }
                None => None,
            };
            if tear_at.is_some() {
                s.injected_short_writes += 1;
                s.c_short.inc();
            }
            tear_at
        };
        match tear_at {
            // A prefix lands, then the device gives up.
            Some(t) => {
                self.inner
                    .write_all_at(offset, data.get(..t).unwrap_or(data))?;
                Err(injected_err("short write"))
            }
            None => self.inner.write_all_at(offset, data),
        }
    }

    fn sync(&mut self) -> io::Result<()> {
        {
            let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
            let scripted = !take_one(&mut s.skip_syncs) && take_one(&mut s.fail_next_syncs);
            if scripted || roll(&mut self.rng, self.cfg.sync_err_per_10k) {
                s.injected_sync_errors += 1;
                s.c_sync.inc();
                return Err(injected_err("sync"));
            }
        }
        self.inner.sync()
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        {
            let mut s = self.script.lock().unwrap_or_else(|e| e.into_inner());
            if take_one(&mut s.fail_next_set_lens) {
                return Err(s.write_error("set_len"));
            }
        }
        self.inner.set_len(len)
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

/// File helpers for the unit tests of the layers above: build and inspect
/// files through [`Storage`] itself.
#[cfg(test)]
pub(crate) mod test_files {
    use super::{MemDir, Storage, StorageDir};

    /// A file of a fresh [`MemDir`] holding `bytes` (written, not synced).
    pub fn mem_file(bytes: &[u8]) -> Box<dyn Storage> {
        let mut f = MemDir::new().open("file").unwrap();
        f.write_all_at(0, bytes).unwrap();
        f
    }

    /// Every byte a reader sees now.
    pub fn read_all(f: &mut dyn Storage) -> Vec<u8> {
        let mut bytes = vec![0u8; f.len().unwrap() as usize];
        f.read_exact_at(0, &mut bytes).unwrap();
        bytes
    }

    /// Flip bits of the byte at `offset` — media corruption.
    pub fn flip(f: &mut dyn Storage, offset: u64, xor: u8) {
        let mut b = [0u8];
        f.read_exact_at(offset, &mut b).unwrap();
        f.write_all_at(offset, &[b[0] ^ xor]).unwrap();
    }
}

#[cfg(test)]
mod tests {
    use super::test_files::read_all;
    use super::*;

    fn bytes_of(dir: &dyn StorageDir, name: &str) -> Vec<u8> {
        read_all(dir.open(name).unwrap().as_mut())
    }

    #[test]
    fn mem_file_read_your_writes() {
        let mut s = MemDir::new().open("f").unwrap();
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
            let dir = MemDir::new();
            let mut s = dir.open("f").unwrap();
            s.write_all_at(0, b"durable!").unwrap();
            s.sync().unwrap();
            s.write_all_at(8, b"maybe").unwrap();
            s.write_all_at(13, b"lost").unwrap();
            dir.crash(seed);
            let survived = read_all(s.as_mut());
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
    fn faulty_dir_scripted_faults_fire_once() {
        let dir = FaultyDir::new(MemDir::new(), FaultConfig::default());
        let ctl = dir.control();
        let mut s = dir.open("f").unwrap();
        ctl.fail_next_writes(1);
        assert!(s.write_all_at(0, b"x").is_err());
        assert!(s.write_all_at(0, b"x").is_ok());
        ctl.fail_syncs_after(0, 2);
        assert!(s.sync().is_err());
        assert!(s.sync().is_err());
        assert!(s.sync().is_ok());
        assert_eq!(ctl.injected(), (1, 0, 2));
    }

    #[test]
    fn faulty_dir_tears_writes() {
        let dir = FaultyDir::new(MemDir::new(), FaultConfig::default());
        let ctl = dir.control();
        let mut s = dir.open("f").unwrap();
        ctl.tear_next_write(3);
        assert!(s.write_all_at(0, b"abcdef").is_err());
        assert_eq!(s.len().unwrap(), 3, "prefix landed before the error");
        assert_eq!(read_all(s.as_mut()), b"abc");
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed: u64| {
            let cfg = FaultConfig {
                seed,
                write_err_per_10k: 2_000,
                short_write_per_10k: 1_000,
                sync_err_per_10k: 1_500,
            };
            let dir = FaultyDir::new(MemDir::new(), cfg);
            let ctl = dir.control();
            let mut s = dir.open("f").unwrap();
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
        // Re-opening sees the same bytes.
        assert_eq!(bytes_of(&dir, "a"), b"alpha");
        dir.remove("b").unwrap();
        assert_eq!(dir.list().unwrap(), vec!["a".to_string()]);
        assert!(dir.remove("b").is_err(), "double remove is an error");
    }

    #[test]
    fn mem_dir_crash_keeps_synced_files_and_is_deterministic() {
        let stage = || {
            let dir = MemDir::new();
            let mut a = dir.open("a").unwrap();
            a.write_all_at(0, b"durable").unwrap();
            a.sync().unwrap();
            let mut b = dir.open("b").unwrap();
            b.write_all_at(0, b"pending-bytes").unwrap();
            dir
        };
        let d1 = stage();
        d1.crash(42);
        assert_eq!(bytes_of(&d1, "a"), b"durable", "synced file survives whole");
        let b1 = bytes_of(&d1, "b");
        assert!(
            b1.len() <= 13,
            "unsynced file keeps at most what was written"
        );
        let d2 = stage();
        d2.crash(42);
        assert_eq!(b1, bytes_of(&d2, "b"), "same seed, same outcome");
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
        assert_eq!(ctl.injected(), (1, 0, 0));
    }

    #[test]
    fn file_dir_round_trip() {
        let mut p = std::env::temp_dir();
        p.push(format!("memex-dir-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        let dir = FileDir::open(&p).unwrap();
        {
            let mut f = dir.open("run-1").unwrap();
            f.write_all_at(0, b"0123456789").unwrap();
            f.sync().unwrap();
            f.set_len(6).unwrap();
            f.write_all_at(8, b"xy").unwrap();
        }
        assert_eq!(dir.list().unwrap(), vec!["run-1".to_string()]);
        assert_eq!(
            bytes_of(&dir, "run-1"),
            b"012345\0\0xy",
            "reopen sees the truncation and the zero-filled gap"
        );
        dir.remove("run-1").unwrap();
        assert!(dir.list().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&p);
    }

    /// FNV-1a 64 over everything `storage_model_digest` folds in.
    fn fold(h: &mut u64, bytes: &[u8]) {
        for b in bytes {
            *h ^= u64::from(*b);
            *h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn fold_file(h: &mut u64, dir: &dyn StorageDir, name: &str) {
        let bytes = bytes_of(dir, name);
        fold(h, name.as_bytes());
        fold(h, &(bytes.len() as u64).to_le_bytes());
        fold(h, &bytes);
    }

    /// Pins the crash model and the seeded fault schedule to committed
    /// bytes, so a refactor of this layer cannot change either unnoticed
    /// (the determinism tests above only compare a run with itself).
    #[test]
    fn storage_model_digest() {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;

        // 1. Crash model: three files with synced, pending, resized and
        //    gapped writes, crashed at 64 seeds.
        for seed in 0..64u64 {
            let dir = MemDir::new();
            let mut a = dir.open("a").unwrap();
            let mut b = dir.open("b").unwrap();
            let mut c = dir.open("c").unwrap();
            a.write_all_at(0, b"alpha-durable").unwrap();
            a.sync().unwrap();
            a.write_all_at(13, b"-pending-1").unwrap();
            a.write_all_at(5, b"XY").unwrap();
            b.write_all_at(0, &[7u8; 40]).unwrap();
            b.set_len(25).unwrap();
            b.write_all_at(30, b"gap").unwrap();
            c.write_all_at(0, b"c0").unwrap();
            c.sync().unwrap();
            c.set_len(1).unwrap();
            c.write_all_at(1, b"tail-bytes-here").unwrap();
            c.sync().unwrap();
            c.write_all_at(3, b"after-sync").unwrap();
            a.write_all_at(23, b"-pending-2").unwrap();
            b.write_all_at(2, b"overwrite").unwrap();
            dir.crash(seed);
            for name in dir.list().unwrap() {
                fold_file(&mut h, &dir, &name);
            }
        }

        // 2. Fault schedule: seeded write/short-write/sync faults over two
        //    files, with every scripted fault kind mixed in.
        for seed in [3u64, 11, 0xDEAD_BEEF] {
            let mem = MemDir::new();
            let dir = FaultyDir::new(
                mem.clone(),
                FaultConfig {
                    seed,
                    write_err_per_10k: 2_000,
                    short_write_per_10k: 1_500,
                    sync_err_per_10k: 1_500,
                },
            );
            let ctl = dir.control();
            let mut files = [dir.open("x").unwrap(), dir.open("y").unwrap()];
            for i in 0..120u64 {
                match i {
                    40 => ctl.tear_next_write(2),
                    60 => ctl.fail_next_writes(1),
                    80 => ctl.fail_syncs_after(1, 1),
                    _ => {}
                }
                let f = &mut files[(i % 2) as usize];
                let data: Vec<u8> = (0..1 + i % 9).map(|j| (i * 7 + j) as u8).collect();
                fold(&mut h, &[u8::from(f.write_all_at(i * 3, &data).is_ok())]);
                if i % 5 == 4 {
                    fold(&mut h, &[u8::from(f.sync().is_ok())]);
                }
                if i == 100 {
                    ctl.fail_next_set_lens(1);
                    fold(&mut h, &[u8::from(f.set_len(i * 2).is_ok())]);
                    fold(&mut h, &[u8::from(f.set_len(i * 2).is_ok())]);
                }
            }
            let (w, s, y) = ctl.injected();
            assert!(
                w > 0 && s > 0 && y > 0,
                "seed {seed}: a fault kind never fired"
            );
            for n in [w, s, y] {
                fold(&mut h, &n.to_le_bytes());
            }
            for name in ["x", "y"] {
                fold_file(&mut h, &mem, name);
            }
        }

        assert_eq!(
            h, 0xb92e_498f_12d2_9e29,
            "storage model digest moved: {h:#018x}"
        );
    }
}
