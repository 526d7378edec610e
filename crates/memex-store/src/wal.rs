//! Write-ahead log with CRC-framed records and torn-tail detection.
//!
//! The paper's server "recovers from network and programming errors quickly,
//! even if it has to discard a few client events" (§3). The WAL realises
//! exactly that contract: every mutation is framed with a length + CRC-32;
//! on recovery we replay complete frames and silently drop a torn tail —
//! those are the "few discarded events".
//!
//! The log tracks its **logical end** (`end_pos`) independently of the
//! physical backing length: a failed or torn append leaves garbage bytes
//! beyond `end_pos`, and the next append overwrites them. Without this, a
//! single failed append would strand every later record behind mid-log
//! garbage that replay cannot cross.
//!
//! ## LSN contract
//!
//! LSNs are unique and strictly increasing **among durable frames**. A
//! torn tail loses the frames after the tear; since those frames were
//! never durable (their appends either failed or were not covered by a
//! sync), their LSNs may be reused by post-recovery appends. Consumers
//! must not treat an LSN as stable until the append has been synced —
//! the same moment the operation itself becomes durable. Replay also
//! *repairs* the log (truncates the torn bytes), so a reopened log never
//! carries two frames with the same LSN.

use memex_obs::{Counter, MetricsRegistry};

use crate::codec::{crc32, get_bytes, get_u32, get_u64, put_bytes, put_u32, put_u64};
use crate::error::{StoreError, StoreResult};
use crate::vfs::Storage;

/// A single logical WAL record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// Upsert of `key` to `value`.
    Put { key: Vec<u8>, value: Vec<u8> },
    /// Deletion of `key`.
    Delete { key: Vec<u8> },
    /// Marks that everything up to this point is safely in the main store;
    /// replay may start after the *last* checkpoint.
    Checkpoint,
}

const KIND_PUT: u8 = 1;
const KIND_DELETE: u8 = 2;
const KIND_CHECKPOINT: u8 = 3;

impl WalRecord {
    fn encode_payload(&self, lsn: u64) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        put_u64(&mut out, lsn);
        match self {
            WalRecord::Put { key, value } => {
                out.push(KIND_PUT);
                put_bytes(&mut out, key);
                put_bytes(&mut out, value);
            }
            WalRecord::Delete { key } => {
                out.push(KIND_DELETE);
                put_bytes(&mut out, key);
            }
            WalRecord::Checkpoint => out.push(KIND_CHECKPOINT),
        }
        out
    }

    fn decode_payload(payload: &[u8]) -> StoreResult<(u64, WalRecord)> {
        let mut pos = 0usize;
        let lsn = get_u64(payload, &mut pos)?;
        let kind = *payload
            .get(pos)
            .ok_or_else(|| StoreError::Corrupt("wal record missing kind".into()))?;
        pos += 1;
        let rec = match kind {
            KIND_PUT => {
                let key = get_bytes(payload, &mut pos)?.to_vec();
                let value = get_bytes(payload, &mut pos)?.to_vec();
                WalRecord::Put { key, value }
            }
            KIND_DELETE => WalRecord::Delete {
                key: get_bytes(payload, &mut pos)?.to_vec(),
            },
            KIND_CHECKPOINT => WalRecord::Checkpoint,
            k => return Err(StoreError::Corrupt(format!("unknown wal kind {k}"))),
        };
        Ok((lsn, rec))
    }
}

/// Obs handles (inert until [`Wal::attach_registry`] is called).
#[derive(Default)]
struct WalMetrics {
    appends: Counter,
    appended_bytes: Counter,
    fsyncs: Counter,
    replays: Counter,
    torn_tails: Counter,
}

/// Append-only write-ahead log over a [`Storage`] backing.
pub struct Wal {
    backing: Box<dyn Storage>,
    /// Byte offset one past the last *successfully appended* frame. New
    /// frames are written here, overwriting any torn garbage beyond it.
    end_pos: u64,
    /// Watermark of the logical log known to be on stable storage:
    /// `[0, durable_end)` has been covered by a successful sync.
    /// [`Wal::sync`] is a no-op while `durable_end == end_pos`, so callers
    /// may sync defensively (e.g. at the top of a checkpoint) without
    /// paying for an fsync when nothing is pending.
    durable_end: u64,
    next_lsn: u64,
    metrics: WalMetrics,
}

/// Outcome of replaying a log.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Records after the last checkpoint, in append order.
    pub records: Vec<(u64, WalRecord)>,
    /// Complete frames seen in total (including checkpointed prefix).
    pub frames_seen: u64,
    /// True when a torn/corrupt tail was detected and dropped.
    pub torn_tail: bool,
    /// Bytes dropped by the torn-tail repair.
    pub repaired_bytes: u64,
}

impl Wal {
    /// A log over `backing` — a file some [`StorageDir`] opened.
    ///
    /// [`StorageDir`]: crate::vfs::StorageDir
    pub fn with_storage(backing: Box<dyn Storage>) -> StoreResult<Wal> {
        let end_pos = backing.len()?;
        Ok(Wal {
            backing,
            end_pos,
            // Content present at open time was written by a previous
            // incarnation; whatever of it survived is by definition what
            // the device kept. Replay re-establishes the watermark.
            durable_end: end_pos,
            next_lsn: 1,
            metrics: WalMetrics::default(),
        })
    }

    /// Register this log's counters with `registry` (`store.wal.*`).
    pub fn attach_registry(&mut self, registry: &MetricsRegistry) {
        self.metrics = WalMetrics {
            appends: registry.counter("store.wal.appends"),
            appended_bytes: registry.counter("store.wal.appended_bytes"),
            fsyncs: registry.counter("store.wal.fsyncs"),
            replays: registry.counter("store.wal.replays"),
            torn_tails: registry.counter("store.wal.torn_tails"),
        };
    }

    /// Append a record; returns its LSN. Frame layout:
    /// `[len: u32][crc32(payload): u32][payload]`.
    ///
    /// On failure nothing logical changes: the LSN is not consumed and the
    /// next append rewrites the same offset, overwriting any torn bytes
    /// the failed write left behind.
    pub fn append(&mut self, record: &WalRecord) -> StoreResult<u64> {
        let _trace = memex_obs::trace::span("store.wal.append");
        let lsn = self.next_lsn;
        let payload = record.encode_payload(lsn);
        let mut frame = Vec::with_capacity(payload.len() + 8);
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.backing.write_all_at(self.end_pos, &frame)?;
        self.end_pos += frame.len() as u64;
        self.next_lsn = lsn + 1;
        self.metrics.appends.inc();
        self.metrics.appended_bytes.add(frame.len() as u64);
        Ok(lsn)
    }

    /// Flush appended frames to stable storage. No-op (and no fsync)
    /// when every appended frame is already covered by a prior sync.
    pub fn sync(&mut self) -> StoreResult<()> {
        let _trace = memex_obs::trace::span("store.wal.sync");
        if self.durable_end == self.end_pos {
            return Ok(());
        }
        self.backing.sync()?;
        self.durable_end = self.end_pos;
        self.metrics.fsyncs.inc();
        Ok(())
    }

    /// Read the whole log, returning the records after the last checkpoint.
    /// A corrupt or torn tail terminates the replay (it is *not* an error —
    /// it is the crash case the log exists for), sets `torn_tail`, and
    /// **repairs** the log by truncating the torn bytes so they can never
    /// shadow later appends.
    pub fn replay(&mut self) -> StoreResult<Replay> {
        let bytes = self.read_all()?;
        let mut replay = Replay::default();
        let mut pos = 0usize;
        let mut valid_end = 0usize;
        let mut max_lsn = 0u64;
        while pos < bytes.len() {
            let header = (|| -> StoreResult<(usize, u32)> {
                let len = get_u32(&bytes, &mut pos)? as usize;
                let crc = get_u32(&bytes, &mut pos)?;
                Ok((len, crc))
            })();
            let (len, crc) = match header {
                Ok(h) => h,
                Err(_) => {
                    replay.torn_tail = true;
                    break;
                }
            };
            let Some(payload) = bytes.get(pos..pos + len) else {
                replay.torn_tail = true;
                break;
            };
            if crc32(payload) != crc {
                replay.torn_tail = true;
                break;
            }
            pos += len;
            let (lsn, rec) = match WalRecord::decode_payload(payload) {
                Ok(r) => r,
                Err(_) => {
                    replay.torn_tail = true;
                    break;
                }
            };
            valid_end = pos;
            replay.frames_seen += 1;
            max_lsn = max_lsn.max(lsn);
            if matches!(rec, WalRecord::Checkpoint) {
                replay.records.clear();
            } else {
                replay.records.push((lsn, rec));
            }
        }
        if replay.torn_tail {
            replay.repaired_bytes = bytes.len() as u64 - valid_end as u64;
            // Repair: drop the torn bytes. Best-effort — if the truncation
            // itself fails, `end_pos` still fences the garbage off (new
            // appends overwrite it and replay re-truncates next time).
            let _ = self.backing.set_len(valid_end as u64);
        }
        self.end_pos = valid_end as u64;
        self.durable_end = self.durable_end.min(self.end_pos);
        self.next_lsn = max_lsn + 1;
        self.metrics.replays.inc();
        if replay.torn_tail {
            self.metrics.torn_tails.inc();
        }
        Ok(replay)
    }

    /// Drop all content (used after a checkpoint has made it redundant).
    pub fn truncate(&mut self) -> StoreResult<()> {
        self.backing.set_len(0)?;
        self.end_pos = 0;
        // The empty prefix is trivially durable; if the sync below fails,
        // a retry re-runs the (idempotent) set_len + sync pair.
        self.durable_end = 0;
        self.backing.sync()?;
        Ok(())
    }

    /// Deliberately corrupt the tail by removing `n` trailing bytes —
    /// simulates a crash mid-write for recovery tests.
    pub fn tear_tail(&mut self, n: u64) -> StoreResult<()> {
        let len = self.backing.len()?;
        let keep = len.saturating_sub(n);
        self.backing.set_len(keep)?;
        self.end_pos = self.end_pos.min(keep);
        self.durable_end = self.durable_end.min(keep);
        Ok(())
    }

    fn read_all(&mut self) -> StoreResult<Vec<u8>> {
        let len = self.backing.len()?;
        let mut out = vec![0u8; len as usize];
        self.backing.read_exact_at(0, &mut out)?;
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::test_files::{flip, mem_file};
    use crate::vfs::{FaultConfig, FaultyDir, FileDir, MemDir, StorageDir};

    fn mem_wal() -> Wal {
        Wal::with_storage(mem_file(b"")).unwrap()
    }

    #[test]
    fn append_replay_round_trip() {
        let mut wal = mem_wal();
        wal.append(&WalRecord::Put {
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        wal.append(&WalRecord::Delete { key: b"b".to_vec() })
            .unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), 2);
        assert_eq!(replay.frames_seen, 2);
        assert!(!replay.torn_tail);
        assert_eq!(replay.records[0].0, 1);
        assert_eq!(
            replay.records[0].1,
            WalRecord::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec()
            }
        );
    }

    #[test]
    fn checkpoint_clears_prefix() {
        let mut wal = mem_wal();
        wal.append(&WalRecord::Put {
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        wal.append(&WalRecord::Checkpoint).unwrap();
        wal.append(&WalRecord::Put {
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        })
        .unwrap();
        let replay = wal.replay().unwrap();
        assert_eq!(replay.records.len(), 1);
        assert_eq!(replay.frames_seen, 3);
        assert_eq!(
            replay.records[0].1,
            WalRecord::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec()
            }
        );
    }

    #[test]
    fn torn_tail_is_dropped_not_fatal() {
        let mut wal = mem_wal();
        wal.append(&WalRecord::Put {
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        wal.append(&WalRecord::Put {
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        })
        .unwrap();
        wal.tear_tail(3).unwrap();
        let replay = wal.replay().unwrap();
        assert!(replay.torn_tail);
        assert!(replay.repaired_bytes > 0);
        assert_eq!(replay.records.len(), 1, "only the complete record survives");
    }

    #[test]
    fn bit_flip_detected_by_crc() {
        let dir = MemDir::new();
        let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
        wal.append(&WalRecord::Put {
            key: b"abc".to_vec(),
            value: b"def".to_vec(),
        })
        .unwrap();
        let mut file = dir.open("wal").unwrap();
        let len = file.len().unwrap();
        flip(file.as_mut(), len - 1, 0xFF);
        let replay = wal.replay().unwrap();
        assert!(replay.torn_tail);
        assert!(replay.records.is_empty());
    }

    #[test]
    fn lsns_resume_after_replay() {
        let mut wal = mem_wal();
        wal.append(&WalRecord::Checkpoint).unwrap();
        wal.append(&WalRecord::Delete { key: b"x".to_vec() })
            .unwrap();
        wal.replay().unwrap();
        let lsn = wal.append(&WalRecord::Checkpoint).unwrap();
        assert_eq!(lsn, 3);
    }

    #[test]
    fn file_backed_wal_survives_reopen() {
        let mut path = std::env::temp_dir();
        path.push(format!("memex-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let dir = FileDir::open(&path).unwrap();
        {
            let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
            wal.append(&WalRecord::Put {
                key: b"k".to_vec(),
                value: b"v".to_vec(),
            })
            .unwrap();
            wal.sync().unwrap();
        }
        {
            let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
            let replay = wal.replay().unwrap();
            assert_eq!(replay.records.len(), 1);
        }
        let _ = std::fs::remove_dir_all(&path);
    }

    /// Regression: a failed (torn) append used to strand every later
    /// record behind mid-log garbage, because new frames were written at
    /// the physical end of the file while replay stopped at the tear.
    #[test]
    fn append_after_failed_append_overwrites_garbage() {
        let dir = FaultyDir::new(MemDir::new(), FaultConfig::default());
        let ctl = dir.control();
        let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
        wal.append(&WalRecord::Put {
            key: b"a".to_vec(),
            value: b"1".to_vec(),
        })
        .unwrap();
        // This append tears partway through its frame and errors.
        ctl.tear_next_write(5);
        assert!(wal
            .append(&WalRecord::Put {
                key: b"torn".to_vec(),
                value: b"torn".to_vec(),
            })
            .is_err());
        // The next append must overwrite the torn bytes, not follow them.
        wal.append(&WalRecord::Put {
            key: b"b".to_vec(),
            value: b"2".to_vec(),
        })
        .unwrap();
        let replay = wal.replay().unwrap();
        let keys: Vec<&[u8]> = replay
            .records
            .iter()
            .map(|(_, r)| match r {
                WalRecord::Put { key, .. } => key.as_slice(),
                _ => panic!("unexpected record"),
            })
            .collect();
        assert_eq!(keys, vec![b"a".as_slice(), b"b".as_slice()]);
    }

    /// The documented LSN contract: torn (never-durable) frames may have
    /// their LSNs reused after recovery, but a replayed log never contains
    /// duplicate LSNs, and durable frames keep theirs.
    #[test]
    fn lsn_reuse_is_confined_to_torn_frames() {
        let dir = MemDir::new();
        let mut wal = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
        let l1 = wal
            .append(&WalRecord::Put {
                key: b"a".to_vec(),
                value: b"1".to_vec(),
            })
            .unwrap();
        let l2 = wal
            .append(&WalRecord::Put {
                key: b"b".to_vec(),
                value: b"2".to_vec(),
            })
            .unwrap();
        assert_eq!((l1, l2), (1, 2));
        wal.tear_tail(3).unwrap(); // frame 2 now torn — was never durable
        let replay = wal.replay().unwrap();
        assert!(replay.torn_tail);
        // The torn frame's LSN is reused — allowed, it was never durable.
        let l2_again = wal
            .append(&WalRecord::Put {
                key: b"c".to_vec(),
                value: b"3".to_vec(),
            })
            .unwrap();
        assert_eq!(l2_again, 2);
        // A reopened log replays unique, strictly increasing LSNs.
        let mut wal2 = Wal::with_storage(dir.open("wal").unwrap()).unwrap();
        let replay = wal2.replay().unwrap();
        assert!(!replay.torn_tail, "repair removed the torn bytes");
        let lsns: Vec<u64> = replay.records.iter().map(|&(l, _)| l).collect();
        assert_eq!(lsns, vec![1, 2]);
    }

    /// Replay repairs the log: after a torn tail is detected the garbage
    /// is physically truncated, so a second replay is clean.
    #[test]
    fn replay_repairs_torn_tail() {
        let mut wal = mem_wal();
        for i in 0..3u8 {
            wal.append(&WalRecord::Put {
                key: vec![i],
                value: vec![i],
            })
            .unwrap();
        }
        wal.tear_tail(2).unwrap();
        let first = wal.replay().unwrap();
        assert!(first.torn_tail);
        assert_eq!(first.records.len(), 2);
        let second = wal.replay().unwrap();
        assert!(!second.torn_tail, "repair made the log clean");
        assert_eq!(second.records.len(), 2);
    }
}
