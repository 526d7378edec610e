//! The manifest: an append-only log of full run-set states.
//!
//! Every seal or compaction appends one complete record — `(epoch,
//! next_run_id, live runs newest-first)` — and the last intact record
//! wins at open. Full-state records (rather than deltas) keep recovery
//! trivially idempotent: there is nothing to replay, only a latest state
//! to adopt. A torn tail (crash mid-append) is trimmed exactly like a
//! torn WAL tail; the state simply reverts to the previous record, and
//! the run the torn record would have referenced becomes an orphan for
//! the recovery scan to delete.
//!
//! Frame format: `[len u32][crc32 u32][payload]`, crc over the payload;
//! each live run carries its tier **level**:
//!
//! ```text
//! [epoch u64][next_run_id u64][count u32]([run id u64][level u32])*
//! ```
//!
//! Every frame sets the high bit of `len` ([`FLAG_LEVELED`]) — payload
//! lengths never approach 2 GiB, so the bit is free. It marks the one
//! record layout there is; an intact frame without it is the level-less
//! layout no deployed build wrote, and fails the open as
//! [`StoreError::Corrupt`] rather than being guessed at or trimmed away.
//!
//! The durability contract mirrors the WAL's: a record is only trusted
//! after [`Manifest::append`] returns, which syncs. Callers must sync the
//! run files a record references *before* appending it.

use crate::codec::{crc32, get_u32, get_u64, put_u32, put_u64};
use crate::error::{StoreError, StoreResult};
use crate::vfs::Storage;

/// High bit of the frame `len` field: set on every record (its runs carry
/// level tags).
const FLAG_LEVELED: u32 = 0x8000_0000;

/// Live manifest state plus the append cursor.
pub struct Manifest {
    storage: Box<dyn Storage>,
    /// Logical end: offset just past the last intact record.
    end: u64,
    /// Epoch of the current run set (bumped by every seal/compaction).
    pub epoch: u64,
    /// Next run id to allocate (ids are never reused).
    pub next_run_id: u64,
    /// Live runs as `(id, level)`, newest first. Level 0 is freshly
    /// sealed; compaction outputs land one level below their inputs.
    pub runs: Vec<(u64, u32)>,
    /// True when open found (and trimmed) a torn tail.
    pub torn_tail: bool,
    /// Bytes trimmed while repairing the tail.
    pub repaired_bytes: u64,
}

impl Manifest {
    /// Open and replay; adopts the last intact record and trims any torn
    /// tail so the next append lands on a clean boundary.
    pub fn open(mut storage: Box<dyn Storage>) -> StoreResult<Manifest> {
        let file_len = storage.len()?;
        let mut pos = 0u64;
        let mut epoch = 0u64;
        let mut next_run_id = 0u64;
        let mut runs: Vec<(u64, u32)> = Vec::new();
        loop {
            let mut header = [0u8; 8];
            if pos + 8 > file_len {
                break;
            }
            storage.read_exact_at(pos, &mut header)?;
            let mut hpos = 0usize;
            let len_raw = get_u32(&header, &mut hpos)?;
            let stored_crc = get_u32(&header, &mut hpos)?;
            let leveled = len_raw & FLAG_LEVELED != 0;
            let len = u64::from(len_raw & !FLAG_LEVELED);
            if len == 0 || pos + 8 + len > file_len {
                break; // torn or garbage tail
            }
            let payload_len = usize::try_from(len)
                .map_err(|_| StoreError::Corrupt(format!("oversized frame: {len} bytes")))?;
            let mut payload = vec![0u8; payload_len];
            storage.read_exact_at(pos + 8, &mut payload)?;
            if crc32(&payload) != stored_crc {
                break; // torn mid-payload
            }
            if !leveled {
                // Not tail damage (the checksum holds): trimming it would
                // orphan, and so delete, every run it names.
                return Err(StoreError::Corrupt(
                    "manifest: unsupported record version (no level tags)".into(),
                ));
            }
            let mut p = 0usize;
            let Ok(rec_epoch) = get_u64(&payload, &mut p) else {
                break;
            };
            let Ok(rec_next) = get_u64(&payload, &mut p) else {
                break;
            };
            let Ok(count) = get_u32(&payload, &mut p) else {
                break;
            };
            let mut rec_runs = Vec::with_capacity(count as usize);
            let mut malformed = false;
            for _ in 0..count {
                let Ok(id) = get_u64(&payload, &mut p) else {
                    malformed = true;
                    break;
                };
                let Ok(level) = get_u32(&payload, &mut p) else {
                    malformed = true;
                    break;
                };
                rec_runs.push((id, level));
            }
            if malformed || p != payload_len {
                break; // malformed record: treat as tail damage
            }
            epoch = rec_epoch;
            next_run_id = rec_next;
            runs = rec_runs;
            pos += 8 + len;
        }
        let torn_tail = pos < file_len;
        let repaired_bytes = file_len - pos;
        if torn_tail {
            storage.set_len(pos)?;
            storage.sync()?;
        }
        Ok(Manifest {
            storage,
            end: pos,
            epoch,
            next_run_id,
            runs,
            torn_tail,
            repaired_bytes,
        })
    }

    /// Append a new full state and sync. On success the in-memory fields
    /// reflect the record; on failure they are unchanged (the bytes that
    /// may have landed are a torn tail the next open will trim).
    pub fn append(&mut self, epoch: u64, next_run_id: u64, runs: &[(u64, u32)]) -> StoreResult<()> {
        let mut payload = Vec::new();
        put_u64(&mut payload, epoch);
        put_u64(&mut payload, next_run_id);
        let count = u32::try_from(runs.len()).map_err(|_| StoreError::TooLarge {
            what: "manifest run count",
            len: runs.len(),
            max: u32::MAX as usize,
        })?;
        put_u32(&mut payload, count);
        for (id, level) in runs {
            put_u64(&mut payload, *id);
            put_u32(&mut payload, *level);
        }
        let mut frame = Vec::new();
        let len = u32::try_from(payload.len())
            .ok()
            .filter(|l| l & FLAG_LEVELED == 0)
            .ok_or(StoreError::TooLarge {
                what: "manifest record",
                len: payload.len(),
                max: (FLAG_LEVELED - 1) as usize,
            })?;
        put_u32(&mut frame, len | FLAG_LEVELED);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        self.storage.write_all_at(self.end, &frame)?;
        self.storage.sync()?;
        self.end += frame.len() as u64;
        self.epoch = epoch;
        self.next_run_id = next_run_id;
        self.runs = runs.to_vec();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemStorage;

    #[test]
    fn append_and_reopen() {
        let s = MemStorage::new();
        let h = s.handle();
        let mut m = Manifest::open(Box::new(s)).unwrap();
        assert_eq!(m.epoch, 0);
        m.append(1, 2, &[(1, 0), (0, 0)]).unwrap();
        m.append(2, 3, &[(2, 1)]).unwrap();
        let reopened = Manifest::open(Box::new(MemStorage::from_bytes(h.current_bytes()))).unwrap();
        assert_eq!(reopened.epoch, 2);
        assert_eq!(reopened.next_run_id, 3);
        assert_eq!(reopened.runs, vec![(2, 1)]);
        assert!(!reopened.torn_tail);
    }

    #[test]
    fn a_level_less_record_is_corrupt_not_trimmed() {
        // The retired record layout: intact frame, no FLAG_LEVELED.
        let mut payload = Vec::new();
        put_u64(&mut payload, 1);
        put_u64(&mut payload, 3);
        put_u32(&mut payload, 2);
        put_u64(&mut payload, 2);
        put_u64(&mut payload, 1);
        let mut frame = Vec::new();
        put_u32(&mut frame, payload.len() as u32);
        put_u32(&mut frame, crc32(&payload));
        frame.extend_from_slice(&payload);
        let s = MemStorage::from_bytes(frame.clone());
        let h = s.handle();
        assert!(matches!(
            Manifest::open(Box::new(s)),
            Err(StoreError::Corrupt(_))
        ));
        assert_eq!(h.current_bytes(), frame, "nothing was trimmed");
    }

    #[test]
    fn torn_tail_reverts_to_previous_record() {
        let s = MemStorage::new();
        let h = s.handle();
        let mut m = Manifest::open(Box::new(s)).unwrap();
        m.append(1, 2, &[(1, 0)]).unwrap();
        m.append(2, 5, &[(4, 0), (3, 0)]).unwrap();
        let full = h.current_bytes();
        // Cut the second record at every byte offset: state must be
        // either record 2 (intact) or record 1 (torn) — never garbage.
        // Frame = 8-byte header + payload (epoch + next_run_id + count +
        // one (run id, level) pair) = 8 + 32.
        let first_record_end = 40;
        for cut in 0..full.len() {
            let mut bytes = full.clone();
            bytes.truncate(cut);
            let m = Manifest::open(Box::new(MemStorage::from_bytes(bytes))).unwrap();
            if cut < first_record_end {
                assert_eq!(m.epoch, 0, "cut at {cut}");
                assert!(m.runs.is_empty());
            } else if cut < full.len() {
                assert_eq!(m.epoch, 1, "cut at {cut}");
                assert_eq!(m.runs, vec![(1, 0)]);
                assert!(m.torn_tail || cut == first_record_end);
            }
        }
    }

    #[test]
    fn failed_append_leaves_state_unchanged() {
        let s = MemStorage::new();
        let h = s.handle();
        let mut m = Manifest::open(Box::new(s)).unwrap();
        m.append(1, 2, &[(1, 0)]).unwrap();
        // Simulate an append failure by corrupting afterwards: the open
        // path must fall back to record 1.
        m.append(2, 3, &[(2, 0), (1, 0)]).unwrap();
        let mut bytes = h.current_bytes();
        if let Some(last) = bytes.last_mut() {
            *last ^= 0xFF;
        }
        let reopened = Manifest::open(Box::new(MemStorage::from_bytes(bytes))).unwrap();
        assert_eq!(reopened.epoch, 1);
        assert_eq!(reopened.runs, vec![(1, 0)]);
        assert!(reopened.torn_tail);
    }

    #[test]
    fn trims_tail_durably() {
        let s = MemStorage::new();
        let h = s.handle();
        {
            let mut m = Manifest::open(Box::new(s)).unwrap();
            m.append(1, 2, &[(1, 0)]).unwrap();
        }
        let mut bytes = h.current_bytes();
        bytes.extend_from_slice(&[1, 2, 3]); // garbage tail
        let garbage = MemStorage::from_bytes(bytes);
        let gh = garbage.handle();
        let m = Manifest::open(Box::new(garbage)).unwrap();
        assert_eq!(m.epoch, 1);
        assert_eq!(m.repaired_bytes, 3);
        let reopened =
            Manifest::open(Box::new(MemStorage::from_bytes(gh.current_bytes()))).unwrap();
        assert!(!reopened.torn_tail, "tail trim persisted");
    }
}
