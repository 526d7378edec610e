//! Byte-level encoding primitives used across the storage layer:
//! LEB128-style varints, delta encoding of sorted id sequences, length-prefixed byte strings, and a
//! slicing-by-8 CRC-32 (IEEE) that checks WAL records, runs, the manifest
//! and `memex-net`'s wire frames.
//!
//! Keeping the codec in one place means the runs, the WAL and the
//! inverted-index postings (in `memex-index`) all share the same,
//! well-tested primitives.

use crate::error::{StoreError, StoreResult};

// ---------------------------------------------------------------------------
// varint
// ---------------------------------------------------------------------------

/// Append `v` to `out` as an unsigned LEB128 varint (1–10 bytes).
#[inline]
pub fn put_uvarint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Decode an unsigned varint from `buf[*pos..]`, advancing `*pos`.
#[inline]
pub fn get_uvarint(buf: &[u8], pos: &mut usize) -> StoreResult<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        let b = *buf
            .get(*pos)
            .ok_or_else(|| StoreError::Corrupt("varint truncated".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(StoreError::Corrupt("varint overflows u64".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

// ---------------------------------------------------------------------------
// length-prefixed bytes / fixed-width ints
// ---------------------------------------------------------------------------

/// Append `bytes` prefixed by its varint length.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_uvarint(out, bytes.len() as u64);
    out.extend_from_slice(bytes);
}

/// Decode a length-prefixed byte string, advancing `*pos`.
pub fn get_bytes<'a>(buf: &'a [u8], pos: &mut usize) -> StoreResult<&'a [u8]> {
    let len = get_uvarint(buf, pos)? as usize;
    let end = pos
        .checked_add(len)
        .ok_or_else(|| StoreError::Corrupt("byte-string length overflow".into()))?;
    let slice = buf
        .get(*pos..end)
        .ok_or_else(|| StoreError::Corrupt("byte string truncated".into()))?;
    *pos = end;
    Ok(slice)
}

/// The next `N` bytes as an array, advancing `*pos`; `Corrupt(what)` when
/// fewer remain.
fn get_array<const N: usize>(buf: &[u8], pos: &mut usize, what: &str) -> StoreResult<[u8; N]> {
    let bytes = buf
        .get(*pos..)
        .and_then(|rest| rest.first_chunk::<N>())
        .ok_or_else(|| StoreError::Corrupt(what.into()))?;
    *pos += N;
    Ok(*bytes)
}

/// Append a little-endian u32.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian u32, advancing `*pos`.
pub fn get_u32(buf: &[u8], pos: &mut usize) -> StoreResult<u32> {
    Ok(u32::from_le_bytes(get_array(buf, pos, "u32 truncated")?))
}

/// Append a little-endian u64.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Read a little-endian u64, advancing `*pos`.
pub fn get_u64(buf: &[u8], pos: &mut usize) -> StoreResult<u64> {
    Ok(u64::from_le_bytes(get_array(buf, pos, "u64 truncated")?))
}

// ---------------------------------------------------------------------------
// delta encoding for sorted u64 sequences (used by postings & trail ids)
// ---------------------------------------------------------------------------

/// Delta + varint encode a strictly increasing sequence.
///
/// Returns `Invalid` if the input is not strictly increasing — callers
/// depend on gaps being non-negative for the compact representation.
pub fn encode_deltas(out: &mut Vec<u8>, sorted: &[u64]) -> StoreResult<()> {
    put_uvarint(out, sorted.len() as u64);
    let mut prev = 0u64;
    for (i, &v) in sorted.iter().enumerate() {
        if i > 0 && v <= prev {
            return Err(StoreError::Invalid(
                "sequence not strictly increasing".into(),
            ));
        }
        let gap = if i == 0 { v } else { v - prev };
        put_uvarint(out, gap);
        prev = v;
    }
    Ok(())
}

/// Inverse of [`encode_deltas`]. A count larger than the bytes left (each
/// gap takes at least one) is `Corrupt`, not an allocation of that size.
pub fn decode_deltas(buf: &[u8], pos: &mut usize) -> StoreResult<Vec<u64>> {
    let n = get_uvarint(buf, pos)?;
    if n > buf.len().saturating_sub(*pos) as u64 {
        return Err(StoreError::Corrupt(
            "delta count exceeds the bytes left".into(),
        ));
    }
    let n = n as usize;
    let mut out = Vec::with_capacity(n);
    let mut acc = 0u64;
    for i in 0..n {
        let gap = get_uvarint(buf, pos)?;
        acc = if i == 0 {
            gap
        } else {
            acc.checked_add(gap)
                .ok_or_else(|| StoreError::Corrupt("delta sum overflow".into()))?
        };
        out.push(acc);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3 polynomial, reflected)
// ---------------------------------------------------------------------------

/// Lazily-built slicing-by-8 tables: `tables[0]` is the classic bytewise
/// table, and `tables[k][b]` is the CRC register after byte `b` followed by
/// `k` zero bytes, so eight table lookups advance the register eight bytes.
fn crc_tables() -> &'static [[u32; 256]; 8] {
    use std::sync::OnceLock;
    static TABLES: OnceLock<[[u32; 256]; 8]> = OnceLock::new();
    TABLES.get_or_init(|| {
        let mut bytewise = [0u32; 256];
        for (i, slot) in bytewise.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        let mut tables = [bytewise; 8];
        let mut prev = bytewise;
        for table in tables.iter_mut().skip(1) {
            for (slot, &c) in table.iter_mut().zip(&prev) {
                *slot = (c >> 8) ^ lookup(&bytewise, c);
            }
            prev = *table;
        }
        tables
    })
}

/// `table[low byte of i]`. A `u8` index into a 256-entry table: `get`
/// never misses, and the compiler drops the check.
#[inline(always)]
fn lookup(table: &[u32; 256], i: u32) -> u32 {
    table.get(usize::from(i as u8)).copied().unwrap_or_default()
}

/// CRC-32 (IEEE) of `data`. Matches the ubiquitous zlib/PNG checksum, so it
/// is easy to cross-validate externally.
pub fn crc32(data: &[u8]) -> u32 {
    crc32_extend(0, data)
}

/// The CRC-32 of `a ‖ data`, given `crc == crc32(a)`: a checksum can be
/// computed once over a long prefix and finished over a short tail later.
pub fn crc32_extend(crc: u32, data: &[u8]) -> u32 {
    let [t0, t1, t2, t3, t4, t5, t6, t7] = crc_tables();
    let mut c = !crc;
    let (blocks, tail) = data.as_chunks::<8>();
    for &[b0, b1, b2, b3, b4, b5, b6, b7] in blocks {
        let lo = c ^ u32::from_le_bytes([b0, b1, b2, b3]);
        c = lookup(t7, lo)
            ^ lookup(t6, lo >> 8)
            ^ lookup(t5, lo >> 16)
            ^ lookup(t4, lo >> 24)
            ^ lookup(t3, u32::from(b4))
            ^ lookup(t2, u32::from(b5))
            ^ lookup(t1, u32::from(b6))
            ^ lookup(t0, u32::from(b7));
    }
    for &b in tail {
        c = lookup(t0, c ^ u32::from(b)) ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uvarint_round_trips_boundaries() {
        for v in [0u64, 1, 127, 128, 16_383, 16_384, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_uvarint(&buf, &mut pos).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn uvarint_rejects_truncation() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, u64::MAX);
        buf.pop();
        let mut pos = 0;
        assert!(get_uvarint(&buf, &mut pos).is_err());
    }

    #[test]
    fn bytes_round_trip_and_reject_truncation() {
        let mut buf = Vec::new();
        put_bytes(&mut buf, b"hello");
        put_bytes(&mut buf, b"");
        let mut pos = 0;
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), b"hello");
        assert_eq!(get_bytes(&buf, &mut pos).unwrap(), b"");
        let mut truncated = Vec::new();
        put_bytes(&mut truncated, b"hello");
        truncated.truncate(3);
        let mut pos = 0;
        assert!(get_bytes(&truncated, &mut pos).is_err());
    }

    #[test]
    fn deltas_round_trip() {
        let seq = vec![3u64, 4, 9, 1000, 1001, 1_000_000];
        let mut buf = Vec::new();
        encode_deltas(&mut buf, &seq).unwrap();
        let mut pos = 0;
        assert_eq!(decode_deltas(&buf, &mut pos).unwrap(), seq);
    }

    #[test]
    fn deltas_reject_a_count_the_bytes_cannot_hold() {
        // Counts of 2^32 - 1 and 2^60 with no gaps behind them, and of 3
        // with two.
        for bytes in [
            vec![0xFF, 0xFF, 0xFF, 0xFF, 0x0F],
            vec![0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x10],
            vec![3, 1, 1],
        ] {
            let mut pos = 0;
            assert!(decode_deltas(&bytes, &mut pos).is_err(), "{bytes:?}");
        }
    }

    #[test]
    fn deltas_reject_non_increasing() {
        let mut buf = Vec::new();
        assert!(encode_deltas(&mut buf, &[5, 5]).is_err());
        let mut buf = Vec::new();
        assert!(encode_deltas(&mut buf, &[5, 4]).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard test vector for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn fixed_width_round_trips() {
        let mut buf = Vec::new();
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 7);
        let mut pos = 0;
        assert_eq!(get_u32(&buf, &mut pos).unwrap(), 0xDEAD_BEEF);
        assert_eq!(get_u64(&buf, &mut pos).unwrap(), u64::MAX - 7);
    }
}
