//! Typed values, their row encoding and the order-preserving key encoding.

use memex_store::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};
use memex_store::StoreResult;

use crate::rel::{corrupt, RelResult};

/// Zigzag-encode a signed integer so small magnitudes stay small.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Append a signed varint (zigzag + LEB128).
pub fn put_ivarint(out: &mut Vec<u8>, v: i64) {
    put_uvarint(out, zigzag(v));
}

/// Decode a signed varint.
pub fn get_ivarint(buf: &[u8], pos: &mut usize) -> StoreResult<i64> {
    Ok(unzigzag(get_uvarint(buf, pos)?))
}

/// Column types supported by the metadata engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    Int,
    Text,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Value {
    Int(i64),
    Text(String),
}

impl Value {
    /// The type this value inhabits.
    pub(crate) fn col_type(&self) -> ColType {
        match self {
            Value::Int(_) => ColType::Int,
            Value::Text(_) => ColType::Text,
        }
    }

    /// Row (storage) encoding: tag byte + payload.
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(1);
                put_ivarint(out, *v);
            }
            Value::Text(v) => {
                out.push(3);
                put_bytes(out, v.as_bytes());
            }
        }
    }

    /// Inverse of [`Value::encode`].
    fn decode(buf: &[u8], pos: &mut usize) -> RelResult<Value> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| corrupt("value tag truncated"))?;
        *pos += 1;
        Ok(match tag {
            1 => Value::Int(get_ivarint(buf, pos)?),
            3 => Value::Text(
                std::str::from_utf8(get_bytes(buf, pos)?)
                    .map_err(|_| corrupt("text cell not utf-8"))?
                    .to_string(),
            ),
            t => return Err(corrupt(&format!("unknown value tag {t}"))),
        })
    }

    /// Order-preserving encoding for keys: for values `a < b` of one type,
    /// `enc(a) < enc(b)` bytewise, and no encoding is a prefix of another.
    /// Text is escaped (`00 -> 00 01`) and terminated with `00 00`.
    pub fn encode_ordered(&self, out: &mut Vec<u8>) {
        match self {
            Value::Int(v) => {
                out.push(0x02);
                // Flip the sign bit so two's-complement sorts unsigned.
                let biased = (*v as u64) ^ (1u64 << 63);
                out.extend_from_slice(&biased.to_be_bytes());
            }
            Value::Text(v) => {
                out.push(0x04);
                for &b in v.as_bytes() {
                    out.push(b);
                    if b == 0x00 {
                        out.push(0x01);
                    }
                }
                out.extend_from_slice(&[0x00, 0x00]);
            }
        }
    }
}

/// Encode a whole row.
pub(crate) fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 8);
    put_uvarint(&mut out, row.len() as u64);
    for v in row {
        v.encode(&mut out);
    }
    out
}

/// Decode a whole row.
pub(crate) fn decode_row(buf: &[u8]) -> RelResult<Vec<Value>> {
    let mut pos = 0usize;
    let n = get_uvarint(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n.min(buf.len()));
    for _ in 0..n {
        out.push(Value::decode(buf, &mut pos)?);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ordered(v: &Value) -> Vec<u8> {
        let mut out = Vec::new();
        v.encode_ordered(&mut out);
        out
    }

    #[test]
    fn row_round_trip() {
        let row = vec![
            Value::Int(-42),
            Value::Text("classical music".into()),
            Value::Int(i64::MAX),
        ];
        let enc = encode_row(&row);
        assert_eq!(decode_row(&enc).unwrap(), row);
    }

    #[test]
    fn ordered_ints_sort_correctly() {
        let vals = [i64::MIN, -100, -1, 0, 1, 99, i64::MAX];
        for w in vals.windows(2) {
            assert!(
                ordered(&Value::Int(w[0])) < ordered(&Value::Int(w[1])),
                "{} should sort before {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn ordered_text_sorts_lexicographically_and_escapes_nul() {
        assert!(ordered(&Value::Text("abc".into())) < ordered(&Value::Text("abd".into())));
        assert!(ordered(&Value::Text("ab".into())) < ordered(&Value::Text("abc".into())));
        // A string containing NUL must not collide with its prefix.
        let with_nul = Value::Text("a\0b".into());
        let plain = Value::Text("a".into());
        assert!(ordered(&plain) < ordered(&with_nul));
        assert!(!ordered(&with_nul).starts_with(&ordered(&plain)));
    }

    #[test]
    fn ivarint_round_trips_signed_extremes() {
        for v in [0i64, -1, 1, i64::MIN, i64::MAX, -123_456_789] {
            let mut buf = Vec::new();
            put_ivarint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), v);
        }
    }

    #[test]
    fn zigzag_small_magnitudes_stay_small() {
        assert_eq!(zigzag(0), 0);
        assert_eq!(zigzag(-1), 1);
        assert_eq!(zigzag(1), 2);
        assert_eq!(zigzag(-2), 3);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[9, 9, 9]).is_err());
        let mut pos = 0;
        assert!(Value::decode(&[42], &mut pos).is_err());
    }
}
