//! Typed values, their row encoding and the order-preserving index encoding.

use crate::codec::{get_bytes, get_f64, get_ivarint, put_bytes, put_f64, put_ivarint};
use crate::error::{StoreError, StoreResult};

/// Column types supported by the metadata engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ColType {
    Int,
    Float,
    Text,
    Bool,
    Bytes,
}

/// A single cell value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    Int(i64),
    Float(f64),
    Text(String),
    Bool(bool),
    Bytes(Vec<u8>),
    Null,
}

impl Value {
    /// The type this value inhabits, or `None` for `Null` (which fits any).
    pub fn col_type(&self) -> Option<ColType> {
        match self {
            Value::Int(_) => Some(ColType::Int),
            Value::Float(_) => Some(ColType::Float),
            Value::Text(_) => Some(ColType::Text),
            Value::Bool(_) => Some(ColType::Bool),
            Value::Bytes(_) => Some(ColType::Bytes),
            Value::Null => None,
        }
    }

    /// Does this value fit a column of type `t`?
    pub fn fits(&self, t: ColType) -> bool {
        matches!(self, Value::Null) || self.col_type() == Some(t)
    }

    /// Convenience accessors (None when the variant does not match).
    pub fn as_int(&self) -> Option<i64> {
        if let Value::Int(v) = self {
            Some(*v)
        } else {
            None
        }
    }

    pub fn as_text(&self) -> Option<&str> {
        if let Value::Text(v) = self {
            Some(v)
        } else {
            None
        }
    }

    pub fn as_bytes(&self) -> Option<&[u8]> {
        if let Value::Bytes(v) = self {
            Some(v)
        } else {
            None
        }
    }

    /// Row (storage) encoding: tag byte + payload.
    pub fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0),
            Value::Int(v) => {
                out.push(1);
                put_ivarint(out, *v);
            }
            Value::Float(v) => {
                out.push(2);
                put_f64(out, *v);
            }
            Value::Text(v) => {
                out.push(3);
                put_bytes(out, v.as_bytes());
            }
            Value::Bool(v) => {
                out.push(4);
                out.push(u8::from(*v));
            }
            Value::Bytes(v) => {
                out.push(5);
                put_bytes(out, v);
            }
        }
    }

    /// Inverse of [`Value::encode`].
    pub fn decode(buf: &[u8], pos: &mut usize) -> StoreResult<Value> {
        let tag = *buf
            .get(*pos)
            .ok_or_else(|| StoreError::Corrupt("value tag truncated".into()))?;
        *pos += 1;
        Ok(match tag {
            0 => Value::Null,
            1 => Value::Int(get_ivarint(buf, pos)?),
            2 => Value::Float(get_f64(buf, pos)?),
            3 => {
                let bytes = get_bytes(buf, pos)?;
                Value::Text(
                    std::str::from_utf8(bytes)
                        .map_err(|_| StoreError::Corrupt("text cell not utf-8".into()))?
                        .to_string(),
                )
            }
            4 => {
                let b = *buf
                    .get(*pos)
                    .ok_or_else(|| StoreError::Corrupt("bool truncated".into()))?;
                *pos += 1;
                Value::Bool(b != 0)
            }
            5 => Value::Bytes(get_bytes(buf, pos)?.to_vec()),
            t => return Err(StoreError::Corrupt(format!("unknown value tag {t}"))),
        })
    }

    /// Order-preserving encoding for index keys: for values `a < b` of one
    /// type, `enc(a) < enc(b)` bytewise. Nulls sort first. Variable-length
    /// payloads (text/bytes) are escaped (`00 -> 00 01`) and terminated with
    /// `00 00` so they compose safely with suffixes (like row ids).
    pub fn encode_ordered(&self, out: &mut Vec<u8>) {
        match self {
            Value::Null => out.push(0x00),
            Value::Bool(v) => {
                out.push(0x01);
                out.push(u8::from(*v));
            }
            Value::Int(v) => {
                out.push(0x02);
                // Flip the sign bit so two's-complement sorts unsigned.
                let biased = (*v as u64) ^ (1u64 << 63);
                out.extend_from_slice(&biased.to_be_bytes());
            }
            Value::Float(v) => {
                out.push(0x03);
                let bits = v.to_bits();
                // IEEE-754 total-order trick: negative floats reverse.
                let key = if bits & (1 << 63) != 0 {
                    !bits
                } else {
                    bits | (1 << 63)
                };
                out.extend_from_slice(&key.to_be_bytes());
            }
            Value::Text(v) => {
                out.push(0x04);
                escape_into(v.as_bytes(), out);
            }
            Value::Bytes(v) => {
                out.push(0x05);
                escape_into(v, out);
            }
        }
    }
}

/// Escape `00 -> 00 01`, terminate with `00 00`.
fn escape_into(bytes: &[u8], out: &mut Vec<u8>) {
    for &b in bytes {
        if b == 0x00 {
            out.push(0x00);
            out.push(0x01);
        } else {
            out.push(b);
        }
    }
    out.push(0x00);
    out.push(0x00);
}

/// Encode a whole row.
pub fn encode_row(row: &[Value]) -> Vec<u8> {
    let mut out = Vec::with_capacity(row.len() * 8);
    crate::codec::put_uvarint(&mut out, row.len() as u64);
    for v in row {
        v.encode(&mut out);
    }
    out
}

/// Decode a whole row.
pub fn decode_row(buf: &[u8]) -> StoreResult<Vec<Value>> {
    let mut pos = 0usize;
    let n = crate::codec::get_uvarint(buf, &mut pos)? as usize;
    let mut out = Vec::with_capacity(n);
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
            Value::Float(2.75),
            Value::Text("classical music".into()),
            Value::Bool(true),
            Value::Bytes(vec![0, 1, 2]),
            Value::Null,
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
    fn ordered_floats_sort_correctly() {
        let vals = [f64::NEG_INFINITY, -1e9, -0.5, 0.0, 0.5, 3.25, f64::INFINITY];
        for w in vals.windows(2) {
            assert!(ordered(&Value::Float(w[0])) < ordered(&Value::Float(w[1])));
        }
    }

    #[test]
    fn ordered_text_sorts_lexicographically_and_escapes_nul() {
        assert!(ordered(&Value::Text("abc".into())) < ordered(&Value::Text("abd".into())));
        assert!(ordered(&Value::Text("ab".into())) < ordered(&Value::Text("abc".into())));
        // A string containing NUL must not collide with its prefix.
        let with_nul = Value::Bytes(vec![b'a', 0x00, b'b']);
        let plain = Value::Bytes(vec![b'a']);
        assert!(ordered(&plain) < ordered(&with_nul));
    }

    #[test]
    fn null_sorts_first() {
        assert!(ordered(&Value::Null) < ordered(&Value::Bool(false)));
        assert!(ordered(&Value::Null) < ordered(&Value::Int(i64::MIN)));
    }

    #[test]
    fn type_checks() {
        assert!(Value::Int(1).fits(ColType::Int));
        assert!(!Value::Int(1).fits(ColType::Text));
        assert!(Value::Null.fits(ColType::Text), "null fits any column");
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(decode_row(&[9, 9, 9]).is_err());
        let mut pos = 0;
        assert!(Value::decode(&[42], &mut pos).is_err());
    }
}
