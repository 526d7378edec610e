//! Table schemas: named, typed columns with optional uniqueness. Column 0
//! is the table's primary key.

use memex_store::codec::{get_bytes, get_uvarint, put_bytes, put_uvarint};

pub use crate::rel::value::ColType;

use crate::rel::value::Value;
use crate::rel::{corrupt, RelError, RelResult};

/// One column definition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Column {
    pub name: String,
    pub ty: ColType,
    /// No two rows hold the same value; lookups by this column are point
    /// reads.
    pub unique: bool,
}

impl Column {
    pub fn new(name: &str, ty: ColType) -> Column {
        Column {
            name: name.to_string(),
            ty,
            unique: false,
        }
    }

    pub fn unique(name: &str, ty: ColType) -> Column {
        Column {
            name: name.to_string(),
            ty,
            unique: true,
        }
    }
}

/// A table schema. Columns are positional but addressable by name; the
/// first is the primary key, so it must be unique.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schema {
    pub name: String,
    pub columns: Vec<Column>,
}

impl Schema {
    pub fn new(name: &str, columns: Vec<Column>) -> RelResult<Schema> {
        if name.is_empty() {
            return Err(RelError::Schema("table name must not be empty".into()));
        }
        match columns.first() {
            None => {
                return Err(RelError::Schema(format!(
                    "table `{name}` needs at least one column"
                )))
            }
            Some(key) if !key.unique => {
                return Err(RelError::Schema(format!(
                    "column `{}` of `{name}` is its primary key, so it must be unique",
                    key.name
                )))
            }
            Some(_) => {}
        }
        let mut seen = std::collections::HashSet::new();
        for c in &columns {
            if !seen.insert(c.name.as_str()) {
                return Err(RelError::Schema(format!(
                    "duplicate column `{}` in table `{name}`",
                    c.name
                )));
            }
        }
        Ok(Schema {
            name: name.to_string(),
            columns,
        })
    }

    /// Position of a named column.
    pub(crate) fn col_index(&self, name: &str) -> RelResult<usize> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| RelError::Schema(format!("no column `{name}` in `{}`", self.name)))
    }

    /// Validate a row against the schema.
    pub(crate) fn validate(&self, row: &[Value]) -> RelResult<()> {
        if row.len() != self.columns.len() {
            return Err(RelError::Schema(format!(
                "table `{}` expects {} columns, row has {}",
                self.name,
                self.columns.len(),
                row.len()
            )));
        }
        for (v, c) in row.iter().zip(&self.columns) {
            if v.col_type() != c.ty {
                return Err(RelError::Schema(format!(
                    "column `{}` of `{}` expects {:?}, got {:?}",
                    c.name, self.name, c.ty, v
                )));
            }
        }
        Ok(())
    }

    /// Persistent encoding (stored in the catalog namespace).
    pub(crate) fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        put_bytes(&mut out, self.name.as_bytes());
        put_uvarint(&mut out, self.columns.len() as u64);
        for c in &self.columns {
            put_bytes(&mut out, c.name.as_bytes());
            out.push(match c.ty {
                ColType::Int => 1,
                ColType::Text => 3,
            });
            out.push(u8::from(c.unique));
        }
        out
    }

    /// Inverse of [`Schema::encode`].
    pub(crate) fn decode(buf: &[u8]) -> RelResult<Schema> {
        let mut pos = 0usize;
        let name = String::from_utf8(get_bytes(buf, &mut pos)?.to_vec())
            .map_err(|_| corrupt("schema name not utf-8"))?;
        let n = get_uvarint(buf, &mut pos)? as usize;
        let mut columns = Vec::with_capacity(n.min(buf.len()));
        for _ in 0..n {
            let cname = String::from_utf8(get_bytes(buf, &mut pos)?.to_vec())
                .map_err(|_| corrupt("column name not utf-8"))?;
            let ty = match buf.get(pos) {
                Some(1) => ColType::Int,
                Some(3) => ColType::Text,
                _ => return Err(corrupt("bad column type tag")),
            };
            let unique = match buf.get(pos + 1) {
                Some(0) => false,
                Some(1) => true,
                _ => return Err(corrupt("bad unique flag")),
            };
            pos += 2;
            columns.push(Column {
                name: cname,
                ty,
                unique,
            });
        }
        Schema::new(&name, columns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pages_schema() -> Schema {
        Schema::new(
            "pages",
            vec![
                Column::unique("url", ColType::Text),
                Column::new("title", ColType::Text),
                Column::new("bytes", ColType::Int),
            ],
        )
        .unwrap()
    }

    #[test]
    fn schema_round_trips() {
        let s = pages_schema();
        assert_eq!(Schema::decode(&s.encode()).unwrap(), s);
    }

    #[test]
    fn duplicate_columns_rejected() {
        let err = Schema::new(
            "t",
            vec![
                Column::unique("a", ColType::Int),
                Column::new("a", ColType::Text),
            ],
        );
        assert!(err.is_err());
    }

    #[test]
    fn first_column_must_be_unique() {
        let err = Schema::new(
            "t",
            vec![
                Column::new("a", ColType::Int),
                Column::unique("b", ColType::Text),
            ],
        );
        assert!(matches!(err, Err(RelError::Schema(_))));
        assert!(Schema::new("t", vec![]).is_err());
    }

    #[test]
    fn validation_checks_arity_and_types() {
        let s = pages_schema();
        let good = vec![
            Value::Text("http://x".into()),
            Value::Text("X".into()),
            Value::Int(1000),
        ];
        s.validate(&good).unwrap();
        let short = vec![Value::Text("u".into())];
        assert!(s.validate(&short).is_err());
        let wrong = vec![Value::Int(1), Value::Text("X".into()), Value::Int(1000)];
        assert!(s.validate(&wrong).is_err());
    }

    #[test]
    fn col_index_by_name() {
        let s = pages_schema();
        assert_eq!(s.col_index("bytes").unwrap(), 2);
        assert!(s.col_index("missing").is_err());
    }
}
