//! The metadata database: typed tables keyed by their first column, with a
//! point lookup by every unique column.
//!
//! Physical layout — everything lives in one [`LsmStore`], namespaced by
//! key prefixes (big-endian ids keep each table's rows together):
//!
//! ```text
//! c:<table-name>                       -> table id (u32 BE) + schema bytes
//! r:<tid><ordered key>                 -> encoded row
//! x:<tid><col varint><ordered value>   -> the row's ordered key
//! ```
//!
//! A table's id is 1 + the number of `c:` records (tables are never
//! dropped). Each unique column past the key has one `x:` entry per row.
//!
//! An insert puts its `x:` entries first and its row last, so the row put
//! is the commit point: recovery keeps a prefix of the puts, and a crash
//! between them can leave an `x:` entry with no row behind it. Such an
//! entry counts as present only if its row exists and still holds the
//! probed value, so lookups and the uniqueness check ignore it and the next
//! insert of that value overwrites it.

use std::ops::Bound;
use std::path::Path;

use memex_store::codec::put_uvarint;
use memex_store::{LsmOptions, LsmStore, StoreResult};

use crate::rel::schema::Schema;
use crate::rel::value::{decode_row, encode_row, Value};
use crate::rel::{corrupt, RelError, RelResult};

/// Cheap handle naming a table; obtained from [`Database::create_table`]
/// or [`Database::table`].
#[derive(Debug, Clone)]
pub struct TableHandle {
    pub id: u32,
    pub schema: Schema,
}

/// The relational metadata engine.
pub struct Database {
    kv: LsmStore,
}

impl Database {
    /// In-memory database.
    pub fn open_memory() -> RelResult<Database> {
        Ok(Database {
            kv: LsmStore::open_memory()?,
        })
    }

    /// Durable database stored under `dir/meta/` (WAL, manifest, runs).
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> RelResult<Database> {
        Ok(Database {
            kv: LsmStore::open_dir(dir.as_ref().join("meta"), LsmOptions::default())?,
        })
    }

    /// Create a table.
    pub fn create_table(&mut self, schema: Schema) -> RelResult<TableHandle> {
        let cat_key = catalog_key(&schema.name);
        if self.kv.get(&cat_key)?.is_some() {
            return Err(RelError::Schema(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        let id = 1 + u32::try_from(count_prefix(&self.kv, b"c:")?)
            .map_err(|_| RelError::Schema("too many tables".into()))?;
        let mut rec = id.to_be_bytes().to_vec();
        rec.extend_from_slice(&schema.encode());
        self.kv.put(&cat_key, &rec)?;
        Ok(TableHandle { id, schema })
    }

    /// Look up an existing table by name.
    pub fn table(&self, name: &str) -> RelResult<TableHandle> {
        let rec = self
            .kv
            .get(&catalog_key(name))?
            .ok_or_else(|| RelError::NotFound(format!("table `{name}`")))?;
        let Some((id, schema)) = rec.split_first_chunk::<4>() else {
            return Err(corrupt("catalog record too short"));
        };
        Ok(TableHandle {
            id: u32::from_be_bytes(*id),
            schema: Schema::decode(schema)?,
        })
    }

    /// Insert a validated row. A value some row already holds in a unique
    /// column is `Duplicate`, and then nothing is written.
    pub fn insert(&mut self, t: &TableHandle, row: Vec<Value>) -> RelResult<()> {
        t.schema.validate(&row)?;
        for (col, (column, value)) in t.schema.columns.iter().zip(&row).enumerate() {
            if column.unique && self.find(t, col, value)?.is_some() {
                return Err(RelError::Duplicate(format!(
                    "column `{}` of `{}` already holds {:?}",
                    column.name, t.schema.name, value
                )));
            }
        }
        let mut ordered_key = Vec::new();
        for (col, (column, value)) in t.schema.columns.iter().zip(&row).enumerate() {
            if col == 0 {
                value.encode_ordered(&mut ordered_key);
            } else if column.unique {
                self.kv.put(&index_key(t.id, col, value), &ordered_key)?;
            }
        }
        Ok(self
            .kv
            .put(&row_key(t.id, &ordered_key), &encode_row(&row))?)
    }

    /// The row whose unique column `col` holds `value`.
    pub fn lookup_unique(
        &self,
        t: &TableHandle,
        col: &str,
        value: &Value,
    ) -> RelResult<Option<Vec<Value>>> {
        let i = t.schema.col_index(col)?;
        if t.schema.columns.get(i).is_some_and(|c| c.unique) {
            self.find(t, i, value)
        } else {
            Err(RelError::Schema(format!(
                "column `{col}` of `{}` is not unique",
                t.schema.name
            )))
        }
    }

    /// Number of rows in the table.
    pub fn count(&self, t: &TableHandle) -> RelResult<u64> {
        Ok(count_prefix(&self.kv, &row_key(t.id, &[]))?)
    }

    /// Flush everything to stable storage.
    pub fn checkpoint(&mut self) -> RelResult<()> {
        Ok(self.kv.seal()?)
    }

    /// The row holding `value` in unique column `col`: one point read of
    /// the row for the key, two for any other column.
    fn find(&self, t: &TableHandle, col: usize, value: &Value) -> RelResult<Option<Vec<Value>>> {
        let ordered_key = if col == 0 {
            let mut k = Vec::new();
            value.encode_ordered(&mut k);
            k
        } else {
            match self.kv.get(&index_key(t.id, col, value))? {
                Some(k) => k,
                None => return Ok(None),
            }
        };
        let Some(bytes) = self.kv.get(&row_key(t.id, &ordered_key))? else {
            return Ok(None);
        };
        let row = decode_row(&bytes)?;
        Ok((row.get(col) == Some(value)).then_some(row))
    }
}

/// Keys in `kv` that start with `prefix`.
fn count_prefix(kv: &LsmStore, prefix: &[u8]) -> StoreResult<u64> {
    let mut n = 0u64;
    kv.for_each_range(Bound::Included(prefix), Bound::Unbounded, &mut |k, _| {
        let inside = k.starts_with(prefix);
        n += u64::from(inside);
        inside
    })?;
    Ok(n)
}

fn catalog_key(name: &str) -> Vec<u8> {
    let mut k = b"c:".to_vec();
    k.extend_from_slice(name.as_bytes());
    k
}

fn row_key(tid: u32, ordered_key: &[u8]) -> Vec<u8> {
    let mut k = b"r:".to_vec();
    k.extend_from_slice(&tid.to_be_bytes());
    k.extend_from_slice(ordered_key);
    k
}

fn index_key(tid: u32, col: usize, value: &Value) -> Vec<u8> {
    let mut k = b"x:".to_vec();
    k.extend_from_slice(&tid.to_be_bytes());
    put_uvarint(&mut k, col as u64);
    value.encode_ordered(&mut k);
    k
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::schema::{ColType, Column};

    fn pages_table(db: &mut Database) -> TableHandle {
        db.create_table(
            Schema::new(
                "pages",
                vec![
                    Column::unique("page_id", ColType::Int),
                    Column::unique("url", ColType::Text),
                    Column::new("bytes", ColType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn page(id: i64, url: &str, bytes: i64) -> Vec<Value> {
        vec![Value::Int(id), Value::Text(url.into()), Value::Int(bytes)]
    }

    #[test]
    fn lookups_by_key_and_by_unique_column_agree() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        db.insert(&t, page(7, "http://a", 100)).unwrap();
        // One row and one `x:` entry, for `url`: the key needs none.
        assert_eq!(count_prefix(&db.kv, b"r:").unwrap(), 1);
        assert_eq!(count_prefix(&db.kv, b"x:").unwrap(), 1);
        let by_key = db.lookup_unique(&t, "page_id", &Value::Int(7)).unwrap();
        let by_url = db
            .lookup_unique(&t, "url", &Value::Text("http://a".into()))
            .unwrap();
        assert_eq!(by_key, Some(page(7, "http://a", 100)));
        assert_eq!(by_key, by_url);
        assert_eq!(
            db.lookup_unique(&t, "page_id", &Value::Int(8)).unwrap(),
            None
        );
        assert!(matches!(
            db.lookup_unique(&t, "bytes", &Value::Int(100)),
            Err(RelError::Schema(_))
        ));
    }

    #[test]
    fn unique_constraints_enforced_and_a_rejected_insert_writes_nothing() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        db.insert(&t, page(1, "http://a", 1)).unwrap();
        // Same key, and same url under a fresh key.
        let dup_key = db.insert(&t, page(1, "http://b", 2));
        assert!(matches!(dup_key, Err(RelError::Duplicate(_))));
        let dup_url = db.insert(&t, page(2, "http://a", 2));
        assert!(matches!(dup_url, Err(RelError::Duplicate(_))));
        assert_eq!(db.count(&t).unwrap(), 1);
        assert_eq!(
            db.lookup_unique(&t, "url", &Value::Text("http://b".into()))
                .unwrap(),
            None
        );
        // A plain column may repeat.
        db.insert(&t, page(2, "http://b", 1)).unwrap();
        assert_eq!(db.count(&t).unwrap(), 2);
    }

    /// A crash between an insert's `x:` put and its row put leaves an
    /// index entry with no row behind it: that value is free, and the
    /// next insert of it overwrites the orphan.
    #[test]
    fn an_index_entry_without_its_row_does_not_count() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        let url = Value::Text("http://orphan".into());
        let mut orphan_key = Vec::new();
        Value::Int(1).encode_ordered(&mut orphan_key);
        db.kv.put(&index_key(t.id, 1, &url), &orphan_key).unwrap();
        assert_eq!(db.lookup_unique(&t, "url", &url).unwrap(), None);
        // The orphan names key 1; a row there holding another url does not
        // make it count either.
        db.insert(&t, page(1, "http://other", 1)).unwrap();
        assert_eq!(db.lookup_unique(&t, "url", &url).unwrap(), None);
        db.insert(&t, page(2, "http://orphan", 2)).unwrap();
        assert_eq!(
            db.lookup_unique(&t, "url", &url).unwrap(),
            Some(page(2, "http://orphan", 2))
        );
    }

    #[test]
    fn catalog_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("memex-rel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open_dir(&dir).unwrap();
            let t = pages_table(&mut db);
            db.insert(&t, page(7, "http://persist", 70)).unwrap();
            db.checkpoint().unwrap();
        }
        {
            let db = Database::open_dir(&dir).unwrap();
            let t = db.table("pages").unwrap();
            assert_eq!(t.schema.columns.len(), 3);
            let row = db
                .lookup_unique(&t, "url", &Value::Text("http://persist".into()))
                .unwrap()
                .unwrap();
            assert_eq!(row[2], Value::Int(70));
            assert_eq!(db.count(&t).unwrap(), 1);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_tables_do_not_interfere() {
        let mut db = Database::open_memory().unwrap();
        let pages = pages_table(&mut db);
        let users = db
            .create_table(
                Schema::new("users", vec![Column::unique("client_id", ColType::Int)]).unwrap(),
            )
            .unwrap();
        assert_ne!(pages.id, users.id);
        db.insert(&pages, page(1, "http://a", 1)).unwrap();
        db.insert(&users, vec![Value::Int(1)]).unwrap();
        assert_eq!(db.count(&pages).unwrap(), 1);
        assert_eq!(db.count(&users).unwrap(), 1);
        assert!(db
            .create_table(Schema::new("pages", vec![Column::unique("x", ColType::Int)]).unwrap())
            .is_err());
    }
}
