//! The metadata database: tables, secondary indexes, predicate scans.
//!
//! Physical layout — everything lives in one [`LsmStore`], namespaced by
//! key prefixes (big-endian ids keep scans clustered per table):
//!
//! ```text
//! c:<table-name>                      -> table id (u32 BE) + schema bytes
//! m:next_table                        -> u32 BE
//! n:<tid>                             -> next row id (u64 BE)
//! r:<tid><rowid BE>                   -> encoded row
//! xc:<tid><col BE>                    -> marker: column is indexed
//! x:<tid><col BE><ordered-value><rowid BE> -> "" (index entry)
//! ```

use std::collections::{BTreeSet, HashMap};
use std::ops::Bound;
use std::path::Path;

use crate::error::{StoreError, StoreResult};
use crate::lsm::{LsmOptions, LsmStore};
use crate::rel::predicate::Predicate;
use crate::rel::schema::Schema;
use crate::rel::value::{decode_row, encode_row, Value};

/// Row identifier, auto-assigned per table.
pub type RowId = u64;

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
    /// table id -> set of indexed column positions.
    indexes: HashMap<u32, BTreeSet<u16>>,
}

impl Database {
    /// In-memory database.
    pub fn open_memory() -> StoreResult<Database> {
        Self::build(LsmStore::open_memory()?)
    }

    /// Durable database stored under `dir/meta/` (WAL, manifest, runs).
    pub fn open_dir<P: AsRef<Path>>(dir: P) -> StoreResult<Database> {
        Self::build(LsmStore::open_dir(
            dir.as_ref().join("meta"),
            LsmOptions::default(),
        )?)
    }

    fn build(kv: LsmStore) -> StoreResult<Database> {
        // Load index markers.
        let mut indexes: HashMap<u32, BTreeSet<u16>> = HashMap::new();
        for (k, _) in kv.scan_prefix(b"xc:")? {
            if let [_, _, _, t0, t1, t2, t3, c0, c1] = *k.as_slice() {
                let tid = u32::from_be_bytes([t0, t1, t2, t3]);
                let col = u16::from_be_bytes([c0, c1]);
                indexes.entry(tid).or_default().insert(col);
            }
        }
        Ok(Database { kv, indexes })
    }

    /// Register the backing store (and its WAL) with `registry`. The
    /// relational layer itself adds no metrics of its own.
    pub fn attach_registry(&mut self, registry: &memex_obs::MetricsRegistry) {
        self.kv.attach_registry(registry);
    }

    /// Create a table; unique columns get indexes automatically.
    pub fn create_table(&mut self, schema: Schema) -> StoreResult<TableHandle> {
        let cat_key = Self::catalog_key(&schema.name);
        if self.kv.get(&cat_key)?.is_some() {
            return Err(StoreError::Schema(format!(
                "table `{}` already exists",
                schema.name
            )));
        }
        let id = self.bump_counter(b"m:next_table", 4)? as u32;
        let mut rec = id.to_be_bytes().to_vec();
        rec.extend_from_slice(&schema.encode());
        self.kv.put(&cat_key, &rec)?;
        let handle = TableHandle { id, schema };
        let unique_cols: Vec<String> = handle
            .schema
            .columns
            .iter()
            .filter(|c| c.unique)
            .map(|c| c.name.clone())
            .collect();
        for col in unique_cols {
            self.create_index(&handle, &col)?;
        }
        Ok(handle)
    }

    /// Look up an existing table by name.
    pub fn table(&mut self, name: &str) -> StoreResult<TableHandle> {
        let rec = self
            .kv
            .get(&Self::catalog_key(name))?
            .ok_or_else(|| StoreError::NotFound(format!("table `{name}`")))?;
        let Some((id, schema)) = rec.split_first_chunk::<4>() else {
            return Err(StoreError::Corrupt("catalog record too short".into()));
        };
        Ok(TableHandle {
            id: u32::from_be_bytes(*id),
            schema: Schema::decode(schema)?,
        })
    }

    /// Insert a validated row; returns its new row id.
    pub fn insert(&mut self, t: &TableHandle, row: Vec<Value>) -> StoreResult<RowId> {
        t.schema.validate(&row)?;
        self.check_unique(t, &row, None)?;
        let rowid = self.bump_counter(&Self::rowctr_key(t.id), 8)?;
        self.write_index_entries(t, rowid, &row)?;
        self.kv
            .put(&Self::row_key(t.id, rowid), &encode_row(&row))?;
        Ok(rowid)
    }

    /// Fetch a row by id.
    pub fn get(&mut self, t: &TableHandle, rowid: RowId) -> StoreResult<Option<Vec<Value>>> {
        match self.kv.get(&Self::row_key(t.id, rowid))? {
            Some(bytes) => Ok(Some(decode_row(&bytes)?)),
            None => Ok(None),
        }
    }

    /// Replace a row in place.
    pub fn update(&mut self, t: &TableHandle, rowid: RowId, row: Vec<Value>) -> StoreResult<()> {
        t.schema.validate(&row)?;
        let old = self
            .get(t, rowid)?
            .ok_or_else(|| StoreError::NotFound(format!("row {rowid} of `{}`", t.schema.name)))?;
        self.check_unique(t, &row, Some(rowid))?;
        self.remove_index_entries(t, rowid, &old)?;
        self.write_index_entries(t, rowid, &row)?;
        self.kv
            .put(&Self::row_key(t.id, rowid), &encode_row(&row))?;
        Ok(())
    }

    /// Delete a row; true if it existed.
    pub fn delete(&mut self, t: &TableHandle, rowid: RowId) -> StoreResult<bool> {
        let Some(old) = self.get(t, rowid)? else {
            return Ok(false);
        };
        self.remove_index_entries(t, rowid, &old)?;
        self.kv.delete(&Self::row_key(t.id, rowid))?;
        Ok(true)
    }

    /// Create (and backfill) a secondary index on `col`.
    pub fn create_index(&mut self, t: &TableHandle, col: &str) -> StoreResult<()> {
        let col_idx = t.schema.col_index(col)? as u16;
        if self
            .indexes
            .get(&t.id)
            .is_some_and(|s| s.contains(&col_idx))
        {
            return Ok(());
        }
        self.kv.put(&Self::index_marker_key(t.id, col_idx), &[1])?;
        // Backfill from existing rows.
        let rows = self.scan(t, &Predicate::True)?;
        for (rowid, row) in rows {
            let key = Self::index_entry_key(t.id, col_idx, cell(&row, col_idx)?, rowid);
            self.kv.put(&key, &[])?;
        }
        self.indexes.entry(t.id).or_default().insert(col_idx);
        Ok(())
    }

    /// All `(RowId, row)` matching `pred`. Uses a point index probe when the
    /// predicate contains an equality conjunct on an indexed column, else a
    /// clustered full-table scan.
    pub fn scan(
        &mut self,
        t: &TableHandle,
        pred: &Predicate,
    ) -> StoreResult<Vec<(RowId, Vec<Value>)>> {
        if let Some((col, value)) = pred.index_point() {
            if let Ok(col_idx) = t.schema.col_index(col) {
                let col_idx = col_idx as u16;
                if self
                    .indexes
                    .get(&t.id)
                    .is_some_and(|s| s.contains(&col_idx))
                {
                    let rowids = self.probe_index(t, col_idx, value)?;
                    let mut out = Vec::with_capacity(rowids.len());
                    for rowid in rowids {
                        if let Some(row) = self.get(t, rowid)? {
                            if pred.matches(&t.schema, &row) {
                                out.push((rowid, row));
                            }
                        }
                    }
                    return Ok(out);
                }
            }
        }
        let prefix = Self::row_prefix(t.id);
        let mut out = Vec::new();
        let mut scan_err = None;
        let schema = t.schema.clone();
        self.kv.for_each_range(
            Bound::Included(prefix.as_slice()),
            Bound::Unbounded,
            &mut |k, v| {
                let Some(rowid) = k.strip_prefix(prefix.as_slice()) else {
                    return false;
                };
                let rowid = u64::from_be_bytes(rowid.try_into().unwrap_or([0; 8]));
                match decode_row(v) {
                    Ok(row) => {
                        if pred.matches(&schema, &row) {
                            out.push((rowid, row));
                        }
                        true
                    }
                    Err(e) => {
                        scan_err = Some(e);
                        false
                    }
                }
            },
        )?;
        match scan_err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Number of rows in the table.
    pub fn count(&mut self, t: &TableHandle) -> StoreResult<u64> {
        let prefix = Self::row_prefix(t.id);
        let mut n = 0u64;
        self.kv.for_each_range(
            Bound::Included(prefix.as_slice()),
            Bound::Unbounded,
            &mut |k, _| {
                if !k.starts_with(&prefix) {
                    return false;
                }
                n += 1;
                true
            },
        )?;
        Ok(n)
    }

    /// Find the single row where unique `col == value`.
    pub fn lookup_unique(
        &mut self,
        t: &TableHandle,
        col: &str,
        value: &Value,
    ) -> StoreResult<Option<(RowId, Vec<Value>)>> {
        let hits = self.scan(t, &Predicate::eq(col, value.clone()))?;
        Ok(hits.into_iter().next())
    }

    /// Flush everything to stable storage.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        self.kv.seal()
    }

    // -- key builders -------------------------------------------------------

    fn catalog_key(name: &str) -> Vec<u8> {
        let mut k = b"c:".to_vec();
        k.extend_from_slice(name.as_bytes());
        k
    }

    fn rowctr_key(tid: u32) -> Vec<u8> {
        let mut k = b"n:".to_vec();
        k.extend_from_slice(&tid.to_be_bytes());
        k
    }

    fn row_prefix(tid: u32) -> Vec<u8> {
        let mut k = b"r:".to_vec();
        k.extend_from_slice(&tid.to_be_bytes());
        k
    }

    fn row_key(tid: u32, rowid: RowId) -> Vec<u8> {
        let mut k = Self::row_prefix(tid);
        k.extend_from_slice(&rowid.to_be_bytes());
        k
    }

    fn index_marker_key(tid: u32, col: u16) -> Vec<u8> {
        let mut k = b"xc:".to_vec();
        k.extend_from_slice(&tid.to_be_bytes());
        k.extend_from_slice(&col.to_be_bytes());
        k
    }

    fn index_prefix(tid: u32, col: u16, value: &Value) -> Vec<u8> {
        let mut k = b"x:".to_vec();
        k.extend_from_slice(&tid.to_be_bytes());
        k.extend_from_slice(&col.to_be_bytes());
        value.encode_ordered(&mut k);
        k
    }

    fn index_entry_key(tid: u32, col: u16, value: &Value, rowid: RowId) -> Vec<u8> {
        let mut k = Self::index_prefix(tid, col, value);
        k.extend_from_slice(&rowid.to_be_bytes());
        k
    }

    // -- internals ----------------------------------------------------------

    /// Atomically post-increment a big-endian counter key of width 4 or 8.
    fn bump_counter(&mut self, key: &[u8], width: usize) -> StoreResult<u64> {
        let stored = self.kv.get(key)?;
        let current = match (width, stored.as_deref()) {
            (4, Some(&[a, b, c, d])) => u64::from(u32::from_be_bytes([a, b, c, d])),
            (8, Some(bytes)) => bytes.try_into().map_or(1, u64::from_be_bytes),
            _ => 1,
        };
        let next = current + 1;
        if width == 4 {
            self.kv.put(key, &(next as u32).to_be_bytes())?;
        } else {
            self.kv.put(key, &next.to_be_bytes())?;
        }
        Ok(current)
    }

    fn indexed_cols(&self, tid: u32) -> Vec<u16> {
        self.indexes
            .get(&tid)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    fn probe_index(&mut self, t: &TableHandle, col: u16, value: &Value) -> StoreResult<Vec<RowId>> {
        let prefix = Self::index_prefix(t.id, col, value);
        Ok(self
            .kv
            .scan_prefix(&prefix)?
            .into_iter()
            .filter_map(|(k, _)| {
                let rowid = k.strip_prefix(prefix.as_slice())?.try_into().ok()?;
                Some(u64::from_be_bytes(rowid))
            })
            .collect())
    }

    fn check_unique(
        &mut self,
        t: &TableHandle,
        row: &[Value],
        updating: Option<RowId>,
    ) -> StoreResult<()> {
        for (i, (col, value)) in t.schema.columns.iter().zip(row).enumerate() {
            if !col.unique || matches!(value, Value::Null) {
                continue;
            }
            let hits = self.probe_index(t, i as u16, value)?;
            let conflict = hits.iter().any(|&r| Some(r) != updating);
            if conflict {
                return Err(StoreError::Duplicate(format!(
                    "column `{}` of `{}` already holds {:?}",
                    col.name, t.schema.name, value
                )));
            }
        }
        Ok(())
    }

    fn write_index_entries(
        &mut self,
        t: &TableHandle,
        rowid: RowId,
        row: &[Value],
    ) -> StoreResult<()> {
        for col in self.indexed_cols(t.id) {
            let key = Self::index_entry_key(t.id, col, cell(row, col)?, rowid);
            self.kv.put(&key, &[])?;
        }
        Ok(())
    }

    fn remove_index_entries(
        &mut self,
        t: &TableHandle,
        rowid: RowId,
        row: &[Value],
    ) -> StoreResult<()> {
        for col in self.indexed_cols(t.id) {
            let key = Self::index_entry_key(t.id, col, cell(row, col)?, rowid);
            self.kv.delete(&key)?;
        }
        Ok(())
    }
}

/// The row's value in column `col`: a stored row shorter than the index it
/// is listed under is corruption.
fn cell(row: &[Value], col: u16) -> StoreResult<&Value> {
    row.get(usize::from(col))
        .ok_or_else(|| StoreError::Corrupt(format!("row has no column {col}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rel::predicate::CmpOp;
    use crate::rel::schema::{ColType, Column};

    fn pages_table(db: &mut Database) -> TableHandle {
        db.create_table(
            Schema::new(
                "pages",
                vec![
                    Column::unique("url", ColType::Text),
                    Column::new("topic", ColType::Int),
                    Column::new("bytes", ColType::Int),
                ],
            )
            .unwrap(),
        )
        .unwrap()
    }

    fn page(url: &str, topic: i64, bytes: i64) -> Vec<Value> {
        vec![
            Value::Text(url.into()),
            Value::Int(topic),
            Value::Int(bytes),
        ]
    }

    #[test]
    fn insert_get_update_delete() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        let id = db.insert(&t, page("http://a", 1, 100)).unwrap();
        assert_eq!(db.get(&t, id).unwrap().unwrap()[1], Value::Int(1));
        db.update(&t, id, page("http://a", 2, 150)).unwrap();
        assert_eq!(db.get(&t, id).unwrap().unwrap()[1], Value::Int(2));
        assert!(db.delete(&t, id).unwrap());
        assert!(db.get(&t, id).unwrap().is_none());
        assert!(!db.delete(&t, id).unwrap());
    }

    #[test]
    fn row_ids_are_distinct_and_increasing() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        let a = db.insert(&t, page("http://a", 1, 1)).unwrap();
        let b = db.insert(&t, page("http://b", 1, 1)).unwrap();
        assert!(b > a);
    }

    #[test]
    fn unique_constraint_enforced() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        db.insert(&t, page("http://a", 1, 1)).unwrap();
        let err = db.insert(&t, page("http://a", 2, 2));
        assert!(matches!(err, Err(StoreError::Duplicate(_))));
        // Updating a row to its own value is fine.
        let (rid, _) = db
            .lookup_unique(&t, "url", &Value::Text("http://a".into()))
            .unwrap()
            .unwrap();
        db.update(&t, rid, page("http://a", 9, 9)).unwrap();
    }

    #[test]
    fn predicate_scan_and_index_probe_agree() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        for i in 0..50 {
            db.insert(
                &t,
                page(&format!("http://p{i}"), i64::from(i % 5), i64::from(i)),
            )
            .unwrap();
        }
        db.create_index(&t, "topic").unwrap();
        let by_index = db.scan(&t, &Predicate::eq("topic", Value::Int(3))).unwrap();
        assert_eq!(by_index.len(), 10);
        // Compound predicate still filters after the probe.
        let few = db
            .scan(
                &t,
                &Predicate::eq("topic", Value::Int(3)).and(Predicate::cmp(
                    "bytes",
                    CmpOp::Ge,
                    Value::Int(30),
                )),
            )
            .unwrap();
        assert_eq!(few.len(), 4);
        // Unindexed column -> full scan path gives the same answer shape.
        let by_scan = db
            .scan(&t, &Predicate::cmp("bytes", CmpOp::Lt, Value::Int(5)))
            .unwrap();
        assert_eq!(by_scan.len(), 5);
    }

    #[test]
    fn index_stays_consistent_through_update_delete() {
        let mut db = Database::open_memory().unwrap();
        let t = pages_table(&mut db);
        let id = db.insert(&t, page("http://a", 1, 1)).unwrap();
        db.create_index(&t, "topic").unwrap();
        db.update(&t, id, page("http://a", 2, 1)).unwrap();
        assert!(db
            .scan(&t, &Predicate::eq("topic", Value::Int(1)))
            .unwrap()
            .is_empty());
        assert_eq!(
            db.scan(&t, &Predicate::eq("topic", Value::Int(2)))
                .unwrap()
                .len(),
            1
        );
        db.delete(&t, id).unwrap();
        assert!(db
            .scan(&t, &Predicate::eq("topic", Value::Int(2)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn catalog_persists_across_reopen() {
        let dir = std::env::temp_dir().join(format!("memex-rel-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut db = Database::open_dir(&dir).unwrap();
            let t = pages_table(&mut db);
            db.insert(&t, page("http://persist", 7, 70)).unwrap();
            db.checkpoint().unwrap();
        }
        {
            let mut db = Database::open_dir(&dir).unwrap();
            let t = db.table("pages").unwrap();
            assert_eq!(t.schema.columns.len(), 3);
            let (_, row) = db
                .lookup_unique(&t, "url", &Value::Text("http://persist".into()))
                .unwrap()
                .unwrap();
            assert_eq!(row[1], Value::Int(7));
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
                Schema::new("users", vec![Column::unique("name", ColType::Text)]).unwrap(),
            )
            .unwrap();
        db.insert(&pages, page("http://a", 1, 1)).unwrap();
        db.insert(&users, vec![Value::Text("soumen".into())])
            .unwrap();
        assert_eq!(db.count(&pages).unwrap(), 1);
        assert_eq!(db.count(&users).unwrap(), 1);
        assert!(db
            .create_table(Schema::new("pages", vec![Column::new("x", ColType::Int)]).unwrap())
            .is_err());
    }
}
