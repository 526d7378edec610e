//! Tests of A6's relational engine: a model-based property test (a random
//! stream of inserts and reopens against a `BTreeMap` reference model — the
//! table has a Text key, a unique Int and a plain Int; inserts collide often
//! in both unique columns, and after every operation a lookup by either
//! unique column and the row count must match the model), the laws of its
//! value encodings, and a catalog round trip through a restart.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, Ordering};

use proptest::prelude::*;

use memex_bench::rel::value::{get_ivarint, put_ivarint};
use memex_bench::rel::{ColType, Column, Database, RelError, Schema, TableHandle, Value};

/// Both unique columns draw from this many values, so duplicates are common.
const DOMAIN: u8 = 8;

#[derive(Debug, Clone)]
enum Op {
    Insert { key: u8, uniq: u8, plain: i8 },
    Reopen,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        6 => (0..DOMAIN, 0..DOMAIN, any::<i8>())
            .prop_map(|(key, uniq, plain)| Op::Insert { key, uniq, plain }),
        1 => Just(Op::Reopen),
    ]
}

fn row(key: u8, uniq: u8, plain: i8) -> Vec<Value> {
    vec![
        Value::Text(format!("k{key}")),
        Value::Int(i64::from(uniq)),
        Value::Int(i64::from(plain)),
    ]
}

/// Every lookup by either unique column, and the count, agree with `model`
/// (key → (uniq, plain)).
fn check(
    db: &Database,
    t: &TableHandle,
    model: &BTreeMap<u8, (u8, i8)>,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(db.count(t).unwrap(), model.len() as u64);
    for v in 0..DOMAIN {
        let by_key = db
            .lookup_unique(t, "key", &Value::Text(format!("k{v}")))
            .unwrap();
        let want = model.get(&v).map(|&(uniq, plain)| row(v, uniq, plain));
        prop_assert_eq!(by_key, want);
        let by_uniq = db
            .lookup_unique(t, "uniq", &Value::Int(i64::from(v)))
            .unwrap();
        let want = model
            .iter()
            .find(|(_, &(uniq, _))| uniq == v)
            .map(|(&key, &(uniq, plain))| row(key, uniq, plain));
        prop_assert_eq!(by_uniq, want);
    }
    Ok(())
}

static CASE: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn rel_engine_matches_model(ops in proptest::collection::vec(op_strategy(), 1..60)) {
        let dir = std::env::temp_dir().join(format!(
            "memex-rel-prop-{}-{}",
            std::process::id(),
            CASE.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let schema = Schema::new(
            "items",
            vec![
                Column::unique("key", ColType::Text),
                Column::unique("uniq", ColType::Int),
                Column::new("plain", ColType::Int),
            ],
        )
        .unwrap();
        let mut db = Database::open_dir(&dir).unwrap();
        let mut t = db.create_table(schema.clone()).unwrap();
        let mut model: BTreeMap<u8, (u8, i8)> = BTreeMap::new();
        for op in ops {
            match op {
                Op::Insert { key, uniq, plain } => {
                    let dup = model.contains_key(&key) || model.values().any(|&(u, _)| u == uniq);
                    match db.insert(&t, row(key, uniq, plain)) {
                        Ok(()) => {
                            prop_assert!(!dup, "duplicate insert ({key}, {uniq}) succeeded");
                            model.insert(key, (uniq, plain));
                        }
                        Err(RelError::Duplicate(_)) => prop_assert!(dup),
                        Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e:?}"))),
                    }
                }
                Op::Reopen => {
                    drop(db);
                    db = Database::open_dir(&dir).unwrap();
                    t = db.table("items").unwrap();
                    prop_assert_eq!(&t.schema, &schema);
                }
            }
            check(&db, &t, &model)?;
        }
        drop(db);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

proptest! {
    /// Signed varints (the row encoding of `Int` cells) round-trip.
    #[test]
    fn signed_varints_round_trip(i in any::<i64>()) {
        let mut buf = Vec::new();
        put_ivarint(&mut buf, i);
        let mut pos = 0;
        prop_assert_eq!(get_ivarint(&buf, &mut pos).unwrap(), i);
        prop_assert_eq!(pos, buf.len());
    }

    /// The ordered value encoding preserves ordering for ints and texts.
    #[test]
    fn ordered_encoding_is_monotone_int(a in any::<i64>(), b in any::<i64>()) {
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        Value::Int(a).encode_ordered(&mut ea);
        Value::Int(b).encode_ordered(&mut eb);
        prop_assert_eq!(a.cmp(&b), ea.cmp(&eb));
    }

    #[test]
    fn ordered_encoding_is_monotone_text(a in ".{0,12}", b in ".{0,12}") {
        let mut ea = Vec::new();
        let mut eb = Vec::new();
        Value::Text(a.clone()).encode_ordered(&mut ea);
        Value::Text(b.clone()).encode_ordered(&mut eb);
        prop_assert_eq!(a.as_bytes().cmp(b.as_bytes()), ea.cmp(&eb));
    }
}

#[test]
fn relational_catalog_round_trips_through_restart() {
    let dir = std::env::temp_dir().join(format!("memex-rel-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let users_schema = || {
        Schema::new(
            "users",
            vec![
                Column::unique("client_id", ColType::Int),
                Column::unique("name", ColType::Text),
                Column::new("joined", ColType::Int),
            ],
        )
        .unwrap()
    };
    let user = |i: i64, name: &str| vec![Value::Int(i), Value::Text(name.into()), Value::Int(i)];
    let names = ["soumen", "sandy", "manyam", "mits"];
    {
        let mut db = Database::open_dir(&dir).unwrap();
        let users = db.create_table(users_schema()).unwrap();
        for (i, name) in (1..).zip(names) {
            db.insert(&users, user(i, name)).unwrap();
        }
        db.checkpoint().unwrap();
    }
    {
        let mut db = Database::open_dir(&dir).unwrap();
        let users = db.table("users").unwrap();
        assert_eq!(users.schema, users_schema());
        assert_eq!(db.count(&users).unwrap(), 4);
        // Both unique columns still find every row.
        for (i, name) in (1..).zip(names) {
            let by_key = db.lookup_unique(&users, "client_id", &Value::Int(i));
            let by_name = db.lookup_unique(&users, "name", &Value::Text(name.into()));
            assert_eq!(by_key.unwrap(), Some(user(i, name)));
            assert_eq!(by_name.unwrap(), Some(user(i, name)));
        }
        // Uniqueness still enforced after restart, on either column.
        assert!(db.insert(&users, user(9, "soumen")).is_err());
        assert!(db.insert(&users, user(1, "sunita")).is_err());
        // A table created after the reopen gets a fresh id and sees none
        // of the first table's rows.
        let pages = db
            .create_table(
                Schema::new(
                    "pages",
                    vec![
                        Column::unique("page_id", ColType::Int),
                        Column::unique("name", ColType::Text),
                    ],
                )
                .unwrap(),
            )
            .unwrap();
        assert_ne!(pages.id, users.id);
        assert_eq!(db.count(&pages).unwrap(), 0);
        assert_eq!(
            db.lookup_unique(&pages, "page_id", &Value::Int(1)).unwrap(),
            None
        );
        assert_eq!(
            db.lookup_unique(&pages, "name", &Value::Text("mits".into()))
                .unwrap(),
            None
        );
        db.insert(&pages, vec![Value::Int(1), Value::Text("mits".into())])
            .unwrap();
        assert_eq!(db.count(&pages).unwrap(), 1);
        assert_eq!(db.count(&users).unwrap(), 4);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
