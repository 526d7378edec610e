//! Cross-crate durability: the same storage substrate the server uses must
//! survive process "restarts" (drop + reopen) and torn writes, end to end
//! through the inverted index and the metadata engine.

use std::ops::Bound;

use memex::index::index::InvertedIndex;
use memex::index::search::{bm25_search, Bm25Params};
use memex::store::lsm::{LsmOptions, LsmStore};
use memex::store::rel::{ColType, Column, Database, Schema, Value};
use memex::text::analyze::Analyzer;
use memex::text::vocab::Vocabulary;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("memex-it-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn indexed_corpus_survives_restart_and_answers_queries() {
    let dir = tmpdir("index");
    let analyzer = Analyzer;
    let mut vocab = Vocabulary::new();
    let docs = [
        (1u32, "bach organ fugue baroque music archive"),
        (2u32, "mountain cycling trail gear reviews"),
        (3u32, "bach cantata recordings and scores"),
    ];
    {
        let mut index = InvertedIndex::open_dir(&dir).unwrap();
        for (id, text) in docs {
            let tf = analyzer.index_document(&mut vocab, text);
            index.add_document(id, &tf).unwrap();
        }
        index.checkpoint().unwrap();
    }
    {
        let index = InvertedIndex::open_dir(&dir).unwrap();
        assert_eq!(index.num_docs(), 3);
        let bach = vocab.id(&memex::text::stem::stem("bach")).unwrap();
        let hits = bm25_search(&index, &[(bach, 1)], 10, Bm25Params::default()).unwrap();
        let pages: Vec<u32> = hits.iter().map(|h| h.doc).collect();
        assert!(pages.contains(&1) && pages.contains(&3) && !pages.contains(&2));
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metadata_db_and_term_store_recover_from_torn_wal() {
    let dir = tmpdir("torn");
    {
        let mut kv = LsmStore::open_dir(dir.join("terms"), LsmOptions::default()).unwrap();
        for i in 0..200u32 {
            kv.put(format!("df:{i:06}").as_bytes(), &i.to_le_bytes())
                .unwrap();
        }
        kv.sync().unwrap();
    }
    {
        // Crash mid-write of the last record: its last 5 bytes never
        // reached the disk.
        let wal = std::fs::OpenOptions::new()
            .write(true)
            .open(dir.join("terms").join("wal"))
            .unwrap();
        let len = wal.metadata().unwrap().len();
        wal.set_len(len - 5).unwrap();
    }
    {
        let kv = LsmStore::open_dir(dir.join("terms"), LsmOptions::default()).unwrap();
        assert!(kv.stats().recovered_torn_tail);
        // At most one record lost; everything else ordered and intact.
        let all = kv.scan(Bound::Unbounded, Bound::Unbounded).unwrap();
        assert!(all.len() >= 199);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        kv.check().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn relational_catalog_round_trips_through_restart() {
    let dir = tmpdir("rel");
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
