//! Cross-crate durability: the storage substrate the server uses must
//! survive process "restarts" (drop + reopen) and torn writes, end to end
//! through the inverted index.

use std::ops::Bound;

use memex::index::index::InvertedIndex;
use memex::index::search::{bm25_search, Bm25Params};
use memex::store::lsm::{LsmOptions, LsmStore};
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
fn term_store_recovers_from_torn_wal() {
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
