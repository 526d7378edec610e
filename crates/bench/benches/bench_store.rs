//! Criterion bench for the storage substrate (the architecture ablation
//! behind §3's "storing term-level statistics in an RDBMS would have
//! overwhelming space and time overheads"): raw KV puts/gets vs going
//! through the relational engine with an index.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use memex_store::lsm::LsmStore;
use memex_store::rel::{ColType, Column, Database, Predicate, Schema, Value};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("store_ablation");
    group.sample_size(10);
    let n = 2_000u32;
    group.throughput(Throughput::Elements(u64::from(n)));
    group.bench_function("kv_put_2k_term_stats", |b| {
        b.iter(|| {
            let mut kv = LsmStore::open_memory().expect("kv");
            for i in 0..n {
                kv.put(format!("tf:{i:08}").as_bytes(), &i.to_le_bytes())
                    .expect("put");
            }
            kv.stats().puts
        })
    });
    group.bench_function("rdbms_insert_2k_term_stats", |b| {
        b.iter(|| {
            let mut db = Database::open_memory().expect("db");
            let t = db
                .create_table(
                    Schema::new(
                        "terms",
                        vec![
                            Column::unique("term", ColType::Text),
                            Column::new("tf", ColType::Int),
                        ],
                    )
                    .expect("schema"),
                )
                .expect("table");
            for i in 0..n {
                db.insert(
                    &t,
                    vec![Value::Text(format!("tf:{i:08}")), Value::Int(i64::from(i))],
                )
                .expect("insert");
            }
            db.count(&t).expect("count")
        })
    });
    group.throughput(Throughput::Elements(1));
    // Point-lookup comparison on prepared stores.
    let mut kv = LsmStore::open_memory().expect("kv");
    for i in 0..n {
        kv.put(format!("tf:{i:08}").as_bytes(), &i.to_le_bytes())
            .expect("put");
    }
    let mut db = Database::open_memory().expect("db");
    let t = db
        .create_table(
            Schema::new(
                "terms",
                vec![
                    Column::unique("term", ColType::Text),
                    Column::new("tf", ColType::Int),
                ],
            )
            .expect("schema"),
        )
        .expect("table");
    for i in 0..n {
        db.insert(
            &t,
            vec![Value::Text(format!("tf:{i:08}")), Value::Int(i64::from(i))],
        )
        .expect("insert");
    }
    group.bench_function("kv_point_get", |b| {
        b.iter(|| kv.get(std::hint::black_box(b"tf:00000999")).expect("get"))
    });
    group.bench_function("rdbms_indexed_lookup", |b| {
        b.iter(|| {
            db.scan(
                &t,
                &Predicate::eq("term", Value::Text("tf:00000999".into())),
            )
            .expect("scan")
        })
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
