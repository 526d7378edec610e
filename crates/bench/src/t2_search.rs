//! **T2 — §2:** "Apart from a standard full-text search over all pages
//! visited…" — index build throughput, query latency and precision@10 as
//! the archived corpus grows.

use std::time::Instant;

use memex_index::index::InvertedIndex;
use memex_index::search::{bm25_search, Bm25Params};
use memex_text::analyze::Analyzer;
use memex_web::corpus::{Corpus, CorpusConfig};

use crate::table::{pct, Table};

/// One corpus-size point.
#[derive(Debug, Clone, Copy)]
pub struct SearchOutcome {
    pub pages: usize,
    pub build_docs_per_sec: f64,
    pub query_us: f64,
    pub precision_at_10: f64,
}

/// Build an index over a corpus of `pages_per_topic` and measure.
pub fn run_once(pages_per_topic: usize, seed: u64) -> SearchOutcome {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: 8,
        pages_per_topic,
        seed,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let mut index = InvertedIndex::open_memory().expect("index");
    let start = Instant::now();
    for p in &corpus.pages {
        index
            .add_document(p.id, &analyzed.tf[p.id as usize])
            .expect("add");
    }
    index.commit().expect("commit");
    let build = start.elapsed().as_secs_f64();
    // Queries: for each topic, its two name words (e.g. "classical music").
    let analyzer = Analyzer;
    let mut total_p10 = 0.0;
    let mut queries = 0usize;
    let mut query_time = 0.0;
    for (t, name) in corpus.topic_names.iter().enumerate() {
        let counts = analyzer.counts(name);
        let terms: Vec<(u32, u32)> = counts
            .iter()
            .filter_map(|(w, &c)| analyzed.vocab.id(w).map(|id| (id, c)))
            .collect();
        if terms.is_empty() {
            continue;
        }
        let start = Instant::now();
        let hits = bm25_search(&index, &terms, 10, Bm25Params::default()).expect("search");
        query_time += start.elapsed().as_secs_f64();
        if hits.is_empty() {
            continue;
        }
        let good = hits.iter().filter(|h| corpus.topic_of(h.doc) == t).count();
        total_p10 += good as f64 / hits.len() as f64;
        queries += 1;
    }
    SearchOutcome {
        pages: corpus.num_pages(),
        build_docs_per_sec: corpus.num_pages() as f64 / build.max(1e-9),
        query_us: query_time / queries.max(1) as f64 * 1e6,
        precision_at_10: total_p10 / queries.max(1) as f64,
    }
}

/// The T2 table: sweep corpus size.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T2: full-text search over visited pages",
        &[
            "pages",
            "index build (docs/s)",
            "query latency",
            "precision@10",
        ],
    );
    let sweep: &[usize] = if quick {
        &[50, 150]
    } else {
        &[125, 500, 2_000]
    };
    for &per in sweep {
        let o = run_once(per, 55);
        table.row(vec![
            o.pages.to_string(),
            format!("{:.0}", o.build_docs_per_sec),
            format!("{:.0} us", o.query_us),
            pct(o.precision_at_10),
        ]);
    }
    table.note("queries: each topic's two-word name against ground-truth topics");
    table
}
