//! **T4 — §4 / ref \[5\]:** "automatic resource discovery is undertaken by
//! demons to update users about recent and/or authoritative sources,
//! organized by topic", built on focused crawling. The signature figure of
//! the focused-crawling paper: harvest rate stays high for the focused
//! crawler while the unfocused baseline decays toward the base rate.

use crate::crawler::{focused_crawl, unfocused_crawl, CrawlTrace};
use memex_learn::nb::{NaiveBayes, NbOptions};
use memex_web::corpus::{Corpus, CorpusConfig};

use crate::table::{pct, Table};

/// Run both crawlers on the T4 web.
pub fn run_once(quick: bool, seed: u64) -> (CrawlTrace, CrawlTrace, usize) {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: 6,
        pages_per_topic: if quick { 200 } else { 600 },
        link_locality: 0.8,
        seed,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let mut nb = NaiveBayes::new(6, NbOptions::default());
    for p in corpus.pages.iter().filter(|p| p.id % 3 == 0) {
        nb.add_document(p.topic, &analyzed.tf[p.id as usize]);
    }
    let target = 2usize;
    let seeds: Vec<u32> = corpus
        .front_pages_of_topic(target)
        .into_iter()
        .take(3)
        .collect();
    let budget = if quick { 180 } else { 500 };
    let focused = focused_crawl(&corpus, &analyzed.tf, &nb, target, &seeds, budget);
    let unfocused = unfocused_crawl(&corpus, &seeds, target, budget);
    (focused, unfocused, budget)
}

/// Mean on-topic rate in the final third of a trace (the steady state).
fn tail_rate(t: &CrawlTrace) -> f64 {
    let n = t.on_topic.len();
    if n == 0 {
        return 0.0;
    }
    let w = (n / 3).max(1);
    t.on_topic[n - w..].iter().filter(|&&b| b).count() as f64 / w as f64
}

/// The T4 table: the harvest-rate curve at checkpoints, seed-averaged.
pub fn run(quick: bool) -> Table {
    let seeds: &[u64] = if quick { &[77] } else { &[77, 78, 79] };
    let mut budget = 0usize;
    let mut curves_f: Vec<Vec<f64>> = Vec::new();
    let mut curves_u: Vec<Vec<f64>> = Vec::new();
    let mut cum_f = 0.0;
    let mut cum_u = 0.0;
    let mut tail_f = 0.0;
    let mut tail_u = 0.0;
    let mut checkpoints: Vec<usize> = Vec::new();
    for &s in seeds {
        let (focused, unfocused, b) = run_once(quick, s);
        budget = b;
        let step = b / 5;
        let fc = focused.harvest_curve(step);
        let uc = unfocused.harvest_curve(step);
        checkpoints = fc.iter().map(|&(n, _)| n).collect();
        curves_f.push(fc.iter().map(|&(_, h)| h).collect());
        curves_u.push(uc.iter().map(|&(_, h)| h).collect());
        cum_f += focused.harvest_rate();
        cum_u += unfocused.harvest_rate();
        tail_f += tail_rate(&focused);
        tail_u += tail_rate(&unfocused);
    }
    let k = seeds.len() as f64;
    let mut table = Table::new(
        "T4: harvest rate vs pages crawled (target topic 1-of-6, base rate 16.7%)",
        &["pages crawled", "focused harvest", "unfocused harvest"],
    );
    for (i, &n) in checkpoints.iter().enumerate() {
        let f: f64 = curves_f.iter().filter_map(|c| c.get(i)).sum::<f64>() / k;
        let u: f64 = curves_u.iter().filter_map(|c| c.get(i)).sum::<f64>() / k;
        table.row(vec![n.to_string(), pct(f), pct(u)]);
    }
    table.note(&format!(
        "cumulative over {budget}: focused {} vs unfocused {}; steady-state (final third): focused {} vs unfocused {}",
        pct(cum_f / k),
        pct(cum_u / k),
        pct(tail_f / k),
        pct(tail_u / k),
    ));
    table
        .note("paper shape (ref [5]): focused sustains harvest; unfocused decays toward base rate");
    table
}
