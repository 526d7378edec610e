//! **T3 — §4 / ref \[6\]:** "For clustering we started with a bottom-up
//! hierarchical agglomerative approach" and Memex "uses unsupervised
//! clustering to propose a topic hierarchy". Scatter/Gather's selling
//! point (the cited Cutting–Karger–Pedersen paper) is *constant
//! interaction time*: Buckshot/Fractionation seeding makes clustering
//! near-linear where full HAC is quadratic — at comparable quality.

use std::time::Instant;

use crate::quality::purity;
use memex_cluster::hac::hac_cut;
use memex_cluster::scatter::{buckshot, fractionation};
use memex_text::vector::SparseVec;
use memex_web::corpus::{Corpus, CorpusConfig};

use crate::table::{f3, Table};

/// Build a clustering workload of roughly `n` interior documents over 8
/// topics; returns (docs, ground truth).
pub fn workload(n: usize, seed: u64) -> (Vec<SparseVec>, Vec<usize>) {
    let per_topic = (n / 8).max(4);
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: 8,
        pages_per_topic: per_topic + (per_topic as f64 * 0.4) as usize,
        // Noisier, shorter text than the default so quality differences are
        // visible (perfectly-separable topics make every algorithm score 1.0).
        interior_topic_bias: 0.3,
        interior_tokens: (30, 90),
        seed,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    let mut docs = Vec::new();
    let mut truth = Vec::new();
    for p in corpus.pages.iter().filter(|p| !p.is_front) {
        docs.push(analyzed.tfidf[p.id as usize].clone());
        truth.push(p.topic);
        if docs.len() >= n {
            break;
        }
    }
    (docs, truth)
}

/// The T3 table: time and purity vs n for the three algorithms.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "T3: clustering interaction time — full HAC vs Scatter/Gather seeding",
        &[
            "n docs",
            "HAC time",
            "HAC purity",
            "Buckshot time",
            "Buckshot purity",
            "Fractionation time",
            "Fract. purity",
        ],
    );
    let sweep: &[usize] = if quick {
        &[100, 200]
    } else {
        &[200, 400, 800, 1_600]
    };
    let k = 8;
    for &n in sweep {
        let (docs, truth) = workload(n, 66);
        let t0 = Instant::now();
        let hac_labels = hac_cut(&docs, k);
        let hac_time = t0.elapsed();
        let t0 = Instant::now();
        let buck = buckshot(&docs, k, 9);
        let buck_time = t0.elapsed();
        let t0 = Instant::now();
        let frac = fractionation(&docs, k, 60, 0.25, 9);
        let frac_time = t0.elapsed();
        table.row(vec![
            docs.len().to_string(),
            format!("{:.1} ms", hac_time.as_secs_f64() * 1e3),
            f3(purity(&hac_labels, &truth)),
            format!("{:.1} ms", buck_time.as_secs_f64() * 1e3),
            f3(purity(&buck.labels, &truth)),
            format!("{:.1} ms", frac_time.as_secs_f64() * 1e3),
            f3(purity(&frac.labels, &truth)),
        ]);
    }
    table.note("HAC grows ~quadratically; Buckshot stays near-linear (constant interaction time)");
    table
}
