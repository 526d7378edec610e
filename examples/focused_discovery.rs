//! Topic-organised resource discovery (§4 / paper ref [5]): a focused
//! crawler keeps its harvest rate high where blind BFS drifts off topic,
//! and HITS ranks the authorities among what it found.
//!
//! ```text
//! cargo run --release --example focused_discovery
//! ```

use memex::graph::hits::top_authorities;
use memex::learn::nb::{NaiveBayes, NbOptions};
use memex::web::corpus::{Corpus, CorpusConfig};
use memex_bench::crawler::{focused_crawl, unfocused_crawl};

fn main() {
    let corpus = Corpus::generate(CorpusConfig {
        num_topics: 6,
        pages_per_topic: 400,
        link_locality: 0.8,
        ..CorpusConfig::default()
    });
    let analyzed = corpus.analyze();
    println!(
        "web: {} pages over {} topics; target topic: \"{}\"\n",
        corpus.num_pages(),
        corpus.config.num_topics,
        corpus.topic_names[2]
    );

    // Train the relevance classifier on a third of the pages (the pages
    // the community has already surfed and filed).
    let mut nb = NaiveBayes::new(6, NbOptions::default());
    for p in corpus.pages.iter().filter(|p| p.id % 3 == 0) {
        nb.add_document(p.topic, &analyzed.tf[p.id as usize]);
    }

    let seeds: Vec<u32> = corpus.front_pages_of_topic(2).into_iter().take(3).collect();
    let budget = 400;
    let focused = focused_crawl(&corpus, &analyzed.tf, &nb, 2, &seeds, budget);
    let unfocused = unfocused_crawl(&corpus, &seeds, 2, budget);

    println!("harvest rate (cumulative on-topic fraction):");
    println!("  pages   focused   unfocused-BFS");
    for ((n, f), (_, u)) in focused
        .harvest_curve(budget / 8)
        .iter()
        .zip(unfocused.harvest_curve(budget / 8))
    {
        println!("  {:>5}   {:>6.1}%   {:>6.1}%", n, 100.0 * f, 100.0 * u);
    }
    println!(
        "\ncumulative: focused {:.1}% vs unfocused {:.1}% (topic base rate {:.1}%)",
        100.0 * focused.harvest_rate(),
        100.0 * unfocused.harvest_rate(),
        100.0 / corpus.config.num_topics as f64
    );

    // Rank the discovered on-topic pages by authority (HITS).
    let discovered: Vec<u32> = focused
        .order
        .iter()
        .zip(&focused.on_topic)
        .filter(|&(_, &on)| on)
        .map(|(&p, _)| p)
        .collect();
    println!(
        "\ntop authorities among the {} discovered on-topic pages:",
        discovered.len()
    );
    for (page, auth) in top_authorities(&corpus.graph, &discovered, 5) {
        println!("  auth {:.3}  {}", auth, corpus.pages[page as usize].url);
    }
}
