//! The synthetic topical web.
//!
//! Pages come in two kinds mirroring the paper's observation about
//! bookmarks: **interior** pages with substantial topical text, and
//! **front** pages with little text (mostly generic words) but many links.
//! Hyperlinks are topic-local with probability `link_locality`, which is
//! the property the enhanced classifier (T1) and the focused crawler (T4)
//! exploit.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use memex_graph::graph::WebGraph;
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_text::analyze::Analyzer;
use memex_text::vector::SparseVec;
use memex_text::vocab::{TermId, Vocabulary};

use crate::zipf::Zipf;

/// Generator parameters.
#[derive(Debug, Clone)]
pub struct CorpusConfig {
    /// Number of leaf topics.
    pub num_topics: usize,
    /// Pages generated per topic.
    pub pages_per_topic: usize,
    /// Fraction of each topic's pages that are front pages.
    pub front_fraction: f64,
    /// Distinct-token count range for interior pages.
    pub interior_tokens: (usize, usize),
    /// Distinct-token count range for front pages (short!).
    pub front_tokens: (usize, usize),
    /// Topic-specific vocabulary size per topic.
    pub vocab_per_topic: usize,
    /// Shared (topic-neutral) vocabulary size.
    pub shared_vocab: usize,
    /// Probability an interior token comes from the topic vocabulary.
    pub interior_topic_bias: f64,
    /// Probability a front-page token comes from the topic vocabulary
    /// (low: front pages are navigational chrome).
    pub front_topic_bias: f64,
    /// Out-link count range for interior pages.
    pub interior_links: (usize, usize),
    /// Out-link count range for front pages (high: they are hubs).
    pub front_links: (usize, usize),
    /// Probability a link stays within the page's topic.
    pub link_locality: f64,
    /// Zipf exponent of the word distributions.
    pub zipf_alpha: f64,
    pub seed: u64,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            num_topics: 8,
            pages_per_topic: 60,
            front_fraction: 0.3,
            interior_tokens: (60, 160),
            front_tokens: (4, 12),
            vocab_per_topic: 150,
            shared_vocab: 400,
            interior_topic_bias: 0.6,
            front_topic_bias: 0.15,
            interior_links: (2, 6),
            front_links: (8, 18),
            link_locality: 0.85,
            zipf_alpha: 1.05,
            seed: 0x1999,
        }
    }
}

/// A generated page.
#[derive(Debug, Clone)]
pub struct Page {
    pub id: u32,
    pub url: String,
    /// Ground-truth topic (leaf index, 0-based).
    pub topic: usize,
    pub is_front: bool,
    pub title: String,
    /// Generated body text (plain words; run through the real analyzer).
    pub text: String,
    /// Simulated transfer size in bytes (front pages carry graphics).
    pub bytes: u32,
}

/// Human-ish topic names cycled for readability in demos and tests.
const TOPIC_NAMES: &[&str] = &[
    "classical music",
    "recreational cycling",
    "compiler research",
    "travel asia",
    "stock markets",
    "gardening orchids",
    "cricket news",
    "linux kernels",
    "astronomy imaging",
    "vegetarian cooking",
    "chess openings",
    "folk dance",
];

/// The generated web.
#[derive(Debug, Clone)]
pub struct Corpus {
    pub config: CorpusConfig,
    pub pages: Vec<Page>,
    pub graph: WebGraph,
    /// Leaf topic names (index = ground-truth topic).
    pub topic_names: Vec<String>,
    /// A reference taxonomy: root -> one node per topic.
    pub taxonomy: Taxonomy,
    /// Taxonomy node per topic index.
    pub topic_nodes: Vec<TopicId>,
}

impl Corpus {
    /// Generate a corpus from `config` (fully deterministic per seed).
    pub fn generate(config: CorpusConfig) -> Corpus {
        assert!(config.num_topics >= 2, "need at least two topics");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let topic_names: Vec<String> = (0..config.num_topics)
            .map(|t| {
                let base = TOPIC_NAMES[t % TOPIC_NAMES.len()];
                if t < TOPIC_NAMES.len() {
                    base.to_string()
                } else {
                    format!("{base} {}", t / TOPIC_NAMES.len() + 1)
                }
            })
            .collect();
        let mut taxonomy = Taxonomy::new();
        let topic_nodes: Vec<TopicId> = topic_names
            .iter()
            .map(|n| taxonomy.add_child(Taxonomy::ROOT, n))
            .collect();

        // Vocabulary pools. Topic pools open with the topic's name words so
        // examples read naturally; the rest are synthetic stems.
        let topic_pools: Vec<Vec<String>> = (0..config.num_topics)
            .map(|t| {
                let mut pool: Vec<String> = topic_names[t]
                    .split_whitespace()
                    .map(str::to_string)
                    .collect();
                for i in pool.len()..config.vocab_per_topic {
                    pool.push(format!("{}term{}", topic_slug(&topic_names[t]), i));
                }
                pool
            })
            .collect();
        let shared_pool: Vec<String> = (0..config.shared_vocab)
            .map(|i| format!("common{i}"))
            .collect();
        let topic_zipf = Zipf::new(config.vocab_per_topic, config.zipf_alpha);
        let shared_zipf = Zipf::new(config.shared_vocab, config.zipf_alpha);

        // Pages.
        let total = config.num_topics * config.pages_per_topic;
        let mut pages = Vec::with_capacity(total);
        for topic in 0..config.num_topics {
            let fronts = ((config.pages_per_topic as f64) * config.front_fraction).round() as usize;
            for j in 0..config.pages_per_topic {
                let id = pages.len() as u32;
                let is_front = j < fronts;
                let (lo, hi) = if is_front {
                    config.front_tokens
                } else {
                    config.interior_tokens
                };
                let ntok = rng.gen_range(lo..=hi.max(lo));
                let bias = if is_front {
                    config.front_topic_bias
                } else {
                    config.interior_topic_bias
                };
                let mut words = Vec::with_capacity(ntok);
                for _ in 0..ntok {
                    if rng.gen_bool(bias) {
                        words.push(topic_pools[topic][topic_zipf.sample(&mut rng)].clone());
                    } else {
                        words.push(shared_pool[shared_zipf.sample(&mut rng)].clone());
                    }
                }
                let title = if is_front {
                    // Front pages are navigational chrome: their title names
                    // nothing topical (matching the paper's observation that
                    // bookmarked front pages carry little text signal).
                    "welcome portal links".to_string()
                } else {
                    words.iter().take(3).cloned().collect::<Vec<_>>().join(" ")
                };
                let text = words.join(" ");
                let bytes = (text.len() as u32)
                    + if is_front {
                        rng.gen_range(20_000u32..80_000)
                    } else {
                        rng.gen_range(1_000u32..8_000)
                    };
                pages.push(Page {
                    id,
                    url: format!(
                        "http://{}{}.example/{}{}",
                        topic_slug(&topic_names[topic]),
                        topic,
                        if is_front { "index" } else { "page" },
                        j
                    ),
                    topic,
                    is_front,
                    title,
                    text,
                    bytes,
                });
            }
        }

        // Links.
        let mut graph = WebGraph::with_nodes(total);
        let per = config.pages_per_topic;
        for (p, page) in pages.iter().enumerate() {
            let (lo, hi) = if page.is_front {
                config.front_links
            } else {
                config.interior_links
            };
            let nlinks = rng.gen_range(lo..=hi.max(lo));
            for _ in 0..nlinks {
                let target = if rng.gen_bool(config.link_locality) {
                    // Same-topic target; interior pages prefer their front
                    // pages (hubs) half the time.
                    let fronts = ((per as f64) * config.front_fraction).round() as usize;
                    let base = page.topic * per;
                    if !page.is_front && fronts > 0 && rng.gen_bool(0.5) {
                        base + rng.gen_range(0..fronts)
                    } else {
                        base + rng.gen_range(0..per)
                    }
                } else {
                    rng.gen_range(0..total)
                };
                if target != p {
                    graph.add_edge(p as u32, target as u32);
                }
            }
        }

        Corpus {
            config,
            pages,
            graph,
            topic_names,
            taxonomy,
            topic_nodes,
        }
    }

    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Ground-truth topic of a page id.
    pub fn topic_of(&self, page: u32) -> usize {
        self.pages[page as usize].topic
    }

    /// Page ids of one topic.
    pub fn pages_of_topic(&self, topic: usize) -> Vec<u32> {
        self.pages
            .iter()
            .filter(|p| p.topic == topic)
            .map(|p| p.id)
            .collect()
    }

    /// Front-page ids of one topic (session seeds, bookmark magnets).
    pub fn front_pages_of_topic(&self, topic: usize) -> Vec<u32> {
        self.pages
            .iter()
            .filter(|p| p.topic == topic && p.is_front)
            .map(|p| p.id)
            .collect()
    }

    /// Run every page through the real text pipeline.
    pub fn analyze(&self) -> AnalyzedCorpus {
        let analyzer = Analyzer;
        let mut vocab = Vocabulary::new();
        let tf: Vec<Vec<(TermId, u32)>> = self
            .pages
            .iter()
            .map(|p| {
                let full = format!("{} {}", p.title, p.text);
                analyzer.index_document(&mut vocab, &full)
            })
            .collect();
        let tfidf: Vec<SparseVec> = tf
            .iter()
            .map(|pairs| analyzer.tfidf(&vocab, pairs))
            .collect();
        AnalyzedCorpus { vocab, tf, tfidf }
    }
}

/// Per-page term statistics from the real analyzer pipeline.
#[derive(Debug, Clone)]
pub struct AnalyzedCorpus {
    pub vocab: Vocabulary,
    /// Raw term-frequency pairs per page.
    pub tf: Vec<Vec<(TermId, u32)>>,
    /// Unit TF-IDF vector per page.
    pub tfidf: Vec<SparseVec>,
}

fn topic_slug(name: &str) -> String {
    name.split_whitespace()
        .next()
        .unwrap_or("topic")
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Corpus {
        Corpus::generate(CorpusConfig {
            num_topics: 4,
            pages_per_topic: 30,
            ..CorpusConfig::default()
        })
    }

    #[test]
    fn deterministic_per_seed() {
        let a = small();
        let b = small();
        assert_eq!(a.pages.len(), b.pages.len());
        assert_eq!(a.pages[17].text, b.pages[17].text);
        assert_eq!(a.graph.num_edges(), b.graph.num_edges());
        let mut cfg = CorpusConfig {
            num_topics: 4,
            pages_per_topic: 30,
            ..CorpusConfig::default()
        };
        cfg.seed = 7;
        let c = Corpus::generate(cfg);
        assert_ne!(a.pages[17].text, c.pages[17].text);
    }

    #[test]
    fn front_pages_are_short_and_linky() {
        let c = small();
        let mut front_tokens = 0usize;
        let mut front_links = 0usize;
        let mut front_count = 0usize;
        let mut interior_tokens = 0usize;
        let mut interior_links = 0usize;
        let mut interior_count = 0usize;
        for p in &c.pages {
            let ntok = p.text.split_whitespace().count();
            let nlink = c.graph.out_degree(p.id);
            if p.is_front {
                front_tokens += ntok;
                front_links += nlink;
                front_count += 1;
            } else {
                interior_tokens += ntok;
                interior_links += nlink;
                interior_count += 1;
            }
        }
        assert!(front_count > 0 && interior_count > 0);
        assert!(
            front_tokens / front_count < interior_tokens / interior_count / 4,
            "front pages must be much shorter"
        );
        assert!(front_links / front_count > interior_links / interior_count);
    }

    #[test]
    fn links_are_topic_local() {
        let c = small();
        let mut local = 0u64;
        let mut total = 0u64;
        for p in &c.pages {
            for &t in c.graph.out_links(p.id) {
                total += 1;
                if c.topic_of(t) == p.topic {
                    local += 1;
                }
            }
        }
        let frac = local as f64 / total as f64;
        assert!(frac > 0.7, "locality {frac} too low");
    }

    #[test]
    fn analyzer_vectors_separate_topics() {
        let c = small();
        let a = c.analyze();
        // Mean within-topic interior-page cosine should beat cross-topic.
        let interior: Vec<&Page> = c.pages.iter().filter(|p| !p.is_front).collect();
        let mut within = (0.0f64, 0u32);
        let mut across = (0.0f64, 0u32);
        for (i, p) in interior.iter().enumerate().step_by(3) {
            for q in interior.iter().skip(i + 1).step_by(7) {
                let cos = f64::from(a.tfidf[p.id as usize].cosine(&a.tfidf[q.id as usize]));
                if p.topic == q.topic {
                    within.0 += cos;
                    within.1 += 1;
                } else {
                    across.0 += cos;
                    across.1 += 1;
                }
            }
        }
        let within_mean = within.0 / f64::from(within.1.max(1));
        let across_mean = across.0 / f64::from(across.1.max(1));
        assert!(
            within_mean > across_mean + 0.1,
            "within {within_mean} vs across {across_mean}"
        );
    }

    #[test]
    fn taxonomy_mirrors_topics() {
        let c = small();
        assert_eq!(c.topic_nodes.len(), 4);
        for (t, &node) in c.topic_nodes.iter().enumerate() {
            assert_eq!(c.taxonomy.name(node), c.topic_names[t]);
        }
        assert_eq!(c.taxonomy.leaves().len(), 4);
    }

    #[test]
    fn helper_queries() {
        let c = small();
        let t0 = c.pages_of_topic(0);
        assert_eq!(t0.len(), 30);
        let fronts = c.front_pages_of_topic(0);
        assert!(!fronts.is_empty() && fronts.len() < 30);
        assert!(fronts.iter().all(|&p| c.pages[p as usize].is_front));
    }
}
