//! Focused crawling (paper ref \[5\], Chakrabarti–van den Berg–Dom): a
//! crawler that stays on topic by prioritising the frontier with a
//! classifier's relevance estimate of the *linking* page, against an
//! unfocused BFS baseline. Experiment T4 reproduces the signature result:
//! the focused crawler's harvest rate stays high while the unfocused one
//! decays towards the topic's base rate.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use memex_learn::nb::NaiveBayes;
use memex_text::vocab::TermId;
use memex_web::corpus::Corpus;

/// Record of one crawl: pages in fetch order plus their ground-truth
/// on-topic flags.
#[derive(Debug, Clone)]
pub struct CrawlTrace {
    pub order: Vec<u32>,
    pub on_topic: Vec<bool>,
}

impl CrawlTrace {
    /// Overall harvest rate: on-topic fraction of all fetched pages.
    pub fn harvest_rate(&self) -> f64 {
        if self.order.is_empty() {
            return 0.0;
        }
        self.on_topic.iter().filter(|&&b| b).count() as f64 / self.order.len() as f64
    }

    /// Harvest-rate curve: for each prefix multiple of `step`, the
    /// cumulative on-topic fraction — the series the T4 figure plots.
    pub fn harvest_curve(&self, step: usize) -> Vec<(usize, f64)> {
        let mut out = Vec::new();
        let mut on = 0usize;
        for (i, &b) in self.on_topic.iter().enumerate() {
            if b {
                on += 1;
            }
            let n = i + 1;
            if n % step == 0 || n == self.on_topic.len() {
                out.push((n, on as f64 / n as f64));
            }
        }
        out
    }
}

/// Unfocused baseline: plain BFS from the seeds up to `budget` fetches.
pub fn unfocused_crawl(
    corpus: &Corpus,
    seeds: &[u32],
    target_topic: usize,
    budget: usize,
) -> CrawlTrace {
    let mut visited = vec![false; corpus.num_pages()];
    let mut queue = std::collections::VecDeque::new();
    let mut trace = CrawlTrace {
        order: Vec::new(),
        on_topic: Vec::new(),
    };
    for &s in seeds {
        if !visited[s as usize] {
            visited[s as usize] = true;
            queue.push_back(s);
        }
    }
    while let Some(p) = queue.pop_front() {
        if trace.order.len() >= budget {
            break;
        }
        trace.order.push(p);
        trace.on_topic.push(corpus.topic_of(p) == target_topic);
        for &n in corpus.graph.out_links(p) {
            if !visited[n as usize] {
                visited[n as usize] = true;
                queue.push_back(n);
            }
        }
    }
    trace
}

/// Frontier entry ordered by priority (max-heap), FIFO on ties.
struct Entry {
    priority: f64,
    seq: u64,
    page: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.priority
            .partial_cmp(&other.priority)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Focused crawl: the frontier is prioritised by the relevance (classifier
/// posterior for `target_topic`) of the best *linking* page seen so far —
/// the paper's "soft focus" rule. `tf` supplies the term vectors the
/// classifier scores (the fetch step "downloads" the page text).
pub fn focused_crawl(
    corpus: &Corpus,
    tf: &[Vec<(TermId, u32)>],
    classifier: &NaiveBayes,
    target_topic: usize,
    seeds: &[u32],
    budget: usize,
) -> CrawlTrace {
    let n = corpus.num_pages();
    let mut best_priority = vec![f64::NEG_INFINITY; n];
    let mut fetched = vec![false; n];
    let mut heap: BinaryHeap<Entry> = BinaryHeap::new();
    let mut seq = 0u64;
    for &s in seeds {
        best_priority[s as usize] = 1.0;
        heap.push(Entry {
            priority: 1.0,
            seq,
            page: s,
        });
        seq += 1;
    }
    let mut trace = CrawlTrace {
        order: Vec::new(),
        on_topic: Vec::new(),
    };
    while let Some(Entry { page, .. }) = heap.pop() {
        if fetched[page as usize] {
            continue;
        }
        if trace.order.len() >= budget {
            break;
        }
        fetched[page as usize] = true;
        trace.order.push(page);
        trace.on_topic.push(corpus.topic_of(page) == target_topic);
        // Fetch -> classify -> propagate relevance to out-links.
        let relevance = classifier.posteriors(&tf[page as usize])[target_topic];
        for &link in corpus.graph.out_links(page) {
            let li = link as usize;
            if !fetched[li] && relevance > best_priority[li] {
                best_priority[li] = relevance;
                heap.push(Entry {
                    priority: relevance,
                    seq,
                    page: link,
                });
                seq += 1;
            }
        }
    }
    trace
}

#[cfg(test)]
mod tests {
    use super::*;
    use memex_learn::nb::NbOptions;
    use memex_web::corpus::{Corpus, CorpusConfig};

    fn setup() -> (Corpus, Vec<Vec<(TermId, u32)>>, NaiveBayes) {
        // The regime where focus matters: a web much larger than the crawl
        // budget, a topic that is plentiful but not exhaustible within the
        // budget, and enough cross-topic edges for BFS to drift. Many topics
        // matter more than locality here: once BFS drifts off-topic, the
        // chance a link leads *back* is (1-locality)/(topics-1), so a wide
        // topic space keeps the unfocused tail near the base rate.
        let corpus = Corpus::generate(CorpusConfig {
            num_topics: 10,
            pages_per_topic: 600,
            link_locality: 0.7,
            seed: 5,
            ..CorpusConfig::default()
        });
        let analyzed = corpus.analyze();
        // Train a topic classifier on a third of the pages.
        let mut nb = NaiveBayes::new(10, NbOptions::default());
        for p in corpus.pages.iter().filter(|p| p.id % 3 == 0) {
            nb.add_document(p.topic, &analyzed.tf[p.id as usize]);
        }
        (corpus, analyzed.tf, nb)
    }

    #[test]
    fn focused_beats_unfocused_harvest() {
        let (corpus, tf, nb) = setup();
        let target = 2usize;
        // One seed: BFS then spends its budget going deep, where per-hop
        // topic mixing compounds; more seeds keep it shallow and on-topic.
        let seeds: Vec<u32> = corpus
            .front_pages_of_topic(target)
            .into_iter()
            .take(1)
            .collect();
        let budget = 500;
        let focused = focused_crawl(&corpus, &tf, &nb, target, &seeds, budget);
        let unfocused = unfocused_crawl(&corpus, &seeds, target, budget);
        assert_eq!(focused.order.len(), budget);
        assert!(
            focused.harvest_rate() > unfocused.harvest_rate() + 0.15,
            "focused {} vs unfocused {}",
            focused.harvest_rate(),
            unfocused.harvest_rate()
        );
        assert!(focused.harvest_rate() > 0.6);
        // The paper-shape claim: the focused crawler *sustains* its harvest
        // while the unfocused one decays towards the base rate.
        let tail = |t: &CrawlTrace| {
            let n = t.on_topic.len();
            let w = n / 3;
            t.on_topic[n - w..].iter().filter(|&&b| b).count() as f64 / w as f64
        };
        assert!(tail(&focused) > 0.5, "focused tail {}", tail(&focused));
        assert!(
            tail(&unfocused) < 0.3,
            "unfocused tail {}",
            tail(&unfocused)
        );
    }

    #[test]
    fn traces_never_refetch() {
        let (corpus, tf, nb) = setup();
        let seeds = vec![0u32, 1];
        let t = focused_crawl(&corpus, &tf, &nb, 0, &seeds, 120);
        let mut sorted = t.order.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), t.order.len(), "no duplicates in fetch order");
        let u = unfocused_crawl(&corpus, &seeds, 0, 120);
        let mut us = u.order.clone();
        us.sort_unstable();
        us.dedup();
        assert_eq!(us.len(), u.order.len());
    }

    #[test]
    fn harvest_curve_is_cumulative() {
        let trace = CrawlTrace {
            order: vec![1, 2, 3, 4],
            on_topic: vec![true, false, true, true],
        };
        let curve = trace.harvest_curve(2);
        assert_eq!(curve, vec![(2, 0.5), (4, 0.75)]);
        assert_eq!(trace.harvest_rate(), 0.75);
    }

    #[test]
    fn empty_seeds_give_empty_trace() {
        let (corpus, tf, nb) = setup();
        let t = focused_crawl(&corpus, &tf, &nb, 0, &[], 50);
        assert!(t.order.is_empty());
        assert_eq!(t.harvest_rate(), 0.0);
    }

    #[test]
    fn budget_limits_fetches() {
        let (corpus, _, _) = setup();
        let seeds: Vec<u32> = (0..5).collect();
        let t = unfocused_crawl(&corpus, &seeds, 0, 10);
        assert_eq!(t.order.len(), 10);
    }
}
