//! One index write path: how a seeded script's writes *arrive* — archived
//! in one sweep, one `dispatch` per write as the server does it, or in
//! batches of any size — must not show in what the index stores, in what it
//! costs to store it, or in what recall answers. Every script here crosses
//! the index's buffer bound, so there is a segment seal for the three to
//! agree on.

use proptest::prelude::*;

use memex_bench::script::{self, Script, USERS};
use memex_core::memex::Memex;
use memex_core::servlet::Request;
use memex_index::index::{InvertedIndex, BUFFER_DOCS};
use memex_store::vfs::SplitMix64;

/// `term`'s postings as the search reads them
/// ([`InvertedIndex::for_each_posting`]), collected in document order.
fn postings(index: &InvertedIndex, term: u32) -> Vec<(u32, u32)> {
    let mut pairs = Vec::new();
    index
        .for_each_posting(term, |doc, tf| pairs.push((doc, tf)))
        .unwrap();
    pairs.sort_unstable_by_key(|&(doc, _)| doc);
    pairs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    #[test]
    fn how_events_arrive_does_not_show_in_the_index_or_in_recall(seed in any::<u64>()) {
        let corpus = script::corpus(1_000);
        let script = Script::new(&corpus, seed, 1_400);
        let writes: Vec<Request> = script.writes().map(|(_, w)| w.clone()).collect();
        let mut rng = SplitMix64::new(!seed);
        let batches: Vec<usize> = (0..1 + rng.next() % 31)
            .map(|_| 1 + (rng.next() % 47) as usize)
            .collect();
        let [sweep, served, batched] = [vec![usize::MAX], vec![1], batches.clone()].map(|sizes| {
            let mut memex = script::archive(&corpus);
            script::feed(&mut memex, &writes, &sizes);
            memex
        });

        let cost = |m: &Memex| {
            let snap = m.registry().snapshot();
            (
                snap.counter("index.commits"),
                snap.counter("index.postings_flushed"),
                snap.counter("store.kv.puts"),
            )
        };
        let docs = sweep.server.index.num_docs();
        prop_assert!(
            docs >= BUFFER_DOCS as u64,
            "seed {}: {} documents do not cross the buffer bound", seed, docs
        );
        prop_assert_eq!(
            cost(&sweep),
            cost(&served),
            "seed {}: one sweep vs one dispatch per event", seed
        );
        prop_assert_eq!(
            cost(&sweep),
            cost(&batched),
            "seed {}: one sweep vs batches {:?}", seed, &batches
        );
        prop_assert_eq!(cost(&sweep).0, docs / BUFFER_DOCS as u64, "only the buffer bound seals");

        for other in [&served, &batched] {
            prop_assert_eq!(sweep.server.vocab.len(), other.server.vocab.len());
            for term in 0..sweep.server.vocab.len() as u32 {
                prop_assert_eq!(
                    postings(&sweep.server.index, term),
                    postings(&other.server.index, term),
                    "postings of term {}", term
                );
            }
        }

        // Only recall: guesses legitimately depend on when the
        // classification demon ran, and the other servlets read them.
        let mut archives = [sweep, served, batched];
        let mut queries = corpus.topic_names.clone();
        queries.push(corpus.topic_names.join(" "));
        for user in 0..USERS {
            for query in &queries {
                let recall = Request::Recall {
                    user,
                    query: query.clone(),
                    since: 0,
                    until: u64::MAX,
                    k: 10,
                };
                let [a, b, c] = archives.each_mut().map(|m| script::answer(m, &recall));
                prop_assert!(a.len() > 8, "recall {:?} for user {} found nothing", query, user);
                prop_assert_eq!(
                    &a,
                    &b,
                    "seed {}: recall {:?} for user {}: sweep vs served", seed, query, user
                );
                prop_assert_eq!(
                    &a,
                    &c,
                    "seed {}: recall {:?} for user {}: sweep vs batched", seed, query, user
                );
            }
        }
    }
}
