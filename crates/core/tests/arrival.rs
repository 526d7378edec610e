//! One index write path: how an event stream *arrives* — archived in one
//! sweep, one `dispatch` per event as the server does it, or in batches of
//! any size — must not show in what the index stores, in what it costs to
//! store it, or in what recall answers. Every stream here crosses the index's
//! buffer bound, so there is a segment seal for the three to agree on.

use std::sync::Arc;

use proptest::prelude::*;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch, Request};
use memex_index::index::{InvertedIndex, BUFFER_DOCS};
use memex_net::wire::encode_response;
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

const PAGES: u32 = 600;
const USERS: u32 = 3;

#[derive(Debug, Clone)]
struct Step {
    /// 0..13 visits the next unvisited page, 13..15 revisits, 15 bookmarks.
    kind: u8,
    user: u32,
    pick: u32,
}

fn step_strategy() -> impl Strategy<Value = Step> {
    (0u8..16, 0..USERS, any::<u32>()).prop_map(|(kind, user, pick)| Step { kind, user, pick })
}

/// Turn the steps into events. Bookmarks may name a page nobody visited
/// (the index demon fetches it) or one past the corpus (a dead link).
fn events(corpus: &Corpus, steps: &[Step]) -> Vec<ClientEvent> {
    let url = |page: u32| match corpus.pages.get(page as usize) {
        Some(p) => p.url.clone(),
        None => format!("http://nowhere.invalid/{page}"),
    };
    let mut frontier = 0u32;
    let mut out = Vec::with_capacity(steps.len());
    for (i, s) in steps.iter().enumerate() {
        let time = 1 + i as u64;
        out.push(if s.kind == 15 {
            let page = s.pick % (PAGES + 4);
            ClientEvent::Bookmark {
                user: s.user,
                page,
                url: url(page),
                folder: format!("/folder{}", s.pick % 3),
                time,
            }
        } else {
            let page = if s.kind < 13 && frontier < PAGES {
                frontier += 1;
                frontier - 1
            } else {
                s.pick % frontier.max(1)
            };
            ClientEvent::Visit(VisitEvent {
                user: s.user,
                session: s.user,
                page,
                url: url(page),
                time,
                referrer: page.checked_sub(1),
            })
        });
    }
    out
}

/// Archive `events`, running the demons after each batch (`batches` is
/// cycled; a batch of one goes through `dispatch` like a served write).
fn archive(corpus: &Arc<Corpus>, events: &[ClientEvent], batches: &[usize]) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for user in 0..USERS {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    let mut rest = events;
    for &size in batches.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        if let [event] = batch {
            dispatch(&mut memex, Request::Event(event.clone()));
        } else {
            for event in batch {
                memex.submit(event.clone());
            }
            memex.run_demons().expect("demons");
        }
    }
    memex
}

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
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn how_events_arrive_does_not_show_in_the_index_or_in_recall(
        steps in proptest::collection::vec(step_strategy(), 640..700),
        batches in proptest::collection::vec(1usize..48, 1..32),
    ) {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: (PAGES / 2) as usize,
            ..CorpusConfig::default()
        }));
        let events = events(&corpus, &steps);
        let sweep = archive(&corpus, &events, &[usize::MAX]);
        let served = archive(&corpus, &events, &[1]);
        let batched = archive(&corpus, &events, &batches);

        let cost = |m: &Memex| {
            let snap = m.registry().snapshot();
            (
                snap.counter("index.commits"),
                snap.counter("index.postings_flushed"),
                snap.counter("store.kv.puts"),
            )
        };
        let docs = sweep.server.index.num_docs();
        prop_assert!(docs >= BUFFER_DOCS as u64, "the stream crosses the buffer bound");
        prop_assert_eq!(cost(&sweep), cost(&served), "one sweep vs one dispatch per event");
        prop_assert_eq!(cost(&sweep), cost(&batched), "one sweep vs batches {:?}", &batches);
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
                let [a, b, c] = archives
                    .each_mut()
                    .map(|m| encode_response(&dispatch(m, recall.clone())));
                prop_assert!(a.len() > 8, "recall {:?} for user {} found nothing", query, user);
                prop_assert_eq!(&a, &b, "recall {:?} for user {}: sweep vs served", query, user);
                prop_assert_eq!(&a, &c, "recall {:?} for user {}: sweep vs batched", query, user);
            }
        }
    }
}
