//! A page's word memo — what a recall hit's snippet reads instead of the
//! page's text — is built by the first recall that hits the page, under the
//! shared lock, and kept for good. This races those builds: after each
//! first visit of a page by the recalling user, four clients ask recalls
//! that hit it at the same moment (a barrier, not a sleep), while the writer
//! streams first visits of other pages by somebody else, which move every
//! score (each adds a document to the idf) but no hit. Every answer must be
//! the one an in-process twin gives at some write epoch the request could
//! have seen, and `demon.page_words.builds`, read over the wire, must move
//! by exactly one per page hit for the first time however many readers
//! arrive together — and not at all on an ack.
//!
//! Runs under the nightly TSan job in CI (`san-matrix`) beside
//! `theme_memo.rs` and `routing_memo.rs`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch, Request, Response};
use memex_net::{ClientConfig, MemexClient, NetServer, NetServerConfig};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

const READERS: usize = 4;
const ROUNDS: usize = 4;
const STREAMED_PER_PHASE: usize = 4;
const READS_PER_PHASE: usize = 2;
/// Who recalls, and who streams the first visits beside the race.
const RECALLER: u32 = 0;
const STREAMER: u32 = 1;
/// The first word of topic 0's pool: most of its pages say it.
const QUERY: &str = "classical music";

fn visit(corpus: &Corpus, user: u32, page: u32, time: u64) -> Request {
    Request::Event(ClientEvent::Visit(VisitEvent {
        user,
        session: 1,
        page,
        url: corpus.pages[page as usize].url.clone(),
        time,
        referrer: None,
    }))
}

fn says_classical(corpus: &Corpus, page: u32) -> bool {
    corpus.pages[page as usize]
        .text
        .split_whitespace()
        .any(|w| w == "classical")
}

/// The recaller's trail before the race: eight pages of topic 0, past its
/// front pages (which say little).
fn trail(corpus: &Corpus) -> Vec<u32> {
    corpus.pages_of_topic(0)[12..20].to_vec()
}

/// Deterministic: the served archive and its in-process twin are both
/// built by this.
fn world(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for user in [RECALLER, STREAMER] {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    for (time, page) in trail(corpus).into_iter().enumerate() {
        let ack = dispatch(&mut memex, visit(corpus, RECALLER, page, time as u64 + 1));
        assert_eq!(ack, Response::Ack { archived: true });
    }
    memex
}

/// Per round: the recaller's first visit of a topic-0 page that says
/// "classical" (a new hit, so one memo to build), then the streamer's first
/// visits of topic-1 pages, none of them anybody's hit.
fn phases(corpus: &Corpus) -> Vec<Vec<Request>> {
    let seen = trail(corpus);
    let mut fresh = corpus
        .pages_of_topic(0)
        .into_iter()
        .filter(|&page| !seen.contains(&page) && says_classical(corpus, page));
    let mut streamed = corpus.pages_of_topic(1).into_iter();
    let mut time = 10_000u64;
    (0..ROUNDS)
        .map(|_| {
            time += 1;
            let page = fresh.next().expect("enough topic-0 pages say classical");
            let mut writes = vec![visit(corpus, RECALLER, page, time)];
            for _ in 0..STREAMED_PER_PHASE {
                time += 1;
                let page = streamed.next().expect("enough topic-1 pages");
                writes.push(visit(corpus, STREAMER, page, time));
            }
            writes
        })
        .collect()
}

/// Reader `reader`'s recall: the same pages for everybody (`k` beyond the
/// recaller's history), a request of its own so that no reader is answered
/// from another's cache entry.
fn question(reader: usize) -> Request {
    Request::Recall {
        user: RECALLER,
        query: QUERY.into(),
        since: 0,
        until: u64::MAX,
        k: 40 + reader,
    }
}

fn hit_pages(answer: &Response) -> Vec<u32> {
    match answer {
        Response::Recall(hits) => hits.iter().map(|h| h.page).collect(),
        other => panic!("expected Recall, got {other:?}"),
    }
}

/// `demon.page_words.builds` and `demon.page_words.fallbacks`, over the wire.
fn memo_stats(client: &mut MemexClient) -> (u64, u64) {
    match client.request(&Request::Stats).expect("stats") {
        Response::Stats(snap) => (
            snap.counter("demon.page_words.builds"),
            snap.counter("demon.page_words.fallbacks"),
        ),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn readers_racing_a_word_memo_build_agree_with_the_in_process_truth() {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 40,
        ..CorpusConfig::default()
    }));
    let phases = phases(&corpus);

    // truth[e][r]: reader r's answer once e writes of the stream are in.
    let mut twin = world(&corpus);
    let answers = |twin: &mut Memex| -> Vec<Response> {
        (0..READERS).map(|r| dispatch(twin, question(r))).collect()
    };
    let mut truth = vec![answers(&mut twin)];
    // The pages hit by the end of each phase: one memo each.
    let mut hit_by_phase = Vec::new();
    let mut hit = BTreeSet::new();
    for phase in &phases {
        for write in phase {
            assert_eq!(
                dispatch(&mut twin, write.clone()),
                Response::Ack { archived: true }
            );
            let now = answers(&mut twin);
            hit.extend(now.iter().flat_map(hit_pages));
            truth.push(now);
        }
        hit_by_phase.push(hit.len() as u64);
    }
    let warm = truth[0].iter().flat_map(hit_pages).collect::<BTreeSet<_>>();
    assert!(warm.len() >= 4, "the world's recall hits {warm:?}");
    assert_eq!(
        hit_by_phase.last().copied(),
        Some((warm.len() + ROUNDS) as u64),
        "each phase's first visit is one new hit, and its streamed visits none"
    );
    let truth = Arc::new(truth);
    assert!(
        truth.windows(2).filter(|w| w[0][0] != w[1][0]).count() >= ROUNDS * STREAMED_PER_PHASE,
        "every write must move the answer, or any epoch would pass for any other"
    );

    let config = NetServerConfig {
        workers: READERS + 2,
        max_in_flight: 64,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(world(&corpus), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    // Writes sent so far (bumped before the frame goes out) and writes
    // acknowledged so far: together they bound the epochs a read can see.
    let sent = Arc::new(AtomicUsize::new(0));
    let acked = Arc::new(AtomicUsize::new(0));
    // Readers and writer meet here after every first visit by the
    // recaller, and again when the phase's reads and streamed visits are
    // done.
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (truth, sent, acked, barrier) = (
                Arc::clone(&truth),
                Arc::clone(&sent),
                Arc::clone(&acked),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                let mut client =
                    MemexClient::connect(addr, ClientConfig::default()).expect("connect");
                // Collected, not asserted: a reader that panicked mid-phase
                // would leave the others parked on the barrier for good.
                let mut wrong = Vec::new();
                for phase in 0..ROUNDS {
                    barrier.wait();
                    for _ in 0..READS_PER_PHASE {
                        let oldest = acked.load(Ordering::SeqCst);
                        let answer = client.request(&question(r));
                        let newest = sent.load(Ordering::SeqCst);
                        let right = answer
                            .as_ref()
                            .is_ok_and(|a| truth[oldest..=newest].iter().any(|t| t[r] == *a));
                        if !right {
                            wrong.push(format!(
                                "reader {r}, phase {phase}: {answer:?} is not the in-process \
                                 answer at any epoch in {oldest}..={newest}"
                            ));
                        }
                    }
                    barrier.wait();
                }
                wrong
            })
        })
        .collect();

    let mut writer = MemexClient::connect(addr, ClientConfig::default()).expect("connect writer");
    let mut send = |write: &Request| {
        sent.fetch_add(1, Ordering::SeqCst);
        let ack = writer.request(write).expect("write");
        assert_eq!(ack, Response::Ack { archived: true });
        acked.fetch_add(1, Ordering::SeqCst);
    };
    let mut stats = MemexClient::connect(addr, ClientConfig::default()).expect("connect stats");
    assert_eq!(
        memo_stats(&mut stats),
        (0, 0),
        "building the world built no memo"
    );
    // One recall warms the world's hits, so that each phase builds only
    // the memo of its own first visit.
    assert_eq!(
        stats.request(&question(READERS)).expect("warm-up"),
        dispatch(&mut world(&corpus), question(READERS))
    );
    assert_eq!(memo_stats(&mut stats), (warm.len() as u64, 0));
    for (i, phase) in phases.iter().enumerate() {
        send(&phase[0]);
        let before = if i == 0 {
            warm.len() as u64
        } else {
            hit_by_phase[i - 1]
        };
        assert_eq!(
            memo_stats(&mut stats),
            (before, 0),
            "the ack of phase {i} built a memo"
        );
        barrier.wait();
        for streamed in &phase[1..] {
            send(streamed);
        }
        barrier.wait();
        assert_eq!(
            memo_stats(&mut stats),
            (hit_by_phase[i], 0),
            "phase {i}: {READERS} readers arriving together must share one build per page \
             hit for the first time, and no hit may walk its page's text"
        );
    }
    for h in readers {
        let wrong = h.join().expect("reader thread");
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    // Quiescent: every question now has exactly the final answer.
    let last = truth.last().expect("non-empty");
    for (r, expected) in last.iter().enumerate() {
        assert_eq!(&stats.request(&question(r)).expect("final read"), expected);
    }
    // Close the idle connections, or shutdown waits out their read timeout.
    drop((writer, stats));
    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    assert_eq!(snap.counter("net.shed"), 0);
    assert_eq!(snap.counter("net.req.panics"), 0);
    assert_eq!(
        snap.counter("demon.page_words.builds"),
        hit_by_phase[ROUNDS - 1]
    );
    assert_eq!(snap.counter("demon.page_words.fallbacks"), 0);
}
