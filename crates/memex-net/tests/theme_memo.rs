//! The community themes are built by the first *reader* after a bookmark,
//! under the shared lock. This races that build: after each bookmark ack
//! four reader threads ask `SimilarSurfers` of one shared [`Service`] at
//! the same moment (a barrier, not a sleep) while the writer keeps
//! streaming visits. Every answer must be the
//! one an in-process twin gives at some write epoch the request could have
//! seen — never one from before the last ack it followed, which is what a
//! stale cache hit or a theme memo surviving its bookmark would look like —
//! and each bookmark-then-read must run theme discovery exactly once however
//! many readers arrive together.
//!
//! Runs under the nightly TSan job in CI (`san-matrix`), which race-checks
//! the `OnceLock` memo behind `RwLock<Memex>` read guards.

mod serve;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use memex_bench::script::{self, bookmark, visit, FOLDERS, USERS};
use memex_core::memex::Memex;
use memex_core::servlet::{dispatch, Request, Response};
use memex_net::Service;
use memex_web::corpus::Corpus;

use serve::ask;

/// One reader per registered user.
const READERS: usize = USERS as usize;
const ROUNDS: usize = 5;
const VISITS_PER_ROUND: usize = 6;
const READS_PER_ROUND: usize = 3;

/// The write stream: per round one bookmark, then the visits the writer
/// streams while the readers read.
fn rounds(corpus: &Corpus) -> Vec<Vec<Request>> {
    let mut time = 10_000u64;
    (0..ROUNDS)
        .map(|round| {
            let user = (round % READERS) as u32;
            let pages = corpus.pages_of_topic((round + 1) % 2);
            time += 1;
            let page = pages[20 + round];
            let mut writes = vec![bookmark(
                corpus,
                user,
                page,
                FOLDERS[corpus.topic_of(page)],
                time,
            )];
            for i in 0..VISITS_PER_ROUND {
                time += 1;
                let visitor = ((round + i) % READERS) as u32;
                writes.push(visit(corpus, visitor, pages[10 + round + i], time));
            }
            writes
        })
        .collect()
}

fn question(reader: usize) -> Request {
    Request::SimilarSurfers {
        user: reader as u32,
        k: READERS,
    }
}

fn themes_built(service: &Service) -> u64 {
    match ask(service, &Request::Stats, None) {
        Response::Stats(snap) => snap.counter("demon.themes.builds"),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn readers_racing_the_first_theme_read_agree_with_the_in_process_truth() {
    let corpus = script::corpus(80);
    let rounds = rounds(&corpus);

    // truth[e][r]: reader r's answer once e writes of the stream are in.
    let mut twin = script::world(&corpus);
    let answers = |twin: &mut Memex| -> Vec<Response> {
        (0..READERS).map(|r| dispatch(twin, question(r))).collect()
    };
    let mut truth = vec![answers(&mut twin)];
    for write in rounds.iter().flatten() {
        assert_eq!(
            dispatch(&mut twin, write.clone()),
            Response::Ack { archived: true }
        );
        truth.push(answers(&mut twin));
    }
    assert!(
        truth.windows(2).filter(|w| w[0] != w[1]).count() >= ROUNDS * 2,
        "the stream must move the answers, or any epoch would pass for any other"
    );

    let truth = Arc::new(truth);

    let service = Arc::new(Service::new(script::world(&corpus), 64));
    // Writes sent so far (bumped before the request goes in) and writes
    // acknowledged so far: together they bound the epochs a read can see.
    let sent = Arc::new(AtomicUsize::new(0));
    let acked = Arc::new(AtomicUsize::new(0));
    // Readers and writer meet here after every bookmark ack, and again when
    // the round's reads and visits are done.
    let barrier = Arc::new(Barrier::new(READERS + 1));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let (service, truth, sent, acked, barrier) = (
                Arc::clone(&service),
                Arc::clone(&truth),
                Arc::clone(&sent),
                Arc::clone(&acked),
                Arc::clone(&barrier),
            );
            std::thread::spawn(move || {
                // Collected, not asserted: a reader that panicked mid-round
                // would leave the others parked on the barrier for good.
                let mut wrong = Vec::new();
                for round in 0..ROUNDS {
                    barrier.wait();
                    for read in 0..READS_PER_ROUND {
                        let oldest = acked.load(Ordering::SeqCst);
                        let answer = ask(&service, &question(r), None);
                        let newest = sent.load(Ordering::SeqCst);
                        if !truth[oldest..=newest].iter().any(|t| t[r] == answer) {
                            wrong.push(format!(
                                "reader {r}, round {round}, read {read}: {answer:?} is not the \
                                 in-process answer at any epoch in {oldest}..={newest}"
                            ));
                        }
                    }
                    barrier.wait();
                }
                wrong
            })
        })
        .collect();

    let send = |write: &Request| {
        sent.fetch_add(1, Ordering::SeqCst);
        assert_eq!(ask(&service, write, None), Response::Ack { archived: true });
        acked.fetch_add(1, Ordering::SeqCst);
    };
    assert_eq!(
        themes_built(&service),
        0,
        "building the world read no theme"
    );
    for (round, writes) in rounds.iter().enumerate() {
        send(&writes[0]);
        assert_eq!(
            themes_built(&service),
            round as u64,
            "the bookmark ack ran theme discovery"
        );
        barrier.wait();
        for visit in &writes[1..] {
            send(visit);
        }
        barrier.wait();
        assert_eq!(
            themes_built(&service),
            round as u64 + 1,
            "{READERS} readers arriving together after bookmark {round} must share one build"
        );
    }
    for h in readers {
        let wrong = h.join().expect("reader thread");
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    // Quiescent: every reader's question now has exactly the final answer,
    // from the cache or not.
    let last = truth.last().expect("non-empty");
    for (r, expected) in last.iter().enumerate() {
        assert_eq!(&ask(&service, &question(r), None), expected);
    }
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("every reader joined"));
    let snap = service.into_memex().registry().snapshot();
    assert_eq!(snap.counter("net.shed"), 0);
    assert_eq!(snap.counter("net.req.panics"), 0);
    assert_eq!(snap.counter("demon.themes.builds"), ROUNDS as u64);
    assert_eq!(snap.gauge("demon.themes.behind"), 0);
}
