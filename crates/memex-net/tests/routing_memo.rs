//! The page -> theme map, the profile table and each user's page -> folder
//! routing are built by the first *reader* after a write that moved one of
//! their inputs, under the shared lock. This races those builds: after each
//! such write four reader threads ask one shared [`Service`] at the same
//! moment (a barrier, not a sleep) while the writer keeps streaming repeat
//! visits of the visitors' own pages, which drop nothing. Every answer must
//! be the one an in-process twin gives at some write epoch the request
//! could have seen, and the build counters, read through `Stats`, must move
//! by exactly one per memo dropped however many readers arrive together.
//!
//! * Routings: after a first visit, which drops every memo, then a bookmark,
//!   which drops its user's routing and the page themes, the readers ask
//!   `TrailReplay`, `Bill` and `SimilarSurfers`: each routing is asked for
//!   by two of the four readers, and the background class all four routings
//!   train against — dropped by the first visit only — by whichever of them
//!   gets there first.
//! * Profiles: after a visit of a page new to its visitor (but not to the
//!   community), which drops the profile table alone, then a bookmark, which
//!   drops the themes with it, the readers ask `SimilarSurfers` and
//!   `Recommend`, every one of which reads the table.
//!
//! Runs under the nightly TSan job in CI (`san-matrix`) beside
//! `theme_memo.rs`.

mod serve;

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};

use memex_bench::script::{self, bookmark, trail, visit, FOLDERS, USERS};
use memex_core::memex::Memex;
use memex_core::servlet::{dispatch, Request, Response};
use memex_net::Service;
use memex_web::corpus::Corpus;

use serve::ask;

/// One reader per registered user.
const READERS: usize = USERS as usize;
const ROUNDS: usize = 3;
const REPEATS_PER_PHASE: usize = 5;
const READS_PER_PHASE: usize = 2;

/// One write that drops memos, then the repeat visits streamed while the
/// readers read.
struct Phase {
    writes: Vec<Request>,
    /// Builds the reads of this phase must cause, counter by counter of the
    /// race.
    builds: Vec<u64>,
}

/// `REPEATS_PER_PHASE` repeat visits, each of a page on its visitor's own
/// trail, from `time` on.
fn repeat_visits(corpus: &Corpus, round: usize, time: &mut u64) -> Vec<Request> {
    (0..REPEATS_PER_PHASE)
        .map(|i| {
            *time += 1;
            let visitor = ((round + i) % READERS) as u32;
            let known = trail(corpus, visitor)[i];
            visit(corpus, visitor, known, *time)
        })
        .collect()
}

const ROUTING_COUNTERS: &[&str] = &[
    "demon.page_themes.builds",
    "demon.routing.builds",
    "demon.background.builds",
];

/// Per round two phases: a first visit (everything is dropped: one page
/// themes build, one routing build per user, one background build between
/// them), then a bookmark of that page by the same user (page themes and
/// that user's routing; the page is surfed and fetched already, so the
/// background stays).
fn routing_phases(corpus: &Corpus) -> Vec<Phase> {
    let mut time = 10_000u64;
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        let user = (round % READERS) as u32;
        let fresh = corpus.pages_of_topic(round % 2)[20 + round];
        for first_visit in [true, false] {
            time += 1;
            let mut writes = vec![if first_visit {
                visit(corpus, user, fresh, time)
            } else {
                bookmark(corpus, user, fresh, FOLDERS[round % 2], time)
            }];
            writes.extend(repeat_visits(corpus, round, &mut time));
            let builds = if first_visit {
                vec![1, READERS as u64, 1]
            } else {
                vec![1, 1, 0]
            };
            out.push(Phase { writes, builds });
        }
    }
    out
}

/// What reader `reader` asks in the routing race, each time round: its own
/// trail tab and soulmates, and its neighbour's bill — so every user's
/// routing has two readers after it.
fn routing_questions(reader: usize) -> Vec<Request> {
    let user = reader as u32;
    vec![
        Request::TrailReplay {
            user,
            folder: 1,
            since: 0,
            max_pages: 30,
        },
        Request::Bill {
            user: (user + 1) % READERS as u32,
            since: 0,
            until: u64::MAX,
        },
        Request::SimilarSurfers { user, k: READERS },
    ]
}

const PROFILE_COUNTERS: &[&str] = &[
    "demon.profiles.builds",
    "demon.page_themes.builds",
    "demon.themes.builds",
];

/// Per round two phases: a user visits a page another user surfed before
/// the race, new to them but not to the community (the profile table alone),
/// then bookmarks it (the themes, the page themes and the profile table).
fn profile_phases(corpus: &Corpus) -> Vec<Phase> {
    let mut time = 10_000u64;
    let mut out = Vec::new();
    for round in 0..ROUNDS {
        let user = (round % READERS) as u32;
        let other = (user + 1) % READERS as u32;
        let own = trail(corpus, user);
        let borrowed = trail(corpus, other)
            .into_iter()
            .find(|page| !own.contains(page))
            .expect("trails differ");
        for new_to_user in [true, false] {
            time += 1;
            let mut writes = vec![if new_to_user {
                visit(corpus, user, borrowed, time)
            } else {
                bookmark(
                    corpus,
                    user,
                    borrowed,
                    FOLDERS[corpus.topic_of(borrowed)],
                    time,
                )
            }];
            writes.extend(repeat_visits(corpus, round, &mut time));
            let builds = if new_to_user {
                vec![1, 0, 0]
            } else {
                vec![1, 1, 1]
            };
            out.push(Phase { writes, builds });
        }
    }
    out
}

/// What reader `reader` asks in the profile race: its own soulmates and
/// its neighbour's recommendations.
fn profile_questions(reader: usize) -> Vec<Request> {
    let user = reader as u32;
    vec![
        Request::SimilarSurfers { user, k: READERS },
        Request::Recommend {
            user: (user + 1) % READERS as u32,
            k: 8,
        },
    ]
}

/// The race's build counters and the routings live, read through `Stats`.
fn memo_stats(service: &Service, counters: &[&str]) -> (Vec<u64>, i64) {
    match ask(service, &Request::Stats, None) {
        Response::Stats(snap) => (
            counters.iter().map(|name| snap.counter(name)).collect(),
            snap.gauge("demon.routing.live"),
        ),
        other => panic!("expected Stats, got {other:?}"),
    }
}

#[test]
fn readers_racing_a_memo_build_agree_with_the_in_process_truth() {
    race(
        routing_phases,
        routing_questions,
        ROUTING_COUNTERS,
        READERS as i64,
    );
}

#[test]
fn readers_racing_the_profile_build_agree_with_the_in_process_truth() {
    race(profile_phases, profile_questions, PROFILE_COUNTERS, 0);
}

/// Serve the world, stream `phases` with every reader asking its
/// `questions` after each memo-dropping ack, and hold the answers to the
/// twin's and `counters` to the phases' builds; `live` routings after each
/// phase.
fn race(
    phases: fn(&Corpus) -> Vec<Phase>,
    questions: fn(usize) -> Vec<Request>,
    counters: &'static [&'static str],
    live: i64,
) {
    let corpus = script::corpus(80);
    let phases = phases(&corpus);

    // truth[e][r][q]: the answer to reader r's question q once e writes of
    // the stream are in.
    let mut twin = script::world(&corpus);
    let answers = |twin: &mut Memex| -> Vec<Vec<Response>> {
        (0..READERS)
            .map(|r| {
                questions(r)
                    .into_iter()
                    .map(|q| dispatch(twin, q))
                    .collect()
            })
            .collect()
    };
    let mut truth = vec![answers(&mut twin)];
    for write in phases.iter().flat_map(|p| &p.writes) {
        assert_eq!(
            dispatch(&mut twin, write.clone()),
            Response::Ack { archived: true }
        );
        truth.push(answers(&mut twin));
    }
    let truth = Arc::new(truth);
    for q in 0..questions(0).len() {
        assert!(
            truth.windows(2).filter(|w| w[0][0][q] != w[1][0][q]).count() >= ROUNDS,
            "the stream must move the answers to question {q}, or any epoch would pass for any other"
        );
    }

    let service = Arc::new(Service::new(script::world(&corpus), 64));
    // Writes sent so far (bumped before the request goes in) and writes
    // acknowledged so far: together they bound the epochs a read can see.
    let sent = Arc::new(AtomicUsize::new(0));
    let acked = Arc::new(AtomicUsize::new(0));
    // Readers and writer meet here after every memo-dropping ack, and again
    // when the phase's reads and repeat visits are done.
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
            let phases = phases.len();
            std::thread::spawn(move || {
                // Collected, not asserted: a reader that panicked mid-phase
                // would leave the others parked on the barrier for good.
                let mut wrong = Vec::new();
                for phase in 0..phases {
                    barrier.wait();
                    for _ in 0..READS_PER_PHASE {
                        for (q, question) in questions(r).iter().enumerate() {
                            let oldest = acked.load(Ordering::SeqCst);
                            let answer = ask(&service, question, None);
                            let newest = sent.load(Ordering::SeqCst);
                            if !truth[oldest..=newest].iter().any(|t| t[r][q] == answer) {
                                wrong.push(format!(
                                    "reader {r}, phase {phase}, {question:?}: {answer:?} is not \
                                     the in-process answer at any epoch in {oldest}..={newest}"
                                ));
                            }
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
        memo_stats(&service, counters),
        (vec![0; counters.len()], 0),
        "building the world read no memo"
    );
    // One reader's questions warm what the world's bookmarks left unbuilt,
    // so that each phase builds only what its own write dropped.
    for (question, expected) in questions(0).iter().zip(&truth[0][0]) {
        assert_eq!(&ask(&service, question, None), expected);
    }
    let mut builds = memo_stats(&service, counters);
    for (i, phase) in phases.iter().enumerate() {
        send(&phase.writes[0]);
        assert_eq!(
            memo_stats(&service, counters).0,
            builds.0,
            "the ack of phase {i} built a memo ({counters:?})"
        );
        barrier.wait();
        for repeat in &phase.writes[1..] {
            send(repeat);
        }
        barrier.wait();
        for (total, moved) in builds.0.iter_mut().zip(&phase.builds) {
            *total += moved;
        }
        builds.1 = live;
        assert_eq!(
            memo_stats(&service, counters),
            builds,
            "phase {i}: {READERS} readers arriving together must share one build per memo \
             dropped, and repeat visits must drop none ({counters:?})"
        );
    }
    for h in readers {
        let wrong = h.join().expect("reader thread");
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    // Quiescent: every question now has exactly the final answer, from the
    // cache or not.
    let last = truth.last().expect("non-empty");
    for (r, expected) in last.iter().enumerate() {
        for (question, expected) in questions(r).iter().zip(expected) {
            assert_eq!(&ask(&service, question, None), expected);
        }
    }
    let service = Arc::try_unwrap(service).unwrap_or_else(|_| panic!("every reader joined"));
    let snap = service.into_memex().registry().snapshot();
    assert_eq!(snap.counter("net.shed"), 0);
    assert_eq!(snap.counter("net.req.panics"), 0);
    for (name, total) in counters.iter().zip(&builds.0) {
        assert_eq!(snap.counter(name), *total, "{name}");
    }
}
