//! The split servlet dispatch (`dispatch_read` / `dispatch_write`) must be
//! indistinguishable from the unified `dispatch` shim on arbitrary request
//! sequences: same classification, same answers, same evolving archive.
//! Two identically-built worlds run the same random sequence — one through
//! the shim, one through explicit classify-then-route — and every response
//! pair must match. Reads are additionally checked for idempotence (asking
//! twice changes nothing). A second property pins replica determinism: two
//! archives fed the same writes answer bit-identically.

use std::sync::Arc;

use proptest::prelude::*;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{
    dispatch, dispatch_read, dispatch_write, Classified, Request, Response, ServletLatency,
};
use memex_obs::MetricsRegistry;
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

const PAGES_PER_TOPIC: u32 = 20;

fn corpus() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: PAGES_PER_TOPIC as usize,
        ..CorpusConfig::default()
    }))
}

fn fresh_memex(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for user in 0..4u32 {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    memex
}

fn visit(corpus: &Arc<Corpus>, user: u32, page: u32, time: u64) -> Request {
    Request::Event(ClientEvent::Visit(VisitEvent {
        user,
        session: user,
        page,
        url: corpus.pages[page as usize].url.clone(),
        time,
        referrer: None,
    }))
}

/// A request template the strategy can instantiate without needing the
/// corpus (URLs are resolved when the op is materialised).
#[derive(Debug, Clone)]
enum Op {
    Visit {
        user: u32,
        page: u32,
    },
    Bookmark {
        user: u32,
        page: u32,
        folder: u8,
    },
    Import {
        user: u32,
        valid: bool,
    },
    Recall {
        user: u32,
        page: u32,
        terms: usize,
        k: usize,
    },
    TrailReplay {
        user: u32,
        folder: u32,
    },
    WhatsNew {
        user: u32,
        folder: u32,
        k: usize,
    },
    Bill {
        user: u32,
        since: u64,
    },
    SimilarSurfers {
        user: u32,
        k: usize,
    },
    Recommend {
        user: u32,
        k: usize,
    },
    Export {
        user: u32,
    },
    Propose {
        user: u32,
        k: usize,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let total_pages = 2 * PAGES_PER_TOPIC;
    prop_oneof![
        3 => (0u32..4, 0..total_pages).prop_map(|(user, page)| Op::Visit { user, page }),
        2 => (0u32..4, 0..total_pages, 0u8..3)
            .prop_map(|(user, page, folder)| Op::Bookmark { user, page, folder }),
        1 => (0u32..4, any::<bool>()).prop_map(|(user, valid)| Op::Import { user, valid }),
        3 => (0u32..4, 0..total_pages, 1usize..5, 0usize..6)
            .prop_map(|(user, page, terms, k)| Op::Recall { user, page, terms, k }),
        1 => (0u32..4, 0u32..4).prop_map(|(user, folder)| Op::TrailReplay { user, folder }),
        1 => (0u32..4, 0u32..4, 0usize..5)
            .prop_map(|(user, folder, k)| Op::WhatsNew { user, folder, k }),
        2 => (0u32..4, 0u64..50).prop_map(|(user, since)| Op::Bill { user, since }),
        1 => (0u32..4, 0usize..5).prop_map(|(user, k)| Op::SimilarSurfers { user, k }),
        1 => (0u32..4, 0usize..5).prop_map(|(user, k)| Op::Recommend { user, k }),
        1 => (0u32..4).prop_map(|user| Op::Export { user }),
        1 => (0u32..4, 0usize..4).prop_map(|(user, k)| Op::Propose { user, k }),
    ]
}

fn materialise(op: &Op, corpus: &Arc<Corpus>, time: u64) -> Request {
    match *op {
        Op::Visit { user, page } => visit(corpus, user, page, time),
        Op::Bookmark { user, page, folder } => Request::Event(ClientEvent::Bookmark {
            user,
            page,
            url: corpus.pages[page as usize].url.clone(),
            folder: format!("/folder{folder}"),
            time,
        }),
        Op::Import { user, valid } => {
            let html = if valid {
                format!(
                    "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<DL><p>\n\
                     <DT><A HREF=\"{}\">imported</A>\n</DL><p>\n",
                    corpus.pages[0].url
                )
            } else {
                "<DT><A HREF=\"http://nowhere.invalid/x\">gone</A>".to_string()
            };
            Request::ImportBookmarks { user, html, time }
        }
        Op::Recall {
            user,
            page,
            terms,
            k,
        } => Request::Recall {
            user,
            query: first_distinct_words(&corpus.pages[page as usize].text, terms),
            since: 0,
            until: u64::MAX,
            k,
        },
        Op::TrailReplay { user, folder } => Request::TrailReplay {
            user,
            folder,
            since: 0,
            max_pages: 10,
        },
        Op::WhatsNew { user, folder, k } => Request::WhatsNew {
            user,
            folder,
            since: 0,
            k,
        },
        Op::Bill { user, since } => Request::Bill {
            user,
            since,
            until: u64::MAX,
        },
        Op::SimilarSurfers { user, k } => Request::SimilarSurfers { user, k },
        Op::Recommend { user, k } => Request::Recommend { user, k },
        Op::Export { user } => Request::ExportBookmarks { user },
        Op::Propose { user, k } => Request::ProposeFolders { user, k },
    }
}

/// A recall query that hits: the first `n` distinct words of a page.
fn first_distinct_words(text: &str, n: usize) -> String {
    let mut words: Vec<&str> = Vec::with_capacity(n);
    for w in text.split_whitespace() {
        if words.len() == n {
            break;
        }
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words.join(" ")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Route every request of a random sequence through the unified shim on
    /// world A and through explicit classify/dispatch_read/dispatch_write
    /// on world B: the answer streams must be identical, which means the
    /// split cannot have changed ordering, classification, or semantics.
    #[test]
    fn split_dispatch_equals_unified_shim(ops in proptest::collection::vec(op_strategy(), 1..12)) {
        let corpus = corpus();
        let mut unified = fresh_memex(&corpus);
        let mut split = fresh_memex(&corpus);
        for (i, op) in ops.iter().enumerate() {
            let request = materialise(op, &corpus, 1 + i as u64);
            let a = dispatch(&mut unified, request.clone());
            let b = match request.classify() {
                Classified::Read(r) => {
                    // Reads are idempotent: asking twice must not change
                    // the answer (they cannot mutate an `&Memex`).
                    let first = dispatch_read(&split, r.clone());
                    let second = dispatch_read(&split, r);
                    prop_assert_eq!(&first, &second, "read #{} not idempotent", i);
                    first
                }
                Classified::Write(w) => dispatch_write(&mut split, w),
            };
            prop_assert_eq!(a, b, "request #{} diverged between shim and split", i);
        }
    }

    /// Two independently built archives fed the same op sequence answer
    /// identically, scores compared bit for bit. Each build hashes with its
    /// own `RandomState`, so any answer that leaks `HashMap` iteration order
    /// (a float summed in hash order, ids numbered in hash order) diverges
    /// here. The benchmark relies on exactly this: its oracle answers in
    /// the parent process, the served trial in a fresh one. Sequences are
    /// long enough for users to hold weight on several themes; shorter ones
    /// leave every sum with too few terms for their order to show. Reads
    /// are also re-asked of the same archive: a servlet that builds a fresh
    /// `HashMap` per call (recall's query-term counts) draws a fresh seed
    /// per call, so a 3- or 4-term recall summed in hash order would differ
    /// from itself.
    #[test]
    fn two_archives_fed_the_same_writes_answer_bit_identically(
        ops in proptest::collection::vec(op_strategy(), 60..120),
    ) {
        let corpus = corpus();
        let mut left = fresh_memex(&corpus);
        let mut right = fresh_memex(&corpus);
        for (i, op) in ops.iter().enumerate() {
            let request = materialise(op, &corpus, 1 + i as u64);
            let a = dispatch(&mut left, request.clone());
            let b = dispatch(&mut right, request.clone());
            prop_assert_eq!(score_bits(&a), score_bits(&b), "request #{} scores differ in bits", i);
            if let Classified::Read(read) = request.classify() {
                for _ in 0..4 {
                    let again = dispatch_read(&left, read.clone());
                    prop_assert_eq!(score_bits(&a), score_bits(&again), "read #{} differs from itself in bits", i);
                }
            }
            prop_assert_eq!(a, b, "request #{} diverged between the two archives", i);
        }
    }
}

/// The float scores of an answer as raw bits (`==` on `f64` would let
/// `0.0`/`-0.0` through).
fn score_bits(resp: &Response) -> Vec<u64> {
    match resp {
        Response::Recall(hits) => hits.iter().map(|h| u64::from(h.score.to_bits())).collect(),
        Response::WhatsNew(scored)
        | Response::SimilarSurfers(scored)
        | Response::Recommend(scored) => scored.iter().map(|(_, s)| s.to_bits()).collect(),
        Response::Bill(lines) => lines.iter().map(|l| l.fraction.to_bits()).collect(),
        _ => Vec::new(),
    }
}

/// The classification table is the contract the serving layer leans on:
/// exactly `Event` and `ImportBookmarks` are writes, everything else reads;
/// and every variant but `Stats`/`Traces` names the user it is scoped to.
#[test]
fn classification_matches_the_mutation_surface() {
    let corpus = corpus();
    let user_reads = [
        Request::Recall {
            user: 7,
            query: "q".into(),
            since: 0,
            until: 1,
            k: 1,
        },
        Request::TrailReplay {
            user: 7,
            folder: 0,
            since: 0,
            max_pages: 1,
        },
        Request::WhatsNew {
            user: 7,
            folder: 0,
            since: 0,
            k: 1,
        },
        Request::Bill {
            user: 7,
            since: 0,
            until: 1,
        },
        Request::SimilarSurfers { user: 7, k: 1 },
        Request::Recommend { user: 7, k: 1 },
        Request::ExportBookmarks { user: 7 },
        Request::ProposeFolders { user: 7, k: 1 },
    ];
    let community = [
        Request::Stats,
        Request::Traces {
            slow_only: false,
            limit: 1,
        },
    ];
    let writes = [
        visit(&corpus, 7, 0, 1),
        Request::ImportBookmarks {
            user: 7,
            html: String::new(),
            time: 1,
        },
    ];
    for r in user_reads.iter().chain(&community) {
        assert!(r.is_read(), "{} must classify as a read", r.name());
        assert!(matches!(r.clone().classify(), Classified::Read(_)));
    }
    for w in &writes {
        assert!(!w.is_read(), "{} must classify as a write", w.name());
        assert!(matches!(w.clone().classify(), Classified::Write(_)));
    }
    for r in user_reads.iter().chain(&writes) {
        assert_eq!(r.shard_key(), Some(7), "{} is scoped to its user", r.name());
    }
    for r in &community {
        assert_eq!(r.shard_key(), None, "{} is community-scoped", r.name());
    }
}

/// Every variant has its own latency histogram, registered once by
/// `ServletLatency::new` as `servlet.<name>.latency`, the catalogued
/// wildcard.
#[test]
fn every_variant_has_its_own_registered_latency_histogram() {
    let corpus = corpus();
    let all = [
        visit(&corpus, 0, 0, 1),
        Request::Recall {
            user: 0,
            query: "q".into(),
            since: 0,
            until: 1,
            k: 1,
        },
        Request::TrailReplay {
            user: 0,
            folder: 0,
            since: 0,
            max_pages: 1,
        },
        Request::WhatsNew {
            user: 0,
            folder: 0,
            since: 0,
            k: 1,
        },
        Request::Bill {
            user: 0,
            since: 0,
            until: 1,
        },
        Request::SimilarSurfers { user: 0, k: 1 },
        Request::Recommend { user: 0, k: 1 },
        Request::ImportBookmarks {
            user: 0,
            html: String::new(),
            time: 1,
        },
        Request::ExportBookmarks { user: 0 },
        Request::ProposeFolders { user: 0, k: 1 },
        Request::Stats,
        Request::Traces {
            slow_only: true,
            limit: 8,
        },
    ];
    let registry = MetricsRegistry::new();
    let latency = ServletLatency::new(&registry);
    assert_eq!(registry.snapshot().histograms.len(), all.len());
    for r in &all {
        latency.of(r).record(1);
        let name = format!("servlet.{}.latency", r.name());
        let timed = registry.snapshot().histogram(&name).map(|h| h.count);
        assert_eq!(timed, Some(1), "{name} is not the histogram of {r:?}");
    }
}

/// A write through `dispatch_write` leaves the archive exactly as the
/// unified shim would: queries afterwards agree (the write path runs the
/// demons + refresh, so served state is immediately consistent).
#[test]
fn write_path_refreshes_query_visible_state() {
    let corpus = corpus();
    let mut memex = fresh_memex(&corpus);
    let page = corpus.pages_of_topic(0)[0];
    let resp = match visit(&corpus, 0, page, 1).classify() {
        Classified::Write(w) => dispatch_write(&mut memex, w),
        Classified::Read(_) => panic!("a visit event must classify as a write"),
    };
    assert_eq!(resp, Response::Ack { archived: true });
    // No manual run_demons(): the write path already refreshed, so the
    // visit is query-visible through the read path.
    let bill = match (Request::Bill {
        user: 0,
        since: 0,
        until: u64::MAX,
    })
    .classify()
    {
        Classified::Read(r) => dispatch_read(&memex, r),
        Classified::Write(_) => panic!("bill must classify as a read"),
    };
    let Response::Bill(lines) = bill else {
        panic!("expected a bill");
    };
    let visits: u32 = lines.iter().map(|l| l.visits).sum();
    assert_eq!(visits, 1, "write path did not refresh query-visible state");
}
