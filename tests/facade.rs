//! Facade-level scenario tests through the `memex` umbrella crate —
//! exactly what a downstream user of the library would write.

use std::sync::Arc;

use memex::core::memex::{Memex, MemexOptions};
use memex::core::servlet::{dispatch, Request, Response};
use memex::net::wire::{self, FrameKind};
use memex::net::Service;
use memex::server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex::web::corpus::{Corpus, CorpusConfig};

fn small_world() -> (Arc<Corpus>, Memex) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 3,
        pages_per_topic: 25,
        ..CorpusConfig::default()
    }));
    let memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
    (corpus, memex)
}

fn visit(user: u32, page: u32, time: u64, referrer: Option<u32>) -> ClientEvent {
    ClientEvent::Visit(VisitEvent {
        user,
        session: 0,
        page,
        url: format!("http://page{page}"),
        time,
        referrer,
    })
}

#[test]
fn privacy_modes_respected_through_the_facade() {
    let (_, mut memex) = small_world();
    memex.register_user(1, "private-person").unwrap();
    memex.register_user(2, "public-person").unwrap();
    memex.submit(ClientEvent::SetMode {
        user: 1,
        mode: ArchiveMode::Private,
        time: 0,
    });
    memex.submit(visit(1, 5, 10, None));
    memex.submit(visit(2, 5, 20, None));
    memex.run_demons().unwrap();
    // What the public user is shown counts only the public visit.
    let shown = memex.server.trails.replay_context([5], 2, 0, 10);
    assert_eq!(shown.nodes.len(), 1);
    assert_eq!(shown.nodes[0].visit_count, 1);
    // The private user still recalls their own page.
    let own = memex.server.trails.user_pages(1, 0);
    assert_eq!(own, vec![5]);
}

#[test]
fn off_mode_archives_nothing() {
    let (_, mut memex) = small_world();
    memex.register_user(1, "ghost").unwrap();
    memex.submit(ClientEvent::SetMode {
        user: 1,
        mode: ArchiveMode::Off,
        time: 0,
    });
    assert!(!memex.submit(visit(1, 3, 10, None)));
    memex.run_demons().unwrap();
    assert!(memex.server.trails.is_empty());
    assert_eq!(memex.server.stats().events_mode_filtered, 1);
}

#[test]
fn bookmark_then_classify_marks_guesses() {
    let (corpus, mut memex) = small_world();
    memex.register_user(7, "curator").unwrap();
    // Bookmark two pages from different topics; visit a third unfiled page.
    let t0_pages = corpus.pages_of_topic(0);
    let t1_pages = corpus.pages_of_topic(1);
    for (i, &p) in t0_pages.iter().skip(8).take(3).enumerate() {
        memex.submit(visit(7, p, 10 + i as u64, None));
        memex.submit(ClientEvent::Bookmark {
            user: 7,
            page: p,
            url: corpus.pages[p as usize].url.clone(),
            folder: "/A".into(),
            time: 10,
        });
    }
    for (i, &p) in t1_pages.iter().skip(8).take(3).enumerate() {
        memex.submit(visit(7, p, 20 + i as u64, None));
        memex.submit(ClientEvent::Bookmark {
            user: 7,
            page: p,
            url: corpus.pages[p as usize].url.clone(),
            folder: "/B".into(),
            time: 20,
        });
    }
    // An unfiled interior page of topic 0.
    let unfiled = t0_pages[12];
    memex.submit(visit(7, unfiled, 30, None));
    memex.run_demons().unwrap();
    let fs = memex.folder_space(7);
    let a = fs
        .assignment(unfiled)
        .expect("the demon should have guessed");
    assert!(!a.confirmed, "guess must carry the '?'");
    assert_eq!(
        fs.taxonomy.path(a.folder),
        "/A",
        "topic-0 page belongs in folder A"
    );
}

#[test]
fn servlet_event_ingest_matches_direct_submit() {
    let (_, mut memex) = small_world();
    memex.register_user(1, "u").unwrap();
    let resp = dispatch(&mut memex, Request::Event(visit(1, 2, 5, None)));
    assert!(matches!(resp, Response::Ack { archived: true }));
    memex.run_demons().unwrap();
    assert_eq!(memex.server.trails.len(), 1);
}

/// The index is the served system's one store: through the served entry
/// point, registering writes nothing, a first visit's ack is one store put
/// (the page's length; postings wait in the index buffer), and a repeat
/// visit or a bookmark of a page already fetched writes nothing.
#[test]
fn an_ack_puts_once_per_first_fetched_page() {
    let (corpus, mut memex) = small_world();
    let puts = |memex: &Memex| memex.registry().snapshot().counter("store.kv.puts");
    memex.register_user(1, "u").unwrap();
    memex.register_user(2, "v").unwrap();
    assert_eq!(puts(&memex), 0, "registration");
    let ack = |memex: &mut Memex, event: ClientEvent| {
        let before = puts(memex);
        let response = dispatch(memex, Request::Event(event));
        assert!(matches!(response, Response::Ack { archived: true }));
        puts(memex) - before
    };
    assert_eq!(ack(&mut memex, visit(1, 3, 1, None)), 1, "first visit");
    assert_eq!(ack(&mut memex, visit(1, 3, 2, None)), 0, "repeat visit");
    assert_eq!(
        ack(&mut memex, visit(2, 3, 2, None)),
        0,
        "another user's visit"
    );
    let bookmark = ClientEvent::Bookmark {
        user: 1,
        page: 3,
        url: corpus.pages[3].url.clone(),
        folder: "/Music".into(),
        time: 3,
    };
    assert_eq!(ack(&mut memex, bookmark), 0, "bookmark of a fetched page");
    assert_eq!(
        ack(&mut memex, visit(1, 4, 4, Some(3))),
        1,
        "next first visit"
    );
}

/// Every write ack through the served entry point drains the event log: the
/// log retains nothing afterwards and no demon is behind. This is why the log
/// needs no overload shedding.
#[test]
fn every_write_ack_leaves_the_event_log_empty() {
    use memex::core::bookmarks_io::{export_netscape, BookmarkEntry};
    use rand::prelude::*;

    let (corpus, mut memex) = small_world();
    for user in 0..3 {
        memex.register_user(user, &format!("u{user}")).unwrap();
    }
    let modes = [
        ArchiveMode::Off,
        ArchiveMode::Private,
        ArchiveMode::Community,
    ];
    let mut rng = StdRng::seed_from_u64(26);
    for time in 0..300u64 {
        let user = rng.gen_range(0u32..3);
        let page = rng.gen_range(0..corpus.num_pages());
        let url = corpus.pages[page].url.clone();
        let page = page as u32;
        let request = match rng.gen_range(0u32..10) {
            0..=5 => Request::Event(visit(user, page, time, None)),
            6 | 7 => Request::Event(ClientEvent::Bookmark {
                user,
                page,
                url,
                folder: format!("/F{}", page % 3),
                time,
            }),
            8 => Request::Event(ClientEvent::SetMode {
                user,
                mode: modes[rng.gen_range(0usize..3)],
                time,
            }),
            _ => Request::ImportBookmarks {
                user,
                html: export_netscape(&[BookmarkEntry {
                    folder_path: vec!["Imported".into()],
                    url,
                    title: String::new(),
                }]),
                time,
            },
        };
        let response = dispatch(&mut memex, request);
        assert!(
            matches!(response, Response::Ack { .. } | Response::Imported { .. }),
            "ack {time}: {response:?}"
        );
        let snap = memex.registry().snapshot();
        assert_eq!(snap.gauge("server.bus.depth"), 0, "ack {time}");
        let staleness: Vec<_> = snap
            .gauges
            .iter()
            .filter(|(name, _)| name.starts_with("store.version.staleness."))
            .collect();
        assert_eq!(staleness.len(), 2, "one gauge per demon");
        assert!(
            staleness.iter().all(|(_, behind)| *behind == 0),
            "ack {time}: {staleness:?}"
        );
    }
    let stats = memex.server.stats();
    assert!(stats.visits_trailed > 0 && stats.bookmarks_recorded > 0);
    assert!(stats.events_mode_filtered > 0, "the mix reached Off mode");
}

#[test]
fn trails_follow_referrers_across_users() {
    let (_, mut memex) = small_world();
    memex.register_user(1, "a").unwrap();
    memex.register_user(2, "b").unwrap();
    memex.submit(visit(1, 10, 1, None));
    memex.submit(visit(1, 11, 2, Some(10)));
    memex.submit(visit(2, 11, 3, None));
    memex.submit(visit(2, 12, 4, Some(11)));
    memex.run_demons().unwrap();
    let ctx = memex.server.trails.replay_context(10..=12, 1, 0, 10);
    assert_eq!(ctx.nodes.len(), 3);
    assert!(ctx.edges.contains(&(10, 11, 1)));
    assert!(ctx.edges.contains(&(11, 12, 1)));
}

#[test]
fn recall_reads_quotes_and_operators_as_plain_words() {
    // `Request::Recall` carries a bag of words: the wire never had phrase
    // or boolean semantics, so search-box punctuation changes nothing.
    let (corpus, mut memex) = small_world();
    memex.register_user(1, "searcher").unwrap();
    let page = corpus
        .pages
        .iter()
        .find(|p| !p.is_front && p.text.split_whitespace().count() >= 10)
        .expect("an interior page");
    for (i, p) in corpus.pages.iter().take(30).enumerate() {
        memex.submit(visit(1, p.id, 10 + i as u64, None));
    }
    memex.submit(visit(1, page.id, 50, None));
    memex.run_demons().unwrap();
    let words: Vec<&str> = page.text.split_whitespace().collect();
    let (w1, w2) = (words[2], words[words.len() - 1]);
    let plain = memex
        .recall(1, &format!("{w1} {w2}"), 0, u64::MAX, 5)
        .unwrap();
    assert!(
        plain.iter().any(|h| h.page == page.id),
        "\"{w1} {w2}\" should find page {} in {plain:?}",
        page.id
    );
    for query in [format!("\"{w1} {w2}\""), format!("+{w1} -{w2}")] {
        let hits = memex.recall(1, &query, 0, u64::MAX, 5).unwrap();
        assert_eq!(hits, plain, "{query}");
    }
    // Unknown vocabulary gives no hits rather than an error.
    assert!(memex
        .recall(1, "zzzunseen wordzzz", 0, u64::MAX, 5)
        .unwrap()
        .is_empty());
}

/// `request` framed as a client frames it, answered by `service`, and the
/// one response frame it wrote decoded.
fn ask(service: &Service, request: &Request) -> Response {
    let frame = wire::frame_bytes(FrameKind::Request, &wire::encode_request(request), None)
        .expect("the request fits a frame");
    let mut written = Vec::new();
    assert!(service.handle(wire::read_frame_meta(&mut &frame[..]), &mut written));
    let meta = wire::read_frame_meta(&mut &written[..]).expect("a response frame");
    wire::decode_response(&meta.payload).expect("a response")
}

/// A visit and a bookmark naming a page id far past the web's — the top
/// bit set, and `u32::MAX` — are acknowledged as any write is, and the
/// bookmark is filed; but the fetch demon settles nothing for them, so the
/// page table, the index's document table and the sizes of the index and
/// the vocabulary stay where the archive's own pages left them.
#[test]
fn hostile_page_ids_are_acknowledged_and_size_no_table() {
    let (corpus, mut memex) = small_world();
    memex.register_user(1, "u").unwrap();
    for page in [0, 7, corpus.num_pages() as u32 - 1] {
        memex.submit(visit(1, page, u64::from(page), None));
    }
    memex.run_demons().unwrap();
    let gauges = |memex: &Memex| {
        let snap = memex.registry().snapshot();
        (snap.gauge("mem.index.bytes"), snap.gauge("mem.vocab.bytes"))
    };
    let before = gauges(&memex);
    assert!(before.0 > 0 && before.1 > 0, "{before:?}");
    let service = Service::new(memex, 4);
    for (time, page) in [(100, 1u32 << 31), (101, u32::MAX)] {
        let bookmark = ClientEvent::Bookmark {
            user: 1,
            page,
            url: format!("http://nowhere.invalid/{page}"),
            folder: "/Hostile".into(),
            time,
        };
        for event in [visit(1, page, time, Some(page)), bookmark] {
            let answer = ask(&service, &Request::Event(event.clone()));
            assert_eq!(answer, Response::Ack { archived: true }, "{event:?}");
        }
    }
    let memex = service.into_memex();
    let server = &memex.server;
    assert_eq!(server.bookmarks.len(), 2, "both bookmarks are filed");
    assert!(server.tf(1 << 31).is_none() && server.tf(u32::MAX).is_none());
    assert_eq!(server.stats().pages_fetched, 3);
    assert_eq!(server.page_slots(), corpus.num_pages());
    assert_eq!(server.index.max_doc(), Some(corpus.num_pages() as u32 - 1));
    assert_eq!(gauges(&memex), before, "the index and the vocabulary");
}

#[test]
fn umbrella_reexports_are_usable() {
    // The facade must expose every substrate for downstream use.
    let _ = memex::text::stem::stem("browsing");
    let _ = memex::store::lsm::LsmStore::open_memory().unwrap();
    let mut g = memex::graph::graph::WebGraph::new();
    g.add_edge(0, 1);
    let _ = memex::cluster::hac::hac_cut(&[], 1);
    let _ = memex::learn::taxonomy::Taxonomy::new();
    let c = memex::web::corpus::Corpus::generate(memex::web::corpus::CorpusConfig {
        num_topics: 2,
        pages_per_topic: 3,
        ..Default::default()
    });
    assert_eq!(c.num_pages(), 6);
}
