//! End-to-end system tests: a simulated community surfs the synthetic web
//! through the full Memex stack, then every §1 query is asked.

use std::sync::Arc;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch, Request, Response};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};

/// Build a world, push every simulated event through the server, run the
/// demons.
fn world() -> (Arc<Corpus>, Community, Memex) {
    world_archiving(100)
}

/// The same world with only the first `percent` % of the trail archived.
fn world_archiving(percent: usize) -> (Arc<Corpus>, Community, Memex) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 4,
        pages_per_topic: 50,
        ..CorpusConfig::default()
    }));
    let community = Community::simulate(
        &corpus,
        &SurferConfig {
            num_users: 8,
            sessions_per_user: 10,
            ..SurferConfig::default()
        },
    );
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
    for truth in &community.users {
        memex
            .register_user(truth.user, &format!("user{}", truth.user))
            .unwrap();
    }
    // Interleave bookmarks with visits in time order.
    let mut bi = 0usize;
    let archived = community.visits.len() * percent / 100;
    for v in &community.visits[..archived] {
        while bi < community.bookmarks.len() && community.bookmarks[bi].time <= v.time {
            let b = &community.bookmarks[bi];
            memex.submit(ClientEvent::Bookmark {
                user: b.user,
                page: b.page,
                url: corpus.pages[b.page as usize].url.clone(),
                folder: format!("/{}", b.folder),
                time: b.time,
            });
            bi += 1;
        }
        memex.submit(ClientEvent::Visit(VisitEvent {
            user: v.user,
            session: v.session,
            page: v.page,
            url: corpus.pages[v.page as usize].url.clone(),
            time: v.time,
            referrer: v.referrer,
        }));
    }
    memex.run_demons().unwrap();
    (corpus, community, memex)
}

#[test]
fn full_pipeline_archives_everything() {
    let (_, community, mut memex) = world();
    let stats = memex.server.stats();
    // Both demons applied everything archived, and the log is trimmed.
    assert!(memex.server.staleness().all(|(_, n)| n == 0));
    assert_eq!(memex.registry().snapshot().gauge("server.bus.depth"), 0);
    assert!(stats.docs_indexed > 0);
    assert!(stats.bookmarks_recorded > 0);
    // Public visits made it to the trail graph.
    assert!(memex.server.trails.len() as u64 >= stats.visits_trailed / 2);
    // Folder spaces got populated by the bookmark filing + classify demon.
    let user = community.users[0].user;
    let fs = memex.folder_space(user);
    assert!(
        fs.confirmed_count() > 0,
        "bookmarks must be confirmed assignments"
    );
    assert!(
        fs.assignments().count() > fs.confirmed_count(),
        "the demon should have guessed extra pages"
    );
}

#[test]
fn recall_finds_a_months_old_page() {
    let (corpus, community, memex) = world();
    // Pick a real early visit by user 0 on their primary interest.
    let user = community.users[0].user;
    let topic = community.users[0].interests[0];
    let target = community
        .visits
        .iter()
        .find(|v| {
            v.user == user
                && corpus.topic_of(v.page) == topic
                && !corpus.pages[v.page as usize].is_front
        })
        .expect("user visited an interior page of their interest");
    // Query with that page's own top words plus the window around then.
    let words: Vec<&str> = corpus.pages[target.page as usize]
        .text
        .split_whitespace()
        .take(6)
        .collect();
    let query = words.join(" ");
    let window = 30 * 24 * 3_600_000u64; // one month
    let hits = memex
        .recall(
            user,
            &query,
            target.time.saturating_sub(window),
            target.time + window,
            10,
        )
        .unwrap();
    assert!(!hits.is_empty(), "recall must return something");
    assert!(
        hits.iter().any(|h| h.page == target.page),
        "the visited page should be among the hits"
    );
    // Everything returned was actually visited by the user in the window.
    for h in &hits {
        assert!(h.last_visit >= target.time.saturating_sub(window));
        assert!(h.last_visit <= target.time + window);
    }
}

#[test]
fn recall_returns_equal_scores_in_page_order() {
    // Pages 5 and 9 read the same, so they score the same; page 7 says the
    // word twice in a shorter text and outranks both. Visited 9, 5, 7.
    let mut corpus = Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 10,
        ..CorpusConfig::default()
    });
    for (page, text) in [
        (5, "zeppelin mooring mast over the harbour"),
        (9, "zeppelin mooring mast over the harbour"),
        (7, "zeppelin zeppelin hangar"),
    ] {
        corpus.pages[page].title = "airships".to_string();
        corpus.pages[page].text = text.to_string();
    }
    let corpus = Arc::new(corpus);
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
    memex.register_user(1, "user1").unwrap();
    for (time, page) in [(10, 9u32), (20, 5), (30, 7)] {
        memex.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 1,
            page,
            url: corpus.pages[page as usize].url.clone(),
            time,
            referrer: None,
        }));
    }
    memex.run_demons().unwrap();
    let hits = memex.recall(1, "zeppelins", 0, u64::MAX, 10).unwrap();
    let pages: Vec<u32> = hits.iter().map(|h| h.page).collect();
    assert_eq!(pages, [7, 5, 9], "score desc, then page asc");
    assert_eq!(hits[1].score.to_bits(), hits[2].score.to_bits());
    assert!(hits[0].score > hits[1].score);
    assert_eq!(hits[1].snippet, "zeppelin mooring mast over the harbour");
}

/// Recall ranks *my* pages: the best `k` among what I visited, not what is
/// left of the community's best after dropping everybody else's. Twenty-five
/// pages somebody else read outrank the one page I did.
#[test]
fn recall_returns_my_page_however_the_community_ranks_it() {
    let mut corpus = Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 15,
        ..CorpusConfig::default()
    });
    let mine = 29usize;
    for page in 0..25 {
        corpus.pages[page].title = "airships".to_string();
        corpus.pages[page].text = "zeppelin zeppelin hangar".to_string();
    }
    corpus.pages[mine].title = "harbour".to_string();
    corpus.pages[mine].text =
        "a long walk along the harbour wall past the cranes and the old zeppelin mooring mast"
            .to_string();
    let corpus = Arc::new(corpus);
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
    memex.register_user(1, "me").unwrap();
    memex.register_user(2, "them").unwrap();
    let visit = |memex: &mut Memex, user: u32, page: usize, time: u64| {
        memex.submit(ClientEvent::Visit(VisitEvent {
            user,
            session: user,
            page: page as u32,
            url: corpus.pages[page].url.clone(),
            time,
            referrer: None,
        }));
    };
    for page in 0..25 {
        visit(&mut memex, 2, page, 10 + page as u64);
    }
    // Three visits of mine, arriving out of time order.
    for time in [30, 50, 40] {
        visit(&mut memex, 1, mine, time);
    }
    memex.run_demons().unwrap();
    let theirs = memex.recall(2, "zeppelin", 0, u64::MAX, 40).unwrap();
    assert_eq!(theirs.len(), 25);
    for k in [1, 3, 40] {
        let hits = memex.recall(1, "zeppelin", 0, u64::MAX, k).unwrap();
        assert_eq!(hits.len(), 1, "k = {k}: {hits:?}");
        assert_eq!(hits[0].page, mine as u32);
        assert!(hits[0].score < theirs[24].score, "and it does rank last");
        assert_eq!(
            hits[0].last_visit, 50,
            "the latest visit, not the last to arrive"
        );
    }
    // The window is over my visits: [0, 45] last saw the page at 40.
    let earlier = memex.recall(1, "zeppelin", 0, 45, 1).unwrap();
    assert_eq!(earlier[0].last_visit, 40);
    assert!(memex
        .recall(1, "zeppelin", 60, u64::MAX, 1)
        .unwrap()
        .is_empty());
}

#[test]
fn trail_replay_recreates_topical_context() {
    let (corpus, community, mut memex) = world();
    let user = community.users[0].user;
    let topic = community.users[0].interests[0];
    // The folder named after the user's primary interest exists from
    // bookmark filing.
    let folder = {
        let fs = memex.folder_space(user);
        let path = format!("/{}", corpus.topic_names[topic]);
        fs.add_folder(&path)
    };
    let ctx = memex.topic_context(user, folder, 0, 25);
    assert!(!ctx.nodes.is_empty(), "context should replay pages");
    // Precision: replayed pages are mostly of the right ground-truth topic.
    let on_topic = ctx
        .nodes
        .iter()
        .filter(|n| corpus.topic_of(n.page) == topic)
        .count();
    let precision = on_topic as f64 / ctx.nodes.len() as f64;
    assert!(precision > 0.6, "replay precision {precision}");
    // Edges connect replayed nodes only.
    let node_set: std::collections::HashSet<u32> = ctx.nodes.iter().map(|n| n.page).collect();
    for &(a, b, c) in &ctx.edges {
        assert!(node_set.contains(&a) && node_set.contains(&b));
        assert!(c >= 1);
    }
}

#[test]
fn bill_breaks_down_by_folder() {
    let (_, community, memex) = world();
    let user = community.users[1].user;
    let lines = memex.bill(user, 0, u64::MAX);
    assert!(!lines.is_empty());
    let total: f64 = lines.iter().map(|l| l.fraction).sum();
    assert!(
        (total - 1.0).abs() < 1e-6,
        "fractions sum to 1, got {total}"
    );
    assert!(
        lines.windows(2).all(|w| w[0].bytes >= w[1].bytes),
        "sorted by bytes"
    );
    let bytes: u64 = lines.iter().map(|l| l.bytes).sum();
    assert!(bytes > 0);
}

#[test]
fn community_themes_and_profiles() {
    let (_, community, memex) = world();
    let (themes, _) = memex.community_themes().clone();
    assert!(!themes.themes.is_empty(), "community themes must exist");
    themes.taxonomy.check_invariants().unwrap();
    // Several users bookmark the same topics, so at least one theme should
    // have multiple users.
    assert!(
        themes.themes.iter().any(|t| t.users.len() >= 2),
        "shared interests should merge into shared themes"
    );
    let user = community.users[0].user;
    let place = memex.my_place(user);
    assert!(!place.is_empty(), "user must appear somewhere on the map");
    let top_weight = place[0].1;
    assert!(top_weight > 0.0 && top_weight <= 1.0 + 1e-9);
}

#[test]
fn similar_surfers_respect_shared_interests() {
    let (_, community, memex) = world();
    // users 0 and 4 share primary interest (u % num_topics with 4 topics,
    // 8 users).
    let similar = memex.similar_surfers(0, 7);
    assert_eq!(similar.len(), 7);
    let rank_of = |u: u32| similar.iter().position(|&(v, _)| v == u).unwrap();
    // The same-primary-interest user should rank above the median.
    assert!(
        rank_of(4) < 4,
        "user 4 (same primary interest) ranked {} in {:?}",
        rank_of(4),
        similar
    );
    let _ = community;
}

#[test]
fn recommendations_are_novel_pages() {
    let (_, _, memex) = world();
    let recs = memex.recommend_pages(0, 10);
    assert!(!recs.is_empty());
    let mine: std::collections::HashSet<u32> =
        memex.server.trails.user_pages(0, 0).into_iter().collect();
    for (page, score) in &recs {
        assert!(
            !mine.contains(page),
            "recommended page {page} was already visited"
        );
        assert!(*score > 0.0);
    }
}

#[test]
fn servlet_dispatch_covers_the_api() {
    let (corpus, community, mut memex) = world();
    let user = community.users[0].user;
    // Search through the servlet.
    let resp = dispatch(
        &mut memex,
        Request::Recall {
            user,
            query: "classical music".into(),
            since: 0,
            until: u64::MAX,
            k: 5,
        },
    );
    assert!(matches!(resp, Response::Recall(_)));
    // Bill.
    let resp = dispatch(
        &mut memex,
        Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        },
    );
    let Response::Bill(lines) = resp else {
        panic!("expected bill")
    };
    assert!(!lines.is_empty());
    // Export -> import round trip through the Netscape format.
    let Response::Exported(html) = dispatch(&mut memex, Request::ExportBookmarks { user }) else {
        panic!("expected export");
    };
    assert!(html.contains("NETSCAPE-Bookmark-file-1"));
    let fresh_user = 999u32;
    memex.register_user(fresh_user, "fresh").unwrap();
    let Response::Imported {
        archived,
        rejected,
        unresolved,
    } = dispatch(
        &mut memex,
        Request::ImportBookmarks {
            user: fresh_user,
            html,
            time: 1,
        },
    )
    else {
        panic!("expected import");
    };
    assert!(archived > 0);
    assert_eq!(rejected, 0, "no user was in privacy mode");
    assert_eq!(unresolved, 0, "all exported urls resolve in the corpus");
    let fs = memex.folder_space(fresh_user);
    assert_eq!(fs.confirmed_count(), archived);
    let _ = corpus;
}

#[test]
fn proposed_folders_cluster_loose_pages_by_topic() {
    let (corpus, community, mut memex) = world();
    let user = community.users[0].user;
    let proposals = memex.propose_folders(user, 4);
    assert!(!proposals.is_empty());
    // Every proposed folder should be topically coherent: its majority
    // ground-truth topic should own most members.
    let mut total = 0usize;
    let mut majority = 0usize;
    for p in &proposals {
        assert!(!p.name.is_empty(), "proposal must carry a suggested name");
        let mut counts = std::collections::HashMap::new();
        for &page in &p.pages {
            *counts.entry(corpus.topic_of(page)).or_insert(0usize) += 1;
        }
        majority += counts.values().max().copied().unwrap_or(0);
        total += p.pages.len();
    }
    let purity = majority as f64 / total.max(1) as f64;
    assert!(purity > 0.6, "proposal purity {purity}");
    // Confirmed bookmarks are not re-proposed.
    let confirmed: Vec<u32> = {
        let fs = memex.folder_space(user);
        fs.assignments()
            .filter(|(_, a)| a.confirmed)
            .map(|(p, _)| p)
            .collect()
    };
    let proposals = memex.propose_folders(user, 4);
    for p in &proposals {
        for page in &p.pages {
            assert!(!confirmed.contains(page));
        }
    }
}

/// A loose page without a vector sits out of the clustering, and every
/// other one is still proposed as itself rather than as its neighbour.
/// Two kinds of page have no vector: a dead link (the fetcher answers
/// `NotFound`) and a page the fetch demon has not reached. Loose pages are
/// taken in id order and a dead link's id is past the corpus, so it is the
/// lagging page, at id 0, that sits in front of the live ones.
#[test]
fn proposed_folders_name_their_own_pages_when_some_have_no_vector() {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 10,
        ..CorpusConfig::default()
    }));
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).unwrap();
    memex.register_user(1, "user1").unwrap();
    let visit = |page: u32, time: u64| {
        ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 1,
            page,
            url: format!("http://example.org/{page}"),
            time,
            referrer: None,
        })
    };
    let dead = corpus.num_pages() as u32 + 7;
    let live: Vec<u32> = (1..=6).collect();
    for (time, &page) in (1u64..).zip(live.iter().chain([&dead])) {
        memex.submit(visit(page, time));
    }
    memex.run_demons().unwrap();
    // Page 0 reaches the trail, but not yet the fetch demon.
    memex.submit(visit(0, 100));
    memex.server.run_trail_demon(usize::MAX);
    let proposed = |memex: &Memex| -> Vec<u32> {
        let mut pages: Vec<u32> = memex
            .propose_folders(1, 2)
            .into_iter()
            .flat_map(|p| p.pages)
            .collect();
        pages.sort_unstable();
        pages
    };
    assert_eq!(proposed(&memex), live);
    memex.run_demons().unwrap();
    assert_eq!(proposed(&memex), [0, 1, 2, 3, 4, 5, 6]);
}

#[test]
fn stats_servlet_reports_live_subsystems() {
    let (_, community, mut memex) = world();
    // Exercise a query path so servlet + index.query latencies exist.
    let user = community.users[0].user;
    let _ = dispatch(
        &mut memex,
        Request::Recall {
            user,
            query: "classical music".into(),
            since: 0,
            until: u64::MAX,
            k: 5,
        },
    );
    let Response::Stats(snap) = dispatch(&mut memex, Request::Stats) else {
        panic!("expected stats");
    };
    // The answer is this server's registry and nothing else: the same
    // names, whatever else ran in the process.
    let names = |s: &memex_obs::Snapshot| -> Vec<String> {
        let counters = s.counters.iter().map(|(n, _)| n.clone());
        let gauges = s.gauges.iter().map(|(n, _)| n.clone());
        let histograms = s.histograms.iter().map(|(n, _)| n.clone());
        let events = s.events.iter().map(|(n, _)| n.clone());
        counters
            .chain(gauges)
            .chain(histograms)
            .chain(events)
            .collect()
    };
    assert_eq!(names(&snap), names(&memex.registry().snapshot()));
    // Live values from every layer: store, index, server pipeline, and the
    // servlet surface itself.
    assert!(snap.counter("store.kv.puts") > 0, "store layer silent");
    assert!(snap.counter("store.wal.appends") > 0, "wal silent");
    assert!(snap.counter("index.docs") > 0, "index layer silent");
    assert!(
        snap.counter("server.events.submitted") > 0,
        "pipeline silent"
    );
    assert!(snap.counter("server.fetch.pages") > 0, "fetcher silent");
    let q = snap
        .histogram("index.query.latency")
        .expect("query latency histogram");
    assert!(q.count > 0 && q.sum > 0);
    // The one recall walked the community's postings of "classical" and
    // "music" and scored the user's own pages among them.
    let (walked, scored) = (
        snap.counter("index.query.postings"),
        snap.counter("index.query.scored"),
    );
    assert!(scored > 0, "recall scored nothing");
    assert!(walked > scored, "walked {walked}, scored {scored}");
    let s = snap
        .histogram("servlet.recall.latency")
        .expect("servlet latency histogram");
    assert_eq!(s.count, 1);
    // Per-demon staleness gauges exist (zero after run_demons caught up).
    assert!(snap
        .gauges
        .iter()
        .any(|(n, _)| n == "store.version.staleness.index-demon"));
    // The text exporter renders it.
    assert!(snap.render_text().contains("server.events.submitted"));
}

#[test]
fn whats_new_excludes_seen_pages_and_ranks_authorities() {
    let (corpus, community, mut memex) = world();
    let user = community.users[2].user;
    let topic = community.users[2].interests[0];
    let folder = {
        let fs = memex.folder_space(user);
        fs.add_folder(&format!("/{}", corpus.topic_names[topic]))
    };
    // Ask for what's new in the second half of the history.
    let horizon = {
        let visits = memex.server.trails.visits();
        visits[visits.len() / 2].time
    };
    let fresh = memex.whats_new(user, folder, horizon, 5);
    let seen_before: std::collections::HashSet<u32> = memex
        .server
        .trails
        .visits()
        .iter()
        .filter(|v| v.user == user && v.time < horizon)
        .map(|v| v.page)
        .collect();
    for (page, score) in &fresh {
        assert!(
            !seen_before.contains(page),
            "page {page} was already known to the user"
        );
        assert!(*score >= 0.0);
    }
}

/// In a young archive the strongest authorities near a topic are link
/// targets nobody has archived yet. They cannot be recommended, and they
/// must not use up the `k` slots either: asking for `k` gives the first `k`
/// of what asking for everything gives.
#[test]
fn whats_new_fills_k_slots_in_a_young_archive() {
    let (_, community, memex) = world_archiving(10);
    let horizon = {
        let visits = memex.server.trails.visits();
        visits[visits.len() / 2].time
    };
    let mut short_of_everything = 0usize;
    for truth in &community.users {
        let user = truth.user;
        for folder in memex.folder_space_ref(user).taxonomy.all_topics() {
            let everything = memex.whats_new(user, folder, horizon, usize::MAX);
            for k in [1usize, 3, 5] {
                let top = memex.whats_new(user, folder, horizon, k);
                assert_eq!(
                    top,
                    everything[..k.min(everything.len())],
                    "user {user}, folder {folder:?}, k {k}"
                );
                short_of_everything += usize::from(everything.len() > k);
            }
        }
    }
    assert!(
        short_of_everything >= 10,
        "too few questions had more than k qualifying pages to tell: {short_of_everything}"
    );
}

/// The whole community surfs through a server whose fetcher fails
/// transiently 20% of the time: the demons must still drain every event,
/// every page ends up either indexed or explicitly abandoned, and the
/// retry/abandon accounting surfaces in both ServerStats and the metrics
/// snapshot.
#[test]
fn community_surf_survives_flaky_fetcher() {
    use memex_server::fetcher::{CorpusFetcher, FlakyConfig, FlakyFetcher};
    use memex_server::pipeline::{MemexServer, ServerOptions};

    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 3,
        pages_per_topic: 30,
        ..CorpusConfig::default()
    }));
    let community = Community::simulate(
        &corpus,
        &SurferConfig {
            num_users: 4,
            sessions_per_user: 6,
            ..SurferConfig::default()
        },
    );
    let fetcher = FlakyFetcher::new(
        CorpusFetcher::new(corpus.clone()),
        FlakyConfig {
            seed: 20_000_101,
            transient_per_10k: 2_000,
            ..FlakyConfig::default()
        },
    );
    let mut server = MemexServer::new(fetcher, ServerOptions::default()).unwrap();
    let mut pages = std::collections::HashSet::new();
    for v in &community.visits {
        pages.insert(v.page);
        server.submit(ClientEvent::Visit(VisitEvent {
            user: v.user,
            session: v.session,
            page: v.page,
            url: corpus.pages[v.page as usize].url.clone(),
            time: v.time,
            referrer: v.referrer,
        }));
    }
    server.drain_demons().unwrap();
    assert!(
        server.staleness().all(|(_, n)| n == 0),
        "flaky fetches must never stall the demons"
    );
    let stats = server.stats();
    assert_eq!(
        stats.pages_fetched + stats.pages_abandoned,
        pages.len() as u64,
        "every visited page fetched or explicitly abandoned"
    );
    assert!(stats.fetch_retries > 0, "20% flakiness must force retries");
    assert_eq!(stats.docs_indexed, stats.pages_fetched);
    let snap = server.metrics_snapshot();
    assert_eq!(snap.counter("server.fetch.retries"), stats.fetch_retries);
    assert_eq!(
        snap.counter("server.fetch.abandoned"),
        stats.pages_abandoned
    );
}
