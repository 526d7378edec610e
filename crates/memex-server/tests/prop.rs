//! Property tests for the server: under any interleaving of events, mode
//! switches and demon scheduling, both demons process the *same* surviving
//! event stream, privacy filtering is exact, and staleness accounting adds
//! up.

use std::sync::Arc;

use proptest::prelude::*;

use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex_server::fetcher::CorpusFetcher;
use memex_server::pipeline::{MemexServer, ServerOptions};
use memex_web::corpus::{Corpus, CorpusConfig};

#[derive(Debug, Clone)]
enum Action {
    Visit { user: u32, page: u32 },
    Bookmark { user: u32, page: u32 },
    SetMode { user: u32, mode: u8 },
    RunTrail { max: usize },
    RunIndex { max: usize },
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        5 => (0u32..3, 0u32..20).prop_map(|(user, page)| Action::Visit { user, page }),
        2 => (0u32..3, 0u32..20).prop_map(|(user, page)| Action::Bookmark { user, page }),
        1 => (0u32..3, 0u8..3).prop_map(|(user, mode)| Action::SetMode { user, mode }),
        2 => (1usize..4).prop_map(|max| Action::RunTrail { max }),
        2 => (1usize..4).prop_map(|max| Action::RunIndex { max }),
    ]
}

fn corpus() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 10,
        interior_tokens: (5, 10),
        ..CorpusConfig::default()
    }))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn pipeline_invariants_under_any_interleaving(actions in proptest::collection::vec(action_strategy(), 0..80)) {
        let corpus = corpus();
        let mut server = MemexServer::new(CorpusFetcher::new(corpus), ServerOptions::default()).unwrap();
        let mut time = 0u64;
        // Our own reference model of what should survive ingest.
        let mut expected_visits = 0u64;
        let mut expected_bookmarks = [0usize; 3];
        let mut expected_filtered = 0u64;
        let mut modes = [ArchiveMode::Community; 3];
        // Events on the log, and how many of them each demon applied.
        let mut appended = 0u64;
        let mut applied = [0u64; 2];
        for action in &actions {
            match action {
                Action::Visit { user, page } => {
                    time += 1;
                    let archived = server.submit(ClientEvent::Visit(VisitEvent {
                        user: *user,
                        session: 0,
                        page: *page,
                        url: String::new(),
                        time,
                        referrer: None,
                    }));
                    if modes[*user as usize] == ArchiveMode::Off {
                        prop_assert!(!archived);
                        expected_filtered += 1;
                    } else {
                        prop_assert!(archived);
                        expected_visits += 1;
                        appended += 1;
                    }
                }
                Action::Bookmark { user, page } => {
                    time += 1;
                    let archived = server.submit(ClientEvent::Bookmark {
                        user: *user,
                        page: *page,
                        url: String::new(),
                        folder: "/F".into(),
                        time,
                    });
                    if modes[*user as usize] == ArchiveMode::Off {
                        prop_assert!(!archived);
                        expected_filtered += 1;
                    } else {
                        prop_assert!(archived);
                        expected_bookmarks[*user as usize] += 1;
                        appended += 1;
                    }
                }
                Action::SetMode { user, mode } => {
                    let m = match mode {
                        0 => ArchiveMode::Off,
                        1 => ArchiveMode::Private,
                        _ => ArchiveMode::Community,
                    };
                    modes[*user as usize] = m;
                    server.submit(ClientEvent::SetMode { user: *user, mode: m, time });
                }
                Action::RunTrail { max } => {
                    let ran = server.run_trail_demon(*max) as u64;
                    prop_assert_eq!(ran, (*max as u64).min(appended - applied[0]));
                    applied[0] += ran;
                }
                Action::RunIndex { max } => {
                    let ran = server.run_index_demon(*max).unwrap() as u64;
                    prop_assert_eq!(ran, (*max as u64).min(appended - applied[1]));
                    applied[1] += ran;
                }
            }
            // Each demon's staleness is what was appended minus what it
            // applied.
            prop_assert_eq!(
                server.staleness().collect::<Vec<_>>(),
                vec![("trail-demon", appended - applied[0]), ("index-demon", appended - applied[1])]
            );
        }
        server.drain_demons().unwrap();
        let stats = server.stats();
        prop_assert_eq!(stats.events_mode_filtered, expected_filtered);
        prop_assert_eq!(stats.visits_trailed, expected_visits);
        prop_assert_eq!(server.trails.len() as u64, expected_visits);
        prop_assert_eq!(stats.bookmarks_recorded, expected_bookmarks.iter().sum::<usize>() as u64);
        prop_assert!(server.staleness().all(|(_, n)| n == 0));
        // Every user's bookmarks were recorded, and only theirs.
        for (u, &expected) in expected_bookmarks.iter().enumerate() {
            let recorded = server.bookmarks.iter().filter(|b| b.user as usize == u).count();
            prop_assert_eq!(recorded, expected);
        }
    }

    /// Privacy is decided at ingest time: flipping the mode later never
    /// rewrites history.
    #[test]
    fn privacy_decided_at_ingest(flips in proptest::collection::vec(0u8..3, 1..10)) {
        let corpus = corpus();
        let mut server = MemexServer::new(CorpusFetcher::new(corpus), ServerOptions::default()).unwrap();
        let mut expected_public = 0usize;
        let mut expected_total = 0usize;
        for (i, &flip) in flips.iter().enumerate() {
            let mode = match flip {
                0 => ArchiveMode::Off,
                1 => ArchiveMode::Private,
                _ => ArchiveMode::Community,
            };
            server.submit(ClientEvent::SetMode { user: 0, mode, time: i as u64 });
            server.submit(ClientEvent::Visit(VisitEvent {
                user: 0,
                session: 0,
                page: (i % 5) as u32,
                url: String::new(),
                time: i as u64,
                referrer: None,
            }));
            if mode != ArchiveMode::Off {
                expected_total += 1;
                if mode == ArchiveMode::Community {
                    expected_public += 1;
                }
            }
        }
        server.drain_demons().unwrap();
        prop_assert_eq!(server.trails.len(), expected_total);
        let public = server.trails.visits().iter().filter(|v| v.public).count();
        prop_assert_eq!(public, expected_public);
    }
}
