//! Answer digest: the `crates/core/tests/system.rs` world, a fixed list of
//! every deterministic read servlet, and one committed FNV-1a over the
//! wire encodings of the answers. The constant was generated on the last
//! commit whose metadata tier and index ran on the B+Tree store; it
//! passing unchanged on `LsmStore` is the proof that swapping the storage
//! engine changed no answer. (`Stats`/`Traces` are left out: they report
//! metric names and timings, not archive content.)

use std::sync::Arc;

use memex::core::memex::{Memex, MemexOptions};
use memex::core::servlet::{dispatch, Request, Response};
use memex::net::wire::encode_response;
use memex::server::events::{ClientEvent, VisitEvent};
use memex::web::corpus::{Corpus, CorpusConfig};
use memex::web::surfer::{Community, SurferConfig};

/// Digest of the answers to [`requests`], generated at the parent of the
/// PR that deleted the B+Tree engine. A legitimate change to what a
/// servlet answers regenerates it (the failure message prints the new
/// value); a storage change must not.
const GOLDEN: u64 = 0x1cc1_ff35_5a9d_8833;

fn world() -> (Arc<Corpus>, Community, Memex) {
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
    let mut bi = 0usize;
    for v in &community.visits {
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

/// The fixed request list: per user, one of each read servlet (two
/// folders for the folder-scoped ones).
fn requests(corpus: &Corpus, community: &Community, memex: &Memex) -> Vec<Request> {
    let mut out = Vec::new();
    for truth in &community.users {
        let user = truth.user;
        let first = community
            .visits
            .iter()
            .find(|v| v.user == user)
            .expect("every simulated user visits something");
        // Two words: what the list asked when `GOLDEN` was generated, so
        // they stay. (`recall` sums a query's per-term BM25 shares in
        // sorted term order, so longer queries would digest stably too.)
        let query: Vec<&str> = corpus.pages[first.page as usize]
            .text
            .split_whitespace()
            .take(2)
            .collect();
        out.push(Request::Recall {
            user,
            query: query.join(" "),
            since: 0,
            until: u64::MAX,
            k: 10,
        });
        for &folder in memex.folder_space_ref(user).classes().iter().take(2) {
            out.push(Request::TrailReplay {
                user,
                folder,
                since: 0,
                max_pages: 25,
            });
            out.push(Request::WhatsNew {
                user,
                folder,
                since: 0,
                k: 10,
            });
        }
        out.push(Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        });
        out.push(Request::SimilarSurfers { user, k: 7 });
        out.push(Request::Recommend { user, k: 10 });
        out.push(Request::ExportBookmarks { user });
        out.push(Request::ProposeFolders { user, k: 4 });
    }
    out
}

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

#[test]
fn every_read_servlet_answers_what_it_answered_on_the_btree_engine() {
    let (corpus, community, mut memex) = world();
    let requests = requests(&corpus, &community, &memex);
    assert!(requests.len() >= 8 * 8, "list covers every user");
    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    let mut non_empty = 0usize;
    for request in requests {
        let name = request.name();
        let response = dispatch(&mut memex, request);
        assert!(
            !matches!(response, Response::Error(_)),
            "{name}: {response:?}"
        );
        let encoded = encode_response(&response);
        non_empty += usize::from(encoded.len() > 8);
        fnv1a(&mut digest, &(encoded.len() as u64).to_le_bytes());
        fnv1a(&mut digest, &encoded);
    }
    assert!(non_empty >= 8 * 6, "answers carry content, not empty lists");
    assert_eq!(
        digest, GOLDEN,
        "answer digest moved: got {digest:#018x}, committed {GOLDEN:#018x}"
    );
}
