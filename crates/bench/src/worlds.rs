//! Shared world builders: the standard corpus/community/Memex stacks the
//! experiments run against.

use std::sync::Arc;

use memex_core::memex::{Memex, MemexOptions};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};

/// The standard evaluation corpus.
pub fn standard_corpus(quick: bool, seed: u64) -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: if quick { 4 } else { 8 },
        pages_per_topic: if quick { 40 } else { 80 },
        seed,
        ..CorpusConfig::default()
    }))
}

/// The standard simulated community over a corpus.
pub fn standard_community(corpus: &Corpus, quick: bool, seed: u64) -> Community {
    Community::simulate(
        corpus,
        &SurferConfig {
            num_users: if quick { 6 } else { 16 },
            sessions_per_user: if quick { 8 } else { 20 },
            seed,
            ..SurferConfig::default()
        },
    )
}

/// A fully populated Memex: all events ingested in time order (bookmarks
/// interleaved), demons drained.
pub fn populated_memex(corpus: Arc<Corpus>, community: &Community) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("in-memory memex");
    for truth in &community.users {
        memex
            .register_user(truth.user, &format!("user{}", truth.user))
            .expect("register");
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
    memex.run_demons().expect("demons");
    memex
}

/// Convenience: corpus + community + populated Memex in one call.
pub fn standard_world(quick: bool, seed: u64) -> (Arc<Corpus>, Community, Memex) {
    let corpus = standard_corpus(quick, seed);
    let community = standard_community(&corpus, quick, seed ^ 0x5157);
    let memex = populated_memex(corpus.clone(), &community);
    (corpus, community, memex)
}
