//! The benchmark world: one synthetic web, one simulated community and the
//! time-ordered event stream every workload draws from.

use std::sync::Arc;

use memex_core::memex::{Memex, MemexOptions};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};
use memex_web::surfer::{Community, SurferConfig};

/// The world is the same for every `--seed`; the seed draws the request
/// lists from it. Worlds differ in cost, not just in detail: over seeds
/// 1–10 a bookmark's theme rebuild takes 30–42 ms and `ingest` runs at
/// 612–862 rps, and a benchmark that is accepted only if ten seeds agree
/// within its bounds cannot count that as noise (README, "Noise").
const WORLD_SEED: u64 = 1;

/// Corpus + community + their merged event stream.
pub struct World {
    pub corpus: Arc<Corpus>,
    pub community: Community,
    /// Visits and bookmarks in time order; a bookmark stamped at or before
    /// a visit precedes it (the interleaving of
    /// `memex_bench::worlds::populated_memex_opts`).
    pub events: Vec<ClientEvent>,
}

impl World {
    /// The full-mode world of `crates/bench/src/worlds.rs`: 8 topics × 80
    /// pages surfed by 16 users × 20 sessions.
    pub fn generate() -> World {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 8,
            pages_per_topic: 80,
            seed: WORLD_SEED,
            ..CorpusConfig::default()
        }));
        let community = Community::simulate(
            &corpus,
            &SurferConfig {
                num_users: 16,
                sessions_per_user: 20,
                seed: WORLD_SEED ^ 0x5157,
                ..SurferConfig::default()
            },
        );
        let mut events = Vec::with_capacity(community.visits.len() + community.bookmarks.len());
        let mut bookmarks = community.bookmarks.iter().peekable();
        for v in &community.visits {
            while let Some(b) = bookmarks.next_if(|b| b.time <= v.time) {
                events.push(bookmark_event(&corpus, b.user, b.page, &b.folder, b.time));
            }
            events.push(ClientEvent::Visit(VisitEvent {
                user: v.user,
                session: v.session,
                page: v.page,
                url: corpus.pages[v.page as usize].url.clone(),
                time: v.time,
                referrer: v.referrer,
            }));
        }
        for b in bookmarks {
            events.push(bookmark_event(&corpus, b.user, b.page, &b.folder, b.time));
        }
        World {
            corpus,
            community,
            events,
        }
    }

    /// A Memex with every user registered and `events[..prefill]` archived
    /// in process (one demon sweep at the end, as the experiments do).
    pub fn memex(&self, prefill: usize) -> Memex {
        let mut memex =
            Memex::new(self.corpus.clone(), MemexOptions::default()).expect("in-memory memex");
        for truth in &self.community.users {
            memex
                .register_user(truth.user, &format!("user{}", truth.user))
                .expect("register user");
        }
        for e in &self.events[..prefill] {
            memex.submit(e.clone());
        }
        memex.run_demons().expect("demon sweep");
        memex
    }

    /// Timestamp of the last generated event.
    pub fn end_time(&self) -> u64 {
        self.events.last().map_or(0, ClientEvent::time)
    }
}

pub fn bookmark_event(
    corpus: &Corpus,
    user: u32,
    page: u32,
    folder: &str,
    time: u64,
) -> ClientEvent {
    ClientEvent::Bookmark {
        user,
        page,
        url: corpus.pages[page as usize].url.clone(),
        folder: format!("/{folder}"),
        time,
    }
}
