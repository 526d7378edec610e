//! **F3 — Figure 3, the server block diagram:** UI events get "guaranteed
//! immediate processing"; the demons behind the loosely-consistent log do
//! the analysis; a flaky Web does not stall them.
//!
//! The served demons are synchronous (DESIGN §11): every write ack runs both
//! demons and the mining refresh before it returns, and leaves the event log
//! empty. So "immediate" is what an ack costs, measured here on the served
//! `Memex`:
//! 1. the ack-latency distribution of `dispatch_write` per write kind
//!    (repeat visit, first visit, bookmark) on the standard world, with
//!    every demon's staleness read after each ack;
//! 2. flaky fetches: a 20%-transient fetcher behind the bounded retry
//!    policy — the demon retries, abandons the hopeless, never stalls.

use std::time::{Duration, Instant};

use memex_core::memex::Memex;
use memex_core::servlet::{dispatch_write, Classified, Request, Response};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_server::fetcher::{CorpusFetcher, FlakyConfig, FlakyFetcher, PageFetcher};
use memex_server::pipeline::{MemexServer, ServerOptions};

use crate::table::Table;
use crate::worlds::{standard_corpus, standard_world};

/// Ack latencies of one write kind, and the highest demon staleness any ack
/// left behind.
#[derive(Default)]
struct Acks {
    latencies: Vec<Duration>,
    max_staleness: u64,
}

impl Acks {
    fn record<F: PageFetcher>(&mut self, took: Duration, server: &MemexServer<F>) {
        self.latencies.push(took);
        let staleness = server.staleness().map(|(_, n)| n).max().unwrap_or(0);
        self.max_staleness = self.max_staleness.max(staleness);
    }

    fn row(mut self, kind: String) -> Vec<String> {
        assert_eq!(self.max_staleness, 0, "{kind}: an ack left the log behind");
        self.latencies.sort_unstable();
        // Nearest-rank percentile, in µs.
        let percentile_us = |p: f64| {
            let rank = (p * self.latencies.len() as f64).ceil() as usize;
            match self.latencies.get(rank.max(1) - 1) {
                Some(at) => format!("{:.1}", at.as_secs_f64() * 1e6),
                None => "-".to_string(),
            }
        };
        vec![
            kind,
            self.latencies.len().to_string(),
            percentile_us(0.50),
            percentile_us(0.99),
            self.max_staleness.to_string(),
        ]
    }
}

/// Time one write through the served entry point.
fn ack(memex: &mut Memex, acks: &mut Acks, event: ClientEvent) {
    let Classified::Write(write) = Request::Event(event).classify() else {
        unreachable!("an event is a write");
    };
    let start = Instant::now();
    let response = dispatch_write(memex, write);
    let took = start.elapsed();
    assert_eq!(response, Response::Ack { archived: true });
    acks.record(took, &memex.server);
}

/// The F3 table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "F3: write-ack latency through the served demons",
        &[
            "write kind",
            "acks",
            "ack p50 (us)",
            "ack p99 (us)",
            "staleness after ack",
        ],
    );
    let (corpus, community, mut memex) = standard_world(quick, 33);
    let mut time = community.visits.iter().map(|v| v.time).max().unwrap_or(0);
    let visit = |user: u32, page: u32, time: u64| {
        ClientEvent::Visit(VisitEvent {
            user,
            session: 0,
            page,
            url: corpus.pages[page as usize].url.clone(),
            time,
            referrer: None,
        })
    };
    // 1a. Repeat visits: the community's own visits, again.
    let mut acks = Acks::default();
    let n = if quick { 300 } else { 2_000 };
    for v in community.visits.iter().cycle().take(n) {
        time += 1;
        ack(&mut memex, &mut acks, visit(v.user, v.page, time));
    }
    table.row(acks.row("repeat visit".to_string()));
    // 1b. First visits: every page nobody has surfed yet, users in turn.
    let mut acks = Acks::default();
    let unseen: Vec<u32> = (0..corpus.num_pages() as u32)
        .filter(|&p| memex.server.tf(p).is_none())
        .collect();
    for (page, truth) in unseen.into_iter().zip(community.users.iter().cycle()) {
        time += 1;
        ack(&mut memex, &mut acks, visit(truth.user, page, time));
    }
    table.row(acks.row("first visit".to_string()));
    // 1c. Bookmarks: the community's own bookmarks, filed again.
    let mut acks = Acks::default();
    let n = if quick { 100 } else { 400 };
    for b in community.bookmarks.iter().cycle().take(n) {
        time += 1;
        let bookmark = ClientEvent::Bookmark {
            user: b.user,
            page: b.page,
            url: corpus.pages[b.page as usize].url.clone(),
            folder: format!("/{}", b.folder),
            time,
        };
        ack(&mut memex, &mut acks, bookmark);
    }
    table.row(acks.row("bookmark".to_string()));
    // 2. Fetch-failure injection: every fetch attempt fails transiently
    // 20% of the time (seeded, reproducible). The index demon retries with
    // bounded exponential backoff and abandons pages whose budget runs
    // out; each ack still drains the log.
    let corpus = standard_corpus(true, 33);
    let mut server = MemexServer::new(
        FlakyFetcher::new(
            CorpusFetcher::new(corpus.clone()),
            FlakyConfig {
                seed: 33,
                transient_per_10k: 2_000,
                ..FlakyConfig::default()
            },
        ),
        ServerOptions::default(),
    )
    .expect("server");
    let visits = if quick { 500 } else { 2_000 };
    let mut acks = Acks::default();
    for i in 0..visits {
        let start = Instant::now();
        server.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 0,
            page: (i % corpus.num_pages()) as u32,
            url: String::new(),
            time: i as u64,
            referrer: None,
        }));
        server.drain_demons().expect("drain");
        acks.record(start.elapsed(), &server);
    }
    let stats = server.stats();
    assert_eq!(
        stats.pages_fetched + stats.pages_abandoned,
        corpus.num_pages().min(visits) as u64,
        "every page fetched or explicitly abandoned — the demon never stalls"
    );
    table.row(acks.row(format!(
        "20% flaky fetcher: {} retries, {} abandoned",
        stats.fetch_retries, stats.pages_abandoned
    )));
    table.note("paper (§3): UI events get guaranteed immediate processing; demons do the analysis");
    table.note("departure: the served demons are synchronous (DESIGN §11), so every ack pays them and leaves staleness 0; nothing is discarded");
    table.note("first visit = fetch + analyse + index one page; bookmark = file it and re-walk that user's history");
    table.note("flaky row: MemexServer submit + drain_demons (no mining refresh); seeded transient failures, bounded retry, abandoned pages counted");
    table
}
