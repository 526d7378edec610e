//! The Memex server core: guaranteed-immediate event ingest onto the
//! event log of paper §3, plus the demons that consume it (Fig. 3).
//!
//! The flow mirrors the paper's block diagram:
//!
//! ```text
//! client events ──submit()──► EventLog  ──┬─► trail demon   (TrailGraph)
//!        (privacy filter)   (2 cursors)   └─► index demon   (fetch page,
//!                                              analyze, invert, RDBMS rows,
//!                                              web-graph edges)
//! ```
//!
//! A first-visited page is analysed once: the one term vector goes to the
//! index (`P` postings, `L` length, the `Mseg` counter — nothing a query
//! cannot read) and into the page's one record of what the fetch demon
//! concluded (`FetchOutcome`: archived — vector and transfer size — or
//! abandoned), which is also what stops a second fetch. An archived page
//! gains one more fact later, on a read: the word memo its snippets are
//! read from ([`MemexServer::page_words`]).
//!
//! The demons are synchronous: every write ack runs [`MemexServer::drain_demons`]
//! before it returns, so the log is empty between acks. Admission control
//! is the serving layer's (`memex-net`'s in-flight limit), not the log's.

use std::collections::HashMap;
use std::sync::OnceLock;

use memex_graph::graph::WebGraph;
use memex_graph::trail::{TrailGraph, Visit};
use memex_index::index::InvertedIndex;
use memex_obs::{Counter, Gauge, Histogram, MetricsRegistry, Snapshot};
use memex_store::error::StoreResult;
use memex_store::rel::{ColType, Column, Database, Schema, TableHandle, Value};
use memex_store::version::EventLog;
use memex_text::analyze::Analyzer;
use memex_text::snippet::{self, OUTSIDE};
use memex_text::vocab::{TermId, Vocabulary};

use crate::events::{ArchiveMode, ClientEvent};
use crate::fetcher::{FetchError, PageFetcher, RetryPolicy};

/// Server tuning.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServerOptions {
    /// How hard the index demon tries before abandoning a page.
    pub retry: RetryPolicy,
}

/// The log's cursors, by id: one per demon.
const CURSORS: [&str; 2] = ["trail-demon", "index-demon"];
const TRAIL_DEMON: usize = 0;
const INDEX_DEMON: usize = 1;

/// Operational counters (F3 reports these). Since the observability
/// refactor this is a point-in-time *view* assembled from the server's
/// [`MetricsRegistry`]; the API is unchanged.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    pub events_submitted: u64,
    /// Dropped because the user's mode was `Off`.
    pub events_mode_filtered: u64,
    pub visits_trailed: u64,
    pub pages_fetched: u64,
    pub docs_indexed: u64,
    pub bookmarks_recorded: u64,
    /// Retries the index demon spent on transient fetch failures.
    pub fetch_retries: u64,
    /// Pages given up on after the retry policy was exhausted.
    pub pages_abandoned: u64,
}

/// Registry handles behind [`ServerStats`] plus span/gauge instruments.
struct ServerMetrics {
    events_submitted: Counter,
    events_mode_filtered: Counter,
    visits_trailed: Counter,
    pages_fetched: Counter,
    docs_indexed: Counter,
    bookmarks_recorded: Counter,
    fetch_retries: Counter,
    pages_abandoned: Counter,
    /// Events the log retains.
    bus_depth: Gauge,
    fetch_latency: Histogram,
    page_words_builds: Counter,
}

impl ServerMetrics {
    fn new(registry: &MetricsRegistry) -> ServerMetrics {
        ServerMetrics {
            events_submitted: registry.counter("server.events.submitted"),
            events_mode_filtered: registry.counter("server.events.mode_filtered"),
            visits_trailed: registry.counter("server.trail.visits"),
            pages_fetched: registry.counter("server.fetch.pages"),
            docs_indexed: registry.counter("server.index.docs"),
            bookmarks_recorded: registry.counter("server.bookmarks.recorded"),
            fetch_retries: registry.counter("server.fetch.retries"),
            pages_abandoned: registry.counter("server.fetch.abandoned"),
            bus_depth: registry.gauge("server.bus.depth"),
            fetch_latency: registry.histogram("server.fetch.latency"),
            page_words_builds: registry.counter("demon.page_words.builds"),
        }
    }
}

/// An event as archived: the privacy decision is resolved at ingest time.
#[derive(Debug, Clone)]
pub struct ArchivedEvent {
    pub event: ClientEvent,
    /// Visible to the community (false = private archive).
    pub public: bool,
}

/// A recorded bookmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BookmarkRecord {
    pub user: u32,
    pub page: u32,
    pub folder: String,
    pub time: u64,
}

/// What the fetch demon concluded for a page it tried.
enum FetchOutcome {
    /// Fetched and analysed: its term vector and transfer size, and the
    /// word memo of its text, built by the first recall that hits it
    /// ([`MemexServer::page_words`]).
    Archived {
        tf: Vec<(TermId, u32)>,
        bytes: u32,
        words: OnceLock<Box<[u16]>>,
    },
    /// The retry policy gave up on it, or its index write failed —
    /// remembered so a hot page that keeps reappearing in events cannot
    /// stall the demon over and over.
    Abandoned,
}

impl FetchOutcome {
    fn archived(&self) -> Option<(&[(TermId, u32)], u32)> {
        match self {
            FetchOutcome::Archived { tf, bytes, .. } => Some((tf, *bytes)),
            FetchOutcome::Abandoned => None,
        }
    }
}

/// The server.
pub struct MemexServer<F: PageFetcher> {
    fetcher: F,
    opts: ServerOptions,
    /// RDBMS metadata (paper: "pages, links, users, and topics").
    db: Database,
    users_t: TableHandle,
    pages_t: TableHandle,
    log: EventLog<ArchivedEvent>,
    /// Term store + postings (the Berkeley-DB side).
    pub index: InvertedIndex,
    pub vocab: Vocabulary,
    analyzer: Analyzer,
    /// The community trail graph.
    pub trails: TrailGraph,
    /// Hyperlink graph discovered by the fetch demon.
    pub web: WebGraph,
    /// Modes users chose with `SetMode`; everybody else is in the default.
    modes: HashMap<u32, ArchiveMode>,
    /// Every page the fetch demon settled. A dead link settles nothing: the
    /// next event naming it tries again.
    pages: HashMap<u32, FetchOutcome>,
    pub bookmarks: Vec<BookmarkRecord>,
    registry: MetricsRegistry,
    metrics: ServerMetrics,
}

impl<F: PageFetcher> MemexServer<F> {
    /// Stand up a server over `fetcher` with in-memory storage and its own
    /// (enabled) metrics registry.
    pub fn new(fetcher: F, opts: ServerOptions) -> StoreResult<MemexServer<F>> {
        Self::with_registry(fetcher, opts, MetricsRegistry::new())
    }

    /// Stand up a server that reports into `registry` — pass
    /// [`MetricsRegistry::disabled`] to turn the observability layer off,
    /// or a shared registry to aggregate several servers. Every subsystem
    /// the server owns (event log, RDBMS, inverted index) registers here too.
    pub fn with_registry(
        fetcher: F,
        opts: ServerOptions,
        registry: MetricsRegistry,
    ) -> StoreResult<MemexServer<F>> {
        let mut db = Database::open_memory()?;
        db.attach_registry(&registry);
        let users_t = db.create_table(Schema::new(
            "users",
            vec![
                Column::unique("client_id", ColType::Int),
                Column::unique("name", ColType::Text),
            ],
        )?)?;
        let pages_t = db.create_table(Schema::new(
            "pages",
            vec![
                Column::unique("page_id", ColType::Int),
                Column::unique("url", ColType::Text),
                Column::new("bytes", ColType::Int),
            ],
        )?)?;
        let log = EventLog::new(&CURSORS, &registry);
        let mut index = InvertedIndex::open_memory()?;
        index.attach_registry(&registry);
        let metrics = ServerMetrics::new(&registry);
        Ok(MemexServer {
            fetcher,
            opts,
            db,
            users_t,
            pages_t,
            log,
            index,
            vocab: Vocabulary::new(),
            analyzer: Analyzer,
            trails: TrailGraph::new(),
            web: WebGraph::new(),
            modes: HashMap::new(),
            pages: HashMap::new(),
            bookmarks: Vec::new(),
            registry,
            metrics,
        })
    }

    /// The server's metrics registry (counters, gauges, histograms and
    /// event rings for every subsystem this server owns).
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Point-in-time snapshot of every metric (see [`Snapshot`] exporters).
    pub fn metrics_snapshot(&self) -> Snapshot {
        self.registry.snapshot()
    }

    /// Register a user (RDBMS row); idempotent per client id.
    pub fn register_user(&mut self, client_id: u32, name: &str) -> StoreResult<()> {
        if self
            .db
            .lookup_unique(
                &self.users_t,
                "client_id",
                &Value::Int(i64::from(client_id)),
            )?
            .is_some()
        {
            return Ok(());
        }
        self.db.insert(
            &self.users_t,
            vec![
                Value::Int(i64::from(client_id)),
                Value::Text(name.to_string()),
            ],
        )?;
        Ok(())
    }

    /// The user's current archive mode.
    pub fn mode(&self, user: u32) -> ArchiveMode {
        self.modes.get(&user).copied().unwrap_or_default()
    }

    /// Guaranteed-immediate ingest: appends the event to the log. Returns
    /// true if archived, false if the user's mode filtered it out.
    pub fn submit(&mut self, event: ClientEvent) -> bool {
        self.metrics.events_submitted.inc();
        if let ClientEvent::SetMode { user, mode, .. } = &event {
            self.modes.insert(*user, *mode);
            return true;
        }
        let mode = self.mode(event.user());
        if mode == ArchiveMode::Off {
            self.metrics.events_mode_filtered.inc();
            return false;
        }
        let public = mode == ArchiveMode::Community;
        self.log.append(ArchivedEvent { event, public });
        self.metrics.bus_depth.set(self.log.retained() as i64);
        true
    }

    /// Run the trail demon over at most `max` pending events: visits go
    /// into the trail graph. Returns events processed.
    pub fn run_trail_demon(&mut self, max: usize) -> usize {
        let pending = self.log.pending(TRAIL_DEMON, max);
        for ae in pending {
            if let ClientEvent::Visit(v) = &ae.event {
                self.trails.record(Visit {
                    user: v.user,
                    session: v.session,
                    page: v.page,
                    time: v.time,
                    referrer: v.referrer,
                    public: ae.public,
                });
                self.metrics.visits_trailed.inc();
            }
        }
        let processed = pending.len();
        self.log.advance(TRAIL_DEMON, processed);
        processed
    }

    /// Run the fetch+index demon over at most `max` pending events: fetches
    /// unseen pages, analyzes them, feeds the inverted index, the RDBMS page
    /// table, the web graph and the bookmark list. Returns events
    /// processed. An event whose store write fails stays pending, and the
    /// next pass starts from it.
    pub fn run_index_demon(&mut self, max: usize) -> StoreResult<usize> {
        // Applying an event needs `&mut self`, so the log steps out for the
        // pass: a move of its handle, not of the events.
        let log = std::mem::take(&mut self.log);
        let mut processed = 0usize;
        let outcome = log.pending(INDEX_DEMON, max).iter().try_for_each(|ae| {
            self.index_event(&ae.event)?;
            processed += 1;
            Ok(())
        });
        self.log = log;
        self.log.advance(INDEX_DEMON, processed);
        outcome.map(|()| processed)
    }

    fn index_event(&mut self, event: &ClientEvent) -> StoreResult<()> {
        match event {
            ClientEvent::Visit(v) => self.ensure_fetched(v.page),
            ClientEvent::Bookmark {
                user,
                page,
                url: _,
                folder,
                time,
            } => {
                self.ensure_fetched(*page)?;
                self.bookmarks.push(BookmarkRecord {
                    user: *user,
                    page: *page,
                    folder: folder.clone(),
                    time: *time,
                });
                self.metrics.bookmarks_recorded.inc();
                Ok(())
            }
            ClientEvent::SetMode { .. } => Ok(()),
        }
    }

    /// One pass of each demon over everything pending, then trim the log to
    /// what neither has applied — empty, unless the index demon failed.
    /// Every write ack runs it (through `Memex::run_demons`).
    pub fn drain_demons(&mut self) -> StoreResult<()> {
        self.run_trail_demon(usize::MAX);
        let indexed = self.run_index_demon(usize::MAX);
        self.log.trim();
        self.metrics.bus_depth.set(self.log.retained() as i64);
        indexed.map(drop)
    }

    /// Fetch-with-retry: transient failures back off (virtual time — the
    /// demon never sleeps) and retry up to the policy's attempt and
    /// deadline budgets; once exhausted the page is counted abandoned and
    /// the demon moves on. The demon therefore *never stalls* on a flaky
    /// page — the fetch loop is bounded no matter what the fetcher does.
    fn ensure_fetched(&mut self, page: u32) -> StoreResult<()> {
        if self.pages.contains_key(&page) {
            return Ok(());
        }
        let policy = self.opts.retry;
        let mut attempt = 0u32;
        let mut waited_ms = 0u64;
        let content = loop {
            attempt += 1;
            let outcome = {
                let _span = self.metrics.fetch_latency.start_span();
                self.fetcher.try_fetch(page)
            };
            match outcome {
                Ok(content) => break content,
                Err(FetchError::NotFound) => return Ok(()), // dead link; the demon shrugs
                Err(FetchError::Transient { reason }) => {
                    if attempt >= policy.max_attempts.max(1) || waited_ms >= policy.deadline_ms {
                        self.pages.insert(page, FetchOutcome::Abandoned);
                        self.metrics.pages_abandoned.inc();
                        self.registry.event(
                            "server",
                            format!(
                                "abandoning page {page} after {attempt} attempts \
                                 ({waited_ms}ms backoff): {reason}"
                            ),
                        );
                        return Ok(());
                    }
                    waited_ms += policy.backoff_ms(page, attempt);
                    self.metrics.fetch_retries.inc();
                }
            }
        };
        self.metrics.pages_fetched.inc();
        // Analyze once with the shared vocabulary. The page is settled before
        // a failed index write returns, so it is never fetched again; without
        // postings it serves no vector either.
        let tf = {
            let _trace = memex_obs::trace::span("text.analyze");
            let full = format!("{} {}", content.title, content.text);
            self.analyzer.index_document(&mut self.vocab, &full)
        };
        let indexed = self.index.add_document(page, &tf);
        let outcome = if indexed.is_ok() {
            FetchOutcome::Archived {
                tf,
                bytes: content.bytes,
                words: OnceLock::new(),
            }
        } else {
            FetchOutcome::Abandoned
        };
        self.pages.insert(page, outcome);
        indexed?;
        self.metrics.docs_indexed.inc();
        // Web graph edges.
        self.web.ensure_node(page);
        for &l in &content.links {
            self.web.add_edge(page, l);
        }
        // RDBMS page row.
        self.db.insert(
            &self.pages_t,
            vec![
                Value::Int(i64::from(page)),
                Value::Text(content.url),
                Value::Int(i64::from(content.bytes)),
            ],
        )?;
        Ok(())
    }

    /// Each demon's name and staleness (events appended that it has not
    /// applied) — the coherence lag of Fig. 3's "loosely synchronized data
    /// repositories".
    pub fn staleness(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.log.staleness()
    }

    /// The one analyzer: pages were indexed through it, so queries must be
    /// tokenised, stopped and stemmed through it too.
    pub fn analyzer(&self) -> &Analyzer {
        &self.analyzer
    }

    /// Analyzed term vector of a fetched page.
    pub fn tf(&self, page: u32) -> Option<&[(TermId, u32)]> {
        Some(self.pages.get(&page)?.archived()?.0)
    }

    /// Transfer size of a fetched page.
    pub fn page_bytes(&self, page: u32) -> Option<u32> {
        Some(self.pages.get(&page)?.archived()?.1)
    }

    /// The word memo of a fetched page's `text` — the text its snippet
    /// renders, the same on every call: for each display word, the position
    /// of its first token's stem in [`MemexServer::tf`]
    /// ([`snippet::page_words`]). The first caller builds it, under the
    /// shared guard; the page record never changes, so nothing takes it
    /// back, and no write builds one. `None` for a page not archived, or
    /// with more distinct terms than a `u16` position below
    /// [`OUTSIDE`] can name.
    pub fn page_words(&self, page: u32, text: &str) -> Option<&[u16]> {
        let Some(FetchOutcome::Archived { tf, words, .. }) = self.pages.get(&page) else {
            return None;
        };
        if tf.len() >= usize::from(OUTSIDE) {
            return None;
        }
        Some(words.get_or_init(|| {
            self.metrics.page_words_builds.inc();
            snippet::page_words(text, |stem| {
                let id = self.vocab.id(stem)?;
                tf.binary_search_by_key(&id, |&(t, _)| t).ok()
            })
        }))
    }

    pub fn stats(&self) -> ServerStats {
        ServerStats {
            events_submitted: self.metrics.events_submitted.get(),
            events_mode_filtered: self.metrics.events_mode_filtered.get(),
            visits_trailed: self.metrics.visits_trailed.get(),
            pages_fetched: self.metrics.pages_fetched.get(),
            docs_indexed: self.metrics.docs_indexed.get(),
            bookmarks_recorded: self.metrics.bookmarks_recorded.get(),
            fetch_retries: self.metrics.fetch_retries.get(),
            pages_abandoned: self.metrics.pages_abandoned.get(),
        }
    }

    /// The underlying fetcher — harnesses use this to read decorator
    /// state (e.g. [`crate::fetcher::FlakyFetcher::transient_failures`]).
    pub fn fetcher(&self) -> &F {
        &self.fetcher
    }

    /// Flush durable state.
    pub fn checkpoint(&mut self) -> StoreResult<()> {
        self.index.checkpoint()?;
        self.db.checkpoint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::VisitEvent;
    use crate::fetcher::{CorpusFetcher, FlakyConfig, FlakyFetcher};
    use memex_web::corpus::{Corpus, CorpusConfig};
    use std::sync::Arc;

    fn server() -> (Arc<Corpus>, MemexServer<CorpusFetcher>) {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 3,
            pages_per_topic: 20,
            ..CorpusConfig::default()
        }));
        let s =
            MemexServer::new(CorpusFetcher::new(corpus.clone()), ServerOptions::default()).unwrap();
        (corpus, s)
    }

    fn visit(user: u32, page: u32, time: u64) -> ClientEvent {
        ClientEvent::Visit(VisitEvent {
            user,
            session: 0,
            page,
            url: format!("http://p{page}"),
            time,
            referrer: None,
        })
    }

    #[test]
    fn ingest_then_demons_index_and_trail() {
        let (corpus, mut s) = server();
        s.register_user(1, "soumen").unwrap();
        assert!(s.submit(visit(1, 0, 10)));
        assert!(s.submit(visit(1, 1, 20)));
        // Demons have not run: trail empty, staleness visible.
        assert!(s.trails.is_empty());
        assert!(s.staleness().all(|(_, n)| n == 2));
        s.drain_demons().unwrap();
        assert_eq!(s.trails.len(), 2);
        assert_eq!(s.stats().pages_fetched, 2);
        assert_eq!(s.index.num_docs(), 2);
        assert!(s.staleness().all(|(_, n)| n == 0));
        // The page made it into the RDBMS.
        let pages_t = s.db.table("pages").unwrap();
        let hit =
            s.db.lookup_unique(&pages_t, "url", &Value::Text(corpus.pages[0].url.clone()))
                .unwrap();
        assert!(hit.is_some());
    }

    #[test]
    fn privacy_modes_filter_and_mark() {
        let (_, mut s) = server();
        s.register_user(1, "u1").unwrap();
        s.submit(ClientEvent::SetMode {
            user: 1,
            mode: ArchiveMode::Off,
            time: 1,
        });
        assert!(!s.submit(visit(1, 0, 2)), "Off drops events");
        s.submit(ClientEvent::SetMode {
            user: 1,
            mode: ArchiveMode::Private,
            time: 3,
        });
        assert!(s.submit(visit(1, 1, 4)));
        s.submit(ClientEvent::SetMode {
            user: 1,
            mode: ArchiveMode::Community,
            time: 5,
        });
        assert!(s.submit(visit(1, 2, 6)));
        s.drain_demons().unwrap();
        assert_eq!(s.stats().events_mode_filtered, 1);
        assert_eq!(s.trails.len(), 2);
        let private = s.trails.visits().iter().find(|v| v.page == 1).unwrap();
        assert!(!private.public);
        let public = s.trails.visits().iter().find(|v| v.page == 2).unwrap();
        assert!(public.public);
    }

    #[test]
    fn the_bus_forgets_what_both_demons_applied() {
        let (_, mut s) = server();
        s.register_user(1, "u").unwrap();
        for i in 0..6u32 {
            s.submit(visit(1, i, u64::from(i)));
        }
        // One demon alone frees nothing: the other still needs the events.
        s.run_trail_demon(usize::MAX);
        s.log.trim();
        assert_eq!(s.log.retained(), 6);
        s.drain_demons().unwrap();
        assert_eq!(s.log.retained(), 0);
        assert_eq!(s.metrics_snapshot().gauge("server.bus.depth"), 0);
        assert_eq!(s.trails.len(), 6);
        assert_eq!(s.index.num_docs(), 6);
        // Still live afterwards.
        s.submit(visit(1, 7, 7));
        assert_eq!(s.metrics_snapshot().gauge("server.bus.depth"), 1);
        s.drain_demons().unwrap();
        assert_eq!(s.trails.len(), 7);
    }

    #[test]
    fn bookmarks_are_recorded_and_their_pages_fetched() {
        let (corpus, mut s) = server();
        s.register_user(2, "mits").unwrap();
        s.submit(ClientEvent::Bookmark {
            user: 2,
            page: 5,
            url: corpus.pages[5].url.clone(),
            folder: "/Music/Western Classical".into(),
            time: 42,
        });
        s.drain_demons().unwrap();
        assert_eq!(
            s.bookmarks,
            [BookmarkRecord {
                user: 2,
                page: 5,
                folder: "/Music/Western Classical".into(),
                time: 42,
            }]
        );
        // Bookmarking fetches the page too.
        assert!(s.tf(5).is_some());
        assert!(s.page_bytes(5).is_some());
    }

    #[test]
    fn demons_can_lag_independently() {
        let (_, mut s) = server();
        s.register_user(1, "u").unwrap();
        for i in 0..6u32 {
            s.submit(visit(1, i, u64::from(i)));
        }
        assert_eq!(s.run_trail_demon(3), 3);
        assert_eq!(
            s.staleness().collect::<Vec<_>>(),
            [("trail-demon", 3), ("index-demon", 6)]
        );
        s.drain_demons().unwrap();
        assert!(s.staleness().all(|(_, n)| n == 0));
    }

    /// Registering makes a user row, not a mode choice: a mode set first stays.
    #[test]
    fn registering_keeps_a_mode_set_before_it() {
        let (_, mut s) = server();
        s.submit(ClientEvent::SetMode {
            user: 1,
            mode: ArchiveMode::Off,
            time: 1,
        });
        s.register_user(1, "late").unwrap();
        assert!(!s.submit(visit(1, 0, 2)), "Off still drops events");
    }

    #[test]
    fn duplicate_user_registration_is_idempotent() {
        let (_, mut s) = server();
        s.register_user(1, "x").unwrap();
        s.register_user(1, "x").unwrap();
        let users_t = s.db.table("users").unwrap();
        assert_eq!(s.db.count(&users_t).unwrap(), 1);
    }

    #[test]
    fn web_graph_grows_from_fetches() {
        let (corpus, mut s) = server();
        s.register_user(1, "u").unwrap();
        s.submit(visit(1, 0, 1));
        s.drain_demons().unwrap();
        assert_eq!(s.web.out_links(0), corpus.graph.out_links(0));
    }

    fn flaky_server(
        transient_per_10k: u32,
        seed: u64,
    ) -> (Arc<Corpus>, MemexServer<FlakyFetcher<CorpusFetcher>>) {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 3,
            pages_per_topic: 20,
            ..CorpusConfig::default()
        }));
        let fetcher = FlakyFetcher::new(
            CorpusFetcher::new(corpus.clone()),
            FlakyConfig {
                seed,
                transient_per_10k,
                ..FlakyConfig::default()
            },
        );
        let s = MemexServer::new(fetcher, ServerOptions::default()).unwrap();
        (corpus, s)
    }

    /// The acceptance scenario: with a 20%-flaky fetcher the index demon
    /// must run to completion (retrying through transient failures), the
    /// retry count must surface in the metrics snapshot, and any abandoned
    /// pages in ServerStats.
    #[test]
    fn index_demon_completes_against_flaky_fetcher() {
        let (_, mut s) = flaky_server(2_000, 42);
        s.register_user(1, "u").unwrap();
        for i in 0..60u32 {
            s.submit(visit(1, i, u64::from(i)));
        }
        s.drain_demons().unwrap();
        assert!(s.staleness().all(|(_, n)| n == 0), "no stall");
        let stats = s.stats();
        assert_eq!(
            stats.pages_fetched + stats.pages_abandoned,
            60,
            "every page either fetched or explicitly abandoned"
        );
        assert!(stats.fetch_retries > 0, "20% flakiness must force retries");
        let snap = s.metrics_snapshot();
        assert_eq!(snap.counter("server.fetch.retries"), stats.fetch_retries);
        assert_eq!(
            snap.counter("server.fetch.abandoned"),
            stats.pages_abandoned
        );
        // The abandoned counter counts exactly the pages settled as abandoned.
        assert_eq!(
            s.pages.values().filter(|o| o.archived().is_none()).count() as u64,
            stats.pages_abandoned
        );
        // Fetched pages were fully indexed despite the noise.
        assert_eq!(stats.docs_indexed, stats.pages_fetched);
    }

    /// A fetcher that *always* fails transiently: the demon must abandon
    /// every page after the bounded retry budget and still drain the log.
    #[test]
    fn total_fetch_outage_abandons_but_never_stalls() {
        let (_, mut s) = flaky_server(10_000, 7);
        s.register_user(1, "u").unwrap();
        for i in 0..10u32 {
            s.submit(visit(1, i, u64::from(i)));
        }
        s.drain_demons().unwrap();
        let stats = s.stats();
        assert_eq!(stats.pages_fetched, 0);
        assert_eq!(stats.pages_abandoned, 10);
        assert!((0..10u32).all(|page| s.pages.contains_key(&page) && s.tf(page).is_none()));
        // Budget: max_attempts per page, retries = attempts - 1.
        let per_page = u64::from(ServerOptions::default().retry.max_attempts) - 1;
        assert_eq!(stats.fetch_retries, 10 * per_page);
        assert!(s.staleness().all(|(_, n)| n == 0));
        // Abandoned pages are remembered: replaying the same page does not
        // re-burn the retry budget.
        s.submit(visit(1, 3, 99));
        s.drain_demons().unwrap();
        assert_eq!(s.stats().fetch_retries, 10 * per_page);
        assert_eq!(s.stats().pages_abandoned, 10);
    }

    /// Same seed, same flakiness → byte-identical retry/abandon outcome.
    #[test]
    fn flaky_runs_reproduce_from_seed() {
        let run = |seed: u64| {
            let (_, mut s) = flaky_server(5_000, seed);
            s.register_user(1, "u").unwrap();
            for i in 0..30u32 {
                s.submit(visit(1, i, u64::from(i)));
            }
            s.drain_demons().unwrap();
            let st = s.stats();
            (st.pages_fetched, st.fetch_retries, st.pages_abandoned)
        };
        assert_eq!(run(1234), run(1234));
        assert_ne!(run(1234), run(4321), "schedules differ across seeds");
    }
}
