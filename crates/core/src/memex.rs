//! The [`Memex`] facade: everything the demo's client tabs call.
//!
//! Wires the server substrate (ingest, demons, storage) to the mining
//! layers (folders + classifier, themes, trails, search, recommendation)
//! and exposes the six §1 questions as methods:
//!
//! | §1 question | method |
//! |---|---|
//! | "URL I visited about six months back regarding X?" | [`Memex::recall`] |
//! | "Web neighborhood I was surfing last time on topic T?" | [`Memex::topic_context`] |
//! | "popular sites related to my experience, appeared recently?" | [`Memex::whats_new`] |
//! | "How is my ISP bill divided by topic?" | [`Memex::bill`] |
//! | "major topics of my workplace, where do I fit?" | [`Memex::community_themes`], [`Memex::my_place`] |
//! | "who shares my interest most closely?" | [`Memex::similar_surfers`] |

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::{Arc, OnceLock};

use memex_cluster::themes::{ThemeDiscovery, ThemeOptions, Themes, UserFolder};
use memex_graph::hits::top_authorities;
use memex_graph::neighborhood::{expand, Direction};
use memex_graph::trail::TrailContext;
use memex_index::search::{bm25_search_among, Bm25Params};
use memex_learn::nb::{ClassCounts, NbOptions, NbScorer};
use memex_learn::taxonomy::TopicId;
use memex_server::events::ClientEvent;
use memex_server::fetcher::CorpusFetcher;
use memex_server::pipeline::{MemexServer, ServerOptions};
use memex_store::error::StoreResult;
use memex_text::snippet::SnippetQuery;
use memex_text::vector::SparseVec;
use memex_text::vocab::{IdfTable, TermId};
use memex_web::corpus::Corpus;

use crate::folders::FolderSpace;
use crate::servlet::ServletLatency;

/// Facade configuration.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemexOptions {
    pub server: ServerOptions,
    pub themes: ThemeOptions,
}

/// Words in a recall hit's snippet.
const SNIPPET_WORDS: usize = 12;

/// A ranked recall result (Q1).
#[derive(Debug, Clone, PartialEq)]
pub struct RecallHit {
    pub page: u32,
    pub url: String,
    pub score: f32,
    pub last_visit: u64,
    /// Query-biased excerpt of the page text.
    pub snippet: String,
}

/// One line of the ISP bill breakdown (Q4).
#[derive(Debug, Clone, PartialEq)]
pub struct BillLine {
    pub folder: String,
    pub bytes: u64,
    pub visits: u32,
    pub fraction: f64,
}

/// A rejection-capable per-user topic classifier: the user's leaf folders
/// plus a background class ("none of my folders").
pub struct TopicFilter {
    /// The model, frozen; `None` when it would have no document of the
    /// user's or no background to score against.
    scorer: Option<NbScorer>,
    leaves: Vec<TopicId>,
}

impl TopicFilter {
    /// The folder this page belongs to, or `None` for "no folder"
    /// (background wins or the filter has no training data).
    pub fn classify(&self, tf: &[(memex_text::vocab::TermId, u32)]) -> Option<TopicId> {
        let class = self.scorer.as_ref()?.predict(tf);
        self.leaves.get(class).copied()
    }
}

/// What [`Memex::community_themes`] answers from, built once per cell.
pub(crate) struct CommunityThemes {
    /// The themes and the page id behind each theme document index.
    pub(crate) view: (Themes, Vec<u32>),
    /// Inverse of `view.1`: theme document index of a bookmarked page.
    pub(crate) doc_of_page: HashMap<u32, usize>,
}

/// One surfer's row of the profile table (see [`Memex::profiles`]).
pub(crate) struct Profile {
    /// The distinct pages they visited, sorted.
    pub(crate) pages: Vec<u32>,
    /// Their weight on each theme node, ordered by node for
    /// [`memex_cluster::themes::profile_similarity`]'s fixed summation order.
    pub(crate) weights: BTreeMap<TopicId, f64>,
}

/// What somebody with no visit reads: no pages, no weight anywhere.
static NO_PROFILE: Profile = Profile {
    pages: Vec::new(),
    weights: BTreeMap::new(),
};

/// Every surfer's profile, one row per user the trail has a visit of.
pub(crate) struct ProfileTable(HashMap<u32, Profile>);

impl ProfileTable {
    pub(crate) fn of(&self, user: u32) -> &Profile {
        self.0.get(&user).unwrap_or(&NO_PROFILE)
    }
}

/// Community themes as a memoised pure function of the acknowledged
/// writes. A bookmark only *captures* what pins the answer; the first
/// theme read after it runs theme discovery (see [`Memex::refresh`]).
/// The default cell pins the empty archive.
#[derive(Default)]
struct ThemesCell {
    /// The themes are over `server.bookmarks[..bookmarks]`.
    bookmarks: usize,
    /// The vocabulary's idf weighting as it stood when bookmark number
    /// `bookmarks` was recorded; the theme documents are weighted with it.
    idf: IdfTable,
    built: OnceLock<CommunityThemes>,
}

/// One user's folder space and, beside it, what it implies for every page
/// the community surfed.
#[derive(Default)]
struct UserSpace {
    folders: FolderSpace,
    /// page -> the folder it belongs to: the user's own confirmed filing
    /// where there is one, else the leaf their topic filter routes it to;
    /// pages the background class wins are absent. Memoised by the first
    /// reader that needs it (see [`Memex::routing`]) and taken back whenever
    /// an input moved.
    routing: OnceLock<HashMap<u32, TopicId>>,
    /// `folders.heap_bytes()` as last added to `mem.folders.bytes`.
    published_bytes: usize,
}

impl UserSpace {
    /// The folder space, for editing: whatever the caller does to it, the
    /// routing derived from it is gone first.
    fn edit(&mut self, live: &memex_obs::Gauge) -> &mut FolderSpace {
        self.kill_routing(live);
        &mut self.folders
    }

    fn kill_routing(&mut self, live: &memex_obs::Gauge) {
        if self.routing.take().is_some() {
            live.add(-1);
        }
    }

    /// Move `bytes`, the sum over users, by what the folder space's heap
    /// bytes moved since it was last published.
    fn publish_bytes(&mut self, bytes: &memex_obs::Gauge) {
        let now = self.folders.heap_bytes();
        bytes.add(now as i64 - self.published_bytes as i64);
        self.published_bytes = now;
    }
}

/// Registry handles of the demons [`Memex`] itself runs, and of what its
/// servlets read.
struct DemonMetrics {
    themes_builds: memex_obs::Counter,
    themes_build_latency: memex_obs::Histogram,
    themes_behind: memex_obs::Gauge,
    page_themes_builds: memex_obs::Counter,
    page_themes_build_latency: memex_obs::Histogram,
    profiles_builds: memex_obs::Counter,
    profiles_build_latency: memex_obs::Histogram,
    background_builds: memex_obs::Counter,
    routing_builds: memex_obs::Counter,
    routing_build_latency: memex_obs::Histogram,
    /// Users whose routing is built.
    routing_live: memex_obs::Gauge,
    classify_visits: memex_obs::Counter,
    classify_rewalks: memex_obs::Counter,
    /// Folder classifiers retrained from scratch.
    folder_rebuilds: memex_obs::Counter,
    /// Heap bytes of every user's folder space.
    folders_bytes: memex_obs::Gauge,
    /// Recall hits whose snippet read the page's text, not its word memo.
    page_words_fallbacks: memex_obs::Counter,
    /// Visit-list entries recall's time filter read.
    recall_visits: memex_obs::Counter,
}

impl DemonMetrics {
    fn new(registry: &memex_obs::MetricsRegistry) -> DemonMetrics {
        DemonMetrics {
            themes_builds: registry.counter("demon.themes.builds"),
            themes_build_latency: registry.histogram("demon.themes.build.latency"),
            themes_behind: registry.gauge("demon.themes.behind"),
            page_themes_builds: registry.counter("demon.page_themes.builds"),
            page_themes_build_latency: registry.histogram("demon.page_themes.build.latency"),
            profiles_builds: registry.counter("demon.profiles.builds"),
            profiles_build_latency: registry.histogram("demon.profiles.build.latency"),
            background_builds: registry.counter("demon.background.builds"),
            routing_builds: registry.counter("demon.routing.builds"),
            routing_build_latency: registry.histogram("demon.routing.build.latency"),
            routing_live: registry.gauge("demon.routing.live"),
            classify_visits: registry.counter("demon.classify.visits"),
            classify_rewalks: registry.counter("demon.classify.rewalks"),
            folder_rebuilds: registry.counter("demon.folders.rebuilds"),
            folders_bytes: registry.gauge("mem.folders.bytes"),
            page_words_fallbacks: registry.counter("demon.page_words.fallbacks"),
            recall_visits: registry.counter("servlet.recall.visits"),
        }
    }
}

/// The assembled Memex system over a (simulated) web.
///
/// Every query method takes `&self` so the serving layer can answer many
/// queries in parallel behind an `RwLock`; all state maintenance
/// (indexing, bookmark filing, classification) happens in
/// [`Memex::run_demons`] / [`Memex::refresh`], which mutation paths run
/// under the write lock. What a query may compute and keep are the memos
/// behind a [`OnceLock`] each — the community themes, the page -> theme
/// map, every surfer's theme profile, each user's page -> folder routing
/// and the background class the routings are trained against: values every
/// reader
/// would compute identically, so no reader can observe the write. The
/// write path only ever takes them back, when one of their inputs moved.
pub struct Memex {
    pub corpus: Arc<Corpus>,
    pub server: MemexServer<CorpusFetcher>,
    folder_spaces: HashMap<u32, UserSpace>,
    /// Shared read-only stand-in for users without a folder space yet, so
    /// `&self` queries never need `entry(..).or_default()`. Its routing is
    /// born built: no folders, so no page is routed anywhere.
    empty_space: UserSpace,
    url_to_page: HashMap<String, u32>,
    theme_opts: ThemeOptions,
    /// Replaced by [`Memex::refresh`] whenever bookmarks were recorded.
    themes: ThemesCell,
    /// page -> nearest leaf theme, for every page surfed that is not a theme
    /// document (those carry the theme discovery gave them). Built by the
    /// first reader that needs it (see [`Memex::page_themes`]); taken back by
    /// [`Memex::refresh`] when the themes were replaced or a page was seen
    /// for the first time (the live idf moved).
    page_themes: OnceLock<HashMap<u32, TopicId>>,
    /// Every surfer's distinct pages and theme profile. Built by the first
    /// reader that needs a profile (see [`Memex::profiles`]); taken back by
    /// [`Memex::refresh`] with the page -> theme map, and when a visit
    /// named a page new to its visitor.
    profiles: OnceLock<ProfileTable>,
    /// The background class every user's topic filter shares: term counts of
    /// an even sample of the pages the community surfed. Built by the first
    /// [`Memex::topic_filter`] that needs it; taken back by
    /// [`Memex::refresh`] when a page was seen for the first time (the
    /// sample moved).
    background: OnceLock<ClassCounts>,
    /// [`Memex::refresh`]'s cursor into the append-only
    /// `server.trails.visits()` and the trail's and the vocabulary's page
    /// counts: a write moved the domain, the idf or the background sample
    /// of the memos above exactly if it moved a count, and a profile exactly
    /// if it also did, or if a visit past the cursor named a page new to its
    /// visitor.
    seen_visits: usize,
    surfed_pages: usize,
    fetched_pages: u64,
    /// Bookmarks already filed into folder spaces.
    filed_bookmarks: usize,
    /// The classification demon's cursor into the append-only
    /// `server.trails.visits()`: visits before it have been considered.
    classified_visits: usize,
    /// Users whose folder space changed since the last sweep (a bookmark
    /// filed, or `&mut FolderSpace` handed out): only such a change can make
    /// an old unassigned page classifiable, so only they are re-walked.
    reclassify: HashSet<u32>,
    metrics: DemonMetrics,
    /// Every servlet's latency histogram.
    pub(crate) servlet_latency: ServletLatency,
    /// Request tracer (flight recorder + slow log). Built disabled; the
    /// serving layer configures it ([`memex_obs::Tracer::configure`]).
    tracer: memex_obs::Tracer,
}

impl Memex {
    /// Stand up a Memex over a corpus.
    pub fn new(corpus: Arc<Corpus>, opts: MemexOptions) -> StoreResult<Memex> {
        let server = MemexServer::new(CorpusFetcher::new(corpus.clone()), opts.server)?;
        let url_to_page = corpus.pages.iter().map(|p| (p.url.clone(), p.id)).collect();
        let tracer = memex_obs::Tracer::default();
        tracer.attach_registry(server.registry());
        let metrics = DemonMetrics::new(server.registry());
        let servlet_latency = ServletLatency::new(server.registry());
        Ok(Memex {
            corpus,
            server,
            folder_spaces: HashMap::new(),
            empty_space: UserSpace {
                folders: FolderSpace::default(),
                routing: OnceLock::from(HashMap::new()),
                published_bytes: 0,
            },
            url_to_page,
            theme_opts: opts.themes,
            themes: ThemesCell::default(),
            page_themes: OnceLock::new(),
            profiles: OnceLock::new(),
            background: OnceLock::new(),
            seen_visits: 0,
            surfed_pages: 0,
            fetched_pages: 0,
            filed_bookmarks: 0,
            classified_visits: 0,
            reclassify: HashSet::new(),
            metrics,
            servlet_latency,
            tracer,
        })
    }

    /// Register a user: give them a folder space, if they have none. The
    /// folder-space map is the user registry; nothing served reads a
    /// user's name, so it is not kept. Registration never fails and is
    /// idempotent; the `Result` is kept for callers that `?` it.
    pub fn register_user(&mut self, user: u32, _name: &str) -> StoreResult<()> {
        self.folder_spaces.entry(user).or_default();
        Ok(())
    }

    /// Resolve a URL to the dense page id, if the (simulated) web has it.
    pub fn resolve_url(&self, url: &str) -> Option<u32> {
        self.url_to_page.get(url).copied()
    }

    /// The metrics registry shared by every subsystem this Memex owns.
    pub fn registry(&self) -> &memex_obs::MetricsRegistry {
        self.server.registry()
    }

    /// The request tracer owned by this Memex (`&self`: the tracer is
    /// internally synchronized, so readers can pull traces concurrently).
    pub fn tracer(&self) -> &memex_obs::Tracer {
        &self.tracer
    }

    /// Ingest one client event (guaranteed-immediate path).
    pub fn submit(&mut self, event: ClientEvent) -> bool {
        self.server.submit(event)
    }

    /// A user's folder space (created on first touch). The caller may edit
    /// it, so the user's routing is dropped and the next
    /// [`Memex::run_demons`] re-walks their history.
    pub fn folder_space(&mut self, user: u32) -> &mut FolderSpace {
        self.reclassify.insert(user);
        self.folder_spaces
            .entry(user)
            .or_default()
            .edit(&self.metrics.routing_live)
    }

    /// Read-only view of a user's folder space; users without one see a
    /// shared empty space (queries must not mutate, see [`Memex::refresh`]).
    pub fn folder_space_ref(&self, user: u32) -> &FolderSpace {
        &self.user_space(user).folders
    }

    fn user_space(&self, user: u32) -> &UserSpace {
        self.folder_spaces.get(&user).unwrap_or(&self.empty_space)
    }

    /// Run every background demon to quiescence: server fetch/index/trail
    /// demons, then bookmark filing and the per-user classification demon
    /// (Fig. 1's '?' guesses).
    ///
    /// The classification demon costs what the write changed: it considers
    /// the visits recorded since its cursor, and walks a user's whole
    /// history only when that user's folder space changed. The outcome is
    /// that of sweeping every user's history on every call: a guess is never
    /// revised and guesses do not train the classifier, so a page left
    /// unassigned stays unclassifiable until its user's folder space changes.
    pub fn run_demons(&mut self) -> StoreResult<()> {
        self.server.drain_demons()?;
        // File newly recorded bookmarks into folder spaces.
        for b in &self.server.bookmarks[self.filed_bookmarks..] {
            let tf = self.server.tf_shared(b.page).cloned().unwrap_or_default();
            let fs = self
                .folder_spaces
                .entry(b.user)
                .or_default()
                .edit(&self.metrics.routing_live);
            let folder = fs.add_folder(&b.folder);
            fs.bookmark(b.page, folder, tf);
            self.reclassify.insert(b.user);
        }
        self.filed_bookmarks = self.server.bookmarks.len();
        // Classification demon: guess folders for unfiled visited pages.
        let server = &self.server;
        let guess = |fs: &mut FolderSpace, page: u32| {
            if fs.assignment(page).is_none() {
                if let Some(tf) = server.tf(page) {
                    fs.classify(page, tf);
                }
            }
        };
        // (A guess trains nothing and routes nothing — routing reads
        // confirmed filings only — so `space.folders` is touched directly.)
        for user in self.reclassify.drain() {
            if let Some(space) = self.folder_spaces.get_mut(&user) {
                // Every space a write could retrain is in this set.
                let rebuilds = space.folders.take_full_rebuilds();
                self.metrics.folder_rebuilds.add(rebuilds);
                self.metrics.classify_rewalks.inc();
                for page in server.trails.user_pages(user, 0) {
                    guess(&mut space.folders, page);
                }
                space.publish_bytes(&self.metrics.folders_bytes);
            }
        }
        let visits = server.trails.visits();
        let new_visits = visits.get(self.classified_visits..).unwrap_or_default();
        for v in new_visits {
            if let Some(space) = self.folder_spaces.get_mut(&v.user) {
                guess(&mut space.folders, v.page);
                space.publish_bytes(&self.metrics.folders_bytes);
            }
        }
        self.metrics.classify_visits.add(new_visits.len() as u64);
        self.classified_visits = visits.len();
        self.refresh()
    }

    /// Bring every query-visible structure up to date: if bookmarks were
    /// recorded since the community themes were pinned, pin them anew. (The
    /// index needs nothing here: its queries read the buffer, and the buffer
    /// bound alone decides when a segment is sealed. Nothing left can fail;
    /// the `StoreResult` is the signature callers were written against.)
    ///
    /// Pinning is a capture, not a build: the bookmark count and a copy of
    /// the vocabulary's idf table go into a fresh cell, and the first
    /// [`Memex::community_themes`] afterwards runs theme discovery from them
    /// — themes as of the last bookmark, idf as it stood then, however many
    /// pages are first visited in between. (`bookmarks[..n]` is append-only
    /// and a bookmark is recorded only after its page's fetch was settled,
    /// so the `tf` rows read at build time are those of capture time.)
    ///
    /// The derived memos are only ever taken back here, each exactly
    /// when one of its inputs moved. The page -> theme map reads the themes
    /// and the live idf: it goes when the themes cell was replaced or a page
    /// was seen for the first time. Each user's page -> folder routing reads
    /// their folder space (whose edits drop it where they happen:
    /// [`Memex::folder_space`], bookmark filing) and the pages surfed — the
    /// domain it routes and the background sample of
    /// [`Memex::topic_filter`]: all of them, and the background class built
    /// from that sample, go when a page was seen for the first time. The
    /// profile table reads the page -> theme map and each surfer's distinct
    /// pages: it goes with the map, and when a visit named a page missing
    /// from its visitor's row. A repeat visit of one's own page takes
    /// nothing.
    pub fn refresh(&mut self) -> StoreResult<()> {
        let n_bookmarks = self.server.bookmarks.len();
        let themes_replaced = self.themes.bookmarks != n_bookmarks;
        if themes_replaced {
            self.metrics
                .themes_behind
                .add(n_bookmarks as i64 - self.themes.bookmarks as i64);
            self.themes = ThemesCell {
                bookmarks: n_bookmarks,
                idf: self.server.vocab.idf_table().clone(),
                built: OnceLock::new(),
            };
        }
        // First seen by the trail (a dead link too: it shifts the background
        // sample) or by the fetcher (a `tf` row appeared, the idf moved).
        let trails = &self.server.trails;
        let counts = (trails.num_pages(), self.server.vocab.num_docs());
        let first_seen = counts != (self.surfed_pages, self.fetched_pages);
        (self.surfed_pages, self.fetched_pages) = counts;
        let visits = trails.visits();
        let new_to_user = self.profiles.get().is_some_and(|table| {
            let mut new = visits.get(self.seen_visits..).unwrap_or_default().iter();
            new.any(|v| table.of(v.user).pages.binary_search(&v.page).is_err())
        });
        self.seen_visits = visits.len();
        if themes_replaced || first_seen {
            self.page_themes.take();
        }
        if themes_replaced || first_seen || new_to_user {
            self.profiles.take();
        }
        if first_seen {
            self.background.take();
            for space in self.folder_spaces.values_mut() {
                space.kill_routing(&self.metrics.routing_live);
            }
        }
        Ok(())
    }

    /// The memoised themes, built on first use after a bookmark.
    pub(crate) fn themes(&self) -> &CommunityThemes {
        let cell = &self.themes;
        cell.built.get_or_init(|| {
            let _span = self.metrics.themes_build_latency.start_span();
            // Documents: distinct bookmarked pages.
            let mut doc_pages: Vec<u32> = Vec::new();
            let mut doc_of_page: HashMap<u32, usize> = HashMap::new();
            let mut folders_by_key: HashMap<(u32, &str), Vec<usize>> = HashMap::new();
            for b in &self.server.bookmarks[..cell.bookmarks] {
                let doc = *doc_of_page.entry(b.page).or_insert_with(|| {
                    doc_pages.push(b.page);
                    doc_pages.len() - 1
                });
                folders_by_key
                    .entry((b.user, &b.folder))
                    .or_default()
                    .push(doc);
            }
            let docs: Vec<SparseVec> = doc_pages
                .iter()
                .map(|&p| match self.server.tf(p) {
                    Some(tf) => self.server.analyzer().tfidf_at(&cell.idf, tf),
                    None => SparseVec::new(),
                })
                .collect();
            let mut folders: Vec<UserFolder> = folders_by_key
                .into_iter()
                .map(|((user, name), mut docs)| {
                    docs.sort_unstable();
                    docs.dedup();
                    UserFolder {
                        user,
                        name: name.to_string(),
                        docs,
                    }
                })
                .collect();
            folders.sort_by(|a, b| (a.user, &a.name).cmp(&(b.user, &b.name)));
            let themes = ThemeDiscovery::new(self.theme_opts).run(&docs, &folders);
            self.metrics.themes_builds.inc();
            self.metrics.themes_behind.set(0);
            CommunityThemes {
                view: (themes, doc_pages),
                doc_of_page,
            }
        })
    }

    /// The memoised page -> theme map, built on first use after
    /// [`Memex::refresh`] took the last one back: every page surfed that is
    /// not a theme document, routed to its nearest leaf theme by its TF-IDF
    /// vector under the live idf. (From scratch this is
    /// [`Memex::page_vector`] + [`Themes::assign`] per page per profile per
    /// request; it survives as this builder.)
    pub(crate) fn page_themes(&self) -> &HashMap<u32, TopicId> {
        self.page_themes.get_or_init(|| {
            let community = self.themes();
            let _span = self.metrics.page_themes_build_latency.start_span();
            let router = community.view.0.leaf_router();
            let page_themes = self
                .server
                .trails
                .pages()
                .filter(|page| !community.doc_of_page.contains_key(page))
                .filter_map(|page| {
                    let theme = router.assign(self.page_vector(page)?)?;
                    Some((page, theme))
                })
                .collect();
            self.metrics.page_themes_builds.inc();
            page_themes
        })
    }

    /// The memoised profile table, built on first use after
    /// [`Memex::refresh`] took the last one back: for every user with a
    /// visit, their distinct pages and their theme profile — for every page
    /// they visited, its theme (bookmarked pages carry their discovered
    /// theme, other pages the nearest leaf theme of [`Memex::page_themes`]),
    /// weight accumulated up the theme taxonomy. (From scratch this is
    /// `theme_profile` per user per request; it survives as this builder.)
    pub(crate) fn profiles(&self) -> &ProfileTable {
        self.profiles.get_or_init(|| {
            let community = self.themes();
            let page_themes = self.page_themes();
            let _span = self.metrics.profiles_build_latency.start_span();
            let (themes, _) = &community.view;
            let trails = &self.server.trails;
            let table = trails
                .users()
                .map(|user| {
                    let pages = trails.user_pages(user, 0);
                    let mut weights: BTreeMap<TopicId, f64> = BTreeMap::new();
                    let total = pages.len().max(1) as f64;
                    for page in &pages {
                        let theme = match community.doc_of_page.get(page) {
                            Some(&d) => themes.doc_theme.get(d).copied().flatten(),
                            None => page_themes.get(page).copied(),
                        };
                        if let Some(node) = theme {
                            let mut cur = Some(node);
                            while let Some(c) = cur {
                                *weights.entry(c).or_insert(0.0) += 1.0 / total;
                                cur = themes.taxonomy.parent(c);
                            }
                        }
                    }
                    (user, Profile { pages, weights })
                })
                .collect();
            self.metrics.profiles_builds.inc();
            ProfileTable(table)
        })
    }

    /// A user's memoised page -> folder routing (see [`UserSpace::routing`]),
    /// built on first use after it was taken back: train their
    /// [`Memex::topic_filter`], route every page surfed, keep the map and
    /// drop the model.
    fn routing(&self, user: u32) -> &HashMap<u32, TopicId> {
        let space = self.user_space(user);
        space.routing.get_or_init(|| {
            let _span = self.metrics.routing_build_latency.start_span();
            let filter = self.topic_filter(user);
            let routing = self
                .server
                .trails
                .pages()
                .filter_map(|page| {
                    let folder = match space.folders.assignment(page) {
                        // The user's own confirmed filing is authoritative.
                        Some(a) if a.confirmed => a.folder,
                        _ => filter.classify(self.server.tf(page)?)?,
                    };
                    Some((page, folder))
                })
                .collect();
            self.metrics.routing_builds.inc();
            self.metrics.routing_live.add(1);
            routing
        })
    }

    // -- Q1: recall ---------------------------------------------------------

    /// Visit-time filter: the pages `user` visited in `[since, until]`,
    /// sorted, and beside each the time of its last such visit. One pass:
    /// the user's visits come by page, each page's by time, so a page's
    /// last in-window visit is the last of its run.
    fn last_visits(&self, user: u32, since: u64, until: u64) -> (Vec<u32>, Vec<u64>) {
        let (mut pages, mut times): (Vec<u32>, Vec<u64>) = (Vec::new(), Vec::new());
        let mut read = 0u64;
        for v in self.server.trails.user_visits(user) {
            read += 1;
            if v.time < since || v.time > until {
                continue;
            }
            match (pages.last(), times.last_mut()) {
                (Some(&page), Some(time)) if page == v.page => *time = v.time,
                _ => {
                    pages.push(v.page);
                    times.push(v.time);
                }
            }
        }
        self.metrics.recall_visits.add(read);
        (pages, times)
    }

    /// "What was the URL I visited about six months back regarding X?" —
    /// full-text search restricted to pages this user visited in
    /// `[since, until]`.
    pub fn recall(
        &self,
        user: u32,
        query: &str,
        since: u64,
        until: u64,
        k: usize,
    ) -> StoreResult<Vec<RecallHit>> {
        let q = self.server.analyzer().counts(query);
        let mut query_terms: Vec<(u32, u32)> = q
            .iter()
            .filter_map(|(t, &c)| self.server.vocab.id(t).map(|id| (id, c)))
            .collect();
        // `q` is a HashMap: without a fixed term order the per-term f32
        // shares of a >= 3-term query would be summed in hash order and the
        // same recall would score differently in its last bits call to call.
        query_terms.sort_unstable();
        // BM25 is asked for the best `k` among the user's pages only.
        let (pages, times) = self.last_visits(user, since, until);
        let hits = bm25_search_among(
            &self.server.index,
            &query_terms,
            k,
            Bm25Params::default(),
            &pages,
        )?;
        // The query's terms are already analysed: every hit's snippet
        // matches against them instead of analysing the query again. It is
        // read from the page's word memo, written when the page was
        // analysed, which lists the words at each position of the page's
        // `tf` and where each word starts, so each query stem is looked up
        // there too, by its vocabulary id; the text is walked only when the
        // memo cannot tell (`SnippetQuery::snippet_from_memo`).
        let mut snippets = SnippetQuery::from_terms(q.into_keys());
        let stem_ids: Vec<Option<TermId>> = snippets
            .stems()
            .iter()
            .map(|stem| self.server.vocab.id(stem))
            .collect();
        Ok(hits
            .into_iter()
            .filter_map(|h| {
                let at = pages.binary_search(&h.doc).ok()?;
                let page = &self.corpus.pages[h.doc as usize];
                let text = &page.text;
                // The memo describes the text the page was fetched with, and
                // reads nothing from a text not that one's length, or one
                // its words' starts do not cut at char boundaries.
                let snippet = self
                    .server
                    .page_memo(h.doc)
                    .zip(self.server.tf(h.doc))
                    .and_then(|(memo, tf)| {
                        let position = |q: usize| {
                            let id = stem_ids.get(q).copied().flatten()?;
                            tf.binary_search_by_key(&id, |&(t, _)| t).ok()
                        };
                        snippets.snippet_from_memo(text, memo, position, SNIPPET_WORDS)
                    })
                    .unwrap_or_else(|| {
                        self.metrics.page_words_fallbacks.inc();
                        snippets.snippet(text, SNIPPET_WORDS)
                    });
                Some(RecallHit {
                    page: h.doc,
                    url: page.url.clone(),
                    score: h.score,
                    last_visit: times[at],
                    snippet,
                })
            })
            .collect())
    }

    // -- Q2 / F2: topical context replay -------------------------------------

    /// The memoised background class, built on first use after
    /// [`Memex::refresh`] took the last one back: every second page in the
    /// order the community first surfed them, up to 300 that were fetched.
    fn background(&self) -> &ClassCounts {
        self.background.get_or_init(|| {
            let mut seen = HashSet::new();
            let sample = self
                .server
                .trails
                .visits()
                .iter()
                .filter(|v| seen.insert(v.page) && seen.len() % 2 == 0)
                .filter_map(|v| self.server.tf(v.page))
                .take(300);
            self.metrics.background_builds.inc();
            ClassCounts::from_documents(sample)
        })
    }

    /// Build a rejection-capable topic filter for one user: a naive Bayes
    /// over their leaf folders **plus a background class** trained from a
    /// sample of everything the community surfed. Community pages whose
    /// best class is the background simply don't *belong* to any folder —
    /// which is what "most likely to belong to the selected topic" needs
    /// (a forced choice among the user's folders would claim every page).
    ///
    /// Nothing is trained: each leaf's confirmed pages are counted, and the
    /// background, the same for everybody, is shared (`Memex::background`);
    /// the scorer is filled from those counts.
    pub fn topic_filter(&self, user: u32) -> TopicFilter {
        let fs = self.folder_space_ref(user);
        let leaves: Vec<TopicId> = fs.classes().to_vec();
        let mut per_leaf: Vec<Vec<&[(TermId, u32)]>> = vec![Vec::new(); leaves.len()];
        for (page, a) in fs.assignments().filter(|(_, a)| a.confirmed) {
            if let (Some(class), Some(tf)) = (
                leaves.iter().position(|&l| l == a.folder),
                self.server.tf(page),
            ) {
                per_leaf[class].push(tf);
            }
        }
        let background = self.background();
        let usable = per_leaf.iter().any(|docs| !docs.is_empty()) && background.num_docs() > 0.0;
        TopicFilter {
            scorer: usable.then(|| {
                let counts: Vec<ClassCounts> = per_leaf
                    .into_iter()
                    .map(ClassCounts::from_documents)
                    .collect();
                let classes: Vec<&ClassCounts> = counts.iter().chain([background]).collect();
                NbScorer::from_counts(&classes, NbOptions::default())
            }),
            leaves,
        }
    }

    /// Pages on topic `folder` for `user`: their confirmed assignments
    /// under the folder, plus every community-visited page the topic
    /// filter routes to a leaf under the folder.
    pub fn pages_on_topic(&self, user: u32, folder: TopicId) -> HashSet<u32> {
        let taxonomy = &self.folder_space_ref(user).taxonomy;
        self.routing(user)
            .iter()
            .filter(|&(_, &f)| taxonomy.is_ancestor_or_self(folder, f))
            .map(|(&page, _)| page)
            .collect()
    }

    /// The trail tab (Fig. 2): "Selecting a folder replays the hypertext
    /// graph of recent pages publicly surfed by the community which are
    /// most likely to belong to the selected topic."
    pub fn topic_context(
        &self,
        user: u32,
        folder: TopicId,
        since: u64,
        max_pages: usize,
    ) -> TrailContext {
        let on_topic = self.pages_on_topic(user, folder);
        self.server
            .trails
            .replay_context(on_topic, user, since, max_pages)
    }

    // -- Q3: what's new ------------------------------------------------------

    /// "Are there any popular sites, related to my experience on topic T,
    /// that have appeared \[recently\]?" — authoritative pages in/near the
    /// community's recent on-topic trail graph that the user hasn't seen.
    pub fn whats_new(&self, user: u32, folder: TopicId, since: u64, k: usize) -> Vec<(u32, f64)> {
        let on_topic = self.pages_on_topic(user, folder);
        // Community's recent on-topic pages, in page order so the graph
        // expansion and authority scores below sum in one fixed order. (A
        // recent visit, if there is one, is near the end of the page's list.)
        let trails = &self.server.trails;
        let mut recent: Vec<u32> = on_topic
            .into_iter()
            .filter(|&p| {
                trails
                    .page_visits(p)
                    .rev()
                    .any(|v| v.public && v.time >= since)
            })
            .collect();
        recent.sort_unstable();
        // ...expanded one hop through the fetched web graph ("in or near").
        let base: Vec<u32> = expand(&self.server.web, &recent, 1, Direction::Both, 4_000)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let seen_before: HashSet<u32> = trails
            .user_visits(user)
            .filter(|v| v.time < since)
            .map(|v| v.page)
            .collect();
        // Rank all of `base` and only then drop what does not qualify: in a
        // young archive the top authorities are link targets nobody archived
        // yet, and they must not use up the `k` slots.
        top_authorities(&self.server.web, &base, base.len())
            .into_iter()
            .filter(|(p, _)| {
                // Recommend only pages the index knows: a page the expansion
                // reached but nobody archived would be recommended on graph
                // shape alone.
                !seen_before.contains(p) && self.server.index.doc_len(*p) > 0
            })
            .take(k)
            .collect()
    }

    // -- Q4: ISP bill --------------------------------------------------------

    /// "How is my ISP bill divided into access for work, travel, news,
    /// hobby and entertainment?" — bytes per folder for the user's visits
    /// in `[since, until]`.
    pub fn bill(&self, user: u32, since: u64, until: u64) -> Vec<BillLine> {
        let window = self
            .server
            .trails
            .user_visits(user)
            .filter(|v| v.time >= since && v.time <= until);
        let routing = self.routing(user);
        // Per routed folder (`None`: no folder), each path formatted once
        // below rather than once per visit.
        let mut per_folder: HashMap<Option<TopicId>, (u64, u32)> = HashMap::new();
        let mut total_bytes = 0u64;
        for v in window {
            let bytes = u64::from(self.server.page_bytes(v.page).unwrap_or(0));
            let e = per_folder
                .entry(routing.get(&v.page).copied())
                .or_insert((0, 0));
            e.0 += bytes;
            e.1 += 1;
            total_bytes += bytes;
        }
        // A line per path: folders that print alike are one line.
        let taxonomy = &self.folder_space_ref(user).taxonomy;
        let mut per_path: HashMap<String, (u64, u32)> = HashMap::new();
        for (folder, (bytes, visits)) in per_folder {
            let path = folder.map_or_else(|| "(other)".to_string(), |f| taxonomy.path(f));
            let e = per_path.entry(path).or_insert((0, 0));
            e.0 += bytes;
            e.1 += visits;
        }
        let mut lines: Vec<BillLine> = per_path
            .into_iter()
            .map(|(folder, (bytes, visits))| BillLine {
                folder,
                bytes,
                visits,
                fraction: if total_bytes == 0 {
                    0.0
                } else {
                    bytes as f64 / total_bytes as f64
                },
            })
            .collect();
        // Largest first; equal-byte folders by name, not in HashMap order.
        lines.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.folder.cmp(&b.folder)));
        lines
    }

    // -- Q5: community themes -------------------------------------------------

    /// Consolidate all users' public folders into the community theme
    /// taxonomy (Fig. 4), as of the last bookmark [`Memex::refresh`] saw —
    /// call `run_demons`/`refresh` after bookmark mutations to pick up new
    /// folders. The first call after such a refresh runs theme discovery;
    /// later ones return the same value. Returns the themes plus the page
    /// id behind each theme document index.
    pub fn community_themes(&self) -> &(Themes, Vec<u32>) {
        &self.themes().view
    }

    /// TF-IDF vector of a fetched page.
    pub fn page_vector(&self, page: u32) -> Option<SparseVec> {
        self.server
            .tf(page)
            .map(|tf| self.server.analyzer().tfidf(&self.server.vocab, tf))
    }

    /// "Where and how do I fit into that map?" — the user's weight on each
    /// theme node, as `(theme path, weight)` sorted descending.
    pub fn my_place(&self, user: u32) -> Vec<(String, f64)> {
        let profile = crate::recommend::theme_profile(self, user);
        let (themes, _) = self.community_themes();
        let mut out: Vec<(String, f64)> = profile
            .iter()
            .filter(|(&node, _)| node != memex_learn::taxonomy::Taxonomy::ROOT)
            .map(|(&node, &w)| (themes.taxonomy.path(node), w))
            .collect();
        out.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        out
    }

    // -- Q6: similar surfers ---------------------------------------------------

    /// "Who are the people who share my interest most closely?" — theme
    /// profile cosine, descending, excluding the user.
    pub fn similar_surfers(&self, user: u32, k: usize) -> Vec<(u32, f64)> {
        crate::recommend::similar_surfers(self, user, k)
    }

    /// Collaborative page recommendation for a user.
    pub fn recommend_pages(&self, user: u32, k: usize) -> Vec<(u32, f64)> {
        crate::recommend::recommend_pages(self, user, k)
    }

    /// All users with a folder space (registration order not guaranteed).
    pub fn users(&self) -> Vec<u32> {
        let mut u: Vec<u32> = self.folder_spaces.keys().copied().collect();
        u.sort_unstable();
        u
    }

    // -- folder proposal (§2: "Memex also uses unsupervised clustering to
    // propose a topic hierarchy over a set of links that the user may want
    // to reorganize") ---------------------------------------------------------

    /// Cluster a user's *unfiled-or-guessed* visited pages into `k`
    /// proposed folders. Each proposal carries a suggested name (top
    /// centroid terms) and its member pages; accepting one is a plain
    /// [`FolderSpace::add_folder`] + `bookmark` loop.
    pub fn propose_folders(&self, user: u32, k: usize) -> Vec<FolderProposal> {
        let pages: Vec<u32> = {
            let fs = self.folder_space_ref(user);
            self.server
                .trails
                .user_pages(user, 0)
                .into_iter()
                .filter(|&p| !fs.assignment(p).is_some_and(|a| a.confirmed))
                .collect()
        };
        // A page without a vector (a dead link, or one the fetch demon has
        // not reached) sits out, so that `pages[i]` is the page behind
        // `docs[i]` and its cluster label.
        let (pages, docs): (Vec<u32>, Vec<SparseVec>) = pages
            .into_iter()
            .filter_map(|p| Some((p, self.page_vector(p)?)))
            .unzip();
        if docs.is_empty() || k == 0 {
            return Vec::new();
        }
        let result = memex_cluster::scatter::buckshot(&docs, k.min(docs.len()), 0x50F7);
        let mut proposals: Vec<FolderProposal> = (0..result.centroids.len())
            .map(|c| FolderProposal {
                name: memex_cluster::scatter::top_terms(
                    &result.centroids[c],
                    &self.server.vocab,
                    3,
                )
                .join(" "),
                pages: Vec::new(),
            })
            .collect();
        for (i, &label) in result.labels.iter().enumerate() {
            proposals[label].pages.push(pages[i]);
        }
        proposals.retain(|p| !p.pages.is_empty());
        proposals.sort_by_key(|p| std::cmp::Reverse(p.pages.len()));
        proposals
    }
}

/// A folder the clustering demon proposes for reorganising loose pages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FolderProposal {
    /// Suggested folder name: the cluster's top centroid terms.
    pub name: String,
    /// Member pages, in page-id order.
    pub pages: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use memex_server::events::VisitEvent;
    use memex_text::snippet::snippet;
    use memex_web::corpus::CorpusConfig;

    /// A page's word memo describes the text it was fetched with, and recall
    /// renders `Memex::corpus`'s. Here the corpus the archive renders stops
    /// being the one its fetcher served: every page's text gains a word. No
    /// hit may read a memo of another text — each walks the text it renders
    /// and is counted a fallback, and each snippet is the text walk's.
    #[test]
    fn a_hit_whose_text_is_not_the_fetched_one_walks_the_text() {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 12,
            ..CorpusConfig::default()
        }));
        let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("memex");
        memex.register_user(0, "ann").expect("register");
        for page in &corpus.pages {
            memex.submit(ClientEvent::Visit(VisitEvent {
                user: 0,
                session: 1,
                page: page.id,
                url: page.url.clone(),
                time: u64::from(page.id),
                referrer: None,
            }));
        }
        memex.run_demons().expect("demons");
        let words: Vec<&str> = corpus.pages[20].text.split_whitespace().collect();
        let query = format!("{} {}", words[0], words[words.len() / 2]);
        let fallbacks = |memex: &Memex| {
            let snap = memex.registry().snapshot();
            snap.counter("demon.page_words.fallbacks")
        };

        let fetched = memex.recall(0, &query, 0, u64::MAX, 8).expect("recall");
        assert!(fetched.len() > 1, "{} hits", fetched.len());
        assert_eq!(fallbacks(&memex), 0, "the fetched texts read their memos");

        let mut edited = (*corpus).clone();
        for page in &mut edited.pages {
            page.text = format!("zeppelin {}", page.text);
        }
        memex.corpus = Arc::new(edited);
        let hits = memex.recall(0, &query, 0, u64::MAX, 8).expect("recall");
        assert_eq!(hits.len(), fetched.len());
        for hit in &hits {
            let text = &memex.corpus.pages[hit.page as usize].text;
            assert_eq!(
                hit.snippet,
                snippet(text, &query, SNIPPET_WORDS),
                "page {}",
                hit.page
            );
        }
        assert_eq!(
            fallbacks(&memex),
            hits.len() as u64,
            "every hit walked its text"
        );
    }

    /// The memo cuts a window at its words' starts, so a text of the
    /// fetched one's length but other bytes must not be cut by it. Here
    /// every word start but the first falls inside a two-byte character:
    /// the space before it moves one byte left and the "é" that takes its
    /// place swallows the word's first letter. No hit may panic or render a
    /// cut character: each walks the text it renders, is counted a
    /// fallback, and shows that text's words.
    #[test]
    fn a_hit_whose_text_has_the_fetched_length_but_not_its_starts_walks_the_text() {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 12,
            ..CorpusConfig::default()
        }));
        let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("memex");
        memex.register_user(0, "ann").expect("register");
        for page in &corpus.pages {
            memex.submit(ClientEvent::Visit(VisitEvent {
                user: 0,
                session: 1,
                page: page.id,
                url: page.url.clone(),
                time: u64::from(page.id),
                referrer: None,
            }));
        }
        memex.run_demons().expect("demons");
        let words: Vec<&str> = corpus.pages[20].text.split_whitespace().collect();
        let query = format!("{} {}", words[0], words[words.len() / 2]);
        let fetched = memex.recall(0, &query, 0, u64::MAX, 8).expect("recall");
        assert!(fetched.len() > 1, "{} hits", fetched.len());
        let fallbacks = |memex: &Memex| {
            let snap = memex.registry().snapshot();
            snap.counter("demon.page_words.fallbacks")
        };
        assert_eq!(fallbacks(&memex), 0, "the fetched texts read their memos");

        let mut edited = (*corpus).clone();
        for page in &mut edited.pages {
            let mut bytes = page.text.clone().into_bytes();
            let starts: Vec<usize> = page.text.match_indices(' ').map(|(at, _)| at + 1).collect();
            for &start in &starts {
                assert!(
                    bytes[start - 2].is_ascii_alphanumeric(),
                    "a word of one letter"
                );
                bytes[start - 2] = b' ';
                bytes[start - 1..=start].copy_from_slice("é".as_bytes());
            }
            page.text = String::from_utf8(bytes).expect("one é in place of a space and a letter");
            assert_eq!(page.text.len(), corpus.pages[page.id as usize].text.len());
        }
        let corpus = Arc::new(edited);
        memex.corpus = corpus.clone();
        let hits = memex.recall(0, &query, 0, u64::MAX, 8).expect("recall");
        assert_eq!(hits.len(), fetched.len());
        for hit in &hits {
            let text = &corpus.pages[hit.page as usize].text;
            assert_eq!(
                hit.snippet,
                snippet(text, &query, SNIPPET_WORDS),
                "page {}",
                hit.page
            );
        }
        assert_eq!(
            fallbacks(&memex),
            hits.len() as u64,
            "every hit walked its text"
        );
    }
}
