//! The servlet surface (paper §3: "the server consists of servlets that
//! perform various archiving and mining functions as triggered by client
//! action"). The demo tunnelled these over HTTP; here the same
//! request/response vocabulary dispatches in-process, which keeps the
//! boundary (and its tests) without the wire.
//!
//! Requests are classified into *reads* (pure queries, [`dispatch_read`],
//! `&Memex`) and *writes* (mutations, [`dispatch_write`], `&mut Memex`) so
//! the serving layer can answer many reads in parallel behind an `RwLock`
//! while writes serialise. [`dispatch`] remains as a unified compatibility
//! shim for single-threaded callers.

use memex_learn::taxonomy::TopicId;
use memex_obs::{Histogram, MetricsRegistry};
use memex_server::events::ClientEvent;

use crate::bookmarks_io::{export_netscape, import_netscape, BookmarkEntry};
use crate::memex::{BillLine, Memex, RecallHit};

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Request {
    /// Ingest a raw client event (visit/bookmark/mode).
    Event(ClientEvent),
    /// Full-text recall over the user's own history (Q1).
    Recall {
        user: u32,
        query: String,
        since: u64,
        until: u64,
        k: usize,
    },
    /// Replay the topical browsing context (Fig. 2 trail tab).
    TrailReplay {
        user: u32,
        folder: TopicId,
        since: u64,
        max_pages: usize,
    },
    /// Topic-organised discovery of new authoritative pages (Q3).
    WhatsNew {
        user: u32,
        folder: TopicId,
        since: u64,
        k: usize,
    },
    /// ISP bill breakdown (Q4).
    Bill { user: u32, since: u64, until: u64 },
    /// Similar surfers by theme profile (Q6).
    SimilarSurfers { user: u32, k: usize },
    /// Collaborative page recommendations.
    Recommend { user: u32, k: usize },
    /// Import a Netscape bookmark file into the user's folder space.
    ImportBookmarks { user: u32, html: String, time: u64 },
    /// Export the user's folder space back to Netscape format.
    ExportBookmarks { user: u32 },
    /// Propose folders (clusters with names) for the user's loose pages.
    ProposeFolders { user: u32, k: usize },
    /// Operational metrics snapshot across every subsystem the server owns
    /// (store, index, pipeline) plus servlet latencies.
    Stats,
    /// Completed request traces from the flight recorder (`slow_only:
    /// false`) or the slow-request log (`slow_only: true`), newest first,
    /// at most `limit` of them.
    Traces { slow_only: bool, limit: usize },
}

/// One list of servlets, and the variant names and handle table generated
/// from it.
macro_rules! servlets {
    ($($variant:pat => $name:ident,)*) => {
        /// Every servlet's `servlet.<name>.latency` histogram, registered
        /// once (like the serving layer's own handles): a dispatch or a
        /// read-cache hit picks its handle by variant, with no name lookup.
        #[derive(Clone)]
        pub struct ServletLatency {
            $($name: Histogram,)*
        }

        impl ServletLatency {
            pub fn new(registry: &MetricsRegistry) -> ServletLatency {
                ServletLatency {
                    $($name: registry.histogram(
                        concat!("servlet.", stringify!($name), ".latency"),
                    ),)*
                }
            }

            /// The histogram that times `request`'s servlet.
            pub fn of(&self, request: &Request) -> &Histogram {
                match request {
                    $($variant => &self.$name,)*
                }
            }
        }

        impl Request {
            /// Stable name of this request variant: its servlet's, the
            /// `<name>` of `servlet.<name>.latency`.
            pub fn name(&self) -> &'static str {
                match self {
                    $($variant => stringify!($name),)*
                }
            }
        }
    };
}

servlets! {
    Request::Event(_) => event,
    Request::Recall { .. } => recall,
    Request::TrailReplay { .. } => trail_replay,
    Request::WhatsNew { .. } => whats_new,
    Request::Bill { .. } => bill,
    Request::SimilarSurfers { .. } => similar_surfers,
    Request::Recommend { .. } => recommend,
    Request::ImportBookmarks { .. } => import_bookmarks,
    Request::ExportBookmarks { .. } => export_bookmarks,
    Request::ProposeFolders { .. } => propose_folders,
    Request::Stats => stats,
    Request::Traces { .. } => traces,
}

impl Request {
    /// `true` when the request is a pure query: it can be answered with
    /// `&Memex` (shared, concurrent) and is safe to retry or serve from a
    /// cache. Mutating requests (`Event`, `ImportBookmarks`) are writes.
    pub fn is_read(&self) -> bool {
        !matches!(self, Request::Event(_) | Request::ImportBookmarks { .. })
    }

    /// Split into the typed read/write halves consumed by
    /// [`dispatch_read`] / [`dispatch_write`].
    pub fn classify(self) -> Classified {
        if self.is_read() {
            Classified::Read(ReadRequest(self))
        } else {
            Classified::Write(WriteRequest(self))
        }
    }

    /// The user this request is scoped to, or `None` for the
    /// community-scoped requests (`Stats`, `Traces`).
    pub fn shard_key(&self) -> Option<u32> {
        match self {
            Request::Event(e) => Some(e.user()),
            Request::Recall { user, .. }
            | Request::TrailReplay { user, .. }
            | Request::WhatsNew { user, .. }
            | Request::Bill { user, .. }
            | Request::SimilarSurfers { user, .. }
            | Request::Recommend { user, .. }
            | Request::ImportBookmarks { user, .. }
            | Request::ExportBookmarks { user }
            | Request::ProposeFolders { user, .. } => Some(*user),
            Request::Stats | Request::Traces { .. } => None,
        }
    }
}

/// A request proven by [`Request::classify`] to be a pure query.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ReadRequest(Request);

/// A request proven by [`Request::classify`] to mutate the archive.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct WriteRequest(Request);

/// Outcome of [`Request::classify`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Classified {
    Read(ReadRequest),
    Write(WriteRequest),
}

impl ReadRequest {
    /// The underlying request (always satisfies `is_read()`).
    pub fn as_request(&self) -> &Request {
        &self.0
    }

    pub fn into_request(self) -> Request {
        self.0
    }
}

impl WriteRequest {
    /// The underlying request (never satisfies `is_read()`).
    pub fn as_request(&self) -> &Request {
        &self.0
    }

    pub fn into_request(self) -> Request {
        self.0
    }
}

/// The matching responses.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    Ack {
        archived: bool,
    },
    Recall(Vec<RecallHit>),
    TrailReplay(memex_graph::trail::TrailContext),
    WhatsNew(Vec<(u32, f64)>),
    Bill(Vec<BillLine>),
    SimilarSurfers(Vec<(u32, f64)>),
    Recommend(Vec<(u32, f64)>),
    Imported {
        /// Bookmarks resolved *and* accepted by the archive.
        archived: usize,
        /// Bookmarks resolved but rejected by the archive (e.g. the user
        /// is in privacy mode, so nothing was recorded).
        rejected: usize,
        /// Entries whose URL is unknown to the (simulated) web.
        unresolved: usize,
    },
    Exported(String),
    Proposals(Vec<crate::memex::FolderProposal>),
    Stats(memex_obs::Snapshot),
    /// Completed span trees pulled from the tracer (see
    /// [`Request::Traces`]).
    Traces(Vec<memex_obs::TraceData>),
    Error(String),
    /// Load-shed verdict from the serving layer: the request was *not*
    /// dispatched because the server's in-flight admission limit was hit.
    /// Clients may retry after backing off; nothing was mutated.
    Overloaded {
        in_flight: u32,
        limit: u32,
    },
}

/// Dispatch one request against the system: classify, then route to
/// [`dispatch_read`] or [`dispatch_write`]. Compatibility shim for
/// single-threaded callers that hold `&mut Memex` anyway.
pub fn dispatch(memex: &mut Memex, request: Request) -> Response {
    match request.classify() {
        Classified::Read(r) => dispatch_read(memex, r),
        Classified::Write(w) => dispatch_write(memex, w),
    }
}

/// Answer a pure query. Takes `&Memex`, so any number of these can run
/// concurrently under a read lock. Records `servlet.<variant>.latency`,
/// which in a trace is the `servlet.<variant>` span; deeper layers (index,
/// store) attach their own children to it.
pub fn dispatch_read(memex: &Memex, request: ReadRequest) -> Response {
    let request = request.into_request();
    let _span = memex.servlet_latency.of(&request).start_span();
    match request {
        Request::Recall {
            user,
            query,
            since,
            until,
            k,
        } => match memex.recall(user, &query, since, until, k) {
            Ok(hits) => Response::Recall(hits),
            Err(e) => Response::Error(e.to_string()),
        },
        Request::TrailReplay {
            user,
            folder,
            since,
            max_pages,
        } => Response::TrailReplay(memex.topic_context(user, folder, since, max_pages)),
        Request::WhatsNew {
            user,
            folder,
            since,
            k,
        } => Response::WhatsNew(memex.whats_new(user, folder, since, k)),
        Request::Bill { user, since, until } => Response::Bill(memex.bill(user, since, until)),
        Request::SimilarSurfers { user, k } => {
            Response::SimilarSurfers(memex.similar_surfers(user, k))
        }
        Request::Recommend { user, k } => Response::Recommend(memex.recommend_pages(user, k)),
        Request::ProposeFolders { user, k } => Response::Proposals(memex.propose_folders(user, k)),
        Request::Stats => Response::Stats(memex.registry().snapshot()),
        Request::Traces { slow_only, limit } => {
            Response::Traces(memex.tracer().collect(slow_only, limit))
        }
        Request::ExportBookmarks { user } => {
            let fs = memex.folder_space_ref(user);
            let entries: Vec<BookmarkEntry> = fs
                .assignments()
                .filter(|(_, a)| a.confirmed)
                .filter_map(|(page, a)| {
                    // A bookmark may name a page id the corpus lacks (ids
                    // arrive over the wire); it has no URL to export.
                    let p = memex.corpus.pages.get(page as usize)?;
                    Some(BookmarkEntry {
                        folder_path: fs
                            .taxonomy
                            .path(a.folder)
                            .split('/')
                            .filter(|c| !c.is_empty())
                            .map(str::to_string)
                            .collect(),
                        url: p.url.clone(),
                        title: p.title.clone(),
                    })
                })
                .collect();
            Response::Exported(export_netscape(&entries))
        }
        // Classification guarantees these never reach the read path; answer
        // with a typed error rather than panicking in the serving layer.
        Request::Event(_) | Request::ImportBookmarks { .. } => {
            Response::Error("internal: write request routed to dispatch_read".to_string())
        }
    }
}

/// Apply a mutation and bring every query-visible cache up to date (demons
/// plus [`Memex::refresh`]) before the write lock is released, so readers
/// admitted afterwards see a fully consistent archive. Records
/// `servlet.<variant>.latency` (the `servlet.<variant>` span).
pub fn dispatch_write(memex: &mut Memex, request: WriteRequest) -> Response {
    let _span = memex.servlet_latency.of(request.as_request()).start_span();
    let verdict = apply_write(memex, &request);
    if let Err(e) = memex.run_demons() {
        return Response::Error(e.to_string());
    }
    verdict
}

/// Apply a write's state mutation *without* running the demons (and so
/// without updating query-visible caches): the ingest half of
/// [`dispatch_write`], which computes the verdict response (`Ack` /
/// `Imported`). Public so a harness can time ingest and the demon sweep
/// separately.
pub fn apply_write(memex: &mut Memex, request: &WriteRequest) -> Response {
    match request.as_request() {
        Request::Event(e) => Response::Ack {
            archived: memex.submit(e.clone()),
        },
        Request::ImportBookmarks { user, html, time } => {
            let entries = import_netscape(html);
            let mut archived = 0usize;
            let mut rejected = 0usize;
            let mut unresolved = 0usize;
            for e in &entries {
                match memex.resolve_url(&e.url) {
                    Some(page) => {
                        let folder = if e.folder_path.is_empty() {
                            "/Imported".to_string()
                        } else {
                            format!("/{}", e.folder_path.join("/"))
                        };
                        let accepted = memex.submit(ClientEvent::Bookmark {
                            user: *user,
                            page,
                            url: e.url.clone(),
                            folder,
                            time: *time,
                        });
                        if accepted {
                            archived += 1;
                        } else {
                            rejected += 1;
                        }
                    }
                    None => unresolved += 1,
                }
            }
            Response::Imported {
                archived,
                rejected,
                unresolved,
            }
        }
        // Classification guarantees these never reach the write path.
        _ => Response::Error("internal: read request routed to dispatch_write".to_string()),
    }
}
