//! The demons `Memex` runs on the write path do work proportional to the
//! write, not to the archive — and nobody can tell:
//!
//! * the classification demon keeps a cursor into the visit log and
//!   re-walks a user's history only when their folder space changed; a
//!   differential proptest holds every user's assignments equal to the full
//!   sweep it replaced ([`FullSweep`], kept here as the reference);
//! * community themes are memoised: captured by the writer, built by the
//!   first reader. *When* they are read must not show in what they say, and
//!   a bookmark nobody follows with a theme read must build nothing.

use std::collections::HashMap;
use std::sync::Arc;

use proptest::prelude::*;

use memex_core::folders::{FolderSpace, PageAssignment};
use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch_read, dispatch_write, Classified, Request, Response};
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

const PAGES: u32 = 40;
/// Users 0..4 are registered; 4 and 5 only ever show up in events.
const USERS: u32 = 6;
const FOLDERS: [&str; 4] = ["/music", "/cycling", "/music/baroque", "/news"];

fn corpus() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: (PAGES / 2) as usize,
        ..CorpusConfig::default()
    }))
}

fn fresh_memex(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for user in 0..4u32 {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    memex
}

fn url(corpus: &Corpus, page: u32) -> String {
    match corpus.pages.get(page as usize) {
        Some(p) => p.url.clone(),
        None => format!("http://nowhere.invalid/{page}"),
    }
}

fn visit(corpus: &Corpus, user: u32, page: u32, time: u64) -> Request {
    Request::Event(ClientEvent::Visit(VisitEvent {
        user,
        session: user,
        page,
        url: url(corpus, page),
        time,
        referrer: None,
    }))
}

fn bookmark(corpus: &Corpus, user: u32, page: u32, folder: &str, time: u64) -> Request {
    Request::Event(ClientEvent::Bookmark {
        user,
        page,
        url: url(corpus, page),
        folder: folder.to_string(),
        time,
    })
}

fn write(memex: &mut Memex, request: Request) -> Response {
    match request.classify() {
        Classified::Write(w) => dispatch_write(memex, w),
        Classified::Read(_) => panic!("not a write"),
    }
}

fn read(memex: &Memex, request: Request) -> Response {
    match request.classify() {
        Classified::Read(r) => dispatch_read(memex, r),
        Classified::Write(_) => panic!("not a read"),
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// `page` may lie past the corpus: a dead link, never fetched.
    Visit {
        user: u32,
        page: u32,
    },
    Bookmark {
        user: u32,
        page: u32,
        folder: usize,
    },
    Import {
        user: u32,
        page: u32,
    },
    SetMode {
        user: u32,
        mode: ArchiveMode,
    },
    /// The three below edit `Memex::folder_space(&mut)` directly, as a
    /// folder-tab UI would, then let the demons run.
    AddFolder {
        user: u32,
        folder: usize,
    },
    FileDirectly {
        user: u32,
        page: u32,
        folder: usize,
    },
    Unassign {
        user: u32,
        page: u32,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let user = 0..USERS;
    let folder = 0..FOLDERS.len();
    prop_oneof![
        8 => (user.clone(), 0..PAGES + 4).prop_map(|(user, page)| Op::Visit { user, page }),
        4 => (user.clone(), 0..PAGES, folder.clone())
            .prop_map(|(user, page, folder)| Op::Bookmark { user, page, folder }),
        1 => (user.clone(), 0..PAGES).prop_map(|(user, page)| Op::Import { user, page }),
        1 => (user.clone(), 0u8..3).prop_map(|(user, mode)| Op::SetMode {
            user,
            mode: [ArchiveMode::Off, ArchiveMode::Private, ArchiveMode::Community][mode as usize],
        }),
        1 => (user.clone(), folder.clone()).prop_map(|(user, folder)| Op::AddFolder { user, folder }),
        1 => (user.clone(), 0..PAGES, folder)
            .prop_map(|(user, page, folder)| Op::FileDirectly { user, page, folder }),
        2 => (user, 0..PAGES).prop_map(|(user, page)| Op::Unassign { user, page }),
    ]
}

/// Bookmark filing and the classification demon as `Memex::run_demons` ran
/// them before it kept a cursor: after every write, every user's whole
/// history is walked for unassigned pages. Reads the archive half
/// (`memex.server`) of the archive under test, keeps its own folder spaces.
#[derive(Default)]
struct FullSweep {
    spaces: HashMap<u32, FolderSpace>,
    filed_bookmarks: usize,
}

impl FullSweep {
    fn space(&mut self, user: u32) -> &mut FolderSpace {
        self.spaces.entry(user).or_default()
    }

    fn run(&mut self, memex: &Memex) {
        let server = &memex.server;
        for b in &server.bookmarks[self.filed_bookmarks..] {
            let tf = server.tf(b.page).unwrap_or_default();
            let fs = self.space(b.user);
            let folder = fs.add_folder(&b.folder);
            fs.bookmark(b.page, folder, tf);
        }
        self.filed_bookmarks = server.bookmarks.len();
        for (&user, fs) in &mut self.spaces {
            for page in server.trails.user_pages(user, 0) {
                if fs.assignment(page).is_none() {
                    if let Some(tf) = server.tf(page) {
                        fs.classify(page, tf);
                    }
                }
            }
        }
    }

    fn assignments(&self) -> Vec<(u32, Vec<(u32, PageAssignment)>)> {
        let mut all: Vec<_> = self
            .spaces
            .iter()
            .map(|(&user, fs)| (user, fs.assignments().collect()))
            .collect();
        all.sort_unstable_by_key(|&(user, _)| user);
        all
    }
}

fn assignments(memex: &Memex) -> Vec<(u32, Vec<(u32, PageAssignment)>)> {
    memex
        .users()
        .into_iter()
        .map(|user| (user, memex.folder_space_ref(user).assignments().collect()))
        .collect()
}

/// Apply one op to the archive under test and mirror its folder-space half
/// onto the reference.
fn apply(op: &Op, corpus: &Corpus, time: u64, memex: &mut Memex, reference: &mut FullSweep) {
    match *op {
        Op::Visit { user, page } => {
            write(memex, visit(corpus, user, page, time));
        }
        Op::Bookmark { user, page, folder } => {
            write(memex, bookmark(corpus, user, page, FOLDERS[folder], time));
        }
        Op::Import { user, page } => {
            let html = format!(
                "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<DL><p>\n\
                 <DT><A HREF=\"{}\">imported</A>\n\
                 <DT><A HREF=\"http://nowhere.invalid/x\">gone</A>\n</DL><p>\n",
                url(corpus, page)
            );
            write(memex, Request::ImportBookmarks { user, html, time });
        }
        Op::SetMode { user, mode } => {
            write(
                memex,
                Request::Event(ClientEvent::SetMode { user, mode, time }),
            );
        }
        Op::AddFolder { user, folder } => {
            memex.folder_space(user).add_folder(FOLDERS[folder]);
            reference.space(user).add_folder(FOLDERS[folder]);
            memex.run_demons().expect("demons");
        }
        Op::FileDirectly { user, page, folder } => {
            let tf = memex.server.tf(page).unwrap_or_default().to_vec();
            for fs in [memex.folder_space(user), reference.space(user)] {
                let id = fs.add_folder(FOLDERS[folder]);
                fs.bookmark(page, id, &tf);
            }
            memex.run_demons().expect("demons");
        }
        Op::Unassign { user, page } => {
            memex.folder_space(user).unassign(page);
            reference.space(user).unassign(page);
            memex.run_demons().expect("demons");
        }
    }
    reference.run(memex);
}

/// The float scores of an answer as raw bits.
fn score_bits(resp: &Response) -> Vec<(u32, u64)> {
    match resp {
        Response::SimilarSurfers(scored) | Response::Recommend(scored) => {
            scored.iter().map(|&(id, s)| (id, s.to_bits())).collect()
        }
        other => panic!("expected scored ids, got {other:?}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every write, each user's assignments (guesses included) are
    /// what the full sweep would have made them.
    #[test]
    fn incremental_classification_equals_the_full_sweep(
        ops in proptest::collection::vec(op_strategy(), 1..60),
    ) {
        let corpus = corpus();
        let mut memex = fresh_memex(&corpus);
        let mut reference = FullSweep::default();
        for user in 0..4u32 {
            reference.space(user);
        }
        // Every case opens with a user who visits, then files two pages
        // into two folders: the second bookmark trains a classifier that can
        // place the earlier visits, so no case passes for want of a guess.
        let prologue = [
            Op::Visit { user: 0, page: 2 },
            Op::Visit { user: 0, page: PAGES / 2 + 2 },
            Op::Bookmark { user: 0, page: 0, folder: 1 },
            Op::Bookmark { user: 0, page: PAGES / 2, folder: 3 },
        ];
        for (i, op) in prologue.iter().chain(&ops).enumerate() {
            apply(op, &corpus, 1 + i as u64, &mut memex, &mut reference);
            prop_assert_eq!(assignments(&memex), reference.assignments(), "diverged after op #{} {:?}", i, op);
            if i + 1 == prologue.len() {
                let guessed = memex.folder_space_ref(0).assignments().filter(|(_, a)| !a.confirmed).count();
                prop_assert_eq!(guessed, 2, "the prologue's visits were not guessed");
            }
        }
    }

    /// Theme discovery is a pure function of the acknowledged writes: an
    /// archive asked for its themes after every write and one asked only at
    /// the end say the same, bit for bit — even though pages first visited
    /// after the last bookmark have moved the live idf by then.
    #[test]
    fn when_themes_are_read_does_not_show_in_what_they_say(
        ops in proptest::collection::vec(op_strategy(), 20..60),
    ) {
        let corpus = corpus();
        let mut eager = fresh_memex(&corpus);
        let mut lazy = fresh_memex(&corpus);
        let mut time = 0u64;
        // First visits to every page left unfetched come last, so the
        // vocabulary keeps observing documents after the last bookmark.
        let first_visits = (0..PAGES).map(|page| Op::Visit { user: page % 4, page });
        let mut docs_at_last_bookmark = 0u64;
        for op in ops.iter().cloned().chain(first_visits) {
            time += 1;
            let request = match op {
                Op::Visit { user, page } => visit(&corpus, user, page, time),
                Op::Bookmark { user, page, folder } => {
                    bookmark(&corpus, user, page, FOLDERS[folder], time)
                }
                _ => continue,
            };
            let a = write(&mut eager, request.clone());
            let b = write(&mut lazy, request.clone());
            prop_assert_eq!(a, b);
            eager.community_themes();
            if matches!(request, Request::Event(ClientEvent::Bookmark { .. })) {
                docs_at_last_bookmark = lazy.server.vocab.num_docs();
            }
        }
        prop_assert!(lazy.server.vocab.num_docs() > docs_at_last_bookmark || lazy.server.bookmarks.is_empty(),
            "idf did not move after the last bookmark");
        // `Debug` prints a float's shortest round-trip form: equal strings,
        // equal bits. (Not `assert_eq`: a failure would print both trees.)
        prop_assert!(
            format!("{:?}", eager.community_themes()) == format!("{:?}", lazy.community_themes()),
            "themes differ between the archive read after every write and the one read at the end"
        );
        for user in 0..USERS {
            for request in [
                Request::SimilarSurfers { user, k: 8 },
                Request::Recommend { user, k: 8 },
            ] {
                prop_assert_eq!(
                    score_bits(&read(&eager, request.clone())),
                    score_bits(&read(&lazy, request.clone())),
                    "{:?}", request
                );
            }
        }
    }
}

/// Bookmarks alone build nothing; the first theme read after them builds
/// once, the second not at all.
#[test]
fn themes_build_once_per_bookmark_then_read() {
    let corpus = corpus();
    let mut memex = fresh_memex(&corpus);
    let builds = |memex: &Memex| memex.registry().snapshot().counter("demon.themes.builds");
    let behind = |memex: &Memex| memex.registry().snapshot().gauge("demon.themes.behind");
    let bookmarks = 6u32;
    for i in 0..bookmarks {
        let folder = FOLDERS[(i % 2) as usize];
        let ack = write(
            &mut memex,
            bookmark(&corpus, i % 4, i, folder, u64::from(i)),
        );
        assert_eq!(ack, Response::Ack { archived: true });
        write(&mut memex, visit(&corpus, i % 4, i + 10, u64::from(i)));
    }
    assert_eq!(builds(&memex), 0, "a write ran theme discovery");
    assert_eq!(behind(&memex), i64::from(bookmarks));

    let first = read(&memex, Request::SimilarSurfers { user: 0, k: 3 });
    assert_eq!(builds(&memex), 1);
    assert_eq!(behind(&memex), 0);
    let (themes, doc_pages) = memex.community_themes();
    assert_eq!(doc_pages.len(), bookmarks as usize);
    assert!(!themes.themes.is_empty());
    assert_eq!(
        read(&memex, Request::SimilarSurfers { user: 0, k: 3 }),
        first
    );
    assert_eq!(builds(&memex), 1, "a second read built again");

    // A visit leaves the memo alone; the next bookmark drops it.
    write(&mut memex, visit(&corpus, 1, 30, 100));
    memex.community_themes();
    assert_eq!(builds(&memex), 1);
    write(&mut memex, bookmark(&corpus, 1, 30, FOLDERS[0], 101));
    assert_eq!((builds(&memex), behind(&memex)), (1, 1));
    memex.community_themes();
    assert_eq!((builds(&memex), behind(&memex)), (2, 0));
}
