//! The demons `Memex` runs on the write path do work proportional to the
//! write, not to the archive — and nobody can tell:
//!
//! * the classification demon keeps a cursor into the visit log and
//!   re-walks a user's history only when their folder space changed; a
//!   differential proptest holds every user's assignments equal to the full
//!   sweep it replaced ([`FullSweep`], kept here as the reference);
//! * community themes are memoised: captured by the writer, built by the
//!   first reader. *When* they are read must not show in what they say, and
//!   a bookmark nobody follows with a theme read must build nothing;
//! * so are the page -> theme map, the table of every surfer's profile and
//!   each user's page -> folder routing that the mining servlets answer
//!   from. Every answer must be, byte for byte, the one recomputing
//!   everything per request gives ([`FromScratch`], the read side as it
//!   was, kept here as the reference down to its own topic filter and
//!   profiles, so that it reads no memo at all — not the shared background
//!   class either), and a memo must be rebuilt only after a write that
//!   moved one of its inputs — never after a repeat visit of one's own
//!   page;
//! * and the servlets answer from the archive's per-user and per-page visit
//!   lists, recall from a BM25 merge that only scores the user's own pages.
//!   [`FromScratch`] reads neither: it filters the flat visit log, as every
//!   servlet did, and ranks the whole community before it drops what the
//!   user never visited.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use proptest::prelude::*;

use memex_bench::script::{self, bookmark, visit, Script, FOLDERS, SURFERS, USERS};
use memex_cluster::themes::profile_similarity;
use memex_core::folders::{FolderSpace, PageAssignment};
use memex_core::memex::{BillLine, Memex, RecallHit};
use memex_core::servlet::{dispatch_read, dispatch_write, Classified, Request, Response};
use memex_graph::hits::top_authorities;
use memex_graph::neighborhood::{expand, Direction};
use memex_graph::trail::{ContextNode, TrailContext};
use memex_index::search::{bm25_search, Bm25Params};
use memex_learn::nb::{NaiveBayes, NbOptions};
use memex_learn::taxonomy::{Taxonomy, TopicId};
use memex_net::wire::encode_response;
use memex_store::vfs::SplitMix64;
use memex_text::vocab::TermId;
use memex_web::corpus::Corpus;

const PAGES: u32 = 40;

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

/// A folder-tab edit: `Memex::folder_space(&mut)` changed directly, then
/// the demons run. Not a wire request, so no script has one.
#[derive(Debug, Clone, Copy)]
enum Edit {
    AddFolder { user: u32, folder: usize },
    File { user: u32, page: u32, folder: usize },
    Unassign { user: u32, page: u32 },
}

impl Edit {
    /// Make the edit in `memex`, and in `reference`'s space too if given.
    fn apply(self, memex: &mut Memex, reference: Option<&mut FullSweep>) {
        let (user, tf) = match self {
            Edit::AddFolder { user, .. } | Edit::Unassign { user, .. } => (user, Vec::new()),
            Edit::File { user, page, .. } => {
                (user, memex.server.tf(page).unwrap_or_default().to_vec())
            }
        };
        if let Some(reference) = reference {
            self.make(reference.space(user), tf.clone());
        }
        self.make(memex.folder_space(user), tf);
        memex.run_demons().expect("demons");
    }

    fn make(self, fs: &mut FolderSpace, tf: Vec<(TermId, u32)>) {
        match self {
            Edit::AddFolder { folder, .. } => {
                fs.add_folder(FOLDERS[folder]);
            }
            Edit::File { page, folder, .. } => {
                let id = fs.add_folder(FOLDERS[folder]);
                fs.bookmark(page, id, tf);
            }
            Edit::Unassign { page, .. } => fs.unassign(page),
        }
    }
}

/// The writes of the prologue every case opens with.
const PROLOGUE: usize = 4;

/// What a property feeds an archive, each write with its time: the
/// prologue, then `seed`'s script writes, two in seven followed by a
/// folder-space edit drawn from the same seed. Times rise but leave gaps
/// (the script's reads take steps too), so a cut through the middle of
/// the history is the time of its middle write ([`middle`]), not half the
/// last time.
fn ops(corpus: &Corpus, seed: u64, writes: usize) -> Vec<(u64, Request, Option<Edit>)> {
    // A user visits, then files two pages into two folders: the second
    // bookmark trains a classifier that can place the earlier visits (and
    // a topic filter that routes), so no case passes for want of a guess.
    let prologue: [Request; PROLOGUE] = [
        visit(corpus, 0, 2, 1),
        visit(corpus, 0, PAGES / 2 + 2, 2),
        bookmark(corpus, 0, 0, FOLDERS[1], 3),
        bookmark(corpus, 0, PAGES / 2, FOLDERS[3], 4),
    ];
    let mut rng = SplitMix64::new(!seed);
    let mut below = move |n: u32| (rng.next() % u64::from(n)) as u32;
    let script = Script::new(corpus, seed, writes);
    let edited = script.writes().map(|(time, write)| {
        let (user, page, folder) = (below(SURFERS), below(PAGES), below(4) as usize);
        let edit = match below(14) {
            0 => Some(Edit::AddFolder { user, folder }),
            1 => Some(Edit::File { user, page, folder }),
            2 | 3 => Some(Edit::Unassign { user, page }),
            _ => None,
        };
        (time, write.clone(), edit)
    });
    (1..)
        .zip(prologue)
        .map(|(time, write)| (time, write, None))
        .chain(edited)
        .collect()
}

/// The time of the middle write of `ops[..=i]`: asking `since` it, a
/// window cuts the history so far in two.
fn middle(ops: &[(u64, Request, Option<Edit>)], i: usize) -> u64 {
    ops[i / 2].0
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
            for page in user_pages_by_scan(memex, user) {
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

/// `TrailGraph::user_pages` as it was: a filter over the whole visit log.
fn user_pages_by_scan(memex: &Memex, user: u32) -> Vec<u32> {
    let pages: BTreeSet<u32> = memex
        .server
        .trails
        .visits()
        .iter()
        .filter(|v| v.user == user)
        .map(|v| v.page)
        .collect();
    pages.into_iter().collect()
}

/// The mining servlets as they answered before `Memex` kept a page -> theme
/// map and a per-user routing: every request retrains the user's topic
/// filter and classifies every page surfed, every profile runs
/// `page_vector` + `Themes::assign` over every page of every user. Reads the
/// archive under test through its public parts, never through a memo — and
/// the trail only as the flat `visits()` log, never through a visit list.
struct FromScratch<'a>(&'a Memex);

/// `Memex::topic_filter`'s answer as it was: one model per call, the 300
/// background documents trained in beside the user's own, every `ln` taken
/// per document asked.
struct ScratchFilter {
    nb: NaiveBayes,
    leaves: Vec<TopicId>,
    usable: bool,
}

impl ScratchFilter {
    fn classify(&self, tf: &[(TermId, u32)]) -> Option<TopicId> {
        if !self.usable {
            return None;
        }
        self.leaves.get(self.nb.predict(tf)).copied()
    }
}

impl FromScratch<'_> {
    /// `Memex::topic_filter` as it was.
    fn topic_filter(&self, user: u32) -> ScratchFilter {
        let memex = self.0;
        let fs = memex.folder_space_ref(user);
        let leaves: Vec<TopicId> = fs.classes().to_vec();
        let confirmed: Vec<(u32, TopicId)> = fs
            .assignments()
            .filter(|(_, a)| a.confirmed)
            .map(|(p, a)| (p, a.folder))
            .collect();
        let mut nb = NaiveBayes::new((leaves.len() + 1).max(2), NbOptions::default());
        let background = leaves.len();
        let mut trained = 0usize;
        for (page, folder) in &confirmed {
            if let (Some(class), Some(tf)) = (
                leaves.iter().position(|l| l == folder),
                memex.server.tf(*page),
            ) {
                nb.add_document(class, tf);
                trained += 1;
            }
        }
        let mut sampled = 0usize;
        let mut seen = HashSet::new();
        for v in memex.server.trails.visits() {
            if seen.insert(v.page) && seen.len() % 2 == 0 {
                if let Some(tf) = memex.server.tf(v.page) {
                    nb.add_document(background, tf);
                    sampled += 1;
                    if sampled >= 300 {
                        break;
                    }
                }
            }
        }
        ScratchFilter {
            nb,
            leaves,
            usable: trained > 0 && sampled > 0,
        }
    }

    /// `Memex::pages_on_topic` as it was.
    fn on_topic(&self, user: u32, folder: TopicId) -> HashSet<u32> {
        let memex = self.0;
        let filter = self.topic_filter(user);
        let all_pages: HashSet<u32> = memex
            .server
            .trails
            .visits()
            .iter()
            .map(|v| v.page)
            .collect();
        let fs = memex.folder_space_ref(user);
        let mut on_topic = HashSet::new();
        for page in all_pages {
            if let Some(a) = fs.assignment(page) {
                if a.confirmed {
                    if fs.taxonomy.is_ancestor_or_self(folder, a.folder) {
                        on_topic.insert(page);
                    }
                    continue;
                }
            }
            if let Some(tf) = memex.server.tf(page) {
                if let Some(f) = filter.classify(tf) {
                    if fs.taxonomy.is_ancestor_or_self(folder, f) {
                        on_topic.insert(page);
                    }
                }
            }
        }
        on_topic
    }

    /// `TrailGraph::replay_context` as it was: two passes over the log, the
    /// first asking of every visit whether its page is on topic.
    fn trail_replay(
        &self,
        user: u32,
        folder: TopicId,
        since: u64,
        max_pages: usize,
    ) -> TrailContext {
        let on_topic = self.on_topic(user, folder);
        let visible = || {
            let visits = self.0.server.trails.visits().iter();
            visits.filter(move |v| v.time >= since && (v.public || v.user == user))
        };
        let mut agg: HashMap<u32, ContextNode> = HashMap::new();
        for v in visible().filter(|v| on_topic.contains(&v.page)) {
            let e = agg.entry(v.page).or_insert(ContextNode {
                page: v.page,
                visit_count: 0,
                last_time: 0,
            });
            e.visit_count += 1;
            e.last_time = e.last_time.max(v.time);
        }
        let mut nodes: Vec<ContextNode> = agg.values().copied().collect();
        nodes.sort_by(|a, b| b.last_time.cmp(&a.last_time).then(a.page.cmp(&b.page)));
        nodes.truncate(max_pages);
        let kept: HashSet<u32> = nodes.iter().map(|n| n.page).collect();
        let mut edge_count: BTreeMap<(u32, u32), u32> = BTreeMap::new();
        for v in visible() {
            if let Some(r) = v.referrer {
                if kept.contains(&r) && kept.contains(&v.page) && r != v.page {
                    *edge_count.entry((r, v.page)).or_insert(0) += 1;
                }
            }
        }
        let edges = edge_count
            .into_iter()
            .map(|((a, b), c)| (a, b, c))
            .collect();
        TrailContext { nodes, edges }
    }

    /// `Memex::recall` without its cut: rank every matching page of the
    /// community, drop what the user did not visit in the window (a
    /// last-visit map scanned from the log), keep `k`.
    fn recall(&self, user: u32, query: &str, since: u64, until: u64, k: usize) -> Vec<RecallHit> {
        let memex = self.0;
        let mut terms: Vec<(u32, u32)> = memex
            .server
            .analyzer()
            .counts(query)
            .iter()
            .filter_map(|(t, &c)| memex.server.vocab.id(t).map(|id| (id, c)))
            .collect();
        terms.sort_unstable();
        let ranked = bm25_search(
            &memex.server.index,
            &terms,
            usize::MAX,
            Bm25Params::default(),
        )
        .expect("search");
        let mut last_visit: HashMap<u32, u64> = HashMap::new();
        for v in memex.server.trails.visits() {
            if v.user == user && v.time >= since && v.time <= until {
                let e = last_visit.entry(v.page).or_insert(0);
                *e = (*e).max(v.time);
            }
        }
        ranked
            .into_iter()
            .filter_map(|h| {
                let page = &memex.corpus.pages[h.doc as usize];
                Some(RecallHit {
                    page: h.doc,
                    url: page.url.clone(),
                    score: h.score,
                    last_visit: *last_visit.get(&h.doc)?,
                    snippet: memex_text::snippet::snippet(&page.text, query, 12),
                })
            })
            .take(k)
            .collect()
    }

    fn whats_new(&self, user: u32, folder: TopicId, since: u64, k: usize) -> Vec<(u32, f64)> {
        let server = &self.0.server;
        let on_topic = self.on_topic(user, folder);
        let recent: Vec<u32> = server
            .trails
            .visits()
            .iter()
            .filter(|v| v.public && v.time >= since && on_topic.contains(&v.page))
            .map(|v| v.page)
            .collect::<BTreeSet<u32>>()
            .into_iter()
            .collect();
        let base: Vec<u32> = expand(&server.web, &recent, 1, Direction::Both, 4_000)
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        let seen_before: HashSet<u32> = server
            .trails
            .visits()
            .iter()
            .filter(|v| v.user == user && v.time < since)
            .map(|v| v.page)
            .collect();
        top_authorities(&server.web, &base, base.len())
            .into_iter()
            .filter(|(p, _)| !seen_before.contains(p) && server.index.doc_len(*p) > 0)
            .take(k)
            .collect()
    }

    fn bill(&self, user: u32, since: u64, until: u64) -> Vec<BillLine> {
        let memex = self.0;
        let filter = self.topic_filter(user);
        let fs = memex.folder_space_ref(user);
        let mut per_folder: HashMap<String, (u64, u32)> = HashMap::new();
        let mut total_bytes = 0u64;
        for v in memex.server.trails.visits() {
            if v.user != user || v.time < since || v.time > until {
                continue;
            }
            let bytes = u64::from(memex.server.page_bytes(v.page).unwrap_or(0));
            let assigned = match fs.assignment(v.page) {
                Some(a) if a.confirmed => Some(a.folder),
                _ => memex.server.tf(v.page).and_then(|tf| filter.classify(tf)),
            };
            let folder_name = match assigned {
                Some(f) => fs.taxonomy.path(f),
                None => "(other)".to_string(),
            };
            let e = per_folder.entry(folder_name).or_insert((0, 0));
            e.0 += bytes;
            e.1 += 1;
            total_bytes += bytes;
        }
        let mut lines: Vec<BillLine> = per_folder
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
        lines.sort_by(|a, b| b.bytes.cmp(&a.bytes).then_with(|| a.folder.cmp(&b.folder)));
        lines
    }

    fn theme_profile(&self, user: u32) -> BTreeMap<TopicId, f64> {
        let memex = self.0;
        let pages = user_pages_by_scan(memex, user);
        let (themes, doc_pages) = memex.community_themes();
        let doc_of_page: HashMap<u32, usize> =
            doc_pages.iter().enumerate().map(|(d, &p)| (p, d)).collect();
        let mut profile: BTreeMap<TopicId, f64> = BTreeMap::new();
        let total = pages.len().max(1) as f64;
        for page in pages {
            let theme = match doc_of_page.get(&page) {
                Some(&d) => themes.doc_theme.get(d).copied().flatten(),
                None => memex.page_vector(page).and_then(|v| themes.assign(&v)),
            };
            let mut cur = theme;
            while let Some(c) = cur {
                *profile.entry(c).or_insert(0.0) += 1.0 / total;
                cur = themes.taxonomy.parent(c);
            }
        }
        profile
    }

    /// `Memex::my_place` over [`FromScratch::theme_profile`].
    fn my_place(&self, user: u32) -> Vec<(String, f64)> {
        let (themes, _) = self.0.community_themes();
        let mut place: Vec<(String, f64)> = self
            .theme_profile(user)
            .into_iter()
            .filter(|&(node, _)| node != Taxonomy::ROOT)
            .map(|(node, w)| (themes.taxonomy.path(node), w))
            .collect();
        place.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        place
    }

    fn similar_surfers(&self, user: u32, k: usize) -> Vec<(u32, f64)> {
        let profiles: HashMap<u32, BTreeMap<TopicId, f64>> = self
            .0
            .users()
            .into_iter()
            .map(|u| (u, self.theme_profile(u)))
            .collect();
        let Some(mine) = profiles.get(&user) else {
            return Vec::new();
        };
        let scored = profiles
            .iter()
            .filter(|(&u, _)| u != user)
            .map(|(&u, p)| (u, profile_similarity(mine, p)))
            .collect();
        top_scored(scored, k)
    }

    fn recommend(&self, user: u32, k: usize) -> Vec<(u32, f64)> {
        let trails = &self.0.server.trails;
        let mine: HashSet<u32> = user_pages_by_scan(self.0, user).into_iter().collect();
        let mut scores: HashMap<u32, f64> = HashMap::new();
        for (v, sim) in self.similar_surfers(user, 5) {
            if sim <= 0.0 {
                continue;
            }
            let mut counts: HashMap<u32, u32> = HashMap::new();
            for visit in trails.visits().iter().filter(|x| x.user == v && x.public) {
                *counts.entry(visit.page).or_insert(0) += 1;
            }
            for (page, c) in counts {
                if !mine.contains(&page) {
                    *scores.entry(page).or_insert(0.0) += sim * f64::from(c + 1).ln();
                }
            }
        }
        top_scored(scores.into_iter().collect(), k)
    }

    fn answer(&self, request: &Request) -> Response {
        match *request {
            Request::TrailReplay {
                user,
                folder,
                since,
                max_pages,
            } => Response::TrailReplay(self.trail_replay(user, folder, since, max_pages)),
            Request::Recall {
                user,
                ref query,
                since,
                until,
                k,
            } => Response::Recall(self.recall(user, query, since, until, k)),
            Request::WhatsNew {
                user,
                folder,
                since,
                k,
            } => Response::WhatsNew(self.whats_new(user, folder, since, k)),
            Request::Bill { user, since, until } => Response::Bill(self.bill(user, since, until)),
            Request::SimilarSurfers { user, k } => {
                Response::SimilarSurfers(self.similar_surfers(user, k))
            }
            Request::Recommend { user, k } => Response::Recommend(self.recommend(user, k)),
            ref other => panic!("no reference for {other:?}"),
        }
    }
}

fn top_scored(mut scored: Vec<(u32, f64)>, k: usize) -> Vec<(u32, f64)> {
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.0.cmp(&b.0))
    });
    scored.truncate(k);
    scored
}

/// What the tabs of `user` would ask at `time`, with `since` a cut inside
/// the history: every folder of theirs replayed and mined for what is new
/// since the cut, the bill, the soulmates, the recommendations — and two
/// recalls, in the words some page opens with: the single best hit of all
/// time (where a cut of the community's ranking would bite first) and a
/// few from after the cut.
fn mining_questions(memex: &Memex, user: u32, since: u64, time: u64) -> Vec<Request> {
    let opening_words = |page: u64| {
        let text = &memex.corpus.pages[(page % u64::from(PAGES)) as usize].text;
        text.split_whitespace()
            .take(3)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let mut questions = vec![
        Request::Bill {
            user,
            since: 0,
            until: time,
        },
        Request::SimilarSurfers { user, k: 8 },
        Request::Recommend { user, k: 8 },
        Request::Recall {
            user,
            query: opening_words(time + u64::from(user)),
            since: 0,
            until: time,
            k: 1,
        },
        Request::Recall {
            user,
            query: opening_words(time * 3 + u64::from(user)),
            since,
            until: time,
            k: 3,
        },
    ];
    for folder in memex.folder_space_ref(user).taxonomy.all_topics() {
        questions.push(Request::TrailReplay {
            user,
            folder,
            since: 0,
            max_pages: 30,
        });
        questions.push(Request::WhatsNew {
            user,
            folder,
            since,
            k: 5,
        });
    }
    questions
}

/// A `my_place` answer with its weights as raw bits.
fn place_bits(place: Vec<(String, f64)>) -> Vec<(String, u64)> {
    place
        .into_iter()
        .map(|(path, w)| (path, w.to_bits()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// After every write and every edit, each user's assignments (guesses
    /// included) are what the full sweep would have made them.
    #[test]
    fn incremental_classification_equals_the_full_sweep(seed in any::<u64>()) {
        let corpus = script::corpus(PAGES);
        let mut memex = script::archive(&corpus);
        let mut reference = FullSweep::default();
        for user in 0..USERS {
            reference.space(user);
        }
        for (i, (_, request, edit)) in ops(&corpus, seed, 30).into_iter().enumerate() {
            write(&mut memex, request.clone());
            reference.run(&memex);
            prop_assert_eq!(
                assignments(&memex),
                reference.assignments(),
                "seed {}: diverged after write #{} {:?}", seed, i, request
            );
            if let Some(edit) = edit {
                edit.apply(&mut memex, Some(&mut reference));
                reference.run(&memex);
                prop_assert_eq!(
                    assignments(&memex),
                    reference.assignments(),
                    "seed {}: diverged after {:?}", seed, edit
                );
            }
            if i + 1 == PROLOGUE {
                let guessed = memex
                    .folder_space_ref(0)
                    .assignments()
                    .filter(|(_, a)| !a.confirmed)
                    .count();
                prop_assert_eq!(guessed, 2, "the prologue's visits were not guessed");
            }
        }
    }

    /// Theme discovery is a pure function of the acknowledged writes: an
    /// archive asked for its themes after every write and one asked only at
    /// the end say the same, bit for bit — even though pages first visited
    /// after the last bookmark have moved the live idf by then.
    #[test]
    fn when_themes_are_read_does_not_show_in_what_they_say(seed in any::<u64>()) {
        let corpus = script::corpus(PAGES);
        let mut eager = script::archive(&corpus);
        let mut lazy = script::archive(&corpus);
        let script = Script::new(&corpus, seed, 30);
        // First visits to every page left unfetched come last, so the
        // vocabulary keeps observing documents after the last bookmark.
        let first_visits = (0..PAGES)
            .map(|page| visit(&corpus, page % USERS, page, 10_000 + u64::from(page)));
        let mut docs_at_last_bookmark = 0u64;
        for request in script.writes().map(|(_, w)| w.clone()).chain(first_visits) {
            let bookmarks = lazy.server.bookmarks.len();
            let a = write(&mut eager, request.clone());
            let b = write(&mut lazy, request);
            prop_assert_eq!(a, b);
            eager.community_themes();
            if lazy.server.bookmarks.len() > bookmarks {
                docs_at_last_bookmark = lazy.server.vocab.num_docs();
            }
        }
        prop_assert!(lazy.server.vocab.num_docs() > docs_at_last_bookmark || lazy.server.bookmarks.is_empty(),
            "seed {}: idf did not move after the last bookmark", seed);
        // `Debug` prints a float's shortest round-trip form: equal strings,
        // equal bits. (Not `assert_eq`: a failure would print both trees.)
        prop_assert!(
            format!("{:?}", eager.community_themes()) == format!("{:?}", lazy.community_themes()),
            "seed {}: themes differ between the archive read after every write and the one read at the end", seed
        );
        for user in 0..SURFERS {
            for request in [
                Request::SimilarSurfers { user, k: 8 },
                Request::Recommend { user, k: 8 },
            ] {
                prop_assert!(
                    encode_response(&read(&eager, request.clone()))
                        == encode_response(&read(&lazy, request.clone())),
                    "seed {}: {:?}", seed, request
                );
            }
        }
    }

    /// Every mining answer, for every user (registered or not), after every
    /// write and every edit, is the one recomputing from scratch gives — as
    /// the bytes a client would receive, and `my_place` weight for weight,
    /// bit for bit. A memo that outlived one of its inputs (a first-seen
    /// page, dead link or not; a bookmark; a `folder_space(&mut)` edit; a
    /// page new to its visitor) answers from the past and fails here.
    #[test]
    fn memoised_answers_equal_recomputing_from_scratch(seed in any::<u64>()) {
        let corpus = script::corpus(PAGES);
        let mut memex = script::archive(&corpus);
        let agrees = |memex: &Memex, since: u64, time: u64| -> Result<(), String> {
            for user in 0..SURFERS {
                for question in mining_questions(memex, user, since, time) {
                    let memoised = read(memex, question.clone());
                    let from_scratch = FromScratch(memex).answer(&question);
                    if encode_response(&memoised) != encode_response(&from_scratch) {
                        return Err(format!(
                            "{question:?}:\n memoised     {memoised:?}\n from scratch {from_scratch:?}"
                        ));
                    }
                }
                let place = place_bits(memex.my_place(user));
                if place != place_bits(FromScratch(memex).my_place(user)) {
                    return Err(format!("my_place({user}) {place:?}"));
                }
            }
            Ok(())
        };
        let ops = ops(&corpus, seed, 16);
        for (i, (time, request, edit)) in ops.iter().enumerate() {
            write(&mut memex, request.clone());
            let since = middle(&ops, i);
            let after_write = agrees(&memex, since, *time);
            prop_assert!(
                after_write.is_ok(),
                "seed {}, after {:?}, {}", seed, request, after_write.unwrap_err()
            );
            if let Some(edit) = *edit {
                edit.apply(&mut memex, None);
                let after_edit = agrees(&memex, since, *time);
                prop_assert!(
                    after_edit.is_ok(),
                    "seed {}, after {:?}, {}", seed, edit, after_edit.unwrap_err()
                );
            }
        }
    }

    /// The memos are pure functions of the acknowledged writes: an archive
    /// whose every user asks everything after every write and edit and one
    /// nobody asks until the end answer the same, byte for byte.
    #[test]
    fn when_mining_answers_are_read_does_not_show_in_what_they_say(seed in any::<u64>()) {
        let corpus = script::corpus(PAGES);
        let mut eager = script::archive(&corpus);
        let mut lazy = script::archive(&corpus);
        let ask_all = |memex: &Memex, since: u64, time: u64| {
            for user in 0..SURFERS {
                for question in mining_questions(memex, user, since, time) {
                    read(memex, question);
                }
            }
        };
        let ops = ops(&corpus, seed, 32);
        for (i, (time, request, edit)) in ops.iter().enumerate() {
            write(&mut eager, request.clone());
            write(&mut lazy, request.clone());
            let since = middle(&ops, i);
            ask_all(&eager, since, *time);
            if let Some(edit) = *edit {
                edit.apply(&mut eager, None);
                edit.apply(&mut lazy, None);
                ask_all(&eager, since, *time);
            }
        }
        let (last, now) = (ops.len() - 1, ops[ops.len() - 1].0);
        for user in 0..SURFERS {
            for question in mining_questions(&lazy, user, middle(&ops, last), now) {
                prop_assert!(
                    encode_response(&read(&eager, question.clone()))
                        == encode_response(&read(&lazy, question.clone())),
                    "seed {}: {:?}", seed, question
                );
            }
        }
    }
}

/// Bookmarks alone build nothing; the first theme read after them builds
/// once, the second not at all.
#[test]
fn themes_build_once_per_bookmark_then_read() {
    let corpus = script::corpus(PAGES);
    let mut memex = script::archive(&corpus);
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

/// Builds so far of (the page -> theme map, any user's routing, the
/// profile table).
fn memo_builds(memex: &Memex) -> (u64, u64, u64) {
    let snap = memex.registry().snapshot();
    (
        snap.counter("demon.page_themes.builds"),
        snap.counter("demon.routing.builds"),
        snap.counter("demon.profiles.builds"),
    )
}

/// Builds so far of the background class the topic filters share.
fn background_builds(memex: &Memex) -> u64 {
    memex
        .registry()
        .snapshot()
        .counter("demon.background.builds")
}

fn routings_live(memex: &Memex) -> i64 {
    memex.registry().snapshot().gauge("demon.routing.live")
}

fn trail_replay(user: u32) -> Request {
    Request::TrailReplay {
        user,
        folder: 0,
        since: 0,
        max_pages: 30,
    }
}

fn bill(user: u32) -> Request {
    Request::Bill {
        user,
        since: 0,
        until: u64::MAX,
    }
}

/// The script's world with every memo warm: users 0..4 surfed trails of
/// eight pages (pages 0..8 and 20..29 of the corpus) and filed two of them
/// into two folders; the rest of the corpus stays unseen.
fn warm_world(corpus: &Arc<Corpus>) -> Memex {
    let memex = script::world(corpus);
    assert_eq!(memo_builds(&memex), (0, 0, 0), "a write built a memo");
    ask_everything(&memex);
    assert_eq!(memo_builds(&memex), (1, 4, 1));
    assert_eq!(
        background_builds(&memex),
        1,
        "four routings, one background"
    );
    assert_eq!(routings_live(&memex), 4);
    memex
}

/// Every registered user's trail tab and bill, then one profile question.
fn ask_everything(memex: &Memex) {
    for user in 0..USERS {
        read(memex, trail_replay(user));
        read(memex, bill(user));
    }
    read(memex, Request::SimilarSurfers { user: 0, k: 3 });
}

/// A memo is rebuilt once per write that moved one of its inputs, by the
/// first reader that needs it — and a repeat visit moves none.
#[test]
fn memos_build_once_per_input_that_moved() {
    let corpus = script::corpus(PAGES);
    let mut memex = warm_world(&corpus);
    let warm = memo_builds(&memex);

    // Repeat visits of one's own page (page 1 was surfed by users 0 and 1
    // both): nothing.
    for (i, (user, page)) in [(0u32, 1u32), (1, 1), (2, PAGES / 2 + 2), (3, 3)]
        .into_iter()
        .enumerate()
    {
        write(&mut memex, visit(&corpus, user, page, 100 + i as u64));
        ask_everything(&memex);
        assert_eq!(memo_builds(&memex), warm, "repeat visit #{i} cost a build");
    }
    assert_eq!(routings_live(&memex), 4);

    // A page the community has seen but its visitor had not: their profile
    // moved, and only the profile table is rebuilt — once.
    write(&mut memex, visit(&corpus, 1, 0, 150));
    assert_eq!(memo_builds(&memex), warm, "the visit's ack built a memo");
    ask_everything(&memex);
    read(&memex, Request::Recommend { user: 2, k: 3 });
    assert_eq!(memo_builds(&memex), (warm.0, warm.1, warm.2 + 1));
    assert_eq!(routings_live(&memex), 4);
    let warm = memo_builds(&memex);

    // A bookmark by user 2 (of a page already seen): their routing and the
    // page themes are gone, nobody else's routing is.
    write(&mut memex, bookmark(&corpus, 2, 1, FOLDERS[0], 200));
    assert_eq!(memo_builds(&memex), warm, "the bookmark's ack built a memo");
    assert_eq!(routings_live(&memex), 3);
    for user in [0u32, 1, 3] {
        read(&memex, trail_replay(user));
        read(&memex, bill(user));
    }
    assert_eq!(
        memo_builds(&memex),
        warm,
        "another user's routing was rebuilt"
    );
    read(&memex, trail_replay(2));
    assert_eq!(memo_builds(&memex), (warm.0, warm.1 + 1, warm.2));
    read(&memex, bill(2));
    read(&memex, trail_replay(2));
    assert_eq!(
        memo_builds(&memex),
        (warm.0, warm.1 + 1, warm.2),
        "built twice"
    );
    read(&memex, Request::SimilarSurfers { user: 1, k: 3 });
    assert_eq!(memo_builds(&memex), (warm.0 + 1, warm.1 + 1, warm.2 + 1));
    read(&memex, Request::Recommend { user: 3, k: 3 });
    memex.my_place(0);
    assert_eq!(
        memo_builds(&memex),
        (warm.0 + 1, warm.1 + 1, warm.2 + 1),
        "built twice"
    );
    assert_eq!(
        background_builds(&memex),
        1,
        "neither a repeat visit nor a bookmark of a page already surfed moves the background"
    );
    let warm = memo_builds(&memex);

    // A page seen for the first time: every memo is gone, and each comes
    // back when (and only if) somebody asks.
    write(&mut memex, visit(&corpus, 1, 15, 300));
    assert_eq!(memo_builds(&memex), warm, "the visit's ack built a memo");
    assert_eq!(routings_live(&memex), 0);
    assert_eq!(background_builds(&memex), 1, "the visit's ack built it");
    read(&memex, bill(0));
    read(&memex, trail_replay(3));
    assert_eq!(memo_builds(&memex), (warm.0, warm.1 + 2, warm.2));
    assert_eq!(background_builds(&memex), 2, "two routings, one background");
    assert_eq!(routings_live(&memex), 2);
    read(&memex, Request::SimilarSurfers { user: 0, k: 3 });
    assert_eq!(memo_builds(&memex), (warm.0 + 1, warm.1 + 2, warm.2 + 1));
    ask_everything(&memex);
    assert_eq!(memo_builds(&memex), (warm.0 + 1, warm.1 + 4, warm.2 + 1));
    let warm = memo_builds(&memex);

    // Handing out `&mut FolderSpace` is an edit as far as anyone can tell.
    memex.folder_space(3);
    memex.run_demons().expect("demons");
    assert_eq!(routings_live(&memex), 3);
    ask_everything(&memex);
    assert_eq!(memo_builds(&memex), (warm.0, warm.1 + 1, warm.2));

    // Unregistered users have no folders to route to: nothing to build.
    read(&memex, trail_replay(5));
    read(&memex, bill(5));
    assert_eq!(memo_builds(&memex), (warm.0, warm.1 + 1, warm.2));
    assert_eq!(routings_live(&memex), 4);
    assert_eq!(background_builds(&memex), 2, "a folder edit moved it");
}

/// The background class reads `tf` rows, not just the trail: a page whose
/// fetch settles after the trail demon recorded its visit (the two demons
/// are separate consumers) moves the sample when its row appears, although
/// no page is seen for the first time by then.
#[test]
fn a_page_fetched_after_it_was_trailed_moves_the_background() {
    let corpus = script::corpus(PAGES);
    let mut memex = warm_world(&corpus);
    let page = 15u32;
    let Request::Event(event) = visit(&corpus, 1, page, 500) else {
        panic!("a visit is an event");
    };
    assert!(memex.submit(event));
    memex.server.run_trail_demon(usize::MAX);
    memex.refresh().expect("refresh");
    // Everything is rebuilt around a page that is surfed but not fetched.
    ask_everything(&memex);
    assert!(memex.server.tf(page).is_none());
    let built = background_builds(&memex);

    memex.run_demons().expect("demons");
    assert!(memex.server.tf(page).is_some(), "the fetcher caught up");
    assert_eq!(background_builds(&memex), built, "a write built it");
    for user in 0..SURFERS {
        for question in mining_questions(&memex, user, 250, 500) {
            assert!(
                encode_response(&read(&memex, question.clone()))
                    == encode_response(&FromScratch(&memex).answer(&question)),
                "{question:?}"
            );
        }
    }
    assert_eq!(
        background_builds(&memex),
        built + 1,
        "the background outlived a `tf` row it samples"
    );
}

/// Somebody without a folder space has no profile to compare: asking for
/// their soulmates or recommendations answers empty without building the
/// themes, the page -> theme map or the profile table for it — not even
/// when all three are due.
#[test]
fn a_stranger_asking_for_soulmates_builds_nothing() {
    let corpus = script::corpus(PAGES);
    let mut memex = script::archive(&corpus);
    for user in 0..USERS {
        write(&mut memex, visit(&corpus, user, user + 10, 1));
        write(&mut memex, bookmark(&corpus, user, user, FOLDERS[0], 2));
    }
    let theme_builds = |memex: &Memex| {
        let snap = memex.registry().snapshot();
        (
            snap.counter("demon.themes.builds"),
            snap.counter("demon.page_themes.builds"),
            snap.counter("demon.profiles.builds"),
        )
    };
    let stranger = SURFERS + 1;
    assert_eq!(
        read(
            &memex,
            Request::SimilarSurfers {
                user: stranger,
                k: 3
            }
        ),
        Response::SimilarSurfers(Vec::new())
    );
    assert_eq!(
        read(
            &memex,
            Request::Recommend {
                user: stranger,
                k: 3
            }
        ),
        Response::Recommend(Vec::new())
    );
    assert_eq!(
        theme_builds(&memex),
        (0, 0, 0),
        "a stranger's question built"
    );
    // The same question from a member builds all three, once — and `Stats`
    // shows how long each build took.
    read(&memex, Request::SimilarSurfers { user: 0, k: 3 });
    assert_eq!(theme_builds(&memex), (1, 1, 1));
    let Response::Stats(snap) = read(&memex, Request::Stats) else {
        panic!("expected Stats");
    };
    for timed in [
        "demon.themes.build.latency",
        "demon.page_themes.build.latency",
        "demon.profiles.build.latency",
    ] {
        assert_eq!(snap.histogram(timed).map(|h| h.count), Some(1), "{timed}");
    }
}

/// Traffic shaped like the benchmark's `browse_mix` — visits by random
/// users to random pages, every tenth event a bookmark, everybody reading
/// after every write — rebuilds no more than the writes that moved an input
/// allow: nothing at all across a repeat visit of one's own page, only the
/// profile table across a visit of a page new to its visitor alone.
#[test]
fn rebuilds_are_bounded_by_the_writes_that_moved_an_input() {
    let corpus = script::corpus(PAGES);
    let mut memex = warm_world(&corpus);
    let start = memo_builds(&memex);
    let askers = 4u64;
    let mut seen: HashSet<u32> = memex
        .server
        .trails
        .visits()
        .iter()
        .map(|v| v.page)
        .collect();
    let mut theirs: HashMap<u32, HashSet<u32>> = HashMap::new();
    for v in memex.server.trails.visits() {
        theirs.entry(v.user).or_default().insert(v.page);
    }
    let (mut bookmarks, mut first_seen, mut repeats) = (0u64, 0u64, 0u64);
    let mut new_to_user = 0u64;
    let mut state = 0x9E37_79B9u32;
    let mut draw = |n: u32| {
        state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
        (state >> 16) % n
    };
    for event in 1..=120u64 {
        let (user, page) = (draw(4), draw(PAGES));
        let before = memo_builds(&memex);
        if event % 10 == 0 {
            let folder = FOLDERS[usize::from(page >= PAGES / 2)];
            write(
                &mut memex,
                bookmark(&corpus, user, page, folder, 1_000 + event),
            );
            bookmarks += 1;
            // A bookmark may be the first the archive sees of its page.
            first_seen += u64::from(!seen.contains(&page));
            ask_everything(&memex);
        } else {
            let repeat = !seen.insert(page);
            let own_repeat = !theirs.entry(user).or_default().insert(page);
            write(&mut memex, visit(&corpus, user, page, 1_000 + event));
            ask_everything(&memex);
            let after = memo_builds(&memex);
            if own_repeat {
                repeats += 1;
                assert_eq!(after, before, "repeat visit (event {event}) cost a build");
            } else if repeat {
                new_to_user += 1;
                assert_eq!(
                    (after.0, after.1),
                    (before.0, before.1),
                    "a visit new to its user only (event {event}) cost a build"
                );
            } else {
                first_seen += 1;
            }
        }
    }
    assert!(
        repeats >= 30 && new_to_user >= 20 && first_seen >= 10,
        "{repeats} repeats, {new_to_user} new to their user, {first_seen} first seen"
    );
    let (page_themes, routing, profiles) = memo_builds(&memex);
    assert!(
        page_themes - start.0 <= bookmarks + first_seen,
        "{} page-theme builds for {bookmarks} bookmarks + {first_seen} first-seen pages",
        page_themes - start.0
    );
    assert!(
        routing - start.1 <= bookmarks + first_seen * askers,
        "{} routing builds for {bookmarks} bookmarks + {first_seen} first-seen pages x {askers} users",
        routing - start.1
    );
    assert!(
        profiles - start.2 <= bookmarks + first_seen + new_to_user,
        "{} profile builds for {bookmarks} bookmarks + {first_seen} first-seen pages + \
         {new_to_user} visits new to their user",
        profiles - start.2
    );
}
