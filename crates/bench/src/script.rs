//! One seeded request model and one twin for the whole-system tests.
//!
//! Every whole-system property has one shape: drive seeded requests
//! through the serving path, then hold each answer's bytes to those of a
//! twin fed the same writes. This module holds the parts:
//!
//! * the world: a two-topic [`corpus`], a fresh [`archive`] of [`USERS`]
//!   registered users, and the [`world`] of their [`trail`]s and
//!   bookmarks, built with the URL-resolving [`visit`] and [`bookmark`];
//! * a [`Script`] drawn from one `u64` seed: writes (visits, dead links and
//!   referrers among them, bookmarks, `ImportBookmarks`, `SetMode`) and
//!   reads over every read servlet, recall queries cut from page text. The
//!   vendored proptest does not shrink, so a seed is the whole case;
//! * the twin: an archive held up as the truth, fed a write prefix through
//!   `dispatch` and asked through [`answer`], which returns the
//!   `wire::encode_response` bytes a client receives;
//! * the drivers: [`Script::serve`], one thread through a [`Service`], and
//!   [`feed`], writes in batches of any size.
//!
//! Dev-only: the experiments do not use it.

use std::sync::Arc;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{apply_write, dispatch, Classified, Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::Service;
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex_store::vfs::SplitMix64;
use memex_web::corpus::{Corpus, CorpusConfig};

/// Users `0..USERS` are registered.
pub const USERS: u32 = 4;
/// Everybody the script writes and reads as: the registered users and two
/// strangers who never registered.
pub const SURFERS: u32 = USERS + 2;
/// Bookmark folders: two top-level ones, one nested, one more.
pub const FOLDERS: [&str; 4] = ["/music", "/cycling", "/music/baroque", "/news"];
/// The time of a script's first step; the world's writes come before it.
const START: u64 = 1_000;

/// Two topics of `pages / 2` pages each.
pub fn corpus(pages: u32) -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: pages as usize / 2,
        ..CorpusConfig::default()
    }))
}

/// `page`'s URL; a page past the corpus is a dead link.
fn url(corpus: &Corpus, page: u32) -> String {
    match corpus.pages.get(page as usize) {
        Some(p) => p.url.clone(),
        None => format!("http://nowhere.invalid/{page}"),
    }
}

/// `user` visits `page`. Two visits in three followed a link, from the
/// page `time` picks: usually another one, now and then the page itself, a
/// page nobody surfed or a dead link. Only the trail replay's edges read
/// referrers.
pub fn visit(corpus: &Corpus, user: u32, page: u32, time: u64) -> Request {
    let links = corpus.pages.len() as u32 + 4;
    Request::Event(ClientEvent::Visit(VisitEvent {
        user,
        session: user,
        page,
        url: url(corpus, page),
        time,
        referrer: (!time.is_multiple_of(3)).then_some((page + time as u32 * 7) % links),
    }))
}

/// `user` files `page` into `folder`.
pub fn bookmark(corpus: &Corpus, user: u32, page: u32, folder: &str, time: u64) -> Request {
    Request::Event(ClientEvent::Bookmark {
        user,
        page,
        url: url(corpus, page),
        folder: folder.to_string(),
        time,
    })
}

/// A fresh archive of `corpus` with users `0..USERS` registered.
pub fn archive(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for user in 0..USERS {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    memex
}

/// The pages `user` surfs in the [`world`]: six of their own topic, then
/// two of the other.
pub fn trail(corpus: &Corpus, user: u32) -> Vec<u32> {
    let topic = user as usize % 2;
    let own = corpus.pages_of_topic(topic);
    let other = corpus.pages_of_topic(1 - topic);
    let mut pages: Vec<u32> = own.iter().skip(user as usize).take(6).copied().collect();
    pages.extend(other.iter().skip(user as usize).take(2));
    pages
}

/// The [`archive`] after every user surfed their [`trail`] and bookmarked
/// its first page of each topic into that topic's folder, so every topic
/// filter has two folders to route between. Each write goes through
/// `dispatch`, so every demon has run and no memo is built.
pub fn world(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = archive(corpus);
    let mut time = 0;
    for user in 0..USERS {
        for (i, page) in trail(corpus, user).into_iter().enumerate() {
            time += 1;
            let mut writes = vec![visit(corpus, user, page, time)];
            if i % 6 == 0 {
                let folder = FOLDERS[corpus.topic_of(page)];
                writes.push(bookmark(corpus, user, page, folder, time));
            }
            for write in writes {
                assert!(!matches!(dispatch(&mut memex, write), Response::Error(_)));
            }
        }
    }
    memex
}

/// The open tabs a reload picks from: the last reads asked.
const TABS: usize = 4;

/// A seeded stream of requests. One step in three is a write; of the reads,
/// one in three reloads one of the last `TABS` asked, so a read cache
/// answers some, and a cached answer that outlived a write shows.
#[derive(Debug, Clone)]
pub struct Script {
    /// The requests in order; step `s` happens at time `START + s`.
    pub steps: Vec<Request>,
}

impl Script {
    /// `writes` writes over `corpus` and the reads around them, drawn from
    /// `seed`.
    pub fn new(corpus: &Corpus, seed: u64, writes: usize) -> Script {
        let mut draw = Draw::new(corpus, seed);
        let mut steps: Vec<Request> = Vec::new();
        let mut open: Vec<Request> = Vec::new();
        let mut written = 0;
        while written < writes {
            let time = START + steps.len() as u64;
            let user = draw.below(SURFERS);
            let step = match draw.below(9) {
                0..=2 => {
                    written += 1;
                    draw.write(user, time)
                }
                3..=4 if !open.is_empty() => open[draw.below(open.len() as u32) as usize].clone(),
                _ => {
                    let read = draw.read(user, time);
                    if open.len() == TABS {
                        open.remove(0);
                    }
                    open.push(read.clone());
                    read
                }
            };
            steps.push(step);
        }
        Script { steps }
    }

    /// The writes, each with its time.
    pub fn writes(&self) -> impl Iterator<Item = (u64, &Request)> {
        self.steps
            .iter()
            .enumerate()
            .filter(|(_, r)| !r.is_read())
            .map(|(step, r)| (START + step as u64, r))
    }

    /// Serve every step through `service`, one `Service::handle` on this
    /// thread each, traced with its step number, and hold each answer frame
    /// to `twin`'s answer framed the same way. The first frame that differs,
    /// if any.
    pub fn serve(&self, service: &Service, twin: &mut Memex) -> Result<(), String> {
        for (step, request) in self.steps.iter().enumerate() {
            let mut served = Vec::new();
            let frame = request_frame(step, request);
            if !service.handle(wire::read_frame_meta(&mut &frame[..]), &mut served) {
                return Err(format!("step {step}: {request:?} closed the connection"));
            }
            let truth = answer(twin, request);
            let want = wire::frame_bytes(FrameKind::Response, &truth, trace(step)).expect("frame");
            if served != want {
                let decoded = wire::read_frame_meta(&mut &served[..])
                    .and_then(|meta| wire::decode_response(&meta.payload));
                return Err(format!(
                    "step {step}: {request:?} was answered {decoded:?}, the twin answers {:?}",
                    wire::decode_response(&truth)
                ));
            }
        }
        Ok(())
    }
}

fn trace(step: usize) -> Option<TraceContext> {
    Some(TraceContext {
        trace_id: step as u64 + 1,
        retry_of: None,
    })
}

/// `request` framed as a client sends it at step `step`.
fn request_frame(step: usize, request: &Request) -> Vec<u8> {
    wire::frame_bytes(
        FrameKind::Request,
        &wire::encode_request(request),
        trace(step),
    )
    .expect("the request fits a frame")
}

/// The script's choices: one [`SplitMix64`] and the order in which pages
/// are surfed for the first time.
struct Draw<'a> {
    corpus: &'a Corpus,
    rng: SplitMix64,
    /// Every page once, in a seeded order; `unseen..` nobody visited yet.
    order: Vec<u32>,
    unseen: usize,
}

impl<'a> Draw<'a> {
    fn new(corpus: &'a Corpus, seed: u64) -> Draw<'a> {
        let mut draw = Draw {
            corpus,
            rng: SplitMix64::new(seed),
            order: (0..corpus.pages.len() as u32).collect(),
            unseen: 0,
        };
        for i in (1..draw.order.len()).rev() {
            let j = draw.below(i as u32 + 1) as usize;
            draw.order.swap(i, j);
        }
        draw
    }

    fn below(&mut self, n: u32) -> u32 {
        (self.rng.next() % u64::from(n)) as u32
    }

    /// A page of the corpus or one of four dead links past it.
    fn any_page(&mut self) -> u32 {
        self.below(self.order.len() as u32 + 4)
    }

    /// Where a visit goes: one in sixteen follows a dead link, three in
    /// four go to a page nobody visited while there is one, the rest back
    /// to a visited page.
    fn visit_target(&mut self) -> u32 {
        match self.below(16) {
            0 => self.order.len() as u32 + self.below(4),
            1..=12 if self.unseen < self.order.len() => {
                self.unseen += 1;
                self.order[self.unseen - 1]
            }
            _ => {
                let seen = self.below(self.unseen.max(1) as u32);
                self.order[seen as usize]
            }
        }
    }

    fn write(&mut self, user: u32, time: u64) -> Request {
        let corpus = self.corpus;
        match self.below(16) {
            0..=10 => {
                let page = self.visit_target();
                visit(corpus, user, page, time)
            }
            11..=13 => {
                let (page, folder) = (self.any_page(), self.below(4));
                bookmark(corpus, user, page, FOLDERS[folder as usize], time)
            }
            14 => {
                let html = format!(
                    "<!DOCTYPE NETSCAPE-Bookmark-file-1>\n<DL><p>\n\
                     <DT><A HREF=\"{}\">imported</A>\n\
                     <DT><A HREF=\"http://nowhere.invalid/x\">gone</A>\n</DL><p>\n",
                    url(corpus, self.any_page())
                );
                Request::ImportBookmarks { user, html, time }
            }
            _ => {
                let mode = [
                    ArchiveMode::Off,
                    ArchiveMode::Private,
                    ArchiveMode::Community,
                ][self.below(3) as usize];
                Request::Event(ClientEvent::SetMode { user, mode, time })
            }
        }
    }

    fn read(&mut self, user: u32, time: u64) -> Request {
        let k = self.below(6) as usize;
        let folder = self.below(4);
        let since = match self.below(2) {
            0 => 0,
            _ => START + u64::from(self.below((time - START) as u32 + 1)),
        };
        // Recall, the paper's first question, is asked three times as
        // often as each of the others.
        match self.below(10) {
            0..=2 => {
                let page = self.below(self.order.len() as u32);
                let words = self.below(6) as usize + 1;
                Request::Recall {
                    user,
                    query: distinct_words(&self.corpus.pages[page as usize].text, words),
                    since,
                    until: u64::MAX,
                    k,
                }
            }
            3 => Request::TrailReplay {
                user,
                folder,
                since,
                max_pages: 10,
            },
            4 => Request::WhatsNew {
                user,
                folder,
                since,
                k,
            },
            5 => Request::Bill {
                user,
                since,
                until: u64::MAX,
            },
            6 => Request::SimilarSurfers { user, k },
            7 => Request::Recommend { user, k },
            8 => Request::ExportBookmarks { user },
            _ => Request::ProposeFolders { user, k },
        }
    }
}

/// A recall query that hits: the first `n` distinct words of `text`.
fn distinct_words(text: &str, n: usize) -> String {
    let mut words: Vec<&str> = Vec::with_capacity(n);
    for w in text.split_whitespace() {
        if words.len() == n {
            break;
        }
        if !words.contains(&w) {
            words.push(w);
        }
    }
    words.join(" ")
}

/// `request` dispatched to `twin`, its answer encoded as on the wire: the
/// bytes a client of an archive fed the same writes receives.
pub fn answer(twin: &mut Memex, request: &Request) -> Vec<u8> {
    wire::encode_response(&dispatch(twin, request.clone()))
}

/// Apply `writes` to `twin` in batches of `sizes` (cycled), one demon sweep
/// per batch. A batch of one is a served write: `dispatch_write` is the
/// apply and then the sweep.
pub fn feed(twin: &mut Memex, writes: &[Request], sizes: &[usize]) {
    let mut rest = writes;
    for &size in sizes.iter().cycle() {
        if rest.is_empty() {
            break;
        }
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        for write in batch {
            let Classified::Write(write) = write.clone().classify() else {
                panic!("{write:?} is not a write");
            };
            apply_write(twin, &write);
        }
        twin.run_demons().expect("demons");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The framed request bytes of seeds 0..8 folded into one FNV-1a
    /// digest: a change to the request model moves it, so it is made on
    /// purpose, and one seed gives the same bytes in every build.
    #[test]
    fn script_bytes_are_pinned() {
        let corpus = corpus(40);
        let mut digest = 0xcbf2_9ce4_8422_2325u64;
        for seed in 0..8 {
            let script = Script::new(&corpus, seed, 24);
            for (step, request) in script.steps.iter().enumerate() {
                for byte in request_frame(step, request) {
                    digest = (digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
                }
            }
        }
        assert_eq!(digest, 0x09a8_310d_c696_5bfb);
    }
}
