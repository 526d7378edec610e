//! A seeded single-thread schedule over one [`Service`]: one writer and
//! `READERS` readers take turns, one `Service::handle` per step, in an
//! order drawn from the seed. Every answer frame must be, byte for byte,
//! `wire::encode_response(dispatch(twin, …))` framed the same way, where
//! the twin is an in-process archive fed the same write prefix. Readers
//! repeat their questions between writes, so the read cache answers many
//! of them; a cached answer that outlives the write that changed it is a
//! byte mismatch on some seed. `Stats` and `Traces` are not asked: they
//! report on the service itself, so their answers differ from the twin's
//! by design.

use std::sync::Arc;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch, Request};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::Service;
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

const USERS: u32 = 3;
const READERS: usize = 3;
/// Writes in the writer's stream.
const WRITES: usize = 18;
/// Reads each reader makes in one schedule.
const READS: usize = 24;
const SEEDS: u64 = 8;

/// SplitMix64: the schedule's one source of choices.
struct SplitMix(u64);

impl SplitMix {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

fn visit(corpus: &Corpus, user: u32, page: u32, time: u64) -> Request {
    Request::Event(ClientEvent::Visit(VisitEvent {
        user,
        session: 1,
        page,
        url: corpus.pages[page as usize].url.clone(),
        time,
        referrer: None,
    }))
}

fn bookmark(corpus: &Corpus, user: u32, page: u32, time: u64) -> Request {
    Request::Event(ClientEvent::Bookmark {
        user,
        page,
        url: corpus.pages[page as usize].url.clone(),
        folder: format!("/topic{}", corpus.topic_of(page)),
        time,
    })
}

/// `USERS` users, each with a short trail in their own topic and two of its
/// pages bookmarked. Deterministic: the served archive and its twin are
/// both built by this.
fn world(corpus: &Arc<Corpus>) -> Memex {
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    let mut time = 0u64;
    for user in 0..USERS {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
        let pages = corpus.pages_of_topic(user as usize % 2);
        for (i, &page) in pages.iter().skip(user as usize).take(5).enumerate() {
            time += 1;
            memex.submit(ClientEvent::Visit(VisitEvent {
                user,
                session: 1,
                page,
                url: corpus.pages[page as usize].url.clone(),
                time,
                referrer: None,
            }));
            if i % 3 == 0 {
                memex.submit(ClientEvent::Bookmark {
                    user,
                    page,
                    url: corpus.pages[page as usize].url.clone(),
                    folder: format!("/topic{}", user % 2),
                    time,
                });
            }
        }
    }
    memex.run_demons().expect("demons");
    memex
}

/// The writer's stream, users in turn: visits of pages the world has not
/// seen (two users visit each), and every fourth write a bookmark.
fn writes(corpus: &Corpus) -> Vec<Request> {
    (0..WRITES)
        .map(|i| {
            let user = (i % USERS as usize) as u32;
            let page = corpus.pages_of_topic((i / 2) % 2)[8 + i / 2];
            let time = 1_000 + i as u64;
            if i % 4 == 3 {
                bookmark(corpus, user, page, time)
            } else {
                visit(corpus, user, page, time)
            }
        })
        .collect()
}

/// What reader `reader` may ask: every servlet's question about its own
/// user and its neighbour's, so each user's questions are shared by two
/// readers.
fn questions(reader: usize) -> Vec<Request> {
    let own = reader as u32 % USERS;
    [own, (own + 1) % USERS]
        .into_iter()
        .flat_map(|user| {
            [
                Request::Bill {
                    user,
                    since: 0,
                    until: u64::MAX,
                },
                Request::Recall {
                    user,
                    query: "page".into(),
                    since: 0,
                    until: u64::MAX,
                    k: 5,
                },
                Request::TrailReplay {
                    user,
                    folder: 1,
                    since: 0,
                    max_pages: 20,
                },
                Request::WhatsNew {
                    user,
                    folder: 1,
                    since: 0,
                    k: 5,
                },
                Request::SimilarSurfers { user, k: 3 },
                Request::Recommend { user, k: 5 },
                Request::ExportBookmarks { user },
                Request::ProposeFolders { user, k: 2 },
            ]
        })
        .collect()
}

/// One step: `request` through the service, stamped with `trace_id`, and
/// its frame held to the twin's answer framed the same way.
fn step(
    service: &Service,
    twin: &mut Memex,
    request: &Request,
    trace_id: u64,
) -> Result<(), String> {
    let trace = Some(TraceContext {
        trace_id,
        retry_of: None,
    });
    let frame = wire::frame_bytes(FrameKind::Request, &wire::encode_request(request), trace)
        .expect("the request fits a frame");
    let mut served = Vec::new();
    if !service.handle(wire::read_frame_meta(&mut &frame[..]), &mut served) {
        return Err(format!("{request:?} closed the connection"));
    }
    let answer = wire::encode_response(&dispatch(twin, request.clone()));
    let want = wire::frame_bytes(FrameKind::Response, &answer, trace).expect("frame");
    if served == want {
        return Ok(());
    }
    let decoded = wire::read_frame_meta(&mut &served[..])
        .and_then(|meta| wire::decode_response(&meta.payload));
    Err(format!(
        "{request:?} was answered {decoded:?}, the twin answers {:?}",
        wire::decode_response(&answer)
    ))
}

/// Run the schedule `seed` draws; the first divergence from the twin, if
/// any, and else the read-cache hits the schedule made.
fn run(corpus: &Arc<Corpus>, seed: u64) -> Result<u64, String> {
    let service = Service::new(world(corpus), 8);
    let mut twin = world(corpus);
    let writes = writes(corpus);
    let questions: Vec<Vec<Request>> = (0..READERS).map(questions).collect();
    let mut written = 0;
    let mut asked = [0usize; READERS];
    let mut rng = SplitMix(seed);
    for trace_id in 1u64.. {
        // The writer is actor `READERS`; an actor done with its work drops
        // out of the draw.
        let actors: Vec<usize> = (0..=READERS)
            .filter(|&a| match asked.get(a) {
                Some(&n) => n < READS,
                None => written < WRITES,
            })
            .collect();
        if actors.is_empty() {
            break;
        }
        let actor = actors[rng.below(actors.len())];
        let request = match asked.get_mut(actor) {
            Some(n) => {
                *n += 1;
                &questions[actor][rng.below(questions[actor].len())]
            }
            None => {
                written += 1;
                &writes[written - 1]
            }
        };
        step(&service, &mut twin, request, trace_id)
            .map_err(|e| format!("seed {seed}, step {trace_id}, after {written} writes: {e}"))?;
    }
    let snap = service.into_memex().registry().snapshot();
    Ok(snap.counter("net.read.cache.hit"))
}

#[test]
fn seeded_schedules_answer_every_step_as_the_twin_at_its_write_prefix() {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 20,
        ..CorpusConfig::default()
    }));
    for seed in 0..SEEDS {
        let hits = run(&corpus, seed).unwrap_or_else(|e| panic!("{e}"));
        assert!(hits > 0, "seed {seed}: no read was a cache hit");
    }
}
