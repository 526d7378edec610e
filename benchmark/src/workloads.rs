//! The four workloads: which requests go over which connection, in what
//! order and at what pace. Lists are fixed (never a time box) and a pure
//! function of the world, so request-determined counts repeat exactly.

use std::collections::HashSet;
use std::path::Path;

use memex_core::memex::Memex;
use memex_core::servlet::{dispatch, Request, Response};
use memex_net::wire;
use memex_server::events::{ClientEvent, VisitEvent};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use crate::world::{bookmark_event, World};

/// Request classes latencies are reported by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    Visit,
    Bookmark,
    Recall,
    TrailReplay,
    WhatsNew,
    Bill,
    SimilarSurfers,
    Recommend,
}

impl Class {
    pub const ALL: [Class; 8] = [
        Class::Visit,
        Class::Bookmark,
        Class::Recall,
        Class::TrailReplay,
        Class::WhatsNew,
        Class::Bill,
        Class::SimilarSurfers,
        Class::Recommend,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::Visit => "visit",
            Class::Bookmark => "bookmark",
            Class::Recall => "recall",
            Class::TrailReplay => "trail_replay",
            Class::WhatsNew => "whats_new",
            Class::Bill => "bill",
            Class::SimilarSurfers => "similar_surfers",
            Class::Recommend => "recommend",
        }
    }

    pub fn parse(name: &str) -> Option<Class> {
        Class::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Class of a generated request; the generator emits nothing else.
    pub fn of(request: &Request) -> Class {
        match request {
            Request::Event(ClientEvent::Bookmark { .. }) => Class::Bookmark,
            Request::Event(_) => Class::Visit,
            Request::Recall { .. } => Class::Recall,
            Request::TrailReplay { .. } => Class::TrailReplay,
            Request::WhatsNew { .. } => Class::WhatsNew,
            Request::Bill { .. } => Class::Bill,
            Request::SimilarSurfers { .. } => Class::SimilarSurfers,
            Request::Recommend { .. } => Class::Recommend,
            other => panic!("workloads never generate {}", other.name()),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Ingest,
    QueryCold,
    QueryHot,
    BrowseMix,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Ingest,
        Workload::QueryCold,
        Workload::QueryHot,
        Workload::BrowseMix,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Ingest => "ingest",
            Workload::QueryCold => "query_cold",
            Workload::QueryHot => "query_hot",
            Workload::BrowseMix => "browse_mix",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The class whose round trips are the headline latency; `None` means
    /// every request of the measured window.
    pub fn headline(self) -> Option<Class> {
        match self {
            Workload::Ingest => Some(Class::Visit),
            Workload::QueryCold | Workload::BrowseMix => Some(Class::Recall),
            Workload::QueryHot => None,
        }
    }

    /// One closed-loop connection: answers are compared one by one with the
    /// oracle and request-determined counts must repeat across trials.
    pub fn single_connection(self) -> bool {
        self != Workload::BrowseMix
    }

    /// Trials per run, each a fresh process: many short ones. A latency is
    /// the request's best over the trials and a closed-loop throughput the
    /// best trial's, so some trial must meet the host in its fast state:
    /// all the time for a throughput, which closed loops manage in one
    /// trial of three or four; during each request for a latency, which on
    /// `browse_mix`, whose requests wait behind 40 ms writes, takes more
    /// trials.
    pub fn trials(self) -> usize {
        if self.single_connection() {
            10
        } else {
            16
        }
    }
}

/// How a connection's requests are released.
#[derive(Debug, Clone, PartialEq)]
pub enum Pacing {
    /// Next request after the previous answer.
    Closed,
    /// Request `i` is due `due_ns[i]` after the window opens, whatever
    /// came before.
    Open { due_ns: Vec<u64> },
}

/// One connection's measured requests: `order` indexes into `pool`.
pub struct Stream {
    pub name: &'static str,
    pub pool: Vec<Request>,
    pub order: Vec<u32>,
    pub pacing: Pacing,
    /// The oracle's answer to each pool entry; empty when answers depend
    /// on how this connection's requests interleave with another's.
    pub expected: Vec<Response>,
}

impl Stream {
    fn in_order(name: &'static str, pool: Vec<Request>, pacing: Pacing) -> Stream {
        let order = (0..pool.len() as u32).collect();
        Stream {
            name,
            pool,
            order,
            pacing,
            expected: Vec::new(),
        }
    }
}

/// Everything a trial needs: generated by the parent process, handed to
/// each trial as a file, so the served program only ever sees requests.
pub struct Plan {
    /// Events archived in process before the server starts.
    pub prefill: usize,
    /// Sent before the measured window, answers unchecked.
    pub warmup: Vec<Request>,
    pub streams: Vec<Stream>,
    /// Reads issued after every stream has finished, with the oracle's
    /// answers from its final state (workloads that write).
    pub probe: Vec<Request>,
    pub probe_expected: Vec<Response>,
}

/// List sizes at `scale` 1.0 (`--seconds` = `run_seconds`); see README
/// "Scaling k and the lists".
const INGEST_PREFILL: usize = 1000;
const INGEST_EVENTS: f64 = 1000.0;
const WARMUP_RECALLS: usize = 50;
/// recall / trail_replay / whats_new / bill / similar_surfers / recommend,
/// weighted 50 / 20 / 10 / 10 / 5 / 5.
const COLD_MIX: [(Class, f64); 6] = [
    (Class::Recall, 200.0),
    (Class::TrailReplay, 80.0),
    (Class::WhatsNew, 40.0),
    (Class::Bill, 40.0),
    (Class::SimilarSurfers, 20.0),
    (Class::Recommend, 20.0),
];
const HOT_POOL: [(Class, usize); 6] = [
    (Class::Recall, 32),
    (Class::TrailReplay, 13),
    (Class::WhatsNew, 6),
    (Class::Bill, 7),
    (Class::SimilarSurfers, 3),
    (Class::Recommend, 3),
];
const HOT_REQUESTS: f64 = 70_000.0;
const MIX_SECONDS: f64 = 2.0;
const MIX_WRITES_PER_SEC: u32 = 25;
const MIX_READS_PER_SEC: u32 = 200;
/// recall / trail_replay / bill shares of the `browse_mix` reader.
const MIX_READS: [(Class, f64); 3] = [
    (Class::Recall, 0.6),
    (Class::TrailReplay, 0.2),
    (Class::Bill, 0.2),
];
const MIX_BOOKMARK_EVERY: usize = 10;
const PROBE_QUERIES: usize = 32;

/// Generate `workload`'s requests and the oracle's answers to them: the
/// request list is replayed through `servlet::dispatch` against a second
/// Memex built exactly like the one each trial serves.
pub fn prepare(workload: Workload, world: &World, seed: u64, scale: f64) -> Plan {
    let tag = workload as u64 + 1;
    let mut gen = Gen {
        world,
        rng: StdRng::seed_from_u64(seed ^ (tag << 56)),
        shape: StdRng::seed_from_u64(tag << 56),
        seen: HashSet::new(),
        salt: 0,
    };
    let scaled = |n: f64| ((n * scale).round() as usize).max(1);
    let full = world.events.len();
    let prefill = match workload {
        Workload::Ingest => INGEST_PREFILL.min(full),
        _ => full,
    };
    let mut oracle = world.memex(prefill);
    let mut warmup = Vec::new();
    let mut streams = match workload {
        Workload::Ingest => {
            let end = (prefill + scaled(INGEST_EVENTS)).min(full);
            let pool = world.events[prefill..end]
                .iter()
                .cloned()
                .map(Request::Event)
                .collect();
            vec![Stream::in_order("client", pool, Pacing::Closed)]
        }
        Workload::QueryCold => {
            warmup = gen.reads(&oracle, &[(Class::Recall, WARMUP_RECALLS)]);
            let mix: Vec<_> = COLD_MIX.iter().map(|&(c, n)| (c, scaled(n))).collect();
            let pool = gen.reads(&oracle, &mix);
            vec![Stream::in_order("client", pool, Pacing::Closed)]
        }
        Workload::QueryHot => {
            let pool = gen.reads(&oracle, &HOT_POOL);
            let n = pool.len() as u32;
            let order = (0..scaled(HOT_REQUESTS))
                .map(|_| gen.rng.gen_range(0u32..n))
                .collect();
            // Issued once before the window, so every measured request hits.
            warmup = pool.clone();
            vec![Stream {
                order,
                ..Stream::in_order("client", pool, Pacing::Closed)
            }]
        }
        Workload::BrowseMix => {
            let seconds = MIX_SECONDS * scale;
            let writes = (seconds * f64::from(MIX_WRITES_PER_SEC)).round() as usize;
            let reads = seconds * f64::from(MIX_READS_PER_SEC);
            let mix: Vec<_> = MIX_READS
                .iter()
                .map(|&(c, share)| (c, (reads * share).round() as usize))
                .collect();
            warmup = gen.reads(&oracle, &[(Class::Recall, WARMUP_RECALLS)]);
            let writer = gen.fresh_events(writes.max(1));
            let reader = gen.reads(&oracle, &mix);
            let write_times = gen.schedule(writer.len(), MIX_WRITES_PER_SEC);
            let read_times = gen.schedule(reader.len(), MIX_READS_PER_SEC);
            vec![
                Stream::in_order("writer", writer, write_times),
                Stream::in_order("reader", reader, read_times),
            ]
        }
    };
    // The oracle. Pool order is issue order wherever a stream writes.
    for stream in &mut streams {
        let answers: Vec<Response> = stream
            .pool
            .iter()
            .map(|r| dispatch(&mut oracle, r.clone()))
            .collect();
        if workload.single_connection() {
            stream.expected = answers;
        }
    }
    let probe = match workload {
        Workload::Ingest | Workload::BrowseMix => gen.probe(&oracle),
        Workload::QueryCold | Workload::QueryHot => Vec::new(),
    };
    let probe_expected = probe
        .iter()
        .map(|r| dispatch(&mut oracle, r.clone()))
        .collect();
    Plan {
        prefill,
        warmup,
        streams,
        probe,
        probe_expected,
    }
}

struct Gen<'a> {
    world: &'a World,
    /// Seeded by `--seed`: who asks for what (users, queries, folders,
    /// salts, which pool entry comes next).
    rng: StdRng,
    /// The same for every seed: the order of request classes, the arrival
    /// times and the fresh events. On `browse_mix` p95 is set by how 15
    /// bookmark stalls fall on the read schedule; redrawing that per seed
    /// moved it by ±12% with nothing else changed, so seeds share it.
    shape: StdRng,
    /// Every read handed out so far: lists are pairwise distinct, so a
    /// read can only hit the server's cache when a workload repeats it on
    /// purpose.
    seen: HashSet<Request>,
    salt: u64,
}

impl Gen<'_> {
    /// `counts[i].1` distinct reads of each class, shuffled together.
    fn reads(&mut self, archive: &Memex, counts: &[(Class, usize)]) -> Vec<Request> {
        let mut classes: Vec<Class> = counts
            .iter()
            .flat_map(|&(c, n)| std::iter::repeat_n(c, n))
            .collect();
        classes.shuffle(&mut self.shape);
        classes.into_iter().map(|c| self.read(archive, c)).collect()
    }

    fn read(&mut self, archive: &Memex, class: Class) -> Request {
        loop {
            // The salt makes requests distinct without changing their work:
            // `since` stays far below the first event's timestamp and `k`
            // moves within a small band.
            self.salt += 1;
            let salt = self.salt;
            let k = 8 + (salt % 8) as usize;
            let user = self.user_with_folders(archive);
            let request = match class {
                Class::Recall => Request::Recall {
                    user,
                    query: self.two_words_from_history(archive, user),
                    since: salt % 997,
                    until: u64::MAX,
                    k,
                },
                Class::TrailReplay => Request::TrailReplay {
                    user,
                    folder: self.folder_of(archive, user),
                    since: salt % 997,
                    max_pages: 40 + k,
                },
                Class::WhatsNew => Request::WhatsNew {
                    user,
                    folder: self.folder_of(archive, user),
                    // "Recently" = the second half of the surfed period.
                    since: self.world.end_time() / 2 + salt % 997,
                    k,
                },
                Class::Bill => Request::Bill {
                    user,
                    since: salt % 997,
                    until: u64::MAX - salt / 997,
                },
                Class::SimilarSurfers => Request::SimilarSurfers {
                    user,
                    k: 4 + (salt % 61) as usize,
                },
                Class::Recommend => Request::Recommend {
                    user,
                    k: 4 + (salt % 61) as usize,
                },
                Class::Visit | Class::Bookmark => unreachable!("reads only"),
            };
            if self.seen.insert(request.clone()) {
                return request;
            }
        }
    }

    fn user_with_folders(&mut self, archive: &Memex) -> u32 {
        let users = &self.world.community.users;
        loop {
            let user = users[self.rng.gen_range(0..users.len())].user;
            if !archive.folder_space_ref(user).classes().is_empty() {
                return user;
            }
        }
    }

    fn folder_of(&mut self, archive: &Memex, user: u32) -> u32 {
        let folders = archive.folder_space_ref(user).classes();
        folders[self.rng.gen_range(0..folders.len())]
    }

    /// Two words of a page this user visited (the recall question: "what
    /// was that page about X I saw?").
    fn two_words_from_history(&mut self, archive: &Memex, user: u32) -> String {
        let pages = archive.server.trails.user_pages(user, 0);
        let page = pages[self.rng.gen_range(0..pages.len())];
        let words: Vec<&str> = self.world.corpus.pages[page as usize]
            .text
            .split_whitespace()
            .collect();
        let a = words[self.rng.gen_range(0..words.len())];
        let b = words[self.rng.gen_range(0..words.len())];
        format!("{a} {b}")
    }

    /// Visits by random users to random pages after the archive's last
    /// event, every tenth a bookmark into the page's topic folder by a user
    /// who keeps that folder already: a bookmark that opens a new folder
    /// adds a seed theme, and the rebuild's cost would then drift with the
    /// seed's luck (30 ms at the start of a window, 49 ms at its end).
    fn fresh_events(&mut self, n: usize) -> Vec<Request> {
        let corpus = &self.world.corpus;
        let users = &self.world.community.users;
        let mut time = self.world.end_time();
        (0..n)
            .map(|i| {
                time += self.shape.gen_range(5_000u64..120_000);
                let user = users[self.shape.gen_range(0..users.len())].user;
                let page = self.shape.gen_range(0..corpus.num_pages()) as u32;
                Request::Event(if (i + 1) % MIX_BOOKMARK_EVERY == 0 {
                    let folder = &corpus.topic_names[corpus.topic_of(page)];
                    let keepers: Vec<u32> = users
                        .iter()
                        .map(|u| u.user)
                        .filter(|&u| {
                            let kept = &self.world.community.bookmarks;
                            kept.iter().any(|b| b.user == u && b.folder == *folder)
                        })
                        .collect();
                    let user = match keepers.len() {
                        0 => user,
                        n => keepers[self.shape.gen_range(0..n)],
                    };
                    bookmark_event(corpus, user, page, folder, time)
                } else {
                    ClientEvent::Visit(VisitEvent {
                        user,
                        session: u32::MAX - i as u32,
                        page,
                        url: corpus.pages[page as usize].url.clone(),
                        time,
                        referrer: None,
                    })
                })
            })
            .collect()
    }

    /// One arrival per `1 / per_sec` slot, placed at random inside it: the
    /// rate is exact, but the two generators never lock phase, so stalls
    /// meet the read schedule at every offset instead of one.
    fn schedule(&mut self, n: usize, per_sec: u32) -> Pacing {
        let slot = 1_000_000_000 / u64::from(per_sec);
        let due_ns = (0..n as u64)
            .map(|i| i * slot + self.shape.gen_range(0..slot))
            .collect();
        Pacing::Open { due_ns }
    }

    fn probe(&mut self, archive: &Memex) -> Vec<Request> {
        let per = PROBE_QUERIES / 4;
        self.reads(
            archive,
            &[
                (Class::Recall, PROBE_QUERIES - 3 * per),
                (Class::TrailReplay, per),
                (Class::Bill, per),
                (Class::SimilarSurfers, per),
            ],
        )
    }
}

// -- the plan file ---------------------------------------------------------
//
// Little-endian; requests and responses travel as their wire payloads
// (`wire::encode_*`), each behind a u32 length.

const STREAM_NAMES: [&str; 3] = ["client", "writer", "reader"];

fn put_u32(out: &mut Vec<u8>, v: usize) {
    out.extend_from_slice(&(v as u32).to_le_bytes());
}

fn put_list<T>(out: &mut Vec<u8>, items: &[T], encode: impl Fn(&T) -> Vec<u8>) {
    put_u32(out, items.len());
    for item in items {
        let bytes = encode(item);
        put_u32(out, bytes.len());
        out.extend_from_slice(&bytes);
    }
}

struct Cursor<'a>(&'a [u8]);

impl Cursor<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.0.len() < n {
            return Err("plan file truncated".into());
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn u32(&mut self) -> Result<usize, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]) as usize)
    }

    fn u64(&mut self) -> Result<u64, String> {
        let b: [u8; 8] = self.take(8)?.try_into().expect("took 8 bytes");
        Ok(u64::from_le_bytes(b))
    }

    fn list<T>(
        &mut self,
        decode: impl Fn(&[u8]) -> Result<T, wire::WireError>,
    ) -> Result<Vec<T>, String> {
        let n = self.u32()?;
        let mut out = Vec::new();
        for _ in 0..n {
            let len = self.u32()?;
            out.push(decode(self.take(len)?).map_err(|e| format!("plan file: {e}"))?);
        }
        Ok(out)
    }
}

impl Plan {
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        let mut out = Vec::new();
        put_u32(&mut out, self.prefill);
        put_list(&mut out, &self.warmup, wire::encode_request);
        put_u32(&mut out, self.streams.len());
        for s in &self.streams {
            let name = STREAM_NAMES.iter().position(|n| *n == s.name);
            put_u32(&mut out, name.expect("stream name is one of STREAM_NAMES"));
            match &s.pacing {
                Pacing::Closed => put_u32(&mut out, 0),
                Pacing::Open { due_ns } => {
                    put_u32(&mut out, 1);
                    put_u32(&mut out, due_ns.len());
                    for t in due_ns {
                        out.extend_from_slice(&t.to_le_bytes());
                    }
                }
            }
            put_list(&mut out, &s.pool, wire::encode_request);
            put_u32(&mut out, s.order.len());
            for &i in &s.order {
                put_u32(&mut out, i as usize);
            }
            put_list(&mut out, &s.expected, wire::encode_response);
        }
        put_list(&mut out, &self.probe, wire::encode_request);
        put_list(&mut out, &self.probe_expected, wire::encode_response);
        std::fs::write(path, out)
    }

    pub fn load(path: &Path) -> Result<Plan, String> {
        let bytes = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut c = Cursor(&bytes);
        let prefill = c.u32()?;
        let warmup = c.list(wire::decode_request)?;
        let mut streams = Vec::new();
        for _ in 0..c.u32()? {
            let name = *STREAM_NAMES
                .get(c.u32()?)
                .ok_or("plan file: unknown stream name")?;
            let pacing = match c.u32()? {
                0 => Pacing::Closed,
                _ => Pacing::Open {
                    due_ns: (0..c.u32()?).map(|_| c.u64()).collect::<Result<_, _>>()?,
                },
            };
            let pool = c.list(wire::decode_request)?;
            let order = (0..c.u32()?)
                .map(|_| c.u32().map(|i| i as u32))
                .collect::<Result<_, _>>()?;
            streams.push(Stream {
                name,
                pacing,
                pool,
                order,
                expected: c.list(wire::decode_response)?,
            });
        }
        Ok(Plan {
            prefill,
            warmup,
            streams,
            probe: c.list(wire::decode_request)?,
            probe_expected: c.list(wire::decode_response)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_file_round_trips() {
        let read = Request::Bill {
            user: 3,
            since: 7,
            until: u64::MAX,
        };
        let plan = Plan {
            prefill: 1000,
            warmup: vec![read.clone()],
            streams: vec![
                Stream {
                    order: vec![0, 0],
                    expected: vec![Response::Bill(Vec::new())],
                    ..Stream::in_order("client", vec![read.clone()], Pacing::Closed)
                },
                Stream::in_order(
                    "reader",
                    vec![read.clone()],
                    Pacing::Open {
                        due_ns: vec![5, u64::MAX],
                    },
                ),
            ],
            probe: vec![read],
            probe_expected: vec![Response::Ack { archived: true }],
        };
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("target");
        std::fs::create_dir_all(&dir).expect("target directory");
        let path = dir.join(format!("plan-test-{}.bin", std::process::id()));
        plan.save(&path).expect("save");
        let loaded = Plan::load(&path);
        std::fs::remove_file(&path).expect("remove");
        let loaded = loaded.expect("load");
        assert_eq!(loaded.prefill, plan.prefill);
        assert_eq!(loaded.warmup, plan.warmup);
        assert_eq!(loaded.probe, plan.probe);
        assert_eq!(loaded.probe_expected, plan.probe_expected);
        for (a, b) in loaded.streams.iter().zip(&plan.streams) {
            assert_eq!(
                (a.name, &a.pool, &a.order, &a.pacing, &a.expected),
                (b.name, &b.pool, &b.order, &b.pacing, &b.expected)
            );
        }
        assert_eq!(loaded.streams.len(), 2);
    }
}
