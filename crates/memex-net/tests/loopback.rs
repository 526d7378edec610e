//! Whole-stack tests. Through the [`Service`], with no socket: every
//! mining servlet answers exactly as in-process, hostile ids and unknown
//! users get typed answers, and a zero in-flight limit sheds every request
//! explicitly. Over a live `NetServer` on an ephemeral port, one smoke per
//! transport feature: buffered framing (pipelined, split, garbage,
//! over-cap), accept-queue shedding, idle close and reconnect, and a
//! shutdown whose accounting balances.

mod serve;

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use proptest::test_runner::TestRng;

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{dispatch, Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::{ClientConfig, MemexClient, NetServer, NetServerConfig, Service};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

use serve::ask;

/// The in-flight limit the services here run with.
const MAX_IN_FLIGHT: usize = 8;

const USERS: [u32; 4] = [1, 2, 3, 4];

/// The synthetic web under `community_world` (deterministic per seed).
fn community_corpus() -> Arc<Corpus> {
    Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 3,
        pages_per_topic: 25,
        ..CorpusConfig::default()
    }))
}

/// A small community surf: four users, three topics, referrer chains and
/// bookmarks, demons drained.
fn community_world() -> Memex {
    let corpus = community_corpus();
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    for &user in &USERS {
        memex
            .register_user(user, &format!("user{user}"))
            .expect("register");
    }
    let mut time = 1u64;
    for &user in &USERS {
        let topic = (user as usize - 1) % 3;
        let pages = corpus.pages_of_topic(topic);
        let mut prev: Option<u32> = None;
        for &page in pages.iter().take(8) {
            memex.submit(ClientEvent::Visit(VisitEvent {
                user,
                session: user,
                page,
                url: corpus.pages[page as usize].url.clone(),
                time,
                referrer: prev,
            }));
            prev = Some(page);
            time += 1;
        }
        // Two explicit bookmarks anchor a folder for classification.
        for &page in pages.iter().take(2) {
            memex.submit(ClientEvent::Bookmark {
                user,
                page,
                url: corpus.pages[page as usize].url.clone(),
                folder: format!("/topic{topic}"),
                time,
            });
            time += 1;
        }
    }
    memex.run_demons().expect("demons");
    memex
}

/// The per-user read-only query mix (deterministic, so the wire answers
/// can be compared with in-process answers).
fn user_requests(user: u32) -> Vec<Request> {
    vec![
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
            max_pages: 10,
        },
        Request::WhatsNew {
            user,
            folder: 1,
            since: 0,
            k: 5,
        },
        Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        },
        Request::SimilarSurfers { user, k: 3 },
        Request::Recommend { user, k: 3 },
        Request::ExportBookmarks { user },
    ]
}

#[test]
fn service_answers_match_in_process() {
    let mut memex = community_world();
    // In-process ground truth first; the same Memex then goes behind the
    // service.
    let expected: Vec<(u32, Vec<Response>)> = USERS
        .iter()
        .map(|&user| {
            let answers = user_requests(user)
                .into_iter()
                .map(|req| dispatch(&mut memex, req))
                .collect();
            (user, answers)
        })
        .collect();

    let service = Service::new(memex, MAX_IN_FLIGHT);
    let mut total_sent = 0u64;
    for (user, in_process) in &expected {
        for (i, (req, want)) in user_requests(*user).iter().zip(in_process).enumerate() {
            assert_eq!(
                &ask(&service, req, None),
                want,
                "user {user} request #{i} diverged through the service"
            );
            total_sent += 1;
        }
    }

    // Stats — itself served — must surface the net.* metrics.
    let Response::Stats(snap) = ask(&service, &Request::Stats, None) else {
        panic!("Stats request answered with a non-Stats response");
    };
    total_sent += 1;
    assert_eq!(snap.counter("net.req.ok"), total_sent - 1);
    assert_eq!(snap.counter("net.decode.errors"), 0);
    let lat = snap
        .histogram("net.req.latency")
        .expect("latency histogram in Stats");
    assert_eq!(lat.count, total_sent - 1);

    // The Memex comes back with every request answered, none shed.
    let final_snap = service.into_memex().registry().snapshot();
    assert_eq!(final_snap.counter("net.req.ok"), total_sent);
    assert_eq!(final_snap.counter("net.shed"), 0);
    assert_eq!(final_snap.counter("net.decode.errors"), 0);
}

/// Clients on their own threads, then a clean shutdown: every thread
/// joined, the Memex handed back, every request and connection counted
/// and `net.conn.active` back to zero.
#[test]
fn shutdown_after_concurrent_clients_balances_the_accounting() {
    let server = NetServer::start(community_world(), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind ephemeral port");
    let addr = server.local_addr();
    std::thread::scope(|scope| {
        for &user in &USERS {
            scope.spawn(move || {
                let mut client =
                    MemexClient::connect(addr, ClientConfig::default()).expect("connect");
                for req in &user_requests(user)[..2] {
                    let answer = client.request(req).expect("request over the wire");
                    assert!(!matches!(answer, Response::Error(_)), "{req:?}: {answer:?}");
                }
            });
        }
    });
    let snap = server.shutdown().registry().snapshot();
    assert_eq!(snap.counter("net.req.ok"), 2 * USERS.len() as u64);
    assert_eq!(snap.counter("net.conn.accepted"), USERS.len() as u64);
    assert_eq!(snap.counter("net.conn.closed"), USERS.len() as u64);
    assert_eq!(snap.counter("net.shed"), 0);
    assert_eq!(snap.counter("net.decode.errors"), 0);
    assert_eq!(
        snap.gauge("net.conn.active"),
        0,
        "connections leaked past shutdown"
    );
}

/// `shutdown` does not wait out the read timeout of a client that is
/// connected and silent: it closes the read side the worker is parked on.
#[test]
fn shutdown_does_not_wait_for_a_silent_client() {
    let config = NetServerConfig::default();
    assert_eq!(config.read_timeout, Duration::from_secs(5));
    let server = NetServer::start(community_world(), "127.0.0.1:0", config).expect("bind");
    // An answer proves a worker holds the connection; then it goes quiet.
    let mut silent =
        MemexClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    assert!(matches!(
        silent.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));
    let started = Instant::now();
    let memex = server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_secs(1), "shutdown took {took:?}");
    let snap = memex.registry().snapshot();
    assert_eq!(snap.counter("net.conn.accepted"), 1);
    assert_eq!(snap.counter("net.conn.closed"), 1);
    assert_eq!(snap.counter("net.conn.idle_closed"), 0, "not a timeout");
    assert_eq!(snap.gauge("net.conn.active"), 0);
    drop(silent);
}

/// With the accept queue full, a new connection is answered with an
/// overload frame and closed; the connections before it are served.
#[test]
fn a_connection_over_a_full_accept_queue_is_shed_with_an_overload_frame() {
    let config = NetServerConfig {
        workers: 1,
        accept_queue: 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(community_world(), "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();
    // The one worker holds the first connection: an answer proves it.
    let mut held = MemexClient::connect(addr, ClientConfig::default()).expect("connect");
    assert!(matches!(
        held.request(&Request::Stats).expect("stats"),
        Response::Stats(_)
    ));
    // The second connection waits in the queue; the third finds it full.
    let queued = TcpStream::connect(addr).expect("connect queued");
    let mut shed = TcpStream::connect(addr).expect("connect shed");
    shed.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let meta = wire::read_frame_meta(&mut shed).expect("overload frame");
    assert_eq!(
        wire::decode_response(&meta.payload).expect("decode"),
        Response::Overloaded {
            in_flight: 1,
            limit: 1
        }
    );
    drop((held, queued, shed));
    let snap = server.shutdown().registry().snapshot();
    assert_eq!(snap.counter("net.conn.accepted"), 3);
    assert_eq!(snap.counter("net.conn.rejected"), 1);
    assert_eq!(snap.counter("net.shed"), 1);
    assert_eq!(snap.counter("net.req.shed"), 0, "no request was read");
    assert_eq!(snap.gauge("net.conn.active"), 0);
}

#[test]
fn zero_capacity_sheds_every_request_explicitly() {
    let memex = community_world();
    memex.tracer().configure(memex_obs::TraceConfig {
        enabled: true,
        ..memex_obs::TraceConfig::default()
    });
    let service = Service::new(memex, 0);
    let shed_ids: Vec<u64> = (1..=5).collect();
    for &trace_id in &shed_ids {
        let trace = Some(TraceContext {
            trace_id,
            retry_of: None,
        });
        match ask(&service, &Request::Stats, trace) {
            Response::Overloaded { limit, .. } => assert_eq!(limit, 0),
            other => panic!("expected Overloaded, got {other:?}"),
        }
    }
    let memex = service.into_memex();
    let snap = memex.registry().snapshot();
    assert_eq!(snap.counter("net.shed"), 5);
    assert_eq!(snap.counter("net.req.ok"), 0);
    // A shed reply is still a served request: it must appear in the
    // `net.req.*` accounting …
    assert_eq!(snap.counter("net.req.shed"), 5);
    let lat = snap
        .histogram("net.req.latency")
        .expect("shed requests must record their latency");
    assert_eq!(lat.count, 5, "every shed reply records a latency sample");
    // … and leave a (short) complete trace, flagged as shed.
    let traces = memex.tracer().collect(false, 100);
    for id in shed_ids {
        let t = traces
            .iter()
            .find(|t| t.trace_id == id)
            .unwrap_or_else(|| panic!("shed request {id:#x} left no trace"));
        assert!(t.is_complete(), "shed trace incomplete: {t:?}");
        assert_eq!(
            t.root().expect("root").annotation("shed"),
            Some("true"),
            "shed verdict not annotated: {t:?}"
        );
    }
}

#[test]
fn garbage_frames_get_an_error_frame_then_close() {
    let memex = community_world();
    let server = NetServer::start(memex, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let addr = server.local_addr();

    let mut raw = std::net::TcpStream::connect(addr).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    raw.write_all(b"not a memex frame at all......................")
        .expect("write garbage");
    // The server answers with a typed Error response frame, then closes.
    let frame = memex_net::wire::read_frame_meta(&mut raw).expect("error frame back");
    assert_eq!(frame.kind, memex_net::FrameKind::Response);
    match memex_net::wire::decode_response(&frame.payload).expect("decode error frame") {
        Response::Error(msg) => assert!(msg.contains("decode"), "unexpected message: {msg}"),
        other => panic!("expected Error response, got {other:?}"),
    }
    // The connection closes after the breach — clean FIN, or RST if the
    // server still had unread garbage buffered. Either way: no more frames.
    let mut rest = Vec::new();
    match raw.read_to_end(&mut rest) {
        Ok(_) => assert!(
            rest.is_empty(),
            "server sent more frames after protocol breach"
        ),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
            ),
            "unexpected error after breach: {e}"
        ),
    }

    drop(raw);
    let memex = server.shutdown();
    assert!(memex.registry().snapshot().counter("net.decode.errors") >= 1);
}

/// A response too big for one frame is answered with a typed error, not a
/// dead worker: a 4 MiB folder name of `&`s fits in a request, but its
/// HTML-escaped export (≈ 20 MiB) is over the 16 MiB frame cap.
#[test]
fn over_cap_response_is_a_typed_error_and_the_worker_survives() {
    let corpus = community_corpus();
    let page = corpus.pages_of_topic(0)[0];
    let url = corpus.pages[page as usize].url.clone();
    let server = NetServer::start(community_world(), "127.0.0.1:0", NetServerConfig::default())
        .expect("bind");
    let mut client =
        MemexClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let ack = client
        .request(&Request::Event(ClientEvent::Bookmark {
            user: 1,
            page,
            url,
            folder: "&".repeat(4 << 20),
            time: 1_000_000,
        }))
        .expect("bookmark");
    assert_eq!(ack, Response::Ack { archived: true });
    match client
        .request(&Request::ExportBookmarks { user: 1 })
        .expect("export answered, not a dropped connection")
    {
        Response::Error(msg) => assert_eq!(msg, "response exceeds frame cap"),
        other => panic!(
            "expected the over-cap error, got {:?}",
            std::mem::discriminant(&other)
        ),
    }
    // The same worker and connection keep serving.
    assert!(matches!(
        client.request(&Request::Stats).expect("next request"),
        Response::Stats(_)
    ));
    drop(client);
    let snap = server.shutdown().registry().snapshot();
    assert_eq!(
        snap.gauge("net.conn.active"),
        0,
        "a worker died holding its connection"
    );
    assert_eq!(snap.counter("net.req.panics"), 0);
    assert_eq!(snap.counter("net.resp.oversized"), 1);
}

/// The client re-dials after the server closes an idle connection, and the
/// answer it returns is the new request's, read on the new connection: the
/// buffer of the dead one went with it.
#[test]
fn client_reconnects_after_server_closes_idle_connection() {
    let mut memex = community_world();
    let bill = |user| Request::Bill {
        user,
        since: 0,
        until: u64::MAX,
    };
    let expected = [1, 2].map(|user| dispatch(&mut memex, bill(user)));
    let config = NetServerConfig {
        read_timeout: Duration::from_millis(100),
        ..NetServerConfig::default()
    };
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind");
    let addr = server.local_addr();

    let mut client = MemexClient::connect(addr, ClientConfig::default()).expect("connect");
    assert_eq!(client.request(&bill(1)).expect("first"), expected[0]);
    // Outlive the server's idle timeout: the server closes our connection,
    // and the next request must transparently re-dial.
    std::thread::sleep(Duration::from_millis(400));
    assert_eq!(client.request(&bill(2)).expect("after idle"), expected[1]);

    drop(client);
    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    assert_eq!(snap.counter("net.req.ok"), 2);
    assert!(snap.counter("net.conn.idle_closed") >= 1);
    assert!(
        snap.counter("net.conn.accepted") >= 2,
        "reconnect did not open a new connection"
    );
}

/// A raw connection to a server over `community_world`, with the in-process
/// answers to `requests` computed first.
fn raw_connection(requests: &[Request]) -> (NetServer, TcpStream, Vec<Response>) {
    let mut memex = community_world();
    let expected = requests
        .iter()
        .map(|req| dispatch(&mut memex, req.clone()))
        .collect();
    let server = NetServer::start(memex, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let raw = TcpStream::connect(server.local_addr()).expect("connect raw");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    (server, raw, expected)
}

/// Two request frames in one `write_all` reach the server in one segment:
/// its buffered reader takes both in and answers both, in order.
#[test]
fn pipelined_frames_in_one_write_are_answered_in_order() {
    let requests = [
        Request::Bill {
            user: 1,
            since: 0,
            until: u64::MAX,
        },
        Request::SimilarSurfers { user: 2, k: 3 },
    ];
    let (server, mut raw, expected) = raw_connection(&requests);
    let mut both = Vec::new();
    for req in &requests {
        let frame = wire::frame_bytes(FrameKind::Request, &wire::encode_request(req), None);
        both.extend(frame.expect("frame"));
    }
    raw.write_all(&both).expect("write both frames");
    let mut conn = BufReader::new(raw);
    for want in &expected {
        let meta = wire::read_frame_meta(&mut conn).expect("answer");
        assert_eq!(meta.kind, FrameKind::Response);
        assert_eq!(&wire::decode_response(&meta.payload).expect("decode"), want);
    }
    drop(conn);
    let snap = server.shutdown().registry().snapshot();
    assert_eq!(snap.counter("net.req.ok"), 2);
}

/// A frame that arrives in two halves, with a pause between them, is
/// assembled across two `recv`s and answered with the trace context echoed.
#[test]
fn a_frame_written_in_two_halves_is_assembled() {
    let recall = Request::Recall {
        user: 1,
        query: "page".into(),
        since: 0,
        until: u64::MAX,
        k: 5,
    };
    let (server, mut raw, expected) = raw_connection(std::slice::from_ref(&recall));
    let ctx = TraceContext {
        trace_id: 9,
        retry_of: Some(8),
    };
    let frame = wire::frame_bytes(
        FrameKind::Request,
        &wire::encode_request(&recall),
        Some(ctx),
    )
    .expect("frame");
    let (first, second) = frame.split_at(frame.len() / 2);
    raw.write_all(first).expect("first half");
    std::thread::sleep(Duration::from_millis(50));
    raw.write_all(second).expect("second half");
    let meta = wire::read_frame_meta(&mut raw).expect("answer");
    assert_eq!(meta.trace, Some(ctx));
    assert_eq!(
        wire::decode_response(&meta.payload).expect("decode"),
        expected[0]
    );
    drop(raw);
    let snap = server.shutdown().registry().snapshot();
    assert_eq!(snap.counter("net.req.ok"), 1);
}

/// Unknown users are harmless: every user-scoped request variant, reads
/// and writes, carrying an id the archive never registered comes back as
/// a typed response. Nothing panics, the lock is not poisoned, and the
/// server keeps answering known users afterwards.
#[test]
fn unknown_users_get_typed_answers_never_a_poisoned_lock() {
    let service = Service::new(community_world(), MAX_IN_FLIGHT);

    // Driven by the deterministic per-test RNG (the vendored proptest
    // runner cannot share one service across generated cases).
    let mut rng = TestRng::for_test("unknown_users_get_typed_answers_never_a_poisoned_lock");
    for _case in 0..16 {
        let user = 5 + rng.below(u64::from(u32::MAX - 5)) as u32;
        let mut surface = user_requests(user);
        surface.push(Request::ProposeFolders { user, k: 3 });
        surface.push(Request::Event(ClientEvent::Bookmark {
            user,
            page: 0,
            url: "https://nowhere.invalid/".into(),
            folder: "/fuzz".into(),
            time: 1_000_000,
        }));
        surface.push(Request::ImportBookmarks {
            user,
            html: "<DL><DT><A HREF=\"https://nowhere.invalid/\">x</A></DL>".into(),
            time: 1_000_000,
        });
        for req in surface {
            if let Response::Error(msg) = &ask(&service, &req, None) {
                assert!(
                    !msg.contains("panicked") && !msg.contains("poisoned"),
                    "user {user} {req:?} crashed the dispatch: {msg}"
                );
            }
        }
    }

    for &user in &USERS {
        let bill = Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        };
        assert!(
            !matches!(ask(&service, &bill, None), Response::Error(_)),
            "user {user} stopped being answered after the fuzz"
        );
    }
    let snap = service.into_memex().registry().snapshot();
    assert_eq!(snap.counter("net.req.panics"), 0, "a dispatch panicked");
    assert_eq!(snap.counter("net.req.poisoned"), 0, "the lock was poisoned");
}

/// Hostile numbers are harmless too: page ids, referrers and folder ids
/// the archive cannot name, and counts at `usize::MAX`, through every
/// servlet. Each answer is its typed variant — never the transport's
/// "dispatch panicked" error — and known users keep being answered.
#[test]
fn hostile_ids_and_counts_get_typed_answers_through_every_servlet() {
    let service = Service::new(community_world(), MAX_IN_FLIGHT);
    let user = USERS[0];
    let requests = vec![
        Request::Event(ClientEvent::Visit(VisitEvent {
            user,
            session: u32::MAX,
            page: u32::MAX,
            url: "https://nowhere.invalid/".into(),
            time: u64::MAX,
            referrer: Some(u32::MAX - 1),
        })),
        Request::Event(ClientEvent::Bookmark {
            user,
            page: u32::MAX,
            url: "https://nowhere.invalid/".into(),
            folder: "/hostile".into(),
            time: u64::MAX,
        }),
        Request::ImportBookmarks {
            user,
            html: "<DL><DT><A HREF=\"https://nowhere.invalid/\">x</A></DL>".into(),
            time: u64::MAX,
        },
        Request::Recall {
            user,
            query: "page".into(),
            since: 0,
            until: u64::MAX,
            k: usize::MAX,
        },
        Request::TrailReplay {
            user,
            folder: u32::MAX,
            since: 0,
            max_pages: usize::MAX,
        },
        Request::WhatsNew {
            user,
            folder: u32::MAX,
            since: 1,
            k: usize::MAX,
        },
        Request::WhatsNew {
            user,
            folder: 1,
            since: u64::MAX,
            k: usize::MAX,
        },
        Request::Bill {
            user,
            since: u64::MAX,
            until: 0,
        },
        Request::SimilarSurfers {
            user,
            k: usize::MAX,
        },
        Request::Recommend {
            user,
            k: usize::MAX,
        },
        Request::ProposeFolders {
            user,
            k: usize::MAX,
        },
        Request::ExportBookmarks { user },
        Request::Traces {
            slow_only: false,
            limit: usize::MAX,
        },
        Request::Stats,
    ];
    for req in requests {
        let resp = ask(&service, &req, None);
        let typed = match (&req, &resp) {
            (Request::Event(_), Response::Ack { archived: true })
            | (Request::ImportBookmarks { .. }, Response::Imported { unresolved: 1, .. })
            | (Request::Recall { .. }, Response::Recall(_))
            | (Request::TrailReplay { .. }, Response::TrailReplay(_))
            | (Request::WhatsNew { .. }, Response::WhatsNew(_))
            | (Request::Bill { .. }, Response::Bill(_))
            | (Request::SimilarSurfers { .. }, Response::SimilarSurfers(_))
            | (Request::Recommend { .. }, Response::Recommend(_))
            | (Request::ProposeFolders { .. }, Response::Proposals(_))
            | (Request::Traces { .. }, Response::Traces(_))
            | (Request::Stats, Response::Stats(_)) => true,
            // The hostile bookmark is filed, but has no URL to export.
            (Request::ExportBookmarks { .. }, Response::Exported(html)) => {
                html.contains("topic0") && !html.contains("hostile")
            }
            _ => false,
        };
        assert!(typed, "{req:?} answered {resp:?}");
    }
    let snap = service.into_memex().registry().snapshot();
    assert_eq!(snap.counter("net.req.panics"), 0, "a dispatch panicked");
    assert_eq!(snap.counter("net.req.poisoned"), 0, "the lock was poisoned");
}

#[test]
fn lsm_engine_memex_serves_identically_and_reports_lsm_metrics() {
    // The whole stack — Memex, servlets, service — on the one storage
    // engine a default `Memex` has: queries must answer exactly as they
    // do in-process, and the served Stats snapshot must surface both the
    // job-named `store.kv.*` counters and the `store.lsm.*` family.
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 15,
        ..CorpusConfig::default()
    }));
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    memex.register_user(1, "user1").expect("register");
    for (time, &page) in (1u64..).zip(corpus.pages_of_topic(0).iter().take(8)) {
        memex.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 1,
            page,
            url: corpus.pages[page as usize].url.clone(),
            time,
            referrer: None,
        }));
    }
    memex.run_demons().expect("demons");

    let recall = Request::Recall {
        user: 1,
        query: "page".into(),
        since: 0,
        until: u64::MAX,
        k: 5,
    };
    let expected = dispatch(&mut memex, recall.clone());

    let service = Service::new(memex, MAX_IN_FLIGHT);
    assert_eq!(
        ask(&service, &recall, None),
        expected,
        "recall diverged through the service"
    );
    let Response::Stats(snap) = ask(&service, &Request::Stats, None) else {
        panic!("Stats request answered with a non-Stats response");
    };
    assert!(
        snap.counter("store.kv.puts") > 0,
        "the store served the index but registered no store.kv.puts"
    );
    assert!(
        snap.gauge("store.lsm.memtable.bytes") > 0,
        "indexed postings and metadata rows should be buffered in the memtables"
    );
}
