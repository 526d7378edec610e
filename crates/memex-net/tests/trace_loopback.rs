//! End-to-end tracing over a live loopback server: every request — cache
//! hits included — must leave exactly one complete span tree in the
//! flight recorder, slow requests must land in the slow log with their
//! lock-wait accounting and per-layer children, and frames in a retired
//! wire version (v2–v4) must be refused with a typed error.

use std::collections::HashSet;
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memex_core::memex::{Memex, MemexOptions};
use memex_core::servlet::{Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::{ClientConfig, MemexClient, NetServer, NetServerConfig};
use memex_obs::{TraceConfig, TraceData};
use memex_server::events::{ClientEvent, VisitEvent};
use memex_web::corpus::{Corpus, CorpusConfig};

/// A small archived world: one user with a short referrer chain, demons
/// drained, so recall/bill queries have something to chew on.
fn small_world() -> (Arc<Corpus>, Memex) {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 15,
        ..CorpusConfig::default()
    }));
    let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("build memex");
    memex.register_user(1, "user1").expect("register");
    let pages = corpus.pages_of_topic(0);
    let mut prev = None;
    for (i, &page) in pages.iter().take(6).enumerate() {
        memex.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 1,
            page,
            url: corpus.pages[page as usize].url.clone(),
            time: 1 + i as u64,
            referrer: prev,
        }));
        prev = Some(page);
    }
    memex.run_demons().expect("demons");
    (corpus, memex)
}

fn traced_server_config() -> NetServerConfig {
    NetServerConfig {
        trace: TraceConfig {
            enabled: true,
            ..TraceConfig::default()
        },
        ..NetServerConfig::default()
    }
}

fn find_trace(traces: &[TraceData], id: u64) -> &TraceData {
    traces
        .iter()
        .find(|t| t.trace_id == id)
        .unwrap_or_else(|| panic!("no trace with id {id:#x} in the flight recorder"))
}

/// Does the tree contain a span with this name anywhere under the root?
fn has_span(trace: &TraceData, name: &str) -> bool {
    trace.span(name).is_some()
}

#[test]
fn every_request_records_exactly_one_complete_trace() {
    let (corpus, memex) = small_world();
    let server =
        NetServer::start(memex, "127.0.0.1:0", traced_server_config()).expect("bind ephemeral");
    let addr = server.local_addr();
    let mut client = MemexClient::connect(addr, ClientConfig::default()).expect("connect");

    let recall = Request::Recall {
        user: 1,
        query: "page".into(),
        since: 0,
        until: u64::MAX,
        k: 5,
    };
    // 1. recall (cache miss), 2. identical recall (cache hit), 3. bill,
    // 4. stats (uncacheable), 5. bookmark event (write) of a page not
    // yet fetched, so the fetch demon's index writes land in its trace.
    let page = corpus.pages_of_topic(1)[0];
    let write = Request::Event(ClientEvent::Bookmark {
        user: 1,
        page,
        url: corpus.pages[page as usize].url.clone(),
        folder: "/traced".into(),
        time: 99,
    });
    let sequence = [
        recall.clone(),
        recall,
        Request::Bill {
            user: 1,
            since: 0,
            until: u64::MAX,
        },
        Request::Stats,
        write,
    ];
    let mut ids = Vec::new();
    for req in &sequence {
        client.request(req).expect("request over wire");
        ids.push(
            client
                .last_trace_id()
                .expect("the client stamps every request"),
        );
    }

    let Response::Traces(traces) = client
        .request(&Request::Traces {
            slow_only: false,
            limit: 100,
        })
        .expect("traces over wire")
    else {
        panic!("Traces request answered with a non-Traces response");
    };

    // Exactly one trace per completed request, each a complete tree rooted
    // at net.req, keyed by the id the client stamped into the frame.
    assert_eq!(traces.len(), sequence.len(), "one trace per request");
    let unique: HashSet<u64> = traces.iter().map(|t| t.trace_id).collect();
    assert_eq!(unique.len(), traces.len(), "trace ids must be unique");
    for t in &traces {
        assert!(t.trace_id != 0, "trace ids are never zero");
        assert!(t.is_complete(), "incomplete span tree: {t:?}");
        assert_eq!(t.root().expect("root").name, "net.req");
        assert!(has_span(t, "net.decode"), "decode span missing: {t:?}");
        assert!(has_span(t, "net.write"), "write span missing: {t:?}");
    }
    for &id in &ids {
        find_trace(&traces, id);
    }

    // The cache miss dispatched for real: servlet child plus the index
    // descendant under it.
    let miss = find_trace(&traces, ids[0]);
    assert!(has_span(miss, "recall"), "servlet child missing: {miss:?}");
    assert!(
        has_span(miss, "index.bm25"),
        "index child missing: {miss:?}"
    );
    assert!(miss.root().unwrap().annotation("cache_hit").is_none());
    assert_eq!(
        miss.root().unwrap().annotation("lock_kind"),
        Some("read"),
        "read lock annotation missing: {miss:?}"
    );
    assert!(miss.root().unwrap().annotation("lock_wait_ns").is_some());

    // The identical repeat was served from the read cache — no dispatch,
    // no servlet child, but still a complete trace flagged as a hit.
    let hit = find_trace(&traces, ids[1]);
    assert_eq!(
        hit.root().unwrap().annotation("cache_hit"),
        Some("true"),
        "cache hit not annotated: {hit:?}"
    );
    assert!(!has_span(hit, "recall"), "cache hit must not dispatch");

    // The write carried its servlet child and reached the store layer.
    let write_trace = find_trace(&traces, ids[4]);
    assert_eq!(
        write_trace.root().unwrap().annotation("lock_kind"),
        Some("write")
    );
    assert!(
        has_span(write_trace, "event"),
        "write servlet child: {write_trace:?}"
    );
    assert!(
        has_span(write_trace, "store.kv.put"),
        "store child missing from write trace: {write_trace:?}"
    );

    // The tracer the server hands back agrees with what the wire reported
    // (plus the Traces request itself, which completed after collecting).
    let memex = server.shutdown();
    assert_eq!(memex.tracer().recorded(), sequence.len() + 1);
    let snap = memex.registry().snapshot();
    assert_eq!(snap.counter("trace.started"), sequence.len() as u64 + 1);
    assert_eq!(snap.counter("trace.completed"), sequence.len() as u64 + 1);
    // The cache hit recorded the servlet latency histogram (the metrics
    // blind spot this PR closes): two recalls, two observations.
    let lat = snap
        .histogram("servlet.recall.latency")
        .expect("recall latency histogram");
    assert_eq!(lat.count, 2, "cache hit skipped the latency histogram");
    assert!(snap.histogram("net.lock.wait").is_some());
}

#[test]
fn slow_requests_land_in_the_slow_log_with_lock_wait_and_layer_children() {
    let (corpus, memex) = small_world();
    let config = NetServerConfig {
        trace: TraceConfig {
            enabled: true,
            // Every request is "slow": the slow log sees them all.
            slow_threshold_ns: 0,
            ..TraceConfig::default()
        },
        ..NetServerConfig::default()
    };
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind");
    let mut client =
        MemexClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let page = corpus.pages_of_topic(1)[0];
    client
        .request(&Request::Event(ClientEvent::Bookmark {
            user: 1,
            page,
            url: corpus.pages[page as usize].url.clone(),
            folder: "/slow".into(),
            time: 50,
        }))
        .expect("write over wire");
    let write_id = client.last_trace_id().expect("stamped");

    let Response::Traces(slow) = client
        .request(&Request::Traces {
            slow_only: true,
            limit: 10,
        })
        .expect("slow log over wire")
    else {
        panic!("Traces request answered with a non-Traces response");
    };

    let t = find_trace(&slow, write_id);
    assert!(t.is_complete());
    let root = t.root().expect("root");
    assert_eq!(root.name, "net.req");
    let wait: u64 = root
        .annotation("lock_wait_ns")
        .expect("slow trace must account its lock wait")
        .parse()
        .expect("lock_wait_ns is a number");
    assert!(wait < 60_000_000_000, "implausible lock wait: {wait}ns");
    assert_eq!(root.annotation("lock_kind"), Some("write"));
    // Per-layer children: framing, servlet, storage.
    for name in ["net.decode", "net.write", "event", "store.kv.put"] {
        assert!(has_span(t, name), "slow trace lacks `{name}` child: {t:?}");
    }

    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    assert!(snap.counter("slowlog.retained") >= 2);
}

/// A first visit's ack shows its page analysis as a `text.analyze` child;
/// a repeat visit of the same page analyses nothing and has none.
#[test]
fn a_first_visit_traces_its_page_analysis_and_a_repeat_visit_does_not() {
    let (corpus, memex) = small_world();
    let server = NetServer::start(memex, "127.0.0.1:0", traced_server_config()).expect("bind");
    let mut client =
        MemexClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");

    let page = corpus.pages_of_topic(1)[0];
    let mut ids = Vec::new();
    for time in [70, 71] {
        client
            .request(&Request::Event(ClientEvent::Visit(VisitEvent {
                user: 1,
                session: 2,
                page,
                url: corpus.pages[page as usize].url.clone(),
                time,
                referrer: None,
            })))
            .expect("visit over wire");
        ids.push(client.last_trace_id().expect("stamped"));
    }

    let Response::Traces(traces) = client
        .request(&Request::Traces {
            slow_only: false,
            limit: 10,
        })
        .expect("traces over wire")
    else {
        panic!("Traces request answered with a non-Traces response");
    };
    let first = find_trace(&traces, ids[0]);
    assert!(first.is_complete());
    assert!(has_span(first, "event"), "servlet child: {first:?}");
    assert!(
        has_span(first, "text.analyze"),
        "first visit lacks its analysis: {first:?}"
    );
    let repeat = find_trace(&traces, ids[1]);
    assert!(has_span(repeat, "event"), "servlet child: {repeat:?}");
    assert!(
        !has_span(repeat, "text.analyze"),
        "a repeat visit analysed its page again: {repeat:?}"
    );
    server.shutdown();
}

#[test]
fn retired_wire_versions_are_rejected_and_the_current_one_echoes_the_trace_context() {
    let (_corpus, memex) = small_world();
    let server = NetServer::start(memex, "127.0.0.1:0", traced_server_config()).expect("bind");
    let addr = server.local_addr();
    let payload = wire::encode_request(&Request::Stats);

    // A v2, v3 or v4 frame: a typed error frame comes back (in the current
    // version — the only one the server speaks), then the connection
    // closes. Nothing was dispatched. A v4 frame is refused even though
    // only its checksum differs from v5's.
    let retired_versions = [2u8, 3, 4];
    for retired in retired_versions {
        let mut frame = wire::frame_bytes(FrameKind::Request, &payload, None).expect("frame");
        frame[2] = retired;
        let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
        raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        raw.write_all(&frame).expect("write retired-version frame");
        let meta = wire::read_frame_meta(&mut raw).expect("error frame back");
        assert_eq!(meta.kind, FrameKind::Response);
        match wire::decode_response(&meta.payload).expect("decode error frame") {
            Response::Error(msg) => assert!(
                msg.contains(&format!("unsupported wire version {retired}")),
                "unexpected message: {msg}"
            ),
            other => panic!("v{retired} frame answered with {other:?}"),
        }
        let mut rest = Vec::new();
        match raw.read_to_end(&mut rest) {
            Ok(_) => assert!(rest.is_empty(), "frames after a v{retired} rejection"),
            Err(e) => assert!(
                matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::ConnectionAborted
                ),
                "unexpected error after v{retired} rejection: {e}"
            ),
        }
    }

    // Raw current-version exchange: the server echoes the client's trace
    // id back in the response envelope and records the trace under that id.
    let ctx = TraceContext {
        trace_id: 0xDEAD_BEEF_CAFE_F00D,
        retry_of: None,
    };
    let mut raw = std::net::TcpStream::connect(addr).expect("raw connect");
    raw.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    wire::write_frame_versioned(
        &mut raw,
        wire::WIRE_VERSION,
        FrameKind::Request,
        &payload,
        Some(ctx),
    )
    .expect("write frame");
    let meta = wire::read_frame_meta(&mut raw).expect("response");
    assert_eq!(meta.trace, Some(ctx), "response must echo the trace id");

    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    assert_eq!(
        snap.counter("net.decode.errors"),
        retired_versions.len() as u64,
        "one per retired frame"
    );
    assert_eq!(
        snap.counter("net.req.ok"),
        1,
        "rejected frames never dispatch"
    );
    let traces = memex.tracer().collect(false, 100);
    assert!(
        traces.iter().any(|t| t.trace_id == ctx.trace_id),
        "propagated id absent from the flight recorder"
    );
    assert!(traces.iter().all(|t| t.is_complete()));
}

/// A retried read must be a *new* trace, linked to the dead attempt — not
/// an alias of it. The client mints a fresh id per attempt and stamps the
/// dead attempt's id as `retry_of`; the server annotates the answering
/// root span with it.
#[test]
fn retried_read_gets_fresh_trace_id_linked_to_dead_attempt() {
    let (_corpus, memex) = small_world();
    let config = NetServerConfig {
        // Close idle connections quickly so the test can kill the client's
        // connection under it by just sleeping.
        read_timeout: Duration::from_millis(100),
        ..traced_server_config()
    };
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind");
    let seed = 0x5EED_5EED_5EED_5EED;
    let mut client = MemexClient::connect(
        server.local_addr(),
        ClientConfig {
            trace_seed: seed,
            ..ClientConfig::default()
        },
    )
    .expect("connect");

    // The client's id sequence is deterministic: request 1 burns id_first;
    // request 2's dead attempt burns id_dead; its retry answers as
    // id_retry with retry_of = id_dead.
    let expected_ids = memex_obs::trace::TraceIdGen::seeded(seed);
    let id_first = expected_ids.next();
    let id_dead = expected_ids.next();
    let id_retry = expected_ids.next();

    let bill = Request::Bill {
        user: 1,
        since: 0,
        until: u64::MAX,
    };
    client.request(&bill).expect("first request");
    assert_eq!(client.last_trace_id(), Some(id_first));

    // Outlive the server's idle timeout: the connection dies underneath
    // the client, so the next read request is transparently retried on a
    // fresh connection.
    std::thread::sleep(Duration::from_millis(400));
    client.request(&bill).expect("retried request");
    assert_eq!(
        client.last_trace_id(),
        Some(id_retry),
        "the answering attempt must carry a fresh id, not re-use {id_dead:#x}"
    );

    let memex = server.shutdown();
    let traces = memex.tracer().collect(false, 100);
    // No span tree aliases the dead attempt's id, and the answering
    // attempt's tree links back to it.
    assert!(
        !traces.iter().any(|t| t.trace_id == id_dead),
        "dead attempt's id must not own a recorded tree"
    );
    let retry = find_trace(&traces, id_retry);
    assert!(retry.is_complete());
    assert_eq!(
        retry.root().expect("root").annotation("retry_of"),
        Some(id_dead.to_string().as_str()),
        "retry not linked to its dead attempt: {retry:?}"
    );
    // The first request was an ordinary, unlinked trace.
    let first = find_trace(&traces, id_first);
    assert_eq!(first.root().expect("root").annotation("retry_of"), None);
}

/// Tracing disabled must stay cheap. A hard <5% bound is too flaky for
/// shared CI hardware, so this asserts a lenient envelope — the precise
/// off/on ratio is the benchmark's `bench.trace_overhead_pct` (`benchmark/`).
#[test]
fn disabled_tracing_keeps_request_throughput() {
    fn best_elapsed(enabled: bool) -> Duration {
        let mut best = Duration::MAX;
        for _ in 0..3 {
            let (_corpus, memex) = small_world();
            let config = NetServerConfig {
                trace: TraceConfig {
                    enabled,
                    ..TraceConfig::default()
                },
                ..NetServerConfig::default()
            };
            let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind");
            let mut client = MemexClient::connect(server.local_addr(), ClientConfig::default())
                .expect("connect");
            let req = Request::Bill {
                user: 1,
                since: 0,
                until: u64::MAX,
            };
            let started = Instant::now();
            for _ in 0..200 {
                client.request(&req).expect("request");
            }
            best = best.min(started.elapsed());
            server.shutdown();
        }
        best
    }

    let off = best_elapsed(false);
    let on = best_elapsed(true);
    // Lenient both ways: neither mode may be drastically slower than the
    // other (catches a disabled path that still does real work, and an
    // enabled path with pathological contention).
    assert!(
        off <= on.saturating_mul(3),
        "tracing-off ({off:?}) drastically slower than tracing-on ({on:?})"
    );
    assert!(
        on <= off.saturating_mul(5),
        "tracing-on ({on:?}) pathologically slower than tracing-off ({off:?})"
    );
}
