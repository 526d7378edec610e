//! Codec round-trip property: an arbitrary `Request`/`Response` of *every*
//! variant encodes and decodes back to an equal value, standalone and
//! through a full checksummed frame.
//!
//! Variant coverage is guarded twice: the exhaustive `match`es that
//! `wire.rs`'s `wire_enum!` generates (and `request_variant_index` /
//! `response_variant_index` below) make a newly added variant a *compile*
//! error until the codec and these strategies learn it, and
//! `strategies_cover_every_variant` fails at runtime if a strategy arm is
//! missing. Round trips cannot see a change made symmetrically to both
//! directions, so `fixed_values_encode_to_committed_bytes` pins the payload
//! bytes and `fixed_frame_encodes_to_committed_bytes` the envelope's.

mod common;

use proptest::prelude::*;
use proptest::test_runner::TestRng;

use common::decode_frame;
use memex_core::memex::{BillLine, FolderProposal, RecallHit};
use memex_core::servlet::{Request, Response};
use memex_graph::trail::{ContextNode, TrailContext};
use memex_net::wire;
use memex_obs::{Event, HistogramSnapshot, Snapshot, SpanData, TraceData, NUM_BUCKETS};
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex_store::codec;

// ---------------------------------------------------------------------------
// Strategies
// ---------------------------------------------------------------------------

fn arb_string() -> impl Strategy<Value = String> {
    // Printable ASCII plus occasional multi-byte codepoints: exercises the
    // UTF-8 path of the string codec.
    ".{0,24}"
}

fn arb_mode() -> impl Strategy<Value = ArchiveMode> {
    prop_oneof![
        Just(ArchiveMode::Off),
        Just(ArchiveMode::Private),
        Just(ArchiveMode::Community),
    ]
}

fn arb_event() -> BoxedStrategy<ClientEvent> {
    prop_oneof![
        (
            any::<u32>(),
            any::<u32>(),
            any::<u32>(),
            arb_string(),
            any::<u64>(),
            prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        )
            .prop_map(|(user, session, page, url, time, referrer)| {
                ClientEvent::Visit(VisitEvent {
                    user,
                    session,
                    page,
                    url,
                    time,
                    referrer,
                })
            }),
        (
            any::<u32>(),
            any::<u32>(),
            arb_string(),
            arb_string(),
            any::<u64>()
        )
            .prop_map(|(user, page, url, folder, time)| ClientEvent::Bookmark {
                user,
                page,
                url,
                folder,
                time
            }),
        (any::<u32>(), arb_mode(), any::<u64>())
            .prop_map(|(user, mode, time)| ClientEvent::SetMode { user, mode, time }),
    ]
    .boxed()
}

fn arb_request() -> BoxedStrategy<Request> {
    prop_oneof![
        arb_event().prop_map(Request::Event),
        (
            any::<u32>(),
            arb_string(),
            any::<u64>(),
            any::<u64>(),
            any::<usize>()
        )
            .prop_map(|(user, query, since, until, k)| Request::Recall {
                user,
                query,
                since,
                until,
                k
            }),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<usize>()).prop_map(
            |(user, folder, since, max_pages)| Request::TrailReplay {
                user,
                folder,
                since,
                max_pages
            }
        ),
        (any::<u32>(), any::<u32>(), any::<u64>(), any::<usize>()).prop_map(
            |(user, folder, since, k)| Request::WhatsNew {
                user,
                folder,
                since,
                k
            }
        ),
        (any::<u32>(), any::<u64>(), any::<u64>()).prop_map(|(user, since, until)| Request::Bill {
            user,
            since,
            until
        }),
        (any::<u32>(), any::<usize>()).prop_map(|(user, k)| Request::SimilarSurfers { user, k }),
        (any::<u32>(), any::<usize>()).prop_map(|(user, k)| Request::Recommend { user, k }),
        (any::<u32>(), arb_string(), any::<u64>())
            .prop_map(|(user, html, time)| Request::ImportBookmarks { user, html, time }),
        any::<u32>().prop_map(|user| Request::ExportBookmarks { user }),
        (any::<u32>(), any::<usize>()).prop_map(|(user, k)| Request::ProposeFolders { user, k }),
        Just(Request::Stats),
        (any::<bool>(), any::<usize>())
            .prop_map(|(slow_only, limit)| Request::Traces { slow_only, limit }),
    ]
    .boxed()
}

fn arb_trace() -> impl Strategy<Value = TraceData> {
    (
        any::<u64>(),
        proptest::collection::vec(
            (
                any::<u32>(),
                prop_oneof![Just(None), any::<u32>().prop_map(Some)],
                arb_string(),
                any::<u64>(),
                any::<u64>(),
                proptest::collection::vec((arb_string(), arb_string()), 0..3),
            )
                .prop_map(|(id, parent, name, start_ns, end_ns, annotations)| {
                    SpanData {
                        id,
                        parent,
                        name,
                        start_ns,
                        end_ns,
                        annotations,
                    }
                }),
            0..5,
        ),
    )
        .prop_map(|(trace_id, spans)| TraceData { trace_id, spans })
}

fn arb_scored() -> impl Strategy<Value = Vec<(u32, f64)>> {
    proptest::collection::vec((any::<u32>(), -1.0e12f64..1.0e12), 0..6)
}

fn arb_trail() -> impl Strategy<Value = TrailContext> {
    (
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u64>()), 0..6),
        proptest::collection::vec((any::<u32>(), any::<u32>(), any::<u32>()), 0..8),
    )
        .prop_map(|(nodes, edges)| TrailContext {
            nodes: nodes
                .into_iter()
                .map(|(page, visit_count, last_time)| ContextNode {
                    page,
                    visit_count,
                    last_time,
                })
                .collect(),
            edges,
        })
}

fn arb_histogram() -> impl Strategy<Value = HistogramSnapshot> {
    (
        proptest::collection::vec(any::<u64>(), NUM_BUCKETS),
        any::<u64>(),
        any::<u64>(),
    )
        .prop_map(|(bucket_vec, count, sum)| {
            let mut buckets = [0u64; NUM_BUCKETS];
            buckets.copy_from_slice(&bucket_vec);
            HistogramSnapshot {
                buckets,
                count,
                sum,
            }
        })
}

fn arb_snapshot() -> impl Strategy<Value = Snapshot> {
    (
        proptest::collection::vec((arb_string(), any::<u64>()), 0..4),
        proptest::collection::vec((arb_string(), any::<i64>()), 0..4),
        proptest::collection::vec((arb_string(), arb_histogram()), 0..3),
        proptest::collection::vec(
            (
                arb_string(),
                proptest::collection::vec(
                    (any::<u64>(), arb_string()).prop_map(|(seq, message)| Event { seq, message }),
                    0..3,
                ),
            ),
            0..3,
        ),
    )
        .prop_map(|(counters, gauges, histograms, events)| Snapshot {
            counters,
            gauges,
            histograms,
            events,
        })
}

fn arb_response() -> BoxedStrategy<Response> {
    prop_oneof![
        any::<bool>().prop_map(|archived| Response::Ack { archived }),
        proptest::collection::vec(
            (
                any::<u32>(),
                arb_string(),
                -1.0e6f32..1.0e6f32,
                any::<u64>(),
                arb_string()
            )
                .prop_map(|(page, url, score, last_visit, snippet)| RecallHit {
                    page,
                    url,
                    score,
                    last_visit,
                    snippet
                }),
            0..5
        )
        .prop_map(Response::Recall),
        arb_trail().prop_map(Response::TrailReplay),
        arb_scored().prop_map(Response::WhatsNew),
        proptest::collection::vec(
            (arb_string(), any::<u64>(), any::<u32>(), -1.0f64..2.0f64).prop_map(
                |(folder, bytes, visits, fraction)| BillLine {
                    folder,
                    bytes,
                    visits,
                    fraction
                }
            ),
            0..5
        )
        .prop_map(Response::Bill),
        arb_scored().prop_map(Response::SimilarSurfers),
        arb_scored().prop_map(Response::Recommend),
        (any::<usize>(), any::<usize>(), any::<usize>()).prop_map(
            |(archived, rejected, unresolved)| Response::Imported {
                archived,
                rejected,
                unresolved
            }
        ),
        arb_string().prop_map(Response::Exported),
        proptest::collection::vec(
            (arb_string(), proptest::collection::vec(any::<u32>(), 0..6))
                .prop_map(|(name, pages)| FolderProposal { name, pages }),
            0..4
        )
        .prop_map(Response::Proposals),
        arb_snapshot().prop_map(Response::Stats),
        proptest::collection::vec(arb_trace(), 0..3).prop_map(Response::Traces),
        arb_string().prop_map(Response::Error),
        (any::<u32>(), any::<u32>())
            .prop_map(|(in_flight, limit)| Response::Overloaded { in_flight, limit }),
    ]
    .boxed()
}

// ---------------------------------------------------------------------------
// Variant-coverage guard (wildcard-free on purpose)
// ---------------------------------------------------------------------------

const REQUEST_VARIANTS: usize = 12;
const RESPONSE_VARIANTS: usize = 14;

fn request_variant_index(r: &Request) -> usize {
    match r {
        Request::Event(_) => 0,
        Request::Recall { .. } => 1,
        Request::TrailReplay { .. } => 2,
        Request::WhatsNew { .. } => 3,
        Request::Bill { .. } => 4,
        Request::SimilarSurfers { .. } => 5,
        Request::Recommend { .. } => 6,
        Request::ImportBookmarks { .. } => 7,
        Request::ExportBookmarks { .. } => 8,
        Request::ProposeFolders { .. } => 9,
        Request::Stats => 10,
        Request::Traces { .. } => 11,
    }
}

fn response_variant_index(r: &Response) -> usize {
    match r {
        Response::Ack { .. } => 0,
        Response::Recall(_) => 1,
        Response::TrailReplay(_) => 2,
        Response::WhatsNew(_) => 3,
        Response::Bill(_) => 4,
        Response::SimilarSurfers(_) => 5,
        Response::Recommend(_) => 6,
        Response::Imported { .. } => 7,
        Response::Exported(_) => 8,
        Response::Proposals(_) => 9,
        Response::Stats(_) => 10,
        Response::Traces(_) => 11,
        Response::Error(_) => 12,
        Response::Overloaded { .. } => 13,
    }
}

#[test]
fn strategies_cover_every_variant() {
    let mut rng = TestRng::from_seed(0x4D58);
    let req = arb_request();
    let resp = arb_response();
    let mut seen_req = [false; REQUEST_VARIANTS];
    let mut seen_resp = [false; RESPONSE_VARIANTS];
    for _ in 0..4000 {
        seen_req[request_variant_index(&req.generate(&mut rng))] = true;
        seen_resp[response_variant_index(&resp.generate(&mut rng))] = true;
    }
    assert!(
        seen_req.iter().all(|&s| s),
        "request strategy misses variants: {seen_req:?}"
    );
    assert!(
        seen_resp.iter().all(|&s| s),
        "response strategy misses variants: {seen_resp:?}"
    );
}

// ---------------------------------------------------------------------------
// Golden bytes
// ---------------------------------------------------------------------------

/// One fixed value of every `Request` and `Response` variant, every
/// `ClientEvent` and every `ArchiveMode`.
fn fixed_values() -> (Vec<Request>, Vec<Response>) {
    let visit = ClientEvent::Visit(VisitEvent {
        user: 7,
        session: 3,
        page: 41,
        url: "http://example.org/a".into(),
        time: 1_000,
        referrer: Some(40),
    });
    let bookmark = ClientEvent::Bookmark {
        user: 7,
        page: 41,
        url: "http://example.org/a".into(),
        folder: "/Research/Δ".into(),
        time: 1_001,
    };
    let mut requests = vec![Request::Event(visit), Request::Event(bookmark)];
    for (i, mode) in [
        ArchiveMode::Off,
        ArchiveMode::Private,
        ArchiveMode::Community,
    ]
    .into_iter()
    .enumerate()
    {
        requests.push(Request::Event(ClientEvent::SetMode {
            user: 7,
            mode,
            time: 1_002 + i as u64,
        }));
    }
    requests.extend([
        Request::Recall {
            user: 7,
            query: "surf trails".into(),
            since: 5,
            until: u64::MAX,
            k: 10,
        },
        Request::TrailReplay {
            user: 7,
            folder: 2,
            since: 9,
            max_pages: 20,
        },
        Request::WhatsNew {
            user: 7,
            folder: 2,
            since: 9,
            k: 4,
        },
        Request::Bill {
            user: 7,
            since: 0,
            until: 99,
        },
        Request::SimilarSurfers { user: 7, k: 3 },
        Request::Recommend { user: 7, k: 6 },
        Request::ImportBookmarks {
            user: 7,
            html: "<DL><DT><A HREF=\"http://x/\">x</A></DL>".into(),
            time: 12,
        },
        Request::ExportBookmarks { user: 7 },
        Request::ProposeFolders { user: 7, k: 2 },
        Request::Stats,
        Request::Traces {
            slow_only: true,
            limit: 17,
        },
    ]);

    let mut buckets = [0u64; NUM_BUCKETS];
    buckets[0] = 1;
    buckets[NUM_BUCKETS - 1] = u64::MAX;
    let snapshot = Snapshot {
        counters: vec![("net.req.ok".into(), 17)],
        gauges: vec![("net.conn.active".into(), -2)],
        histograms: vec![(
            "net.req.latency".into(),
            HistogramSnapshot {
                buckets,
                count: 3,
                sum: 1_234,
            },
        )],
        events: vec![(
            "server".into(),
            vec![Event {
                seq: 9,
                message: "overload: shed 3".into(),
            }],
        )],
    };
    let responses = vec![
        Response::Ack { archived: true },
        Response::Recall(vec![RecallHit {
            page: 5,
            url: "http://page5".into(),
            score: 0.75,
            last_visit: 99,
            snippet: "…about six months back…".into(),
        }]),
        Response::TrailReplay(TrailContext {
            nodes: vec![ContextNode {
                page: 1,
                visit_count: 2,
                last_time: 3,
            }],
            edges: vec![(1, 2, 4)],
        }),
        Response::WhatsNew(vec![(3, 0.5), (4, -1.25)]),
        Response::Bill(vec![BillLine {
            folder: "/News".into(),
            bytes: 4_096,
            visits: 8,
            fraction: 0.125,
        }]),
        Response::SimilarSurfers(vec![(2, 0.9)]),
        Response::Recommend(vec![(11, 2.0)]),
        Response::Imported {
            archived: 3,
            rejected: 1,
            unresolved: 2,
        },
        Response::Exported("<DL></DL>".into()),
        Response::Proposals(vec![FolderProposal {
            name: "memex trails".into(),
            pages: vec![1, 2, 3],
        }]),
        Response::Stats(snapshot),
        Response::Traces(vec![TraceData {
            trace_id: 42,
            spans: vec![SpanData {
                id: 0,
                parent: None,
                name: "net.req".into(),
                start_ns: 0,
                end_ns: 100,
                annotations: vec![("lock_wait_ns".into(), "7".into())],
            }],
        }]),
        Response::Error("boom".into()),
        Response::Overloaded {
            in_flight: 8,
            limit: 4,
        },
    ];
    (requests, responses)
}

/// A 64-bit FNV-1a digest over a sequence of byte strings, each behind its
/// length.
fn fold(digest: &mut u64, bytes: &[u8]) {
    for &b in (bytes.len() as u64).to_le_bytes().iter().chain(bytes) {
        *digest ^= u64::from(b);
        *digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Symmetric format changes pass every round trip; this pins the payload
/// bytes themselves, folding each encoding into one digest. It moves only
/// with a payload change, which bumps `WIRE_VERSION` and re-records it; an
/// envelope-only bump leaves it alone.
#[test]
fn fixed_values_encode_to_committed_bytes() {
    let (requests, responses) = fixed_values();
    let mut seen_req = [false; REQUEST_VARIANTS];
    let mut seen_resp = [false; RESPONSE_VARIANTS];
    let mut digest = FNV_OFFSET;
    for req in &requests {
        seen_req[request_variant_index(req)] = true;
        fold(&mut digest, &wire::encode_request(req));
    }
    for resp in &responses {
        seen_resp[response_variant_index(resp)] = true;
        fold(&mut digest, &wire::encode_response(resp));
    }
    assert!(seen_req.iter().chain(&seen_resp).all(|&s| s));
    assert_eq!(
        digest, 0xe47d_8b3d_00fd_5c5c,
        "payload bytes moved: digest {digest:#018x}"
    );
}

/// The envelope's bytes: one frame carrying a trace id and a `retry_of`.
/// Any envelope change bumps `WIRE_VERSION` and re-records this digest.
#[test]
fn fixed_frame_encodes_to_committed_bytes() {
    let mut frame = Vec::new();
    wire::write_frame_versioned(
        &mut frame,
        wire::WIRE_VERSION,
        wire::FrameKind::Request,
        &wire::encode_request(&Request::Stats),
        Some(wire::TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            retry_of: Some(0x0123_4567_89AB_CDEF),
        }),
    )
    .expect("write to vec");
    let mut digest = FNV_OFFSET;
    fold(&mut digest, &frame);
    assert_eq!(
        digest,
        0xdaea_86aa_b539_973a,
        "frame bytes moved at v{}: digest {digest:#018x}",
        wire::WIRE_VERSION
    );
}

/// The trailer is CRC-32/IEEE over `payload ‖ version ‖ kind ‖ ext`, built
/// here by hand from the layout, with no trace, a trace id, and a trace id
/// plus `retry_of`.
#[test]
fn frame_trailer_is_crc32_of_payload_then_envelope() {
    let (_, responses) = fixed_values();
    let payload = wire::encode_response(&responses[1]);
    let trace_id = 0xDEAD_BEEF_CAFE_F00Du64;
    let prev = 0x0123_4567_89AB_CDEFu64;
    let cases = [
        (None, vec![0u8]),
        (
            Some(wire::TraceContext {
                trace_id,
                retry_of: None,
            }),
            [&[1u8][..], &trace_id.to_le_bytes()].concat(),
        ),
        (
            Some(wire::TraceContext {
                trace_id,
                retry_of: Some(prev),
            }),
            [&[3u8][..], &trace_id.to_le_bytes(), &prev.to_le_bytes()].concat(),
        ),
    ];
    for (trace, ext) in cases {
        let frame = wire::frame_bytes(wire::FrameKind::Response, &payload, trace).expect("frame");
        let (body, trailer) = frame.split_last_chunk::<4>().expect("a trailer");
        assert_eq!(
            &body[wire::HEADER_LEN..wire::HEADER_LEN + ext.len()],
            &ext[..],
            "ext block for {trace:?}"
        );
        let mut checked = payload.clone();
        checked.extend_from_slice(&[wire::WIRE_VERSION, 1]);
        checked.extend_from_slice(&ext);
        assert_eq!(
            u32::from_le_bytes(*trailer),
            codec::crc32(&checked),
            "trailer for {trace:?}"
        );
    }
}

// ---------------------------------------------------------------------------
// Round-trip properties
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn request_roundtrips(req in arb_request()) {
        let payload = wire::encode_request(&req);
        let back = wire::decode_request(&payload).expect("decode own encoding");
        prop_assert_eq!(&req, &back);
        // And through the full checksummed frame.
        let frame = wire::frame_bytes(wire::FrameKind::Request, &payload, None).expect("frame");
        let meta = decode_frame(&frame).expect("decode own frame");
        prop_assert_eq!(meta.kind, wire::FrameKind::Request);
        prop_assert_eq!(meta.payload, payload);
    }

    #[test]
    fn response_roundtrips(resp in arb_response()) {
        let payload = wire::encode_response(&resp);
        let back = wire::decode_response(&payload).expect("decode own encoding");
        prop_assert_eq!(&resp, &back);
        let frame = wire::frame_bytes(wire::FrameKind::Response, &payload, None).expect("frame");
        let meta = decode_frame(&frame).expect("decode own frame");
        prop_assert_eq!(meta.kind, wire::FrameKind::Response);
        prop_assert_eq!(meta.payload, payload);
    }

    #[test]
    fn traced_frame_roundtrips(req in arb_request(), trace_id in any::<u64>(), retry_of in prop_oneof![Just(None), any::<u64>().prop_map(Some)]) {
        // A frame carrying a trace context (optionally a retry-of id)
        // decodes back to the same payload and the same context; the same
        // frame wearing a retired version byte (v2–v4) is rejected.
        let payload = wire::encode_request(&req);
        let ctx = wire::TraceContext { trace_id, retry_of };
        let mut frame =
            wire::frame_bytes(wire::FrameKind::Request, &payload, Some(ctx)).expect("frame");
        let meta = decode_frame(&frame).expect("decode traced frame");
        prop_assert_eq!(meta.trace, Some(ctx));
        prop_assert_eq!(&meta.payload, &payload);
        for retired in [2u8, 3, 4] {
            frame[2] = retired;
            prop_assert!(matches!(
                decode_frame(&frame),
                Err(wire::WireError::UnsupportedVersion(v)) if v == retired
            ));
        }
    }

    #[test]
    fn stream_roundtrip_back_to_back(reqs in proptest::collection::vec(arb_request(), 1..5)) {
        // Several frames written to one buffer read back in order — the
        // framing keeps its own boundaries on a contiguous stream.
        let mut buf = Vec::new();
        for req in &reqs {
            wire::write_frame_versioned(
                &mut buf,
                wire::WIRE_VERSION,
                wire::FrameKind::Request,
                &wire::encode_request(req),
                None,
            )
            .expect("write to vec");
        }
        let mut cursor = std::io::Cursor::new(buf);
        for req in &reqs {
            let meta = wire::read_frame_meta(&mut cursor).expect("read frame");
            prop_assert_eq!(meta.kind, wire::FrameKind::Request);
            prop_assert_eq!(req, &wire::decode_request(&meta.payload).expect("decode"));
        }
    }
}
