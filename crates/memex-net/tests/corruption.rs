//! Decoder corruption sweep, in the spirit of `memex-store`'s
//! `tests/fault.rs`: take valid frames, then truncate at every byte offset
//! and flip every single bit, and assert the decoder returns a typed error
//! every time — it never panics, and never reads past the declared frame
//! cap. Random junk payloads are also thrown at the payload decoders.
//! In-memory frames go through the same parser as the socket,
//! `wire::read_frame_meta`, run over a `&[u8]`.

mod common;

use proptest::prelude::*;

use common::decode_frame;
use memex_core::servlet::{Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext, WireError, HEADER_LEN, MAX_PAYLOAD};
use memex_obs::Snapshot;
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};

/// Every payload fixture framed with each extension block: no trace, a
/// trace id (8 bytes), and a trace id plus `retry_of` (16 bytes), so the
/// sweeps flip and cut the ids too.
fn frames() -> Vec<Vec<u8>> {
    let traces = [
        None,
        Some(TraceContext {
            trace_id: 0xDEAD_BEEF_CAFE_F00D,
            retry_of: None,
        }),
        Some(TraceContext {
            trace_id: 0x0123_4567_89AB_CDEF,
            retry_of: Some(0xDEAD_BEEF_CAFE_F00D),
        }),
    ];
    fixtures()
        .into_iter()
        .flat_map(|(kind, payload)| {
            traces.map(|trace| {
                wire::frame_bytes(kind, &payload, trace).expect("fixture under the cap")
            })
        })
        .collect()
}

/// Representative payloads covering scalar, string, vector, nested, and
/// empty shapes.
fn fixtures() -> Vec<(FrameKind, Vec<u8>)> {
    let mut snap = Snapshot::default();
    snap.counters.push(("net.req.ok".into(), 17));
    snap.gauges.push(("net.conn.active".into(), -2));
    snap.events.push((
        "server".into(),
        vec![memex_obs::Event {
            seq: 9,
            message: "overload: shed 3".into(),
        }],
    ));
    vec![
        (
            FrameKind::Request,
            wire::encode_request(&Request::Event(ClientEvent::Visit(VisitEvent {
                user: 1,
                session: 2,
                page: 3,
                url: "http://page3".into(),
                time: 44,
                referrer: Some(2),
            }))),
        ),
        (
            FrameKind::Request,
            wire::encode_request(&Request::Event(ClientEvent::SetMode {
                user: 7,
                mode: ArchiveMode::Private,
                time: 1,
            })),
        ),
        (
            FrameKind::Request,
            wire::encode_request(&Request::Recall {
                user: 9,
                query: "surf trails".into(),
                since: 0,
                until: u64::MAX,
                k: 10,
            }),
        ),
        (FrameKind::Request, wire::encode_request(&Request::Stats)),
        (
            FrameKind::Response,
            wire::encode_response(&Response::Recall(vec![memex_core::memex::RecallHit {
                page: 5,
                url: "http://page5".into(),
                score: 0.75,
                last_visit: 99,
                snippet: "…about six months back…".into(),
            }])),
        ),
        (
            FrameKind::Response,
            wire::encode_response(&Response::Stats(snap)),
        ),
        (
            FrameKind::Response,
            wire::encode_response(&Response::Overloaded {
                in_flight: 8,
                limit: 4,
            }),
        ),
    ]
}

#[test]
fn truncation_at_every_offset_errors() {
    for frame in frames() {
        for cut in 0..frame.len() {
            let result = decode_frame(&frame[..cut]);
            assert!(
                result.is_err(),
                "truncation to {cut}/{} bytes decoded successfully",
                frame.len()
            );
        }
    }
}

#[test]
fn bit_flip_at_every_offset_errors() {
    // The checksum covers payload ‖ version ‖ kind ‖ ext, the magic check
    // covers the first two bytes, and a flipped length can no longer match
    // the buffer size — so *every* single-bit corruption must surface as
    // Err.
    for frame in frames() {
        for i in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[i] ^= 1 << bit;
                let result = decode_frame(&bad);
                assert!(
                    result.is_err(),
                    "flip of bit {bit} at byte {i}/{} decoded successfully",
                    frame.len()
                );
            }
        }
    }
}

#[test]
fn truncated_stream_reads_error_and_stop_at_cap() {
    for frame in frames() {
        for cut in 0..frame.len() {
            let mut cursor = std::io::Cursor::new(frame[..cut].to_vec());
            assert!(wire::read_frame_meta(&mut cursor).is_err());
            // The reader must never have consumed more than the frame cap.
            assert!(cursor.position() as usize <= HEADER_LEN + MAX_PAYLOAD + 4);
        }
    }
}

#[test]
fn oversized_declared_length_never_allocates_or_reads() {
    // A header claiming a payload over the cap must be rejected from the
    // header alone — even if "enough" bytes follow on the stream.
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"MX");
    bytes.push(wire::WIRE_VERSION);
    bytes.push(0); // request
    bytes.extend_from_slice(&((MAX_PAYLOAD as u32) + 1).to_le_bytes());
    bytes.extend_from_slice(&[0u8; 64]);
    let mut cursor = std::io::Cursor::new(bytes);
    assert!(matches!(
        wire::read_frame_meta(&mut cursor),
        Err(WireError::Oversized { .. })
    ));
    // Only the header was consumed.
    assert_eq!(cursor.position() as usize, HEADER_LEN);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_junk_never_panics_payload_decoders(junk in proptest::collection::vec(any::<u8>(), 0..256)) {
        // Ok or Err are both acceptable; panicking or over-reading is not.
        let _ = wire::decode_request(&junk);
        let _ = wire::decode_response(&junk);
        let _ = decode_frame(&junk);
    }

    #[test]
    fn random_prefix_swap_never_panics(junk in proptest::collection::vec(any::<u8>(), 0..128)) {
        // Junk wearing a valid magic + version: exercises the deeper paths.
        let mut bytes = vec![b'M', b'X', wire::WIRE_VERSION];
        bytes.extend_from_slice(&junk);
        let _ = decode_frame(&bytes);
    }
}
