//! Driving a [`Service`] the way a connection does, with no socket.

use memex_core::servlet::{Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::Service;

/// `request` framed as a client frames it, stamped with `trace`, handled by
/// `service`, and the one response frame it wrote decoded. The frame must
/// echo `trace` and leave the connection open.
pub fn ask(service: &Service, request: &Request, trace: Option<TraceContext>) -> Response {
    let frame = wire::frame_bytes(FrameKind::Request, &wire::encode_request(request), trace)
        .expect("the request fits a frame");
    let mut written = Vec::new();
    assert!(
        service.handle(wire::read_frame_meta(&mut &frame[..]), &mut written),
        "{request:?} closed the connection"
    );
    let mut rest = &written[..];
    let meta = wire::read_frame_meta(&mut rest).expect("a response frame");
    assert!(
        rest.is_empty(),
        "{request:?}: bytes after the response frame"
    );
    assert_eq!(meta.kind, FrameKind::Response);
    assert_eq!(meta.trace, trace, "the response echoes the trace context");
    wire::decode_response(&meta.payload).expect("a response")
}
