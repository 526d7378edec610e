//! Helpers shared by the wire integration tests.

use memex_net::wire::{self, FrameMeta, WireError};

/// An in-memory frame through the one frame parser,
/// `wire::read_frame_meta` run over a `&[u8]`: exactly one frame, no bytes
/// left over.
pub fn decode_frame(mut buf: &[u8]) -> Result<FrameMeta, WireError> {
    let meta = wire::read_frame_meta(&mut buf)?;
    match buf.len() {
        0 => Ok(meta),
        n => Err(WireError::TrailingBytes(n)),
    }
}
