//! The Memex wire format: length-prefixed, checksummed, versioned frames
//! carrying a binary encoding of every [`Request`]/[`Response`] variant.
//!
//! ## Frame layout
//!
//! ```text
//! +----+----+---------+------+-------------+-----------+------------------+-----------+
//! | 'M'| 'X'| version | kind | len u32 LE  | ext       | payload (len B)  | crc32 LE  |
//! +----+----+---------+------+-------------+-----------+------------------+-----------+
//!   magic      1 B      1 B      4 B        1/9/17 B       ≤ 16 MiB         CRC-32/IEEE
//! ```
//!
//! Every frame carries an **extension block** between the header and the
//! payload: one flags byte, followed by a `u64 LE` trace id when bit 0
//! (trace) is set, followed by a second `u64 LE` — the trace id of the
//! *previous attempt* of the same logical request — when bit 1 (retry) is
//! set too, so a server can annotate a retried read's root span with
//! `retry_of` and operators can stitch the attempts together. Undefined
//! flag bits are rejected, as is the retry bit without the trace bit — an
//! extension a decoder cannot parse would desynchronize the stream, so
//! there is nothing safe to skip.
//!
//! The trailer is CRC-32/IEEE (`memex_store::codec`, the checksum of the
//! WAL and the runs too) over `payload ‖ version ‖ kind ‖ ext`, so a single
//! flipped bit anywhere after the magic is detected. The payload comes
//! first so the payload's CRC can be computed once and kept beside the
//! encoded bytes (the server's read cache does): framing it again for
//! another trace id extends that CRC over at most 19 envelope bytes.
//! `len` counts the payload only and is capped at [`MAX_PAYLOAD`]
//! **before** any allocation happens, so a corrupted length can neither
//! over-read the stream nor balloon memory; an encoder asked for a bigger
//! payload gets [`WireError::Oversized`] back. [`read_frame_meta`] is the
//! one frame parser. Server and client run it over a `BufReader` on the
//! socket, so a frame costs one `recv` however many reads it makes; tests
//! decode in-memory frames by running it over a `&[u8]`.
//!
//! ## Payloads
//!
//! Each wire type's layout is one field list, declared once below with
//! `wire_struct!` (fields in order) or `wire_enum!` (a tag byte per
//! variant, then its fields); the same declaration drives both directions.
//! Strings are a `u32` length plus UTF-8, collections a `u32` count, `usize`
//! travels as `u64`, floats as their IEEE bits. The encode side of an enum
//! is an exhaustive `match`, so a new variant is a compile error until it
//! is given a tag; the decode side ends in `tag => Err(BadTag { .. })`.
//!
//! ## Versioning rule
//!
//! [`WIRE_VERSION`] bumps whenever an existing variant's encoding changes
//! shape or the frame envelope changes; *appending* new variants (new
//! tags) is backwards-compatible and does not bump the version. Exactly
//! one version is spoken: no older peer is deployed, so a decoder rejects
//! every other version byte with [`WireError::UnsupportedVersion`] (and
//! unknown tags with [`WireError::BadTag`]) — it never guesses.
//! `codec_roundtrip.rs::fixed_values_encode_to_committed_bytes` pins the
//! payload bytes and `fixed_frame_encodes_to_committed_bytes` the
//! envelope's, so a format change cannot slip in unversioned.
//!
//! Every decode path returns a typed [`WireError`]; nothing in this module
//! panics on untrusted bytes (see `tests/corruption.rs` for the sweep that
//! enforces this at every byte offset).
//!
//! ## Frozen API
//!
//! The serving benchmark (`benchmark/`, its own workspace) calls
//! [`write_frame_versioned`], [`read_frame_meta`] (reading `.kind` and
//! `.payload`), [`encode_request`], [`decode_request`], [`encode_response`]
//! and [`decode_response`]. Their signatures do not change.

use std::io::{Read, Write};

use memex_core::memex::{BillLine, FolderProposal, RecallHit};
use memex_core::servlet::{Request, Response};
use memex_graph::trail::{ContextNode, TrailContext};
use memex_obs::trace::{SpanData, TraceData};
use memex_obs::{Event, HistogramSnapshot, Snapshot};
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};
use memex_store::codec;

/// The wire version (see the module docs for the bump rule).
pub const WIRE_VERSION: u8 = 5;

/// Extension flag bit: an 8-byte trace id follows the flags byte.
const EXT_FLAG_TRACE: u8 = 0b0000_0001;

/// Extension flag bit: an 8-byte "previous attempt" trace id follows the
/// trace id. Only valid together with [`EXT_FLAG_TRACE`].
const EXT_FLAG_RETRY: u8 = 0b0000_0010;

/// Hard cap on a frame's payload. Anything larger is rejected before
/// allocation with [`WireError::Oversized`].
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Frame header bytes preceding the payload: magic (2) + version (1) +
/// kind (1) + length (4).
pub const HEADER_LEN: usize = 8;

/// Trailing checksum bytes.
const TRAILER_LEN: usize = 4;

const MAGIC: [u8; 2] = *b"MX";

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request,
    Response,
}

/// Typed decode/IO failures. Every malformed input maps to one of these —
/// the decoder never panics.
#[derive(Debug)]
pub enum WireError {
    /// Underlying stream error (includes clean EOF as `UnexpectedEof`).
    Io(std::io::Error),
    /// The first two bytes were not `MX`.
    BadMagic([u8; 2]),
    /// Frame from a wire version this decoder does not speak.
    UnsupportedVersion(u8),
    /// Payload length exceeds [`MAX_PAYLOAD`].
    Oversized { len: u64, cap: u64 },
    /// The buffer ended before the structure it claims to hold.
    Truncated { needed: usize, available: usize },
    /// CRC-32 over payload+version+kind+ext did not match the trailer.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Unknown tag (enum variant, option, frame kind, extension flags)
    /// while decoding `what`.
    BadTag { what: &'static str, tag: u8 },
    /// A boolean slot held something other than 0 or 1.
    BadBool(u8),
    /// A string slot held invalid UTF-8.
    BadUtf8,
    /// The payload decoded cleanly but bytes were left over.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?}"),
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::Oversized { len, cap } => {
                write!(f, "frame payload {len} B exceeds cap {cap} B")
            }
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} B, had {available} B")
            }
            WireError::ChecksumMismatch { expected, actual } => {
                write!(
                    f,
                    "checksum mismatch: frame says {expected:08x}, computed {actual:08x}"
                )
            }
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag}"),
            WireError::BadBool(b) => write!(f, "bad bool byte {b}"),
            WireError::BadUtf8 => write!(f, "invalid utf-8 in string"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after payload"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> WireError {
        WireError::Io(e)
    }
}

// ---------------------------------------------------------------------------
// Frames
// ---------------------------------------------------------------------------

/// Trace context carried in a frame's extension block: the 64-bit id the
/// client stamped on the request, echoed back on the response, plus
/// (retried reads only) the id of the previous attempt so the server-side
/// span trees of one logical request can be stitched together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    pub trace_id: u64,
    /// Trace id of the previous attempt of this logical request, when
    /// this frame is a client retry.
    pub retry_of: Option<u64>,
}

/// A fully decoded frame envelope: what the frame carries and the trace
/// context (when stamped).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FrameMeta {
    pub kind: FrameKind,
    pub trace: Option<TraceContext>,
    pub payload: Vec<u8>,
}

/// The trailer: the payload's CRC-32 extended over `version ‖ kind` and
/// the extension block. The length field is not checksummed: a corrupted
/// one is caught by the cap or by the trailer landing somewhere else.
fn trailer(payload_crc: u32, envelope: &[&[u8]]) -> u32 {
    envelope
        .iter()
        .fold(payload_crc, |crc, part| codec::crc32_extend(crc, part))
}

/// Assemble a complete frame (header, extension block, payload, checksum)
/// at the current wire version. A payload over [`MAX_PAYLOAD`] is
/// [`WireError::Oversized`]: no peer would accept it.
pub fn frame_bytes(
    kind: FrameKind,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<Vec<u8>, WireError> {
    frame_with_crc(kind, payload, codec::crc32(payload), trace)
}

/// Encode a response payload and its CRC-32 once, so it can be framed for
/// any number of trace contexts by [`frame_with_crc`] without being
/// encoded or checksummed again.
pub(crate) fn checked_response(resp: &Response) -> (Vec<u8>, u32) {
    let payload = encode_response(resp);
    let crc = codec::crc32(&payload);
    (payload, crc)
}

/// [`frame_bytes`] for a payload whose CRC-32 is already known: only the
/// envelope (at most 19 bytes) is checksummed here.
pub(crate) fn frame_with_crc(
    kind: FrameKind,
    payload: &[u8],
    payload_crc: u32,
    trace: Option<TraceContext>,
) -> Result<Vec<u8>, WireError> {
    if payload.len() > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: payload.len() as u64,
            cap: MAX_PAYLOAD as u64,
        });
    }
    let mut out = Vec::with_capacity(HEADER_LEN + 17 + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(WIRE_VERSION);
    kind.put(&mut out);
    (payload.len() as u32).put(&mut out);
    match trace {
        None => out.push(0),
        Some(TraceContext {
            trace_id,
            retry_of: None,
        }) => {
            out.push(EXT_FLAG_TRACE);
            trace_id.put(&mut out);
        }
        Some(TraceContext {
            trace_id,
            retry_of: Some(prev),
        }) => {
            out.push(EXT_FLAG_TRACE | EXT_FLAG_RETRY);
            (trace_id, prev).put(&mut out);
        }
    }
    let crc = trailer(
        payload_crc,
        &[
            out.get(2..4).unwrap_or_default(),
            out.get(HEADER_LEN..).unwrap_or_default(),
        ],
    );
    out.extend_from_slice(payload);
    crc.put(&mut out);
    Ok(out)
}

/// Write one frame to a stream. `version` must be [`WIRE_VERSION`], the
/// only layout there is; any other byte is
/// [`WireError::UnsupportedVersion`].
pub fn write_frame_versioned(
    w: &mut impl Write,
    version: u8,
    kind: FrameKind,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<(), WireError> {
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    w.write_all(&frame_bytes(kind, payload, trace)?)?;
    w.flush()?;
    Ok(())
}

/// How many trace ids the extension block carries after its flags byte.
/// Undefined bits, and a retry id with no trace id for it to qualify, are
/// rejected: an extension this decoder cannot parse changes the framing,
/// so skipping is never safe.
fn ext_ids(flags: u8) -> Result<usize, WireError> {
    const TRACE_AND_RETRY: u8 = EXT_FLAG_TRACE | EXT_FLAG_RETRY;
    match flags {
        0 => Ok(0),
        EXT_FLAG_TRACE => Ok(1),
        TRACE_AND_RETRY => Ok(2),
        tag => Err(WireError::BadTag {
            what: "frame extension flags",
            tag,
        }),
    }
}

/// Read one frame, enforcing the size cap *before* allocating and
/// verifying the checksum after. The header is read alone, so an over-cap
/// length is rejected after exactly [`HEADER_LEN`] bytes; then the flags
/// byte (which sizes the extension block), the trace ids into a stack
/// buffer, and the payload with its trailer into the buffer the payload is
/// returned in. Give it a `BufReader` on a socket: a frame that fits the
/// buffer then costs one `recv`. Over a `&[u8]` it decodes an in-memory
/// frame and leaves the slice at the byte after it.
pub fn read_frame_meta(r: &mut impl Read) -> Result<FrameMeta, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let [m0, m1, version, kind_byte, len @ ..] = header;
    if [m0, m1] != MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = FrameKind::get(&mut Reader(&[kind_byte]))?;
    let len = u32::from_le_bytes(len) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: len as u64,
            cap: MAX_PAYLOAD as u64,
        });
    }
    let mut flags = [0u8; 1];
    r.read_exact(&mut flags)?;
    let [flag_byte] = flags;
    let ids = ext_ids(flag_byte)?;
    let mut id_buf = [0u8; 16];
    let id_bytes = id_buf.get_mut(..8 * ids).unwrap_or_default();
    r.read_exact(id_bytes)?;
    let mut payload = vec![0u8; len + TRAILER_LEN];
    r.read_exact(&mut payload)?;
    let Some((body, tail)) = payload.split_last_chunk::<TRAILER_LEN>() else {
        return Err(WireError::Truncated {
            needed: TRAILER_LEN,
            available: payload.len(),
        });
    };
    let expected = u32::from_le_bytes(*tail);
    let actual = trailer(
        codec::crc32(body),
        &[&[version, kind_byte, flag_byte], id_bytes],
    );
    if expected != actual {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    let mut ext = Reader(id_bytes);
    let trace = match ids {
        0 => None,
        _ => Some(TraceContext {
            trace_id: u64::get(&mut ext)?,
            retry_of: if ids == 2 {
                Some(u64::get(&mut ext)?)
            } else {
                None
            },
        }),
    };
    payload.truncate(len);
    Ok(FrameMeta {
        kind,
        trace,
        payload,
    })
}

// ---------------------------------------------------------------------------
// Payloads: one field list per type
// ---------------------------------------------------------------------------

/// A value with one layout on the wire; `put` and `get` are its two
/// directions.
trait Wire: Sized {
    fn put(&self, out: &mut Vec<u8>);
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError>;
}

/// The unread rest of a payload.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn truncated(&self, needed: usize) -> WireError {
        WireError::Truncated {
            needed,
            available: self.0.len(),
        }
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let (head, rest) = self.0.split_first_chunk::<N>().ok_or(self.truncated(N))?;
        self.0 = rest;
        Ok(*head)
    }

    fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let (head, rest) = self.0.split_at_checked(n).ok_or(self.truncated(n))?;
        self.0 = rest;
        Ok(head)
    }

    /// A collection length, bounded by the bytes actually left (every
    /// element is ≥ 1 byte), so a corrupted count cannot drive a huge
    /// pre-allocation.
    fn count(&mut self) -> Result<usize, WireError> {
        let n = u32::get(self)? as usize;
        if n > self.0.len() {
            return Err(self.truncated(n));
        }
        Ok(n)
    }
}

/// A string or collection length. One over `u32::MAX` would wrap, but its
/// payload is over [`MAX_PAYLOAD`] too, and [`frame_bytes`] refuses that.
fn put_len(n: usize, out: &mut Vec<u8>) {
    (n as u32).put(out);
}

fn encode<T: Wire>(value: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    value.put(&mut out);
    out
}

fn decode<T: Wire>(payload: &[u8]) -> Result<T, WireError> {
    let mut r = Reader(payload);
    let value = T::get(&mut r)?;
    match r.0.len() {
        0 => Ok(value),
        n => Err(WireError::TrailingBytes(n)),
    }
}

macro_rules! wire_le_bytes {
    ($($ty:ty),*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(<$ty>::from_le_bytes(r.array()?))
            }
        }
    )*};
}

// Floats travel as their IEEE bits (`to_le_bytes` is `to_bits` in LE).
wire_le_bytes!(u8, u32, u64, i64, f32, f64);

impl Wire for bool {
    fn put(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }
}

/// `usize` travels as `u64` so 32- and 64-bit peers interoperate.
impl Wire for usize {
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let v = u64::get(r)?;
        usize::try_from(v).map_err(|_| WireError::Oversized {
            len: v,
            cap: usize::MAX as u64,
        })
    }
}

impl Wire for String {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        out.extend_from_slice(self.as_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        String::from_utf8(r.bytes(n)?.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.put(out);
            }
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match u8::get(r)? {
            0 => Ok(None),
            1 => T::get(r).map(Some),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn put(&self, out: &mut Vec<u8>) {
        put_len(self.len(), out);
        for v in self {
            v.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.count()?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
        self.2.put(out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

/// Histogram buckets: a fixed count, so no length prefix.
impl<const N: usize> Wire for [u64; N] {
    fn put(&self, out: &mut Vec<u8>) {
        for b in self {
            b.put(out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let mut buckets = [0u64; N];
        for b in &mut buckets {
            *b = u64::get(r)?;
        }
        Ok(buckets)
    }
}

/// A struct is its fields, in the order listed.
macro_rules! wire_struct {
    ($($ty:ident { $($field:ident),* $(,)? })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                $(self.$field.put(out);)*
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok($ty { $($field: Wire::get(r)?),* })
            }
        }
    )*};
}

/// An enum is a tag byte, then the variant's fields in the order listed.
/// Tags are frozen once shipped; appending a variant appends a tag.
macro_rules! wire_enum {
    ($($ty:ident {
        $($tag:literal => $variant:ident $(($inner:ident))? $({ $($field:ident),* })?),* $(,)?
    })*) => {$(
        impl Wire for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                match self {
                    $($ty::$variant $(($inner))? $({ $($field),* })? => {
                        out.push($tag);
                        $($inner.put(out);)?
                        $($($field.put(out);)*)?
                    })*
                }
            }
            fn get(r: &mut Reader<'_>) -> Result<Self, WireError> {
                Ok(match u8::get(r)? {
                    $($tag => $ty::$variant
                        $(({ let $inner = Wire::get(r)?; $inner }))?
                        $({ $($field: Wire::get(r)?),* })?,)*
                    tag => return Err(WireError::BadTag { what: stringify!($ty), tag }),
                })
            }
        }
    )*};
}

wire_struct! {
    VisitEvent { user, session, page, url, time, referrer }
    RecallHit { page, url, score, last_visit, snippet }
    BillLine { folder, bytes, visits, fraction }
    FolderProposal { name, pages }
    ContextNode { page, visit_count, last_time }
    TrailContext { nodes, edges }
    HistogramSnapshot { buckets, count, sum }
    Event { seq, message }
    Snapshot { counters, gauges, histograms, events }
    SpanData { id, parent, name, start_ns, end_ns, annotations }
    TraceData { trace_id, spans }
}

wire_enum! {
    FrameKind {
        0 => Request,
        1 => Response,
    }
    ArchiveMode {
        0 => Off,
        1 => Private,
        2 => Community,
    }
    ClientEvent {
        0 => Visit(visit),
        1 => Bookmark { user, page, url, folder, time },
        2 => SetMode { user, mode, time },
    }
    Request {
        0 => Event(event),
        1 => Recall { user, query, since, until, k },
        2 => TrailReplay { user, folder, since, max_pages },
        3 => WhatsNew { user, folder, since, k },
        4 => Bill { user, since, until },
        5 => SimilarSurfers { user, k },
        6 => Recommend { user, k },
        7 => ImportBookmarks { user, html, time },
        8 => ExportBookmarks { user },
        9 => ProposeFolders { user, k },
        10 => Stats,
        11 => Traces { slow_only, limit },
    }
    Response {
        0 => Ack { archived },
        1 => Recall(hits),
        2 => TrailReplay(trail),
        3 => WhatsNew(items),
        4 => Bill(lines),
        5 => SimilarSurfers(items),
        6 => Recommend(items),
        7 => Imported { archived, rejected, unresolved },
        8 => Exported(html),
        9 => Proposals(proposals),
        10 => Stats(snapshot),
        11 => Error(message),
        12 => Overloaded { in_flight, limit },
        13 => Traces(traces),
    }
}

/// Encode a request payload (frame it with [`write_frame_versioned`] or
/// [`frame_bytes`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    encode(req)
}

/// Decode a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    decode(payload)
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    encode(resp)
}

/// Decode a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    decode(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An in-memory frame through the one parser: exactly one frame, no
    /// bytes left over.
    fn decode_frame(mut buf: &[u8]) -> Result<FrameMeta, WireError> {
        let meta = read_frame_meta(&mut buf)?;
        match buf.len() {
            0 => Ok(meta),
            n => Err(WireError::TrailingBytes(n)),
        }
    }

    fn stats_frame() -> Vec<u8> {
        frame_bytes(FrameKind::Request, &encode_request(&Request::Stats), None).expect("frame")
    }

    #[test]
    fn frame_roundtrip() {
        let payload = encode_request(&Request::Stats);
        let meta = decode_frame(&stats_frame()).expect("roundtrip");
        assert_eq!(meta.kind, FrameKind::Request);
        assert_eq!(meta.trace, None);
        assert_eq!(meta.payload, payload);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = stats_frame();
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        // The reader must not try to allocate 4 GiB, nor read past the
        // header.
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame_meta(&mut cursor),
            Err(WireError::Oversized { .. })
        ));
        assert_eq!(cursor.position(), HEADER_LEN as u64);
    }

    /// The encoder refuses what no decoder would accept, with a typed
    /// error a server can answer instead of a panic.
    #[test]
    fn oversized_payload_and_foreign_version_are_errors_on_encode() {
        let payload = vec![0u8; MAX_PAYLOAD + 1];
        assert!(matches!(
            frame_bytes(FrameKind::Response, &payload, None),
            Err(WireError::Oversized { len, .. }) if len == MAX_PAYLOAD as u64 + 1
        ));
        let mut sink = Vec::new();
        assert!(matches!(
            write_frame_versioned(&mut sink, 3, FrameKind::Request, &[], None),
            Err(WireError::UnsupportedVersion(3))
        ));
        assert!(sink.is_empty());
    }

    #[test]
    fn stream_eof_is_io_error() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(
            read_frame_meta(&mut cursor),
            Err(WireError::Io(_))
        ));
    }

    /// Every tagged slot of the format rejects an unknown tag as `BadTag`
    /// naming the slot: the dynamic check behind the exhaustive `match`es
    /// `wire_enum!` generates.
    #[test]
    fn unknown_tags_are_typed_errors() {
        fn bad_tag<T: std::fmt::Debug>(got: Result<T, WireError>, what: &str, tag: u8) {
            assert!(
                matches!(&got, Err(WireError::BadTag { what: w, tag: t }) if *w == what && *t == tag),
                "expected BadTag {{ {what}, {tag} }}, got {got:?}"
            );
        }
        bad_tag(decode_request(&[200]), "Request", 200);
        bad_tag(decode_response(&[200]), "Response", 200);
        bad_tag(decode_request(&[0, 9]), "ClientEvent", 9);
        bad_tag(decode_request(&[0, 2, 7, 0, 0, 0, 9]), "ArchiveMode", 9);
        // A visit's last field is its optional referrer.
        let mut visit = encode_request(&Request::Event(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 2,
            page: 3,
            url: "u".into(),
            time: 4,
            referrer: None,
        })));
        if let Some(last) = visit.last_mut() {
            *last = 2;
        }
        bad_tag(decode_request(&visit), "option", 2);

        let mut frame = stats_frame();
        frame[3] = 7;
        bad_tag(decode_frame(&frame), "FrameKind", 7);
        // Undefined bits, and a retry id with no trace id to qualify.
        for flags in [EXT_FLAG_RETRY, 0x04, 0x82] {
            let mut frame = stats_frame();
            frame[HEADER_LEN] = flags;
            bad_tag(decode_frame(&frame), "frame extension flags", flags);
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
            Err(WireError::TrailingBytes(1))
        ));
        let mut frame = stats_frame();
        frame.push(0);
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn trace_context_roundtrips_with_and_without_retry_of() {
        let payload = encode_request(&Request::Stats);
        for retry_of in [None, Some(0x0123_4567_89AB_CDEF)] {
            let ctx = TraceContext {
                trace_id: 0xDEAD_BEEF_CAFE_F00D,
                retry_of,
            };
            let frame = frame_bytes(FrameKind::Request, &payload, Some(ctx)).expect("frame");
            let meta = decode_frame(&frame).expect("decode");
            assert_eq!(meta.trace, Some(ctx));
            assert_eq!(meta.payload, payload);
        }
    }

    /// Every version byte but the current one is refused — the retired
    /// v2–v4 included.
    #[test]
    fn every_other_version_rejected() {
        let mut frame = stats_frame();
        for bad in [0u8, 1, 2, 3, 4, WIRE_VERSION + 1, 255] {
            frame[2] = bad;
            assert!(matches!(
                decode_frame(&frame),
                Err(WireError::UnsupportedVersion(v)) if v == bad
            ));
        }
    }

    #[test]
    fn traces_request_and_response_roundtrip() {
        let req = Request::Traces {
            slow_only: true,
            limit: 17,
        };
        assert_eq!(decode_request(&encode_request(&req)).expect("req"), req);
        let resp = Response::Traces(vec![TraceData {
            trace_id: 42,
            spans: vec![
                SpanData {
                    id: 1,
                    parent: Some(0),
                    name: "index.bm25".into(),
                    start_ns: 10,
                    end_ns: 90,
                    annotations: vec![],
                },
                SpanData {
                    id: 0,
                    parent: None,
                    name: "net.req".into(),
                    start_ns: 0,
                    end_ns: 100,
                    annotations: vec![("lock_wait_ns".into(), "7".into())],
                },
            ],
        }]);
        assert_eq!(
            decode_response(&encode_response(&resp)).expect("resp"),
            resp
        );
    }
}
