//! The Memex wire format: length-prefixed, checksummed, versioned frames
//! carrying a hand-rolled binary serialization of every
//! [`Request`]/[`Response`] variant.
//!
//! ## Frame layout
//!
//! ```text
//! +----+----+---------+------+-------------+-----------+------------------+----------+
//! | 'M'| 'X'| version | kind | len u32 LE  | ext       | payload (len B)  | crc u32  |
//! +----+----+---------+------+-------------+-----------+------------------+----------+
//!   magic      1 B      1 B      4 B        1/9/17 B       ≤ 16 MiB         FNV-1a
//! ```
//!
//! Every frame carries an **extension block** between the header and the
//! payload: one `flags` byte, followed by a `u64 LE` trace id when bit 0
//! ([`EXT_FLAG_TRACE`]) is set, followed by a second `u64 LE` — the trace
//! id of the *previous attempt* of the same logical request — when bit 1
//! ([`EXT_FLAG_RETRY`]) is set too, so a server can annotate a retried
//! read's root span with `retry_of` and operators can stitch the attempts
//! together. Undefined flag bits are rejected, as is `EXT_FLAG_RETRY`
//! without `EXT_FLAG_TRACE` — an extension a decoder cannot parse would
//! desynchronize the stream, so there is nothing safe to skip.
//!
//! The CRC is FNV-1a over `version ‖ kind ‖ ext ‖ payload`, so a single
//! flipped bit anywhere after the magic is detected. `len` counts the
//! payload only and is capped at [`MAX_PAYLOAD`] **before** any
//! allocation happens, so a corrupted length can neither over-read the
//! stream nor balloon memory.
//!
//! ## Versioning rule
//!
//! [`WIRE_VERSION`] bumps whenever an existing variant's encoding changes
//! shape or the frame envelope changes; *appending* new variants (new
//! tags) is backwards-compatible and does not bump the version. Exactly
//! one version is spoken: no older peer is deployed, so a decoder rejects
//! every other version byte with [`WireError::UnsupportedVersion`] (and
//! unknown tags with [`WireError::BadTag`]) — it never guesses.
//!
//! Every decode path returns a typed [`WireError`]; nothing in this module
//! panics on untrusted bytes (see `tests/corruption.rs` for the sweep that
//! enforces this at every byte offset).

use std::io::{Read, Write};

use memex_core::memex::{BillLine, FolderProposal, RecallHit};
use memex_core::servlet::{Request, Response};
use memex_graph::trail::{ContextNode, TrailContext};
use memex_obs::trace::{SpanData, TraceData};
use memex_obs::{Event, HistogramSnapshot, Snapshot, NUM_BUCKETS};
use memex_server::events::{ArchiveMode, ClientEvent, VisitEvent};

/// The wire version (see the module docs for the bump rule).
pub const WIRE_VERSION: u8 = 4;

/// Oldest wire version this decoder accepts: the current one.
pub const MIN_WIRE_VERSION: u8 = WIRE_VERSION;

/// Extension flag bit: an 8-byte trace id follows the flags byte.
pub const EXT_FLAG_TRACE: u8 = 0b0000_0001;

/// Extension flag bit: an 8-byte "previous attempt" trace id follows the
/// trace id. Only valid together with [`EXT_FLAG_TRACE`].
pub const EXT_FLAG_RETRY: u8 = 0b0000_0010;

/// Hard cap on a frame's payload. Anything larger is rejected before
/// allocation with [`WireError::Oversized`].
pub const MAX_PAYLOAD: usize = 16 << 20;

/// Frame header bytes preceding the payload: magic (2) + version (1) +
/// kind (1) + length (4).
pub const HEADER_LEN: usize = 8;

/// Trailing checksum bytes.
pub const TRAILER_LEN: usize = 4;

const MAGIC: [u8; 2] = *b"MX";

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    Request,
    Response,
}

impl FrameKind {
    fn to_byte(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::Response => 1,
        }
    }

    fn from_byte(b: u8) -> Result<FrameKind, WireError> {
        match b {
            0 => Ok(FrameKind::Request),
            1 => Ok(FrameKind::Response),
            other => Err(WireError::BadKind(other)),
        }
    }
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
    /// Unknown frame-kind byte.
    BadKind(u8),
    /// Declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized { len: u64, cap: u64 },
    /// The buffer ended before the structure it claims to hold.
    Truncated { needed: usize, available: usize },
    /// FNV-1a over version+kind+payload did not match the trailer.
    ChecksumMismatch { expected: u32, actual: u32 },
    /// Unknown enum tag while decoding `what`.
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
            WireError::BadKind(k) => write!(f, "bad frame kind {k}"),
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

fn fnv1a(parts: &[&[u8]]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for part in parts {
        for &b in *part {
            h ^= b as u32;
            h = h.wrapping_mul(0x0100_0193);
        }
    }
    h
}

// ---------------------------------------------------------------------------
// Frame IO
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

/// Borrowed twin of [`FrameMeta`] for frames held entirely in a buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameView<'a> {
    pub kind: FrameKind,
    pub trace: Option<TraceContext>,
    pub payload: &'a [u8],
}

/// Assemble a complete frame (header + payload + checksum) in memory at
/// the current wire version, with no trace context.
pub fn frame_bytes(kind: FrameKind, payload: &[u8]) -> Vec<u8> {
    frame_bytes_versioned(WIRE_VERSION, kind, payload, None)
}

/// Assemble a frame with an explicit version byte and trace context.
/// `version` must be [`WIRE_VERSION`]: there is no other layout to encode.
pub fn frame_bytes_versioned(
    version: u8,
    kind: FrameKind,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Vec<u8> {
    assert!(
        version == WIRE_VERSION,
        "cannot encode wire version {version}"
    );
    assert!(
        payload.len() <= MAX_PAYLOAD,
        "encoder produced oversized payload"
    );
    let mut ext: Vec<u8> = Vec::with_capacity(17);
    match trace {
        Some(t) => {
            let mut flags = EXT_FLAG_TRACE;
            if t.retry_of.is_some() {
                flags |= EXT_FLAG_RETRY;
            }
            ext.push(flags);
            ext.extend_from_slice(&t.trace_id.to_le_bytes());
            if let Some(prev) = t.retry_of {
                ext.extend_from_slice(&prev.to_le_bytes());
            }
        }
        None => ext.push(0),
    }
    let mut out = Vec::with_capacity(HEADER_LEN + ext.len() + payload.len() + TRAILER_LEN);
    out.extend_from_slice(&MAGIC);
    out.push(version);
    out.push(kind.to_byte());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&ext);
    out.extend_from_slice(payload);
    out.extend_from_slice(
        &fnv1a(&[&[version, kind.to_byte()], ext.as_slice(), payload]).to_le_bytes(),
    );
    out
}

/// Write one frame to a stream.
pub fn write_frame(w: &mut impl Write, kind: FrameKind, payload: &[u8]) -> Result<(), WireError> {
    w.write_all(&frame_bytes(kind, payload))?;
    w.flush()?;
    Ok(())
}

/// Write one frame with an explicit version byte (see
/// [`frame_bytes_versioned`]) and trace context.
pub fn write_frame_versioned(
    w: &mut impl Write,
    version: u8,
    kind: FrameKind,
    payload: &[u8],
    trace: Option<TraceContext>,
) -> Result<(), WireError> {
    w.write_all(&frame_bytes_versioned(version, kind, payload, trace))?;
    w.flush()?;
    Ok(())
}

/// Reject undefined extension-flag bits. An unknown extension changes the
/// framing, so skipping is never safe; a retry-of id with no trace id for
/// it to qualify is equally malformed.
fn validate_ext_flags(flags: u8) -> Result<(), WireError> {
    let known = EXT_FLAG_TRACE | EXT_FLAG_RETRY;
    let orphan_retry = flags & EXT_FLAG_RETRY != 0 && flags & EXT_FLAG_TRACE == 0;
    if flags & !known != 0 || orphan_retry {
        return Err(WireError::BadTag {
            what: "frame extension flags",
            tag: flags,
        });
    }
    Ok(())
}

/// Copy a slice's first 4 bytes into an array without a panicking
/// conversion; the decode path must stay panic-free on arbitrary input.
fn arr4(b: &[u8]) -> Result<[u8; 4], WireError> {
    match *b {
        [a, b2, c, d, ..] => Ok([a, b2, c, d]),
        _ => Err(WireError::Truncated {
            needed: 4,
            available: b.len(),
        }),
    }
}

/// Same as [`arr4`] for 8-byte fields.
fn arr8(b: &[u8]) -> Result<[u8; 8], WireError> {
    match *b {
        [a, b2, c, d, e, f, g, h, ..] => Ok([a, b2, c, d, e, f, g, h]),
        _ => Err(WireError::Truncated {
            needed: 8,
            available: b.len(),
        }),
    }
}

/// Read one frame from a stream, enforcing the size cap *before*
/// allocating the payload buffer and verifying the checksum after.
pub fn read_frame(r: &mut impl Read) -> Result<(FrameKind, Vec<u8>), WireError> {
    let meta = read_frame_meta(r)?;
    Ok((meta.kind, meta.payload))
}

/// [`read_frame`] exposing the full envelope: trace context alongside
/// kind and payload.
pub fn read_frame_meta(r: &mut impl Read) -> Result<FrameMeta, WireError> {
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header)?;
    let (kind, len) = parse_header(&header)?;
    let mut ext: Vec<u8> = Vec::with_capacity(17);
    let mut trace = None;
    let mut flags = [0u8; 1];
    r.read_exact(&mut flags)?;
    let [flag_byte] = flags;
    validate_ext_flags(flag_byte)?;
    ext.push(flag_byte);
    if flag_byte & EXT_FLAG_TRACE != 0 {
        let mut id = [0u8; 8];
        r.read_exact(&mut id)?;
        ext.extend_from_slice(&id);
        let mut retry_of = None;
        if flag_byte & EXT_FLAG_RETRY != 0 {
            let mut prev = [0u8; 8];
            r.read_exact(&mut prev)?;
            retry_of = Some(u64::from_le_bytes(prev));
            ext.extend_from_slice(&prev);
        }
        trace = Some(TraceContext {
            trace_id: u64::from_le_bytes(id),
            retry_of,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; TRAILER_LEN];
    r.read_exact(&mut trailer)?;
    check_crc(&header, &ext, &payload, trailer)?;
    Ok(FrameMeta {
        kind,
        trace,
        payload,
    })
}

/// Decode a frame held entirely in `buf`. Unlike [`read_frame`], the buffer
/// must contain *exactly* one frame: short buffers are
/// [`WireError::Truncated`], long ones [`WireError::TrailingBytes`].
pub fn decode_frame(buf: &[u8]) -> Result<(FrameKind, &[u8]), WireError> {
    let view = decode_frame_meta(buf)?;
    Ok((view.kind, view.payload))
}

/// [`decode_frame`] exposing the full envelope.
pub fn decode_frame_meta(buf: &[u8]) -> Result<FrameView<'_>, WireError> {
    let header = arr8(buf)?;
    let (kind, len) = parse_header(&header)?;
    let mut trace = None;
    let flags = *buf.get(HEADER_LEN).ok_or(WireError::Truncated {
        needed: HEADER_LEN + 1,
        available: buf.len(),
    })?;
    validate_ext_flags(flags)?;
    let mut ext_len = 1usize;
    if flags & EXT_FLAG_TRACE != 0 {
        let id = arr8(buf.get(HEADER_LEN + 1..).unwrap_or(&[]))?;
        ext_len = 9;
        let mut retry_of = None;
        if flags & EXT_FLAG_RETRY != 0 {
            let prev = arr8(buf.get(HEADER_LEN + 9..).unwrap_or(&[]))?;
            retry_of = Some(u64::from_le_bytes(prev));
            ext_len = 17;
        }
        trace = Some(TraceContext {
            trace_id: u64::from_le_bytes(id),
            retry_of,
        });
    }
    let total = HEADER_LEN + ext_len + len + TRAILER_LEN;
    if buf.len() < total {
        return Err(WireError::Truncated {
            needed: total,
            available: buf.len(),
        });
    }
    if buf.len() > total {
        return Err(WireError::TrailingBytes(buf.len() - total));
    }
    let truncated = WireError::Truncated {
        needed: total,
        available: buf.len(),
    };
    let ext = buf.get(HEADER_LEN..HEADER_LEN + ext_len).ok_or(truncated)?;
    let payload = buf
        .get(HEADER_LEN + ext_len..HEADER_LEN + ext_len + len)
        .ok_or(WireError::Truncated {
            needed: total,
            available: buf.len(),
        })?;
    let trailer = arr4(buf.get(HEADER_LEN + ext_len + len..).unwrap_or(&[]))?;
    check_crc(&header, ext, payload, trailer)?;
    Ok(FrameView {
        kind,
        trace,
        payload,
    })
}

fn parse_header(header: &[u8; HEADER_LEN]) -> Result<(FrameKind, usize), WireError> {
    let [m0, m1, version, kind, l0, l1, l2, l3] = *header;
    if [m0, m1] != MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if version != WIRE_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = FrameKind::from_byte(kind)?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized {
            len: len as u64,
            cap: MAX_PAYLOAD as u64,
        });
    }
    Ok((kind, len))
}

fn check_crc(
    header: &[u8; HEADER_LEN],
    ext: &[u8],
    payload: &[u8],
    trailer: [u8; TRAILER_LEN],
) -> Result<(), WireError> {
    let [_, _, version, kind, ..] = *header;
    let expected = u32::from_le_bytes(trailer);
    let actual = fnv1a(&[&[version, kind], ext, payload]);
    if expected != actual {
        return Err(WireError::ChecksumMismatch { expected, actual });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Primitive writers/readers
// ---------------------------------------------------------------------------

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            buf: Vec::with_capacity(64),
        }
    }

    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    fn f32(&mut self, v: f32) {
        self.u32(v.to_bits());
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// `usize` travels as `u64` so 32- and 64-bit peers interoperate.
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    fn len(&mut self, n: usize) {
        debug_assert!(n <= u32::MAX as usize, "collection too large for wire");
        self.u32(n as u32);
    }

    fn string(&mut self, s: &str) {
        self.len(s.len());
        self.buf.extend_from_slice(s.as_bytes());
    }

    fn opt_u32(&mut self, v: Option<u32>) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                self.u32(x);
            }
        }
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let s = self
            .buf
            .get(self.pos..self.pos.saturating_add(n))
            .ok_or(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            })?;
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn bool(&mut self) -> Result<bool, WireError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(WireError::BadBool(b)),
        }
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(arr4(self.take(4)?)?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(arr8(self.take(8)?)?))
    }

    fn i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(arr8(self.take(8)?)?))
    }

    fn f32(&mut self) -> Result<f32, WireError> {
        Ok(f32::from_bits(self.u32()?))
    }

    fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    fn usize(&mut self) -> Result<usize, WireError> {
        let v = self.u64()?;
        usize::try_from(v).map_err(|_| WireError::Oversized {
            len: v,
            cap: usize::MAX as u64,
        })
    }

    /// Collection length. Bounded by the bytes actually present (every
    /// element is ≥ 1 byte), so a corrupted count cannot drive a huge
    /// pre-allocation.
    fn len(&mut self) -> Result<usize, WireError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(WireError::Truncated {
                needed: n,
                available: self.remaining(),
            });
        }
        Ok(n)
    }

    fn string(&mut self) -> Result<String, WireError> {
        let n = self.len()?;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadUtf8)
    }

    fn opt_u32(&mut self) -> Result<Option<u32>, WireError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u32()?)),
            b => Err(WireError::BadTag {
                what: "option",
                tag: b,
            }),
        }
    }

    fn finish(self) -> Result<(), WireError> {
        if self.remaining() > 0 {
            return Err(WireError::TrailingBytes(self.remaining()));
        }
        Ok(())
    }
}

fn read_vec<T>(
    r: &mut Reader<'_>,
    mut elem: impl FnMut(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<Vec<T>, WireError> {
    let n = r.len()?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(elem(r)?);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Domain encodings
// ---------------------------------------------------------------------------

fn write_mode(w: &mut Writer, m: ArchiveMode) {
    w.u8(match m {
        ArchiveMode::Off => 0,
        ArchiveMode::Private => 1,
        ArchiveMode::Community => 2,
    });
}

fn read_mode(r: &mut Reader<'_>) -> Result<ArchiveMode, WireError> {
    match r.u8()? {
        0 => Ok(ArchiveMode::Off),
        1 => Ok(ArchiveMode::Private),
        2 => Ok(ArchiveMode::Community),
        tag => Err(WireError::BadTag {
            what: "ArchiveMode",
            tag,
        }),
    }
}

fn write_event(w: &mut Writer, e: &ClientEvent) {
    match e {
        ClientEvent::Visit(v) => {
            w.u8(0);
            w.u32(v.user);
            w.u32(v.session);
            w.u32(v.page);
            w.string(&v.url);
            w.u64(v.time);
            w.opt_u32(v.referrer);
        }
        ClientEvent::Bookmark {
            user,
            page,
            url,
            folder,
            time,
        } => {
            w.u8(1);
            w.u32(*user);
            w.u32(*page);
            w.string(url);
            w.string(folder);
            w.u64(*time);
        }
        ClientEvent::SetMode { user, mode, time } => {
            w.u8(2);
            w.u32(*user);
            write_mode(w, *mode);
            w.u64(*time);
        }
    }
}

fn read_event(r: &mut Reader<'_>) -> Result<ClientEvent, WireError> {
    match r.u8()? {
        0 => Ok(ClientEvent::Visit(VisitEvent {
            user: r.u32()?,
            session: r.u32()?,
            page: r.u32()?,
            url: r.string()?,
            time: r.u64()?,
            referrer: r.opt_u32()?,
        })),
        1 => Ok(ClientEvent::Bookmark {
            user: r.u32()?,
            page: r.u32()?,
            url: r.string()?,
            folder: r.string()?,
            time: r.u64()?,
        }),
        2 => Ok(ClientEvent::SetMode {
            user: r.u32()?,
            mode: read_mode(r)?,
            time: r.u64()?,
        }),
        tag => Err(WireError::BadTag {
            what: "ClientEvent",
            tag,
        }),
    }
}

fn write_scored(w: &mut Writer, items: &[(u32, f64)]) {
    w.len(items.len());
    for (id, score) in items {
        w.u32(*id);
        w.f64(*score);
    }
}

fn read_scored(r: &mut Reader<'_>) -> Result<Vec<(u32, f64)>, WireError> {
    read_vec(r, |r| Ok((r.u32()?, r.f64()?)))
}

fn write_trail(w: &mut Writer, t: &TrailContext) {
    w.len(t.nodes.len());
    for n in &t.nodes {
        w.u32(n.page);
        w.u32(n.visit_count);
        w.u64(n.last_time);
    }
    w.len(t.edges.len());
    for (a, b, count) in &t.edges {
        w.u32(*a);
        w.u32(*b);
        w.u32(*count);
    }
}

fn read_trail(r: &mut Reader<'_>) -> Result<TrailContext, WireError> {
    let nodes = read_vec(r, |r| {
        Ok(ContextNode {
            page: r.u32()?,
            visit_count: r.u32()?,
            last_time: r.u64()?,
        })
    })?;
    let edges = read_vec(r, |r| Ok((r.u32()?, r.u32()?, r.u32()?)))?;
    Ok(TrailContext { nodes, edges })
}

fn write_histogram(w: &mut Writer, h: &HistogramSnapshot) {
    for b in &h.buckets {
        w.u64(*b);
    }
    w.u64(h.count);
    w.u64(h.sum);
}

fn read_histogram(r: &mut Reader<'_>) -> Result<HistogramSnapshot, WireError> {
    let mut buckets = [0u64; NUM_BUCKETS];
    for b in buckets.iter_mut() {
        *b = r.u64()?;
    }
    Ok(HistogramSnapshot {
        buckets,
        count: r.u64()?,
        sum: r.u64()?,
    })
}

fn write_snapshot(w: &mut Writer, s: &Snapshot) {
    w.len(s.counters.len());
    for (name, v) in &s.counters {
        w.string(name);
        w.u64(*v);
    }
    w.len(s.gauges.len());
    for (name, v) in &s.gauges {
        w.string(name);
        w.i64(*v);
    }
    w.len(s.histograms.len());
    for (name, h) in &s.histograms {
        w.string(name);
        write_histogram(w, h);
    }
    w.len(s.events.len());
    for (subsystem, ring) in &s.events {
        w.string(subsystem);
        w.len(ring.len());
        for ev in ring {
            w.u64(ev.seq);
            w.string(&ev.message);
        }
    }
}

fn read_snapshot(r: &mut Reader<'_>) -> Result<Snapshot, WireError> {
    let counters = read_vec(r, |r| Ok((r.string()?, r.u64()?)))?;
    let gauges = read_vec(r, |r| Ok((r.string()?, r.i64()?)))?;
    let histograms = read_vec(r, |r| Ok((r.string()?, read_histogram(r)?)))?;
    let events = read_vec(r, |r| {
        let subsystem = r.string()?;
        let ring = read_vec(r, |r| {
            Ok(Event {
                seq: r.u64()?,
                message: r.string()?,
            })
        })?;
        Ok((subsystem, ring))
    })?;
    Ok(Snapshot {
        counters,
        gauges,
        histograms,
        events,
    })
}

fn write_trace_data(w: &mut Writer, t: &TraceData) {
    w.u64(t.trace_id);
    w.len(t.spans.len());
    for s in &t.spans {
        w.u32(s.id);
        w.opt_u32(s.parent);
        w.string(&s.name);
        w.u64(s.start_ns);
        w.u64(s.end_ns);
        w.len(s.annotations.len());
        for (k, v) in &s.annotations {
            w.string(k);
            w.string(v);
        }
    }
}

fn read_trace_data(r: &mut Reader<'_>) -> Result<TraceData, WireError> {
    let trace_id = r.u64()?;
    let spans = read_vec(r, |r| {
        Ok(SpanData {
            id: r.u32()?,
            parent: r.opt_u32()?,
            name: r.string()?,
            start_ns: r.u64()?,
            end_ns: r.u64()?,
            annotations: read_vec(r, |r| Ok((r.string()?, r.string()?)))?,
        })
    })?;
    Ok(TraceData { trace_id, spans })
}

// ---------------------------------------------------------------------------
// Request / Response
// ---------------------------------------------------------------------------

// Tag tables. Appending a variant appends a tag; existing tags are frozen
// (the versioning rule above). The `match`es below are deliberately
// wildcard-free: adding a `Request`/`Response` variant without teaching the
// codec about it fails compilation *here* before any test runs.

/// Encode a request payload (frame it with [`write_frame`] /
/// [`frame_bytes`]).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    match req {
        Request::Event(e) => {
            w.u8(0);
            write_event(&mut w, e);
        }
        Request::Recall {
            user,
            query,
            since,
            until,
            k,
        } => {
            w.u8(1);
            w.u32(*user);
            w.string(query);
            w.u64(*since);
            w.u64(*until);
            w.usize(*k);
        }
        Request::TrailReplay {
            user,
            folder,
            since,
            max_pages,
        } => {
            w.u8(2);
            w.u32(*user);
            w.u32(*folder);
            w.u64(*since);
            w.usize(*max_pages);
        }
        Request::WhatsNew {
            user,
            folder,
            since,
            k,
        } => {
            w.u8(3);
            w.u32(*user);
            w.u32(*folder);
            w.u64(*since);
            w.usize(*k);
        }
        Request::Bill { user, since, until } => {
            w.u8(4);
            w.u32(*user);
            w.u64(*since);
            w.u64(*until);
        }
        Request::SimilarSurfers { user, k } => {
            w.u8(5);
            w.u32(*user);
            w.usize(*k);
        }
        Request::Recommend { user, k } => {
            w.u8(6);
            w.u32(*user);
            w.usize(*k);
        }
        Request::ImportBookmarks { user, html, time } => {
            w.u8(7);
            w.u32(*user);
            w.string(html);
            w.u64(*time);
        }
        Request::ExportBookmarks { user } => {
            w.u8(8);
            w.u32(*user);
        }
        Request::ProposeFolders { user, k } => {
            w.u8(9);
            w.u32(*user);
            w.usize(*k);
        }
        Request::Stats => {
            w.u8(10);
        }
        Request::Traces { slow_only, limit } => {
            w.u8(11);
            w.bool(*slow_only);
            w.usize(*limit);
        }
    }
    w.buf
}

/// Decode a request payload produced by [`encode_request`].
pub fn decode_request(payload: &[u8]) -> Result<Request, WireError> {
    let mut r = Reader::new(payload);
    let req = match r.u8()? {
        0 => Request::Event(read_event(&mut r)?),
        1 => Request::Recall {
            user: r.u32()?,
            query: r.string()?,
            since: r.u64()?,
            until: r.u64()?,
            k: r.usize()?,
        },
        2 => Request::TrailReplay {
            user: r.u32()?,
            folder: r.u32()?,
            since: r.u64()?,
            max_pages: r.usize()?,
        },
        3 => Request::WhatsNew {
            user: r.u32()?,
            folder: r.u32()?,
            since: r.u64()?,
            k: r.usize()?,
        },
        4 => Request::Bill {
            user: r.u32()?,
            since: r.u64()?,
            until: r.u64()?,
        },
        5 => Request::SimilarSurfers {
            user: r.u32()?,
            k: r.usize()?,
        },
        6 => Request::Recommend {
            user: r.u32()?,
            k: r.usize()?,
        },
        7 => Request::ImportBookmarks {
            user: r.u32()?,
            html: r.string()?,
            time: r.u64()?,
        },
        8 => Request::ExportBookmarks { user: r.u32()? },
        9 => Request::ProposeFolders {
            user: r.u32()?,
            k: r.usize()?,
        },
        10 => Request::Stats,
        11 => Request::Traces {
            slow_only: r.bool()?,
            limit: r.usize()?,
        },
        tag => {
            return Err(WireError::BadTag {
                what: "Request",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(req)
}

/// Encode a response payload.
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    match resp {
        Response::Ack { archived } => {
            w.u8(0);
            w.bool(*archived);
        }
        Response::Recall(hits) => {
            w.u8(1);
            w.len(hits.len());
            for h in hits {
                w.u32(h.page);
                w.string(&h.url);
                w.f32(h.score);
                w.u64(h.last_visit);
                w.string(&h.snippet);
            }
        }
        Response::TrailReplay(t) => {
            w.u8(2);
            write_trail(&mut w, t);
        }
        Response::WhatsNew(items) => {
            w.u8(3);
            write_scored(&mut w, items);
        }
        Response::Bill(lines) => {
            w.u8(4);
            w.len(lines.len());
            for l in lines {
                w.string(&l.folder);
                w.u64(l.bytes);
                w.u32(l.visits);
                w.f64(l.fraction);
            }
        }
        Response::SimilarSurfers(items) => {
            w.u8(5);
            write_scored(&mut w, items);
        }
        Response::Recommend(items) => {
            w.u8(6);
            write_scored(&mut w, items);
        }
        Response::Imported {
            archived,
            rejected,
            unresolved,
        } => {
            w.u8(7);
            w.usize(*archived);
            w.usize(*rejected);
            w.usize(*unresolved);
        }
        Response::Exported(html) => {
            w.u8(8);
            w.string(html);
        }
        Response::Proposals(props) => {
            w.u8(9);
            w.len(props.len());
            for p in props {
                w.string(&p.name);
                w.len(p.pages.len());
                for page in &p.pages {
                    w.u32(*page);
                }
            }
        }
        Response::Stats(snap) => {
            w.u8(10);
            write_snapshot(&mut w, snap);
        }
        Response::Error(msg) => {
            w.u8(11);
            w.string(msg);
        }
        Response::Overloaded { in_flight, limit } => {
            w.u8(12);
            w.u32(*in_flight);
            w.u32(*limit);
        }
        Response::Traces(traces) => {
            w.u8(13);
            w.len(traces.len());
            for t in traces {
                write_trace_data(&mut w, t);
            }
        }
    }
    w.buf
}

/// Decode a response payload produced by [`encode_response`].
pub fn decode_response(payload: &[u8]) -> Result<Response, WireError> {
    let mut r = Reader::new(payload);
    let resp = match r.u8()? {
        0 => Response::Ack {
            archived: r.bool()?,
        },
        1 => Response::Recall(read_vec(&mut r, |r| {
            Ok(RecallHit {
                page: r.u32()?,
                url: r.string()?,
                score: r.f32()?,
                last_visit: r.u64()?,
                snippet: r.string()?,
            })
        })?),
        2 => Response::TrailReplay(read_trail(&mut r)?),
        3 => Response::WhatsNew(read_scored(&mut r)?),
        4 => Response::Bill(read_vec(&mut r, |r| {
            Ok(BillLine {
                folder: r.string()?,
                bytes: r.u64()?,
                visits: r.u32()?,
                fraction: r.f64()?,
            })
        })?),
        5 => Response::SimilarSurfers(read_scored(&mut r)?),
        6 => Response::Recommend(read_scored(&mut r)?),
        7 => Response::Imported {
            archived: r.usize()?,
            rejected: r.usize()?,
            unresolved: r.usize()?,
        },
        8 => Response::Exported(r.string()?),
        9 => Response::Proposals(read_vec(&mut r, |r| {
            Ok(FolderProposal {
                name: r.string()?,
                pages: read_vec(r, |r| r.u32())?,
            })
        })?),
        10 => Response::Stats(read_snapshot(&mut r)?),
        11 => Response::Error(r.string()?),
        12 => Response::Overloaded {
            in_flight: r.u32()?,
            limit: r.u32()?,
        },
        13 => Response::Traces(read_vec(&mut r, read_trace_data)?),
        tag => {
            return Err(WireError::BadTag {
                what: "Response",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(resp)
}

// Convenience stream helper.

/// Frame and write a request.
pub fn write_request(w: &mut impl Write, req: &Request) -> Result<(), WireError> {
    write_frame(w, FrameKind::Request, &encode_request(req))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let payload = encode_request(&Request::Stats);
        let frame = frame_bytes(FrameKind::Request, &payload);
        let (kind, decoded) = decode_frame(&frame).expect("roundtrip");
        assert_eq!(kind, FrameKind::Request);
        assert_eq!(decoded, &payload[..]);
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut frame = frame_bytes(FrameKind::Request, &encode_request(&Request::Stats));
        frame[4..8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            decode_frame(&frame),
            Err(WireError::Oversized { .. })
        ));
        // Stream path too: the reader must not try to allocate 4 GiB.
        let mut cursor = std::io::Cursor::new(frame);
        assert!(matches!(
            read_frame(&mut cursor),
            Err(WireError::Oversized { .. })
        ));
    }

    #[test]
    fn stream_eof_is_io_error() {
        let mut cursor = std::io::Cursor::new(Vec::<u8>::new());
        assert!(matches!(read_frame(&mut cursor), Err(WireError::Io(_))));
    }

    #[test]
    fn unknown_tags_are_typed_errors() {
        assert!(matches!(
            decode_request(&[200]),
            Err(WireError::BadTag {
                what: "Request",
                tag: 200
            })
        ));
        assert!(matches!(
            decode_response(&[200]),
            Err(WireError::BadTag {
                what: "Response",
                tag: 200
            })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut payload = encode_request(&Request::Stats);
        payload.push(0);
        assert!(matches!(
            decode_request(&payload),
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
            let frame =
                frame_bytes_versioned(WIRE_VERSION, FrameKind::Request, &payload, Some(ctx));
            let view = decode_frame_meta(&frame).expect("decode");
            assert_eq!(view.trace, Some(ctx));
            assert_eq!(view.payload, &payload[..]);
            // Stream path agrees.
            let mut cursor = std::io::Cursor::new(frame);
            let meta = read_frame_meta(&mut cursor).expect("read");
            assert_eq!(meta.trace, Some(ctx));
            assert_eq!(meta.payload, payload);
        }
    }

    #[test]
    fn retry_flag_rejected_without_trace() {
        let payload = encode_request(&Request::Stats);
        // A retry-of id with no trace id to qualify is malformed (the CRC
        // must be recomputed so the flag byte, not the checksum, trips).
        let mut frame = frame_bytes_versioned(WIRE_VERSION, FrameKind::Request, &payload, None);
        frame[HEADER_LEN] = EXT_FLAG_RETRY;
        let crc_start = frame.len() - TRAILER_LEN;
        let crc = fnv1a(&[&frame[2..crc_start]]).to_le_bytes();
        frame[crc_start..].copy_from_slice(&crc);
        assert!(matches!(
            decode_frame_meta(&frame),
            Err(WireError::BadTag {
                what: "frame extension flags",
                ..
            })
        ));
    }

    #[test]
    fn unknown_extension_flags_rejected() {
        let payload = encode_request(&Request::Stats);
        let mut frame = frame_bytes_versioned(WIRE_VERSION, FrameKind::Request, &payload, None);
        frame[HEADER_LEN] = 0x82; // unknown high bits
        assert!(matches!(
            decode_frame_meta(&frame),
            Err(WireError::BadTag {
                what: "frame extension flags",
                ..
            })
        ));
    }

    /// Every version byte but the current one is refused — the retired
    /// v2 and v3 included — on the buffer and the stream path alike.
    #[test]
    fn every_other_version_rejected() {
        let payload = encode_request(&Request::Stats);
        let mut frame = frame_bytes(FrameKind::Request, &payload);
        for bad in [0u8, 1, 2, 3, WIRE_VERSION + 1, 255] {
            frame[2] = bad;
            assert!(matches!(
                decode_frame_meta(&frame),
                Err(WireError::UnsupportedVersion(v)) if v == bad
            ));
            assert!(matches!(
                read_frame_meta(&mut std::io::Cursor::new(&frame)),
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
