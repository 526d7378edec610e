//! Blocking client for the Memex wire protocol.
//!
//! [`MemexClient`] keeps one TCP connection and pipelines request/response
//! pairs over it, reading answers through a per-connection `BufReader` (a
//! frame costs one `recv`) and writing requests straight to the socket; a
//! re-dial drops the buffer with the dead connection. Connects are bounded
//! by a connect timeout, each exchange by read/write timeouts, and a
//! connection torn down underneath us (broken pipe, reset, EOF — e.g. the
//! server closed an idle connection) is re-dialled transparently and the request retried, at most
//! [`ClientConfig::reconnect_attempts`] times — but **only for read
//! requests** ([`Request::is_read`]). A write (`Event`, `ImportBookmarks`)
//! whose connection dies mid-exchange may already have been applied by the
//! server, so re-sending could double-apply it; those surface as
//! [`NetError::WriteInterrupted`] and the caller decides (the requests are
//! not idempotent, so the client never guesses). Timeouts are *not*
//! retried for anything: the request may have dispatched.
//!
//! **Trace propagation:** the client stamps every request frame with a
//! fresh 64-bit trace id from a seedable SplitMix64 sequence
//! ([`ClientConfig::trace_seed`]); the server adopts it as the root
//! span's trace id and echoes it on the response, so a slow answer can be
//! correlated with its server-side span tree
//! ([`MemexClient::last_trace_id`]). Every *attempt* gets its own id — a
//! retried read re-sent on a fresh connection must not alias the dead
//! attempt's span tree — and a retry's frame carries the previous
//! attempt's id (`retry_of`), which the server records as a root-span
//! annotation so the attempts of one logical request can be stitched
//! together.

use std::io::{BufReader, ErrorKind};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

use memex_core::servlet::{Request, Response};
use memex_obs::trace::TraceIdGen;

use crate::wire::{self, FrameKind, TraceContext, WireError};

/// Client-side timeouts and retry policy.
#[derive(Debug, Clone, Copy)]
pub struct ClientConfig {
    /// Bound on establishing a TCP connection.
    pub connect_timeout: Duration,
    /// Bound on each of the write and read halves of one exchange.
    pub request_timeout: Duration,
    /// How many times a request may be re-sent on a fresh connection after
    /// the old one proves broken.
    pub reconnect_attempts: u32,
    /// Seed for the client's trace-id sequence (deterministic tests pick
    /// a fixed seed and know every id in advance).
    pub trace_seed: u64,
}

impl Default for ClientConfig {
    fn default() -> ClientConfig {
        ClientConfig {
            connect_timeout: Duration::from_secs(2),
            request_timeout: Duration::from_secs(10),
            reconnect_attempts: 1,
            trace_seed: 0x4d58_434c_4945_4e54, // "MXCLIENT"
        }
    }
}

/// Client-visible failures.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (connect, timeout, reset…).
    Io(std::io::Error),
    /// The bytes on the wire were not a valid frame/payload.
    Wire(WireError),
    /// The peer violated the protocol (e.g. sent a request frame back).
    Protocol(&'static str),
    /// The connection died during a mutating request (`Event`,
    /// `ImportBookmarks`). The server may or may not have applied it; the
    /// client will not re-send because that could double-apply the
    /// mutation. The caller must decide how to reconcile.
    WriteInterrupted(std::io::Error),
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "io: {e}"),
            NetError::Wire(e) => write!(f, "wire: {e}"),
            NetError::Protocol(what) => write!(f, "protocol: {what}"),
            NetError::WriteInterrupted(e) => write!(
                f,
                "connection died during a mutating request (may or may not \
                 have been applied; not re-sent): {e}"
            ),
        }
    }
}

impl std::error::Error for NetError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            NetError::Io(e) => Some(e),
            NetError::Wire(e) => Some(e),
            NetError::Protocol(_) => None,
            NetError::WriteInterrupted(e) => Some(e),
        }
    }
}

impl From<std::io::Error> for NetError {
    fn from(e: std::io::Error) -> NetError {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> NetError {
        // Flatten so callers match one `Io` arm for all transport trouble.
        match e {
            WireError::Io(io) => NetError::Io(io),
            other => NetError::Wire(other),
        }
    }
}

impl NetError {
    /// Would a fresh connection plausibly fix this? True for the
    /// connection-is-dead family, false for timeouts (the request may have
    /// been dispatched) and for decode/protocol errors.
    fn reconnectable(&self) -> bool {
        match self {
            NetError::Io(e) => matches!(
                e.kind(),
                ErrorKind::BrokenPipe
                    | ErrorKind::ConnectionReset
                    | ErrorKind::ConnectionAborted
                    | ErrorKind::UnexpectedEof
                    | ErrorKind::NotConnected
            ),
            NetError::Wire(_) | NetError::Protocol(_) | NetError::WriteInterrupted(_) => false,
        }
    }
}

/// A blocking Memex client over one auto-healing TCP connection.
pub struct MemexClient {
    addr: SocketAddr,
    config: ClientConfig,
    stream: Option<BufReader<TcpStream>>,
    trace_ids: TraceIdGen,
    last_trace_id: Option<u64>,
}

impl MemexClient {
    /// Resolve `addr` and dial the server (eagerly, so a dead server is
    /// reported here rather than on the first request).
    pub fn connect(
        addr: impl ToSocketAddrs,
        config: ClientConfig,
    ) -> Result<MemexClient, NetError> {
        let addr = addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::new(ErrorKind::NotFound, "address resolved to nothing")
        })?;
        let mut client = MemexClient {
            addr,
            config,
            stream: None,
            trace_ids: TraceIdGen::seeded(config.trace_seed),
            last_trace_id: None,
        };
        client.stream = Some(client.dial()?);
        Ok(client)
    }

    fn dial(&self) -> Result<BufReader<TcpStream>, NetError> {
        let stream = TcpStream::connect_timeout(&self.addr, self.config.connect_timeout)?;
        stream.set_read_timeout(Some(self.config.request_timeout))?;
        stream.set_write_timeout(Some(self.config.request_timeout))?;
        stream.set_nodelay(true)?;
        Ok(BufReader::new(stream))
    }

    /// Send one request and block for its response.
    ///
    /// Read requests are transparently retried on a fresh connection when
    /// the old one proves dead. Writes are never re-sent: a dead
    /// connection mid-write yields [`NetError::WriteInterrupted`].
    pub fn request(&mut self, request: &Request) -> Result<Response, NetError> {
        let payload = wire::encode_request(request);
        let mut attempts_left = self.config.reconnect_attempts;
        // Each *attempt* gets a fresh trace id, so two attempts of one
        // logical request never alias span trees in the flight recorder;
        // `retry_of` links an attempt to its predecessor (the server
        // annotates the root span with it).
        let mut prev_attempt: Option<u64> = None;
        loop {
            let trace_ctx = TraceContext {
                trace_id: self.trace_ids.next(),
                retry_of: prev_attempt,
            };
            // Reflect the attempt actually on the wire, so after a retry
            // this is the id of the attempt that answered (or failed last).
            self.last_trace_id = Some(trace_ctx.trace_id);
            if self.stream.is_none() {
                self.stream = Some(self.dial()?);
            }
            let stream = match self.stream.as_mut() {
                Some(s) => s,
                // Unreachable after the dial above; degrade to a typed
                // error rather than a panic on the request path.
                None => return Err(NetError::Protocol("connection slot empty after dial")),
            };
            match Self::exchange(stream, trace_ctx, &payload) {
                Ok(resp) => return Ok(resp),
                Err(e) => {
                    // Whatever happened, this connection is suspect: drop
                    // it, and whatever it had buffered, before a re-dial.
                    self.stream = None;
                    if e.reconnectable() {
                        if !request.is_read() {
                            // The server may have applied the mutation
                            // before the connection died; re-sending could
                            // double-apply it.
                            if let NetError::Io(io) = e {
                                return Err(NetError::WriteInterrupted(io));
                            }
                            return Err(e);
                        }
                        if attempts_left > 0 {
                            attempts_left -= 1;
                            prev_attempt = Some(trace_ctx.trace_id);
                            continue;
                        }
                    }
                    return Err(e);
                }
            }
        }
    }

    /// The trace id stamped on the most recent request (`None` before the
    /// first). Pass it to an operator (or correlate it against
    /// `Request::Traces` output) to find the server-side tree.
    pub fn last_trace_id(&self) -> Option<u64> {
        self.last_trace_id
    }

    fn exchange(
        conn: &mut BufReader<TcpStream>,
        trace_ctx: TraceContext,
        request_payload: &[u8],
    ) -> Result<Response, NetError> {
        wire::write_frame_versioned(
            conn.get_mut(),
            wire::WIRE_VERSION,
            FrameKind::Request,
            request_payload,
            Some(trace_ctx),
        )?;
        let meta = wire::read_frame_meta(conn)?;
        if meta.kind != FrameKind::Response {
            return Err(NetError::Protocol("request frame received from server"));
        }
        Ok(wire::decode_response(&meta.payload)?)
    }
}
