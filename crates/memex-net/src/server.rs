//! The serving core and its TCP transport.
//!
//! [`Service`] is the server the paper describes: the servlets over one
//! served [`Memex`], run "as triggered by client action" (§3). It does no
//! I/O of its own. [`Service::handle`] takes one frame as
//! [`wire::read_frame_meta`] read it and writes the answer frame into any
//! [`Write`]: a socket, a `Vec<u8>` in a test, or a seeded single-thread
//! schedule. [`NetServer`] is only the transport around it: one accept
//! thread feeds connections into a *bounded* queue drained by a fixed pool
//! of worker threads, and each worker reads frames off its connection and
//! hands them to the one shared `Service`.
//!
//! **Read/write split:** requests are classified by
//! [`memex_core::servlet::Request::is_read`]. Reads dispatch through
//! [`dispatch_read`] under a *shared* `RwLock` read guard, so any number of
//! callers answer queries in parallel; writes take the exclusive guard,
//! bump the write epoch, and apply the mutation plus demons/refresh
//! through [`dispatch_write`]. The paper's §3 single-producer/multi-consumer
//! serving shape, on one process.
//!
//! **Epoch-keyed read cache:** identical read requests between two writes
//! hit a bounded FIFO cache (256 entries) keyed by the request itself. An
//! entry is the answer's encoded payload and its CRC-32, so a hit only
//! frames those bytes for the request's trace context: no clone of the
//! answer, no re-encode, and a checksum over the envelope alone. The cache
//! holds answers as of one write epoch. A reader loads the epoch *before*
//! it takes the read lock and offers its answer under that epoch; the
//! first probe or insert that brings a newer epoch clears the whole cache
//! (the cleared entries are counted in `net.read.cache.stale_purged`), and
//! an insert under an older epoch is refused. So a cached response can
//! never outlive the write that invalidated it: a racing write can only
//! make a reader's answer arrive too old to be kept, never keep a stale
//! one. `net.read.cache.evict` counts FIFO evictions of current entries.
//! `Request::Stats` and `Request::Traces` bypass the cache: their answers
//! change without any write. Counters: `net.read.cache.hit`,
//! `net.read.cache.miss`, `net.read.cache.evict`,
//! `net.read.cache.stale_purged`.
//!
//! **Admission control:** a semaphore-style in-flight counter caps how many
//! requests may be dispatching at once. A request arriving above the cap is
//! answered immediately with [`Response::Overloaded`] (counted in
//! `net.shed` *and* `net.req.shed`, timed in `net.req.latency` over the
//! same window as a served request, and its — short — trace completing
//! normally) instead of queueing without bound; a connection arriving
//! while the accept queue is full gets the same verdict and is closed
//! (counted in `net.shed` and `net.conn.rejected`; no request was read,
//! so there is no `net.req.*` accounting for it). The server never makes a
//! client wait silently for capacity.
//!
//! **Shutdown:** [`NetServer::shutdown`] flips the shutdown flag, wakes
//! the accept thread with a self-connection, closes the read side of every
//! connection a worker is serving (so a worker parked on a silent client
//! wakes at once instead of after `read_timeout`), and joins every thread.
//! Workers drain the accept queue before exiting (the channel hands out
//! buffered connections even after the sender is dropped), and any
//! request that arrived completes and is answered — nothing is dropped
//! silently. Then [`Service::into_memex`] hands the archive back.
//!
//! **Tracing:** when the served Memex's [`memex_obs::Tracer`] is enabled
//! (configure it before building the `Service`; it is off by default),
//! every handled request gets a root span (`net.req`) covering
//! decode → lock-acquire → dispatch → write: the window `net.req.latency`
//! times, with one clock. The RwLock acquisition is its `net.lock.wait`
//! child (the window of the histogram of that name), and the root is
//! annotated with `lock_kind` (and `cache_hit=true` on cache-served reads,
//! `shed=true` on overload verdicts, `retry_of=<id>` when the client marked
//! the request as a retry of an earlier attempt). The trace id comes from
//! the frame envelope when the client stamped one, else from the tracer's
//! seeded generator; responses echo it. Completed span trees land in the tracer's flight recorder (and
//! slow log) and are served over the wire by `Request::Traces`.
//!
//! All serving stats flow through the served Memex's metrics registry
//! (`net.conn.*`, `net.req.*`, `net.read.*`, `net.shed`,
//! `net.decode.errors`), so `Request::Stats` — itself servable over the
//! wire — reports them.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memex_core::memex::Memex;
use memex_core::servlet::{
    dispatch_read, dispatch_write, Classified, ReadRequest, Request, Response, ServletLatency,
    WriteRequest,
};
use memex_obs::{trace, Counter, Gauge, Histogram, MetricsRegistry, Tracer};

use crate::wire::{self, FrameKind, FrameMeta, TraceContext, WireError};

/// Tuning knobs for [`NetServer`].
#[derive(Debug, Clone, Copy)]
pub struct NetServerConfig {
    /// Fixed worker-pool size (each worker owns one connection at a time).
    pub workers: usize,
    /// Bound of the accepted-connection queue; a connection arriving while
    /// the queue is full is shed with an overload frame.
    pub accept_queue: usize,
    /// Maximum requests dispatching concurrently before load-shedding.
    pub max_in_flight: usize,
    /// Per-connection read timeout. A connection idle longer than this is
    /// closed (clients reconnect transparently).
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            workers: 4,
            accept_queue: 64,
            max_in_flight: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
        }
    }
}

/// Capacity (entries) of the epoch-keyed read-result cache.
const READ_CACHE_ENTRIES: usize = 256;

/// An encoded response payload and its CRC-32 (see
/// [`wire::checked_response`]): what the read cache keeps, and all a
/// response frame needs besides the trace context.
type Encoded = Arc<(Vec<u8>, u32)>;

fn encoded(resp: &Response) -> Encoded {
    Arc::new(wire::checked_response(resp))
}

/// Bounded FIFO read-result cache keyed by the request, holding answers
/// as of one write epoch: the newest one it has observed. Observing a newer
/// epoch clears it and an insert under an older one is refused, so every
/// entry is current and a probe needs no per-entry tag.
#[derive(Default)]
struct ReadCache {
    /// Newest write epoch this cache has observed; every entry is as of it.
    epoch: u64,
    map: HashMap<Request, Encoded>,
    /// The keys of `map` in insertion order, for FIFO eviction.
    order: VecDeque<Request>,
}

impl ReadCache {
    /// Observe `epoch`; on a bump, clear every entry. Returns how many
    /// entries were cleared.
    fn note_epoch(&mut self, epoch: u64) -> u64 {
        if epoch <= self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let purged = self.map.len() as u64;
        self.map.clear();
        self.order.clear();
        purged
    }

    /// Probe for `key` by a reader that loaded `epoch`. Returns the hit and
    /// how many entries the epoch observation cleared.
    fn get(&mut self, key: &Request, epoch: u64) -> (Option<Encoded>, u64) {
        let purged = self.note_epoch(epoch);
        (self.map.get(key).map(Arc::clone), purged)
    }

    /// Insert an answer dispatched by a reader that loaded `epoch`. Returns
    /// `(evicted, purged)`: how many entries were evicted for capacity, and
    /// how many the epoch observation cleared. An answer from before the
    /// newest observed epoch may be stale and is not stored.
    fn put(&mut self, key: Request, epoch: u64, answer: Encoded) -> (u64, u64) {
        let purged = self.note_epoch(epoch);
        if epoch < self.epoch {
            return (0, purged);
        }
        let mut evicted = 0u64;
        if self.map.insert(key.clone(), answer).is_none() {
            self.order.push_back(key);
            if self.map.len() > READ_CACHE_ENTRIES {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                    evicted = 1;
                }
            }
        }
        (evicted, purged)
    }
}

/// The serving layer's registry handles, every `net.*` name and the
/// servlet latencies a cache hit records, registered once when the
/// [`Service`] is built (like `memex-server`'s `ServerMetrics`): the rare
/// paths' names — the transport's included — are in the first snapshot
/// too, and a request bumps atomics without looking a name up.
struct NetMetrics {
    conn_accepted: Counter,
    conn_rejected: Counter,
    conn_closed: Counter,
    conn_idle_closed: Counter,
    conn_write_errors: Counter,
    conn_active: Gauge,
    accept_errors: Counter,
    decode_errors: Counter,
    resp_oversized: Counter,
    shed: Counter,
    req_ok: Counter,
    req_panics: Counter,
    req_poisoned: Counter,
    req_shed: Counter,
    req_latency: Histogram,
    read_ok: Counter,
    cache_hit: Counter,
    cache_miss: Counter,
    cache_evict: Counter,
    cache_stale_purged: Counter,
    lock_wait: Histogram,
    servlets: ServletLatency,
}

impl NetMetrics {
    fn new(registry: &MetricsRegistry) -> NetMetrics {
        NetMetrics {
            conn_accepted: registry.counter("net.conn.accepted"),
            conn_rejected: registry.counter("net.conn.rejected"),
            conn_closed: registry.counter("net.conn.closed"),
            conn_idle_closed: registry.counter("net.conn.idle_closed"),
            conn_write_errors: registry.counter("net.conn.write_errors"),
            conn_active: registry.gauge("net.conn.active"),
            accept_errors: registry.counter("net.accept.errors"),
            decode_errors: registry.counter("net.decode.errors"),
            resp_oversized: registry.counter("net.resp.oversized"),
            shed: registry.counter("net.shed"),
            req_ok: registry.counter("net.req.ok"),
            req_panics: registry.counter("net.req.panics"),
            req_poisoned: registry.counter("net.req.poisoned"),
            req_shed: registry.counter("net.req.shed"),
            req_latency: registry.histogram("net.req.latency"),
            read_ok: registry.counter("net.read.ok"),
            cache_hit: registry.counter("net.read.cache.hit"),
            cache_miss: registry.counter("net.read.cache.miss"),
            cache_evict: registry.counter("net.read.cache.evict"),
            cache_stale_purged: registry.counter("net.read.cache.stale_purged"),
            lock_wait: registry.histogram("net.lock.wait"),
            servlets: ServletLatency::new(registry),
        }
    }
}

/// The servlets over one served [`Memex`], with no I/O of their own: the
/// `RwLock` guard, the write epoch and the read cache keyed by it,
/// admission control, the `net.*` metrics and per-request tracing. Share
/// it by reference; any number of threads may call [`Service::handle`] at
/// once.
pub struct Service {
    memex: RwLock<Memex>,
    /// Bumped (under the write lock, before the mutation) on every write;
    /// versions the read cache.
    epoch: AtomicU64,
    cache: Mutex<ReadCache>,
    metrics: NetMetrics,
    in_flight: AtomicUsize,
    max_in_flight: usize,
    /// The served Memex's tracer; root spans start here.
    tracer: Tracer,
}

impl Service {
    /// Serve `memex`, shedding any request that arrives while
    /// `max_in_flight` others are dispatching. Tracing follows
    /// `memex.tracer()` as configured.
    pub fn new(memex: Memex, max_in_flight: usize) -> Service {
        let metrics = NetMetrics::new(memex.registry());
        let tracer = memex.tracer().clone();
        Service {
            memex: RwLock::new(memex),
            epoch: AtomicU64::new(0),
            cache: Mutex::new(ReadCache::default()),
            metrics,
            in_flight: AtomicUsize::new(0),
            max_in_flight,
            tracer,
        }
    }

    /// Give the served `Memex` back. A panicking write dispatch poisons the
    /// lock; the state behind it is still the state, so it is recovered
    /// rather than the poison propagated.
    pub fn into_memex(self) -> Memex {
        self.memex
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Answer one frame, as [`wire::read_frame_meta`] returned it, into
    /// `out`, and return whether the connection stays open. I/O errors
    /// belong to the transport; any other error, a response frame or a
    /// payload that does not decode is answered with a typed error frame
    /// and closes the connection (the stream position is no longer
    /// trustworthy). A request is shed, or dispatched — reads through the
    /// read cache — and its answer framed with the request's trace context
    /// in one `write_all`; a failed write closes the connection.
    pub fn handle(&self, frame: Result<FrameMeta, WireError>, out: &mut impl Write) -> bool {
        let m = &self.metrics;
        let frame = match frame {
            Ok(frame) if frame.kind == FrameKind::Request => frame,
            // A client must never send response frames.
            Ok(_) => {
                return self.reject("protocol: response frame sent to server".into(), None, out)
            }
            Err(e) => return self.reject(format!("decode: {e}"), None, out),
        };
        // One window, decode → write, timed into `net.req.latency` and, when
        // tracing is on, the root span `net.req` of the request's trace. The
        // id is the client's (frame trace context) or minted from the
        // tracer's seeded generator; the guard publishes the completed tree
        // to the flight recorder when it is dropped after the write.
        let root = self
            .tracer
            .start_trace(&m.req_latency, frame.trace.map(|t| t.trace_id));
        if let Some(prev) = frame.trace.and_then(|t| t.retry_of) {
            // The client marked this as the retry of a dead attempt: link
            // the trees so operators can stitch the logical request together.
            trace::annotate("retry_of", prev);
        }
        let decode_span = trace::span("net.decode");
        let request = wire::decode_request(&frame.payload);
        drop(decode_span);
        let request = match request {
            Ok(r) => r,
            Err(e) => return self.reject(format!("decode: {e}"), frame.trace, out),
        };
        // Admission control: acquire an in-flight permit or shed. The permit
        // covers lock wait + dispatch, so a convoy behind a slow request is
        // surfaced as explicit overload frames instead of unbounded queueing.
        let prev = self.in_flight.fetch_add(1, Ordering::SeqCst);
        let answer = if prev >= self.max_in_flight {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            // A shed reply is still a served request: it must show up in the
            // `net.req.*` accounting and the flight recorder, not just in
            // `net.shed` — overload is exactly when operators look there.
            m.shed.inc();
            m.req_shed.inc();
            trace::annotate("shed", "true");
            encoded(&Response::Overloaded {
                in_flight: prev.min(u32::MAX as usize) as u32,
                limit: self.max_in_flight.min(u32::MAX as usize) as u32,
            })
        } else {
            let answer = match request.classify() {
                Classified::Read(r) => self.answer_read(r),
                Classified::Write(w) => self.answer_write(w),
            };
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            answer
        };
        let write_span = trace::span("net.write");
        let wrote = respond(m, out, frame.trace, &answer);
        drop(write_span);
        // Completes the request's window: everything after this is outside.
        drop(root);
        wrote.map_err(|_| m.conn_write_errors.inc()).is_ok()
    }

    /// Answer a frame that cannot be served with a typed error, counted in
    /// `net.decode.errors`, and close the connection.
    fn reject(&self, why: String, trace: Option<TraceContext>, out: &mut impl Write) -> bool {
        self.metrics.decode_errors.inc();
        let _ = respond(&self.metrics, out, trace, &encoded(&Response::Error(why)));
        false
    }

    fn cache_get(&self, key: &Request, epoch: u64) -> Option<Encoded> {
        let (hit, purged) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .get(key, epoch);
        if purged > 0 {
            self.metrics.cache_stale_purged.add(purged);
        }
        hit
    }

    fn cache_put(&self, key: Request, epoch: u64, answer: Encoded) {
        let (evicted, purged) = self
            .cache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .put(key, epoch, answer);
        if evicted > 0 {
            self.metrics.cache_evict.add(evicted);
        }
        if purged > 0 {
            self.metrics.cache_stale_purged.add(purged);
        }
    }

    /// Serve one read request: probe the epoch-keyed cache, else dispatch
    /// under the shared read guard, encode, and (when cacheable) remember
    /// the encoded answer.
    fn answer_read(&self, request: ReadRequest) -> Encoded {
        let m = &self.metrics;
        // The epoch MUST be loaded before the read lock is acquired: a write
        // that slips in between can only make this dispatch's epoch *older*
        // than the state it actually saw, so the cache drops its answer
        // early (refused, or cleared by the newer epoch) instead of serving
        // it stale.
        let epoch = self.epoch.load(Ordering::SeqCst);
        // `Stats` and `Traces` bypass the cache: their answers change without
        // any write (new samples, newly completed traces).
        let cacheable = !matches!(
            request.as_request(),
            Request::Stats | Request::Traces { .. }
        );
        if cacheable {
            let key = request.as_request();
            // A hit is timed from before the probe, so a miss reads the
            // clock too; `Stats` and `Traces` read none.
            let started = Instant::now();
            if let Some(answer) = self.cache_get(key, epoch) {
                m.req_ok.inc();
                m.read_ok.inc();
                m.cache_hit.inc();
                // A cache hit is a served request: record it in the same
                // per-servlet histogram as a dispatched one, otherwise the
                // histogram silently excludes the fastest responses. It
                // opens no servlet span: nothing was dispatched.
                m.servlets
                    .of(key)
                    .record(started.elapsed().as_nanos() as u64);
                trace::annotate("cache_hit", "true");
                return answer;
            }
            m.cache_miss.inc();
        }
        // Only a miss pays for an owned key: the dispatch consumes the request.
        let cache_key = cacheable.then(|| request.as_request().clone());
        let dispatched = self.guarded(|| {
            let memex = {
                let _wait = m.lock_wait.start_span();
                self.memex.read().ok()?
            };
            trace::annotate("lock_kind", "read");
            Some(dispatch_read(&memex, request))
        });
        dispatched.map_or_else(
            |error| error,
            |resp| {
                m.read_ok.inc();
                let answer = encoded(&resp);
                if let Some(key) = cache_key {
                    self.cache_put(key, epoch, Arc::clone(&answer));
                }
                answer
            },
        )
    }

    /// Serve one write request under the exclusive guard: bump the write
    /// epoch (which invalidates the cached reads), then apply it, demons
    /// included.
    fn answer_write(&self, request: WriteRequest) -> Encoded {
        let dispatched = self.guarded(|| {
            let mut memex = {
                let _wait = self.metrics.lock_wait.start_span();
                self.memex.write().ok()?
            };
            trace::annotate("lock_kind", "write");
            // Bump before mutating: a reader that loaded the old epoch
            // concurrently offers its answer under it, and the cache refuses
            // it once this epoch has been seen.
            self.epoch.fetch_add(1, Ordering::SeqCst);
            Some(dispatch_write(&mut memex, request))
        });
        dispatched.map_or_else(|error| error, |resp| encoded(&resp))
    }

    /// Run `dispatch` — which takes the `Memex` lock itself and returns
    /// `None` when it finds it poisoned — inside the unwind boundary: a
    /// panicking dispatch drops its guard mid-unwind and the caller survives
    /// to answer with a typed error. (Read guards do not poison an `RwLock`;
    /// a panicking *write* does, and every later request then finds it
    /// poisoned.) Counts the outcome in `net.req.ok`, `net.req.poisoned` or
    /// `net.req.panics`; an error comes back already encoded.
    fn guarded(&self, dispatch: impl FnOnce() -> Option<Response>) -> Result<Response, Encoded> {
        let m = &self.metrics;
        let error = match std::panic::catch_unwind(std::panic::AssertUnwindSafe(dispatch)) {
            Ok(Some(resp)) => {
                m.req_ok.inc();
                return Ok(resp);
            }
            Ok(None) => {
                m.req_poisoned.inc();
                "internal: memex state poisoned by an earlier panic"
            }
            Err(_panic) => {
                m.req_panics.inc();
                "internal: request dispatch panicked"
            }
        };
        Err(encoded(&Response::Error(error.into())))
    }
}

/// Frame one encoded response with the request's trace context and write
/// it in one `write_all`. A response too big for one frame (an export of a
/// huge folder name, say) is answered with a typed error instead, counted
/// in `net.resp.oversized`: the client is told, and the connection stays
/// in step.
fn respond(
    m: &NetMetrics,
    out: &mut impl Write,
    trace_ctx: Option<TraceContext>,
    answer: &(Vec<u8>, u32),
) -> Result<(), WireError> {
    let (payload, crc) = answer;
    let frame = match wire::frame_with_crc(FrameKind::Response, payload, *crc, trace_ctx) {
        Err(WireError::Oversized { .. }) => {
            m.resp_oversized.inc();
            let error =
                wire::encode_response(&Response::Error("response exceeds frame cap".into()));
            wire::frame_bytes(FrameKind::Response, &error, trace_ctx)?
        }
        framed => framed?,
    };
    out.write_all(&frame)?;
    Ok(())
}

/// What the transport's threads share.
struct Transport {
    service: Service,
    shutdown: AtomicBool,
    config: NetServerConfig,
    /// A handle on every connection a worker is serving, by connection id,
    /// so [`NetServer::shutdown`] can close their read sides.
    live: Mutex<HashMap<u64, TcpStream>>,
    next_conn: AtomicU64,
}

/// A running Memex network server: a [`Service`] behind a TCP listener.
/// Dropping without calling [`NetServer::shutdown`] detaches the threads;
/// call it for a clean join.
pub struct NetServer {
    local_addr: SocketAddr,
    transport: Arc<Transport>,
    accept_handle: Option<JoinHandle<()>>,
    worker_handles: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and start
    /// serving `memex`. The server takes ownership;
    /// [`NetServer::shutdown`] hands it back.
    pub fn start(
        memex: Memex,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let transport = Arc::new(Transport {
            service: Service::new(memex, config.max_in_flight),
            shutdown: AtomicBool::new(false),
            config,
            live: Mutex::new(HashMap::new()),
            next_conn: AtomicU64::new(0),
        });
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.accept_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let transport = Arc::clone(&transport);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("memex-net-worker-{i}"))
                    .spawn(move || worker_loop(rx, transport))?,
            );
        }
        let accept_transport = Arc::clone(&transport);
        let accept_handle = std::thread::Builder::new()
            .name("memex-net-accept".into())
            .spawn(move || accept_loop(listener, tx, accept_transport))?;
        Ok(NetServer {
            local_addr,
            transport,
            accept_handle: Some(accept_handle),
            worker_handles,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stop accepting, drain the queue, join every thread, and hand the
    /// `Memex` back. In-progress requests are answered before their
    /// connections close, and a silent client does not hold it up.
    pub fn shutdown(mut self) -> Memex {
        self.transport.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread: it may be parked in `accept()`.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Wake every worker parked in a read: a closed read side hands back
        // what the peer already sent, then end-of-stream. A connection
        // registered after this sweep sees the flag and closes its own.
        {
            let live = self
                .transport
                .live
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            for stream in live.values() {
                let _ = stream.shutdown(Shutdown::Read);
            }
        }
        // The accept thread dropped the sender; workers drain what is
        // buffered, then their `recv` disconnects and they exit.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Every thread is joined, so this Arc is unique. Spin defensively
        // on the (unreachable) contended case instead of panicking —
        // shutdown must never kill the thread that owns the data.
        let mut transport = self.transport;
        loop {
            match Arc::try_unwrap(transport) {
                Ok(t) => return t.service.into_memex(),
                Err(still_shared) => {
                    transport = still_shared;
                    std::thread::yield_now();
                }
            }
        }
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, transport: Arc<Transport>) {
    let m = &transport.service.metrics;
    let config = &transport.config;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if transport.shutdown.load(Ordering::SeqCst) {
                    // The wake-up connection (or a late arrival) — close it.
                    drop(stream);
                    break;
                }
                m.conn_accepted.inc();
                match tx.try_send(stream) {
                    Ok(()) => {}
                    Err(TrySendError::Full(mut stream)) => {
                        // Bounded queue is the contract: shed explicitly
                        // rather than let connections pile up unseen.
                        m.shed.inc();
                        m.conn_rejected.inc();
                        let _ = stream.set_write_timeout(Some(config.write_timeout));
                        let _ = respond(
                            m,
                            &mut stream,
                            None,
                            &encoded(&Response::Overloaded {
                                in_flight: config.accept_queue as u32,
                                limit: config.accept_queue as u32,
                            }),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) if transport.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => m.accept_errors.inc(),
        }
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, transport: Arc<Transport>) {
    loop {
        // Take the next connection, then release the receiver lock before
        // serving it so siblings keep draining the queue. A poisoned
        // receiver lock (a sibling died mid-recv) must not cascade into
        // more dead workers — recover the guard and keep draining.
        let stream = match rx.lock() {
            Ok(guard) => guard.recv(),
            Err(poisoned) => poisoned.into_inner().recv(),
        };
        match stream {
            Ok(s) => serve_connection(s, &transport),
            Err(_) => return, // sender dropped and queue drained
        }
    }
}

fn serve_connection(stream: TcpStream, transport: &Transport) {
    let m = &transport.service.metrics;
    let _ = stream.set_read_timeout(Some(transport.config.read_timeout));
    let _ = stream.set_write_timeout(Some(transport.config.write_timeout));
    let _ = stream.set_nodelay(true);
    let id = transport.next_conn.fetch_add(1, Ordering::Relaxed);
    {
        // The flag is read under the lock `shutdown` sweeps under, so a
        // connection is either swept or sees the flag here.
        let mut live = transport
            .live
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if transport.shutdown.load(Ordering::SeqCst) {
            let _ = stream.shutdown(Shutdown::Read);
        } else if let Ok(handle) = stream.try_clone() {
            live.insert(id, handle);
        }
    }
    m.conn_active.add(1);
    // Frames are read through the buffer (one `recv` takes in a whole
    // request, or several pipelined ones); answers are written straight to
    // the socket underneath it.
    let mut conn = BufReader::new(stream);
    while exchange_one(&mut conn, &transport.service) {
        // After answering, honour a pending shutdown: the request in
        // flight was served, the connection closes at a frame boundary.
        if transport.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    // The handle shares the socket: drop it before the connection closes.
    transport
        .live
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .remove(&id);
    m.conn_active.add(-1);
    m.conn_closed.inc();
}

/// Read one frame and hand it to the service; `false` closes the
/// connection. A clean close, a peer reset or an idle timeout just drops
/// it: framing stays in sync only from a frame boundary, so a timeout
/// mid-frame closes too.
fn exchange_one(conn: &mut BufReader<TcpStream>, service: &Service) -> bool {
    match wire::read_frame_meta(conn) {
        Err(WireError::Io(e)) => {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                service.metrics.conn_idle_closed.inc();
            }
            false
        }
        frame => service.handle(frame, conn.get_mut()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use memex_core::memex::MemexOptions;
    use memex_server::events::{ClientEvent, VisitEvent};
    use memex_web::corpus::{Corpus, CorpusConfig};

    fn bill(user: u32) -> Request {
        Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        }
    }

    // A cheap, distinguishable stand-in answer for cache entries.
    fn resp(tag: u32) -> Encoded {
        encoded(&Response::Overloaded {
            in_flight: tag,
            limit: tag,
        })
    }

    /// One user with four visits, demons drained.
    fn small_memex() -> Memex {
        let corpus = Arc::new(Corpus::generate(CorpusConfig {
            num_topics: 2,
            pages_per_topic: 6,
            ..CorpusConfig::default()
        }));
        let mut memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("memex");
        memex.register_user(1, "user1").expect("register");
        for (time, &page) in (1u64..).zip(corpus.pages_of_topic(0).iter().take(4)) {
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
        memex
    }

    /// `request` through `service` with `trace`: the bytes it wrote.
    fn handled(service: &Service, request: &Request, trace: Option<TraceContext>) -> Vec<u8> {
        let frame = wire::frame_bytes(FrameKind::Request, &wire::encode_request(request), trace)
            .expect("frame");
        let mut written = Vec::new();
        assert!(
            service.handle(wire::read_frame_meta(&mut &frame[..]), &mut written),
            "a served request keeps the connection open"
        );
        written
    }

    /// A cache hit writes, byte for byte, the frame a miss writes for the
    /// same request and trace context: `frame_bytes` around a fresh
    /// `encode_response` of the dispatched answer. The hits are framed for
    /// other trace contexts than the miss that filled the entry.
    #[test]
    fn a_cache_hit_writes_the_frame_a_miss_writes() {
        let service = Service::new(small_memex(), NetServerConfig::default().max_in_flight);
        let recall = Request::Recall {
            user: 1,
            query: "page".into(),
            since: 0,
            until: u64::MAX,
            k: 5,
        };
        let expected_payload = {
            let memex = service.memex.read().expect("unpoisoned");
            let Classified::Read(read) = recall.clone().classify() else {
                unreachable!("recall is a read")
            };
            wire::encode_response(&dispatch_read(&memex, read))
        };
        let traces = [
            Some(TraceContext {
                trace_id: 7,
                retry_of: None,
            }),
            None,
            Some(TraceContext {
                trace_id: 8,
                retry_of: Some(7),
            }),
        ];
        for trace in traces {
            let written = handled(&service, &recall, trace);
            let expected =
                wire::frame_bytes(FrameKind::Response, &expected_payload, trace).expect("frame");
            assert_eq!(written, expected, "frame for {trace:?}");
        }
        assert_eq!(service.metrics.cache_miss.get(), 1);
        assert_eq!(service.metrics.cache_hit.get(), 2);
    }

    /// A poisoned `Memex` lock degrades to a typed error on every later
    /// request — never a panic or a dead caller — and the archive still
    /// comes back out of the service.
    #[test]
    fn a_poisoned_memex_lock_answers_typed_errors() {
        let service = Service::new(small_memex(), NetServerConfig::default().max_in_flight);
        let stats = |service: &Service| {
            let written = handled(service, &Request::Stats, None);
            let meta = wire::read_frame_meta(&mut &written[..]).expect("one frame");
            wire::decode_response(&meta.payload).expect("a response")
        };
        assert!(matches!(stats(&service), Response::Stats(_)));
        // Unwind a thread while it holds the *write* guard (only writers
        // poison an `RwLock`), without tripping the panic hook.
        std::thread::scope(|scope| {
            let poisoner = scope.spawn(|| {
                let _guard = service.memex.write();
                std::panic::resume_unwind(Box::new("poisoning the memex lock"));
            });
            assert!(poisoner.join().is_err());
        });
        for _ in 0..3 {
            match stats(&service) {
                Response::Error(msg) => assert!(
                    msg.contains("poisoned"),
                    "error should name the poison, got {msg:?}"
                ),
                other => panic!("expected Response::Error from a poisoned lock, got {other:?}"),
            }
        }
        let snap = service.into_memex().registry().snapshot();
        assert_eq!(snap.counter("net.req.poisoned"), 3);
        assert_eq!(snap.counter("net.req.ok"), 1);
    }

    /// Regression for the stale-entry capacity leak: fill the cache at
    /// epoch 0, bump the epoch (one write), then insert fresh entries up
    /// to capacity again — the dead entries must be purged on the bump,
    /// not evict the fresh ones.
    #[test]
    fn stale_entries_are_purged_not_capacity_holders() {
        let cap = READ_CACHE_ENTRIES;
        let mut cache = ReadCache::default();
        for u in 0..cap as u32 {
            let (evicted, purged) = cache.put(bill(u), 0, resp(u));
            assert_eq!((evicted, purged), (0, 0), "warm-up insert {u}");
        }
        assert_eq!(cache.map.len(), cap);
        // One write bumps the epoch; the first probe at the new epoch
        // sweeps every stale entry.
        let (hit, purged) = cache.get(&bill(0), 1);
        assert!(hit.is_none(), "stale entry must not serve");
        assert_eq!(purged, cap as u64, "all dead entries purged on the bump");
        assert_eq!(cache.map.len(), 0);
        assert!(cache.order.is_empty(), "FIFO order swept with the map");
        // Fresh entries now fill the freed capacity without a single
        // live-entry eviction.
        let mut evictions = 0u64;
        for u in 0..cap as u32 {
            let (evicted, _) = cache.put(bill(u), 1, resp(u));
            evictions += evicted;
        }
        assert_eq!(
            evictions, 0,
            "fresh entries must not be evicted by dead ones"
        );
        for u in 0..cap as u32 {
            let (hit, _) = cache.get(&bill(u), 1);
            assert!(hit.is_some(), "fresh entry {u} evicted");
        }
    }

    /// The epoch bump can also be observed first by `put` (a reader that
    /// dispatched after the write): the sweep happens there too.
    #[test]
    fn put_observes_epoch_bump_and_purges() {
        let mut cache = ReadCache::default();
        for u in 0..4u32 {
            cache.put(bill(u), 3, resp(u));
        }
        let (evicted, purged) = cache.put(bill(9), 4, resp(9));
        assert_eq!(evicted, 0);
        assert_eq!(purged, 4, "put must sweep stale entries on a bump");
        let (hit, _) = cache.get(&bill(9), 4);
        assert!(hit.is_some());
    }

    /// An under-tagged insert (reader raced a write) is dead on arrival:
    /// it must not occupy a slot it can never serve from.
    #[test]
    fn under_tagged_insert_is_not_stored() {
        let mut cache = ReadCache::default();
        cache.put(bill(0), 5, resp(0));
        let (evicted, purged) = cache.put(bill(1), 4, resp(1));
        assert_eq!((evicted, purged), (0, 0));
        assert!(
            !cache.map.contains_key(&bill(1)),
            "dead-on-arrival entry stored"
        );
        let (hit, _) = cache.get(&bill(0), 5);
        assert!(hit.is_some(), "live entry disturbed by dead insert");
    }

    /// Eviction accounting stays honest: live entries evicted for
    /// capacity are counted, purged stale ones are not conflated.
    #[test]
    fn capacity_eviction_counts_only_live_entries() {
        let mut cache = ReadCache::default();
        let full = READ_CACHE_ENTRIES as u32;
        for u in 0..full {
            cache.put(bill(u), 0, resp(u));
        }
        let (evicted, purged) = cache.put(bill(full), 0, resp(full));
        assert_eq!((evicted, purged), (1, 0), "FIFO evicts the oldest live");
        let (hit, _) = cache.get(&bill(0), 0);
        assert!(hit.is_none(), "oldest entry should have been evicted");
    }
}
