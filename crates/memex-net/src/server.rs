//! The concurrent TCP serving layer.
//!
//! One accept thread feeds connections into a *bounded* queue drained by a
//! fixed pool of worker threads; each worker speaks the frame protocol of
//! [`crate::wire`] and dispatches decoded requests against the one served
//! [`Memex`].
//!
//! **Read/write split:** requests are classified by
//! [`memex_core::servlet::Request::is_read`]. Reads dispatch through
//! [`dispatch_read`] under a *shared* `RwLock` read guard, so any number of
//! workers answer queries in parallel; writes take the exclusive guard,
//! apply the mutation plus demons/refresh through [`dispatch_write`], and
//! bump the write epoch. The paper's §3 single-producer/multi-consumer
//! serving shape, on one process.
//!
//! **Epoch-keyed read cache:** identical read requests between two writes
//! hit a bounded FIFO cache (256 entries) keyed by the request itself. An
//! entry is the answer's encoded payload and its CRC-32, so a hit only
//! frames those bytes for the request's trace context: no clone of the
//! answer, no re-encode, and a checksum over the envelope alone. Every entry is
//! tagged with the write epoch *loaded before* the underlying dispatch
//! acquired the read lock; an entry is served only while its tag equals the
//! current epoch, so a cached response can never outlive the write that
//! invalidated it (a racing write can only *under*-tag an entry, making it
//! die early — never serve stale). When the cache observes a newer epoch it
//! purges every stale-tagged entry in one sweep (counted in
//! `net.read.cache.stale_purged`), so dead entries stop occupying capacity
//! and can never force the eviction of fresh ones (`net.read.cache.evict`
//! counts only live-entry evictions). `Request::Stats` bypasses the cache:
//! its answer changes without any write. Counters: `net.read.cache.hit`,
//! `net.read.cache.miss`, `net.read.cache.evict`,
//! `net.read.cache.stale_purged`.
//!
//! **Admission control:** a semaphore-style in-flight counter caps how many
//! requests may be dispatching at once. A request arriving above the cap is
//! answered immediately with [`Response::Overloaded`] (counted in
//! `net.shed` *and* `net.req.shed`, with its latency recorded in
//! `net.req.latency` and its — short — trace completing normally) instead
//! of queueing without bound; a connection arriving while the accept queue
//! is full gets the same verdict and is closed (counted in `net.shed` and
//! `net.conn.rejected`; no request was read, so there is no `net.req.*`
//! accounting for it). The server never makes a client wait silently for
//! capacity.
//!
//! **Shutdown:** [`NetServer::shutdown`] flips the shutdown flag, wakes
//! the accept thread with a self-connection, and joins every thread.
//! Workers drain the accept queue before exiting (the channel hands out
//! buffered connections even after the sender is dropped), and any
//! in-progress request completes and is answered — nothing is dropped
//! silently.
//!
//! **Tracing:** when [`NetServerConfig::trace`] enables it, every
//! exchanged request gets a root span (`net.req`) covering
//! decode → lock-acquire → dispatch → write, annotated with
//! `lock_wait_ns`/`lock_kind` at RwLock acquisition (and `cache_hit=true`
//! on cache-served reads, `shed=true` on overload verdicts,
//! `retry_of=<id>` when the client marked the request as a retry of an
//! earlier attempt). The trace id comes from the frame envelope when the
//! client stamped one, else from the server's seeded generator; responses
//! echo it. Completed span trees land in the served Memex's
//! [`memex_obs::Tracer`] flight recorder (and slow log) and are served
//! over the wire by `Request::Traces`.
//!
//! All serving stats flow through the served Memex's metrics registry
//! (`net.conn.*`, `net.req.*`, `net.read.*`, `net.shed`,
//! `net.decode.errors`), so `Request::Stats` — itself servable over the
//! wire — reports them.

use std::collections::{HashMap, VecDeque};
use std::io::{BufReader, ErrorKind, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use memex_core::memex::Memex;
use memex_core::servlet::{
    dispatch_read, dispatch_write, Classified, ReadRequest, Request, Response, WriteRequest,
};
use memex_obs::{trace, Counter, Gauge, Histogram, MetricsRegistry, TraceConfig, Tracer};

use crate::wire::{self, FrameKind, TraceContext, WireError};

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
    /// closed (clients reconnect transparently); during shutdown it bounds
    /// how long a worker can stay parked on a silent peer.
    pub read_timeout: Duration,
    /// Per-response write timeout.
    pub write_timeout: Duration,
    /// Request-tracing knobs (applied to the served Memex's tracer at
    /// start). Disabled by default: tracing is opt-in per server.
    pub trace: TraceConfig,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            workers: 4,
            accept_queue: 64,
            max_in_flight: 8,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            trace: TraceConfig::default(),
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

/// Bounded FIFO read-result cache keyed by the request. Entries carry the
/// write epoch observed before their dispatch; [`ReadCache::get`] serves an
/// entry only while that tag equals the newest epoch the cache has seen.
/// The first observation of a newer epoch sweeps every stale-tagged entry
/// out in one pass, so dead entries never occupy capacity that should hold
/// fresh ones.
#[derive(Default)]
struct ReadCache {
    /// Newest write epoch this cache has observed; entries tagged older
    /// are dead weight and are purged on the bump.
    epoch: u64,
    map: HashMap<Request, (u64, Encoded)>,
    /// Insertion order for FIFO eviction; may lag `map` (stale entries are
    /// removed from `map` first), which eviction tolerates.
    order: VecDeque<Request>,
}

impl ReadCache {
    /// Observe `epoch`; on a bump, purge every entry tagged older. Returns
    /// how many stale entries were purged.
    fn note_epoch(&mut self, epoch: u64) -> u64 {
        if epoch <= self.epoch {
            return 0;
        }
        self.epoch = epoch;
        let before = self.map.len();
        self.map.retain(|_, (tag, _)| *tag >= epoch);
        let purged = (before - self.map.len()) as u64;
        if purged > 0 {
            self.order.retain(|k| self.map.contains_key(k));
        }
        purged
    }

    /// Probe for `key` at `epoch`. Returns the hit (if live) and how many
    /// stale entries the epoch observation purged.
    fn get(&mut self, key: &Request, epoch: u64) -> (Option<Encoded>, u64) {
        let purged = self.note_epoch(epoch);
        let hit = match self.map.get(key) {
            Some((tag, answer)) if *tag == self.epoch => Some(Arc::clone(answer)),
            Some(_) => {
                // Tagged older than the newest seen epoch (an under-tagged
                // racing insert): dead — drop rather than serve.
                self.map.remove(key);
                None
            }
            None => None,
        };
        (hit, purged)
    }

    /// Insert. Returns `(evicted, purged)`: how many *live* entries were
    /// evicted for capacity, and how many stale ones the epoch observation
    /// purged. An insert tagged older than the newest seen epoch is dead
    /// on arrival and is not stored (it must not waste a slot).
    fn put(&mut self, key: Request, epoch: u64, answer: Encoded) -> (u64, u64) {
        let purged = self.note_epoch(epoch);
        if epoch < self.epoch {
            return (0, purged);
        }
        let mut evicted = 0u64;
        if self.map.insert(key.clone(), (epoch, answer)).is_none() {
            self.order.push_back(key);
            while self.map.len() > READ_CACHE_ENTRIES {
                match self.order.pop_front() {
                    Some(old) => {
                        if self.map.remove(&old).is_some() {
                            evicted += 1;
                        }
                    }
                    None => break,
                }
            }
        }
        (evicted, purged)
    }
}

/// The serving layer's registry handles, every `net.*` name, registered
/// once when the server starts (like `memex-server`'s `ServerMetrics`): the
/// rare paths' names are in the first snapshot too, and a request bumps
/// atomics without looking a name up.
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
        }
    }
}

struct Shared {
    memex: RwLock<Memex>,
    /// Bumped (under the write lock, before the mutation) on every write;
    /// versions the read cache.
    epoch: AtomicU64,
    cache: Mutex<ReadCache>,
    /// The served Memex's registry: a cache hit records its servlet's
    /// latency here.
    registry: MetricsRegistry,
    metrics: NetMetrics,
    shutdown: AtomicBool,
    in_flight: AtomicUsize,
    config: NetServerConfig,
    /// The served Memex's tracer; root spans start here.
    tracer: Tracer,
}

impl Shared {
    fn new(memex: Memex, config: NetServerConfig) -> Shared {
        let registry = memex.registry().clone();
        memex.tracer().configure(config.trace);
        let tracer = memex.tracer().clone();
        Shared {
            memex: RwLock::new(memex),
            epoch: AtomicU64::new(0),
            cache: Mutex::new(ReadCache::default()),
            metrics: NetMetrics::new(&registry),
            registry,
            shutdown: AtomicBool::new(false),
            in_flight: AtomicUsize::new(0),
            config,
            tracer,
        }
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
}

/// A running Memex network server. Dropping without calling
/// [`NetServer::shutdown`] detaches the threads; call it for a clean join.
pub struct NetServer {
    local_addr: SocketAddr,
    shared: Arc<Shared>,
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
        let shared = Arc::new(Shared::new(memex, config));
        let (tx, rx) = mpsc::sync_channel::<TcpStream>(config.accept_queue.max(1));
        let rx = Arc::new(Mutex::new(rx));
        let mut worker_handles = Vec::with_capacity(config.workers.max(1));
        for i in 0..config.workers.max(1) {
            let rx = Arc::clone(&rx);
            let shared = Arc::clone(&shared);
            worker_handles.push(
                std::thread::Builder::new()
                    .name(format!("memex-net-worker-{i}"))
                    .spawn(move || worker_loop(rx, shared))?,
            );
        }
        let accept_shared = Arc::clone(&shared);
        let accept_handle = std::thread::Builder::new()
            .name("memex-net-accept".into())
            .spawn(move || accept_loop(listener, tx, accept_shared))?;
        Ok(NetServer {
            local_addr,
            shared,
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
    /// connections close.
    pub fn shutdown(mut self) -> Memex {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        // Wake the accept thread: it may be parked in `accept()`.
        let _ = TcpStream::connect_timeout(&self.local_addr, Duration::from_secs(1));
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // The accept thread dropped the sender; workers drain what is
        // buffered, then their `recv` disconnects and they exit.
        for h in self.worker_handles.drain(..) {
            let _ = h.join();
        }
        // Every thread is joined, so this Arc is unique. Spin defensively
        // on the (unreachable) contended case instead of panicking —
        // shutdown must never kill the thread that owns the data.
        let mut shared = self.shared;
        let shared = loop {
            match Arc::try_unwrap(shared) {
                Ok(s) => break s,
                Err(still_shared) => {
                    shared = still_shared;
                    std::thread::yield_now();
                }
            }
        };
        // A panicking write dispatch poisons the lock; the state behind it
        // is still the state — recover it rather than propagate the poison.
        shared
            .memex
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Test instrumentation: poison the `Memex` lock by unwinding
    /// a throwaway thread while it holds the *write* guard (only writers
    /// poison an `RwLock`). The loopback suite uses this to prove a
    /// poisoned lock degrades to a typed [`Response::Error`] on every
    /// subsequent request — never a dead worker or a hung connection.
    #[doc(hidden)]
    pub fn poison_memex_for_test(&self) {
        let shared = Arc::clone(&self.shared);
        let _ = std::thread::Builder::new()
            .name("memex-net-poisoner".into())
            .spawn(move || {
                let _guard = shared.memex.write();
                // Unwind without tripping the panic hook: quiet in test
                // output, still poisons the held lock.
                std::panic::resume_unwind(Box::new("poisoning memex lock for test"));
            })
            .map(|h| h.join());
    }
}

fn accept_loop(listener: TcpListener, tx: SyncSender<TcpStream>, shared: Arc<Shared>) {
    let m = &shared.metrics;
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                if shared.shutdown.load(Ordering::SeqCst) {
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
                        let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
                        let _ = respond(
                            m,
                            &mut stream,
                            None,
                            &encoded(&Response::Overloaded {
                                in_flight: shared.config.accept_queue as u32,
                                limit: shared.config.accept_queue as u32,
                            }),
                        );
                    }
                    Err(TrySendError::Disconnected(_)) => break,
                }
            }
            Err(_) if shared.shutdown.load(Ordering::SeqCst) => break,
            Err(_) => m.accept_errors.inc(),
        }
    }
}

fn worker_loop(rx: Arc<Mutex<Receiver<TcpStream>>>, shared: Arc<Shared>) {
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
            Ok(s) => serve_connection(s, &shared),
            Err(_) => return, // sender dropped and queue drained
        }
    }
}

/// Outcome of one request/response exchange on a connection.
enum Exchange {
    Served,
    Closed,
}

fn serve_connection(stream: TcpStream, shared: &Shared) {
    let m = &shared.metrics;
    let _ = stream.set_read_timeout(Some(shared.config.read_timeout));
    let _ = stream.set_write_timeout(Some(shared.config.write_timeout));
    let _ = stream.set_nodelay(true);
    m.conn_active.add(1);
    // Frames are read through the buffer (one `recv` takes in a whole
    // request, or several pipelined ones); answers are written straight to
    // the socket underneath it.
    let mut conn = BufReader::new(stream);
    while let Exchange::Served = exchange_one(&mut conn, shared) {
        // After answering, honour a pending shutdown: the request in
        // flight was served, the connection closes at a frame boundary.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
    }
    m.conn_active.add(-1);
    m.conn_closed.inc();
}

/// Record how long an RwLock acquisition stalled this request: into the
/// `net.lock.wait` histogram always, and onto the active trace's root span
/// (`lock_wait_ns`, `lock_kind`) when tracing is on.
fn note_lock_acquired(lock_wait: &Histogram, kind: &str, waited_since: Instant) {
    let wait_ns = waited_since.elapsed().as_nanos() as u64;
    lock_wait.record(wait_ns);
    trace::annotate("lock_wait_ns", wait_ns);
    trace::annotate("lock_kind", kind);
}

/// Serve one read request: probe the epoch-keyed cache, else dispatch
/// under the shared read guard, encode, and (when cacheable) remember the
/// encoded answer.
fn answer_read(shared: &Shared, request: ReadRequest) -> Encoded {
    let m = &shared.metrics;
    let started = Instant::now();
    // The epoch MUST be loaded before the read lock is acquired: a write
    // that slips in between can only make this dispatch's tag *older* than
    // the state it actually saw, so the entry dies early instead of
    // serving stale.
    let epoch = shared.epoch.load(Ordering::SeqCst);
    // `Stats` and `Traces` bypass the cache: their answers change without
    // any write (new samples, newly completed traces).
    let cacheable = !matches!(
        request.as_request(),
        Request::Stats | Request::Traces { .. }
    );
    if cacheable {
        let key = request.as_request();
        if let Some(answer) = shared.cache_get(key, epoch) {
            m.req_ok.inc();
            m.read_ok.inc();
            m.cache_hit.inc();
            // A cache hit is a served request: record it in the same
            // per-servlet histogram as a dispatched one, otherwise the
            // histogram silently excludes the fastest responses.
            shared
                .registry
                .histogram(key.latency_metric())
                .record(started.elapsed().as_nanos() as u64);
            trace::annotate("cache_hit", "true");
            return answer;
        }
        m.cache_miss.inc();
    }
    // Only a miss pays for an owned key: the dispatch consumes the request.
    let cache_key = cacheable.then(|| request.as_request().clone());
    // The lock is taken *inside* the unwind boundary: a panicking dispatch
    // drops the guard mid-unwind and the worker survives to answer with a
    // typed error. (Read guards do not poison an `RwLock`; a poisoned
    // observation here means an earlier *write* panicked.)
    let lock_started = Instant::now();
    let dispatched =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match shared.memex.read() {
            Ok(memex) => {
                note_lock_acquired(&m.lock_wait, "read", lock_started);
                Some(dispatch_read(&memex, request))
            }
            Err(_poisoned) => None,
        }));
    match dispatched {
        Ok(Some(resp)) => {
            m.req_ok.inc();
            m.read_ok.inc();
            let answer = encoded(&resp);
            if let Some(key) = cache_key {
                shared.cache_put(key, epoch, Arc::clone(&answer));
            }
            answer
        }
        Ok(None) => {
            m.req_poisoned.inc();
            encoded(&Response::Error(
                "internal: memex state poisoned by an earlier panic".into(),
            ))
        }
        Err(_panic) => {
            m.req_panics.inc();
            encoded(&Response::Error(
                "internal: request dispatch panicked".into(),
            ))
        }
    }
}

/// Serve one write request under the exclusive guard: bump the write epoch
/// (which invalidates the cached reads), then apply it, demons included.
fn answer_write(shared: &Shared, request: WriteRequest) -> Encoded {
    let m = &shared.metrics;
    let lock_started = Instant::now();
    let dispatched = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        match shared.memex.write() {
            Ok(mut memex) => {
                note_lock_acquired(&m.lock_wait, "write", lock_started);
                // Bump before mutating: a reader that loaded the old epoch
                // concurrently will tag its entry with it and the entry
                // dies the moment this store lands.
                shared.epoch.fetch_add(1, Ordering::SeqCst);
                Some(dispatch_write(&mut memex, request))
            }
            Err(_poisoned) => None,
        }
    }));
    match dispatched {
        Ok(Some(resp)) => {
            m.req_ok.inc();
            encoded(&resp)
        }
        Ok(None) => {
            m.req_poisoned.inc();
            encoded(&Response::Error(
                "internal: memex state poisoned by an earlier panic".into(),
            ))
        }
        Err(_panic) => {
            // The panicking dispatch held the write guard, so the lock is
            // now poisoned; later requests degrade to typed errors above.
            m.req_panics.inc();
            encoded(&Response::Error(
                "internal: request dispatch panicked".into(),
            ))
        }
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

fn exchange_one(conn: &mut BufReader<TcpStream>, shared: &Shared) -> Exchange {
    let m = &shared.metrics;
    let frame = match wire::read_frame_meta(conn) {
        Ok(f) => f,
        Err(WireError::Io(e)) => {
            // Clean close, peer reset, or idle timeout: just drop the
            // connection. Framing stays in sync only from a frame
            // boundary, so a timeout mid-frame also closes.
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                m.conn_idle_closed.inc();
            }
            return Exchange::Closed;
        }
        Err(e) => {
            // Corrupted frame or a wire version this server does not
            // speak: report and close (the stream position is no longer
            // trustworthy).
            m.decode_errors.inc();
            let _ = respond(
                m,
                conn.get_mut(),
                None,
                &encoded(&Response::Error(format!("decode: {e}"))),
            );
            return Exchange::Closed;
        }
    };
    let req_started = Instant::now();
    if frame.kind == FrameKind::Response {
        // A client must never send response frames; protocol violation.
        m.decode_errors.inc();
        let _ = respond(
            m,
            conn.get_mut(),
            None,
            &encoded(&Response::Error(
                "protocol: response frame sent to server".into(),
            )),
        );
        return Exchange::Closed;
    }
    // Root span for the whole exchange, opened before payload decode so
    // the tree covers decode → lock-acquire → dispatch → write. The id
    // is the client's (frame trace context) or minted from the server's
    // seeded generator; the guard publishes the completed tree to the
    // flight recorder when it drops at the end of this function.
    let trace_guard = shared
        .tracer
        .start_trace("net.req", frame.trace.map(|t| t.trace_id));
    if let Some(prev) = frame.trace.and_then(|t| t.retry_of) {
        // The client marked this as the retry of a dead attempt: link
        // the trees so operators can stitch the logical request together.
        trace::annotate("retry_of", prev);
    }
    let decode_span = trace::span("net.decode");
    let request = match wire::decode_request(&frame.payload) {
        Ok(r) => r,
        Err(e) => {
            drop(decode_span);
            m.decode_errors.inc();
            let _ = respond(
                m,
                conn.get_mut(),
                frame.trace,
                &encoded(&Response::Error(format!("decode: {e}"))),
            );
            return Exchange::Closed;
        }
    };
    drop(decode_span);
    // Admission control: acquire an in-flight permit or shed. The permit
    // covers lock wait + dispatch, so a convoy behind a slow request is
    // surfaced as explicit overload frames instead of unbounded queueing.
    let limit = shared.config.max_in_flight;
    let prev = shared.in_flight.fetch_add(1, Ordering::SeqCst);
    if prev >= limit {
        shared.in_flight.fetch_sub(1, Ordering::SeqCst);
        // A shed reply is still a served request: it must show up in the
        // `net.req.*` accounting and the flight recorder, not just in
        // `net.shed` — overload is exactly when operators look there.
        m.shed.inc();
        m.req_shed.inc();
        m.req_latency
            .record(req_started.elapsed().as_nanos() as u64);
        trace::annotate("shed", "true");
        let overload = Response::Overloaded {
            in_flight: prev.min(u32::MAX as usize) as u32,
            limit: limit.min(u32::MAX as usize) as u32,
        };
        let wrote = respond(m, conn.get_mut(), frame.trace, &encoded(&overload));
        // Complete the (short) trace before returning: decode → shed.
        drop(trace_guard);
        return match wrote {
            Ok(()) => Exchange::Served,
            Err(_) => Exchange::Closed,
        };
    }
    let answer = {
        let _span = m.req_latency.start_span();
        match request.classify() {
            Classified::Read(r) => answer_read(shared, r),
            Classified::Write(w) => answer_write(shared, w),
        }
    };
    shared.in_flight.fetch_sub(1, Ordering::SeqCst);
    let write_started = Instant::now();
    let wrote = respond(m, conn.get_mut(), frame.trace, &answer);
    trace::record_span("net.write", write_started, Instant::now());
    // Completes the trace: everything after this is outside the request.
    drop(trace_guard);
    match wrote {
        Ok(()) => Exchange::Served,
        Err(_) => {
            m.conn_write_errors.inc();
            Exchange::Closed
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A cache hit writes, byte for byte, the frame a miss writes for the
    /// same request and trace context: `frame_bytes` around a fresh
    /// `encode_response` of the dispatched answer. The hits are framed for
    /// other trace contexts than the miss that filled the entry.
    #[test]
    fn a_cache_hit_writes_the_frame_a_miss_writes() {
        use memex_core::memex::MemexOptions;
        use memex_server::events::{ClientEvent, VisitEvent};
        use memex_web::corpus::{Corpus, CorpusConfig};

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
        let shared = Shared::new(memex, NetServerConfig::default());
        let recall = Request::Recall {
            user: 1,
            query: "page".into(),
            since: 0,
            until: u64::MAX,
            k: 5,
        };
        let read_request = || match recall.clone().classify() {
            Classified::Read(r) => r,
            Classified::Write(_) => unreachable!("recall is a read"),
        };
        let expected_payload = {
            let memex = shared.memex.read().expect("unpoisoned");
            wire::encode_response(&dispatch_read(&memex, read_request()))
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
            let mut written = Vec::new();
            respond(
                &shared.metrics,
                &mut written,
                trace,
                &answer_read(&shared, read_request()),
            )
            .expect("write to vec");
            let expected =
                wire::frame_bytes(FrameKind::Response, &expected_payload, trace).expect("frame");
            assert_eq!(written, expected, "frame for {trace:?}");
        }
        let snap = shared.registry.snapshot();
        assert_eq!(snap.counter("net.read.cache.miss"), 1);
        assert_eq!(snap.counter("net.read.cache.hit"), 2);
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
