//! End-to-end request tracing: span trees, a flight recorder, and a
//! slow-request log.
//!
//! Aggregate metrics (the rest of this crate) answer "what is p99?";
//! tracing answers "why was *this* request 40 ms when the median is
//! 200 µs". The design is `std`-only and lock-light:
//!
//! - [`TraceId`]s are 64-bit, SplitMix64-derived from a seedable
//!   [`TraceIdGen`] so tests are deterministic.
//! - A request's spans are collected into a **thread-local** builder —
//!   the serving layer handles one request per worker thread, so span
//!   open/close/annotate never touches a shared lock. Deep layers
//!   (index, store) call the free functions [`span`] / [`annotate`]
//!   with zero plumbing; when no trace is active they cost one
//!   thread-local read and a branch.
//! - A window a histogram times is not timed again: a scope timed with
//!   [`Histogram::start_span`] is also the span named after the histogram
//!   (less `.latency`), bounded by the same two instants, and the root is
//!   the one [`Tracer::start_trace`] times. So a trace's spans of a name
//!   and the histogram of that name count the same windows, to the
//!   nanosecond. [`span`] is for windows no histogram times.
//! - On completion the span tree is published to a bounded **flight
//!   recorder** ring (atomic cursor, per-slot mutex — contention is one
//!   pointer swap per trace) and, when the root span exceeds the
//!   configured threshold, to the bounded **slow-request log**.
//!
//! A disabled [`Tracer`] roots no trace (its root guard still times the
//! root's histogram); the entire layer can be toggled at runtime
//! ([`Tracer::configure`]).

use std::cell::RefCell;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

use crate::registry::{Counter, Histogram, HistogramSlot, MetricsRegistry};

/// SplitMix64 finalizer: a full-avalanche mix of a 64-bit state.
pub fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A 64-bit trace identifier. `0` is reserved for "no trace".
pub type TraceId = u64;

/// Seedable generator of unique [`TraceId`]s: the SplitMix64 sequence
/// starting at `seed`. Deterministic for a fixed seed, lock-free.
#[derive(Debug)]
pub struct TraceIdGen {
    state: AtomicU64,
}

const SPLITMIX_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

impl TraceIdGen {
    pub fn seeded(seed: u64) -> TraceIdGen {
        TraceIdGen {
            state: AtomicU64::new(seed),
        }
    }

    /// Next id in the sequence (never 0).
    pub fn next(&self) -> TraceId {
        let z = self
            .state
            .fetch_add(SPLITMIX_GAMMA, Ordering::Relaxed)
            .wrapping_add(SPLITMIX_GAMMA);
        let id = splitmix64(z);
        if id == 0 {
            1
        } else {
            id
        }
    }

    pub fn reseed(&self, seed: u64) {
        self.state.store(seed, Ordering::Relaxed);
    }
}

/// One completed span of a trace. Times are nanoseconds relative to the
/// root span's start, so span trees survive serialization across hosts
/// with unrelated clocks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanData {
    /// Per-trace span id; ids increase with creation order, so a child's
    /// id is always greater than its parent's.
    pub id: u32,
    /// Parent span id; `None` marks the root.
    pub parent: Option<u32>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// `key=value` annotations attached while the span was open.
    pub annotations: Vec<(String, String)>,
}

impl SpanData {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// Look up an annotation value by key.
    pub fn annotation(&self, key: &str) -> Option<&str> {
        self.annotations
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// One completed trace: a span tree for a single request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceData {
    pub trace_id: TraceId,
    /// Spans in completion order; the root is last. Use
    /// [`TraceData::root`] / [`TraceData::span`] for lookups.
    pub spans: Vec<SpanData>,
}

impl TraceData {
    /// The root span (the one without a parent), if the tree is sane.
    pub fn root(&self) -> Option<&SpanData> {
        self.spans.iter().find(|s| s.parent.is_none())
    }

    /// Wall time covered by the root span.
    pub fn duration_ns(&self) -> u64 {
        self.root().map_or(0, SpanData::duration_ns)
    }

    /// First span with the given name, if any.
    pub fn span(&self, name: &str) -> Option<&SpanData> {
        self.spans.iter().find(|s| s.name == name)
    }

    /// Structural sanity: exactly one root, unique ids, every parent id
    /// resolves to a span in the tree, and no span ends before it starts
    /// or outlives the root.
    pub fn is_complete(&self) -> bool {
        let roots = self.spans.iter().filter(|s| s.parent.is_none()).count();
        if roots != 1 {
            return false;
        }
        let Some(root) = self.root() else {
            return false;
        };
        let mut ids: Vec<u32> = self.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.spans.len() {
            return false;
        }
        self.spans.iter().all(|s| {
            s.end_ns >= s.start_ns
                && s.end_ns <= root.end_ns
                && s.parent.is_none_or(|p| ids.binary_search(&p).is_ok())
        })
    }
}

/// Tuning knobs for a [`Tracer`]. `Copy` so server configs can embed it.
#[derive(Debug, Clone, Copy)]
pub struct TraceConfig {
    /// Master switch; a disabled tracer hands out inert guards.
    pub enabled: bool,
    /// Flight-recorder capacity (completed traces retained, newest wins).
    pub recorder_capacity: usize,
    /// Root spans at or above this duration are retained in the slow log.
    pub slow_threshold_ns: u64,
    /// Slow-log capacity (oldest entries dropped first).
    pub slow_capacity: usize,
    /// Seed for server-generated trace ids (requests that arrive without
    /// a propagated trace context).
    pub seed: u64,
}

impl Default for TraceConfig {
    fn default() -> TraceConfig {
        TraceConfig {
            enabled: false,
            recorder_capacity: 256,
            slow_threshold_ns: 10_000_000, // 10 ms
            slow_capacity: 64,
            seed: 0x4d45_4d45_5800, // "MEMEX"
        }
    }
}

#[derive(Debug, Clone, Default)]
struct TraceMetrics {
    started: Counter,
    completed: Counter,
    slow_retained: Counter,
    slow_dropped: Counter,
}

/// The flight recorder: a fixed ring of slots indexed by an atomic
/// cursor. Writers claim a slot with one `fetch_add` and swap an `Arc`
/// under the slot's own mutex, so concurrent completions contend only
/// when they land on the same slot.
struct Ring {
    slots: Vec<Mutex<Option<Arc<TraceData>>>>,
    cursor: AtomicUsize,
}

impl Ring {
    fn with_capacity(capacity: usize) -> Ring {
        Ring {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicUsize::new(0),
        }
    }
}

/// Every lock below is taken with poison recovery
/// (`unwrap_or_else(|e| e.into_inner())`): tracing must never take a
/// subsystem down, and the state behind a poisoned lock — a ring of
/// `Arc`s — is still the state. Acquisitions are written inline so
/// `tests/lock_order` sees the `ring → slot` nesting.
struct TracerInner {
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
    slow_capacity: AtomicUsize,
    ring: RwLock<Ring>,
    slow: Mutex<VecDeque<Arc<TraceData>>>,
    ids: TraceIdGen,
    metrics: Mutex<TraceMetrics>,
}

/// A shareable tracing sink. Cloning shares storage (like
/// [`MetricsRegistry`]).
#[derive(Clone)]
pub struct Tracer {
    inner: Arc<TracerInner>,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("enabled", &self.enabled())
            .finish()
    }
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new(TraceConfig::default())
    }
}

impl Tracer {
    pub fn new(config: TraceConfig) -> Tracer {
        Tracer {
            inner: Arc::new(TracerInner {
                enabled: AtomicBool::new(config.enabled),
                slow_threshold_ns: AtomicU64::new(config.slow_threshold_ns),
                slow_capacity: AtomicUsize::new(config.slow_capacity),
                ring: RwLock::new(Ring::with_capacity(config.recorder_capacity)),
                slow: Mutex::new(VecDeque::new()),
                ids: TraceIdGen::seeded(config.seed),
                metrics: Mutex::new(TraceMetrics::default()),
            }),
        }
    }

    /// Re-apply a configuration to a live tracer. Swapping the recorder
    /// capacity discards previously recorded traces.
    pub fn configure(&self, config: TraceConfig) {
        self.inner.enabled.store(config.enabled, Ordering::Relaxed);
        self.inner
            .slow_threshold_ns
            .store(config.slow_threshold_ns, Ordering::Relaxed);
        self.inner
            .slow_capacity
            .store(config.slow_capacity, Ordering::Relaxed);
        self.inner.ids.reseed(config.seed);
        let needs_resize = {
            let ring = self.inner.ring.read().unwrap_or_else(|e| e.into_inner());
            ring.slots.len() != config.recorder_capacity
        };
        if needs_resize {
            let mut ring = self.inner.ring.write().unwrap_or_else(|e| e.into_inner());
            *ring = Ring::with_capacity(config.recorder_capacity);
        }
    }

    /// Wire `trace.*` / `slowlog.*` counters into `registry`.
    pub fn attach_registry(&self, registry: &MetricsRegistry) {
        let metrics = TraceMetrics {
            started: registry.counter("trace.started"),
            completed: registry.counter("trace.completed"),
            slow_retained: registry.counter("slowlog.retained"),
            slow_dropped: registry.counter("slowlog.dropped"),
        };
        *self.inner.metrics.lock().unwrap_or_else(|e| e.into_inner()) = metrics;
    }

    pub fn enabled(&self) -> bool {
        self.inner.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.inner.enabled.store(on, Ordering::Relaxed);
    }

    /// Generate a fresh trace id from this tracer's seeded sequence.
    pub fn next_id(&self) -> TraceId {
        self.inner.ids.next()
    }

    fn metrics(&self) -> TraceMetrics {
        self.inner
            .metrics
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Time a scope into `root` (the request's latency histogram) and,
    /// when tracing is on, root a trace at the span named after it,
    /// adopting the propagated `id` when present (wire trace context) or
    /// minting one otherwise. Under a trace already active on this thread
    /// the scope is a child span of it instead (nested roots fold into the
    /// outer trace's tree). Dropping the guard records the histogram and
    /// publishes the trace.
    pub fn start_trace(&self, root: &Histogram, id: Option<TraceId>) -> SpanGuard {
        SpanGuard::start(root.slot(), self.enabled().then_some((self, id)))
    }

    /// Completed traces, newest first: the slow log when `slow_only`,
    /// else the flight recorder. At most `limit` traces are returned.
    pub fn collect(&self, slow_only: bool, limit: usize) -> Vec<TraceData> {
        if slow_only {
            let slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
            return slow
                .iter()
                .rev()
                .take(limit)
                .map(|t| t.as_ref().clone())
                .collect();
        }
        let ring = self.inner.ring.read().unwrap_or_else(|e| e.into_inner());
        let cap = ring.slots.len();
        if cap == 0 {
            return Vec::new();
        }
        let cursor = ring.cursor.load(Ordering::Relaxed);
        let mut out = Vec::new();
        // Walk backwards from the most recently claimed slot.
        for back in 1..=cap {
            if out.len() >= limit {
                break;
            }
            let idx = (cursor.wrapping_sub(back)) % cap;
            let slot = &ring.slots[idx];
            if let Some(t) = slot.lock().unwrap_or_else(|e| e.into_inner()).as_ref() {
                out.push(t.as_ref().clone());
            }
        }
        out
    }

    /// Number of traces currently held by the flight recorder.
    pub fn recorded(&self) -> usize {
        let ring = self.inner.ring.read().unwrap_or_else(|e| e.into_inner());
        let mut n = 0;
        for slot in &ring.slots {
            if slot.lock().unwrap_or_else(|e| e.into_inner()).is_some() {
                n += 1;
            }
        }
        n
    }

    /// Publish a completed trace to the ring and (if slow) the slow log.
    fn finish(&self, trace: TraceData) {
        let metrics = self.metrics();
        let trace = Arc::new(trace);
        let threshold = self.inner.slow_threshold_ns.load(Ordering::Relaxed);
        if trace.duration_ns() >= threshold {
            let cap = self.inner.slow_capacity.load(Ordering::Relaxed);
            if cap > 0 {
                let mut slow = self.inner.slow.lock().unwrap_or_else(|e| e.into_inner());
                slow.push_back(Arc::clone(&trace));
                metrics.slow_retained.inc();
                while slow.len() > cap {
                    slow.pop_front();
                    metrics.slow_dropped.inc();
                }
            }
        }
        let ring = self.inner.ring.read().unwrap_or_else(|e| e.into_inner());
        if !ring.slots.is_empty() {
            let idx = ring.cursor.fetch_add(1, Ordering::Relaxed) % ring.slots.len();
            let slot = &ring.slots[idx];
            *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(trace);
        }
        metrics.completed.inc();
    }
}

// ---------------------------------------------------------------------------
// Thread-local active trace
// ---------------------------------------------------------------------------

struct OpenSpan {
    id: u32,
    parent: Option<u32>,
    name: String,
    start_ns: u64,
    annotations: Vec<(String, String)>,
}

struct ActiveTrace {
    tracer: Tracer,
    trace_id: TraceId,
    origin: Instant,
    finished: Vec<SpanData>,
    stack: Vec<OpenSpan>,
    next_id: u32,
}

impl ActiveTrace {
    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span named `name` at `start_ns` under the innermost open one
    /// (none for the root); returns its id.
    fn open(&mut self, name: &str, start_ns: u64) -> u32 {
        let id = self.next_id;
        self.next_id += 1;
        let parent = self.stack.last().map(|s| s.id);
        self.stack.push(OpenSpan {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            annotations: Vec::new(),
        });
        id
    }

    /// Close span `id` at `end_ns`, with every leaked child above it: span
    /// ids increase with depth, so everything at or above `id` on the stack
    /// belongs to it.
    fn close(&mut self, id: u32, end_ns: u64) {
        while let Some(open) = self.stack.pop_if(|top| top.id >= id) {
            self.finished.push(SpanData {
                id: open.id,
                parent: open.parent,
                name: open.name,
                start_ns: open.start_ns,
                end_ns,
                annotations: open.annotations,
            });
        }
    }
}

thread_local! {
    static CURRENT: RefCell<Option<ActiveTrace>> = const { RefCell::new(None) };
}

/// Scope timer from [`Histogram::start_span`] or [`Tracer::start_trace`].
/// On drop, the one elapsed time is recorded into the histogram and ends
/// the trace span this scope opened, so the two agree exactly.
#[must_use = "a span records on drop; binding it to _ drops immediately"]
pub struct SpanGuard(Option<Timed>);

struct Timed {
    slot: Arc<HistogramSlot>,
    start: Instant,
    /// The trace span opened, as (id, start_ns); id 0 is the root. `None`
    /// when no trace was active: the histogram alone.
    span: Option<(u32, u64)>,
}

impl SpanGuard {
    /// Time a scope into `slot`: as a child span of the trace active on
    /// this thread, else as the root of a new trace when `root` names a
    /// tracer (and the id to adopt), else into the histogram alone. An
    /// inert handle (`None`) reads no clock.
    pub(crate) fn start(
        slot: Option<&Arc<HistogramSlot>>,
        root: Option<(&Tracer, Option<TraceId>)>,
    ) -> SpanGuard {
        let Some(slot) = slot.map(Arc::clone) else {
            return SpanGuard(None);
        };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            // The clock is read once the handle and the thread-local are in
            // hand, so an untraced window holds no bookkeeping of its own.
            let start = Instant::now();
            if cur.is_none() {
                if let Some((tracer, id)) = root {
                    tracer.metrics().started.inc();
                    *cur = Some(ActiveTrace {
                        tracer: tracer.clone(),
                        trace_id: id.unwrap_or_else(|| tracer.next_id()),
                        origin: start,
                        finished: Vec::new(),
                        stack: Vec::new(),
                        next_id: 0,
                    });
                }
            }
            let span = cur.as_mut().map(|at| {
                let start_ns = start.saturating_duration_since(at.origin).as_nanos() as u64;
                (at.open(&slot.span, start_ns), start_ns)
            });
            SpanGuard(Some(Timed { slot, start, span }))
        })
    }

    /// Whether this guard roots a live trace.
    pub fn roots_trace(&self) -> bool {
        matches!(
            &self.0,
            Some(Timed {
                span: Some((0, _)),
                ..
            })
        )
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(Timed { slot, start, span }) = self.0.take() else {
            return;
        };
        let elapsed = start.elapsed().as_nanos() as u64;
        slot.core.record(elapsed);
        let Some((id, start_ns)) = span else {
            return;
        };
        // Closing the root closes every span still open (leaked child
        // guards unwound by a panic), root last, and completes the trace.
        let completed = CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            cur.as_mut()?.close(id, start_ns + elapsed);
            cur.take_if(|_| id == 0)
        });
        if let Some(at) = completed {
            let trace = TraceData {
                trace_id: at.trace_id,
                spans: at.finished,
            };
            at.tracer.finish(trace);
        }
    }
}

/// Open a child span of the current trace, for a window no histogram
/// times. No-op (one thread-local read) when no trace is active on this
/// thread.
pub fn span(name: &str) -> SpanScope {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(at) = cur.as_mut() else {
            return SpanScope { id: None };
        };
        let start_ns = at.now_ns();
        SpanScope {
            id: Some(at.open(name, start_ns)),
        }
    })
}

/// Attach `key=value` to the innermost open span (the root, between
/// children). No-op without an active trace.
pub fn annotate(key: &str, value: impl std::fmt::Display) {
    CURRENT.with(|c| {
        let mut cur = c.borrow_mut();
        let Some(at) = cur.as_mut() else { return };
        if let Some(top) = at.stack.last_mut() {
            top.annotations.push((key.to_string(), value.to_string()));
        }
    });
}

/// Guard for a span opened with [`span`]; closes it (and any leaked
/// children above it) on drop.
#[must_use = "a span closes on drop; binding it to _ closes it immediately"]
pub struct SpanScope {
    id: Option<u32>,
}

impl Drop for SpanScope {
    fn drop(&mut self) {
        let Some(id) = self.id else { return };
        CURRENT.with(|c| {
            let mut cur = c.borrow_mut();
            let Some(at) = cur.as_mut() else { return };
            let end = at.now_ns();
            at.close(id, end);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A registered histogram whose span is `name`.
    fn root(name: &str) -> Histogram {
        MetricsRegistry::new().histogram(&format!("{name}.latency"))
    }

    fn enabled_tracer() -> Tracer {
        Tracer::new(TraceConfig {
            enabled: true,
            recorder_capacity: 8,
            slow_threshold_ns: u64::MAX,
            slow_capacity: 4,
            seed: 7,
        })
    }

    #[test]
    fn ids_are_deterministic_and_nonzero() {
        let a = TraceIdGen::seeded(42);
        let b = TraceIdGen::seeded(42);
        let ids: Vec<TraceId> = (0..64).map(|_| a.next()).collect();
        assert!(ids.iter().all(|&id| id != 0));
        assert!((0..64).all(|i| b.next() == ids[i]));
        let mut uniq = ids.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), ids.len());
    }

    #[test]
    fn span_tree_shape_and_annotations() {
        let tracer = enabled_tracer();
        let guard = tracer.start_trace(&root("root"), Some(99));
        annotate("who", "root");
        {
            let _a = span("child_a");
            annotate("k", 1);
            {
                let _b = span("grandchild");
            }
        }
        {
            let _c = span("child_b");
        }
        drop(guard);
        let traces = tracer.collect(false, 10);
        assert_eq!(traces.len(), 1);
        let t = &traces[0];
        assert_eq!(t.trace_id, 99);
        assert!(t.is_complete(), "{t:?}");
        assert_eq!(t.spans.len(), 4);
        let root = t.root().unwrap();
        assert_eq!(root.name, "root");
        assert_eq!(root.annotation("who"), Some("root"));
        let a = t.span("child_a").unwrap();
        assert_eq!(a.parent, Some(root.id));
        assert_eq!(a.annotation("k"), Some("1"));
        let g = t.span("grandchild").unwrap();
        assert_eq!(g.parent, Some(a.id));
        let b = t.span("child_b").unwrap();
        assert_eq!(b.parent, Some(root.id));
        assert!(g.start_ns >= a.start_ns && g.end_ns <= a.end_ns);
    }

    #[test]
    fn disabled_tracer_is_inert() {
        let tracer = Tracer::new(TraceConfig::default());
        let root = root("root");
        let guard = tracer.start_trace(&root, None);
        assert!(!guard.roots_trace());
        let _s = span("ignored");
        annotate("k", "v");
        drop(guard);
        assert!(tracer.collect(false, 10).is_empty());
        assert_eq!(
            root.snapshot().count,
            1,
            "the root's histogram is still timed"
        );
    }

    #[test]
    fn ring_keeps_last_n() {
        let tracer = enabled_tracer(); // capacity 8
        for i in 0..20u64 {
            drop(tracer.start_trace(&root("t"), Some(1000 + i)));
        }
        let traces = tracer.collect(false, usize::MAX);
        assert_eq!(traces.len(), 8);
        // Newest first.
        let ids: Vec<TraceId> = traces.iter().map(|t| t.trace_id).collect();
        assert_eq!(ids, (1012..1020).rev().collect::<Vec<_>>());
        assert_eq!(tracer.collect(false, 3).len(), 3);
    }

    #[test]
    fn slow_log_retains_over_threshold_and_is_bounded() {
        let tracer = Tracer::new(TraceConfig {
            enabled: true,
            recorder_capacity: 32,
            slow_threshold_ns: 0, // everything is slow
            slow_capacity: 3,
            seed: 1,
        });
        for i in 0..5u64 {
            drop(tracer.start_trace(&root("slowpoke"), Some(i + 1)));
        }
        let slow = tracer.collect(true, usize::MAX);
        assert_eq!(slow.len(), 3);
        assert_eq!(slow[0].trace_id, 5); // newest first
                                         // High threshold: nothing lands in the slow log.
        let picky = enabled_tracer();
        drop(picky.start_trace(&root("fast"), None));
        assert!(picky.collect(true, usize::MAX).is_empty());
        assert_eq!(picky.collect(false, usize::MAX).len(), 1);
    }

    #[test]
    fn nested_root_folds_into_outer_trace() {
        let tracer = enabled_tracer();
        let outer = tracer.start_trace(&root("outer"), Some(5));
        let inner = tracer.start_trace(&root("inner"), Some(6));
        assert!(!inner.roots_trace());
        drop(inner); // must not complete the outer trace
        assert!(outer.roots_trace());
        drop(outer);
        let traces = tracer.collect(false, 10);
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].trace_id, 5);
        let inner = traces[0].span("inner").expect("folded in as a child");
        assert_eq!(inner.parent, traces[0].root().map(|r| r.id));
    }

    #[test]
    fn trace_counters_flow_through_registry() {
        let reg = MetricsRegistry::new();
        let tracer = Tracer::new(TraceConfig {
            enabled: true,
            recorder_capacity: 4,
            slow_threshold_ns: 0,
            slow_capacity: 1,
            seed: 3,
        });
        tracer.attach_registry(&reg);
        for _ in 0..3 {
            drop(tracer.start_trace(&reg.histogram("t.latency"), None));
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("trace.started"), 3);
        assert_eq!(snap.counter("trace.completed"), 3);
        assert_eq!(snap.counter("slowlog.retained"), 3);
        assert_eq!(snap.counter("slowlog.dropped"), 2);
    }

    #[test]
    fn a_timed_scope_is_the_span_of_its_histograms_name() {
        let reg = MetricsRegistry::new();
        let tracer = enabled_tracer();
        let req = reg.histogram("net.req.latency");
        let wait = reg.histogram("net.lock.wait");
        let guard = tracer.start_trace(&req, Some(3));
        for _ in 0..2 {
            let _w = wait.start_span();
            let _inner = span("inner");
        }
        drop(guard);
        let outside = wait.start_span();
        drop(outside);
        let t = &tracer.collect(false, 1)[0];
        assert!(t.is_complete(), "{t:?}");
        let root = t.root().unwrap();
        assert_eq!(root.name, "net.req");
        assert_eq!(req.snapshot().sum, root.duration_ns());
        let waits: Vec<&SpanData> = t
            .spans
            .iter()
            .filter(|s| s.name == "net.lock.wait")
            .collect();
        assert_eq!(waits.len(), 2);
        assert!(waits.iter().all(|s| s.parent == Some(root.id)));
        let in_trace: u64 = waits.iter().map(|s| s.duration_ns()).sum();
        let all = wait.snapshot();
        assert_eq!(all.count, 3, "outside a trace the histogram alone");
        assert!(in_trace <= all.sum);
        // An inert handle neither records nor opens a span.
        let guard = tracer.start_trace(&req, Some(4));
        drop(Histogram::default().start_span());
        drop(guard);
        assert_eq!(tracer.collect(false, 1)[0].spans.len(), 1);
    }
}
