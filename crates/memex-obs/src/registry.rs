//! The metrics registry and its cheap instrument handles.
//!
//! Registration (name → slot) takes a lock once; after that every handle is
//! an `Arc` to an atomic slot, so the hot path is a single relaxed atomic
//! op. A handle's `Default` is inert: its operations are one predictable
//! branch, and a component that was never given a registry holds those.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use crate::histogram::HistogramCore;
use crate::snapshot::{Event, Snapshot};
use crate::trace::SpanGuard;

const EVENT_RING_CAPACITY: usize = 64;

#[derive(Debug, Default)]
struct CounterCore {
    value: AtomicU64,
}

#[derive(Debug, Default)]
struct GaugeCore {
    value: AtomicI64,
}

/// A histogram's buckets and the trace span its timed scopes open: its
/// name less a trailing `.latency`, computed once at registration.
#[derive(Debug)]
pub(crate) struct HistogramSlot {
    pub(crate) core: HistogramCore,
    pub(crate) span: Box<str>,
}

enum Slot {
    Counter(Arc<CounterCore>),
    Gauge(Arc<GaugeCore>),
    Histogram(Arc<HistogramSlot>),
}

struct Inner {
    slots: RwLock<BTreeMap<String, Slot>>,
    /// subsystem → bounded ring of recent annotated events.
    events: Mutex<BTreeMap<String, Vec<Event>>>,
    event_seq: AtomicU64,
}

/// A shareable registry of named instruments. Cloning shares storage.
#[derive(Clone)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsRegistry").finish_non_exhaustive()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            inner: Arc::new(Inner {
                slots: RwLock::new(BTreeMap::new()),
                events: Mutex::new(BTreeMap::new()),
                event_seq: AtomicU64::new(0),
            }),
        }
    }

    /// Get or register the counter `name` (convention: `subsystem.verb`).
    /// Registering the same name twice returns a handle to the same slot;
    /// a name already registered as a different kind returns a disabled
    /// handle (observability must never take down serving) and notes the
    /// mismatch in the `metrics` event ring.
    pub fn counter(&self, name: &str) -> Counter {
        if let Slot::Counter(c) = self.slot(name, || Slot::Counter(Arc::default())) {
            Counter { core: Some(c) }
        } else {
            self.note_kind_mismatch(name, "counter");
            Counter { core: None }
        }
    }

    pub fn gauge(&self, name: &str) -> Gauge {
        if let Slot::Gauge(g) = self.slot(name, || Slot::Gauge(Arc::default())) {
            Gauge { core: Some(g) }
        } else {
            self.note_kind_mismatch(name, "gauge");
            Gauge { core: None }
        }
    }

    pub fn histogram(&self, name: &str) -> Histogram {
        let make = || {
            Slot::Histogram(Arc::new(HistogramSlot {
                core: HistogramCore::default(),
                span: name.strip_suffix(".latency").unwrap_or(name).into(),
            }))
        };
        if let Slot::Histogram(h) = self.slot(name, make) {
            Histogram { core: Some(h) }
        } else {
            self.note_kind_mismatch(name, "histogram");
            Histogram { core: None }
        }
    }

    /// Record a registration-kind mismatch where an operator will see it.
    fn note_kind_mismatch(&self, name: &str, wanted: &str) {
        self.event(
            "metrics",
            format!("metric {name:?} already registered as a non-{wanted}; handle disabled"),
        );
    }

    fn slot(&self, name: &str, make: impl FnOnce() -> Slot) -> Slot {
        {
            // Recover from poison: a panicking thread elsewhere must not
            // cascade into every metric touch.
            let slots = self.inner.slots.read().unwrap_or_else(|e| e.into_inner());
            if let Some(s) = slots.get(name) {
                return s.shallow_clone();
            }
        }
        let mut slots = self.inner.slots.write().unwrap_or_else(|e| e.into_inner());
        slots
            .entry(name.to_string())
            .or_insert_with(make)
            .shallow_clone()
    }

    /// Append an annotated event to `subsystem`'s bounded ring.
    pub fn event(&self, subsystem: &str, message: impl Into<String>) {
        let seq = self.inner.event_seq.fetch_add(1, Ordering::Relaxed);
        let mut events = self.inner.events.lock().unwrap_or_else(|e| e.into_inner());
        let ring = events.entry(subsystem.to_string()).or_default();
        if ring.len() >= EVENT_RING_CAPACITY {
            ring.remove(0);
        }
        ring.push(Event {
            seq,
            message: message.into(),
        });
    }

    /// Point-in-time copy of every instrument and event ring.
    pub fn snapshot(&self) -> Snapshot {
        let mut snap = Snapshot::default();
        {
            let slots = self.inner.slots.read().unwrap_or_else(|e| e.into_inner());
            for (name, slot) in slots.iter() {
                match slot {
                    Slot::Counter(c) => {
                        snap.counters
                            .push((name.clone(), c.value.load(Ordering::Relaxed)));
                    }
                    Slot::Gauge(g) => {
                        snap.gauges
                            .push((name.clone(), g.value.load(Ordering::Relaxed)));
                    }
                    Slot::Histogram(h) => {
                        snap.histograms.push((name.clone(), h.core.snapshot()));
                    }
                }
            }
        }
        {
            let events = self.inner.events.lock().unwrap_or_else(|e| e.into_inner());
            for (subsystem, ring) in events.iter() {
                snap.events.push((subsystem.clone(), ring.clone()));
            }
        }
        snap
    }
}

impl Slot {
    fn shallow_clone(&self) -> Slot {
        match self {
            Slot::Counter(c) => Slot::Counter(Arc::clone(c)),
            Slot::Gauge(g) => Slot::Gauge(Arc::clone(g)),
            Slot::Histogram(h) => Slot::Histogram(Arc::clone(h)),
        }
    }
}

/// Monotone counter handle. `None` core = inert (`Default`).
#[derive(Debug, Clone, Default)]
pub struct Counter {
    core: Option<Arc<CounterCore>>,
}

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        if let Some(c) = &self.core {
            c.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> u64 {
        self.core
            .as_ref()
            .map_or(0, |c| c.value.load(Ordering::Relaxed))
    }
}

/// Up/down gauge handle.
#[derive(Debug, Clone, Default)]
pub struct Gauge {
    core: Option<Arc<GaugeCore>>,
}

impl Gauge {
    #[inline]
    pub fn set(&self, v: i64) {
        if let Some(g) = &self.core {
            g.value.store(v, Ordering::Relaxed);
        }
    }

    #[inline]
    pub fn add(&self, n: i64) {
        if let Some(g) = &self.core {
            g.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Raise the gauge to `v` if it is below (high-watermark tracking).
    #[inline]
    pub fn set_max(&self, v: i64) {
        if let Some(g) = &self.core {
            g.value.fetch_max(v, Ordering::Relaxed);
        }
    }

    pub fn get(&self) -> i64 {
        self.core
            .as_ref()
            .map_or(0, |g| g.value.load(Ordering::Relaxed))
    }
}

/// Histogram handle (record arbitrary u64 values; spans record nanoseconds).
#[derive(Debug, Clone, Default)]
pub struct Histogram {
    core: Option<Arc<HistogramSlot>>,
}

impl Histogram {
    #[inline]
    pub fn record(&self, value: u64) {
        if let Some(h) = &self.core {
            h.core.record(value);
        }
    }

    pub fn snapshot(&self) -> crate::histogram::HistogramSnapshot {
        self.core
            .as_ref()
            .map(|h| h.core.snapshot())
            .unwrap_or_default()
    }

    /// Time a scope into this histogram (nanoseconds, recorded on drop).
    /// When a trace is active on this thread, the same two instants also
    /// bound the trace span named after the histogram, less a trailing
    /// `.latency`. An inert handle reads no clock and opens no span.
    pub fn start_span(&self) -> SpanGuard {
        SpanGuard::start(self.core.as_ref(), None)
    }

    pub(crate) fn slot(&self) -> Option<&Arc<HistogramSlot>> {
        self.core.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.hits");
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        // Same name → same slot.
        assert_eq!(reg.counter("t.hits").get(), 5);
        let g = reg.gauge("t.depth");
        g.set(7);
        g.add(-2);
        g.set_max(3);
        assert_eq!(g.get(), 5);
        g.set_max(9);
        assert_eq!(g.get(), 9);
    }

    #[test]
    fn spans_record_latency() {
        let reg = MetricsRegistry::new();
        {
            let _g = reg.histogram("t.work").start_span();
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let snap = reg.histogram("t.work").snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.sum >= 2_000_000, "recorded {} ns", snap.sum);
    }

    #[test]
    fn event_ring_is_bounded() {
        let reg = MetricsRegistry::new();
        for i in 0..200 {
            reg.event("demo", format!("e{i}"));
        }
        let snap = reg.snapshot();
        let (_, ring) = &snap.events[0];
        assert_eq!(ring.len(), EVENT_RING_CAPACITY);
        assert_eq!(ring.last().unwrap().message, "e199");
        assert!(ring[0].seq < ring[1].seq);
    }

    #[test]
    fn kind_mismatch_degrades_to_a_disabled_handle() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("t.x");
        c.inc();
        // Wrong kind: no panic, a disabled handle, and an operator-visible
        // event — the counter keeps its slot.
        let g = reg.gauge("t.x");
        g.set(7);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("t.x"), 1);
        assert!(snap.gauges.iter().all(|(n, _)| n != "t.x"));
        let (sub, ring) = &snap.events[0];
        assert_eq!(sub, "metrics");
        assert!(ring[0].message.contains("already registered"));
    }
}
