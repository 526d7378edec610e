//! The loosely-consistent versioning system of paper §3: "a single producer
//! (crawler) and several consumers (indexer and statistical analyzers)".
//!
//! It is an append-only event log owned by its one producer and read through
//! a fixed set of named cursors, one per consumer:
//!
//! * [`EventLog::append`] is the producer's only step. An event is visible to
//!   every cursor once appended, and its epoch is its absolute position: the
//!   n-th event ever appended has epoch n.
//! * A consumer reads [`EventLog::pending`] (the events past its cursor) and
//!   [`EventLog::advance`]s its cursor over the ones it applied. Its
//!   *staleness* is `head − cursor`.
//! * [`EventLog::trim`] drops the prefix every cursor has passed. Epochs keep
//!   counting from where they were.
//!
//! There is no lock: the owner runs its consumers in turn.

use memex_obs::{Gauge, MetricsRegistry};

/// Absolute position of an event in the log. Epoch 0 means "nothing yet".
pub type Epoch = u64;

/// Capacity [`EventLog::trim`] leaves the buffer: room for the events one
/// write ack appends (an import appends one per bookmark), so the served
/// path allocates nothing once warm.
const RETAINED_CAPACITY: usize = 64;

struct Cursor {
    name: &'static str,
    /// Epoch of the last event this consumer applied; never below the
    /// log's `trimmed`.
    applied: Epoch,
    /// `store.version.staleness.<name>`.
    staleness: Gauge,
}

/// An append-only event log read through cursors named at construction.
pub struct EventLog<T> {
    /// Events not yet trimmed, oldest first: the i-th has epoch
    /// `trimmed + i + 1`.
    events: Vec<T>,
    /// Epoch of the last event [`EventLog::trim`] dropped.
    trimmed: Epoch,
    cursors: Vec<Cursor>,
    /// `store.version.head`.
    head: Gauge,
}

impl<T> Default for EventLog<T> {
    /// An empty log with no cursors and no metrics.
    fn default() -> Self {
        EventLog {
            events: Vec::new(),
            trimmed: 0,
            cursors: Vec::new(),
            head: Gauge::default(),
        }
    }
}

impl<T> EventLog<T> {
    /// An empty log with one cursor per name. A cursor's id, as
    /// [`EventLog::pending`] and [`EventLog::advance`] take it, is its
    /// position in `names`. Registers `store.version.head` and one
    /// `store.version.staleness.<name>` gauge per cursor with `registry`.
    pub fn new(names: &[&'static str], registry: &MetricsRegistry) -> EventLog<T> {
        let cursors = names
            .iter()
            .map(|&name| Cursor {
                name,
                applied: 0,
                staleness: registry.gauge(&format!("store.version.staleness.{name}")),
            })
            .collect();
        EventLog {
            cursors,
            head: registry.gauge("store.version.head"),
            ..EventLog::default()
        }
    }

    /// Epoch of the newest event appended.
    fn head(&self) -> Epoch {
        self.trimmed + self.events.len() as Epoch
    }

    /// Producer: append one event, pending at every cursor from now on.
    /// Returns its epoch.
    pub fn append(&mut self, event: T) -> Epoch {
        self.events.push(event);
        let head = self.head();
        self.head.set(head as i64);
        for c in &self.cursors {
            c.staleness.set((head - c.applied) as i64);
        }
        head
    }

    /// The events `cursor` has not applied yet, oldest first, at most `max`
    /// of them. An id past the cursors named at construction has none.
    pub fn pending(&self, cursor: usize, max: usize) -> &[T] {
        let start = self
            .cursors
            .get(cursor)
            .map_or(self.events.len(), |c| (c.applied - self.trimmed) as usize);
        let end = start.saturating_add(max).min(self.events.len());
        self.events.get(start..end).unwrap_or_default()
    }

    /// Move `cursor` past its next `n` pending events (never past the head).
    pub fn advance(&mut self, cursor: usize, n: usize) {
        let head = self.head();
        if let Some(c) = self.cursors.get_mut(cursor) {
            c.applied = c.applied.saturating_add(n as Epoch).min(head);
            c.staleness.set((head - c.applied) as i64);
        }
    }

    /// Every cursor's name and staleness (`head − cursor`), in construction
    /// order.
    pub fn staleness(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        let head = self.head();
        self.cursors.iter().map(move |c| (c.name, head - c.applied))
    }

    /// Drop the events every cursor has passed. Returns how many.
    pub fn trim(&mut self) -> usize {
        let head = self.head();
        let floor = self.cursors.iter().map(|c| c.applied).min().unwrap_or(head);
        let n = (floor - self.trimmed) as usize;
        self.events.drain(..n);
        // A bulk load grows the buffer far past what an ack needs; give the
        // excess back rather than keep it resident for the log's lifetime.
        self.events.shrink_to(RETAINED_CAPACITY);
        self.trimmed = floor;
        n
    }

    /// Events appended and not yet trimmed.
    pub fn retained(&self) -> usize {
        self.events.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const A: usize = 0;
    const B: usize = 1;

    fn log() -> EventLog<u32> {
        EventLog::new(&["a", "b"], &MetricsRegistry::new())
    }

    #[test]
    fn cursors_progress_independently() {
        let mut log = log();
        for i in 0..5 {
            log.append(i);
        }
        assert_eq!(log.pending(A, usize::MAX), &[0, 1, 2, 3, 4]);
        log.advance(A, 5);
        assert!(log.pending(A, usize::MAX).is_empty());
        assert_eq!(log.pending(B, usize::MAX).len(), 5, "b still has it all");
        assert_eq!(log.staleness().collect::<Vec<_>>(), [("a", 0), ("b", 5)]);
    }

    #[test]
    fn every_event_is_delivered_exactly_once_in_order() {
        let mut log = log();
        let mut seen = Vec::new();
        for i in 0..10u32 {
            assert_eq!(log.append(i), Epoch::from(i) + 1, "epoch = position");
            if i % 3 == 2 {
                // Partial passes: at most two events at a time.
                while !log.pending(A, 2).is_empty() {
                    let got = log.pending(A, 2);
                    assert!(got.len() <= 2);
                    seen.extend_from_slice(got);
                    let n = got.len();
                    log.advance(A, n);
                }
            }
        }
        seen.extend_from_slice(log.pending(A, usize::MAX));
        assert_eq!(seen, (0..10).collect::<Vec<u32>>());
        assert!(log.pending(A, 0).is_empty());
        assert!(log.pending(7, usize::MAX).is_empty(), "unknown cursor");
    }

    #[test]
    fn trim_respects_the_slowest_cursor() {
        let mut log = log();
        for i in 0..4 {
            log.append(i);
        }
        log.advance(A, 4);
        assert_eq!(log.trim(), 0, "b has applied nothing");
        log.advance(B, 1);
        assert_eq!(log.trim(), 1);
        assert_eq!(log.retained(), 3);
        assert_eq!(log.pending(B, usize::MAX), &[1, 2, 3], "b resumes in place");
        log.advance(B, 3);
        assert_eq!(log.trim(), 3);
        assert_eq!(log.retained(), 0);
        assert_eq!(log.append(9), 5, "epochs keep counting past a trim");
        assert_eq!(log.pending(A, usize::MAX), &[9]);
        // A bulk load's buffer is handed back once trimmed.
        for i in 0..1_000 {
            log.append(i);
        }
        log.advance(A, usize::MAX);
        log.advance(B, usize::MAX);
        assert_eq!(log.trim(), 1_001);
        assert!(log.events.capacity() <= RETAINED_CAPACITY);
    }

    #[test]
    fn staleness_is_head_minus_cursor() {
        let registry = MetricsRegistry::new();
        let mut log: EventLog<u32> = EventLog::new(&["a", "b"], &registry);
        let gauges = |log: &EventLog<u32>| {
            let snap = registry.snapshot();
            (
                snap.gauge("store.version.head"),
                snap.gauge("store.version.staleness.a"),
                snap.gauge("store.version.staleness.b"),
                log.staleness().map(|(_, s)| s).collect::<Vec<_>>(),
            )
        };
        assert_eq!(gauges(&log), (0, 0, 0, vec![0, 0]));
        for i in 0..6 {
            log.append(i);
        }
        log.advance(A, 4);
        assert_eq!(gauges(&log), (6, 2, 6, vec![2, 6]));
        log.advance(B, 100);
        assert_eq!(gauges(&log), (6, 2, 0, vec![2, 0]), "clamped at the head");
        log.trim();
        log.append(6);
        assert_eq!(log.head(), 7);
        assert_eq!(gauges(&log), (7, 3, 1, vec![3, 1]));
    }
}
