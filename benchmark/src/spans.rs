//! Benchmark-side spans: recorded in memory around calls into each layer,
//! rolled up into a per-layer table and a Chrome trace when the run ends.
//! One recorder per thread; nesting follows the enter/exit order.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    /// The request this span worked for (index into the request list).
    request: u32,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    request: u32,
}

/// Count and total of one span name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Rollup {
    pub fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.count as f64
        }
    }

    pub fn mean_us(&self) -> f64 {
        self.mean_ns() / 1e3
    }
}

impl Spans {
    /// `origin` is shared by the recorders of one run so their timelines
    /// line up in the trace.
    pub fn new(origin: Instant) -> Spans {
        Spans {
            origin,
            spans: Vec::new(),
            open: Vec::new(),
            request: 0,
        }
    }

    pub fn origin(&self) -> Instant {
        self.origin
    }

    /// Spans recorded from now on belong to request `id`.
    pub fn set_request(&mut self, id: usize) {
        self.request = id as u32;
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.now(),
            end_ns: 0,
            parent: self.open.last().copied().unwrap_or(NO_PARENT),
            request: self.request,
        });
        self.open.push(id);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let id = self.open.pop().expect("exit without enter");
        self.spans[id as usize].end_ns = self.now();
    }

    /// A leaf span around `f`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// Per-name count, total and self time (a span's duration minus what
    /// its children cover).
    pub fn rollup(&self) -> BTreeMap<&'static str, Rollup> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Rollup> = BTreeMap::new();
        for (s, children) in self.spans.iter().zip(child_ns) {
            let r = out.entry(s.name).or_default();
            let total = s.end_ns - s.start_ns;
            r.count += 1;
            r.total_ns += total;
            r.self_ns += total.saturating_sub(children);
        }
        out
    }

    /// The layer table: count, total, self time and self time's share of
    /// everything recorded.
    pub fn layer_table(&self, title: &str) -> String {
        let rollup = self.rollup();
        let all_self: u64 = rollup.values().map(|r| r.self_ns).sum();
        let mut out = format!(
            "{title} ({:.3} s in spans)\n{:<34}{:>9}{:>14}{:>14}{:>9}\n",
            all_self as f64 / 1e9,
            "span",
            "count",
            "total_ms",
            "self_ms",
            "share"
        );
        for (name, r) in &rollup {
            let _ = writeln!(
                out,
                "{name:<34}{:>9}{:>14.3}{:>14.3}{:>8.1}%",
                r.count,
                r.total_ns as f64 / 1e6,
                r.self_ns as f64 / 1e6,
                100.0 * r.self_ns as f64 / all_self.max(1) as f64,
            );
        }
        out
    }

    /// Append up to `cap` spans as Chrome-trace complete events on thread
    /// `tid`; returns how many were left out.
    pub fn chrome_events(&self, tid: u32, cap: usize, events: &mut Vec<String>) -> usize {
        for (id, s) in self.spans.iter().enumerate().take(cap) {
            let parent = if s.parent == NO_PARENT {
                "null".to_string()
            } else {
                s.parent.to_string()
            };
            events.push(format!(
                "{{\"name\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"id\":{id},\"parent\":{parent},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.request,
            ));
        }
        self.spans.len().saturating_sub(cap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children_and_parents_link_up() {
        let mut spans = Spans::new(Instant::now());
        spans.set_request(7);
        spans.enter("outer");
        spans.time("inner", || {
            std::thread::sleep(std::time::Duration::from_millis(2))
        });
        spans.time("inner", || ());
        spans.exit();
        let r = spans.rollup();
        assert_eq!(r["outer"].count, 1);
        assert_eq!(r["inner"].count, 2);
        assert!(r["inner"].total_ns >= 2_000_000);
        assert_eq!(r["inner"].self_ns, r["inner"].total_ns);
        assert_eq!(
            r["outer"].self_ns,
            r["outer"].total_ns - r["inner"].total_ns
        );
        let mut events = Vec::new();
        assert_eq!(spans.chrome_events(1, 2, &mut events), 1);
        assert!(events[0].contains("\"name\":\"outer\"") && events[0].contains("\"parent\":null"));
        assert!(events[1].contains("\"parent\":0") && events[1].contains("\"request\":7"));
    }
}
