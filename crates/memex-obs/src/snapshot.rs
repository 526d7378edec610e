//! Point-in-time snapshots and their one exporter, a human-readable text
//! table.

use crate::histogram::HistogramSnapshot;

/// One annotated entry from a subsystem's bounded event ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Event {
    /// Registry-wide sequence number (total order across subsystems).
    pub seq: u64,
    pub message: String,
}

/// Everything a registry knew at one instant. All vectors are sorted by
/// name (the registry stores instruments in a `BTreeMap`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, HistogramSnapshot)>,
    pub events: Vec<(String, Vec<Event>)>,
}

impl Snapshot {
    /// Look up a counter value by name (0 if absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a gauge value by name (0 if absent).
    pub fn gauge(&self, name: &str) -> i64 {
        self.gauges
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Look up a histogram snapshot by name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Human-readable table, one instrument per line; histograms report
    /// count / mean / p50 / p99 / max in adaptively-scaled time units.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            out.push_str("== counters ==\n");
            let width = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, v) in &self.counters {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.gauges.is_empty() {
            out.push_str("== gauges ==\n");
            let width = self.gauges.iter().map(|(n, _)| n.len()).max().unwrap_or(0);
            for (name, v) in &self.gauges {
                out.push_str(&format!("  {name:<width$}  {v}\n"));
            }
        }
        if !self.histograms.is_empty() {
            out.push_str("== histograms (ns) ==\n");
            let width = self
                .histograms
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(0);
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "  {name:<width$}  count={} mean={} p50={} p99={} max={}\n",
                    h.count,
                    format_scaled(h.mean() as u64),
                    format_scaled(h.percentile(0.5)),
                    format_scaled(h.percentile(0.99)),
                    format_scaled(h.percentile(1.0)),
                ));
            }
        }
        if !self.events.is_empty() {
            out.push_str("== recent events ==\n");
            for (subsystem, ring) in &self.events {
                for ev in ring {
                    out.push_str(&format!("  [{:>6}] {subsystem}: {}\n", ev.seq, ev.message));
                }
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

/// Render a nanosecond quantity with a unit that keeps it readable.
fn format_scaled(ns: u64) -> String {
    match ns {
        0..=9_999 => format!("{ns}ns"),
        10_000..=9_999_999 => format!("{}us", ns / 1_000),
        10_000_000..=9_999_999_999 => format!("{}ms", ns / 1_000_000),
        _ => format!("{}s", ns / 1_000_000_000),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.push(("store.wal.appends".into(), 42));
        snap.gauges.push(("server.bus.depth".into(), 7));
        let mut h = HistogramSnapshot::default();
        for v in [100u64, 200, 400, 800] {
            h.buckets[crate::histogram::bucket_of(v)] += 1;
            h.count += 1;
            h.sum += v;
        }
        snap.histograms.push(("index.query.latency".into(), h));
        snap.events.push((
            "server".into(),
            vec![Event {
                seq: 3,
                message: "overload: discarded 2 events".into(),
            }],
        ));
        snap
    }

    #[test]
    fn text_mentions_every_instrument() {
        let text = sample().render_text();
        assert!(text.contains("store.wal.appends"));
        assert!(text.contains("server.bus.depth"));
        assert!(text.contains("index.query.latency"));
        assert!(text.contains("overload: discarded 2 events"));
    }

    #[test]
    fn lookup_helpers() {
        let snap = sample();
        assert_eq!(snap.counter("store.wal.appends"), 42);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.gauge("server.bus.depth"), 7);
        assert_eq!(snap.histogram("index.query.latency").unwrap().count, 4);
    }
}
