//! Exporter golden tests: the text table is what the `experiments` harness
//! and README's example print, so its exact output is pinned here. A
//! formatting change that breaks these is a format change, not a refactor.

use memex_obs::{Event, HistogramSnapshot, MetricsRegistry, Snapshot, NUM_BUCKETS};

/// A deterministic snapshot covering every section: two counters, one
/// gauge, one histogram with two known observations (100ns → bucket 7
/// with upper bound 127, 1000ns → bucket 10 with upper bound 1023), one
/// event ring.
fn golden_snapshot() -> Snapshot {
    let mut h = HistogramSnapshot {
        buckets: [0; NUM_BUCKETS],
        count: 2,
        sum: 1100,
    };
    h.buckets[7] = 1;
    h.buckets[10] = 1;
    Snapshot {
        counters: vec![
            ("net.req.ok".to_string(), 7),
            ("trace.started".to_string(), 2),
        ],
        gauges: vec![("net.conn.active".to_string(), -1)],
        histograms: vec![("servlet.recall.latency".to_string(), h)],
        events: vec![(
            "store".to_string(),
            vec![Event {
                seq: 1,
                message: "checkpoint done".to_string(),
            }],
        )],
    }
}

#[test]
fn text_export_is_stable() {
    let expected = "\
== counters ==
  net.req.ok     7
  trace.started  2
== gauges ==
  net.conn.active  -1
== histograms (ns) ==
  servlet.recall.latency  count=2 mean=550ns p50=127ns p99=1023ns max=1023ns
== recent events ==
  [     1] store: checkpoint done
";
    assert_eq!(golden_snapshot().render_text(), expected);
}

#[test]
fn empty_registry_text_export_is_well_formed() {
    let snap = MetricsRegistry::new().snapshot();
    assert_eq!(snap, Snapshot::default());
    assert_eq!(snap.render_text(), "(no metrics recorded)\n");
}
