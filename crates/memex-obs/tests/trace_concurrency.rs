//! Flight-recorder concurrency: many threads completing traces while
//! readers drain the ring and reconfiguration swaps it out from under
//! them. Runs under the nightly TSan matrix — the interesting assertion
//! there is "no data race", but the structural invariants are checked
//! here too: every collected trace is a complete tree, and the recorder
//! never yields a torn or duplicated entry.

use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

use memex_obs::trace::{annotate, span};
use memex_obs::{MetricsRegistry, TraceConfig, Tracer};

fn tracer(capacity: usize) -> Tracer {
    Tracer::new(TraceConfig {
        enabled: true,
        recorder_capacity: capacity,
        slow_threshold_ns: 0, // everything is "slow": exercises both sinks
        slow_capacity: 32,
        seed: 0xC0FFEE,
    })
}

#[test]
fn concurrent_completion_and_collection_yield_only_complete_trees() {
    const WRITERS: usize = 8;
    const TRACES_PER_WRITER: usize = 200;

    let t = tracer(64);
    let registry = MetricsRegistry::new();
    t.attach_registry(&registry);
    let stop = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..2)
        .map(|_| {
            let t = t.clone();
            let stop = stop.clone();
            std::thread::spawn(move || {
                let mut seen = 0usize;
                while !stop.load(Ordering::Relaxed) {
                    for trace in t.collect(false, 64) {
                        assert!(trace.is_complete(), "torn trace escaped: {trace:?}");
                        assert!(trace.trace_id != 0);
                        seen += 1;
                    }
                    for trace in t.collect(true, 16) {
                        assert!(trace.is_complete(), "torn slow entry: {trace:?}");
                    }
                }
                seen
            })
        })
        .collect();

    let writers: Vec<_> = (0..WRITERS)
        .map(|w| {
            let t = t.clone();
            let root = registry.histogram("net.req.latency");
            std::thread::spawn(move || {
                for i in 0..TRACES_PER_WRITER {
                    let guard = t.start_trace(&root, None);
                    annotate("writer", w);
                    {
                        let _child = span("servlet");
                        annotate("i", i);
                        let _grandchild = span("store.kv.get");
                    }
                    drop(guard);
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer thread");
    }
    stop.store(true, Ordering::Relaxed);
    // The readers race each other for the same ring: one of them seeing
    // nothing is a legal schedule, both seeing nothing is a bug.
    let seen: usize = readers
        .into_iter()
        .map(|r| r.join().expect("reader thread"))
        .sum();
    assert!(seen > 0, "readers saw nothing");

    // Every completion was counted; the bounded ring holds the newest
    // (distinct, complete) traces up to capacity.
    let total = (WRITERS * TRACES_PER_WRITER) as u64;
    let snap = registry.snapshot();
    assert_eq!(snap.counter("trace.started"), total);
    assert_eq!(snap.counter("trace.completed"), total);
    let retained = t.collect(false, usize::MAX);
    assert_eq!(retained.len(), 64.min(t.recorded()));
    let ids: HashSet<u64> = retained.iter().map(|t| t.trace_id).collect();
    assert_eq!(ids.len(), retained.len(), "recorder duplicated a trace");
    assert!(retained.iter().all(|t| t.is_complete()));
}

/// Traces one writer has finished, split by whether the tracer was enabled
/// when the trace started.
#[derive(Default)]
struct Progress {
    traced: AtomicUsize,
    untraced: AtomicUsize,
}

#[test]
fn reconfiguration_races_with_writers_without_losing_structure() {
    let t = tracer(16);
    let stop = Arc::new(AtomicBool::new(false));
    let progress: Vec<Arc<Progress>> = (0..4).map(|_| Arc::default()).collect();

    let writers: Vec<_> = progress
        .iter()
        .map(|progress| {
            let t = t.clone();
            let stop = stop.clone();
            let progress = progress.clone();
            std::thread::spawn(move || {
                let root = MetricsRegistry::new().histogram("net.req.latency");
                while !stop.load(Ordering::Relaxed) {
                    let guard = t.start_trace(&root, None);
                    let traced = guard.roots_trace();
                    let _child = span("servlet");
                    drop(_child);
                    drop(guard);
                    let done = if traced {
                        &progress.traced
                    } else {
                        &progress.untraced
                    };
                    done.fetch_add(1, Ordering::Relaxed);
                }
            })
        })
        .collect();
    let alive = || assert!(!writers.iter().any(|w| w.is_finished()), "a writer died");

    // On a 1-2 vCPU host this thread could run all its flips before any
    // writer is scheduled, so the race is made real, not assumed: no flip
    // until every writer is mid-stream...
    while progress
        .iter()
        .any(|p| p.traced.load(Ordering::Relaxed) == 0)
    {
        alive();
        std::thread::yield_now();
    }
    let traced_before: Vec<usize> = progress
        .iter()
        .map(|p| p.traced.load(Ordering::Relaxed))
        .collect();
    let raced_both_states = || {
        progress.iter().zip(&traced_before).all(|(p, &before)| {
            p.traced.load(Ordering::Relaxed) > before && p.untraced.load(Ordering::Relaxed) > 0
        })
    };

    // ...and capacity and enablement keep flipping under that traffic until
    // every writer has finished traces under both enablement states.
    let mut i = 0u64;
    while i < 50 || !raced_both_states() {
        alive();
        t.configure(TraceConfig {
            enabled: true,
            recorder_capacity: if i.is_multiple_of(2) { 4 } else { 32 },
            slow_threshold_ns: u64::MAX,
            slow_capacity: 8,
            seed: i,
        });
        t.set_enabled(!i.is_multiple_of(3));
        for trace in t.collect(false, 32) {
            assert!(trace.is_complete(), "resize tore a trace: {trace:?}");
        }
        i += 1;
        std::thread::yield_now();
    }
    t.set_enabled(true);
    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().expect("writer");
    }
    assert!(t.collect(false, 32).iter().all(|t| t.is_complete()));
}
