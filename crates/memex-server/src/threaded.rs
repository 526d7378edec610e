//! The concurrent deployment of the pipeline for experiment F3: one
//! producer (the UI event handler / crawler side of Fig. 3) and several
//! demon threads consuming through the loosely-consistent bus, with
//! optional mid-stream crash injection in one demon.
//!
//! This measures the three properties the paper claims for the design:
//! ingest throughput independent of demon speed, bounded-but-nonzero
//! consumer staleness, and fast recovery "even if it has to discard a few
//! client events".

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memex_obs::{MetricsRegistry, Snapshot};
use memex_store::version::VersionedLog;

/// Configuration for a threaded pipeline run.
#[derive(Debug, Clone, Copy)]
pub struct ThreadedConfig {
    /// Total events the producer offers.
    pub num_events: usize,
    /// Events per published batch.
    pub batch_size: usize,
    /// Demon (consumer) threads.
    pub consumers: usize,
    /// Simulated per-event demon work (iterations of a checksum loop;
    /// models page analysis being much slower than ingest).
    pub work_per_event: u32,
    /// If set, consumer 0 crashes once after applying this many events,
    /// losing its in-flight batch, and then restarts.
    pub crash_after_events: Option<usize>,
    /// Microseconds the producer waits between batches (models real event
    /// arrival; 0 = produce as fast as possible). Without pacing the
    /// producer finishes before demons start and staleness trivially peaks
    /// at "everything".
    pub producer_pace_us: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig {
            num_events: 10_000,
            batch_size: 32,
            consumers: 3,
            work_per_event: 50,
            crash_after_events: None,
            producer_pace_us: 0,
        }
    }
}

/// What a run measured.
#[derive(Debug, Clone)]
pub struct PipelineReport {
    pub events_offered: usize,
    /// Events each demon actually processed (the crashed demon loses its
    /// in-flight batch).
    pub per_consumer_processed: Vec<usize>,
    /// Demon threads that died of a panic (unlike the injected crash, not
    /// part of the experiment); each counts 0 events processed.
    pub demons_panicked: usize,
    /// Events lost to the injected crash.
    pub events_lost_in_crash: usize,
    /// Highest staleness (epochs behind) sampled during the run.
    pub max_staleness: u64,
    pub producer_elapsed: Duration,
    pub total_elapsed: Duration,
    /// Ingest throughput (events/s) seen by the producer.
    pub ingest_events_per_sec: f64,
    /// Full metrics snapshot from the run's registry (bus gauges, demon
    /// staleness, crash/work counters).
    pub metrics: Snapshot,
}

/// Run the threaded pipeline to completion.
pub fn run_threaded(config: ThreadedConfig) -> PipelineReport {
    assert!(config.consumers >= 1);
    let registry = MetricsRegistry::new();
    let log: VersionedLog<u64> = VersionedLog::new();
    log.attach_registry(&registry);
    let done = Arc::new(AtomicBool::new(false));
    let max_staleness = registry.gauge("pipeline.staleness.max");
    let lost = registry.counter("pipeline.events.lost_in_crash");
    let offered_total = registry.counter("pipeline.events.offered");
    let processed_total = registry.counter("pipeline.events.processed");
    let start = Instant::now();

    // Demon threads.
    let mut handles = Vec::new();
    for c in 0..config.consumers {
        let consumer = log.register(&format!("demon-{c}"));
        let log = log.clone();
        let done = Arc::clone(&done);
        let max_staleness = max_staleness.clone();
        let lost = lost.clone();
        let processed_total = processed_total.clone();
        let crash_after = if c == 0 {
            config.crash_after_events
        } else {
            None
        };
        let work = config.work_per_event;
        handles.push(std::thread::spawn(move || {
            let mut processed = 0usize;
            let mut crashed = crash_after.is_none();
            loop {
                let batches = consumer.poll();
                if batches.is_empty() {
                    if done.load(Ordering::Acquire) && consumer.staleness() == 0 {
                        break;
                    }
                    std::thread::yield_now();
                    continue;
                }
                // Sample staleness of the slowest demon.
                let reports = log.staleness();
                if let Some(worst) = reports.iter().map(|r| r.staleness).max() {
                    max_staleness.set_max(worst as i64);
                }
                for (_, batch) in batches {
                    if !crashed {
                        if let Some(limit) = crash_after {
                            if processed >= limit {
                                // Crash: the in-flight batch is lost; the
                                // demon restarts immediately (the bus kept
                                // our cursor, so no replay storm).
                                lost.add(batch.len() as u64);
                                crashed = true;
                                continue;
                            }
                        }
                    }
                    for &event in batch.iter() {
                        // Simulated analysis work.
                        let mut acc = event;
                        for _ in 0..work {
                            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                        }
                        std::hint::black_box(acc);
                        processed += 1;
                        processed_total.inc();
                    }
                }
            }
            processed
        }));
    }

    // Producer (the guaranteed-immediate ingest path).
    let mut offered = 0usize;
    let producer_start = Instant::now();
    let mut batch = Vec::with_capacity(config.batch_size);
    for i in 0..config.num_events {
        batch.push(i as u64);
        if batch.len() == config.batch_size {
            log.append(std::mem::take(&mut batch));
            log.publish();
            batch = Vec::with_capacity(config.batch_size);
            if config.producer_pace_us > 0 {
                std::thread::sleep(Duration::from_micros(config.producer_pace_us));
            }
        }
        offered += 1;
        offered_total.inc();
    }
    if !batch.is_empty() {
        log.append(batch);
        log.publish();
    }
    let producer_elapsed = producer_start.elapsed();
    done.store(true, Ordering::Release);

    let mut demons_panicked = 0usize;
    let per_consumer_processed: Vec<usize> = handles
        .into_iter()
        .map(|h| {
            h.join().unwrap_or_else(|_| {
                demons_panicked += 1;
                0
            })
        })
        .collect();
    let total_elapsed = start.elapsed();
    PipelineReport {
        events_offered: offered,
        per_consumer_processed,
        demons_panicked,
        events_lost_in_crash: lost.get() as usize,
        max_staleness: max_staleness.get() as u64,
        producer_elapsed,
        total_elapsed,
        ingest_events_per_sec: offered as f64 / producer_elapsed.as_secs_f64().max(1e-9),
        metrics: registry.snapshot(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_consumers_see_all_events() {
        let report = run_threaded(ThreadedConfig {
            num_events: 2_000,
            batch_size: 16,
            consumers: 3,
            work_per_event: 10,
            crash_after_events: None,
            ..ThreadedConfig::default()
        });
        assert_eq!(report.events_offered, 2_000);
        for &p in &report.per_consumer_processed {
            assert_eq!(p, 2_000);
        }
        assert!(report.ingest_events_per_sec > 0.0);
        // The snapshot rode along and agrees with the report.
        assert_eq!(report.metrics.counter("pipeline.events.offered"), 2_000);
        assert_eq!(report.metrics.counter("pipeline.events.processed"), 6_000);
        assert!(report
            .metrics
            .gauges
            .iter()
            .any(|(n, _)| n.starts_with("store.version.staleness.demon-")));
    }

    #[test]
    fn slow_demons_lag_but_catch_up() {
        let report = run_threaded(ThreadedConfig {
            num_events: 3_000,
            batch_size: 8,
            consumers: 2,
            work_per_event: 2_000, // demons much slower than ingest
            crash_after_events: None,
            ..ThreadedConfig::default()
        });
        assert!(report.max_staleness > 0, "slow demons must fall behind");
        for &p in &report.per_consumer_processed {
            assert_eq!(p, 3_000, "but they catch up to everything");
        }
    }

    #[test]
    fn crash_loses_only_the_inflight_batch() {
        let report = run_threaded(ThreadedConfig {
            num_events: 2_000,
            batch_size: 20,
            consumers: 2,
            work_per_event: 10,
            crash_after_events: Some(500),
            ..ThreadedConfig::default()
        });
        assert_eq!(report.demons_panicked, 0, "a crash is not a panic");
        assert!(
            report.events_lost_in_crash > 0,
            "the crash must cost something"
        );
        assert!(
            report.events_lost_in_crash <= 20,
            "…but at most one batch ({} lost)",
            report.events_lost_in_crash
        );
        // The crashed demon processed everything except the lost batch.
        assert_eq!(
            report.per_consumer_processed[0] + report.events_lost_in_crash,
            2_000
        );
        // The healthy demon was unaffected.
        assert_eq!(report.per_consumer_processed[1], 2_000);
    }
}
