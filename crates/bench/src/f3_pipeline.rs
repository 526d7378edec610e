//! **F3 — Figure 3, the server block diagram:** UI events get guaranteed
//! immediate ingest while demons lag behind a loosely-consistent bus; the
//! server survives overload and crashes by "discard\[ing\] a few client
//! events".
//!
//! Four measurements:
//! 1. threaded pipeline throughput + peak staleness as demon work grows;
//! 2. crash injection: one demon dies mid-stream, loses ≤ one batch;
//! 3. bounded-bus overload on the real server: ingest keeps succeeding,
//!    discards are counted, survivors stay consistent across demons;
//! 4. flaky fetches: a 20%-transient fetcher behind the bounded retry
//!    policy — the demon retries, abandons the hopeless, never stalls.

use memex_server::events::{ClientEvent, VisitEvent};
use memex_server::fetcher::{CorpusFetcher, FlakyConfig, FlakyFetcher};
use memex_server::pipeline::{MemexServer, ServerOptions};
use memex_server::threaded::{run_threaded, ThreadedConfig};

use crate::table::Table;
use crate::worlds::standard_corpus;

/// The F3 table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "F3: pipeline throughput, staleness and recovery",
        &[
            "scenario",
            "events",
            "ingest rate (ev/s)",
            "peak staleness",
            "lost events",
        ],
    );
    let n = if quick { 5_000 } else { 50_000 };
    // 1. Demon work sweep: the producer is paced at a fixed arrival rate
    // (one 32-event batch every 100 us ≈ 320k ev/s offered); heavier demon
    // work shows up as staleness, never as ingest slowdown.
    for &work in &[0u32, 2_000, 20_000] {
        let r = run_threaded(ThreadedConfig {
            num_events: n,
            batch_size: 32,
            consumers: 3,
            work_per_event: work,
            crash_after_events: None,
            producer_pace_us: 100,
        });
        table.row(vec![
            format!("3 demons, work={work}"),
            n.to_string(),
            format!("{:.0}", r.ingest_events_per_sec),
            r.max_staleness.to_string(),
            "0".to_string(),
        ]);
        assert!(r.per_consumer_processed.iter().all(|&p| p == n));
    }
    // 2. Crash injection.
    let r = run_threaded(ThreadedConfig {
        num_events: n,
        batch_size: 32,
        consumers: 3,
        work_per_event: 2_000,
        crash_after_events: Some(n / 4),
        producer_pace_us: 100,
    });
    assert_eq!(r.demons_panicked, 0, "the injected crash is not a panic");
    table.row(vec![
        "crash one demon at 25%".to_string(),
        n.to_string(),
        format!("{:.0}", r.ingest_events_per_sec),
        r.max_staleness.to_string(),
        r.events_lost_in_crash.to_string(),
    ]);
    // 3. Bounded-bus overload on the real server: demons normally keep up,
    // then stall for 10% of the burst (an analysis spike / GC pause). The
    // bounded bus sheds exactly the stall overflow and service continues.
    let corpus = standard_corpus(true, 33);
    let mut server = MemexServer::new(
        CorpusFetcher::new(corpus.clone()),
        ServerOptions {
            max_retained_batches: 64,
            ..ServerOptions::default()
        },
    )
    .expect("server");
    server.register_user(1, "load").expect("user");
    let burst = if quick { 2_000 } else { 10_000 };
    let stall = (burst * 4 / 10)..(burst * 5 / 10);
    let start = std::time::Instant::now();
    for i in 0..burst {
        server.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 0,
            page: (i % corpus.num_pages()) as u32,
            url: String::new(),
            time: i as u64,
            referrer: None,
        }));
        if !stall.contains(&i) {
            server.run_trail_demon(2);
            let _ = server.run_index_demon(2);
        }
    }
    let elapsed = start.elapsed().as_secs_f64();
    server.drain_demons().expect("drain");
    let stats = server.stats();
    table.row(vec![
        "real server, demon stall, bus cap 64".to_string(),
        burst.to_string(),
        format!("{:.0}", burst as f64 / elapsed),
        "64 (cap)".to_string(),
        stats.events_discarded_overload.to_string(),
    ]);
    // 4. Fetch-failure injection: every fetch attempt fails transiently
    // 20% of the time (seeded, reproducible). The index demon retries with
    // bounded exponential backoff and abandons pages whose budget runs
    // out; the bus always drains.
    let mut server = MemexServer::new(
        FlakyFetcher::new(
            CorpusFetcher::new(corpus.clone()),
            FlakyConfig {
                seed: 33,
                transient_per_10k: 2_000,
                ..FlakyConfig::default()
            },
        ),
        ServerOptions::default(),
    )
    .expect("server");
    server.register_user(1, "flaky").expect("user");
    let visits = if quick { 500 } else { 2_000 };
    let start = std::time::Instant::now();
    for i in 0..visits {
        server.submit(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 0,
            page: (i % corpus.num_pages()) as u32,
            url: String::new(),
            time: i as u64,
            referrer: None,
        }));
    }
    server.drain_demons().expect("drain");
    let elapsed = start.elapsed().as_secs_f64();
    let stats = server.stats();
    assert_eq!(
        stats.pages_fetched + stats.pages_abandoned,
        corpus.num_pages().min(visits) as u64,
        "every page fetched or explicitly abandoned — the demon never stalls"
    );
    table.row(vec![
        format!(
            "20% flaky fetcher: {} retries, {} abandoned",
            stats.fetch_retries, stats.pages_abandoned
        ),
        visits.to_string(),
        format!("{:.0}", visits as f64 / elapsed),
        "0 (drained)".to_string(),
        stats.pages_abandoned.to_string(),
    ]);
    table.note("paper (§3): immediate UI handling, demons lag, recovery may discard a few events");
    table.note("survivor consistency: both demons processed the identical surviving stream");
    table.note("fetch faults: seeded transient failures; bounded retry, abandoned pages counted");
    table
}
