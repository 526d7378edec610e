//! **N1 — memex-net load generator:** the servlet vocabulary served over a
//! live loopback TCP socket by `memex_net::NetServer`, driven by N
//! concurrent `MemexClient` threads through a mixed mining workload.
//!
//! Scenarios:
//!
//! 1. **throughput** — default admission limits; reports sustained
//!    requests/second and p50/p95/p99 request latency read from the
//!    server's own `net.req.latency` obs histogram (fetched over the wire
//!    via `Request::Stats`, like any remote operator would).
//! 2. **overload** — in-flight limit forced to 1 against a burst of
//!    clients: the server must shed with explicit `Response::Overloaded`
//!    frames (`net.shed` > 0) instead of queueing without bound, and still
//!    shut down cleanly.
//! 3. **read-scale/N** — a pure-read workload of all-distinct requests
//!    with the result cache disabled, at 1/2/4 workers (clients =
//!    workers): aggregate read throughput must grow with workers because
//!    readers share the `RwLock` instead of serialising on a global
//!    mutex. The ≥2x @ 4-workers check only asserts when the host
//!    actually has ≥4 cores.

use std::time::Instant;

use memex_core::memex::Memex;
use memex_core::servlet::{Request, Response};
use memex_net::{ClientConfig, MemexClient, NetServer, NetServerConfig};
use memex_obs::HistogramSnapshot;

use crate::table::Table;
use crate::worlds::standard_world;

/// One client thread's mixed servlet workload: the mining queries of the
/// paper's §1 questions, round-robined.
fn workload(user: u32, rounds: usize) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(rounds * 6);
    for _ in 0..rounds {
        reqs.push(Request::Recall {
            user,
            query: "page".into(),
            since: 0,
            until: u64::MAX,
            k: 5,
        });
        reqs.push(Request::TrailReplay {
            user,
            folder: 1,
            since: 0,
            max_pages: 10,
        });
        reqs.push(Request::WhatsNew {
            user,
            folder: 1,
            since: 0,
            k: 5,
        });
        reqs.push(Request::Bill {
            user,
            since: 0,
            until: u64::MAX,
        });
        reqs.push(Request::SimilarSurfers { user, k: 3 });
        reqs.push(Request::Recommend { user, k: 3 });
    }
    reqs
}

/// A pure-read workload whose requests are pairwise distinct across every
/// client and round (the `salt` folds the client index into the time
/// bounds), so even with the result cache enabled nothing would hit — the
/// scenario measures lock parallelism, not caching.
fn read_workload(user: u32, rounds: usize, salt: u64) -> Vec<Request> {
    let mut reqs = Vec::with_capacity(rounds * 3);
    for r in 0..rounds {
        let since = salt * 100_000 + r as u64;
        reqs.push(Request::Recall {
            user,
            query: "page".into(),
            since,
            until: u64::MAX,
            k: 5,
        });
        reqs.push(Request::Bill {
            user,
            since,
            until: u64::MAX,
        });
        reqs.push(Request::WhatsNew {
            user,
            folder: 1,
            since,
            k: 5,
        });
    }
    reqs
}

/// A pure-write workload for one client: fresh `Visit` events for `user`,
/// pages cycling through `topic`'s corpus slice, times salted so every
/// event across every client and run is distinct.
fn write_workload(
    corpus: &memex_web::corpus::Corpus,
    user: u32,
    rounds: usize,
    salt: u64,
) -> Vec<Request> {
    let pages = corpus.pages_of_topic(user as usize % 4);
    let mut reqs = Vec::with_capacity(rounds);
    let mut prev = None;
    for r in 0..rounds {
        let page = pages[r % pages.len()];
        reqs.push(Request::Event(memex_server::events::ClientEvent::Visit(
            memex_server::events::VisitEvent {
                user,
                session: user,
                page,
                url: corpus.pages[page as usize].url.clone(),
                time: 1_000_000 + salt * 100_000 + r as u64,
                referrer: prev,
            },
        )));
        prev = Some(page);
    }
    reqs
}

struct DriveResult {
    ok: u64,
    shed: u64,
    errors: u64,
    wall_ms: f64,
}

/// Drive one client thread per workload against `addr`, each sending its
/// requests back-to-back. Overloaded responses count as shed, not ok.
fn drive(addr: std::net::SocketAddr, workloads: Vec<Vec<Request>>) -> DriveResult {
    let start = Instant::now();
    let handles: Vec<_> = workloads
        .into_iter()
        .map(|reqs| {
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut shed = 0u64;
                let mut errors = 0u64;
                let mut client = match MemexClient::connect(addr, ClientConfig::default()) {
                    Ok(c) => c,
                    Err(_) => return (0, 0, 1),
                };
                for req in reqs {
                    match client.request(&req) {
                        Ok(Response::Overloaded { .. }) => shed += 1,
                        Ok(Response::Error(_)) => errors += 1,
                        Ok(_) => ok += 1,
                        Err(_) => errors += 1,
                    }
                }
                (ok, shed, errors)
            })
        })
        .collect();
    let mut totals = (0u64, 0u64, 0u64);
    for h in handles {
        let (ok, shed, errors) = h.join().expect("client thread");
        totals.0 += ok;
        totals.1 += shed;
        totals.2 += errors;
    }
    DriveResult {
        ok: totals.0,
        shed: totals.1,
        errors: totals.2,
        wall_ms: start.elapsed().as_secs_f64() * 1e3,
    }
}

fn percentile_us(h: &HistogramSnapshot, q: f64) -> f64 {
    h.percentile(q) as f64 / 1_000.0
}

/// Per-scenario numbers kept for both the table row and the machine-
/// readable `BENCH_PR6.json` artifact.
struct ScenarioStats {
    name: String,
    clients: usize,
    sent: u64,
    ok: u64,
    shed: u64,
    errors: u64,
    wall_ms: f64,
    reqs_per_sec: f64,
    /// `net.req.latency` percentiles in microseconds (None when the stats
    /// fetch itself was shed, e.g. under induced overload).
    latency_us: Option<(f64, f64, f64)>,
}

/// Fetch the server's latency histogram over the wire, the way an external
/// operator would.
fn remote_latency(addr: std::net::SocketAddr) -> Option<HistogramSnapshot> {
    let mut client = MemexClient::connect(addr, ClientConfig::default()).ok()?;
    match client.request(&Request::Stats).ok()? {
        Response::Stats(snap) => snap.histogram("net.req.latency").cloned(),
        _ => None,
    }
}

fn scenario(
    table: &mut Table,
    stats: &mut Vec<ScenarioStats>,
    name: &str,
    memex: Memex,
    config: NetServerConfig,
    workloads: Vec<Vec<Request>>,
) -> (Memex, u64, f64) {
    let clients = workloads.len();
    // The registry outlives individual servers; report this scenario's
    // shed as a delta.
    let shed_before = memex.registry().snapshot().counter("net.shed");
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();
    let result = drive(addr, workloads);
    let latency = remote_latency(addr);
    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    let shed = snap.counter("net.shed") - shed_before;
    let sent = result.ok + result.shed + result.errors;
    let latency_us = latency.as_ref().map(|h| {
        (
            percentile_us(h, 0.50),
            percentile_us(h, 0.95),
            percentile_us(h, 0.99),
        )
    });
    let (p50, p95, p99) = match latency_us {
        Some((p50, p95, p99)) => (
            format!("{p50:.0}"),
            format!("{p95:.0}"),
            format!("{p99:.0}"),
        ),
        None => ("-".into(), "-".into(), "-".into()),
    };
    let reqs_per_sec = result.ok as f64 / (result.wall_ms / 1e3);
    table.row(vec![
        name.to_string(),
        clients.to_string(),
        sent.to_string(),
        result.ok.to_string(),
        shed.to_string(),
        result.errors.to_string(),
        format!("{:.0}", result.wall_ms),
        format!("{reqs_per_sec:.0}"),
        p50,
        p95,
        p99,
    ]);
    stats.push(ScenarioStats {
        name: name.to_string(),
        clients,
        sent,
        ok: result.ok,
        shed,
        errors: result.errors,
        wall_ms: result.wall_ms,
        reqs_per_sec,
        latency_us,
    });
    (memex, shed, reqs_per_sec)
}

/// The `ingest-while-scan` row: sustained write throughput with a
/// concurrent long snapshot scan. Shared with the N2 bench, which reruns
/// the scenario at 10x the ingest volume.
pub(crate) struct IngestScanStats {
    pub(crate) write_clients: usize,
    pub(crate) writes_ok: u64,
    pub(crate) write_reqs_per_sec: f64,
    pub(crate) scans_ok: u64,
    pub(crate) scan_latency_us: Option<(f64, f64, f64)>,
    pub(crate) wall_ms: f64,
    pub(crate) lsm_seals: u64,
    pub(crate) lsm_compactions: u64,
}

/// PR 8 scenario: writers ingest fresh visits while one reader loops
/// long `Recall` scans against the same server. Reports sustained write
/// throughput and the scan latency tail from the server's own
/// `servlet.recall.latency` histogram — the number the store's snapshot
/// claim rests on: scans must not stall while the memtable seals and the
/// compactor churns underneath them.
pub(crate) fn ingest_while_scan(
    table: &mut Table,
    corpus: &std::sync::Arc<memex_web::corpus::Corpus>,
    community: &memex_web::surfer::Community,
    users: &[u32],
    write_rounds: usize,
    scan_rounds: usize,
) -> IngestScanStats {
    let memex = crate::worlds::populated_memex(corpus.clone(), community);
    let write_clients = 2usize;
    let config = NetServerConfig {
        workers: write_clients + 1,
        ..NetServerConfig::default()
    };
    let server = NetServer::start(memex, "127.0.0.1:0", config).expect("bind loopback");
    let addr = server.local_addr();

    let start = Instant::now();
    let writers: Vec<_> = (0..write_clients)
        .map(|i| {
            let reqs = write_workload(corpus, users[i % users.len()], write_rounds, 77 + i as u64);
            std::thread::spawn(move || {
                let mut ok = 0u64;
                let mut client = match MemexClient::connect(addr, ClientConfig::default()) {
                    Ok(c) => c,
                    Err(_) => return 0,
                };
                for req in reqs {
                    match client.request(&req) {
                        Ok(Response::Overloaded { .. }) | Ok(Response::Error(_)) | Err(_) => {}
                        Ok(_) => ok += 1,
                    }
                }
                ok
            })
        })
        .collect();
    // The long scan: full-corpus recalls for a topic-name term (so the
    // query actually matches and ranks pages), k far past the budget.
    let scan_user = users[0];
    let scan_query = corpus.topic_names[0].clone();
    let scanner = std::thread::spawn(move || {
        let mut ok = 0u64;
        let mut client = match MemexClient::connect(addr, ClientConfig::default()) {
            Ok(c) => c,
            Err(_) => return 0,
        };
        for r in 0..scan_rounds {
            let req = Request::Recall {
                user: scan_user,
                query: scan_query.clone(),
                since: r as u64,
                until: u64::MAX,
                k: 50,
            };
            if matches!(client.request(&req), Ok(Response::Recall { .. })) {
                ok += 1;
            }
        }
        ok
    });
    let writes_ok: u64 = writers.into_iter().map(|h| h.join().expect("writer")).sum();
    let scans_ok = scanner.join().expect("scanner");
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;

    let memex = server.shutdown();
    let snap = memex.registry().snapshot();
    let scan_latency_us = snap.histogram("servlet.recall.latency").map(|h| {
        (
            percentile_us(h, 0.50),
            percentile_us(h, 0.95),
            percentile_us(h, 0.99),
        )
    });
    let write_reqs_per_sec = writes_ok as f64 / (wall_ms / 1e3).max(f64::MIN_POSITIVE);
    let (p50, p95, p99) = match scan_latency_us {
        Some((p50, p95, p99)) => (
            format!("{p50:.0}"),
            format!("{p95:.0}"),
            format!("{p99:.0}"),
        ),
        None => ("-".into(), "-".into(), "-".into()),
    };
    table.row(vec![
        "ingest-while-scan".to_string(),
        (write_clients + 1).to_string(),
        (write_clients * write_rounds + scan_rounds).to_string(),
        (writes_ok + scans_ok).to_string(),
        "0".into(),
        ((write_clients * write_rounds) as u64 - writes_ok + scan_rounds as u64 - scans_ok)
            .to_string(),
        format!("{wall_ms:.0}"),
        format!("{write_reqs_per_sec:.0}"),
        p50,
        p95,
        p99,
    ]);
    IngestScanStats {
        write_clients,
        writes_ok,
        write_reqs_per_sec,
        scans_ok,
        scan_latency_us,
        wall_ms,
        lsm_seals: snap.counter("store.lsm.seals"),
        lsm_compactions: snap.counter("store.lsm.compactions"),
    }
}

/// One ingest-while-scan row as a JSON object (hand-rolled; no serde in
/// the workspace). Shared by the PR 8 and PR 10 artifacts.
pub(crate) fn ingest_scan_json(r: &IngestScanStats) -> String {
    let (p50, p95, p99) = match r.scan_latency_us {
        Some((p50, p95, p99)) => (
            format!("{p50:.1}"),
            format!("{p95:.1}"),
            format!("{p99:.1}"),
        ),
        None => ("null".into(), "null".into(), "null".into()),
    };
    format!(
        "{{\"write_clients\": {}, \"writes_ok\": {}, \"write_reqs_per_sec\": {:.1}, \
         \"scans_ok\": {}, \"scan_p50_us\": {p50}, \"scan_p95_us\": {p95}, \
         \"scan_p99_us\": {p99}, \"wall_ms\": {:.1}, \"lsm_seals\": {}, \
         \"lsm_compactions\": {}}}",
        r.write_clients,
        r.writes_ok,
        r.write_reqs_per_sec,
        r.scans_ok,
        r.wall_ms,
        r.lsm_seals,
        r.lsm_compactions,
    )
}

/// Serialise the ingest-while-scan row into the `BENCH_PR8.json` artifact.
fn write_pr8_artifact(path: &str, quick: bool, row: &IngestScanStats) {
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"N1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"ingest_while_scan\": [\n");
    out.push_str(&format!("    {}\n", ingest_scan_json(row)));
    out.push_str("  ]\n}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// Run-level summaries that accompany the per-scenario rows in the
/// artifact.
struct ArtifactSummary<'a> {
    quick: bool,
    read_rates: [f64; 3],
    read_ratio: f64,
    cores: usize,
    lock_wait: Option<&'a HistogramSnapshot>,
    trace_off_rate: f64,
    trace_on_rate: f64,
}

/// Serialise the run into the committed `BENCH_PR7.json` artifact:
/// per-scenario throughput and latency percentiles, the read-scaling
/// ratio, a `net.lock.wait` summary, and the tracing-off/on throughput
/// ratio. Hand-rolled JSON — the workspace has no serde.
fn write_artifact(path: &str, stats: &[ScenarioStats], summary: &ArtifactSummary<'_>) {
    let &ArtifactSummary {
        quick,
        read_rates,
        read_ratio,
        cores,
        lock_wait,
        trace_off_rate,
        trace_on_rate,
    } = summary;
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"N1\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"scenarios\": [\n");
    for (i, s) in stats.iter().enumerate() {
        let (p50, p95, p99) = match s.latency_us {
            Some((p50, p95, p99)) => (
                format!("{p50:.1}"),
                format!("{p95:.1}"),
                format!("{p99:.1}"),
            ),
            None => ("null".into(), "null".into(), "null".into()),
        };
        out.push_str(&format!(
            "    {{\"name\": \"{}\", \"clients\": {}, \"sent\": {}, \"ok\": {}, \
             \"shed\": {}, \"errors\": {}, \"wall_ms\": {:.1}, \"reqs_per_sec\": {:.1}, \
             \"p50_us\": {p50}, \"p95_us\": {p95}, \"p99_us\": {p99}}}{}\n",
            s.name,
            s.clients,
            s.sent,
            s.ok,
            s.shed,
            s.errors,
            s.wall_ms,
            s.reqs_per_sec,
            if i + 1 == stats.len() { "" } else { "," },
        ));
    }
    out.push_str("  ],\n");
    out.push_str(&format!(
        "  \"read_scale\": {{\"workers\": [1, 2, 4], \"reqs_per_sec\": [{:.1}, {:.1}, {:.1}], \
         \"ratio_4w_over_1w\": {:.2}, \"cores\": {}}},\n",
        read_rates[0], read_rates[1], read_rates[2], read_ratio, cores,
    ));
    match lock_wait {
        Some(h) => out.push_str(&format!(
            "  \"lock_wait\": {{\"count\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \
             \"p99_ns\": {}, \"max_ns\": {}}},\n",
            h.count,
            h.percentile(0.50),
            h.percentile(0.95),
            h.percentile(0.99),
            h.percentile(1.0),
        )),
        None => out.push_str("  \"lock_wait\": null,\n"),
    }
    out.push_str(&format!(
        "  \"trace_overhead\": {{\"off_reqs_per_sec\": {:.1}, \"on_reqs_per_sec\": {:.1}, \
         \"on_over_off\": {:.3}}}\n",
        trace_off_rate,
        trace_on_rate,
        trace_on_rate / trace_off_rate.max(f64::MIN_POSITIVE),
    ));
    out.push_str("}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// The N1 table.
pub fn run(quick: bool) -> Table {
    // The network layer's cost is framing + locking, not corpus size: the
    // quick world keeps the focus on the serving path.
    let (_corpus, community, memex) = standard_world(true, 0x9E7);
    let users: Vec<u32> = community.users.iter().map(|u| u.user).collect();
    let mut table = Table::new(
        "N1 — memex-net: concurrent TCP serving (loopback)",
        &[
            "scenario", "clients", "sent", "ok", "shed", "errors", "wall_ms", "req/s", "p50_us",
            "p95_us", "p99_us",
        ],
    );
    let clients = if quick { 4 } else { 8 };
    let rounds = if quick { 10 } else { 50 };
    let mixed = |clients: usize, rounds: usize| -> Vec<Vec<Request>> {
        (0..clients)
            .map(|i| workload(users[i % users.len()], rounds))
            .collect()
    };
    let mut stats: Vec<ScenarioStats> = Vec::new();

    // Scenario 1: sustained mixed workload under default admission limits.
    let (memex, _, _) = scenario(
        &mut table,
        &mut stats,
        "throughput",
        memex,
        NetServerConfig::default(),
        mixed(clients, rounds),
    );

    // Scenario 2: induced overload — in-flight limit 1, burst of clients.
    // The shed column must be non-zero: explicit overload frames, not
    // unbounded queueing.
    let overload_cfg = NetServerConfig {
        max_in_flight: 1,
        ..NetServerConfig::default()
    };
    let (memex, shed, _) = scenario(
        &mut table,
        &mut stats,
        "overload",
        memex,
        overload_cfg,
        mixed(clients.max(4) * 2, rounds),
    );
    assert!(
        shed > 0,
        "overload scenario must shed (net.shed delta was 0)"
    );

    // Scenario 3: read scaling. All-distinct read requests with the result
    // cache disabled, clients = workers, same warm corpus each step: the
    // only variable is how many readers the lock lets run at once.
    let read_rounds = if quick { 15 } else { 60 };
    let mut memex = memex;
    let mut rate_at = [0f64; 3];
    for (step, &workers) in [1usize, 2, 4].iter().enumerate() {
        let config = NetServerConfig {
            workers,
            read_cache: 0,
            ..NetServerConfig::default()
        };
        let reads = (0..workers)
            .map(|i| read_workload(users[i % users.len()], read_rounds, i as u64))
            .collect();
        let (back, _, rate) = scenario(
            &mut table,
            &mut stats,
            &format!("read-scale/{workers}"),
            memex,
            config,
            reads,
        );
        memex = back;
        rate_at[step] = rate;
    }
    let ratio = rate_at[2] / rate_at[0].max(f64::MIN_POSITIVE);
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    // Scenario 4: tracing cost. The same mixed workload with the flight
    // recorder disabled and then enabled — the off/on throughput ratio is
    // the number PR 6's "tracing off stays cheap" claim rests on.
    let mut trace_rates = [0f64; 2];
    for (step, enabled) in [false, true].into_iter().enumerate() {
        let config = NetServerConfig {
            trace: memex_obs::TraceConfig {
                enabled,
                ..memex_obs::TraceConfig::default()
            },
            ..NetServerConfig::default()
        };
        let label = if enabled { "trace-on" } else { "trace-off" };
        let (back, _, rate) = scenario(
            &mut table,
            &mut stats,
            label,
            memex,
            config,
            mixed(clients, rounds),
        );
        memex = back;
        trace_rates[step] = rate;
    }

    // Scenario 5: ingest-while-scan on a fresh archive.
    let iws_write_rounds = if quick { 120 } else { 400 };
    let iws_scan_rounds = if quick { 40 } else { 150 };
    let iws_row = ingest_while_scan(
        &mut table,
        &_corpus,
        &community,
        &users,
        iws_write_rounds,
        iws_scan_rounds,
    );
    let pr8_path =
        std::env::var("MEMEX_BENCH_PR8_PATH").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    write_pr8_artifact(&pr8_path, quick, &iws_row);

    let lock_wait = memex
        .registry()
        .snapshot()
        .histogram("net.lock.wait")
        .cloned();
    let artifact_path =
        std::env::var("MEMEX_BENCH_PR7_PATH").unwrap_or_else(|_| "BENCH_PR7.json".to_string());
    write_artifact(
        &artifact_path,
        &stats,
        &ArtifactSummary {
            quick,
            read_rates: rate_at,
            read_ratio: ratio,
            cores,
            lock_wait: lock_wait.as_ref(),
            trace_off_rate: trace_rates[0],
            trace_on_rate: trace_rates[1],
        },
    );
    table.note("latency percentiles read from the server's net.req.latency obs histogram, fetched over the wire via Request::Stats");
    table.note(&format!(
        "trace-off/on: same mixed workload, flight recorder disabled vs enabled; on/off throughput ratio {:.3}",
        trace_rates[1] / trace_rates[0].max(f64::MIN_POSITIVE)
    ));
    table.note(&format!(
        "machine-readable artifact written to {artifact_path}"
    ));
    table.note(&format!(
        "ingest-while-scan: req/s column is sustained write throughput, latency columns are the \
         concurrent reader's servlet.recall.latency tail; artifact {pr8_path}"
    ));
    table.note(&format!(
        "overload scenario (in-flight limit 1) shed {shed} requests explicitly; clean shutdown all scenarios"
    ));
    table.note(&format!(
        "read-scale: cache disabled, all-distinct requests; 4-worker/1-worker throughput ratio {ratio:.2}x on {cores} core(s)"
    ));
    if cores >= 4 {
        assert!(
            ratio >= 2.0,
            "read throughput must at least double at 4 workers vs 1 \
             (got {ratio:.2}x on {cores} cores) — readers are serialising"
        );
    } else {
        table.note(&format!(
            "read-scale >=2x assertion skipped: host has {cores} core(s), readers cannot run in parallel"
        ));
    }
    table
}
