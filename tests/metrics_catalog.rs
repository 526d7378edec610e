//! The metric catalog agrees with the served system, both ways: every name
//! the running system registers is a row of `docs/METRICS.md`, and every
//! row names something it registers. A `*` in a row stands for one or more
//! characters of a name built at run time (`store.version.staleness.
//! trail-demon`, `servlet.recall.latency`).
//!
//! The served system here is a `Memex` behind a `NetServer` that is
//! started, answers one request and is shut down, plus a `FaultyDir`
//! reporting into the same registry. Every subsystem registers its names
//! when it is built, so one request is enough to see them all.

use std::collections::BTreeSet;
use std::sync::Arc;

use memex::core::memex::{Memex, MemexOptions};
use memex::core::servlet::{Request, Response};
use memex::net::{ClientConfig, MemexClient, NetServer, NetServerConfig};
use memex::obs::Snapshot;
use memex::server::events::{ClientEvent, VisitEvent};
use memex::store::vfs::{FaultConfig, FaultyDir, MemDir};
use memex::web::corpus::{Corpus, CorpusConfig};

/// The first cell of every table row, when it is one backticked name.
fn catalog_rows(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.trim_start().strip_prefix('|')?.split('|').next())
        .filter_map(|cell| cell.trim().strip_prefix('`')?.strip_suffix('`'))
        .filter(|name| !name.is_empty())
        .map(str::to_string)
        .collect()
}

/// Does `row` name `metric`? Each `*` matches one or more characters.
fn row_matches(row: &str, metric: &str) -> bool {
    fn go(p: &[u8], n: &[u8]) -> bool {
        match p.split_first() {
            None => n.is_empty(),
            Some((b'*', rest)) => (1..=n.len()).any(|k| go(rest, &n[k..])),
            Some((c, rest)) => n.first() == Some(c) && go(rest, &n[1..]),
        }
    }
    go(row.as_bytes(), metric.as_bytes())
}

fn names(snap: &Snapshot) -> impl Iterator<Item = String> + '_ {
    let counters = snap.counters.iter().map(|(n, _)| n.clone());
    let gauges = snap.gauges.iter().map(|(n, _)| n.clone());
    let histograms = snap.histograms.iter().map(|(n, _)| n.clone());
    counters.chain(gauges).chain(histograms)
}

/// Every name the served system registers.
fn served_names() -> BTreeSet<String> {
    let corpus = Arc::new(Corpus::generate(CorpusConfig {
        num_topics: 2,
        pages_per_topic: 6,
        ..CorpusConfig::default()
    }));
    let memex = Memex::new(corpus.clone(), MemexOptions::default()).expect("memex");
    FaultyDir::new(MemDir::new(), FaultConfig::default())
        .control()
        .attach_registry(memex.registry());
    let server = NetServer::start(memex, "127.0.0.1:0", NetServerConfig::default()).expect("bind");
    let mut client =
        MemexClient::connect(server.local_addr(), ClientConfig::default()).expect("connect");
    let page = corpus.pages_of_topic(0)[0];
    let answer = client
        .request(&Request::Event(ClientEvent::Visit(VisitEvent {
            user: 1,
            session: 1,
            page,
            url: corpus.pages[page as usize].url.clone(),
            time: 1,
            referrer: None,
        })))
        .expect("answered");
    assert!(matches!(answer, Response::Ack { .. }), "{answer:?}");
    drop(client);
    let memex = server.shutdown();
    names(&memex.registry().snapshot()).collect()
}

#[test]
fn every_registered_metric_is_catalogued_and_every_row_is_registered() {
    let catalog = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/docs/METRICS.md"))
        .expect("docs/METRICS.md");
    let rows = catalog_rows(&catalog);
    assert!(rows.len() > 50, "parsed only {} rows", rows.len());
    let served = served_names();
    let uncatalogued: Vec<&String> = served
        .iter()
        .filter(|name| !rows.iter().any(|row| row_matches(row, name)))
        .collect();
    let unregistered: Vec<&String> = rows
        .iter()
        .filter(|row| !served.iter().any(|name| row_matches(row, name)))
        .collect();
    assert!(
        uncatalogued.is_empty() && unregistered.is_empty(),
        "registered but not a docs/METRICS.md row: {uncatalogued:?}\n\
         docs/METRICS.md rows nothing registers: {unregistered:?}"
    );
}

#[test]
fn rows_match_whole_names_and_stars_match_at_least_one_character() {
    let rows = catalog_rows(
        "| name | kind |\n|---|---|\n| `net.req.ok` | counter |\n  | `servlet.*.latency` | histogram |\n- `not.a.row`\n",
    );
    assert_eq!(rows, ["net.req.ok", "servlet.*.latency"]);
    assert!(row_matches("servlet.*.latency", "servlet.recall.latency"));
    assert!(!row_matches("servlet.*.latency", "servlet..latency"));
    assert!(!row_matches("servlet.*.latency", "servlet.recall.count"));
    assert!(!row_matches("net.req.ok", "net.req.ok2"));
}
