//! The traced run's second half: replay the plan's requests in process
//! with a span around each public call a request makes on its way through
//! the layers, then time each lower layer's public entry points on the
//! workload's own inputs. Everything here calls `pub` items only; spans
//! inside the program are a later change.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use memex_cluster::themes::{ThemeDiscovery, ThemeOptions, UserFolder};
use memex_core::memex::Memex;
use memex_core::servlet::{self, Classified, Request, Response};
use memex_index::search::{bm25_search, Bm25Params};
use memex_net::wire;
use memex_obs::MetricsRegistry;
use memex_server::events::ClientEvent;
use memex_text::analyze::Analyzer;
use memex_text::vocab::Vocabulary;

use crate::spans::Spans;
use crate::trial::same_answer;
use crate::workloads::{Plan, Workload};
use crate::world::World;

pub struct Replayed {
    pub spans: Spans,
    /// The `R` per-layer metrics.
    pub values: BTreeMap<String, f64>,
    /// Answers that differ from the oracle's: the decomposed write path
    /// below must stay equivalent to `servlet::dispatch`.
    pub mismatches: usize,
}

/// Inputs of the lower-layer timings are capped so the traced run stays
/// inside the time budget on every workload.
const LAYER_INPUTS: usize = 200;
const HISTOGRAM_RECORDS: u32 = 100_000;
const THEME_REBUILDS: usize = 3;

fn servlet_span(request: &Request) -> &'static str {
    match request {
        Request::Recall { .. } => "core.servlet.recall",
        Request::TrailReplay { .. } => "core.servlet.trail_replay",
        Request::WhatsNew { .. } => "core.servlet.whats_new",
        Request::Bill { .. } => "core.servlet.bill",
        Request::SimilarSurfers { .. } => "core.servlet.similar_surfers",
        Request::Recommend { .. } => "core.servlet.recommend",
        _ => "core.servlet.other",
    }
}

/// `dispatch_write` taken apart: apply → trail demon → index demon →
/// refresh (index commit, and the theme rebuild after a bookmark) →
/// `run_demons` (bookmark filing and the classification demon; its own
/// demon drain and refresh find nothing left to do). Every other write
/// enters through `MemexServer::submit` directly so both entry points are
/// timed; they archive identically.
fn replay_write(memex: &mut Memex, request: &Request, nth: usize, spans: &mut Spans) -> Response {
    let is_bookmark = matches!(request, Request::Event(ClientEvent::Bookmark { .. }));
    spans.enter("core.write");
    let verdict = match request {
        Request::Event(event) if nth % 2 == 1 => spans.time("server.submit", || Response::Ack {
            archived: memex.server.submit(event.clone()),
        }),
        _ => match request.clone().classify() {
            Classified::Write(w) => {
                spans.time("core.write.apply", || servlet::apply_write(memex, &w))
            }
            Classified::Read(_) => unreachable!("replay_write is given writes"),
        },
    };
    spans.time("server.trail_demon", || {
        memex.server.run_trail_demon(usize::MAX)
    });
    let indexed = spans.time("server.index_demon", || {
        memex.server.run_index_demon(usize::MAX)
    });
    let refresh = if is_bookmark {
        "core.write.refresh_bookmark"
    } else {
        "core.write.refresh"
    };
    let refreshed = spans.time(refresh, || memex.refresh());
    let swept = spans.time("core.write.run_demons", || memex.run_demons());
    spans.exit();
    match indexed.and(refreshed).and(swept) {
        Ok(()) => verdict,
        Err(e) => Response::Error(e.to_string()),
    }
}

pub fn run(world: &World, plan: &Plan, origin: Instant) -> Replayed {
    let mut spans = Spans::new(origin);
    let mut memex = world.memex(plan.prefill);
    let mut mismatches = 0usize;
    let mut writes = 0usize;
    let mut first_visited: Vec<u32> = Vec::new();
    let mut id = 0usize;
    for stream in &plan.streams {
        for (i, request) in stream.pool.iter().enumerate() {
            spans.set_request(id);
            id += 1;
            spans.enter("replay.request");
            let payload = spans.time("net.wire.encode_request", || wire::encode_request(request));
            let decoded = spans
                .time("net.wire.decode_request", || wire::decode_request(&payload))
                .expect("a request this crate encoded");
            let response = match decoded.clone().classify() {
                Classified::Read(r) => {
                    spans.time(servlet_span(&decoded), || servlet::dispatch_read(&memex, r))
                }
                Classified::Write(_) => {
                    if let Request::Event(ClientEvent::Visit(v)) = &decoded {
                        if memex.server.tf(v.page).is_none() {
                            first_visited.push(v.page);
                        }
                    }
                    writes += 1;
                    replay_write(&mut memex, &decoded, writes, &mut spans)
                }
            };
            let bytes = spans.time("net.wire.encode_response", || {
                wire::encode_response(&response)
            });
            let round_tripped =
                spans.time("net.wire.decode_response", || wire::decode_response(&bytes));
            spans.exit();
            let faithful = round_tripped.is_ok_and(|r| r == response)
                && stream
                    .expected
                    .get(i)
                    .is_none_or(|e| same_answer(&response, e));
            if !faithful {
                mismatches += 1;
            }
        }
    }

    let theme_docs = time_lower_layers(world, plan, &memex, &first_visited, &mut spans);

    let rollup = spans.rollup();
    let mean = |name: &str| rollup.get(name).copied().unwrap_or_default();
    let mut values = BTreeMap::new();
    let mut set = |name: &str, v: f64| {
        values.insert(name.to_string(), v);
    };
    for step in [
        "encode_request",
        "decode_request",
        "encode_response",
        "decode_response",
    ] {
        set(
            &format!("net.wire.{step}_ns"),
            mean(&format!("net.wire.{step}")).mean_ns(),
        );
    }
    for (metric, span) in [
        ("core.write.apply_us", "core.write.apply"),
        ("core.write.run_demons_us", "core.write.run_demons"),
        ("core.write.refresh_us", "core.write.refresh"),
        (
            "core.write.refresh_bookmark_us",
            "core.write.refresh_bookmark",
        ),
        ("server.submit_us", "server.submit"),
        ("server.trail_demon_us", "server.trail_demon"),
        ("server.index_demon_us", "server.index_demon"),
        ("index.bm25_us", "index.bm25"),
        ("text.index_document_us", "text.index_document"),
        ("text.snippet_us", "text.snippet"),
        ("graph.user_pages_us", "graph.user_pages"),
        ("learn.topic_filter_build_us", "learn.topic_filter_build"),
        ("learn.classify_us", "learn.classify"),
        ("cluster.theme_rebuild_us", "cluster.theme_rebuild"),
    ] {
        set(metric, mean(span).mean_us());
    }
    set(
        "obs.histogram_record_ns",
        mean("obs.histogram_record").mean_ns() / f64::from(HISTOGRAM_RECORDS),
    );
    set("cluster.theme_docs", theme_docs as f64);
    Replayed {
        spans,
        values,
        mismatches,
    }
}

/// Time text, index, graph, learn, cluster and obs entry points on what
/// this workload's requests made them do. Returns the theme document
/// count.
fn time_lower_layers(
    world: &World,
    plan: &Plan,
    memex: &Memex,
    first_visited: &[u32],
    spans: &mut Spans,
) -> usize {
    let requests = || plan.streams.iter().flat_map(|s| &s.pool);
    let analyzer = Analyzer::default();

    // memex-index and memex-text: the recall path below the servlet.
    let recalls = requests().filter_map(|r| match r {
        Request::Recall { query, k, .. } => Some((query, *k)),
        _ => None,
    });
    spans.enter("layers.recall");
    for (query, k) in recalls.take(LAYER_INPUTS) {
        let terms: Vec<(u32, u32)> = analyzer
            .counts(query)
            .iter()
            .filter_map(|(t, &c)| memex.server.vocab.id(t).map(|id| (id, c)))
            .collect();
        let hits = spans.time("index.bm25", || {
            bm25_search(&memex.server.index, &terms, k * 20, Bm25Params::default())
        });
        if let Some(top) = hits.ok().and_then(|h| h.first().map(|h| h.doc)) {
            let text = &world.corpus.pages[top as usize].text;
            spans.time("text.snippet", || {
                black_box(memex_text::snippet::snippet(text, query, 12))
            });
        }
    }
    spans.exit();

    spans.enter("layers.first_visit");
    let mut scratch = Vocabulary::new();
    for &page in first_visited.iter().take(LAYER_INPUTS) {
        let p = &world.corpus.pages[page as usize];
        let full = format!("{} {}", p.title, p.text);
        spans.time("text.index_document", || {
            black_box(analyzer.index_document(&mut scratch, &full))
        });
    }
    spans.exit();

    // memex-graph and memex-learn: what bill, trail replay, what's-new and
    // the classification demon do per user.
    let users: BTreeSet<u32> = requests().filter_map(Request::shard_key).collect();
    spans.enter("layers.per_user");
    for &user in &users {
        let pages = spans.time("graph.user_pages", || {
            memex.server.trails.user_pages(user, 0)
        });
        let filter = spans.time("learn.topic_filter_build", || memex.topic_filter(user));
        for tf in pages.iter().filter_map(|&p| memex.server.tf(p)).take(50) {
            spans.time("learn.classify", || black_box(filter.classify(tf)));
        }
    }
    spans.exit();

    // memex-cluster: theme discovery over the final bookmark set, given
    // the inputs `Memex::refresh` gives it.
    let mut doc_pages: Vec<u32> = Vec::new();
    let mut doc_of_page: HashMap<u32, usize> = HashMap::new();
    let mut by_folder: BTreeMap<(u32, String), Vec<usize>> = BTreeMap::new();
    for b in &memex.server.bookmarks {
        let doc = *doc_of_page.entry(b.page).or_insert_with(|| {
            doc_pages.push(b.page);
            doc_pages.len() - 1
        });
        by_folder
            .entry((b.user, b.folder.clone()))
            .or_default()
            .push(doc);
    }
    let docs: Vec<_> = doc_pages
        .iter()
        .map(|&p| memex.page_vector(p).unwrap_or_default())
        .collect();
    let folders: Vec<UserFolder> = by_folder
        .into_iter()
        .map(|((user, name), mut docs)| {
            docs.sort_unstable();
            docs.dedup();
            UserFolder { user, name, docs }
        })
        .collect();
    spans.enter("layers.themes");
    for _ in 0..THEME_REBUILDS {
        spans.time("cluster.theme_rebuild", || {
            black_box(ThemeDiscovery::new(ThemeOptions::default()).run(&docs, &folders))
        });
    }
    spans.exit();

    // memex-obs: the record path every request pays several times.
    let histogram = MetricsRegistry::new().histogram("bench.record");
    spans.time("obs.histogram_record", || {
        for v in 0..HISTOGRAM_RECORDS {
            histogram.record(black_box(u64::from(v)));
        }
    });
    docs.len()
}

/// Largest number of spans per recorder written to the Chrome trace; the
/// layer tables always cover every span.
const TRACE_SPANS_PER_THREAD: usize = 40_000;

/// `trace-<workload>.json` (Chrome trace) and `layers-<workload>.txt`.
/// `recorders` are the wire run's connections, then the replay.
pub fn write_trace(
    dir: &Path,
    workload: Workload,
    plan: &Plan,
    recorders: &[Spans],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let mut events = Vec::new();
    let mut table = String::new();
    let mut left_out = 0usize;
    for (tid, spans) in recorders.iter().enumerate() {
        let title = match plan.streams.get(tid) {
            Some(stream) => format!("wire run, client side of connection '{}'", stream.name),
            None => "in-process replay".to_string(),
        };
        events.push(format!(
            "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
             \"args\":{{\"name\":\"{title}\"}}}}"
        ));
        left_out += spans.chrome_events(tid as u32, TRACE_SPANS_PER_THREAD, &mut events);
        table.push_str(&spans.layer_table(&title));
        table.push('\n');
    }
    if left_out > 0 {
        table.push_str(&format!(
            "(trace-{}.json holds the first {TRACE_SPANS_PER_THREAD} spans of each thread; \
             {left_out} later spans are in the tables only)\n",
            workload.name()
        ));
    }
    let name = workload.name();
    std::fs::write(
        dir.join(format!("trace-{name}.json")),
        format!("{{\"traceEvents\":[\n{}\n]}}\n", events.join(",\n")),
    )?;
    std::fs::write(dir.join(format!("layers-{name}.txt")), table)
}
