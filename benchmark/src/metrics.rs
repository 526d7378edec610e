//! The metric names this benchmark reports, in `BENCHMARK.json` order. A
//! unit test keeps the two in step.

use crate::stats::Better;
use crate::workloads::Class;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which it may get worse.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
];

pub const SERVLETS: [&str; 7] = [
    "event",
    "recall",
    "trail_replay",
    "whats_new",
    "bill",
    "similar_surfers",
    "recommend",
];

/// Per-layer metrics that are not generated per class, servlet or
/// end-to-end metric: `(name, unit, better)`.
const PER_LAYER_FIXED: [(&str, &str, Better); 47] = [
    ("net.client.encode_us", "us", Better::Lower),
    ("net.client.write_us", "us", Better::Lower),
    ("net.client.await_us", "us", Better::Lower),
    ("net.client.decode_us", "us", Better::Lower),
    ("net.wire.encode_request_ns", "ns", Better::Lower),
    ("net.wire.decode_request_ns", "ns", Better::Lower),
    ("net.wire.encode_response_ns", "ns", Better::Lower),
    ("net.wire.decode_response_ns", "ns", Better::Lower),
    ("net.server.req_mean_us", "us", Better::Lower),
    ("net.transport_mean_us", "us", Better::Lower),
    ("net.lock.wait_mean_us", "us", Better::Lower),
    ("net.lock.wait_total_ms", "ms", Better::Lower),
    ("net.cache.stale_purged", "count", Better::Lower),
    ("net.cache.hit_ratio", "ratio", Better::Higher),
    ("net.shed", "count", Better::Lower),
    ("core.write.apply_us", "us", Better::Lower),
    ("core.write.run_demons_us", "us", Better::Lower),
    ("core.write.refresh_us", "us", Better::Lower),
    ("core.write.refresh_bookmark_us", "us", Better::Lower),
    ("server.submit_us", "us", Better::Lower),
    ("server.trail_demon_us", "us", Better::Lower),
    ("server.index_demon_us", "us", Better::Lower),
    ("server.fetch.pages", "count", Better::Lower),
    ("server.index.docs", "count", Better::Lower),
    ("server.fetch.mean_us", "us", Better::Lower),
    ("index.commit.mean_us", "us", Better::Lower),
    ("index.commits", "count", Better::Lower),
    ("index.postings_flushed", "count", Better::Lower),
    ("index.query.mean_us", "us", Better::Lower),
    ("index.bm25_us", "us", Better::Lower),
    ("store.kv.puts", "count", Better::Lower),
    ("store.kv.gets", "count", Better::Lower),
    ("store.wal.appends", "count", Better::Lower),
    ("store.wal.bytes_per_event", "bytes", Better::Lower),
    ("store.pager.hit_ratio", "ratio", Better::Higher),
    ("text.index_document_us", "us", Better::Lower),
    ("text.snippet_us", "us", Better::Lower),
    ("graph.user_pages_us", "us", Better::Lower),
    ("graph.trail_visits", "count", Better::Lower),
    ("learn.topic_filter_build_us", "us", Better::Lower),
    ("learn.classify_us", "us", Better::Lower),
    ("cluster.theme_rebuild_us", "us", Better::Lower),
    ("cluster.theme_docs", "count", Better::Lower),
    ("obs.stats_rtt_us", "us", Better::Lower),
    ("obs.histogram_record_ns", "ns", Better::Lower),
    ("bench.cpu_ms_per_req", "ms", Better::Lower),
    ("bench.open_loop_late_p99_us", "us", Better::Lower),
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// Every per-layer metric, grouped by layer as in the README.
pub fn per_layer() -> Vec<PerLayer> {
    let mut out = Vec::new();
    let mut push = |name: String, unit, better| out.push(PerLayer { name, unit, better });
    for class in Class::ALL {
        push(
            format!("net.rtt.{}.p50_us", class.name()),
            "us",
            Better::Lower,
        );
        push(
            format!("net.rtt.{}.p99_us", class.name()),
            "us",
            Better::Lower,
        );
    }
    for servlet in SERVLETS {
        push(
            format!("core.servlet.{servlet}.mean_us"),
            "us",
            Better::Lower,
        );
    }
    for (name, unit, better) in PER_LAYER_FIXED {
        push(name.to_string(), unit, better);
    }
    for e in &END_TO_END {
        push(
            format!("bench.trial_spread_pct.{}", e.name),
            "%",
            Better::Lower,
        );
    }
    for name in crate::TRIAL_MEDIANS {
        push(format!("bench.trial_median.{name}"), "us", Better::Lower);
    }
    push("bench.trace_overhead_pct".to_string(), "%", Better::Lower);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Pull `"key": "value"` / `"key": number` out of one flat JSON object.
    fn field<'a>(object: &'a str, key: &str) -> &'a str {
        let at = object.find(&format!("\"{key}\"")).expect(key);
        let rest = object[at + key.len() + 2..].trim_start_matches([':', ' ']);
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        rest[..end].trim().trim_matches('"')
    }

    fn objects<'a>(json: &'a str, list: &str) -> Vec<&'a str> {
        let start = json.find(&format!("\"{list}\"")).expect(list);
        let open = start + json[start..].find('[').expect("[");
        let close = open + json[open..].find(']').expect("]");
        json[open + 1..close]
            .split('{')
            .skip(1)
            .map(|o| o.split('}').next().expect("}"))
            .collect()
    }

    #[test]
    fn benchmark_json_names_exactly_these_metrics_and_workloads() {
        let json =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let e2e = objects(&json, "end_to_end");
        assert_eq!(e2e.len(), END_TO_END.len());
        for (o, e) in e2e.iter().zip(&END_TO_END) {
            assert_eq!(field(o, "name"), e.name);
            assert_eq!(field(o, "unit"), e.unit);
            assert_eq!(field(o, "better"), e.better.name());
            assert_eq!(field(o, "bound").parse::<f64>().unwrap(), e.bound);
        }
        let layers = objects(&json, "per_layer");
        let expected = per_layer();
        assert_eq!(layers.len(), expected.len());
        for (o, m) in layers.iter().zip(&expected) {
            assert_eq!(field(o, "name"), m.name);
            assert_eq!(field(o, "unit"), m.unit);
            assert_eq!(field(o, "better"), m.better.name());
        }
        let workloads = objects(&json, "workloads");
        let names: Vec<&str> = workloads.iter().map(|o| field(o, "name")).collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, ours);
    }
}
