//! # N2 — LSM read/write amplification under tiered compaction
//!
//! The numbers PR 10's bugfix claim rests on, in two parts:
//!
//! 1. **Point-read flatness.** Accumulate ≥16 sealed runs (background
//!    compaction off), measure `get()` latency percentiles, then compact
//!    the whole stack to a single run and measure the same workload
//!    again. With per-run bloom filters the multi-run p99 must stay
//!    within 1.2x of the single-run baseline: probing a run the key
//!    cannot be in costs one bloom check, not a full index descent.
//!    Absent-key probes (pure bloom-skip traffic) are reported as their
//!    own row, ungated — they are the workload the old code paid 16
//!    index descents for.
//!
//! 2. **Ingest-while-scan at 10x volume.** The PR 8 scenario
//!    (`n1_net::ingest_while_scan`) rerun with `write_rounds` scaled
//!    10x: sustained write throughput must stay within 10% of the
//!    committed `BENCH_PR8.json` reference now that compaction merges
//!    one tier at a time instead of rewriting the whole stack per wake.
//!
//! Results land in `BENCH_PR10.json` (override the path with
//! `MEMEX_BENCH_PR10_PATH`).

use std::time::Instant;

use memex_obs::MetricsRegistry;
use memex_store::{LsmOptions, LsmStore};

use crate::n1_net::{ingest_scan_json, ingest_while_scan, IngestScanStats};
use crate::table::Table;
use crate::worlds::standard_world;

/// Latency percentiles (ns) over one timed `get()` sweep.
struct ReadSweep {
    gets: usize,
    wall_ms: f64,
    p50_ns: u64,
    p95_ns: u64,
    p99_ns: u64,
}

/// Bloom counter deltas across one sweep, read from the attached registry.
struct BloomDelta {
    hit: u64,
    skip: u64,
    fp: u64,
}

impl BloomDelta {
    /// Fraction of run probes the filter answered without touching the
    /// run's index (`skip / (hit + skip + fp)`).
    fn skip_rate(&self) -> f64 {
        let total = self.hit + self.skip + self.fp;
        if total == 0 {
            0.0
        } else {
            self.skip as f64 / total as f64
        }
    }
}

fn key(i: usize) -> Vec<u8> {
    format!("page:{i:08}").into_bytes()
}

fn absent_key(i: usize) -> Vec<u8> {
    format!("ghost:{i:08}").into_bytes()
}

/// Deterministic xorshift so the sweep order is identical before and
/// after compaction (no `rand` in the workspace).
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x
}

fn percentile_ns(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Time `gets` point reads against `store`, keys chosen by `pick`.
fn read_sweep(store: &LsmStore, gets: usize, mut pick: impl FnMut(u64) -> Vec<u8>) -> ReadSweep {
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    let start = Instant::now();
    let mut samples: Vec<u64> = Vec::with_capacity(gets);
    for _ in 0..gets {
        let k = pick(xorshift(&mut seed));
        let t = Instant::now();
        let _ = store.get(&k).expect("bench get");
        samples.push(t.elapsed().as_nanos() as u64);
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    samples.sort_unstable();
    ReadSweep {
        gets,
        wall_ms,
        p50_ns: percentile_ns(&samples, 0.50),
        p95_ns: percentile_ns(&samples, 0.95),
        p99_ns: percentile_ns(&samples, 0.99),
    }
}

fn bloom_delta(registry: &MetricsRegistry, base: &(u64, u64, u64)) -> BloomDelta {
    let snap = registry.snapshot();
    BloomDelta {
        hit: snap.counter("store.lsm.bloom.hit") - base.0,
        skip: snap.counter("store.lsm.bloom.skip") - base.1,
        fp: snap.counter("store.lsm.bloom.fp") - base.2,
    }
}

fn bloom_totals(registry: &MetricsRegistry) -> (u64, u64, u64) {
    let snap = registry.snapshot();
    (
        snap.counter("store.lsm.bloom.hit"),
        snap.counter("store.lsm.bloom.skip"),
        snap.counter("store.lsm.bloom.fp"),
    )
}

fn sweep_row(table: &mut Table, name: &str, s: &ReadSweep) {
    table.row(vec![
        name.to_string(),
        "1".into(),
        s.gets.to_string(),
        s.gets.to_string(),
        "0".into(),
        "0".into(),
        format!("{:.0}", s.wall_ms),
        format!(
            "{:.0}",
            s.gets as f64 / (s.wall_ms / 1e3).max(f64::MIN_POSITIVE)
        ),
        format!("{:.2}", s.p50_ns as f64 / 1e3),
        format!("{:.2}", s.p95_ns as f64 / 1e3),
        format!("{:.2}", s.p99_ns as f64 / 1e3),
    ]);
}

/// Pull the committed `BENCH_PR8.json` lsm write rate out of the
/// artifact (hand-rolled parse; no serde in the workspace). Returns
/// `None` if the artifact is missing or the row cannot be found.
fn pr8_lsm_write_rate(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let lsm_at = text.find("\"engine\": \"lsm\"")?;
    let tail = &text[lsm_at..];
    let field = "\"write_reqs_per_sec\": ";
    let at = tail.find(field)? + field.len();
    let rest = &tail[at..];
    let end = rest.find([',', '}'])?;
    rest[..end].trim().parse().ok()
}

struct PointReadResults {
    runs_before: usize,
    keys: usize,
    multi: ReadSweep,
    multi_bloom: BloomDelta,
    absent: ReadSweep,
    absent_bloom: BloomDelta,
    single: ReadSweep,
    single_bloom: BloomDelta,
}

impl PointReadResults {
    fn p99_ratio(&self) -> f64 {
        self.multi.p99_ns as f64 / (self.single.p99_ns as f64).max(f64::MIN_POSITIVE)
    }
}

/// Part 1: build the multi-run store, time reads, compact, time again.
fn point_reads(table: &mut Table, quick: bool) -> PointReadResults {
    let runs = 16usize;
    let keys_per_run = if quick { 1024 } else { 4096 };
    let keys = runs * keys_per_run;
    let registry = MetricsRegistry::new();
    let mut store = LsmStore::open_memory_opts(LsmOptions {
        // Seal manually so the run count is exact; never auto-compact.
        memtable_bytes: u64::MAX,
        compact_min_runs: usize::MAX,
        background_compaction: false,
        sync_every_append: false,
    })
    .expect("open lsm");
    store.attach_registry(&registry);
    for r in 0..runs {
        for i in 0..keys_per_run {
            let k = key(r * keys_per_run + i);
            store.put(&k, &k).expect("bench put");
        }
        store.seal().expect("bench seal");
    }
    assert_eq!(store.run_count(), runs, "accumulated run stack");

    let gets = if quick { 20_000 } else { 100_000 };
    // Warm-up pass so page-in and allocator noise stays out of the tail.
    read_sweep(&store, gets / 10, |r| key(r as usize % keys));

    let base = bloom_totals(&registry);
    let multi = read_sweep(&store, gets, |r| key(r as usize % keys));
    let multi_bloom = bloom_delta(&registry, &base);
    sweep_row(table, &format!("get/runs-{runs}"), &multi);

    let base = bloom_totals(&registry);
    let absent = read_sweep(&store, gets / 4, |r| absent_key(r as usize % keys));
    let absent_bloom = bloom_delta(&registry, &base);
    sweep_row(table, &format!("get-absent/runs-{runs}"), &absent);

    while store.compact_now().expect("bench compact") {}
    assert_eq!(store.run_count(), 1, "compacted to a single run");
    read_sweep(&store, gets / 10, |r| key(r as usize % keys));
    let base = bloom_totals(&registry);
    let single = read_sweep(&store, gets, |r| key(r as usize % keys));
    let single_bloom = bloom_delta(&registry, &base);
    sweep_row(table, "get/runs-1", &single);

    PointReadResults {
        runs_before: runs,
        keys,
        multi,
        multi_bloom,
        absent,
        absent_bloom,
        single,
        single_bloom,
    }
}

/// Serialise everything into the committed `BENCH_PR10.json` artifact.
fn write_pr10_artifact(
    path: &str,
    quick: bool,
    reads: &PointReadResults,
    iws_row: &IngestScanStats,
    pr8_rate: Option<f64>,
) {
    let sweep_json = |s: &ReadSweep, bloom: &BloomDelta| {
        format!(
            "{{\"gets\": {}, \"p50_ns\": {}, \"p95_ns\": {}, \"p99_ns\": {}, \
             \"bloom_hit\": {}, \"bloom_skip\": {}, \"bloom_fp\": {}, \"bloom_skip_rate\": {:.4}}}",
            s.gets,
            s.p50_ns,
            s.p95_ns,
            s.p99_ns,
            bloom.hit,
            bloom.skip,
            bloom.fp,
            bloom.skip_rate(),
        )
    };
    let mut out = String::from("{\n");
    out.push_str("  \"bench\": \"N2\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick { "quick" } else { "full" }
    ));
    out.push_str("  \"point_reads\": {\n");
    out.push_str(&format!(
        "    \"runs\": {}, \"keys\": {},\n",
        reads.runs_before, reads.keys
    ));
    out.push_str(&format!(
        "    \"multi_run\": {},\n",
        sweep_json(&reads.multi, &reads.multi_bloom)
    ));
    out.push_str(&format!(
        "    \"multi_run_absent\": {},\n",
        sweep_json(&reads.absent, &reads.absent_bloom)
    ));
    out.push_str(&format!(
        "    \"single_run\": {},\n",
        sweep_json(&reads.single, &reads.single_bloom)
    ));
    out.push_str(&format!(
        "    \"p99_ratio\": {:.3}, \"p99_gate_1_2x\": {}\n",
        reads.p99_ratio(),
        reads.p99_ratio() <= 1.2
    ));
    out.push_str("  },\n");
    out.push_str("  \"ingest_while_scan_10x\": [\n");
    out.push_str(&format!("    {}\n", ingest_scan_json(iws_row)));
    out.push_str("  ],\n");
    match pr8_rate {
        Some(reference) => {
            let ratio = iws_row.write_reqs_per_sec / reference.max(f64::MIN_POSITIVE);
            out.push_str(&format!(
                "  \"pr8_reference\": {{\"lsm_write_reqs_per_sec\": {:.1}, \
                 \"ratio_at_10x\": {:.3}, \"within_10pct\": {}}}\n",
                reference,
                ratio,
                ratio >= 0.9
            ));
        }
        None => out.push_str("  \"pr8_reference\": null\n"),
    }
    out.push_str("}\n");
    if let Err(e) = std::fs::write(path, out) {
        eprintln!("warning: could not write {path}: {e}");
    }
}

/// The N2 table.
pub fn run(quick: bool) -> Table {
    let mut table = Table::new(
        "N2 — LSM tiered compaction: point-read flatness + 10x ingest-while-scan",
        &[
            "scenario", "clients", "sent", "ok", "shed", "errors", "wall_ms", "req/s", "p50_us",
            "p95_us", "p99_us",
        ],
    );

    let reads = point_reads(&mut table, quick);
    assert!(
        reads.p99_ratio() <= 1.2,
        "multi-run get p99 must stay within 1.2x of the single-run baseline \
         (got {:.3}x: {} ns over {} runs vs {} ns over 1)",
        reads.p99_ratio(),
        reads.multi.p99_ns,
        reads.runs_before,
        reads.single.p99_ns,
    );

    // Part 2: the PR 8 scenario at 10x the write volume. Same world
    // seed, same client/scan shape — the only change is ingest depth.
    let (corpus, community, _memex) = standard_world(true, 0x9E7);
    let users: Vec<u32> = community.users.iter().map(|u| u.user).collect();
    let iws_write_rounds = if quick { 1200 } else { 4000 };
    let iws_scan_rounds = if quick { 40 } else { 150 };
    let iws_row = ingest_while_scan(
        &mut table,
        &corpus,
        &community,
        &users,
        iws_write_rounds,
        iws_scan_rounds,
    );

    let pr8_path =
        std::env::var("MEMEX_BENCH_PR8_PATH").unwrap_or_else(|_| "BENCH_PR8.json".to_string());
    let pr8_rate = pr8_lsm_write_rate(&pr8_path);
    let pr10_path =
        std::env::var("MEMEX_BENCH_PR10_PATH").unwrap_or_else(|_| "BENCH_PR10.json".to_string());
    write_pr10_artifact(&pr10_path, quick, &reads, &iws_row, pr8_rate);

    table.note(&format!(
        "get rows: per-op latency percentiles in microseconds; p99 ratio multi/single = {:.3} \
         (gate <= 1.2), bloom skip rate over {} runs = {:.1}%",
        reads.p99_ratio(),
        reads.runs_before,
        100.0 * reads.multi_bloom.skip_rate(),
    ));
    if let Some(reference) = pr8_rate {
        table.note(&format!(
            "ingest-while-scan at 10x volume: write throughput {:.1} req/s vs PR8 lsm reference \
             {:.1} ({:.3}x)",
            iws_row.write_reqs_per_sec,
            reference,
            iws_row.write_reqs_per_sec / reference.max(f64::MIN_POSITIVE),
        ));
    }
    table.note(&format!("machine-readable artifact written to {pr10_path}"));
    table
}
