//! One trial: a fresh process (so a fresh `HashMap` seed) builds the world,
//! serves it over loopback TCP, runs the plan's fixed request lists,
//! checks every answer against the oracle's and prints raw numbers for the
//! parent to reduce.

use std::collections::BTreeMap;
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use memex_core::servlet::{Request, Response};
use memex_net::wire::{self, FrameKind, TraceContext};
use memex_net::{ClientConfig, MemexClient, NetError, NetServer, NetServerConfig};
use memex_obs::Snapshot;

use crate::affinity;
use crate::metrics::SERVLETS;
use crate::replay;
use crate::spans::Spans;
use crate::stats::{percentile, run_open_loop, StatsDelta};
use crate::workloads::{Class, Pacing, Plan, Stream, Workload};
use crate::world::World;

/// What a trial hands back: named values, `Stats` counter deltas and the
/// latency of every measured request.
#[derive(Debug, Default)]
pub struct TrialResult {
    pub values: BTreeMap<String, f64>,
    pub counts: BTreeMap<String, u64>,
    /// Each measured request, stream by stream in plan order: entry `i` is
    /// the same request in every trial of a run.
    pub requests: Vec<Timed>,
}

/// When a measured request went out and how long its answer took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timed {
    pub class: Class,
    /// Since the window opened.
    pub sent_ns: u64,
    /// Round trip; from the due time on an open-loop stream.
    pub latency_ns: u64,
}

impl TrialResult {
    pub fn value(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// `v <name> <value>` / `c <name> <count>` / `r <class> <sent>,<latency>`
    /// lines.
    pub fn print(&self) {
        let mut text = String::new();
        for (name, v) in &self.values {
            text.push_str(&format!("v {name} {v}\n"));
        }
        for (name, c) in &self.counts {
            text.push_str(&format!("c {name} {c}\n"));
        }
        for r in &self.requests {
            let (class, sent, latency) = (r.class.name(), r.sent_ns, r.latency_ns);
            text.push_str(&format!("r {class} {sent},{latency}\n"));
        }
        print!("{text}");
    }

    pub fn parse(text: &str) -> Result<TrialResult, String> {
        let mut out = TrialResult::default();
        for line in text.lines() {
            let mut parts = line.split(' ');
            let (Some(kind), Some(name), Some(value)) = (parts.next(), parts.next(), parts.next())
            else {
                return Err(format!("trial printed an unreadable line: {line:?}"));
            };
            let unreadable = || format!("trial printed an unreadable line: {line:?}");
            match kind {
                "v" => {
                    let v = value.parse().map_err(|_| unreadable())?;
                    out.values.insert(name.into(), v);
                }
                "c" => {
                    let c = value.parse().map_err(|_| unreadable())?;
                    out.counts.insert(name.into(), c);
                }
                "r" => {
                    let (sent, latency) = value.split_once(',').ok_or_else(unreadable)?;
                    out.requests.push(Timed {
                        class: Class::parse(name).ok_or_else(unreadable)?,
                        sent_ns: sent.parse().map_err(|_| unreadable())?,
                        latency_ns: latency.parse().map_err(|_| unreadable())?,
                    });
                }
                _ => return Err(unreadable()),
            }
        }
        Ok(out)
    }
}

/// A connection: the product's client, or — in the traced run — the same
/// exchange spelled out with a span around each step.
enum Conn {
    Plain(MemexClient),
    Traced { stream: TcpStream, spans: Spans },
}

impl Conn {
    fn connect(addr: SocketAddr, traced: Option<Instant>) -> Result<Conn, NetError> {
        match traced {
            None => Ok(Conn::Plain(MemexClient::connect(
                addr,
                ClientConfig::default(),
            )?)),
            Some(origin) => {
                let config = ClientConfig::default();
                let stream = TcpStream::connect_timeout(&addr, config.connect_timeout)?;
                stream.set_read_timeout(Some(config.request_timeout))?;
                stream.set_write_timeout(Some(config.request_timeout))?;
                stream.set_nodelay(true)?;
                Ok(Conn::Traced {
                    stream,
                    spans: Spans::new(origin),
                })
            }
        }
    }

    /// `id` labels the spans and, on the wire, the server's trace.
    fn request(&mut self, id: usize, request: &Request) -> Result<Response, NetError> {
        match self {
            Conn::Plain(client) => client.request(request),
            Conn::Traced { stream, spans } => {
                spans.set_request(id);
                spans.enter("client.request");
                let payload = spans.time("client.encode", || wire::encode_request(request));
                let trace = Some(TraceContext {
                    trace_id: id as u64 + 1,
                    retry_of: None,
                });
                let wrote = spans.time("client.write", || {
                    wire::write_frame_versioned(
                        stream,
                        wire::WIRE_VERSION,
                        FrameKind::Request,
                        &payload,
                        trace,
                    )
                });
                let frame = spans.time("client.await", || wire::read_frame_meta(stream));
                let response = spans.time("client.decode", || {
                    wire::decode_response(frame.as_ref().map_or(&[][..], |f| &f.payload))
                });
                spans.exit();
                wrote?;
                frame?;
                Ok(response?)
            }
        }
    }
}

/// Hand over what the traced connections recorded so far (nothing on
/// plain ones) and start them afresh.
fn take_spans(conns: &mut [Conn]) -> Vec<Spans> {
    conns
        .iter_mut()
        .filter_map(|conn| match conn {
            Conn::Traced { spans, .. } => {
                let fresh = Spans::new(spans.origin());
                Some(std::mem::replace(spans, fresh))
            }
            Conn::Plain(_) => None,
        })
        .collect()
}

/// One measured request.
struct Sample {
    timed: Timed,
    /// How late an open-loop generator sent it.
    late_ns: Option<u64>,
    correct: bool,
}

/// Does `response` answer a request of `class` at all? The check for
/// answers that legitimately depend on a racing writer.
fn right_variant(class: Class, response: &Response) -> bool {
    matches!(
        (class, response),
        (
            Class::Visit | Class::Bookmark,
            Response::Ack { archived: true }
        ) | (Class::Recall, Response::Recall(_))
            | (Class::TrailReplay, Response::TrailReplay(_))
            | (Class::WhatsNew, Response::WhatsNew(_))
            | (Class::Bill, Response::Bill(_))
            | (Class::SimilarSurfers, Response::SimilarSurfers(_))
            | (Class::Recommend, Response::Recommend(_))
    )
}

/// `Response: PartialEq`, except that the three score lists may differ in
/// their last bits: the product sums theme-profile weights in `HashMap`
/// order, which changes with every process's hash seed (README, "Noise").
/// Ids must match position by position; scores to one part in 10⁹.
pub fn same_answer(got: &Response, expected: &Response) -> bool {
    fn close(a: &[(u32, f64)], b: &[(u32, f64)]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|(&(ia, sa), &(ib, sb))| {
                ia == ib && (sa - sb).abs() <= 1e-9 * sa.abs().max(sb.abs()).max(1.0)
            })
    }
    match (got, expected) {
        (Response::SimilarSurfers(a), Response::SimilarSurfers(b))
        | (Response::Recommend(a), Response::Recommend(b))
        | (Response::WhatsNew(a), Response::WhatsNew(b)) => close(a, b),
        _ => got == expected,
    }
}

/// I/O errors, `Response::Error`, `Overloaded` and wrong answers all fail.
fn is_correct(class: Class, got: &Result<Response, NetError>, expected: Option<&Response>) -> bool {
    match (got, expected) {
        (Err(_), _) => false,
        (Ok(response), Some(expected)) => same_answer(response, expected),
        (Ok(response), None) => right_variant(class, response),
    }
}

/// Run one connection's list; every thread measures from `window_start`.
fn run_stream(stream: &Stream, conn: &mut Conn, window_start: Instant) -> Vec<Sample> {
    let mut exchange = |i: usize| {
        let pool_index = stream.order[i] as usize;
        let request = &stream.pool[pool_index];
        let class = Class::of(request);
        let sent = Instant::now();
        let got = conn.request(i, request);
        let latency_ns = sent.elapsed().as_nanos() as u64;
        let sent_ns = sent.duration_since(window_start).as_nanos() as u64;
        Sample {
            timed: Timed {
                class,
                sent_ns,
                latency_ns,
            },
            late_ns: None,
            correct: is_correct(class, &got, stream.expected.get(pool_index)),
        }
    };
    match &stream.pacing {
        Pacing::Closed => (0..stream.order.len()).map(exchange).collect(),
        Pacing::Open { due_ns } => {
            let mut samples = Vec::with_capacity(due_ns.len());
            let now = || window_start.elapsed().as_nanos() as u64;
            let paced = run_open_loop(
                due_ns,
                now,
                |due| std::thread::sleep(Duration::from_nanos(due.saturating_sub(now()))),
                |i| samples.push(exchange(i)),
            );
            for (sample, p) in samples.iter_mut().zip(paced) {
                sample.timed.latency_ns = p.latency();
                sample.late_ns = Some(p.lateness());
            }
            samples
        }
    }
}

/// utime + stime in ms (100 Hz ticks) from `/proc/self/stat`, the whole
/// process, or `/proc/thread-self/stat`, the calling thread.
fn cpu_ms(stat_file: &str) -> f64 {
    let stat = std::fs::read_to_string(stat_file).unwrap_or_default();
    // Fields after the parenthesised command name; utime and stime are
    // the 14th and 15th of the whole line.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) * 10.0
}

/// Burns the idle cycles of the trial's CPU while an open-loop window runs.
/// A trial that sleeps between requests halts its vCPU; every request then
/// starts with the host waking it, on a core the host has clocked down or
/// lent to someone else, and that wake-up was the largest noise term of
/// `browse_mix` (README, "Noise"). At `SCHED_IDLE` priority the loop never
/// takes a cycle another thread wants, and it touches no memory.
struct IdleSpinner {
    stop: Arc<AtomicBool>,
    thread: std::thread::JoinHandle<f64>,
}

impl IdleSpinner {
    fn start() -> IdleSpinner {
        let stop = Arc::new(AtomicBool::new(false));
        let stopped = stop.clone();
        let thread = std::thread::spawn(move || {
            if !affinity::run_only_when_idle() {
                eprintln!("benchmark: SCHED_IDLE refused, the window runs without an idle spinner");
                return 0.0;
            }
            let mut x = 0u64;
            while !stopped.load(Ordering::Relaxed) {
                // Plain arithmetic, no PAUSE: a hypervisor may take a PAUSE
                // loop for a waiting lock and deschedule the vCPU.
                for _ in 0..1000 {
                    x = std::hint::black_box(x.wrapping_mul(6364136223846793005).wrapping_add(1));
                }
            }
            cpu_ms("/proc/thread-self/stat")
        });
        IdleSpinner { stop, thread }
    }

    /// Stop it; the CPU time it used, in ms.
    fn stop(self) -> f64 {
        self.stop.store(true, Ordering::Relaxed);
        self.thread.join().expect("idle spinner panicked")
    }
}

/// Peak resident set (`VmHWM`) in MB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn stats(conn: &mut Conn) -> Result<Snapshot, String> {
    match conn.request(0, &Request::Stats) {
        Ok(Response::Stats(snapshot)) => Ok(snapshot),
        other => Err(format!("Request::Stats answered {other:?}")),
    }
}

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

pub struct TrialArgs<'a> {
    pub workload: Workload,
    pub plan: &'a Path,
    /// Write the trace and layer table here: this is the traced run.
    pub trace_dir: Option<&'a Path>,
}

/// What the wire run measured, before any arithmetic.
struct Measured {
    samples: Vec<Sample>,
    /// Until the last connection finished its list.
    window_s: f64,
    setup_s: f64,
    cpu_ms: f64,
    peak_rss_mb: f64,
    stats_rtt_ns: u64,
    before: Snapshot,
    after: Snapshot,
    probes: usize,
    probes_failed: usize,
    /// One recorder per connection in the traced run, else empty.
    client_spans: Vec<Spans>,
}

/// Serve the plan's archive over loopback and run its lists against it.
fn measure(
    plan: &Plan,
    world: &World,
    process_start: Instant,
    traced: bool,
) -> Result<Measured, String> {
    let memex = world.memex(plan.prefill);
    let server = NetServer::start(memex, "127.0.0.1:0", NetServerConfig::default())
        .map_err(|e| format!("server start: {e}"))?;
    let addr = server.local_addr();
    let mut conns = Vec::new();
    for _ in &plan.streams {
        let conn = Conn::connect(addr, traced.then_some(process_start));
        conns.push(conn.map_err(|e| format!("connect: {e}"))?);
    }
    // Control traffic (warm-up, Stats, probe) rides the last connection:
    // the reader's on `browse_mix`, the only one elsewhere.
    let control = conns.len() - 1;
    for (i, request) in plan.warmup.iter().enumerate() {
        conns[control]
            .request(i, request)
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    let stats_sent = Instant::now();
    let before = stats(&mut conns[control])?;
    let stats_rtt_ns = stats_sent.elapsed().as_nanos() as u64;
    // Only the measured window goes into the trace.
    drop(take_spans(&mut conns));
    let open_loop = plan
        .streams
        .iter()
        .any(|s| matches!(s.pacing, Pacing::Open { .. }));
    let spinner = open_loop.then(IdleSpinner::start);
    let cpu_before = cpu_ms("/proc/self/stat");
    let setup_s = process_start.elapsed().as_secs_f64();

    let window_start = Instant::now();
    let per_stream: Vec<(Vec<Sample>, Duration)> = std::thread::scope(|scope| {
        let handles: Vec<_> = plan
            .streams
            .iter()
            .zip(conns.iter_mut())
            .map(|(stream, conn)| {
                scope.spawn(move || {
                    let samples = run_stream(stream, conn, window_start);
                    (samples, window_start.elapsed())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread panicked"))
            .collect()
    });
    let spun_ms = spinner.map_or(0.0, IdleSpinner::stop);
    let cpu_ms = cpu_ms("/proc/self/stat") - cpu_before - spun_ms;
    let peak_rss_mb = peak_rss_mb();
    let client_spans = take_spans(&mut conns);
    let after = stats(&mut conns[control])?;

    let mut probes_failed = 0usize;
    for (i, (request, expected)) in plan.probe.iter().zip(&plan.probe_expected).enumerate() {
        let got = conns[control].request(i, request);
        if !is_correct(Class::of(request), &got, Some(expected)) {
            probes_failed += 1;
        }
    }
    drop(conns);
    drop(server.shutdown());

    let window_s = per_stream
        .iter()
        .map(|(_, done)| done.as_secs_f64())
        .fold(0.0, f64::max);
    Ok(Measured {
        samples: per_stream.into_iter().flat_map(|(s, _)| s).collect(),
        window_s,
        setup_s,
        cpu_ms,
        peak_rss_mb,
        stats_rtt_ns,
        before,
        after,
        probes: plan.probe.len(),
        probes_failed,
        client_spans,
    })
}

/// The end-to-end numbers and the `T` and `S` per-layer metrics.
fn summarize(workload: Workload, m: &Measured) -> TrialResult {
    let samples = &m.samples;
    let requests = samples.len().max(1) as f64;
    let correct = samples.iter().filter(|s| s.correct).count();
    let mut out = TrialResult::default();
    let mut set = |name: &str, v: f64| {
        out.values.insert(name.to_string(), v);
    };
    set("attempted", (samples.len() + m.probes) as f64);
    set("failed", (samples.len() - correct + m.probes_failed) as f64);
    set("setup_s", m.setup_s);
    set("throughput_rps", correct as f64 / m.window_s);
    set("window_ns", m.window_s * 1e9);
    set("correct_in_window", correct as f64);
    set("peak_rss_mb", m.peak_rss_mb);

    // Ascending latencies of one class, or of every request.
    let sorted_latencies = |class: Option<Class>| {
        let mut v: Vec<u64> = samples
            .iter()
            .filter(|s| class.is_none_or(|c| s.timed.class == c))
            .map(|s| s.timed.latency_ns)
            .collect();
        v.sort_unstable();
        v
    };
    let headline = sorted_latencies(workload.headline());
    set("latency_p50_us", us(percentile(&headline, 0.5)));
    set("latency_p95_us", us(percentile(&headline, 0.95)));
    let mut late: Vec<u64> = samples.iter().filter_map(|s| s.late_ns).collect();
    late.sort_unstable();
    set("bench.open_loop_late_p99_us", us(percentile(&late, 0.99)));
    set("bench.cpu_ms_per_req", m.cpu_ms / requests);
    set("obs.stats_rtt_us", us(m.stats_rtt_ns));

    let delta = StatsDelta::between(&m.before, &m.after);
    let mean_rtt_us =
        samples.iter().map(|s| s.timed.latency_ns).sum::<u64>() as f64 / requests / 1e3;
    let server_req_us = delta.mean_us("net.req.latency");
    set("net.server.req_mean_us", server_req_us);
    set("net.transport_mean_us", mean_rtt_us - server_req_us);
    set("net.lock.wait_mean_us", delta.mean_us("net.lock.wait"));
    set("net.lock.wait_total_ms", delta.total_ms("net.lock.wait"));
    set(
        "net.cache.hit_ratio",
        delta.share("net.read.cache.hit", "net.read.cache.miss"),
    );
    for servlet in SERVLETS {
        set(
            &format!("core.servlet.{servlet}.mean_us"),
            delta.mean_us(&format!("servlet.{servlet}.latency")),
        );
    }
    for (metric, histogram) in [
        ("server.fetch.mean_us", "server.fetch.latency"),
        ("index.commit.mean_us", "index.commit.latency"),
        ("index.query.mean_us", "index.query.latency"),
    ] {
        set(metric, delta.mean_us(histogram));
    }
    let events = delta.counter("server.events.submitted");
    set(
        "store.wal.bytes_per_event",
        delta.counter("store.wal.appended_bytes") as f64 / events.max(1) as f64,
    );
    set(
        "store.pager.hit_ratio",
        delta.share("store.pager.hits", "store.pager.misses"),
    );
    // The size of the trail graph every per-user walk scans.
    set(
        "graph.trail_visits",
        m.after.counter("server.trail.visits") as f64,
    );
    out.counts = delta.counters;
    out.requests = samples.iter().map(|s| s.timed).collect();
    out
}

/// Run the trial. `process_start` is taken first thing in `main`.
pub fn run(args: &TrialArgs, process_start: Instant) -> Result<TrialResult, String> {
    let plan = Plan::load(args.plan)?;
    let world = World::generate();
    let mut measured = measure(&plan, &world, process_start, args.trace_dir.is_some())?;
    let mut out = summarize(args.workload, &measured);

    if let Some(dir) = args.trace_dir {
        let mut recorders = std::mem::take(&mut measured.client_spans);
        let rollups: Vec<_> = recorders.iter().map(Spans::rollup).collect();
        for step in ["encode", "write", "await", "decode"] {
            let (count, total) = rollups
                .iter()
                .filter_map(|r| r.get(format!("client.{step}").as_str()))
                .fold((0, 0), |(c, t), r| (c + r.count, t + r.total_ns));
            let mean_us = total as f64 / count.max(1) as f64 / 1e3;
            out.values.insert(format!("net.client.{step}_us"), mean_us);
        }
        let replayed = replay::run(&world, &plan, process_start);
        out.values.extend(replayed.values);
        *out.values.entry("failed".into()).or_default() += replayed.mismatches as f64;
        recorders.push(replayed.spans);
        replay::write_trace(dir, args.workload, &plan, &recorders)
            .map_err(|e| format!("writing the trace: {e}"))?;
    }
    Ok(out)
}
